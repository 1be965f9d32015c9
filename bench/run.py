"""Alignment benchmark: one workload, one run, one JSON line of results.

Usage, from the root of a checkout:

    python3 bench/run.py --workload clean --seed 1 --seconds 20 --trace 0

The run generates (or reuses) the workload's inputs, checks the engine
against tests/oracle.py on a reduced copy of the recipe, then starts
bench/worker.py, which repeats whole operations for --seconds seconds. Every
operation's TSVs are checked against the generator's gold files. The last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_operation, oracle_lockstep  # noqa: E402
from workloads import CACHE, REDUCED_PERSONS, WORKLOADS, prepare  # noqa: E402


def input_lines(inputs: Path) -> int:
    total = 0
    for name in ("left.nt", "right.nt"):
        with open(inputs / name, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def run_worker(root: Path, recipe, inputs: Path, work: Path, seconds: int,
               trace: bool, spans: Path) -> dict:
    result = work / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root),
           "--inputs", str(inputs), "--out", str(work / "ops"),
           "--seconds", str(seconds), "--result", str(result)]
    if recipe.negative_evidence:
        cmd.append("--negative-evidence")
    if trace:
        cmd += ["--trace", "--spans", str(spans)]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    return json.loads(result.read_text(encoding="utf-8"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    needed = (root / "src" / "ontoalign", root / "tests" / "oracle.py", root / "BENCHMARK.json")
    if not all(path.exists() for path in needed):
        print("error: run from the root of an ontoalign checkout"
              " (src/ontoalign, tests/oracle.py and BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    import ontoalign

    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    recipe = WORKLOADS[args.workload]
    config = ontoalign.AlignmentConfig(negative_evidence=recipe.negative_evidence)
    inputs = prepare(root, args.workload, args.seed)
    reduced = prepare(root, args.workload, args.seed, REDUCED_PERSONS)

    correct = True
    oracle_problems = oracle_lockstep(reduced, config)
    for problem in oracle_problems[:5]:
        print(f"FAIL {problem}", file=sys.stderr)
    if oracle_problems:
        correct = False

    work = root / CACHE / "runs" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spans = root / CACHE / "spans" / f"{args.workload}-s{args.seed}.json"
    try:
        report = run_worker(root, recipe, inputs, work, args.seconds, bool(args.trace), spans)
        ops = report["ops"]
        failed = 0
        for i, op in enumerate(ops):
            if "error" in op:
                problems = [f"raised {op['error']}"]
            else:
                problems = check_operation(Path(op["dir"]), inputs)
            for problem in problems[:5]:
                print(f"FAIL op {i}: {problem}", file=sys.stderr)
            if problems and ("error" in op or recipe.known_fault is None):
                correct = False
            if problems or oracle_problems:
                failed += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    timed = [op for op in ops if "error" not in op]
    plain = [op for op in timed if not op.get("traced")]
    if not plain:
        print("error: no operation completed", file=sys.stderr)
        return 1
    lines = input_lines(inputs)
    total = statistics.median(op["total_s"] for op in plain)
    if args.trace:
        if "layers" not in report:
            print("error: no traced operation completed", file=sys.stderr)
            return 1
        values = dict(report["layers"])
        values["ntriples.lines"] = lines
        if "ntriples.load_s" in values:
            values["ntriples.lines_per_s"] = lines / values["ntriples.load_s"]
        traced_total = statistics.median(op["total_s"] for op in timed if op.get("traced"))
        values["trace.overhead_s"] = traced_total - total
        wanted = declared["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(op["setup_s"] for op in plain),
            "align_s": statistics.median(op["align_s"] for op in plain),
            "total_s": total,
            "triples_per_s": lines / total,
            "peak_rss_mb": report["peak_rss_mb"],
        }
        wanted = declared["end_to_end"]
    # A metric whose wrapped function is gone is dropped, not failed.
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    wall = statistics.median(op["wall_total_s"] for op in plain)
    print(f"{args.workload} wall-clock total {wall:.4g} s;"
          f" median speed-probe time {report['probe_s'] * 1e6:.1f} us")
    print(f"{args.workload} attempted {len(ops)} failed {failed}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
