"""Runs one workload's operations in a process of their own.

Started by run.py; not meant to be run by hand. One operation aligns the
workload's pair through the library API and writes the three TSVs into a
directory of its own, where run.py checks them. Apart from the speed probe
(see speed.py) the process runs nothing else while untraced, so its
``ru_maxrss`` is the operations' peak.

Times are reported in seconds at the probe's reference speed, next to the
wall-clock seconds they come from.

With tracing on, operations alternate untraced and traced, and a last pass
measures the store build under tracemalloc.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

from spans import Tracer, self_times, span_counts
from speed import SpeedProbe


def run_operation(ontoalign, probe: SpeedProbe, inputs: Path, out: Path, config) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    o1 = ontoalign.load_ontology(inputs / "left.nt", origin="first")
    o2 = ontoalign.load_ontology(inputs / "right.nt", origin="second")
    t1 = time.perf_counter()
    result = ontoalign.run_fixpoint(o1, o2, config)
    t2 = time.perf_counter()
    instances, relations, classes = ontoalign.result_rows(result)
    for name, rows in (("instances", instances), ("relations", relations), ("classes", classes)):
        ontoalign.write_alignment(rows, out / f"{name}.tsv")
    t3 = time.perf_counter()
    setup, align, rest = (probe.scaled(a, b) for a, b in ((t0, t1), (t1, t2), (t2, t3)))
    return {
        "dir": str(out),
        "setup_s": setup,
        "align_s": align,
        "total_s": setup + align + rest,
        "wall_total_s": t3 - t0,
        "iterations": len(result.iterations),
        "equivalences": len(result.equiv),
        "subrelations": len(result.subrel),
    }


def traced_operation(ontoalign, tracer: Tracer, probe: SpeedProbe, inputs: Path, out: Path,
                     config) -> dict:
    """One operation under the tracer, with its per-layer metrics under "layers".

    Span self times are scaled by the operation's reference-speed factor."""
    first = len(tracer.spans)
    tracer.install()
    try:
        with tracer.span("operation"):
            op = run_operation(ontoalign, probe, inputs, out, config)
    finally:
        tracer.uninstall()
    factor = op["total_s"] / op["wall_total_s"]
    spans = tracer.spans[first:]
    calls = span_counts(spans)
    counts = tracer.counts[tracer.op]
    tracer.op += 1
    layers = {f"{name}_s": t * factor for name, t in self_times(spans).items()
              if name != "operation"}
    layers.update({k: v for k, v in counts.items() if k != "engine.stored_instance_pairs"})
    if "engine.instance_sweep" in calls:
        layers["engine.candidate_yield"] = (
            counts["engine.stored_instance_pairs"] / counts["engine.pairs_evaluated"]
        )
    if "engine.evidence_view" not in tracer.missing:
        layers["engine.evidence_view_builds"] = calls.get("engine.evidence_view", 0)
    layers["engine.iterations"] = op["iterations"]
    layers["engine.equivalences"] = op["equivalences"]
    layers["engine.subrelations"] = op["subrelations"]
    op["layers"] = layers
    op["traced"] = True
    return op


def attempt(operation, *args) -> dict:
    """Run one operation; an exception fails it and the run goes on."""
    try:
        return operation(*args)
    except Exception:
        return {"error": traceback.format_exc(limit=-3)}


def store_bytes_per_statement(ontoalign, inputs: Path) -> float | None:
    """tracemalloc peak of building both stores from parsed triples, per
    inverse-closed statement."""
    build = getattr(ontoalign, "ontology_from_triples", None)
    parse = getattr(ontoalign, "parse_ntriples", None)
    if build is None or parse is None:
        return None
    peak = 0
    statements = 0
    for name, origin in (("left.nt", "first"), ("right.nt", "second")):
        with open(inputs / name, encoding="utf-8") as fh:
            triples = list(parse(fh))
        tracemalloc.start()
        onto = build(triples, origin=origin)
        peak += tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        statements += onto.statement_count()
        del onto, triples
    return peak / statements


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--negative-evidence", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(args.root / "src"))
    import ontoalign

    config = ontoalign.AlignmentConfig(negative_evidence=args.negative_evidence)
    tracer = Tracer()
    ops: list[dict] = []
    with SpeedProbe() as probe:
        started = time.perf_counter()
        # A round is one operation, or with tracing an untraced and a traced one.
        while time.perf_counter() - started < args.seconds:
            ops.append(attempt(run_operation, ontoalign, probe, args.inputs,
                               args.out / f"op{len(ops)}", config))
            if args.trace:
                ops.append(attempt(traced_operation, ontoalign, tracer, probe, args.inputs,
                                   args.out / f"op{len(ops)}", config))
    report = {
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "probe_s": statistics.median(t for _, t in probe.samples),
    }
    layers = [op["layers"] for op in ops if "layers" in op]
    if layers:
        per_layer = {k: statistics.median(layer[k] for layer in layers) for k in layers[0]}
        bps = store_bytes_per_statement(ontoalign, args.inputs)
        if bps is not None:
            per_layer["store.bytes_per_statement"] = bps
        report["layers"] = per_layer
        tracer.dump(args.spans)
    args.result.write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
