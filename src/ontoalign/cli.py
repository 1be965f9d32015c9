"""Command-line interface.

Subcommands:

* ``align``          align two N-Triples ontologies, write TSVs + a manifest
* ``eval``           score a predicted alignment against a gold TSV
* ``generate``       build a synthetic ontology pair with gold alignments
* ``functionality``  print per-relation functionality of one ontology

Exit codes: 0 success, 2 usage error, 3 unreadable or malformed input,
4 alignment did not converge and --strict was given, 141 standard output was
closed by its reader (files already written stay complete).
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import os
import sys
import time
from pathlib import Path

from .engine import AlignmentConfig, AlignmentResult, peak_rss_mb, result_rows, run_fixpoint
from .evaluation import evaluate_instances, evaluate_threshold_sweep
from .functionality import MODES, build_functionality_table
from .literals import MEASURES
from .ntriples import (
    AlignmentRow,
    ParseError,
    _expand_paths,
    load_gold,
    load_ontology,
    parse_ntriples,
    read_alignment,
    read_utf8_lines,
    write_alignment,
)
from .synth import generate_pair

log = logging.getLogger("ontoalign.cli")

EXIT_OK = 0
EXIT_USAGE = 2  # argparse's own
EXIT_IO = 3
EXIT_NOT_CONVERGED = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a process the signal killed reports


def _add_align_options(p: argparse.ArgumentParser) -> None:
    cfg = AlignmentConfig  # each default is the config field's own
    p.add_argument("left", help="first ontology: .nt file or directory of .nt files")
    p.add_argument("right", help="second ontology")
    p.add_argument("--out", required=True, help="output directory (created if missing)")
    p.add_argument("--theta", type=float, default=cfg.theta,
                   help="bootstrap relation prior and storage floor (default %(default)s)")
    p.add_argument("--max-iterations", type=int, default=cfg.max_iterations,
                   help="most fixpoint iterations to run (default %(default)s)")
    p.add_argument("--convergence", type=float, default=cfg.convergence_fraction,
                   help="stop when fewer than this fraction of assignments change"
                        " (default %(default)s)")
    p.add_argument("--negative-evidence", action="store_true",
                   help="penalize pairs whose aligned relations disagree")
    p.add_argument("--literal-mode", choices=tuple(MEASURES), default=cfg.literal_mode,
                   help="when two literals are equal (default %(default)s)")
    p.add_argument("--class-threshold", type=float, default=cfg.class_score_threshold,
                   help="reporting floor for class rows (default %(default)s)")
    p.add_argument("--all-probabilities", action="store_true",
                   help="write every stored instance pair, not just the maximal assignment")
    p.add_argument("--strict", action="store_true",
                   help="exit 4 when the fixpoint does not converge")


def _config_from_args(args: argparse.Namespace) -> AlignmentConfig:
    return AlignmentConfig(
        theta=args.theta,
        max_iterations=args.max_iterations,
        convergence_fraction=args.convergence,
        negative_evidence=args.negative_evidence,
        literal_mode=args.literal_mode,
        class_score_threshold=args.class_threshold,
    )


def _digest(paths) -> str:
    """SHA-256 of the inputs' bytes, read in chunks: a whole file in memory
    would raise the process's peak after it has been recorded."""
    h = hashlib.sha256()
    for f in _expand_paths(paths):
        with open(f, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def _manifest_lines(
    args: argparse.Namespace,
    result: AlignmentResult,
    outputs: dict[str, tuple[Path, int]],
    load_seconds: float,
    load_peak: float | None,
) -> list[str]:
    cfg = result.config
    kv: dict[str, object] = {
        "converged": str(result.converged).lower(),
        "iterations": len(result.iterations),
        "phase.load.seconds": f"{load_seconds:.3f}",
        "phase.functionality.seconds": f"{result.functionality_seconds:.3f}",
        "phase.seed.seconds": f"{result.seed_seconds:.3f}",
        "phase.classes.seconds": f"{result.class_seconds:.3f}",
    }
    peak = peak_rss_mb()
    if peak is not None:
        kv["process.peak_rss_mb"] = f"{peak:.1f}"
    if load_peak is not None:
        kv["phase.load.peak_rss_mb"] = f"{load_peak:.1f}"
    if result.seed_peak_rss_mb is not None:
        kv["phase.seed.peak_rss_mb"] = f"{result.seed_peak_rss_mb:.1f}"
    for side, path, onto in (("left", args.left, result.o1), ("right", args.right, result.o2)):
        kv[f"input.{side}.path"] = path
        kv[f"input.{side}.sha256"] = _digest(path)
        kv[f"input.{side}.terms"] = onto.term_count()
        kv[f"input.{side}.statements"] = onto.statement_count()
        kv[f"input.{side}.rejected_statements"] = onto.rejected_statements
    for name, value in vars(cfg).items():
        kv[f"config.{name}"] = value
    for s in result.iterations:
        base = f"iteration.{s.iteration}"
        kv[f"{base}.changed"] = s.changed
        kv[f"{base}.tracked"] = s.tracked
        kv[f"{base}.change_fraction"] = f"{s.change_fraction:.6f}"
        kv[f"{base}.equivalences"] = s.equivalences
        kv[f"{base}.subrelations"] = s.subrelations
        kv[f"{base}.pairs_evaluated"] = s.pairs_evaluated
        kv[f"{base}.pairs_ruled_out_by_penalties"] = s.pairs_ruled_out_by_penalties
        kv[f"{base}.seconds"] = f"{s.seconds:.3f}"
        kv[f"{base}.instance_sweep.seconds"] = f"{s.instance_sweep_seconds:.3f}"
        kv[f"{base}.assignment.seconds"] = f"{s.assignment_seconds:.3f}"
        kv[f"{base}.relation_sweep.seconds"] = f"{s.relation_sweep_seconds:.3f}"
        if s.peak_rss_mb is not None:
            kv[f"{base}.peak_rss_mb"] = f"{s.peak_rss_mb:.1f}"
    for name, (path, count) in outputs.items():
        kv[f"output.{name}.path"] = str(path)
        kv[f"output.{name}.rows"] = count
    return [f"{k}={kv[k]}" for k in sorted(kv)]


def cmd_align(args: argparse.Namespace) -> int:
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    started = time.perf_counter()
    try:
        o1 = load_ontology(args.left, origin="first")
        o2 = load_ontology(args.right, origin="second")
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    load_seconds = time.perf_counter() - started
    load_peak = peak_rss_mb()
    result = run_fixpoint(o1, o2, config)
    instances, relations, classes = result_rows(result)
    if args.all_probabilities:
        instances = [
            AlignmentRow(o1.lexical(a), o2.lexical(b), p, "instance", "equivalence")
            for a, b, p in result.equiv.instance_pairs()
        ]
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        outputs: dict[str, tuple[Path, int]] = {}
        for name, rows in (
            ("instances", instances), ("relations", relations), ("classes", classes),
        ):
            path = out / f"{name}.tsv"
            outputs[name] = (path, write_alignment(rows, path))
        manifest = out / "manifest.txt"
        manifest.write_text(
            "\n".join(_manifest_lines(args, result, outputs, load_seconds, load_peak))
            + "\n",
            encoding="utf-8",
        )
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_IO
    last = result.iterations[-1] if result.iterations else None
    print(
        f"aligned in {len(result.iterations)} iterations"
        f" (converged={str(result.converged).lower()}"
        f"{f', final change {last.change_fraction:.2%}' if last else ''})"
    )
    for name, (path, count) in outputs.items():
        print(f"  {name}: {count} rows -> {path}")
    print(f"  manifest -> {manifest}")
    if args.strict and not result.converged:
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _fact_counts(paths: list[str]) -> dict[str, int]:
    """Statements per resource (subject or resource object) in raw triples."""
    counts: dict[str, int] = {}
    for path in paths:
        for f in _expand_paths(path):
            for s, _p, o in parse_ntriples(read_utf8_lines(f)):
                counts[s] = counts.get(s, 0) + 1
                if not o.startswith('"'):
                    counts[o] = counts.get(o, 0) + 1
    return counts


def cmd_eval(args: argparse.Namespace) -> int:
    if args.min_facts < 0:
        print(f"error: --min-facts must be >= 0, got {args.min_facts}", file=sys.stderr)
        return EXIT_USAGE
    if args.min_facts and not args.facts_from:
        print("error: --min-facts needs --facts-from", file=sys.stderr)
        return EXIT_USAGE
    try:
        rows = [r for r in read_alignment(args.predicted) if r.kind == args.kind]
        gold = load_gold(args.gold)
        counts = _fact_counts(args.facts_from) if args.facts_from else None
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    if args.sweep:
        print("threshold\tprecision\trecall\tf1\tpredicted\tcorrect\tgold")
        for threshold, m in evaluate_threshold_sweep(
            rows, gold, min_facts=args.min_facts, fact_counts=counts
        ):
            print(
                f"{threshold:.2f}\t{m.precision:.4f}\t{m.recall:.4f}\t{m.f1:.4f}"
                f"\t{m.predicted}\t{m.correct}\t{m.gold}"
            )
        return EXIT_OK
    m = evaluate_instances(rows, gold, min_facts=args.min_facts, fact_counts=counts)
    print(f"precision\t{m.precision:.4f}")
    print(f"recall\t{m.recall:.4f}")
    print(f"f1\t{m.f1:.4f}")
    print(f"predicted_in_gold_region\t{m.predicted}")
    print(f"correct\t{m.correct}")
    print(f"gold\t{m.gold}")
    return EXIT_OK


def cmd_functionality(args: argparse.Namespace) -> int:
    if args.top is not None and args.top < 1:
        print(f"error: --top must be >= 1, got {args.top}", file=sys.stderr)
        return EXIT_USAGE
    try:
        onto = load_ontology(args.ontology, origin="first")
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    table = build_functionality_table(onto, args.mode)
    rows = []
    for rid in range(0, len(table.values), 2):  # base relations; odd ids are inverses
        stmts = len(onto.relation_subjects[rid])
        if not stmts:
            continue
        rows.append(
            (onto.relation_lexical(rid), table.values[rid], table.values[rid ^ 1], stmts)
        )
    rows.sort(key=lambda r: (-r[1], r[0]))
    print("relation\tfunctionality\tinverse_functionality\tstatements")
    for name, fun, ifun, stmts in rows[: args.top]:
        print(f"{name}\t{fun:.6f}\t{ifun:.6f}\t{stmts}")
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    try:
        files = generate_pair(
            args.out_dir,
            instances=args.instances,
            seed=args.seed,
            attribute_drop=args.attribute_drop,
            perturb_literals=args.perturb_literals,
            scramble_phones=args.scramble_phones,
            split_relation=args.split_relation,
            merge_relations=args.merge_relations,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_IO
    for name, path in files.items():
        print(f"  {name}: {path}")
    return EXIT_OK


# ---------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ontoalign",
        description="Holistic instance/relation/class alignment of two ontologies.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-v", "--verbose", action="store_true",
                        help="log per-iteration progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_align = sub.add_parser("align", parents=[common],
                             help="align two N-Triples ontologies")
    _add_align_options(p_align)
    p_align.set_defaults(func=cmd_align)

    p_eval = sub.add_parser("eval", parents=[common],
                            help="score a predicted alignment TSV against gold")
    p_eval.add_argument("predicted", help="alignment TSV (as written by align)")
    p_eval.add_argument("gold", help="gold TSV: left<TAB>right per line")
    p_eval.add_argument("--kind", choices=("instance", "relation", "class"),
                        default="instance")
    p_eval.add_argument("--min-facts", type=int, default=0,
                        help="ignore gold pairs where neither side has more facts than this")
    p_eval.add_argument("--facts-from", nargs="+", default=None,
                        help="N-Triples files to count facts from (for --min-facts)")
    p_eval.add_argument("--sweep", action="store_true",
                        help="print metrics for every acceptance threshold in 0.05 steps")
    p_eval.set_defaults(func=cmd_eval)

    p_gen = sub.add_parser("generate", parents=[common], help="write a synthetic ontology pair with gold")
    p_gen.add_argument("--out-dir", required=True)
    p_gen.add_argument("--instances", type=int, default=200, help="number of persons")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--attribute-drop", type=float, default=0.0,
                       help="fraction of second-side phone statements to drop")
    p_gen.add_argument("--perturb-literals", type=float, default=0.0,
                       help="fraction of second-side phones reformatted ('-' to '/')")
    p_gen.add_argument("--scramble-phones", type=float, default=0.0,
                       help="fraction of second-side phones replaced with new numbers")
    p_gen.add_argument("--split-relation", action="store_true",
                       help="split worksAt into employedByA/employedByB on the second side")
    p_gen.add_argument("--merge-relations", action="store_true",
                       help="merge bornIn and diedIn into placeOf on the second side")
    p_gen.set_defaults(func=cmd_generate)

    p_fun = sub.add_parser("functionality", parents=[common], help="print per-relation functionality")
    p_fun.add_argument("ontology", help=".nt file or directory")
    p_fun.add_argument("--mode", choices=MODES, default="harmonic-mean",
                       help="estimator to print; align always uses harmonic-mean")
    p_fun.add_argument("--top", type=int, default=None, help="show only the top N relations")
    p_fun.set_defaults(func=cmd_functionality)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that went away shows here, not at exit
    except BrokenPipeError:
        # Nobody reads standard output any more, so say nothing. Point it at
        # /dev/null, or the interpreter's own flush at exit raises again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
