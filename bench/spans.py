"""Spans around the program's layer boundaries, recorded from outside.

A :class:`Tracer` replaces module-level functions of ``ontoalign`` with
wrappers that record a span per call: name, start, end, the enclosing span
and the operation it belongs to. Spans stay in memory until
:meth:`Tracer.dump`. A wrapped function that no longer exists is skipped,
so its metric is dropped instead of failing the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

# (module, attribute, span name). A span's self time is reported as the
# per-layer metric "<span name>_s".
BOUNDARIES = (
    ("ontoalign.ntriples", "load_ontology", "ntriples.load"),
    ("ontoalign.ntriples", "write_alignment", "ntriples.write"),
    ("ontoalign.store", "ontology_from_triples", "store.build"),
    ("ontoalign.functionality", "build_functionality_table", "functionality.build"),
    ("ontoalign.literals", "build_key_index", "literals.key_index"),
    ("ontoalign.engine", "literal_seed_pairs", "engine.seed"),
    ("ontoalign.engine", "update_all_instances", "engine.instance_sweep"),
    ("ontoalign.engine", "EvidenceView", "engine.evidence_view"),
    ("ontoalign.engine", "compute_maximal_assignment", "engine.assignment"),
    ("ontoalign.engine", "update_subrelations", "engine.relation_sweep"),
    ("ontoalign.engine", "compute_class_alignment", "engine.class"),
    ("ontoalign.engine", "result_rows", "engine.result_rows"),
)


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float = 0.0


def _count_store(counts, args, onto):
    counts["store.statements"] += onto.statement_count()
    counts["store.terms"] += onto.term_count()


def _count_functionality(counts, args, table):
    counts["functionality.relations"] += len(table.values)


def _count_seeds(counts, args, seeds):
    counts["engine.literal_seeds"] += len(seeds)


def _count_sweep(counts, args, result):
    table, evaluated = result
    counts["engine.pairs_evaluated"] += evaluated
    counts["engine.stored_instance_pairs"] += len(table) - len(args[0].literal_seeds)


def _count_rows(counts, args, written):
    counts["ntriples.rows_written"] += written


COUNTERS = {
    "store.build": _count_store,
    "functionality.build": _count_functionality,
    "engine.seed": _count_seeds,
    "engine.instance_sweep": _count_sweep,
    "ntriples.write": _count_rows,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = 0
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    @contextmanager
    def span(self, name: str):
        s = Span(len(self.spans), self._stack[-1].id if self._stack else None,
                 self.op, name, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, original, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if counter is not None:
                counter(self.counts[self.op], args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every boundary, in every ontoalign module that binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "ontoalign" or n.startswith("ontoalign.")]
        for module_name, attr, name in BOUNDARIES:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrapper(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, value in reversed(self._patched):
            setattr(module, key, value)
        self._patched.clear()

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per span name: each span's duration minus its children's.

    Spans nest and run one at a time, so the children of a span never
    overlap and their durations add up to the part of the parent they cover.
    """
    by_id = {s.id: s for s in spans}
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += s.end - s.start
        if s.parent is not None:
            out[by_id[s.parent].name] -= s.end - s.start
    return dict(out)


def span_counts(spans: list[Span]) -> dict[str, int]:
    out: dict[str, int] = defaultdict(int)
    for s in spans:
        out[s.name] += 1
    return dict(out)
