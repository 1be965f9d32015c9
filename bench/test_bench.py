"""Tests of the benchmark's own machinery.

Run from the root of a checkout:

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import ontoalign  # noqa: E402
from checks import check_operation  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from worker import run_operation, traced_operation  # noqa: E402
from workloads import HUB_SIDES, RDF_TYPE, generate, inject_hub  # noqa: E402

PERSONS = 30
GOLD = ("gold_instances.tsv", "gold_relations.tsv", "gold_classes.tsv")


@pytest.fixture(scope="module")
def pair(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("pair")
    generate(ROOT, out, PERSONS, seed=7)
    return out


def test_span_self_times_add_up_to_the_operation_wall_time(pair, tmp_path):
    tracer = Tracer()
    with SpeedProbe() as probe:
        time.sleep(0.2)  # a few probe samples before the operation
        op = traced_operation(
            ontoalign, tracer, probe, pair, tmp_path / "op", ontoalign.AlignmentConfig())
    layers = op["layers"]
    root = tracer.spans[0]
    assert root.name == "operation" and root.parent is None
    assert len(tracer.spans) > 10 and not tracer.missing
    total = sum(self_times(tracer.spans).values())
    assert math.isclose(total, root.end - root.start, rel_tol=1e-9, abs_tol=1e-9)
    assert layers["engine.evidence_view_builds"] == 2 * layers["engine.iterations"] + 1
    # the wrappers are gone again
    assert ontoalign.load_ontology is ontoalign.ntriples.load_ontology
    assert ontoalign.engine.EvidenceView.__name__ == "EvidenceView"
    assert not hasattr(ontoalign.load_ontology, "__wrapped__")


def test_hub_injector_adds_one_statement_per_person_and_keeps_gold(tmp_path):
    generate(ROOT, tmp_path, PERSONS, seed=3)
    before = {name: (tmp_path / name).read_bytes() for name in ("left.nt", "right.nt", *GOLD)}
    assert inject_hub(tmp_path) == PERSONS
    for name, person_class, relation in HUB_SIDES:
        old = before[name].decode().splitlines()
        new = (tmp_path / name).read_text(encoding="utf-8").splitlines()
        assert new[: len(old)] == old
        added = new[len(old):]
        persons = {line.split()[0] for line in old if line.endswith(f"<{RDF_TYPE}> <{person_class}> .")}
        assert len(persons) == PERSONS
        assert sorted(added) == sorted(f'{p} <{relation}> "true" .' for p in persons)
    for name in GOLD:
        assert (tmp_path / name).read_bytes() == before[name]


def test_checks_fail_an_operation_with_two_partners_swapped(pair, tmp_path):
    out = tmp_path / "op"
    with SpeedProbe() as probe:
        time.sleep(0.2)
        run_operation(ontoalign, probe, pair, out, ontoalign.AlignmentConfig())
    assert check_operation(out, pair) == []
    path = out / "instances.tsv"
    rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]
    rows[0][1], rows[1][1] = rows[1][1], rows[0][1]
    path.write_text("".join("\t".join(r) + "\n" for r in rows), encoding="utf-8")
    problems = check_operation(out, pair)
    assert problems and problems[0].startswith("instances:")
