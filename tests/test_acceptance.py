"""Whole-system acceptance checks.

Each test pins one externally visible guarantee: agreement with a brute-force
reference implementation, exact functionality arithmetic, invariance to the
bootstrap prior, recovery quality on generated fixtures, determinism across
reruns, and direction accuracy for split/merged relations. Reference
person/restaurant data is optional; that test skips when the files are absent.
"""

import os
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (
    assert_sweeps_store_one_pair_scores,
    engine_table_dict,
    make_ontology,
    random_world_pair,
)
from oracle import naive_functionality, oracle_run
from ontoalign import engine
from ontoalign.cli import main
from ontoalign.engine import (
    AlignmentConfig,
    EvidenceView,
    bootstrap,
    compute_class_alignment,
    run_fixpoint,
    result_rows,
    step,
)
from ontoalign.evaluation import evaluate_instances
from ontoalign.functionality import build_functionality_table
from ontoalign.ntriples import load_gold, load_ontology
from ontoalign.synth import generate_pair

TOL = 1e-9


# ----------------------------------------------------- oracle agreement


def _engine_history(o1, o2, cfg):
    state = bootstrap(o1, o2, cfg)
    history = []
    converged = False
    for _ in range(cfg.max_iterations):
        state, stats = step(state)
        history.append(
            (
                engine_table_dict(state.equiv),
                dict(state.assignment.forward),
                dict(state.assignment.backward),
                (dict(state.subrel.o1_to_o2), dict(state.subrel.o2_to_o1)),
                stats.change_fraction,
            )
        )
        if stats.changed == 0 or stats.change_fraction < cfg.convergence_fraction:
            converged = True
            break
    classes = compute_class_alignment(state)
    return history, (dict(classes.o1_to_o2), dict(classes.o2_to_o1)), converged


def _assert_tables_equal(got, want, where):
    assert got.keys() == want.keys(), f"{where}: key sets differ"
    for key, value in want.items():
        assert got[key] == value, f"{where}: {key} {got[key]} != {value}"


def _assert_assignments_equal(got, want, where):
    assert got.keys() == want.keys(), f"{where}: assigned terms differ"
    for key, (partner, p) in want.items():
        assert got[key][0] == partner, f"{where}: {key} partner differs"
        assert got[key][1] == p, f"{where}: {key} {got[key][1]} != {p}"


def _assert_lockstep(o1, o2, *, theta, negative):
    cfg = AlignmentConfig(theta=theta, negative_evidence=negative)
    engine_hist, engine_classes, engine_conv = _engine_history(o1, o2, cfg)
    oracle_hist, oracle_classes, oracle_conv = oracle_run(
        o1, o2, theta=theta, negative=negative,
    )
    assert engine_conv == oracle_conv
    assert len(engine_hist) == len(oracle_hist)
    for i, (e, o) in enumerate(zip(engine_hist, oracle_hist)):
        where = f"iteration {i + 1}"
        _assert_tables_equal(e[0], o[0], f"{where} equivalences")
        _assert_assignments_equal(e[1], o[1], f"{where} forward")
        _assert_assignments_equal(e[2], o[2], f"{where} backward")
        _assert_tables_equal(e[3][0], o[3][0], f"{where} inclusions 1->2")
        _assert_tables_equal(e[3][1], o[3][1], f"{where} inclusions 2->1")
        assert e[4] == o[4], f"{where}: change fraction differs"
    for side in (0, 1):
        got, want = engine_classes[side], oracle_classes[side]
        assert got.keys() == want.keys()
        for key, score in want.items():
            assert got[key] == score


def test_sweeps_match_brute_force_oracle_every_iteration():
    """The indexed engine and a naive all-pairs evaluator produce the same
    equivalence, inclusion, and class tables at every iteration on a spread
    of random worlds and configurations."""
    rng = random.Random(90125)
    started = time.perf_counter()
    for case in range(22):
        n_inst = rng.randint(30, 50) if case % 6 == 5 else rng.randint(8, 20)
        o1, o2 = random_world_pair(
            rng,
            n_inst=n_inst,
            n_attr=rng.randint(1, 3),
            n_link=rng.randint(1, 3),
            n_class=rng.randint(0, 4),
            drop=rng.choice((0.0, 0.15, 0.3)),
            value_pool=max(2, n_inst // 2) if case % 4 == 0 else None,
        )
        _assert_lockstep(
            o1, o2, theta=rng.choice((0.05, 0.1)), negative=case % 3 == 0,
        )
    assert time.perf_counter() - started < 30.0


def born_and_died_pair():
    """Six persons per side, each with two names, each name shared with one
    other person, and a birth and a death city, literals. a0, a2 and a4 were
    born and died in one city, so each of their candidates reaches that
    city through two relations."""
    sides = []
    for tag, name, born, died in (
        ("a", "name", "bornIn", "diedIn"), ("b", "label", "birthPlace", "deathPlace"),
    ):
        statements = []
        for i in range(6):
            city = i % 3
            statements += [
                (f"{tag}{i}", name, f'"N{i // 2}"'),
                (f"{tag}{i}", name, f'"M{(i + 1) // 2 % 3}"'),
                (f"{tag}{i}", born, f'"C{city}"'),
                (f"{tag}{i}", died, f'"C{city if i % 2 == 0 else (city + 1) % 3}"'),
            ]
        sides.append(make_ontology("first" if tag == "a" else "second", statements))
    return sides[0], sides[1]


def test_row_join_keeps_every_relation_to_one_object():
    """Under negative evidence, a candidate that escapes its decisive
    penalties gets its factors from the join of x's statements with every
    such candidate. b0 holds both a birthPlace and a deathPlace statement
    to "C0", and both must give their factors. Every sweep stores what the
    one-pair scores store, and the run agrees with the brute-force oracle."""
    o1, o2 = born_and_died_pair()
    x2, city = o2.term_id("b0"), o2.term_id('"C0"')
    assert len(o2.relations_between(x2, city)) == 2
    cfg = AlignmentConfig(negative_evidence=True)
    assert assert_sweeps_store_one_pair_scores(o1, o2, cfg, 4) >= 2
    _assert_lockstep(o1, o2, theta=cfg.theta, negative=True)
    state, _ = step(step(bootstrap(o1, o2, cfg))[0])
    ev = EvidenceView(state.literals, state.assignment)
    decisive = engine._InstanceFactors(state, ev)._decisive
    assert o1.relation_id("bornIn") in decisive and o1.relation_id("diedIn") in decisive
    assert state.equiv.get(o1.term_id("a0"), x2) > cfg.theta


def test_hub_worlds_match_brute_force_oracle():
    """Every entity on both sides holds one shared literal, so each instance
    reaches every other through it. The engine scores pairs only through
    statements that could lift them over theta, and must still agree with
    the full cross product at every iteration."""
    rng = random.Random(4711)
    for case in range(4):
        n_inst = rng.randint(25, 35)
        o1, o2 = random_world_pair(
            rng, n_inst=n_inst, n_attr=rng.randint(1, 3), n_link=rng.randint(1, 2),
            n_class=2, drop=rng.choice((0.0, 0.15)), hub=True,
        )
        _assert_lockstep(o1, o2, theta=0.1, negative=case >= 2)


def test_mirrored_inclusions_match_oracle_exactly():
    """A relation's row is computed once and written for its inverse too,
    while the oracle scores every relation, inverses included, in a pass of
    its own. Both multiply a statement's misses in ascending order, so the
    inclusion tables must be equal, not just close, at every iteration, and
    each inverse row (r ^ 1, q ^ 1) must hold exactly the value of its row
    (r, q). A small value pool gives many statements whose two ends both
    have several partners, where the order of the misses could matter: an
    instance has several partners when it is the best partner of several
    instances of the other side."""
    rng = random.Random(6021)
    started = time.perf_counter()
    cfg = AlignmentConfig(max_iterations=3)
    several = 0
    for _ in range(120):
        o1, o2 = random_world_pair(rng, value_pool=4)
        history, _, _ = oracle_run(o1, o2, max_iterations=3)
        state = bootstrap(o1, o2, cfg)
        for i, (_, _, _, (sub12, sub21), _) in enumerate(history, 1):
            state, _ = step(state)
            assert state.subrel.o1_to_o2 == sub12, f"iteration {i} inclusions 1->2"
            assert state.subrel.o2_to_o1 == sub21, f"iteration {i} inclusions 2->1"
            for table in (sub12, sub21):
                for (r, q), p in table.items():
                    assert table.get((r ^ 1, q ^ 1)) == p, f"iteration {i} inverse of {(r, q)}"
            ev = EvidenceView(state.literals, state.assignment)
            several += sum(
                len(ev.left[x]) > 1 and len(ev.left[y]) > 1
                for r in o1.relation_ids() for x, y in o1.pairs(r)
            )
    assert several > 1000
    assert time.perf_counter() - started < 5.0


# ----------------------------------------------- functionality arithmetic


def test_functionality_matches_exact_fractions():
    """Estimated functionality equals the harmonic mean of per-subject local
    functionalities, exactly, over a thousand random relations; the all-pairs
    dining fixture gives 1/n."""
    rng = random.Random(2026)
    statements = []
    shape = {}
    for j in range(1000):
        per_subject = [rng.randint(1, 4) for _ in range(rng.randint(1, 6))]
        shape[f"r{j}"] = per_subject
        for s, k in enumerate(per_subject):
            objects = rng.sample(range(12), k)
            statements += [(f"s{j}_{s}", f"r{j}", f"n{o}") for o in objects]
    onto = make_ontology("first", statements)
    fun = build_functionality_table(onto)
    table = naive_functionality(onto)
    for j in range(1000):
        rid = onto.relation_id(f"r{j}")
        per_subject = shape[f"r{j}"]
        harmonic = len(per_subject) / sum(
            1 / Fraction(1, k) for k in per_subject
        )
        assert fun.fun(rid) == float(harmonic)
        assert table[rid] == float(harmonic)

    for n in (2, 3, 5):
        dining = make_ontology(
            "first",
            [(f"p{i}", "likesDish", f"d{j}") for i in range(n) for j in range(n)],
        )
        rid = dining.relation_id("likesDish")
        assert build_functionality_table(dining).fun(rid) == 1.0 / n


# ------------------------------------------------------ prior invariance


def test_final_alignment_invariant_to_storage_floor(tmp_path):
    """The bootstrap prior and storage floor shape intermediate tables, not
    the answer: the maximal assignment comes out identical across a 200-fold
    range of floor values, on a clean pair and on a noisy one."""
    started = time.perf_counter()
    for name, noise in (("clean", {}), ("noisy", {"attribute_drop": 0.2})):
        data = tmp_path / name
        generate_pair(data, instances=120, seed=7, **noise)
        o1 = load_ontology(data / "left.nt", origin="first")
        o2 = load_ontology(data / "right.nt", origin="second")
        reference = None
        for theta in (0.001, 0.01, 0.05, 0.1, 0.2):
            result = run_fixpoint(o1, o2, AlignmentConfig(theta=theta))
            assignment = result.assignment.forward
            if reference is None:
                reference = (assignment, len(result.iterations))
                continue
            baseline, iterations = reference
            assert len(result.iterations) == iterations, name
            assert assignment.keys() == baseline.keys(), name
            for a, (b, p) in baseline.items():
                assert assignment[a][0] == b, name
                assert abs(assignment[a][1] - p) <= TOL, name
    assert time.perf_counter() - started < 120.0


# ------------------------------------------------------- fixture recovery


def test_renamed_copy_recovered_almost_perfectly(tmp_path):
    """A thousand-person world under fully renamed identifiers is recovered
    from literal anchors alone, quickly and in a handful of iterations."""
    generate_pair(tmp_path, instances=1000, seed=3)
    o1 = load_ontology(tmp_path / "left.nt", origin="first")
    o2 = load_ontology(tmp_path / "right.nt", origin="second")
    started = time.perf_counter()
    result = run_fixpoint(o1, o2)
    elapsed = time.perf_counter() - started
    instances, _, _ = result_rows(result)
    metrics = evaluate_instances(instances, load_gold(tmp_path / "gold_instances.tsv"))
    assert metrics.precision >= 0.99
    assert metrics.recall >= 0.99
    assert result.converged
    assert len(result.iterations) <= 4
    assert elapsed < 60.0


# ---------------------------------------------------------- reference data

OAEI_DIR = Path(os.environ.get("ONTOALIGN_OAEI_DIR", "")) if os.environ.get(
    "ONTOALIGN_OAEI_DIR"
) else Path(__file__).parent / "data" / "oaei2010"


def _reference_case(case):
    """Load one reference benchmark directory.

    Expected layout: tests/data/oaei2010/<case>/{left.nt,right.nt,
    gold_instances.tsv} with schema identifiers pre-renamed so only literal
    values are shared between the sides. Point ONTOALIGN_OAEI_DIR elsewhere
    to relocate.
    """
    base = OAEI_DIR / case
    o1 = load_ontology(base / "left.nt", origin="first")
    o2 = load_ontology(base / "right.nt", origin="second")
    return o1, o2, load_gold(base / "gold_instances.tsv")


def _f1_with(o1, o2, gold, **cfg):
    result = run_fixpoint(o1, o2, AlignmentConfig(**cfg))
    instances, _, _ = result_rows(result)
    return evaluate_instances(instances, gold)


@pytest.mark.skipif(
    not (OAEI_DIR / "person").is_dir() or not (OAEI_DIR / "restaurant").is_dir(),
    reason="reference person/restaurant data not present under "
    "tests/data/oaei2010/ (or $ONTOALIGN_OAEI_DIR); expected "
    "<case>/{left.nt,right.nt,gold_instances.tsv}",
)
def test_reference_person_and_restaurant_scores():
    o1, o2, gold = _reference_case("person")
    assert _f1_with(o1, o2, gold).f1 >= 0.99

    o1, o2, gold = _reference_case("restaurant")
    strict = _f1_with(o1, o2, gold)
    assert abs(strict.f1 - 0.91) <= 0.03
    relaxed = _f1_with(o1, o2, gold, literal_mode="alnum-lower")
    assert relaxed.precision >= 0.98
    assert abs(relaxed.recall - 0.70) <= 0.05


# ------------------------------------------------------- negative evidence


def test_negative_evidence_collapses_recall_under_format_conflicts(tmp_path):
    """When most phone values disagree outright, the default mode still
    matches on the remaining anchors, but negative evidence makes the same
    entities give up almost every match."""
    generate_pair(tmp_path, instances=120, seed=11, scramble_phones=0.9)
    o1 = load_ontology(tmp_path / "left.nt", origin="first")
    o2 = load_ontology(tmp_path / "right.nt", origin="second")
    gold = load_gold(tmp_path / "gold_instances.tsv")

    default = evaluate_instances(result_rows(run_fixpoint(o1, o2))[0], gold)
    assert default.recall >= 0.9

    negative = evaluate_instances(
        result_rows(
            run_fixpoint(o1, o2, AlignmentConfig(negative_evidence=True))
        )[0],
        gold,
    )
    assert negative.recall <= 0.1


# ------------------------------------------------------------ determinism


def test_byte_identical_outputs_across_reruns(tmp_path):
    data = tmp_path / "data"
    assert main(["generate", "--out-dir", str(data), "--instances", "80",
                 "--seed", "21"]) == 0
    outs = {}
    for name in ("first", "again"):
        out = tmp_path / name
        assert main(["align", str(data / "left.nt"), str(data / "right.nt"),
                     "--out", str(out)]) == 0
        outs[name] = out
    for tsv in ("instances.tsv", "relations.tsv", "classes.tsv"):
        reference = (outs["first"] / tsv).read_bytes()
        assert (outs["again"] / tsv).read_bytes() == reference, tsv


_PERSON = r"<http://(?:one\.example/person|two\.example/human)\d+> "
_PERSON_KEY = re.compile(
    _PERSON + r"<http://(?:one\.example/has(?:Code|Phone)|two\.example/(?:code|phone))> ")
_COUNTED_NAME = re.compile(
    "(" + _PERSON + r'<http://(?:one\.example/hasName|two\.example/label)> "[^"]*) \d+(" \.)$')


def _structure_only(lines):
    """A generated side without the persons' code and phone statements, and
    with the counter that makes a person's name unique stripped: persons
    then share names and no key literal, so their equalities must come
    through their relations to cities and organisations."""
    return [_COUNTED_NAME.sub(r"\1\2", line.rstrip("\n")) + "\n"
            for line in lines if not _PERSON_KEY.match(line)]


# The generated copies both order tests run on: a noisy pair, and a
# structure-only copy of the clean pair; each is given as the generator's
# knobs and the edit of each side's lines.
_COPIES = (
    ("noisy", dict(attribute_drop=0.3, perturb_literals=0.3, scramble_phones=0.3), list),
    ("structure", {}, _structure_only),
)


def _generated_copies(tmp_path):
    """Each of `_COPIES` as its directory and its two sides' lines."""
    for copy, knobs, edit in _COPIES:
        data = tmp_path / copy / "data"
        generate_pair(data, instances=300, seed=4, **knobs)
        yield tmp_path / copy, [
            edit((data / f"{side}.nt").read_text(encoding="utf-8").splitlines(keepends=True))
            for side in ("left", "right")
        ]


@pytest.mark.parametrize("flags", [(), ("--negative-evidence",)], ids=["default", "negative"])
def test_input_order_and_layout_do_not_change_the_output(tmp_path, flags):
    """On a noisy pair and on a structure-only copy, whose many equal
    scores are summed in input order, shuffling both sides' lines,
    repeating a tenth of the left side's lines or splitting the left side
    into a directory of three files gives byte-identical TSVs; a repeated
    line adds no statement."""
    for work, sides in _generated_copies(tmp_path):
        _check_order_and_layout(work, flags, *sides)


def _check_order_and_layout(work, flags, left, right):
    """Align the given lines of both sides, and the three changes of them,
    in `work`, and require the same TSVs from all four."""
    rng = random.Random(7)

    def write(name, lines):
        (work / name).write_text("".join(lines), encoding="utf-8")
        return work / name

    shuffled_left, shuffled_right = rng.sample(left, len(left)), rng.sample(right, len(right))
    repeated = left + rng.sample(left, len(left) // 10)
    rng.shuffle(repeated)
    split = work / "split"
    split.mkdir()
    third = len(left) // 3 + 1
    for i in range(3):
        (split / f"part{i}.nt").write_text("".join(left[i * third:(i + 1) * third]),
                                           encoding="utf-8")
    original_left, original_right = write("left.nt", left), write("right.nt", right)
    runs = {
        "original": (original_left, original_right),
        "shuffled": (write("shuffled_left.nt", shuffled_left),
                     write("shuffled_right.nt", shuffled_right)),
        "repeated": (write("repeated_left.nt", repeated), original_right),
        "split": (split, original_right),
    }
    outputs = {}
    for name, (left_path, right_path) in runs.items():
        out = work / f"out_{name}"
        assert main(["align", str(left_path), str(right_path),
                     "--out", str(out), *flags]) == 0
        outputs[name] = out
    for tsv in ("instances.tsv", "relations.tsv", "classes.tsv"):
        reference = (outputs["original"] / tsv).read_bytes()
        for name, out in outputs.items():
            assert (out / tsv).read_bytes() == reference, (work.name, name, tsv)

    def statements(out):
        key = "input.left.statements="
        return next(l for l in (out / "manifest.txt").read_text().splitlines()
                    if l.startswith(key))

    assert statements(outputs["repeated"]) == statements(outputs["original"])


@pytest.mark.parametrize("flags", [(), ("--negative-evidence",)], ids=["default", "negative"])
def test_order_keeping_rename_gives_the_renamed_output(tmp_path, flags):
    """On a noisy pair and on a structure-only copy, giving every left
    person a new name, so that the names keep their lexical order among
    themselves and against every other term, gives TSVs identical up to the
    rename. The order is kept because the assignment breaks ties by it."""
    for work, (left, right) in _generated_copies(tmp_path):
        _check_rename(work, flags, "".join(left), "".join(right))


def _check_rename(work, flags, left, right):
    """Align the given text of both sides, and of the left side with its
    persons renamed in order, in `work`, and require the same TSVs up to
    the rename."""
    person = re.compile(r"http://one\.example/person\d+")
    # the shared prefix keeps each new name where the old one sorted among
    # the other terms, and the ranks keep the persons' own order
    renamed = {old: f"http://one.example/person-{rank:05d}"
               for rank, old in enumerate(sorted(set(person.findall(left))))}
    assert len(renamed) == 300
    sides = {"left.nt": left, "right.nt": right,
             "renamed.nt": person.sub(lambda m: renamed[m.group()], left)}
    for name, text in sides.items():
        (work / name).write_text(text, encoding="utf-8")
    outputs = {}
    for name, left_path in (("original", "left.nt"), ("renamed", "renamed.nt")):
        out = outputs[name] = work / f"out_{name}"
        assert main(["align", str(work / left_path), str(work / "right.nt"),
                     "--out", str(out), *flags]) == 0
    for tsv in ("instances.tsv", "relations.tsv", "classes.tsv"):
        expected = ""
        for row in (outputs["original"] / tsv).read_text(encoding="utf-8").splitlines(True):
            name, rest = row.split("\t", 1)
            expected += f"{renamed.get(name, name)}\t{rest}"
        assert (outputs["renamed"] / tsv).read_text(encoding="utf-8") == expected, (work.name, tsv)
    instances = (outputs["renamed"] / "instances.tsv").read_text(encoding="utf-8")
    assert sum(row.split("\t")[0] in renamed.values() for row in instances.splitlines()) >= 100


# ------------------------------------------------- inclusion directions


def _direction_scores(result, left_iri, right_iri, direction):
    r1 = result.o1.relation_id(left_iri)
    r2 = result.o2.relation_id(right_iri)
    if direction == "left_in_right":
        score = result.subrel.o1_to_o2.get((r1, r2), 0.0)
        opposite = result.subrel.o2_to_o1.get((r2, r1), 0.0)
    else:
        score = result.subrel.o2_to_o1.get((r2, r1), 0.0)
        opposite = result.subrel.o1_to_o2.get((r1, r2), 0.0)
    return score, opposite


def _gold_inclusions(path):
    rows = []
    for line in Path(path).read_text().splitlines():
        left, right, direction = line.split("\t")
        if direction != "equivalence":
            rows.append((left, right, direction))
    return rows


def test_split_and_merge_relation_directions_recovered(tmp_path):
    """A relation split into two halves, and two relations merged into one,
    are reported with the correct inclusion direction at threshold 0.1."""
    split = tmp_path / "split"
    generate_pair(split, instances=150, seed=13, split_relation=True)
    result = run_fixpoint(
        load_ontology(split / "left.nt", origin="first"),
        load_ontology(split / "right.nt", origin="second"),
    )
    gold = _gold_inclusions(split / "gold_relations.tsv")
    assert len(gold) == 2
    for left, right, direction in gold:
        score, opposite = _direction_scores(result, left, right, direction)
        assert score >= 0.1
        assert score > opposite
        # each half covers about half of the original relation
        assert score >= 0.9
        assert 0.3 <= opposite <= 0.7

    merge = tmp_path / "merge"
    generate_pair(merge, instances=150, seed=17, merge_relations=True)
    result = run_fixpoint(
        load_ontology(merge / "left.nt", origin="first"),
        load_ontology(merge / "right.nt", origin="second"),
    )
    gold = _gold_inclusions(merge / "gold_relations.tsv")
    assert len(gold) == 2
    for left, right, direction in gold:
        score, opposite = _direction_scores(result, left, right, direction)
        assert score >= 0.1
        assert score > opposite
        assert score >= 0.9
