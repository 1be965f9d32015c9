import gc
import itertools
import random
import sys
import tracemalloc
import weakref
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    alice_pair,
    assert_sweeps_store_one_pair_scores,
    engine_table_dict,
    make_ontology,
    random_world_pair,
)
from ontoalign import engine
from ontoalign.engine import (
    CLASS_SCORE_FLOOR,
    AlignmentConfig,
    EquivalenceTable,
    EvidenceView,
    IterationStats,
    LiteralShare,
    bootstrap,
    compute_class_alignment,
    compute_maximal_assignment,
    has_converged,
    instance_equivalence,
    literal_seed_pairs,
    result_rows,
    run_fixpoint,
    step,
    update_all_instances,
    _sorted_product,
)
from ontoalign.literals import MEASURES
from ontoalign.ntriples import load_ontology
from ontoalign.store import INSTANCE, RDFS_SUBPROPERTYOF, ontology_from_triples
from ontoalign.synth import generate_pair


def ids(onto, *names):
    return tuple(onto.term_id(n) for n in names)


# --------------------------------------------------------------- first sweep


def test_bootstrap_seeds_only_matching_literals(alice):
    o1, o2 = alice
    state = bootstrap(o1, o2)
    seeds = engine_table_dict(state.equiv)
    assert len(seeds) == 3
    assert all(p == 1.0 for p in seeds.values())
    assert state.assignment.forward == {} and state.subrel is None


def test_first_iteration_value_is_derivable_by_hand(alice):
    """One shared label under the uniform prior:
    p = 1 - (1 - theta*fun_inv*1)^2 with theta=0.1, fun_inv(label)=1."""
    o1, o2 = alice
    state = bootstrap(o1, o2)
    (x,) = ids(o1, "alice")
    (x2,) = ids(o2, "a2")
    expected = 1.0 - (1.0 - 0.1) * (1.0 - 0.1)
    assert instance_equivalence(state, x, x2) == expected
    state, _ = step(state)
    assert state.equiv.get(x, x2) == expected


def hub_world_pair():
    """A random world in which every entity holds one shared literal."""
    return random_world_pair(random.Random(11), n_inst=30, drop=0.2, hub=True)


def test_one_pair_operation_agrees_with_sweep_everywhere(alice):
    for o1, o2 in (alice, hub_world_pair()):
        assert_sweeps_store_one_pair_scores(o1, o2, AlignmentConfig(), 2)


def test_fixpoint_saturates_and_converges(alice):
    o1, o2 = alice
    result = run_fixpoint(o1, o2)
    assert result.converged
    assert len(result.iterations) == 2
    fwd = {
        o1.lexical(a): (o2.lexical(b), p) for a, (b, p) in result.assignment.forward.items()
    }
    assert fwd == {"alice": ("a2", 1.0), "bob": ("b2", 1.0), "paris": ("p2", 1.0)}
    # mirrored pairs saturate identically
    assert all(p == 1.0 for _, p in result.assignment.backward.values())


def test_relation_inclusions_reach_one_after_first_sweep(alice):
    o1, o2 = alice
    state, _ = step(bootstrap(o1, o2))
    sub = {
        (o1.relation_lexical(r1), o2.relation_lexical(r2)): p
        for (r1, r2), p in state.subrel.o1_to_o2.items()
    }
    assert sub[("label", "name")] == 1.0
    assert sub[("wasBornIn", "birthPlace")] == 1.0
    assert sub[("marriedTo", "spouse")] == 1.0


def test_inverse_relations_are_aligned_too(alice):
    o1, o2 = alice
    result = run_fixpoint(o1, o2)
    r1 = o1.relation_id("wasBornIn") ^ 1
    r2 = o2.relation_id("birthPlace") ^ 1
    assert result.subrel.o1_to_o2[(r1, r2)] == 1.0


def test_class_alignment_runs_once_from_final_state():
    o1 = make_ontology(
        "first",
        [("a", "label", '"A"'), ("b", "label", '"B"')],
        types=[("a", "Person"), ("b", "Person")],
    )
    o2 = make_ontology(
        "second",
        [("x", "name", '"A"'), ("y", "name", '"B"')],
        types=[("x", "Human"), ("y", "Human")],
    )
    result = run_fixpoint(o1, o2)
    c1 = o1.term_id("Person")
    c2 = o2.term_id("Human")
    assert result.classes.o1_to_o2[(c1, c2)] == 1.0
    state, _ = step(step(bootstrap(o1, o2))[0])
    classes = compute_class_alignment(state)
    assert classes.o1_to_o2[(c1, c2)] == 1.0
    assert classes.o2_to_o1[(c2, c1)] == 1.0


# ----------------------------------------------------------------- semantics


def test_sweep_reads_a_snapshot_and_leaves_it_untouched(alice):
    o1, o2 = alice
    state, _ = step(bootstrap(o1, o2))
    before = engine_table_dict(state.equiv)
    table, _ = update_all_instances(state)
    assert engine_table_dict(state.equiv) == before  # input never mutated
    assert table is not state.equiv


def _generated_pair(directory):
    generate_pair(directory, instances=60, seed=3)
    return (load_ontology(directory / "left.nt", origin="first"),
            load_ontology(directory / "right.nt", origin="second"))


def _readable(state):
    return (list(state.equiv.pairs()), dict(state.assignment.forward),
            dict(state.assignment.backward))


def test_step_leaves_the_state_it_is_given_unchanged(tmp_path):
    """`step` returns the next state and leaves its argument readable and
    as it was: its table and its assignment."""
    state = bootstrap(*_generated_pair(tmp_path))
    for _ in range(3):
        before = _readable(state)
        fresh, _ = step(state)
        assert _readable(state) == before
        assert fresh.assignment is not state.assignment and fresh.assignment.forward
        state = fresh


@pytest.mark.parametrize("negative", [False, True], ids=["default", "negative"])
def test_fixpoint_frees_each_iteration_after_its_last_reader(tmp_path, monkeypatch, negative):
    """`run_fixpoint` holds only what the next phase reads: iteration 1's
    table is freed before iteration 2's instance sweep starts, and its
    assignment before iteration 2's relation sweep starts."""
    o1, o2 = _generated_pair(tmp_path)
    first = {}
    dead = []
    originals = {name: getattr(engine, name) for name in (
        "update_all_instances", "update_subrelations")}

    def check(*names):
        dead.extend((name, first[name]() is None) for name in names if name in first)

    def sweep(state, counts=None):
        check("table")
        table, evaluated = originals["update_all_instances"](state, counts)
        first.setdefault("table", weakref.ref(table))
        return table, evaluated

    def relations(state):
        check("assignment")
        first.setdefault("assignment", weakref.ref(state.assignment))
        return originals["update_subrelations"](state)

    for name, wrapper in (("update_all_instances", sweep),
                          ("update_subrelations", relations)):
        monkeypatch.setattr(engine, name, wrapper)
    cfg = AlignmentConfig(max_iterations=2, negative_evidence=negative)
    result = run_fixpoint(o1, o2, cfg)
    assert len(result.iterations) == 2
    assert dead == [("table", True), ("assignment", True)]


def test_role_swap_is_an_exact_mirror(alice):
    o1, o2 = alice
    ab = run_fixpoint(o1, o2)
    ba = run_fixpoint(o2, o1)
    flipped = {(b, a): p for a, b, p in ba.equiv.pairs()}
    assert engine_table_dict(ab.equiv) == flipped
    assert ab.assignment.forward == ba.assignment.backward
    assert ab.assignment.backward == ba.assignment.forward
    # both tables key (left id, right id) of the run: o1's ids come first
    # in ab.o1_to_o2 and, as the second run's o2, in ba.o2_to_o1
    assert ab.subrel.o1_to_o2 == ba.subrel.o2_to_o1


def test_role_swap_mirrors_on_random_worlds():
    rng = random.Random(7)
    o1, o2 = random_world_pair(rng, n_inst=15, drop=0.25)
    ab = run_fixpoint(o1, o2)
    ba = run_fixpoint(o2, o1)
    assert engine_table_dict(ab.equiv) == {(b, a): p for a, b, p in ba.equiv.pairs()}


def test_assignment_ties_break_toward_smaller_lexical():
    o1 = make_ontology("first", [("x", "label", '"Twin"')])
    o2 = make_ontology("second", [("zb", "name", '"Twin"'), ("za", "name", '"Twin"')])
    result = run_fixpoint(o1, o2, AlignmentConfig(max_iterations=1))
    x = o1.term_id("x")
    partner, _ = result.assignment.forward[x]
    assert o2.lexical(partner) == "za"


_TIE_PROBABILITIES = (0.25, 0.5, 1.0)


def _reference_partners(pairs, count1, count2):
    """The partner tuples of the pairs (a, b, p) both ways, with a dict per
    term: per term id below `count1` on the left and `count2` on the right,
    its partners ascending, each with its p, and () for a term without
    pairs."""
    left: dict[int, dict[int, float]] = {}
    right: dict[int, dict[int, float]] = {}
    for a, b, p in pairs:
        left.setdefault(a, {})[b] = p
        right.setdefault(b, {})[a] = p
    return (
        [tuple(sorted(left.get(a, {}).items())) for a in range(count1)],
        [tuple(sorted(right.get(b, {}).items())) for b in range(count2)],
    )


# Texts that share a key with others under one measure or both (outer
# whitespace, case, punctuation), texts whose keys are empty under one
# measure or both, and texts only one side can draw, so some keys match
# nothing.
_SHARED_TEXTS = ("Ann", " Ann", "Ann  ", "ANN", "a-n-n", "Bo", "bo", "", "  ", "-/-", "7")
_FORMS = ('"{}"', '"{}"@en', '"{}"@fr-CA', '"{}"^^<http://www.w3.org/2001/XMLSchema#string>')


def _literal_set(own_text):
    texts = st.sampled_from(_SHARED_TEXTS + (own_text,))
    forms = st.sampled_from(_FORMS)
    return st.lists(st.builds(str.format, forms, texts), max_size=14, unique=True)


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(sorted(MEASURES)), _literal_set("Left"), _literal_set("right"))
@example("strict", ['"Ann"', '"Ann"@en', '" Ann"', '"Bo"'], ['"Ann"^^<x>', '"Bo"', '"Bo"@fr'])
def test_seed_join_gives_the_partners_of_every_equal_key_pair(mode, side1, side2):
    """The seed share of two literal sets holds, both ways, the partners of
    every cross pair whose keys are equal and nonempty, at p = 1, ascending;
    a key that holds several literals on either side is among them, and
    `len()` counts each pair once."""
    key = MEASURES[mode]
    o1 = make_ontology("first", [(f"s{i}", "label", lit) for i, lit in enumerate(side1)])
    o2 = make_ontology("second", [(f"t{i}", "label", lit) for i, lit in enumerate(side2)])
    pairs = [
        (a, b, 1.0)
        for a in o1.literals()
        for b in o2.literals()
        if key(o1.lexical(a)) and key(o1.lexical(a)) == key(o2.lexical(b))
    ]
    share = literal_seed_pairs(o1, o2, key)
    assert (share.left_sorted, share.right_sorted) == _reference_partners(
        pairs, o1.term_count(), o2.term_count()
    )
    assert len(share) == len(pairs)


@settings(deadline=None, max_examples=150)
@given(
    st.permutations(range(6)),
    st.permutations(range(6)),
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.sampled_from(_TIE_PROBABILITIES)),
        max_size=30,
    ),
)
def test_assignment_is_the_brute_force_argmax_both_ways(order1, order2, entries):
    """Scores from a tiny set make ties common, and names are interned in a
    shuffled order, so id order and lexical order differ. Each instance's
    partner, either way, has the highest p and, among equal p, the
    lexically smallest name."""
    # the k-th name is interned at the position the permutation gives it
    o1 = make_ontology("first", [], types=[(f"a{k}", "C") for k in order1])
    o2 = make_ontology("second", [], types=[(f"b{k}", "C") for k in order2])
    ids1 = {k: o1.term_id(f"a{k}") for k in order1}
    ids2 = {k: o2.term_id(f"b{k}") for k in order2}
    rows: dict[int, dict[int, float]] = {}
    stored: dict[tuple[int, int], float] = {}
    for i, j, p in entries:
        rows.setdefault(ids1[i], {})[ids2[j]] = p
        stored[(ids1[i], ids2[j])] = p
    table = EquivalenceTable(bootstrap(o1, o2).literals, rows)
    assignment = compute_maximal_assignment(table, o1, o2)

    def brute(own, other, lexical):
        best = {}
        for key, p in stored.items():
            a, b = key[own], key[other]
            if a not in best or (-p, lexical(b)) < (-best[a][1], lexical(best[a][0])):
                best[a] = (b, p)
        return best

    assert assignment.forward == brute(0, 1, o2.lexical)
    assert assignment.backward == brute(1, 0, o1.lexical)


# a0 and a1 share b0 as their best, and b1 and b2 share a2 as theirs; the
# backward best of b3 is a3, whose own best is b4
_SHARED_BESTS = [
    (0, 0, 1.0), (1, 0, 0.5),
    (2, 1, 1.0), (2, 2, 0.5),
    (3, 3, 0.25), (3, 4, 1.0),
]


@settings(deadline=None, max_examples=150)
@given(
    st.permutations(range(6)),
    st.permutations(range(6)),
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.sampled_from(_TIE_PROBABILITIES)),
        max_size=30,
    ),
)
@example(range(6), range(6), _SHARED_BESTS)
@example(range(6)[::-1], range(6)[::-1], _SHARED_BESTS)
@example(range(6), range(6), [(j, i, p) for i, j, p in _SHARED_BESTS])
def test_view_of_an_assignment_groups_its_pair_list(order1, order2, entries):
    """An evidence view over an empty literal share holds the partner
    tuples, by `_reference_partners`, of the assignment's forward pairs and
    its backward pairs, each pair once (a pair that is best both ways is in
    both), also where several instances share one best partner, on either
    side."""
    o1 = make_ontology("first", [], types=[(f"a{k}", "C") for k in order1])
    o2 = make_ontology("second", [], types=[(f"b{k}", "C") for k in order2])
    ids1 = {k: o1.term_id(f"a{k}") for k in order1}
    ids2 = {k: o2.term_id(f"b{k}") for k in order2}
    rows: dict[int, dict[int, float]] = {}
    for i, j, p in entries:
        rows.setdefault(ids1[i], {})[ids2[j]] = p
    n1, n2 = o1.term_count(), o2.term_count()
    empty = LiteralShare([()] * n1, [()] * n2)
    assignment = compute_maximal_assignment(EquivalenceTable(empty, rows), o1, o2)
    pairs = [(a, b, p) for a, (b, p) in assignment.forward.items()]
    pairs += [(a, b, p) for b, (a, p) in assignment.backward.items()]
    pairs = list(dict.fromkeys(pairs))
    view = EvidenceView(empty, assignment)
    assert (view.left, view.right) == _reference_partners(pairs, n1, n2)
    if entries == _SHARED_BESTS:
        left, right = view.left, view.right
        assert len(right[ids2[0]]) == 2 and len(left[ids1[2]]) == 2
        assert len(left[ids1[3]]) == 2


def test_a_view_joins_the_literal_share_and_the_assignment():
    """A view joins the run's literal share with the assignment's partners,
    and the two never meet: no term with a seed has an assignment partner.
    Over the bootstrap's empty assignment a view is the literal share."""
    o1, o2 = alice_pair()
    state, _ = step(bootstrap(o1, o2))
    assert state.assignment.forward and state.assignment.backward
    n1, n2 = o1.term_count(), o2.term_count()
    own = EvidenceView(LiteralShare([()] * n1, [()] * n2), state.assignment)
    view = EvidenceView(state.literals, state.assignment)
    for assigned, literal, joined in (
        (own.left, state.literals.left_sorted, view.left),
        (own.right, state.literals.right_sorted, view.right),
    ):
        assert any(assigned) and any(literal)
        assert not any(literal[t] and assigned[t] for t in range(len(literal)))
        assert joined == [assigned[t] or literal[t] for t in range(len(literal))]
    start = bootstrap(o1, o2)
    empty = EvidenceView(start.literals, start.assignment)
    assert empty.left == start.literals.left_sorted
    assert empty.right == start.literals.right_sorted


@pytest.mark.parametrize("swap", [False, True])
def test_seeds_with_several_partners_read_the_same_everywhere(swap):
    """Under alnum-lower, two punctuated forms of one phone number both match
    the bare form, so one literal has two partners. The table's lookups, its
    pair list and count, and an evidence view's partner tuples all agree with
    the seed list."""
    side1 = [("p", "phone", '"213-467-1108"'), ("q", "phone", '"213/467/1108"')]
    side2 = [("r", "tel", '"2134671108"')]
    if swap:
        side1, side2 = side2, side1
    o1, o2 = make_ontology("first", side1), make_ontology("second", side2)
    state = bootstrap(o1, o2, AlignmentConfig(literal_mode="alnum-lower"))
    seeds = {(a, b): p for a, b, p in state.literal_seeds}
    assert len(seeds) == 2
    table = state.equiv
    assert sorted(table.pairs()) == sorted((a, b, p) for (a, b), p in seeds.items())
    assert len(table) == len(seeds)
    assert all(table.get(a, b) == p for (a, b), p in seeds.items())
    literals1, literals2 = o1.literals(), o2.literals()
    for a in literals1:
        for b in literals2:
            assert table.get(a, b) == seeds.get((a, b), 0.0)
        assert table.get(a, max(literals2) + 1) == 0.0
    view = EvidenceView(state.literals, state.assignment)
    for a in literals1:
        assert view.left[a] == tuple(sorted(
            (b, p) for (a2, b), p in seeds.items() if a2 == a
        ))
    for b in literals2:
        assert view.right[b] == tuple(sorted(
            (a, p) for (a, b2), p in seeds.items() if b2 == b
        ))


def test_restriction_limits_evidence_to_the_assignment():
    """A stored pair outside both argmax maps carries no evidence."""
    statements1 = [
        ("x", "label", '"Twin"'),
        ("w", "label", '"Twin"'),
        ("w", "code", '"C1"'),
        ("x", "knows", "f"),
        ("f", "label", '"Friend"'),
    ]
    statements2 = [
        ("za", "name", '"Twin"'),
        ("zb", "name", '"Twin"'),
        ("zb", "ref", '"C1"'),
        ("g", "name", '"Friend"'),
        ("zb", "acquainted", "g"),
    ]
    o1 = make_ontology("first", statements1)
    o2 = make_ontology("second", statements2)
    # x's argmax is za (tie broken lexically) and zb's argmax is w (stronger,
    # two shared values), so the stored pair (x, zb) is in neither direction
    # of the assignment. So knows(x, f) never lands on acquainted(zb, g), and
    # knows gets no inclusion score in acquainted.
    result = run_fixpoint(o1, o2, AlignmentConfig(max_iterations=3))
    x, zb = o1.term_id("x"), o2.term_id("zb")
    assert result.equiv.get(x, zb) > 0.0  # stored
    knows = o1.relation_id("knows")
    acq = o2.relation_id("acquainted")
    assert (knows, acq) not in result.subrel.o1_to_o2


def test_literal_seeds_survive_every_iteration(alice):
    o1, o2 = alice
    result = run_fixpoint(o1, o2)
    for a, b, p in result.equiv.pairs():
        if o1.kind(a) != INSTANCE:
            assert p == 1.0  # clamped, never updated or pruned
    seeds = [(a, b) for a, b, _ in result.equiv.pairs() if o1.kind(a) != INSTANCE]
    assert len(seeds) == 3


def test_every_table_holds_the_seeds():
    """Each sweep's table holds the run's seeds unchanged next to its own
    instance pairs, and counts both."""
    rng = random.Random(77)
    for _ in range(4):
        o1, o2 = random_world_pair(rng, value_pool=5)
        state = bootstrap(o1, o2)
        seeds = {(a, b): p for a, b, p in state.literal_seeds}
        assert seeds
        for _ in range(3):
            state, _ = step(state)
            table = engine_table_dict(state.equiv)
            literal = {k: p for k, p in table.items() if o1.kind(k[0]) != INSTANCE}
            assert literal == seeds
            instance_pairs = len(table) - len(literal)
            assert instance_pairs > 0
            assert len(state.equiv) == len(state.literal_seeds) + instance_pairs
            assert all(state.equiv.get(a, b) == p for (a, b), p in seeds.items())


def test_candidates_come_from_shared_evidence_not_cross_product():
    """Visited-pair counts stay near-linear when anchors are unique."""
    statements1 = [(f"a{i}", "code", f'"K{i}"') for i in range(60)]
    statements2 = [(f"b{i}", "ref", f'"K{i}"') for i in range(60)]
    o1 = make_ontology("first", statements1)
    o2 = make_ontology("second", statements2)
    state = bootstrap(o1, o2)
    total = 0
    for _ in range(2):
        state, stats = step(state)
        total += stats.pairs_evaluated
    assert total <= 60 * 4  # unique anchors: no quadratic blowup
    assert len(state.assignment.forward) == 60


class _WalkCountingTuple(tuple):
    """A tuple that counts the items walked over it."""

    walked = 0

    def __iter__(self):
        for item in super().__iter__():
            type(self).walked += 1
            yield item


def test_hub_value_adds_no_candidates():
    """A value every instance holds on both sides could reach all 3 600
    pairs, but it can never lift a pair over theta on its own. Its holders
    are never walked per instance, with or without negative evidence."""
    statements1 = [(f"a{i}", "code", f'"K{i}"') for i in range(60)]
    statements1 += [(f"a{i}", "active", '"true"') for i in range(60)]
    statements2 = [(f"b{i}", "ref", f'"K{i}"') for i in range(60)]
    statements2 += [(f"b{i}", "enabled", '"true"') for i in range(60)]
    for negative in (False, True):
        o1 = make_ontology("first", statements1)
        o2 = make_ontology("second", statements2)
        hub = o2.term_id('"true"')
        state = bootstrap(o1, o2, AlignmentConfig(negative_evidence=negative))
        o2.subject_objects[hub] = _WalkCountingTuple(o2.subject_objects[hub])
        total = 0
        for _ in range(2):
            _WalkCountingTuple.walked = 0
            update_all_instances(state)
            assert _WalkCountingTuple.walked <= 60  # one bound per sweep
            state, stats = step(state)
            total += stats.pairs_evaluated
        assert total <= 60 * 4
        assert len(state.assignment.forward) == 60


def test_crossed_landing_adds_no_candidates():
    """Sixteen persons per side with unique keys, born two to a city. On the
    second side each also died in a city, the next one, except b0, who died
    where born. So birth places are included in death places, and the other
    way round, with a stored score below theta. a1's birth city lands on
    its two natives and, crossed, on the three who died there: b14 and b15
    are reached only through that crossed landing, which can never lift a
    pair over theta, so they are not a1's candidates. Every pair that is
    not scored stays at or below theta."""
    statements1, statements2 = [], []
    for i in range(16):
        born, died = f'"C{i // 2}"', f'"C{(i // 2 + 1) % 8}"' if i else '"C0"'
        statements1 += [(f"a{i}", "key", f'"K{i}"'), (f"a{i}", "born", born)]
        statements2 += [
            (f"b{i}", "ref", f'"K{i}"'), (f"b{i}", "birthPlace", born), (f"b{i}", "diedIn", died),
        ]
    o1, o2 = make_ontology("first", statements1), make_ontology("second", statements2)
    state, _ = step(bootstrap(o1, o2))
    theta = state.config.theta
    crossed = state.subrel.o1_to_o2[(o1.relation_id("born"), o2.relation_id("diedIn"))]
    assert 0.0 < crossed < theta
    factors = engine._InstanceFactors(state, EvidenceView(state.literals, state.assignment))
    x = o1.term_id("a1")
    assert set(factors.candidates(x, theta)) == set(ids(o2, "b0", "b1"))
    for mate in ids(o2, "b14", "b15"):
        assert 0.0 < instance_equivalence(state, x, mate) <= theta
    for x in o1.instances():
        scored = factors.candidates(x, theta)
        for x2 in o2.instances():
            if x2 not in scored:
                assert instance_equivalence(state, x, x2) <= theta


def test_bounded_candidates_give_the_factors_of_the_full_enumeration(monkeypatch):
    """For every instance x, each candidate that `candidates` gives under
    theta has the factors that the full enumeration (the floor 0.0) gives
    it, pairs at or below theta included, and every pair the bound leaves
    out scores at or below theta. The weak step gives the same factor lists
    whether it looks every candidate up in its own columns
    (`_WALK_PER_LOOKUP` 0), walks every group's members (a ratio above
    every group's size) or mixes the two (the default ratio). On hub worlds
    the hub group outnumbers the candidates, so the default ratio looks
    them up too."""
    rng = random.Random(2525)
    low = left_out = 0
    lookups = Counter()
    holds, default = engine._holds, engine._WALK_PER_LOOKUP

    def counted_holds(*args):
        lookups[engine._WALK_PER_LOOKUP] += 1
        return holds(*args)

    monkeypatch.setattr(engine, "_holds", counted_holds)
    for hub in (False, True) * 3:
        o1, o2 = random_world_pair(
            rng, n_inst=rng.randint(10, 16), n_attr=3, value_pool=rng.choice((None, 3)), hub=hub,
        )
        state = bootstrap(o1, o2)
        theta = state.config.theta
        for _ in range(3):
            ev = EvidenceView(state.literals, state.assignment)
            factors = engine._InstanceFactors(state, ev)
            for x in o1.instances():
                given = []
                for ratio in (0, o2.term_count(), default):
                    monkeypatch.setattr(engine, "_WALK_PER_LOOKUP", ratio)
                    given.append(factors.candidates(x, theta))
                assert given[0] == given[1] == given[2]
                bounded = {x2: sorted(fs) for x2, fs in given[2].items()}
                full = {x2: sorted(fs) for x2, fs in factors.candidates(x, 0.0).items()}
                for x2, fs in full.items():
                    if x2 in bounded:
                        assert bounded[x2] == fs
                        low += 1.0 - _sorted_product(fs) <= theta
                    else:
                        assert 1.0 - _sorted_product(fs) <= theta
                        left_out += 1
                assert bounded.keys() <= full.keys()
            state, _ = step(state)
    assert low > 0
    assert left_out > 0
    assert lookups.keys() == {0, default}  # walking every group looks nothing up
    assert lookups[0] > 0 and lookups[default] > 0


@pytest.mark.parametrize(
    "field, value",
    [
        ("theta", 0.0),
        ("theta", 1.0),
        ("theta", -0.5),
        ("theta", float("nan")),
        ("max_iterations", -1),
        ("max_iterations", 0),
        ("literal_mode", "fuzzy"),
    ],
)
def test_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=field):
        AlignmentConfig(**{field: value})


def test_config_has_no_negative_inner_field():
    """Negative evidence has one penalty form; the field that chose another
    is gone, and the value `bench/checks.py` reads is fixed."""
    with pytest.raises(TypeError, match="negative_inner"):
        AlignmentConfig(negative_inner="pair")
    assert AlignmentConfig.negative_inner == "object"


def test_config_has_no_convergence_fraction_field():
    """The stop fraction is fixed; the field that set it is gone, and the
    value `bench/checks.py` reads is fixed."""
    with pytest.raises(TypeError, match="convergence_fraction"):
        AlignmentConfig(convergence_fraction=0.05)
    assert AlignmentConfig.convergence_fraction == 0.01


def test_config_has_no_class_score_threshold_field():
    """Class rows are reported from one fixed floor; the field that moved
    it is gone."""
    with pytest.raises(TypeError, match="class_score_threshold"):
        AlignmentConfig(class_score_threshold=0.5)
    assert CLASS_SCORE_FLOOR == 0.4


@pytest.mark.parametrize("changed, tracked, stops", [
    (0, 0, True), (0, 200, True), (1, 200, True), (2, 200, False), (200, 200, False),
])
def test_a_run_stops_below_one_percent_of_changes(changed, tracked, stops):
    """The stop fraction is 0.01, and a fraction of exactly 0.01 runs on."""
    stats = IterationStats(
        iteration=1, changed=changed, tracked=tracked,
        change_fraction=(changed / tracked) if tracked else 0.0,
        equivalences=0, subrelations=0, pairs_evaluated=0,
        pairs_ruled_out_by_penalties=0, instances_ruled_out=0, phases={},
    )
    assert has_converged(stats, AlignmentConfig()) is stops


def test_a_one_iteration_run_returns_that_iteration(alice):
    """The shortest run is one iteration, which assigns every instance
    afresh and so cannot converge; its result holds that iteration's
    assignment and relation inclusions."""
    o1, o2 = alice
    result = run_fixpoint(o1, o2, AlignmentConfig(max_iterations=1))
    state, stats = step(bootstrap(o1, o2, result.config))
    assert not result.converged
    assert [s.change_fraction for s in result.iterations] == [stats.change_fraction] == [1.0]
    assert result.assignment.forward == state.assignment.forward != {}
    assert result.subrel.o1_to_o2 == state.subrel.o1_to_o2 != {}
    assert result.subrel.o2_to_o1 == state.subrel.o2_to_o1


def test_empty_ontologies_converge_immediately():
    result = run_fixpoint(make_ontology("first", []), make_ontology("second", []))
    assert result.converged
    assert result.iterations[0].change_fraction == 0.0


def test_relation_inclusion_reads_every_statement():
    """First ten birth statements land, the last ten have no counterpart on
    the second side at all; the sweep reads all twenty and gets 0.5."""
    statements1 = [(f"a{i:02d}", "bornIn", "p") for i in range(20)]
    statements1 += [(f"a{i:02d}", "code", f'"K{i}"') for i in range(20)]
    statements1 += [("p", "code", '"KP"')]
    statements2 = [(f"b{i:02d}", "birthPlace", "qa") for i in range(10)]
    statements2 += [(f"b{i:02d}", "ref", f'"K{i}"') for i in range(20)]
    statements2 += [("qa", "ref", '"KP"')]
    o1 = make_ontology("first", statements1)
    o2 = make_ontology("second", statements2)
    full = run_fixpoint(o1, o2)
    r1 = o1.relation_id("bornIn")
    r2 = o2.relation_id("birthPlace")
    assert full.subrel.o1_to_o2[(r1, r2)] == 0.5


def _subrel_rows_by_lookup(side, other, partners, relation):
    """`engine._subrel_rows` with every transported pair's relations from
    `Ontology.relations_between` and every statement through the general
    branch: the one-partner branch's hit is 1 - (1 - pu pv) there too."""
    num, den = {}, 0.0
    for x, y in side.pairs(relation):
        if not (partners[x] and partners[y]):
            continue
        misses, per_rel = [], {}
        for u, pu in partners[x]:
            for v, pv in partners[y]:
                miss = 1.0 - pu * pv
                misses.append(miss)
                for q in other.relations_between(u, v):
                    per_rel.setdefault(q, []).append(miss)
        den += 1.0 - _sorted_product(misses)
        for q, fs in per_rel.items():
            num[q] = num.get(q, 0.0) + (1.0 - _sorted_product(fs))
    if den <= 0.0:
        return {}
    return {q: v / den for q, v in num.items() if v > 0.0}


def test_relation_sweep_scan_matches_relations_between():
    """The relation sweep reads the relations between a transported pair
    off the other side's columns; on skewed worlds every row equals, in
    value and order, one that looks each pair up with `relations_between`.
    A hub object with a thousand subjects makes one column long, so both
    scan sides occur, each with pairs linked by several relations."""
    rng = random.Random(3535)
    entities = ("e0", "e1", "e2", "e3", "h0", "h1")
    objects = entities[:4] + ('"v0"', '"v1"', '"true"')
    relations = ("r0", "r1", "r2", "r3")
    hub = [(f"h{i}", "active", '"true"') for i in range(1_000)]
    # one-partner pairs linked by several relations, by whether v's rows are scanned
    several = {False: 0, True: 0}

    def world():
        plain = [
            (rng.choice(entities), rng.choice(relations), rng.choice(objects))
            for _ in range(rng.randint(5, 30))
        ]
        subprops = [
            (rng.choice(relations), RDFS_SUBPROPERTYOF, rng.choice(relations))
            for _ in range(rng.randint(0, 2))
        ]
        return ontology_from_triples(hub + plain + subprops)

    for _ in range(40):
        o1, o2 = world(), world()
        for side, other in ((o1, o2), (o2, o1)):
            pool = [t for t in map(other.term_id, entities + objects) if t is not None]
            partners = []
            for _ in range(side.term_count()):
                n = rng.choice((0, 1, 1, 1, 1, 2))
                partners.append(tuple(
                    (rng.choice(pool), rng.choice((1.0, rng.random()))) for _ in range(n)
                ))
            for r in side.relation_ids():
                got = engine._subrel_rows(side, other, partners, r)
                assert list(got.items()) == list(
                    _subrel_rows_by_lookup(side, other, partners, r).items()
                )
                for x, y in side.pairs(r):
                    if len(partners[x]) == len(partners[y]) == 1:
                        (u, _), (v, _) = partners[x][0], partners[y][0]
                        if len(other.relations_between(u, v)) > 1:
                            objs = other.subject_objects
                            several[len(objs[v]) < len(objs[u])] += 1
    assert several[False] > 0 and several[True] > 0


def keyed_persons(n, prefix, key, extra=()):
    """Persons {prefix}0 .. {prefix}{n-1}, in that load order, each with the
    unique key literal "K{i}", plus one statement per (i, relation, object)
    of `extra`."""
    statements = [(f"{prefix}{i}", key, f'"K{i}"') for i in range(n)]
    return statements + [(f"{prefix}{i}", r, o) for i, r, o in extra]


def test_relation_inclusion_reads_past_ten_thousand_statements():
    """All 10 010 first-side persons are born in p; only the first 10 000
    second-side persons are born in q, p's partner. The last ten statements
    miss, so the inclusion falls just below 1.0."""
    n = 10_010
    o1 = make_ontology(
        "first", keyed_persons(n, "a", "code", [(i, "bornIn", "p") for i in range(n)])
        + [("p", "code", '"KP"')],
        types=[(f"a{i}", "Person") for i in range(n)],
    )
    o2 = make_ontology(
        "second", keyed_persons(n, "b", "ref", [(i, "birthPlace", "q") for i in range(10_000)])
        + [("q", "ref", '"KP"')],
        types=[(f"b{i}", "Human") for i in range(n)],
    )
    result = run_fixpoint(o1, o2)
    p = result.subrel.o1_to_o2[(o1.relation_id("bornIn"), o2.relation_id("birthPlace"))]
    assert p < 1.0
    assert p == pytest.approx(10_000 / n, abs=1e-4)


def test_class_inclusion_reads_past_ten_thousand_instances():
    """All 10 010 first-side persons are of class Person; only the first
    10 000 have a partner, so Person is not wholly included in Human."""
    n = 10_010
    o1 = make_ontology(
        "first", keyed_persons(n, "a", "code"), types=[(f"a{i}", "Person") for i in range(n)]
    )
    o2 = make_ontology(
        "second", keyed_persons(10_000, "b", "ref"),
        types=[(f"b{i}", "Human") for i in range(10_000)],
    )
    result = run_fixpoint(o1, o2)
    p = result.classes.o1_to_o2[(o1.term_id("Person"), o2.term_id("Human"))]
    assert p < 1.0
    assert p == pytest.approx(10_000 / n, abs=1e-4)


# ----------------------------------------------------------- negative evidence


def conflicting_phone_pair():
    statements1 = [
        ("x", "name", '"Ada"'),
        ("x", "phone", '"111-111"'),
        ("w", "name", '"Grace"'),
        ("w", "phone", '"333-333"'),
    ]
    statements2 = [
        ("y", "label", '"Ada"'),
        ("y", "tel", '"222-222"'),  # same person claim, different phone
        ("v", "label", '"Grace"'),
        ("v", "tel", '"333-333"'),  # agreeing pair keeps tel aligned to phone
    ]
    return make_ontology("first", statements1), make_ontology("second", statements2)


def test_negative_evidence_gives_up_conflicting_pairs():
    o1, o2 = conflicting_phone_pair()
    x, y = None, None
    base = run_fixpoint(o1, o2, AlignmentConfig(max_iterations=4))
    x, y = o1.term_id("x"), o2.term_id("y")
    assert base.equiv.get(x, y) > 0.1  # name match carries the pair by default
    neg = run_fixpoint(
        o1, o2, AlignmentConfig(max_iterations=4, negative_evidence=True)
    )
    assert neg.equiv.get(x, y) == 0.0  # disagreeing functional attribute kills it
    w, v = o1.term_id("w"), o2.term_id("v")
    assert neg.equiv.get(w, v) > 0.5  # fully agreeing pair survives


def born_and_died_in_cities_pair():
    """Six persons and three cities per side. Each person has two name
    literals, each shared with one other person, is born in city i % 3 and
    dies there for even i, otherwise in city (i + 1) % 3. Each city has a
    key literal of its own. The default config assigns all 9 true pairs."""
    sides = []
    for tag, name, born, died, key in (
        ("a", "name", "bornIn", "diedIn", "key"),
        ("b", "label", "birthPlace", "deathPlace", "ref"),
    ):
        statements = [(f"{tag}c{k}", key, f'"K{k}"') for k in range(3)]
        for i in range(6):
            city = i % 3
            statements += [
                (f"{tag}{i}", name, f'"N{i // 2}"'),
                (f"{tag}{i}", name, f'"M{(i + 1) // 2 % 3}"'),
                (f"{tag}{i}", born, f"{tag}c{city}"),
                (f"{tag}{i}", died, f"{tag}c{city if i % 2 == 0 else (city + 1) % 3}"),
            ]
        sides.append(make_ontology("first" if tag == "a" else "second", statements))
    return sides[0], sides[1]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2")
def test_negative_evidence_keeps_the_true_pairs_of_a_noise_free_world():
    """Under negative evidence, iteration 1 stores the 9 true pairs just
    above theta, and iteration 2 rules all 9 out by their penalties alone.
    With no instance assigned, no pair gets evidence again, and the run
    converges (changes 18, 18, 0) to no instance row at all."""
    o1, o2 = born_and_died_in_cities_pair()
    result = run_fixpoint(o1, o2, AlignmentConfig(negative_evidence=True))
    assigned = {
        (o1.lexical(a), o2.lexical(b)) for a, (b, _) in result.assignment.forward.items()
    }
    truth = {(f"a{i}", f"b{i}") for i in range(6)} | {(f"ac{k}", f"bc{k}") for k in range(3)}
    assert assigned == truth


def test_no_penalties_during_the_uniform_prior_iteration():
    o1, o2 = conflicting_phone_pair()
    negative = bootstrap(o1, o2, AlignmentConfig(negative_evidence=True))
    default = bootstrap(o1, o2)
    x, y = o1.term_id("x"), o2.term_id("y")
    # iteration 1: no stored inclusion scores yet, so no penalty applies
    assert instance_equivalence(negative, x, y) == instance_equivalence(default, x, y) > 0.0


def test_negative_evidence_keeps_no_index_per_run(tmp_path):
    """A state under negative evidence holds no more than one under the
    default config: the penalties read the second store's columns, and
    `bootstrap` builds nothing else for them. With a per-run index of each
    candidate's objects grouped by relation, a 400-person pair's state held
    703 KB traced against 324 KB."""
    generate_pair(tmp_path, instances=400, seed=1)
    o1, o2 = (load_ontology(tmp_path / name) for name in ("left.nt", "right.nt"))
    bootstrap(o1, o2)  # warm-up: the stores' lazy parts are not counted

    def held(config):
        gc.collect()
        tracemalloc.start()
        try:
            state = bootstrap(o1, o2, config)  # kept until its memory is read
            live, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del state
        return live

    # Each build traces a few bytes fewer than the one before it, so the
    # default is measured on both sides of the negative-evidence build.
    before = held(AlignmentConfig())
    negative = held(AlignmentConfig(negative_evidence=True))
    assert negative <= max(before, held(AlignmentConfig()))


def test_negative_one_pair_operation_matches_sweep():
    cfg = AlignmentConfig(negative_evidence=True)
    for o1, o2 in (conflicting_phone_pair(), hub_world_pair()):
        assert_sweeps_store_one_pair_scores(o1, o2, cfg, 3)


def test_negative_sweep_cuts_exactly_at_theta():
    """The sweep stops scoring a pair once it can no longer be stored. On
    ambiguous worlds, for every theta, it must still store exactly the pairs
    whose one-pair score is above theta, at that score. A two-value pool
    gives many pairs a score just above theta after a mild penalty, which is
    where a cut that is not exact shows."""
    rng = random.Random(5150)
    for theta in (0.05, 0.1, 0.3):
        cfg = AlignmentConfig(theta=theta, negative_evidence=True)
        for hub in (False, False, True) * 4:
            o1, o2 = random_world_pair(
                rng, n_inst=rng.randint(10, 14), n_attr=3, drop=0.3, value_pool=2, hub=hub,
            )
            assert_sweeps_store_one_pair_scores(o1, o2, cfg, 3)


def shared_city_pair(keyless: int = 0):
    """Six persons per side, each with a key of its own and all in one city,
    a literal. On the second side the first `keyless` keys match nothing."""
    statements1, statements2 = [], []
    for i in range(6):
        statements1 += [(f"a{i}", "key", f'"K{i}"'), (f"a{i}", "city", '"Paris"')]
        other = f'"Z{i}"' if i < keyless else f'"K{i}"'
        statements2 += [(f"b{i}", "ref", other), (f"b{i}", "town", '"Paris"')]
    return make_ontology("first", statements1), make_ontology("second", statements2)


def test_decisive_penalty_rules_out_city_mates():
    """After the first iteration the unique keys are aligned at 1, so a key
    penalty alone takes any pair whose keys differ to 0. A city-mate's
    positive score is above theta, yet under negative evidence it is never
    stored and never scored: each person has one candidate left."""
    o1, o2 = shared_city_pair()
    x, mate = o1.term_id("a0"), o2.term_id("b1")
    negative, _ = step(bootstrap(o1, o2, AlignmentConfig(negative_evidence=True)))
    plain, _ = step(bootstrap(o1, o2))
    factors = engine._InstanceFactors(
        negative, EvidenceView(negative.literals, negative.assignment)
    )
    assert o1.relation_id("key") in factors._decisive
    assert 1.0 - _sorted_product(factors.candidates(x, 0.0).get(mate, [])) > 0.3
    negative, stats = step(negative)
    assert stats.pairs_evaluated == 6
    assert negative.equiv.get(x, mate) == 0.0
    assert negative.assignment.forward[x][0] == o2.term_id("b0")
    plain, plain_stats = step(plain)
    assert plain_stats.pairs_evaluated == 6 * 6
    assert plain.equiv.get(x, mate) > 0.3


def test_key_without_a_partner_gives_no_row():
    """Where a person's key literal has no seed, its key penalty rules out
    every candidate, so it gets no row and no candidate is scored for it:
    the sweep finds it stranded before it forms any term."""
    o1, o2 = shared_city_pair(keyless=2)
    cfg = AlignmentConfig(negative_evidence=True)
    state, _ = step(bootstrap(o1, o2, cfg))
    factors = engine._InstanceFactors(state, EvidenceView(state.literals, state.assignment))
    assert factors.stranded == set(ids(o1, "a0", "a1"))
    fresh, stats = step(state)
    assert stats.pairs_evaluated == 4
    assert stats.instances_ruled_out == 2
    for i in range(6):
        x = o1.term_id(f"a{i}")
        if i < 2:
            assert not any(fresh.equiv.get(x, x2) for x2 in o2.instances())
            assert all(instance_equivalence(state, x, x2) <= cfg.theta for x2 in o2.instances())
        else:
            assert fresh.assignment.forward[x][0] == o2.term_id(f"b{i}")


def test_penalty_misses_multiply_in_ascending_order():
    """y has three partners, and x2 holds a friend statement to each. Under
    negative evidence the penalty of x's knows statement multiplies the
    three misses 1 - P(y, y_i), whose product depends on the order they are
    multiplied in. They multiply in ascending order, as every product of the
    sweep does, so the pair scores the same bits in whichever order the
    second ontology lists x2's statements."""
    ps = (0.58, 0.43, 0.17)
    misses = [1.0 - p for p in ps]
    assert misses[0] * misses[1] * misses[2] != misses[2] * misses[1] * misses[0]
    o1 = make_ontology("first", [("x", "key", '"K"'), ("x", "knows", "y")])
    scores = set()
    for order in itertools.permutations(range(3)):
        statements2 = [(f"y{i}", "ref", f'"Y{i}"') for i in range(3)]  # ids in name order
        statements2 += [("x2", "ref", '"K"')] + [("x2", "friend", f"y{i}") for i in order]
        o2 = make_ontology("second", statements2)
        state = bootstrap(o1, o2, AlignmentConfig(negative_evidence=True))
        y, ys = o1.term_id("y"), ids(o2, "y0", "y1", "y2")
        state.assignment = engine.MaximalAssignment(
            {y: (ys[0], ps[0])}, {y2: (y, p) for y2, p in zip(ys, ps)}
        )
        aligned = [("knows", "friend"), ("key", "ref")]
        state.subrel = engine.InclusionTable(
            {(o1.relation_id(r), o2.relation_id(r2)): 0.9 for r, r2 in aligned},
            {(o2.relation_id(r2), o1.relation_id(r)): 0.9 for r, r2 in aligned},
        )
        assert len(EvidenceView(state.literals, state.assignment).left[y]) == 3
        scores.add(instance_equivalence(state, o1.term_id("x"), o2.term_id("x2")))
    assert len(scores) == 1
    assert 0.0 < scores.pop() < 1.0


def home_and_club_pair():
    """Eight persons per side, each with a unique key. a0-a4 also hold a
    home and a5-a7 a club, literals. a0's home differs on the second side,
    and so does a5's club; a2 and a6 keep the first side's value, so the
    relation sweep sees each conflict. The club has fewer holders, so its
    inclusions are weaker."""
    homes = [(0, 1), (1, 1), (0, 0), (1, 1), (2, 2)]
    clubs = [(0, 1), (0, 0), (1, 1)]
    sides = []
    for tag, key, home, club, value in (
        ("a", "key", "home", "club", 0), ("b", "ref", "town", "team", 1),
    ):
        statements = [(f"{tag}{i}", key, f'"K{i}"') for i in range(8)]
        statements += [(f"{tag}{i}", home, f'"H{h[value]}"') for i, h in enumerate(homes)]
        statements += [(f"{tag}{i + 5}", club, f'"T{c[value]}"') for i, c in enumerate(clubs)]
        sides.append(make_ontology("first" if tag == "a" else "second", statements))
    return sides[0], sides[1]


def test_penalty_product_alone_rules_out_a_pair():
    """From iteration 2 each person's key is decisive and its true partner
    escapes it with p = 1. a0 and b0 still have two home penalties, one per
    inclusion direction: each is above theta and neither is decisive, but
    their product is at or below theta, so the pair is ruled out before its
    factors are formed. a5 and b5's two club penalties multiply to just
    above theta, so that pair is stored. Every sweep stores what the one-pair
    scores store, and the counter counts a0 and b0 alone."""
    o1, o2 = home_and_club_pair()
    cfg = AlignmentConfig(theta=0.05, negative_evidence=True)
    theta = cfg.theta
    assert_sweeps_store_one_pair_scores(o1, o2, cfg, 5)
    state, _ = step(bootstrap(o1, o2, cfg))
    factors = engine._InstanceFactors(state, EvidenceView(state.literals, state.assignment))
    assert o1.relation_id("key") in factors._decisive
    assert o1.relation_id("home") not in factors._decisive
    assert o1.relation_id("club") not in factors._decisive
    penalties = {}
    for i in (0, 5):
        x, x2 = o1.term_id(f"a{i}"), o2.term_id(f"b{i}")
        assert 1.0 - _sorted_product(factors.candidates(x, 0.0).get(x2, [])) == 1.0
        penalties[i] = factors._penalty(x, x2, 1.0, theta)
        assert penalties[i] is not None  # no one penalty alone is at or below theta
    assert 0.0 < penalties[0] <= theta < penalties[5] <= 2 * theta
    fresh, stats = step(state)
    assert stats.pairs_ruled_out_by_penalties == 1
    assert fresh.equiv.get(o1.term_id("a0"), o2.term_id("b0")) == 0.0
    assert fresh.equiv.get(o1.term_id("a5"), o2.term_id("b5")) == penalties[5]
    ruled_out = []
    state = bootstrap(o1, o2, cfg)
    for _ in range(5):
        state, stats = step(state)
        ruled_out.append(stats.pairs_ruled_out_by_penalties)
    assert ruled_out == [0, 1, 0, 0, 0]


def test_decisive_cut_stores_what_one_pair_scores_store():
    """On random worlds, every sweep under negative evidence stores exactly
    the pairs whose one-pair score, which has no cut, is above theta, at
    that score. Most worlds have unique values, which make decisive
    penalties; some share two values per attribute."""
    rng = random.Random(1)
    decisive = 0
    for case in range(12):
        cfg = AlignmentConfig(theta=(0.05, 0.1, 0.3)[case % 3], negative_evidence=True)
        o1, o2 = random_world_pair(
            rng, n_inst=rng.randint(8, 14), n_attr=rng.randint(1, 3),
            drop=rng.choice((0.0, 0.15, 0.3)), value_pool=2 if case % 4 == 1 else None,
        )
        decisive += assert_sweeps_store_one_pair_scores(o1, o2, cfg, 4)
    assert decisive >= 12


def test_stranded_instances_are_those_with_a_decisive_value_without_a_partner():
    """On random worlds under negative evidence, drawn as the decisive-cut
    test draws them, each sweep's stranded set is exactly the instances
    with a statement of a decisive relation whose object has no entry in
    the sweep's view, and the iteration counts it."""
    rng = random.Random(1)
    stranded = kept = 0
    for case in range(12):
        cfg = AlignmentConfig(theta=(0.05, 0.1, 0.3)[case % 3], negative_evidence=True)
        o1, o2 = random_world_pair(
            rng, n_inst=rng.randint(8, 14), n_attr=rng.randint(1, 3),
            drop=rng.choice((0.0, 0.15, 0.3)), value_pool=2 if case % 4 == 1 else None,
        )
        state = bootstrap(o1, o2, cfg)
        for _ in range(4):
            ev = EvidenceView(state.literals, state.assignment)
            factors = engine._InstanceFactors(state, ev)
            expected = {
                x for x in o1.instances()
                if any(r in factors._decisive and ev.left[y] == () for r, y in o1.rows(x))
            }
            assert factors.stranded == expected
            state, stats = step(state)
            assert stats.instances_ruled_out == len(expected)
            stranded += len(expected)
            kept += sum(
                any(r in factors._decisive for r, _ in o1.rows(x)) for x in o1.instances()
            ) - len(expected)
    assert stranded and kept  # both kinds of instance with a decisive value occur


# factors in [0, 1], with the edges and subnormals drawn often
UNIT_FLOATS = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(0.0, sys.float_info.min),
    st.sampled_from((0.0, 1.0, 5e-324, sys.float_info.min, 1.0 - 2.0**-53)),
)


@settings(deadline=None, max_examples=300)
@given(
    factors=st.lists(UNIT_FLOATS, min_size=1, max_size=12),
    p=UNIT_FLOATS.filter(lambda v: v > 0.0),
)
def test_sorted_product_is_at_most_each_factor(factors, p):
    """The float fact the sweep's cuts at theta rest on: for factors in
    [0, 1], the ascending product is at most each factor f, and p times the
    product is at most p f."""
    prod = _sorted_product(list(factors))
    for f in factors:
        assert prod <= f
        assert p * prod <= p * f


# ------------------------------------------------------------------- reports


def test_result_rows_shape_and_filters(alice):
    o1, o2 = alice
    result = run_fixpoint(o1, o2)
    instances, relations, classes = result_rows(result)
    assert {r.direction for r in instances} == {"equivalence"}
    assert {r.direction for r in relations} == {"left_in_right", "right_in_left"}
    assert all(r.left in ("alice", "bob", "paris") for r in instances)
    assert classes == []  # no classes declared in this fixture


def test_result_rows_map_each_inclusion_entry_to_one_row():
    """Every relation inclusion, inverses and both directions included,
    gives exactly one row with its score, the first ontology's term on the
    left and its direction; the class rows are exactly the class inclusions
    at or above `CLASS_SCORE_FLOOR`. b0's second birth place makes the two
    directions of bornIn/birthPlace differ, and the class Extra, held by b0
    alone, puts Person in Extra below the floor and Extra in Person above."""
    o1 = make_ontology(
        "first",
        [(f"a{i}", "label", f'"L{i}"') for i in range(4)]
        + [(f"a{i}", "bornIn", f"c{i % 2}") for i in range(4)]
        + [(f"c{j}", "code", f'"K{j}"') for j in range(2)],
        types=[(f"a{i}", "Person") for i in range(4)],
    )
    o2 = make_ontology(
        "second",
        [(f"b{i}", "name", f'"L{i}"') for i in range(4)]
        + [(f"b{i}", "birthPlace", f"d{i % 2}") for i in range(4)]
        + [("b0", "birthPlace", "d1")]
        + [(f"d{j}", "ref", f'"K{j}"') for j in range(2)],
        types=[(f"b{i}", "Human") for i in range(4)] + [("b0", "Extra")],
    )
    result = run_fixpoint(o1, o2)
    _, relations, classes = result_rows(result)
    rel1 = {o1.relation_lexical(r): r for r in o1.relation_ids()}
    rel2 = {o2.relation_lexical(r): r for r in o2.relation_ids()}

    def entries(rows, id1, id2):
        """Each row as its table key, direction and score."""
        out = []
        for row in rows:
            a, b = id1(row.left), id2(row.right)
            key = (a, b) if row.direction == "left_in_right" else (b, a)
            out.append((row.direction, key, row.score))
        return out

    subrel = result.subrel
    assert sorted(entries(relations, rel1.get, rel2.get)) == sorted(
        [("left_in_right", key, p) for key, p in subrel.o1_to_o2.items()]
        + [("right_in_left", key, p) for key, p in subrel.o2_to_o1.items()]
    )
    born, place = o1.relation_id("bornIn"), o2.relation_id("birthPlace")
    for r1, r2 in ((born, place), (born ^ 1, place ^ 1)):
        assert subrel.o1_to_o2[(r1, r2)] == 1.0
        assert 0.0 < subrel.o2_to_o1[(r2, r1)] < 1.0
    scores = {(r.left, r.right, r.direction): r.score for r in relations}
    assert scores[("bornIn", "birthPlace", "left_in_right")] == 1.0
    assert scores[("bornIn", "birthPlace", "right_in_left")] < 1.0
    assert {r.kind for r in relations} == {"relation"}

    person, human, extra = o1.term_id("Person"), o2.term_id("Human"), o2.term_id("Extra")
    table = result.classes
    assert table.o1_to_o2[(person, extra)] < CLASS_SCORE_FLOOR
    assert table.o2_to_o1[(extra, person)] >= CLASS_SCORE_FLOOR
    assert table.o1_to_o2[(person, human)] >= CLASS_SCORE_FLOOR
    assert sorted(entries(classes, o1.term_id, o2.term_id)) == sorted(
        [("left_in_right", key, p) for key, p in table.o1_to_o2.items()
         if p >= CLASS_SCORE_FLOOR]
        + [("right_in_left", key, p) for key, p in table.o2_to_o1.items()
           if p >= CLASS_SCORE_FLOOR]
    )
    assert ("Person", "Extra", "left_in_right") not in {
        (r.left, r.right, r.direction) for r in classes
    }
    assert {r.kind for r in classes} == {"class"}


def test_result_rows_class_threshold():
    o1 = make_ontology(
        "first",
        [(f"a{i}", "label", f'"L{i}"') for i in range(4)],
        types=[(f"a{i}", "Person") for i in range(4)],
    )
    o2 = make_ontology(
        "second",
        [(f"b{i}", "name", f'"L{i}"') for i in range(4)],
        types=[(f"b{i}", "Human") for i in range(4)],
    )
    _, _, classes = result_rows(run_fixpoint(o1, o2))
    assert len(classes) == 2  # one class pair, both directions


def test_result_rows_drop_class_rows_below_the_threshold():
    """Of four persons per class, 1 aligned gives each class inclusion a
    score below CLASS_SCORE_FLOOR, and its rows are dropped; 2 aligned give
    one above it, and its rows are kept."""
    for aligned, kept in ((1, False), (2, True)):
        o1 = make_ontology(
            "first",
            [(f"a{i}", "label", f'"L{i}"') for i in range(4)],
            types=[(f"a{i}", "Person") for i in range(4)],
        )
        o2 = make_ontology(
            "second",
            [(f"b{i}", "name", f'"L{i}"' if i < aligned else f'"M{i}"') for i in range(4)],
            types=[(f"b{i}", "Human") for i in range(4)],
        )
        result = run_fixpoint(o1, o2)
        scores = [*result.classes.o1_to_o2.values(), *result.classes.o2_to_o1.values()]
        assert len(scores) == 2
        for p in scores:
            assert 0.0 < p < 1.0 and (p >= CLASS_SCORE_FLOOR) == kept, (aligned, p)
        rows = {(r.left, r.right, r.direction) for r in result_rows(result)[2]}
        assert rows == ({("Person", "Human", "left_in_right"),
                         ("Person", "Human", "right_in_left")} if kept else set())
