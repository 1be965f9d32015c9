import random
from fractions import Fraction

import pytest

from helpers import make_ontology
from ontoalign.functionality import (
    MODES,
    build_functionality_table,
    global_functionality,
    local_functionality,
)
from ontoalign.store import RDFS_SUBPROPERTYOF, ontology_from_triples


def bornin_ontology():
    return make_ontology(
        "first",
        [("a", "bornIn", "p"), ("b", "bornIn", "p"), ("b", "bornIn", "q")],
    )


def test_local_functionality_is_one_over_statement_count():
    onto = bornin_ontology()
    r = onto.relation_id("bornIn")
    a, b = onto.term_id("a"), onto.term_id("b")
    assert local_functionality(onto, r, a) == 1.0
    assert local_functionality(onto, r, b) == 0.5
    with pytest.raises(ValueError):
        local_functionality(onto, r, onto.term_id("p"))


def test_harmonic_mean_is_subjects_over_statements():
    onto = bornin_ontology()
    r = onto.relation_id("bornIn")
    assert global_functionality(onto, r) == 2 / 3
    # inverse direction: subjects are the two cities, statements are three
    assert global_functionality(onto, onto.inverse(r)) == 2 / 3


def test_unknown_mode_rejected():
    onto = bornin_ontology()
    with pytest.raises(ValueError):
        global_functionality(onto, onto.relation_id("bornIn"), "median")


def test_empty_relation_defaults_to_one():
    # a subPropertyOf edge names two relations and makes no statement
    onto = ontology_from_triples([("unused", RDFS_SUBPROPERTYOF, "alsoUnused")])
    r = onto.relation_id("unused")
    table = build_functionality_table(onto)
    assert table.fun(r) == 1.0
    assert table.values == [1.0] * 4  # both relations and their inverses


def test_inverse_fun_reads_the_partner_id():
    onto = bornin_ontology()
    r = onto.relation_id("bornIn")
    table = build_functionality_table(onto)
    assert table.inverse_fun(r) == table.fun(onto.inverse(r))


def test_all_pairs_relation_modes_exactly():
    """n subjects each liking the same n dishes: every mode has a closed form."""
    for n in (2, 3, 5):
        statements = [
            (f"person{i}", "likesDish", f"dish{j}") for i in range(n) for j in range(n)
        ]
        onto = make_ontology("first", statements)
        r = onto.relation_id("likesDish")
        assert global_functionality(onto, r, "harmonic-mean") == float(Fraction(1, n))
        assert global_functionality(onto, r, "pair-ratio") == float(Fraction(1, n))
        assert global_functionality(onto, r, "arg-ratio") == 1.0
        assert global_functionality(onto, r, "arithmetic-mean") == float(Fraction(1, n))


def test_arg_ratio_is_clamped_to_one():
    # two subjects share one object: the raw subject/object ratio would be 2
    onto = make_ontology("first", [("a", "r", "x"), ("b", "r", "x")])
    assert global_functionality(onto, onto.relation_id("r"), "arg-ratio") == 1.0


def test_modes_agree_with_exact_rationals_on_random_relations():
    rng = random.Random(42)
    triples = []
    specs = []
    for i in range(60):
        stmts = []
        for s in range(rng.randrange(1, 6)):
            for o in range(rng.randrange(1, 5)):
                pair = (f"s{i}-{s}", f"o{i}-{rng.randrange(6)}")
                if pair not in stmts:
                    stmts.append(pair)
        triples += [(s, f"r{i}", o) for s, o in stmts]
        specs.append((f"r{i}", stmts))
    onto = ontology_from_triples(triples)
    for name, stmts in specs:
        r = onto.relation_id(name)
        per_subject: dict[int, int] = {}
        for s, _ in stmts:
            per_subject[s] = per_subject.get(s, 0) + 1
        objects = {o for _, o in stmts}
        n_subj, n_stmt = len(per_subject), len(stmts)
        expected = {
            "harmonic-mean": Fraction(n_subj, n_stmt),
            "pair-ratio": Fraction(n_stmt, sum(k * k for k in per_subject.values())),
            "arg-ratio": min(Fraction(1), Fraction(n_subj, len(objects))),
            "arithmetic-mean": sum(Fraction(1, k) for k in per_subject.values())
            / n_subj,
        }
        for mode in MODES:
            got = global_functionality(onto, r, mode)
            if mode == "arithmetic-mean":
                assert got == pytest.approx(float(expected[mode]), abs=1e-12)
            else:
                assert got == float(expected[mode]), (mode, r)
