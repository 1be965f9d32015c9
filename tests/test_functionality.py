import random
from fractions import Fraction

from helpers import make_ontology
from ontoalign.functionality import build_functionality_table
from ontoalign.store import RDFS_SUBPROPERTYOF, ontology_from_triples


def bornin_ontology():
    return make_ontology(
        "first",
        [("a", "bornIn", "p"), ("b", "bornIn", "p"), ("b", "bornIn", "q")],
    )


def test_harmonic_mean_is_subjects_over_statements():
    onto = bornin_ontology()
    r = onto.relation_id("bornIn")
    table = build_functionality_table(onto)
    assert table.fun(r) == 2 / 3
    # inverse direction: subjects are the two cities, statements are three
    assert table.fun(r ^ 1) == 2 / 3


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
    assert table.inverse_fun(r) == table.fun(r ^ 1)


def test_all_pairs_relation_is_one_over_n():
    """n subjects each liking the same n dishes: each subject has n objects."""
    for n in (2, 3, 5):
        statements = [
            (f"person{i}", "likesDish", f"dish{j}") for i in range(n) for j in range(n)
        ]
        onto = make_ontology("first", statements)
        r = onto.relation_id("likesDish")
        assert build_functionality_table(onto).fun(r) == float(Fraction(1, n))


def test_harmonic_mean_equals_exact_rationals_on_random_relations():
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
    table = build_functionality_table(onto)
    for name, stmts in specs:
        r = onto.relation_id(name)
        n_subj = len({s for s, _ in stmts})
        assert table.fun(r) == float(Fraction(n_subj, len(stmts))), r
