import gc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ontoalign.cli import generate_pair
from ontoalign.ntriples import load_ontology
from ontoalign.store import (
    CLASS,
    INSTANCE,
    INVERSE_MARK,
    LITERAL,
    RDF_TYPE,
    RDFS_SUBPROPERTYOF,
    Ontology,
    ontology_from_triples,
)


def test_intern_is_idempotent_and_kind_stable():
    onto = Ontology("first")
    a = onto.intern_term("x", INSTANCE)
    assert onto.intern_term("x", INSTANCE) == a
    with pytest.raises(ValueError):
        onto.intern_term("x", LITERAL)


def test_relations_come_in_inverse_pairs():
    onto = Ontology("first")
    r = onto.intern_relation("knows")
    assert onto.inverse(r) == r + 1
    assert onto.inverse(onto.inverse(r)) == r
    assert onto.relation_lexical(onto.inverse(r)) == "knows" + INVERSE_MARK
    # interning again returns the same base id
    assert onto.intern_relation("knows") == r


def test_statements_are_stored_in_both_directions():
    onto = Ontology("first")
    r = onto.intern_relation("bornIn")
    a = onto.intern_term("alice", INSTANCE)
    p = onto.intern_term("paris", INSTANCE)
    onto.add_statement(a, r, p)
    assert onto.has_statement(a, r, p)
    assert onto.has_statement(p, onto.inverse(r), a)
    assert onto.statement_count() == 2
    # idempotent
    onto.add_statement(a, r, p)
    assert onto.statement_count() == 2


def test_subject_constraints():
    """Literals may appear as subjects only through the automatic inverse."""
    onto = Ontology("first")
    r = onto.intern_relation("label")
    a = onto.intern_term("alice", INSTANCE)
    lit = onto.intern_term('"Alice"', LITERAL)
    with pytest.raises(ValueError):
        onto.add_statement(lit, r, a)
    onto.add_statement(a, r, lit)
    assert onto.by_subject[lit] == ((onto.inverse(r), a),)


def test_classes_cannot_join_ordinary_statements():
    onto = Ontology("first")
    r = onto.intern_relation("at")
    a = onto.intern_term("alice", INSTANCE)
    c = onto.intern_term("Person", CLASS)
    with pytest.raises(ValueError):
        onto.add_statement(a, r, c)
    with pytest.raises(ValueError):
        onto.add_statement(c, r, a)


def test_query_indexes_are_consistent():
    onto = Ontology("first")
    r = onto.intern_relation("bornIn")
    a = onto.intern_term("a", INSTANCE)
    b = onto.intern_term("b", INSTANCE)
    p = onto.intern_term("p", INSTANCE)
    onto.add_statement(a, r, p)
    onto.add_statement(b, r, p)
    assert sorted(onto.by_relation[r]) == sorted([(a, p), (b, p)])
    assert list(onto.relations_between(a, p)) == [r]
    assert list(onto.relations_between(p, a)) == [onto.inverse(r)]


def test_schema_closure_materializes_superclass_members():
    onto = Ontology("first")
    person = onto.intern_term("Person", CLASS)
    agent = onto.intern_term("Agent", CLASS)
    onto.add_subclass(person, agent)
    x = onto.intern_term("x", INSTANCE)
    onto.add_type(x, person)
    onto.close_under_schema()
    assert x in onto.instances_of(agent)
    assert set(onto.classes_of(x)) == {person, agent}
    # calling again must not duplicate anything
    onto.close_under_schema()
    assert onto.instances_of(agent).count(x) == 1


def test_schema_closure_materializes_superproperty_statements():
    onto = Ontology("first")
    sub = onto.intern_relation("capital")
    sup = onto.intern_relation("cityOf")
    onto.add_subproperty(sub, sup)
    a = onto.intern_term("berlin", INSTANCE)
    b = onto.intern_term("germany", INSTANCE)
    onto.add_statement(a, sub, b)
    onto.close_under_schema()
    assert onto.has_statement(a, sup, b)
    assert onto.has_statement(b, onto.inverse(sup), a)


def test_subclass_cycles_collapse_with_warning(caplog):
    onto = Ontology("first")
    c1 = onto.intern_term("A", CLASS)
    c2 = onto.intern_term("B", CLASS)
    onto.add_subclass(c1, c2)
    onto.add_subclass(c2, c1)
    x = onto.intern_term("x", INSTANCE)
    onto.add_type(x, c1)
    with caplog.at_level("WARNING"):
        onto.close_under_schema()
    assert x in onto.instances_of(c2)
    assert any("cycle" in r.message.lower() for r in caplog.records)


def test_from_triples_basic_partition():
    triples = [
        ("alice", "label", '"Alice"'),
        ("alice", "bornIn", "paris"),
        ("alice", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type", "Person"),
        ("Person", "http://www.w3.org/2000/01/rdf-schema#subClassOf", "Agent"),
    ]
    onto = ontology_from_triples(triples)
    assert onto.kind(onto.term_id("alice")) == INSTANCE
    assert onto.kind(onto.term_id('"Alice"')) == LITERAL
    assert onto.kind(onto.term_id("Person")) == CLASS
    assert onto.relation_id("bornIn") is not None
    # type/subclass edges are schema, not ordinary statements
    assert onto.statement_count() == 4  # label + bornIn, each with inverse
    agent = onto.term_id("Agent")
    assert onto.term_id("alice") in onto.instances_of(agent)


def test_from_triples_rejects_statements_on_schema_terms():
    """A term used as a class cannot also be a statement object."""
    triples = [
        ("x", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type", "Person"),
        ("x", "likes", "Person"),
    ]
    onto = ontology_from_triples(triples)
    assert onto.rejected_statements == 1
    assert not onto.by_relation.get(onto.relation_id("likes"))


def test_from_triples_relation_wins_over_class(caplog):
    triples = [
        ("x", "P", "y"),
        ("z", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type", "P"),
    ]
    with caplog.at_level("WARNING"):
        onto = ontology_from_triples(triples)
    assert onto.relation_id("P") is not None
    assert onto.term_id("P") is None or onto.kind(onto.term_id("P")) != CLASS
    assert onto.rejected_statements == 0  # the type edge is dropped, not a statement


def test_from_triples_subproperty_closure():
    triples = [
        ("capital", "http://www.w3.org/2000/01/rdf-schema#subPropertyOf", "cityOf"),
        ("berlin", "capital", "germany"),
    ]
    onto = ontology_from_triples(triples)
    sup = onto.relation_id("cityOf")
    assert onto.has_statement(onto.term_id("berlin"), sup, onto.term_id("germany"))


@pytest.mark.parametrize("order", [1, -1], ids=["subject-first", "object-first"])
def test_literal_subject_is_rejected_in_either_order(order):
    triples = [('"x"', "http://p", "http://y"), ("http://a", "http://p", '"x"')][::order]
    onto = ontology_from_triples(triples)
    assert onto.rejected_statements == 1
    lit, a = onto.term_id('"x"'), onto.term_id("http://a")
    assert onto.kind(lit) == LITERAL
    assert onto.statement_count() == 2
    assert onto.by_subject[lit] == ((onto.inverse(onto.relation_id("http://p")), a),)


def test_type_edge_from_a_literal_is_dropped():
    onto = ontology_from_triples([("http://a", "http://p", '"x"'),
                                  ('"x"', RDF_TYPE, "http://C")])
    lit = onto.term_id('"x"')
    assert onto.kind(lit) == LITERAL
    assert onto.classes_of(lit) == ()
    assert onto.instances_of(onto.term_id("http://C")) == ()
    assert onto.rejected_statements == 0  # dropped like other bad type edges


def test_literal_subproperty_endpoint_is_rejected():
    """A literal at either end of a subPropertyOf edge names no relation and
    copies no statement."""
    data = [("http://a", "http://p", "http://b"), ("http://a", "http://q", '"v"')]
    plain = ontology_from_triples(data)
    onto = ontology_from_triples(
        data + [("http://p", RDFS_SUBPROPERTYOF, '"lit"'),
                ('"lit"', RDFS_SUBPROPERTYOF, "http://q")]
    )
    def names(o):
        return [o.relation_lexical(r) for r in o.relation_ids()]
    assert names(onto) == names(plain)
    assert onto.statement_count() == plain.statement_count()
    assert onto.rejected_statements == 2


def test_inverse_subproperty_edges_follow_base_edges():
    onto = Ontology("first")
    sub = onto.intern_relation("capital")
    sup = onto.intern_relation("cityOf")
    onto.add_subproperty(sub, sup)
    assert onto.inverse(sup) in onto.subproperty_edges.get(onto.inverse(sub), set())


_ENTITIES = ("e0", "e1", "e2", "e3")
_OBJECTS = _ENTITIES + ('"v0"', '"v1"')
# "r0⁻¹" names the inverse the store interns alongside r0
_RELATIONS = ("r0", "r1", "r2", "r3", "r0" + INVERSE_MARK)


@given(
    st.lists(st.tuples(st.sampled_from(_ENTITIES), st.sampled_from(_RELATIONS),
                       st.sampled_from(_OBJECTS)), max_size=30),
    st.lists(st.tuples(st.sampled_from(_RELATIONS), st.sampled_from(_RELATIONS)),
             max_size=4),
)
@example(  # a duplicate, a statement through "r0⁻¹", a chain through it
    plain=[("e0", "r0", "e1"), ("e2", "r1", '"v0"'), ("e0", "r0", "e1"),
           ("e1", "r0" + INVERSE_MARK, "e3"), ("e3", "r0" + INVERSE_MARK, "e0")],
    subprops=[("r0" + INVERSE_MARK, "r1"), ("r1", "r2"), ("r2", "r3")],
)
def test_store_matches_brute_force_statement_set(plain, subprops):
    """Every index holds each inverse-closed statement exactly once, and each
    relation's statements are its inverse's, transposed, in the same order."""
    triples = plain + [(a, RDFS_SUBPROPERTYOF, b) for a, b in subprops]
    onto = ontology_from_triples(triples)
    rid = {name: onto.relation_id(name) for name in _RELATIONS}
    # r below s puts r's inverse below s's inverse
    edges = [(rid[a], rid[b]) for a, b in subprops]
    edges += [(a ^ 1, b ^ 1) for a, b in edges]
    above = {r: {r} for r in onto.relation_ids()}
    for _ in above:  # enough rounds to follow the longest chain
        for a, b in edges:
            for r in above:
                if a in above[r]:
                    above[r].add(b)
    expected = set()
    for s, r, o in plain:
        sid, oid = onto.term_id(s), onto.term_id(o)
        for sup in above[rid[r]]:
            expected.add((sid, sup, oid))
            expected.add((oid, onto.inverse(sup), sid))

    assert onto.statement_count() == len(expected)
    terms = range(onto.term_count())
    for s in terms:
        for o in terms:
            for r in onto.relation_ids():
                assert onto.has_statement(s, r, o) == ((s, r, o) in expected)
    from_subject = [(s, r, o) for s, rows in onto.by_subject.items() for r, o in rows]
    from_relation = [(s, r, o) for r, rows in onto.by_relation.items() for s, o in rows]
    from_pairs = [(s, r, o) for s in terms for o in terms
                  for r in onto.relations_between(s, o)]
    for listed in (from_subject, from_relation, from_pairs):
        assert sorted(listed) == sorted(expected)
    # the relation sweep scores each relation's inverse from this mirror
    for r in onto.relation_ids():
        mirrored = [(o, s) for s, o in onto.by_relation.get(r, [])]
        assert onto.by_relation.get(r ^ 1, []) == mirrored


def test_store_tracks_few_objects_per_statement(tmp_path):
    """A list or set per statement would put every statement in front of the
    cyclic garbage collector; the indexes keep one container per term or
    relation, and tuples of ints that the collector stops tracking."""
    generate_pair(tmp_path, instances=40, seed=1)
    gc.collect()
    before = len(gc.get_objects())
    sides = [load_ontology(tmp_path / name) for name in ("left.nt", "right.nt")]
    gc.collect()
    tracked = len(gc.get_objects()) - before
    assert tracked <= sum(onto.statement_count() for onto in sides)


def test_tracked_objects_do_not_grow_with_the_ontology(tmp_path):
    """Each term's statements and types are one tuple of tuples that the
    collector stops tracking, so ten times the persons leaves about as many
    tracked objects behind: a list per term would add thousands."""
    def tracked_after_load(persons):
        generate_pair(tmp_path / str(persons), instances=persons, seed=1)
        gc.collect()
        before = len(gc.get_objects())
        sides = [load_ontology(tmp_path / str(persons) / name)
                 for name in ("left.nt", "right.nt")]
        gc.collect()
        assert all(onto.statement_count() for onto in sides)
        return len(gc.get_objects()) - before

    small = tracked_after_load(40)
    assert tracked_after_load(400) <= small + 50


def test_single_relation_pairs_share_one_tuple_per_relation(tmp_path):
    """Almost every pair of terms has one relation between them. Its tuple is
    one object per relation, shared by every such statement, not one per
    statement."""
    generate_pair(tmp_path, instances=400, seed=1)
    for name in ("left.nt", "right.nt"):
        onto = load_ontology(tmp_path / name)
        objects: dict[int, set[int]] = {}
        for r in onto.relation_ids():
            for s, o in onto.by_relation.get(r, ()):
                rels = onto.relations_between(s, o)
                if len(rels) == 1:
                    objects.setdefault(rels[0], set()).add(id(rels))
        assert len(objects) > 2
        assert all(len(ids) == 1 for ids in objects.values())


_INCREMENTS = st.lists(
    st.one_of(
        st.tuples(st.just("statement"), st.integers(0, 3), st.integers(0, 1),
                  st.integers(0, 5)),
        st.tuples(st.just("type"), st.integers(0, 3), st.integers(0, 2)),
        st.just(("read",)),
    ),
    max_size=30,
)


@settings(max_examples=80, deadline=None)
@given(_INCREMENTS)
def test_reads_see_every_insert_in_insertion_order(ops):
    """Reads between inserts, and after closing, see each statement and type
    once, in insertion order, with subjects in order of first appearance."""
    onto = Ontology("first")
    instances = [onto.intern_term(f"e{i}", INSTANCE) for i in range(4)]
    objects = instances + [onto.intern_term(f'"v{i}"', LITERAL) for i in range(2)]
    relations = [onto.intern_relation(f"r{i}") for i in range(2)]
    classes = [onto.intern_term(f"C{i}", CLASS) for i in range(3)]
    # brute-force logs in insertion order
    rows: dict[int, list[tuple[int, int]]] = {}
    types: dict[int, list[int]] = {}
    members: dict[int, list[int]] = {}

    def log_statement(s, r, o):
        if (r, o) not in rows.setdefault(s, []):
            rows[s].append((r, o))

    def check():
        assert list(onto.by_subject.items()) == [(s, tuple(v)) for s, v in rows.items()]
        for t in range(onto.term_count()):
            assert onto.classes_of(t) == tuple(types.get(t, ()))
            assert onto.instances_of(t) == tuple(members.get(t, ()))

    for op in ops:
        if op[0] == "statement":
            s, r, o = instances[op[1]], relations[op[2]], objects[op[3]]
            onto.add_statement(s, r, o)
            log_statement(s, r, o)
            log_statement(o, r ^ 1, s)
        elif op[0] == "type":
            x, c = instances[op[1]], classes[op[2]]
            onto.add_type(x, c)
            if c not in types.setdefault(x, []):
                types[x].append(c)
                members.setdefault(c, []).append(x)
        else:
            check()
    check()
    onto.close_under_schema()
    check()
