import gc
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ontoalign.engine import AlignmentConfig, bootstrap
from ontoalign.ntriples import load_ontology
from ontoalign.store import (
    CLASS,
    INSTANCE,
    INVERSE_MARK,
    LITERAL,
    RDF_TYPE,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
    ontology_from_triples,
)
from ontoalign.synth import generate_pair


def test_intern_is_idempotent_and_kind_stable():
    """A lexical form is one term however often it appears, and a class
    stays a class where a statement puts it in instance position."""
    onto = ontology_from_triples([
        ("x", "knows", "y"), ("y", "knows", "x"),
        ("x", RDF_TYPE, "Person"), ("x", "knows", "Person"),
    ])
    assert onto.term_count() == 3
    x, y = onto.term_id("x"), onto.term_id("y")
    r = onto.relation_id("knows")
    assert r in onto.relations_between(x, y) and r in onto.relations_between(y, x)
    assert onto.kind(x) == INSTANCE
    assert onto.kind(onto.term_id("Person")) == CLASS
    assert onto.rejected_statements == 1


def test_relations_come_in_inverse_pairs():
    onto = ontology_from_triples(
        [("a", "knows", "b"), ("b", "knows" + INVERSE_MARK, "c")]
    )
    r = onto.relation_id("knows")
    assert r ^ 1 == r + 1
    assert onto.relation_lexical(r ^ 1) == "knows" + INVERSE_MARK
    # the inverse's name reads the same relation, not a second one
    assert onto.relation_id("knows" + INVERSE_MARK) == r ^ 1
    assert list(onto.relation_ids()) == [r, r + 1]


def test_statements_are_stored_in_both_directions():
    # idempotent: the repeated triple is stored once
    onto = ontology_from_triples([("alice", "bornIn", "paris")] * 2)
    r = onto.relation_id("bornIn")
    a, p = onto.term_id("alice"), onto.term_id("paris")
    assert r in onto.relations_between(a, p)
    assert r ^ 1 in onto.relations_between(p, a)
    assert onto.statement_count() == 2


def test_subject_constraints():
    """Literals may appear as subjects only through the automatic inverse."""
    onto = ontology_from_triples(
        [('"Alice"', "label", "alice"), ("alice", "label", '"Alice"')]
    )
    r = onto.relation_id("label")
    a, lit = onto.term_id("alice"), onto.term_id('"Alice"')
    assert onto.rejected_statements == 1
    assert list(onto.rows(lit)) == [(r ^ 1, a)]


def test_classes_cannot_join_ordinary_statements():
    onto = ontology_from_triples([
        ("alice", RDF_TYPE, "Person"),
        ("alice", "at", "Person"),
        ("Person", "at", "alice"),
    ])
    assert onto.rejected_statements == 2
    assert onto.statement_count() == 0


def test_query_indexes_are_consistent():
    onto = ontology_from_triples([("a", "bornIn", "p"), ("b", "bornIn", "p")])
    r = onto.relation_id("bornIn")
    a, b, p = (onto.term_id(n) for n in ("a", "b", "p"))
    assert sorted(onto.pairs(r)) == sorted([(a, p), (b, p)])
    assert list(onto.relations_between(a, p)) == [r]
    assert list(onto.relations_between(p, a)) == [r ^ 1]


def test_schema_closure_materializes_superclass_members():
    onto = ontology_from_triples([
        ("Person", RDFS_SUBCLASSOF, "Agent"),
        ("x", RDF_TYPE, "Person"),
        ("x", RDF_TYPE, "Agent"),  # given and also derived
    ])
    person, agent, x = (onto.term_id(n) for n in ("Person", "Agent", "x"))
    assert x in onto.instances_of(agent)
    assert set(onto.classes_of(x)) == {person, agent}
    # the derived type must not duplicate the given one
    assert onto.instances_of(agent).count(x) == 1


def test_schema_closure_materializes_superproperty_statements():
    onto = ontology_from_triples([
        ("capital", RDFS_SUBPROPERTYOF, "cityOf"),
        ("berlin", "capital", "germany"),
    ])
    sup = onto.relation_id("cityOf")
    a, b = onto.term_id("berlin"), onto.term_id("germany")
    assert sup in onto.relations_between(a, b)
    assert sup ^ 1 in onto.relations_between(b, a)


def test_subclass_cycles_collapse_with_warning(caplog):
    with caplog.at_level("WARNING"):
        onto = ontology_from_triples([
            ("A", RDFS_SUBCLASSOF, "B"),
            ("B", RDFS_SUBCLASSOF, "A"),
            ("x", RDF_TYPE, "A"),
        ])
    assert onto.term_id("x") in onto.instances_of(onto.term_id("B"))
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
    assert not list(onto.pairs(onto.relation_id("likes")))


def test_from_triples_relation_wins_over_class(caplog):
    triples = [
        ("x", "P", "y"),
        ("z", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type", "P"),
    ]
    with caplog.at_level("WARNING"):
        onto = ontology_from_triples(triples)
    assert onto.relation_id("P") is not None
    assert onto.term_id("P") is None or onto.kind(onto.term_id("P")) != CLASS
    assert onto.rejected_statements == 1  # the type edge, dropped and counted


def test_from_triples_subproperty_closure():
    triples = [
        ("capital", "http://www.w3.org/2000/01/rdf-schema#subPropertyOf", "cityOf"),
        ("berlin", "capital", "germany"),
    ]
    onto = ontology_from_triples(triples)
    sup = onto.relation_id("cityOf")
    assert sup in onto.relations_between(onto.term_id("berlin"), onto.term_id("germany"))


@pytest.mark.parametrize("order", [1, -1], ids=["subject-first", "object-first"])
def test_literal_subject_is_rejected_in_either_order(order):
    triples = [('"x"', "http://p", "http://y"), ("http://a", "http://p", '"x"')][::order]
    onto = ontology_from_triples(triples)
    assert onto.rejected_statements == 1
    lit, a = onto.term_id('"x"'), onto.term_id("http://a")
    assert onto.kind(lit) == LITERAL
    assert onto.statement_count() == 2
    assert list(onto.rows(lit)) == [(onto.relation_id("http://p") ^ 1, a)]


def test_type_edge_from_a_literal_is_dropped():
    onto = ontology_from_triples([("http://a", "http://p", '"x"'),
                                  ('"x"', RDF_TYPE, "http://C")])
    lit = onto.term_id('"x"')
    assert onto.kind(lit) == LITERAL
    assert onto.classes_of(lit) == ()
    assert onto.instances_of(onto.term_id("http://C")) == ()
    assert onto.rejected_statements == 1  # dropped and counted like other bad type edges


def test_every_dropped_type_edge_is_counted():
    """A type edge is dropped and counted when its object is a literal or a
    relation, or its subject a literal, a class or a relation; only the
    well-formed edge is kept."""
    triples = [
        ("http://a", RDF_TYPE, '"lit"'),
        ("http://a", RDF_TYPE, "http://p"),
        ('"x"', RDF_TYPE, "http://C"),
        ("http://D", RDF_TYPE, "http://C"),
        ("http://p", RDF_TYPE, "http://C"),
        ("http://b", "http://p", "http://c"),
        ("http://a", RDF_TYPE, "http://D"),
    ]
    onto = ontology_from_triples(triples)
    assert onto.rejected_statements == 5
    a, c = onto.term_id("http://a"), onto.term_id("http://C")
    assert onto.classes_of(a) == (onto.term_id("http://D"),)
    assert onto.instances_of(c) == ()


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
@example(  # a cycle through "r0⁻¹": copying copies again wrote 180 288 statements
    plain=[("e0", "r0", "e0")] * 3,
    subprops=[("r0", "r0"), ("r1", "r2"), ("r2", "r0"), ("r0" + INVERSE_MARK, "r1")],
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
            expected.add((oid, sup ^ 1, sid))

    assert onto.statement_count() == len(expected)
    terms = range(onto.term_count())
    for s in terms:
        for o in terms:
            for r in onto.relation_ids():
                assert (r in onto.relations_between(s, o)) == ((s, r, o) in expected)
    from_subject = [(s, r, o) for s in terms for r, o in onto.rows(s)]
    from_relation = [(s, r, o) for r in onto.relation_ids() for s, o in onto.pairs(r)]
    from_pairs = [(s, r, o) for s in terms for o in terms
                  for r in onto.relations_between(s, o)]
    for listed in (from_subject, from_relation, from_pairs):
        assert sorted(listed) == sorted(expected)
    # the relation sweep scores each relation's inverse from this mirror
    for r in onto.relation_ids():
        mirrored = [(o, s) for s, o in onto.pairs(r)]
        assert list(onto.pairs(r ^ 1)) == mirrored


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
    """Almost every pair of terms has one relation between them. Reading it,
    from either end, returns one tuple per relation, shared by every such
    statement, not one per call."""
    generate_pair(tmp_path, instances=400, seed=1)
    for name in ("left.nt", "right.nt"):
        onto = load_ontology(tmp_path / name)
        objects: dict[int, set[int]] = {}
        for r in onto.relation_ids():
            for s, o in onto.pairs(r):
                for rels in (onto.relations_between(s, o), onto.relations_between(o, s)):
                    if len(rels) == 1:
                        objects.setdefault(rels[0], set()).add(id(rels))
        assert len(objects) > 2
        assert all(len(ids) == 1 for ids in objects.values())


def test_store_keeps_few_bytes_per_statement(tmp_path):
    """The statements live in flat columns of shared ints and shared
    relation tuples, the load keeps no list of string triples, the terms'
    lexical forms live in one UTF-8 buffer, and no lexical index of the
    terms stays resident: per inverse-closed statement the store holds about
    91 bytes, terms included, and loading it peaks at about 99. With a
    string per term it held 127 and peaked at 143; with a resident term
    index and a relation tuple per term it held 141 and peaked at 154; the
    row-tuple store with its pair dict held 302 and peaked at 509."""
    generate_pair(tmp_path, instances=400, seed=1)
    gc.collect()
    tracemalloc.start()
    try:
        onto = load_ontology(tmp_path / "left.nt")
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    statements = onto.statement_count()
    assert live / statements < 114
    assert peak / statements < 124


def test_equal_relation_and_class_sequences_share_one_tuple(tmp_path):
    """Terms with equal relation sequences hold one tuple object, a
    single-row term holds the (r,) that relations_between returns,
    single-row terms with the same object hold one (o,), and instances with
    equal class sequences share their class tuple."""
    generate_pair(tmp_path, instances=400, seed=1)
    for name in ("left.nt", "right.nt"):
        onto = load_ontology(tmp_path / name)
        by_value: dict[tuple[int, ...], set[int]] = {}
        for rels in onto.subject_relations:
            by_value.setdefault(rels, set()).add(id(rels))
        assert len(by_value) < len(onto.subject_relations) / 10
        assert all(len(ids) == 1 for ids in by_value.values())
        singles = 0
        one_row: dict[int, set[int]] = {}
        for s, rels in enumerate(onto.subject_relations):
            if len(rels) == 1:
                objs = onto.subject_objects[s]
                assert rels is onto.relations_between(s, objs[0])
                one_row.setdefault(objs[0], set()).add(id(objs))
                singles += 1
        assert singles > len(one_row) > 0
        assert all(len(ids) == 1 for ids in one_row.values())
        classes: dict[tuple[int, ...], set[int]] = {}
        for x in onto.instances():
            cs = onto.classes_of(x)
            classes.setdefault(cs, set()).add(id(cs))
        assert len(classes) > 1
        assert all(len(ids) == 1 for ids in classes.values())


def test_every_term_id_is_one_int_object(tmp_path):
    """The term lists hand out the int objects the columns and the type
    tuples hold, and the literal seeds keep those objects rather than equal
    copies."""
    generate_pair(tmp_path, instances=400, seed=1)
    o1, o2 = (load_ontology(tmp_path / name) for name in ("left.nt", "right.nt"))
    objects = []
    for onto in (o1, o2):
        listed = onto.instances() + onto.literals() + onto.classes()
        assert sorted(listed) == list(range(onto.term_count()))
        by_id = {t: t for t in listed}
        objects.append(by_id)
        slots = [t for objs in onto.subject_objects for t in objs]
        slots += [t for ts in onto.relation_subjects for t in ts]
        slots += [c for x in onto.instances() for c in onto.classes_of(x)]
        assert len(slots) > onto.term_count() > 256
        assert all(t is by_id[t] for t in slots)
    state = bootstrap(o1, o2, AlignmentConfig(negative_evidence=True))
    for parts_of, partners in ((state.literals.left_sorted, objects[1]),
                               (state.literals.right_sorted, objects[0])):
        seeded = [b for parts in parts_of for b, _ in parts]
        assert len(seeded) > 256
        assert all(b is partners[b] for b in seeded)
    # classes take the first ids, so ids above the small-int cache need many
    many = ontology_from_triples((f"x{i}", RDF_TYPE, f"C{i}") for i in range(300))
    by_id = {c: c for c in many.classes()}
    assert len(by_id) == 300
    assert all(c is by_id[c] for x in many.instances() for c in many.classes_of(x))


def test_term_id_finds_every_term_by_its_lexical_form(tmp_path):
    """The lexical index is built on the first lookup; it maps every term
    back to its id, and a form that names no term to None."""
    generate_pair(tmp_path, instances=40, seed=1)
    onto = load_ontology(tmp_path / "left.nt")
    assert onto.term_count() > 0
    for t in range(onto.term_count()):
        assert onto.term_id(onto.lexical(t)) == t
    assert onto.term_id("http://nowhere.example/none") is None
    assert onto.term_id(onto.relation_lexical(0)) is None


_HUB_SUBJECTS = tuple(f"h{i}" for i in range(1_000))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(_ENTITIES + _HUB_SUBJECTS[:2]),
                       st.sampled_from(_RELATIONS),
                       st.sampled_from(_OBJECTS + ('"true"',))), max_size=25),
    st.lists(st.tuples(st.sampled_from(_RELATIONS), st.sampled_from(_RELATIONS)),
             max_size=3),
)
@example(  # two relations on one pair, from both ends, one of them via the hub
    plain=[("e0", "r0", "e1"), ("e0", "r1", "e1"), ("e1", "r2", "e0"),
           ("e0", "active", '"true"'), ("e0", "r3", '"true"'), ("e0", "r0", "e1")],
    subprops=[],
)
@example(
    plain=[("e0", "r0", "e1"), ("e2", "r1", '"true"'), ("e1", "r2", "e0")],
    subprops=[("r0", "r1"), ("r1", "r2"), ("r2", "r3")],
)
def test_relations_between_matches_brute_force_on_a_skewed_world(plain, subprops):
    """relations_between scans the shorter of two terms' columns. A hub
    object with a thousand subjects makes one side long; both argument
    orders must read the relations a brute-force insertion log gives, in
    insertion order."""
    hub = [(h, "active", '"true"') for h in _HUB_SUBJECTS]
    triples = hub + plain + [(a, RDFS_SUBPROPERTYOF, b) for a, b in subprops]
    onto = ontology_from_triples(triples)
    assert len(onto.subject_objects[onto.term_id('"true"')]) >= 1_000
    rid = onto.relation_id
    # r below s puts r's inverse below s's inverse
    edges = [(rid(a), rid(b)) for a, b in subprops]
    edges += [(a ^ 1, b ^ 1) for a, b in edges]
    above = {r: {r} for r in onto.relation_ids()}
    for _ in above:  # enough rounds to follow the longest chain
        for a, b in edges:
            for r in above:
                if a in above[r]:
                    above[r].add(b)
    between: dict[tuple[int, int], list[int]] = {}  # in insertion order

    def insert(s, r, o):
        if r not in between.setdefault((s, o), []):
            between[(s, o)].append(r)

    for s, r, o in hub + plain:
        sid, oid = onto.term_id(s), onto.term_id(o)
        insert(sid, rid(r), oid)
        insert(oid, rid(r) ^ 1, sid)
    closed = {key: set(rels) for key, rels in between.items()}
    for (s, o), rels in between.items():
        for r in rels:
            closed[(s, o)].update(above[r])

    names = set(_ENTITIES + _OBJECTS + _HUB_SUBJECTS[:3]) | {'"true"'}
    terms = [t for t in map(onto.term_id, sorted(names)) if t is not None]
    for s in terms:
        for o in terms:
            got = onto.relations_between(s, o)
            assert set(got) == closed.get((s, o), set())
            # the direct statements come first, in insertion order
            direct = between.get((s, o), [])
            assert list(got[:len(direct)]) == direct
            assert got == tuple(r for r, x in onto.rows(s) if x == o)


_CLASSES = ("C0", "C1", "C2")


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(_ENTITIES), st.sampled_from(("r0", "r1")),
                       st.sampled_from(_OBJECTS)), max_size=20),
    st.lists(st.tuples(st.sampled_from(_ENTITIES), st.sampled_from(_CLASSES)),
             max_size=12),
    st.lists(st.tuples(st.sampled_from(_CLASSES), st.sampled_from(_CLASSES)),
             max_size=3),
)
# different given classes, closed to the same sequence
@example(statements=[], types=[("e0", "C0"), ("e1", "C0"), ("e1", "C1")],
         subclasses=[("C0", "C1")])
def test_reads_see_every_insert_in_insertion_order(statements, types, subclasses):
    """rows, classes_of and instances_of hold each statement and type once,
    in input order. The
    types the subclass closure derives come after an instance's given ones,
    and after a class's given members, in order of the instances' first
    type edge. Instances with equal class sequences hold one tuple, also
    when their given classes differ."""
    onto = ontology_from_triples(
        statements
        + [(a, RDFS_SUBCLASSOF, b) for a, b in subclasses]
        + [(x, RDF_TYPE, c) for x, c in types]
    )
    tid = onto.term_id
    rows: dict[int, list[tuple[int, int]]] = {}

    def log_statement(s, r, o):
        if (r, o) not in rows.setdefault(s, []):
            rows[s].append((r, o))

    for s, r, o in statements:
        rid = onto.relation_id(r)
        log_statement(tid(s), rid, tid(o))
        log_statement(tid(o), rid ^ 1, tid(s))
    for t in range(onto.term_count()):
        assert list(onto.rows(t)) == rows.get(t, [])

    above = {c: set() for c in _CLASSES}  # classes reachable over >= 1 edge
    for _ in _CLASSES:  # enough rounds to follow the longest chain
        for a, b in subclasses:
            above[a] |= {b} | above[b]
    given: dict[str, list[str]] = {}
    members: dict[str, list[str]] = {}
    for x, c in types:
        if c not in given.setdefault(x, []):
            given[x].append(c)
            members.setdefault(c, []).append(x)
    derived = {x: set().union(*(above[c] for c in cs)) - set(cs) for x, cs in given.items()}
    for x, ds in derived.items():  # instances in order of their first type edge
        for d in ds:
            members.setdefault(d, []).append(x)

    classes_of = {tid(x): cs for x, cs in given.items()}
    for t in range(onto.term_count()):
        listed = onto.classes_of(t)
        if t in classes_of:
            x = onto.lexical(t)
            n = len(given[x])
            assert listed[:n] == tuple(map(tid, given[x]))
            assert sorted(listed[n:]) == sorted(map(tid, derived[x]))
        else:
            assert listed == ()
        names = members.get(onto.lexical(t), ()) if onto.kind(t) == CLASS else ()
        assert onto.instances_of(t) == tuple(map(tid, names))
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    for x in onto.instances():
        classes = onto.classes_of(x)
        assert shared.setdefault(classes, classes) is classes
