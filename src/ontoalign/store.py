"""Indexed in-memory store for one RDFS ontology.

An ontology is built once, by :func:`ontology_from_triples` (which the
N-Triples loader calls on the parsed files), and is read-only afterwards:
:class:`Ontology` has query methods only.

Terms (instances, literals, classes) and relations are interned to dense
integer ids. Every relation has a materialized inverse, and every statement
is stored together with its inverse statement, so traversals can walk from
any term over all incident edges by looking only at subject-indexed
statements. Type edges (rdf:type) live in dedicated indexes, not in the
general statement store: class alignment consumes them separately and they
carry no functionality semantics. Schema edges (rdfs:subClassOf,
rdfs:subPropertyOf) are applied during the build, as extra type edges and
statements, and are not kept.

Each inverse-closed statement s r o is held in exactly three indexes:

- ``by_subject[s]`` is the tuple of s's ``(r, o)`` rows, in insertion
  order. The instance sweep (penalties included), the one-pair operation
  and local functionality walk it.
- ``by_relation[r]`` is the list of r's ``(s, o)`` keys, in insertion order.
  Global functionality, the relation sweep and the ``functionality``
  command read it.
- ``_pair_rels[(s, o)]`` is the tuple of relations between s and o, in
  insertion order. It deduplicates statements and answers
  :meth:`Ontology.has_statement` and :meth:`Ontology.relations_between`,
  which returns that tuple itself; the instance and relation sweeps call
  the latter. Almost every pair has one relation r, and its tuple ``(r,)``
  is one object per relation, shared by all of r's statements; only a
  second relation between the same two terms makes a tuple of its own.

Types are held per instance and per class: :meth:`Ontology.classes_of` and
:meth:`Ontology.instances_of` return tuples, in insertion order, with the
types the subclass closure derives after the given ones. A type edge given
twice, or given and also derived, is kept once, at its first occurrence.

Term kinds are one list indexed by term id. :meth:`Ontology.kind` reads one
entry; :meth:`Ontology.kinds` returns a read-only copy of the whole list,
for the engine's loops that check a kind per candidate.

Every container per statement or per term is a tuple of ints or of tuples
of ints, because the cyclic garbage collector stops tracking those; only
the few per-relation lists stay lists. A list per term, grown by one append
per insert, would keep about 120 000 lists after loading two 10k-person
ontologies, and every full collection, during the load and in each later
pass, would walk them all. So the build writes each insert to flat logs in
insertion order, and a stable grouping turns the logs into the per-term
tuples.
"""

from __future__ import annotations

import logging
from itertools import groupby
from typing import Iterable

log = logging.getLogger("ontoalign.store")

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDFS_SUBCLASSOF = "http://www.w3.org/2000/01/rdf-schema#subClassOf"
RDFS_SUBPROPERTYOF = "http://www.w3.org/2000/01/rdf-schema#subPropertyOf"

INSTANCE = "instance"
LITERAL = "literal"
CLASS = "class"

INVERSE_MARK = "⁻¹"  # superscript -1, appended to inverse relation names


class Ontology:
    """One ontology: interned terms, inverse-closed statements, type indexes.

    Build with :func:`ontology_from_triples` (or the N-Triples loader on top
    of it); every method reads, none changes the store.
    """

    def __init__(self, origin: str):
        self.origin = origin
        # term tables: instances, literals, classes share one id space
        self._term_id: dict[str, int] = {}
        self._term_lex: list[str] = []
        self._term_kind: list[str] = []
        # relation table: separate id space; ids 2k / 2k+1 are mutual inverses
        self._rel_id: dict[str, int] = {}
        self._rel_lex: list[str] = []
        # statements, stored in both directions (see the module docstring);
        # by_subject maps a subject to its (relation, object) rows
        self.by_subject: dict[int, tuple[tuple[int, int], ...]] = {}
        self.by_relation: dict[int, list[tuple[int, int]]] = {}
        self._pair_rels: dict[tuple[int, int], tuple[int, ...]] = {}
        # types
        self._types_of: dict[int, tuple[int, ...]] = {}  # instance -> classes
        self._instances_of: dict[int, tuple[int, ...]] = {}  # class -> instances
        self.rejected_statements = 0

    # ------------------------------------------------------------------ terms

    def term_id(self, lexical: str) -> int | None:
        return self._term_id.get(lexical)

    def kind(self, tid: int) -> str:
        return self._term_kind[tid]

    def kinds(self) -> tuple[str, ...]:
        """Every term's kind, indexed by term id: a read-only copy, for
        loops that check many kinds."""
        return tuple(self._term_kind)

    def lexical(self, tid: int) -> str:
        return self._term_lex[tid]

    def relation_id(self, lexical: str) -> int | None:
        return self._rel_id.get(lexical)

    def relation_lexical(self, rid: int) -> str:
        return self._rel_lex[rid]

    def inverse(self, rid: int) -> int:
        # inverses are allocated as adjacent id pairs
        return rid ^ 1

    def term_count(self) -> int:
        return len(self._term_lex)

    def relation_ids(self) -> range:
        return range(len(self._rel_lex))

    def instances(self) -> list[int]:
        return [t for t, k in enumerate(self._term_kind) if k == INSTANCE]

    def literals(self) -> list[int]:
        return [t for t, k in enumerate(self._term_kind) if k == LITERAL]

    def classes(self) -> list[int]:
        return [t for t, k in enumerate(self._term_kind) if k == CLASS]

    # ------------------------------------------------------------- statements

    def statement_count(self) -> int:
        return sum(map(len, self.by_relation.values()))

    def has_statement(self, s: int, r: int, o: int) -> bool:
        return r in self._pair_rels.get((s, o), ())

    def relations_between(self, subject: int, obj: int) -> tuple[int, ...]:
        return self._pair_rels.get((subject, obj), ())

    # ------------------------------------------------------------------ types

    def classes_of(self, instance: int) -> tuple[int, ...]:
        return self._types_of.get(instance, ())

    def instances_of(self, cls: int) -> tuple[int, ...]:
        return self._instances_of.get(cls, ())


def ontology_from_triples(
    triples: Iterable[tuple[str, str, str]],
    origin: str = "first",
) -> Ontology:
    """Build a schema-closed ontology from lexical triples.

    A lexical form that starts with a double quote is a literal; everything
    else is a resource. Term kinds are decided in a first pass: predicates
    and subPropertyOf endpoints are relations, rdf:type objects and
    subClassOf endpoints are classes, the rest are instances. Ordinary
    statements that would use a class or relation as subject/object are
    rejected and counted (the class/relation reading wins over instancehood),
    and so are statements with a literal subject. A literal is never a class
    or a relation: a type edge to or from one is dropped, and a subClassOf or
    subPropertyOf edge with one at either end is rejected and counted.

    The subclass and subproperty edges are then closed transitively: each
    instance gets the superclasses of its classes, and each statement is
    repeated under every superproperty of its relation. Cycles collapse into
    mutual containment (each member inherits every other member's
    extension) and are logged.
    """
    plain: list[tuple[str, str, str]] = []
    type_edges: list[tuple[str, str]] = []
    subclass: list[tuple[str, str]] = []
    subprop: list[tuple[str, str]] = []
    class_lex: set[str] = set()
    rel_lex: set[str] = set()

    for triple in triples:
        s, p, o = triple
        if p == RDF_TYPE:
            type_edges.append((s, o))
            if not o.startswith('"'):
                class_lex.add(o)
        elif p == RDFS_SUBCLASSOF:
            subclass.append((s, o))
            class_lex.update(t for t in (s, o) if not t.startswith('"'))
        elif p == RDFS_SUBPROPERTYOF:
            subprop.append((s, o))
            rel_lex.update(t for t in (s, o) if not t.startswith('"'))
        else:
            plain.append(triple)
            rel_lex.add(p)

    overlap = class_lex & rel_lex
    for lex in sorted(overlap):
        log.warning("%r used both as class and relation; treating as relation", lex)
    class_lex -= rel_lex

    onto = Ontology(origin)
    term_id, term_lex, term_kind = onto._term_id, onto._term_lex, onto._term_kind
    rel_id, pair_rels, by_relation = onto._rel_id, onto._pair_rels, onto.by_relation

    def intern(lex: str, kind: str) -> int:
        tid = term_id.get(lex)
        if tid is None:
            tid = term_id[lex] = len(term_lex)
            term_lex.append(lex)
            term_kind.append(kind)
        return tid

    single: list[tuple[int]] = []  # (r,) per relation r, shared
    for lex in sorted(rel_lex):
        if lex in rel_id:  # names the inverse of a relation already interned
            continue
        rid = len(onto._rel_lex)
        rel_id[lex], rel_id[lex + INVERSE_MARK] = rid, rid + 1
        onto._rel_lex += [lex, lex + INVERSE_MARK]
        single += [(rid,), (rid + 1,)]
    for lex in sorted(class_lex):
        intern(lex, CLASS)
    schema_lex = class_lex | rel_lex

    def resource_id(lex: str) -> int | None:
        # relations, classes and literals cannot be instances
        if lex in schema_lex or lex.startswith('"'):
            return None
        return intern(lex, INSTANCE)

    # inserts, in insertion order, until they are grouped per subject
    subject_log: list[int] = []
    row_log: list[tuple[int, int]] = []

    def insert(s: int, r: int, o: int) -> None:
        key = (s, o)
        rels = pair_rels.get(key)
        if rels is None:
            pair_rels[key] = single[r]
        elif r in rels:
            return
        else:
            # rare: a second relation between the same two terms
            pair_rels[key] = rels + (r,)
        subject_log.append(s)
        row_log.append((r, o))
        by_relation.setdefault(r, []).append(key)

    # A term the store already holds is looked up by lexical form and kept if
    # its kind fits the position; only a term's first sight interns it.
    known = term_id.get
    for s, p, o in plain:
        sid = known(s)
        if sid is None:
            sid = resource_id(s)
        elif term_kind[sid] != INSTANCE:  # a class or a literal
            sid = None
        oid = known(o)
        if oid is None:
            oid = intern(o, LITERAL) if o.startswith('"') else resource_id(o)
        elif term_kind[oid] == CLASS:
            oid = None
        if sid is None or oid is None:
            onto.rejected_statements += 1
            log.warning(
                "rejected statement %s(%s, %s): schema term or literal in"
                " instance position", p, s, o,
            )
            continue
        rid = rel_id[p]
        insert(sid, rid, oid)
        insert(oid, rid ^ 1, sid)

    typed_log: list[int] = []
    class_log: list[int] = []
    for s, c in type_edges:
        cid = known(c)
        sid = resource_id(s)
        if sid is None or cid is None or term_kind[cid] != CLASS:
            # subject is a schema term or literal, or the class got demoted
            # to a relation
            log.warning("dropped type edge %s -> %s", s, c)
            continue
        typed_log.append(sid)
        class_log.append(cid)

    superclasses: dict[int, set[int]] = {}
    for a, b in subclass:
        ca, cb = known(a), known(b)
        if ca is None or cb is None or term_kind[ca] != CLASS or term_kind[cb] != CLASS:
            onto.rejected_statements += 1
            continue
        superclasses.setdefault(ca, set()).add(cb)

    superproperties: dict[int, set[int]] = {}
    for a, b in subprop:
        if a.startswith('"') or b.startswith('"'):
            onto.rejected_statements += 1
            log.warning("rejected subPropertyOf edge %s -> %s: literal endpoint", a, b)
            continue
        ra, rb = rel_id[a], rel_id[b]
        superproperties.setdefault(ra, set()).add(rb)
        # r below s implies r's inverse below s's inverse
        superproperties.setdefault(ra ^ 1, set()).add(rb ^ 1)

    classes_above = _closure(superclasses)
    _warn_cycles(classes_above, "subClassOf", term_lex)
    relations_above = _closure(superproperties)
    _warn_cycles(relations_above, "subPropertyOf", onto._rel_lex)

    # subproperty closure: every statement holds for the relations above its own
    for rel, sups in relations_above.items():
        for sup in sups:
            for s, o in list(by_relation.get(rel, ())):
                insert(s, sup, o)
                insert(o, sup ^ 1, s)
    _append_grouped(onto.by_subject, subject_log, row_log)
    # free the statement logs before the type closure allocates its own
    subject_log.clear()
    row_log.clear()

    # subclass closure: every instance gets the classes above its own
    _group_types(onto, typed_log, class_log)
    for inst, classes in onto._types_of.items():
        derived: set[int] = set()
        for c in classes:
            derived.update(classes_above.get(c, ()))
        for d in derived:
            typed_log.append(inst)
            class_log.append(d)
    _group_types(onto, typed_log, class_log)
    return onto


def _group_types(onto: Ontology, typed_log: list[int], class_log: list[int]) -> None:
    """Move the logged type edges into the per-term tuples, keep only the
    first occurrence of an edge logged more than once, then clear the logs.

    A repeat shows in its instance's tuple, so only tuples of more than one
    class are checked, and only the classes of a tuple that held a repeat
    have their instance tuples rebuilt."""
    types_of, instances_of = onto._types_of, onto._instances_of
    typed = _append_grouped(types_of, typed_log, class_log)
    _append_grouped(instances_of, class_log, typed_log)
    repeated: set[int] = set()
    for inst in typed:
        classes = types_of[inst]
        if len(classes) > 1 and len(set(classes)) < len(classes):
            types_of[inst] = tuple(dict.fromkeys(classes))
            repeated.update(classes)
    for cls in repeated:
        instances_of[cls] = tuple(dict.fromkeys(instances_of[cls]))
    typed_log.clear()
    class_log.clear()


def _append_grouped(
    index: dict[int, tuple], keys: list[int], values: list
) -> dict[int, None]:
    """Append each ``values[i]`` to the tuple of ``keys[i]`` in index, and
    return the keys whose tuples grew.

    A stable sort groups the log, so each key's values keep log order; keys
    new to the index are added in order of first appearance, as appending
    one by one would add them.
    """
    order = sorted(range(len(keys)), key=keys.__getitem__)
    runs = {
        k: tuple(map(values.__getitem__, run))
        for k, run in groupby(order, keys.__getitem__)
    }
    grown = dict.fromkeys(keys)
    for k in grown:
        index[k] = index.get(k, ()) + runs[k]
    return grown


def _closure(edges: dict[int, set[int]]) -> dict[int, set[int]]:
    """Each node with an edge, mapped to all nodes reachable from it over
    one or more edges."""
    return {start: _reachable(edges, start) for start in edges}


def _reachable(edges: dict[int, set[int]], start: int) -> set[int]:
    out: set[int] = set()
    frontier = list(edges.get(start, ()))
    while frontier:
        node = frontier.pop()
        if node in out:
            continue
        out.add(node)
        frontier.extend(edges.get(node, ()))
    return out


def _warn_cycles(above: dict[int, set[int]], label: str, names: list[str]) -> None:
    """Log each group of nodes that reach each other, given the closure."""
    seen: set[frozenset[int]] = set()
    for node, reach in above.items():
        if node in reach:
            group = frozenset(
                m for m in reach | {node} if m == node or node in above.get(m, ())
            )
            if group not in seen:
                seen.add(group)
                log.warning(
                    "%s cycle collapsed to one equivalence group: %s",
                    label,
                    ", ".join(sorted(names[m] for m in group)),
                )
