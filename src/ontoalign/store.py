"""Indexed in-memory store for one RDFS ontology.

Terms (instances, literals, classes) and relations are interned to dense
integer ids. Every relation has a materialized inverse, and every statement
is stored together with its inverse statement, so traversals can walk from
any term over all incident edges by looking only at subject-indexed
statements. Type and schema edges (rdf:type, rdfs:subClassOf,
rdfs:subPropertyOf) live in dedicated indexes, not in the general statement
store: class alignment consumes them separately and they carry no
functionality semantics.

Each inverse-closed statement s r o is held in exactly three indexes:

- ``by_subject[s]`` is the tuple of s's ``(r, o)`` rows, in insertion
  order. The instance sweep (penalties included), the one-pair operation
  and local functionality walk it.
- ``by_relation[r]`` is the list of r's ``(s, o)`` keys, in insertion order.
  Global functionality, the relation sweep, schema closure and the
  ``functionality`` command read it.
- ``_pair_rels[(s, o)]`` is the tuple of relations between s and o, in
  insertion order. It deduplicates statements and answers
  :meth:`Ontology.has_statement` and :meth:`Ontology.relations_between`,
  which returns that tuple itself; the instance and relation sweeps call
  the latter. Almost every pair has one relation r, and its tuple ``(r,)``
  is one object per relation, shared by all of r's statements; only a
  second relation between the same two terms makes a tuple of its own.

Types are held per instance and per class: :meth:`Ontology.classes_of` and
:meth:`Ontology.instances_of` return tuples, in insertion order. A type
edge added twice is kept once, at its first occurrence; the repeat is
dropped when the logs are grouped, so no index of type pairs is kept.

Term kinds are one list indexed by term id. :meth:`Ontology.kind` reads one
entry; :meth:`Ontology.kinds` returns a read-only copy of the whole list,
for the engine's loops that check a kind per candidate.

Every container per statement or per term is a tuple of ints or of tuples
of ints, because the cyclic garbage collector stops tracking those; only
the few per-relation lists stay lists. A list per term, grown by one append
per insert, would keep about 120 000 lists after loading two 10k-person
ontologies, and every full collection, during the load and in each later
pass, would walk them all. So an insert goes to flat logs in insertion
order, and a stable grouping turns the logs into the per-term tuples once
per batch: at the end of :meth:`Ontology.close_under_schema`, or at the
first read of ``by_subject``, ``classes_of`` or ``instances_of`` after an
insert.
"""

from __future__ import annotations

import logging
from itertools import groupby
from typing import Iterable, NamedTuple

log = logging.getLogger("ontoalign.store")

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDFS_SUBCLASSOF = "http://www.w3.org/2000/01/rdf-schema#subClassOf"
RDFS_SUBPROPERTYOF = "http://www.w3.org/2000/01/rdf-schema#subPropertyOf"

INSTANCE = "instance"
LITERAL = "literal"
RELATION = "relation"
CLASS = "class"

INVERSE_MARK = "⁻¹"  # superscript -1, appended to inverse relation names


class Vocabulary(NamedTuple):
    """IRIs treated as schema predicates. Override for nonstandard dumps."""

    type: tuple[str, ...] = (RDF_TYPE,)
    subclass: tuple[str, ...] = (RDFS_SUBCLASSOF,)
    subproperty: tuple[str, ...] = (RDFS_SUBPROPERTYOF,)


class Ontology:
    """One ontology: interned terms, inverse-closed statements, schema indexes.

    Build with :func:`ontology_from_triples` (or the N-Triples loader), which
    classifies term kinds in a first pass. After loading, treat the object as
    immutable; all query methods are read-only.
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
        self._single: list[tuple[int]] = []  # (r,) per relation r, shared
        # statements, stored in both directions (see the module docstring)
        self._by_subject: dict[int, tuple[tuple[int, int], ...]] = {}
        self.by_relation: dict[int, list[tuple[int, int]]] = {}
        self._pair_rels: dict[tuple[int, int], tuple[int, ...]] = {}
        # schema
        self._types_of: dict[int, tuple[int, ...]] = {}  # instance -> classes
        self._instances_of: dict[int, tuple[int, ...]] = {}  # class -> instances
        self.subclass_edges: dict[int, set[int]] = {}
        self.subproperty_edges: dict[int, set[int]] = {}
        # inserts not yet grouped into the per-term tuples: parallel
        # flat logs in insertion order (subject, (r, o)) and (instance, class)
        self._subject_log: list[int] = []
        self._row_log: list[tuple[int, int]] = []
        self._typed_log: list[int] = []
        self._class_log: list[int] = []
        self.rejected_statements = 0

    # ------------------------------------------------------------------ terms

    def intern_term(self, lexical: str, kind: str) -> int:
        """Intern a non-relation term; id is stable per (lexical, kind, origin)."""
        tid = self._term_id.get(lexical)
        if tid is not None:
            if self._term_kind[tid] != kind:
                raise ValueError(
                    f"term {lexical!r} already interned as {self._term_kind[tid]},"
                    f" not {kind}"
                )
            return tid
        tid = len(self._term_lex)
        self._term_id[lexical] = tid
        self._term_lex.append(lexical)
        self._term_kind.append(kind)
        return tid

    def intern_relation(self, lexical: str) -> int:
        """Intern a relation, creating its inverse alongside it."""
        rid = self._rel_id.get(lexical)
        if rid is not None:
            return rid
        rid = len(self._rel_lex)
        self._rel_id[lexical] = rid
        self._rel_lex.append(lexical)
        inv_lex = lexical + INVERSE_MARK
        self._rel_id[inv_lex] = rid + 1
        self._rel_lex.append(inv_lex)
        self._single += [(rid,), (rid + 1,)]
        return rid

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

    def add_statement(self, subject: int, relation: int, obj: int) -> None:
        """Add one statement and its inverse. Idempotent.

        Subject must be an instance (literals appear as subjects only in the
        auto-generated inverse direction); classes and relations may not take
        part in ordinary statements at all.
        """
        skind = self._term_kind[subject]
        okind = self._term_kind[obj]
        if skind != INSTANCE:
            raise ValueError(
                f"statement {self._render(subject, relation, obj)}:"
                f" subject is a {skind}"
            )
        if okind not in (INSTANCE, LITERAL):
            raise ValueError(
                f"statement {self._render(subject, relation, obj)}:"
                f" object is a {okind}"
            )
        self._insert(subject, relation, obj)
        self._insert(obj, relation ^ 1, subject)

    def _insert(self, s: int, r: int, o: int) -> None:
        key = (s, o)
        rels = self._pair_rels.get(key)
        if rels is None:
            self._pair_rels[key] = self._single[r]
        elif r in rels:
            return
        else:
            # rare: a second relation between the same two terms
            self._pair_rels[key] = rels + (r,)
        self._subject_log.append(s)
        self._row_log.append((r, o))
        self.by_relation.setdefault(r, []).append(key)

    @property
    def by_subject(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """Subject -> its ``(relation, object)`` rows, in insertion order."""
        if self._subject_log:
            self._group_logs()
        return self._by_subject

    def statement_count(self) -> int:
        return sum(map(len, self.by_relation.values()))

    def has_statement(self, s: int, r: int, o: int) -> bool:
        return r in self._pair_rels.get((s, o), ())

    def relations_between(self, subject: int, obj: int) -> tuple[int, ...]:
        return self._pair_rels.get((subject, obj), ())

    def _render(self, s: int, r: int, o: int) -> str:
        return (
            f"{self._rel_lex[r]}({self._term_lex[s]}, {self._term_lex[o]})"
        )

    # ----------------------------------------------------------- type/schema

    def add_type(self, instance: int, cls: int) -> None:
        if self._term_kind[instance] != INSTANCE or self._term_kind[cls] != CLASS:
            raise ValueError(
                f"type edge needs instance and class, got"
                f" {self._term_kind[instance]} / {self._term_kind[cls]}"
            )
        self._typed_log.append(instance)
        self._class_log.append(cls)

    def classes_of(self, instance: int) -> tuple[int, ...]:
        if self._typed_log:
            self._group_logs()
        return self._types_of.get(instance, ())

    def instances_of(self, cls: int) -> tuple[int, ...]:
        if self._typed_log:
            self._group_logs()
        return self._instances_of.get(cls, ())

    def _group_logs(self) -> None:
        """Move the logged inserts into the per-term tuples, then clear the logs."""
        _append_grouped(self._by_subject, self._subject_log, self._row_log)
        typed = _append_grouped(self._types_of, self._typed_log, self._class_log)
        _append_grouped(self._instances_of, self._class_log, self._typed_log)
        self._drop_repeated_types(typed)
        for entries in (self._subject_log, self._row_log, self._typed_log, self._class_log):
            entries.clear()

    def _drop_repeated_types(self, instances: Iterable[int]) -> None:
        """Keep only the first occurrence of each type edge added more than
        once. A repeat shows in its instance's tuple, so only tuples of more
        than one class are checked, and only the classes of a tuple that held
        a repeat have their instance tuples rebuilt."""
        types_of = self._types_of
        repeated: set[int] = set()
        for inst in instances:
            classes = types_of[inst]
            if len(classes) > 1 and len(set(classes)) < len(classes):
                types_of[inst] = tuple(dict.fromkeys(classes))
                repeated.update(classes)
        for cls in repeated:
            self._instances_of[cls] = tuple(dict.fromkeys(self._instances_of[cls]))

    def add_subclass(self, sub: int, sup: int) -> None:
        self.subclass_edges.setdefault(sub, set()).add(sup)

    def add_subproperty(self, sub: int, sup: int) -> None:
        self.subproperty_edges.setdefault(sub, set()).add(sup)
        # r below s implies r's inverse below s's inverse
        self.subproperty_edges.setdefault(sub ^ 1, set()).add(sup ^ 1)

    def close_under_schema(self) -> None:
        """Materialize the transitive consequences of subclass/subproperty edges.

        Cycles collapse into mutual containment (each member inherits every
        other member's extension) and are logged. Idempotent.
        """
        self._warn_cycles(self.subclass_edges, "subClassOf", self._term_lex)
        self._group_logs()
        for inst, classes in list(self._types_of.items()):
            derived: set[int] = set()
            for c in classes:
                derived |= _reachable(self.subclass_edges, c)
            for d in derived:
                self.add_type(inst, d)
        self._warn_cycles(self.subproperty_edges, "subPropertyOf", self._rel_lex)
        for rel in list(self.subproperty_edges):
            for sup in _reachable(self.subproperty_edges, rel):
                for s, o in list(self.by_relation.get(rel, ())):
                    self._insert(s, sup, o)
                    self._insert(o, sup ^ 1, s)
        self._group_logs()

    def _warn_cycles(
        self, edges: dict[int, set[int]], label: str, names: list[str]
    ) -> None:
        seen: set[frozenset[int]] = set()
        for node in edges:
            reach = _reachable(edges, node)
            if node in reach:
                group = frozenset(
                    m for m in reach | {node} if node in _reachable(edges, m) or m == node
                )
                if group not in seen:
                    seen.add(group)
                    log.warning(
                        "%s cycle collapsed to one equivalence group: %s",
                        label,
                        ", ".join(sorted(names[m] for m in group)),
                    )


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


def _reachable(edges: dict[int, set[int]], start: int) -> set[int]:
    """All nodes reachable from start over one or more edges."""
    out: set[int] = set()
    frontier = list(edges.get(start, ()))
    while frontier:
        node = frontier.pop()
        if node in out:
            continue
        out.add(node)
        frontier.extend(edges.get(node, ()))
    return out


def ontology_from_triples(
    triples: Iterable[tuple[str, str, str]],
    origin: str = "first",
    vocab: Vocabulary | None = None,
) -> Ontology:
    """Build a closed ontology from lexical triples.

    A lexical form that starts with a double quote is a literal; everything
    else is a resource. Term kinds are decided in a first pass: predicates
    and subPropertyOf endpoints are relations, rdf:type objects and
    subClassOf endpoints are classes, the rest are instances. Ordinary
    statements that would use a class or relation as subject/object are
    rejected and counted (the class/relation reading wins over instancehood),
    and so are statements with a literal subject. A literal is never a class
    or a relation: a type edge to or from one is dropped, and a subClassOf or
    subPropertyOf edge with one at either end is rejected and counted.
    """
    vocab = vocab or Vocabulary()
    type_preds = set(vocab.type)
    sub_preds = set(vocab.subclass)
    prop_preds = set(vocab.subproperty)

    plain: list[tuple[str, str, str]] = []
    type_edges: list[tuple[str, str]] = []
    subclass: list[tuple[str, str]] = []
    subprop: list[tuple[str, str]] = []
    class_lex: set[str] = set()
    rel_lex: set[str] = set()

    for triple in triples:
        s, p, o = triple
        if p in type_preds:
            type_edges.append((s, o))
            if not o.startswith('"'):
                class_lex.add(o)
        elif p in sub_preds:
            subclass.append((s, o))
            class_lex.update(t for t in (s, o) if not t.startswith('"'))
        elif p in prop_preds:
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
    rel_id = {lex: onto.intern_relation(lex) for lex in sorted(rel_lex)}
    for lex in sorted(class_lex):
        onto.intern_term(lex, CLASS)
    schema_lex = class_lex | rel_lex

    def resource_id(lex: str) -> int | None:
        # relations, classes and literals cannot be instances
        if lex in schema_lex or lex.startswith('"'):
            return None
        return onto.intern_term(lex, INSTANCE)

    # A term the store already holds is looked up by lexical form and kept if
    # its kind fits the position; only a term's first sight interns it.
    known = onto._term_id.get
    kinds = onto._term_kind
    insert = onto._insert
    for s, p, o in plain:
        sid = known(s)
        if sid is None:
            sid = resource_id(s)
        elif kinds[sid] != INSTANCE:  # a class or a literal
            sid = None
        oid = known(o)
        if oid is None:
            oid = onto.intern_term(o, LITERAL) if o.startswith('"') else resource_id(o)
        elif kinds[oid] == CLASS:
            oid = None
        if sid is None or oid is None:
            onto.rejected_statements += 1
            log.warning(
                "rejected statement %s(%s, %s): schema term or literal in"
                " instance position", p, s, o,
            )
            continue
        # the same two inserts as add_statement, whose kind checks the
        # lexical forms have already settled
        rid = rel_id[p]
        insert(sid, rid, oid)
        insert(oid, rid ^ 1, sid)

    for s, c in type_edges:
        cid = onto.term_id(c)
        sid = resource_id(s)
        if sid is None or cid is None or onto.kind(cid) != CLASS:
            # subject is a schema term or literal, or the class got demoted
            # to a relation
            log.warning("dropped type edge %s -> %s", s, c)
            continue
        onto.add_type(sid, cid)

    for a, b in subclass:
        ca, cb = onto.term_id(a), onto.term_id(b)
        if ca is None or cb is None or onto.kind(ca) != CLASS or onto.kind(cb) != CLASS:
            onto.rejected_statements += 1
            continue
        onto.add_subclass(ca, cb)

    for a, b in subprop:
        if a.startswith('"') or b.startswith('"'):
            onto.rejected_statements += 1
            log.warning("rejected subPropertyOf edge %s -> %s: literal endpoint", a, b)
            continue
        onto.add_subproperty(rel_id[a], rel_id[b])

    onto.close_under_schema()
    return onto
