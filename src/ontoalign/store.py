"""Indexed in-memory store for one RDFS ontology.

An ontology is built once, by :func:`ontology_from_triples` (which the
N-Triples loader calls with the parser's triples, as they are read), and is
read-only afterwards:
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

The statements live in flat columns of term and relation ids:

- ``subject_relations[s]`` and ``subject_objects[s]``, lists indexed by term
  id, hold the relation and the object of each of s's statements, in
  insertion order, as two tuples of equal length. The instance sweep
  (penalties included), the one-pair operation and local functionality walk
  them; :meth:`Ontology.rows` zips them.
- ``relation_subjects[r]`` and ``relation_objects[r]``, lists indexed by
  relation id, hold the subject and the object of each of r's statements,
  in insertion order. A relation's inverse has the same statements,
  transposed and in the same order, so r's subjects are its inverse's
  objects and the two share their tuples. Global functionality, the
  relation sweep and the ``functionality`` command read them;
  :meth:`Ontology.pairs` zips them.

There is no index per pair of terms. :meth:`Ontology.relations_between`
scans the shorter of the two terms' object tuples with the C-level
``tuple.count`` and ``tuple.index``, reading the other term's rows inverted
when those are shorter, so a hub value with thousands of subjects is never
scanned from its own side. A pair almost always has one relation r, and the
scan then returns ``(r,)``, one tuple per relation shared by all of r's
statements. :meth:`Ontology.has_statement` reads the same scan.

Every column slot holds the one int object of its term or relation id, the
one the term table holds, so the columns add 8 bytes per slot and no int
object per statement. Terms with equal relation sequences share one tuple,
as do instances with equal class sequences. On the benchmark's ``clean``
side (10k persons, 118 824 inverse-closed statements, 47 289 terms, 1 316
distinct relation sequences) a statement costs about 98 bytes: 32 in
subject columns (an object slot and, per term, an object tuple header and
two list slots), 8 in relation columns, 11 in the id ints, 34 in the term
tables with their strings, 7 in the types and 6 in the rest. The load peaks
about 24 bytes per statement above that. The store keeps no index from
lexical form to term id: :meth:`Ontology.term_id` builds one on its first
call, and the run never calls it. CSR object columns (one ``array`` per
ontology, with offsets per term) would save about 4 MB more on the
``clean`` pair, but a slice per term to read them costs more than the
tuples: three full passes over one side's rows took 0.16 s with array
slices, against 0.10 s with the column tuples and 0.04 s with a tuple per
row.

Types are held per instance and per class: :meth:`Ontology.classes_of` and
:meth:`Ontology.instances_of` return tuples, in insertion order, with the
types the subclass closure derives after the given ones. A type edge given
twice, or given and also derived, is kept once, at its first occurrence.

Term kinds are one list indexed by term id. :meth:`Ontology.kind` reads one
entry; :meth:`Ontology.kinds` returns a read-only copy of the whole list,
for the engine's loops that check a kind per candidate.

Every container per term or per relation is a tuple of ints, because the
cyclic garbage collector stops tracking those. A list per term, grown by one
append per insert, would keep about 120 000 lists after loading two
10k-person ontologies, and every full collection, during the load and in
each later pass, would walk them all. So the build reads the triples once,
keeping each statement as three ints in flat lists, and a counting sort
turns those into the per-term tuples; no string triple, no tuple per
statement and no dict or set entry per statement is kept on the way.
"""

from __future__ import annotations

import logging
from collections import Counter
from functools import cached_property
from itertools import accumulate, groupby, islice
from typing import Iterable, Iterator

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
        self._term_lex: list[str] = []
        self._term_kind: list[str] = []
        # relation table: separate id space; ids 2k / 2k+1 are mutual inverses
        self._rel_id: dict[str, int] = {}
        self._rel_lex: list[str] = []
        self._single: list[tuple[int]] = []  # (r,) per relation id r
        # statements, stored in both directions (see the module docstring);
        # per term id, the relations and objects of its statements
        self.subject_relations: list[tuple[int, ...]] = []
        self.subject_objects: list[tuple[int, ...]] = []
        # per relation id, the subjects and objects of its statements
        self.relation_subjects: list[tuple[int, ...]] = []
        self.relation_objects: list[tuple[int, ...]] = []
        # types
        self._types_of: dict[int, tuple[int, ...]] = {}  # instance -> classes
        self._instances_of: dict[int, tuple[int, ...]] = {}  # class -> instances
        self.rejected_statements = 0

    # ------------------------------------------------------------------ terms

    @cached_property
    def _term_id(self) -> dict[str, int]:
        # built on the first lookup; the run never makes one
        return {lex: t for t, lex in enumerate(self._term_lex)}

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
        return sum(map(len, self.relation_subjects))

    def rows(self, subject: int) -> Iterator[tuple[int, int]]:
        """The (relation, object) row of each statement of `subject`, in
        insertion order."""
        return zip(self.subject_relations[subject], self.subject_objects[subject])

    def pairs(self, relation: int) -> Iterator[tuple[int, int]]:
        """The (subject, object) pair of each statement of `relation`, in
        insertion order."""
        return zip(self.relation_subjects[relation], self.relation_objects[relation])

    def has_statement(self, s: int, r: int, o: int) -> bool:
        return r in self.relations_between(s, o)

    def relations_between(self, subject: int, obj: int) -> tuple[int, ...]:
        """The relations r of the statements r(subject, obj), in insertion
        order. Scans the shorter of the two terms' object columns: obj's
        rows hold the same statements, inverted and in the same order."""
        objs = self.subject_objects[subject]
        back = self.subject_objects[obj]
        if len(back) < len(objs):
            n = back.count(subject)
            if not n:
                return ()
            rels = self.subject_relations[obj]
            if n == 1:
                return self._single[rels[back.index(subject)] ^ 1]
            return tuple(r ^ 1 for r, o in zip(rels, back) if o == subject)
        n = objs.count(obj)
        if not n:
            return ()
        rels = self.subject_relations[subject]
        if n == 1:
            return self._single[rels[objs.index(obj)]]
        return tuple(r for r, o in zip(rels, objs) if o == obj)

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

    `triples` is read once, so a generator works: the N-Triples loader
    passes the parser's. A lexical form that starts with a double quote is a
    literal; everything else is a resource. Term kinds are decided from all
    the triples: predicates and subPropertyOf endpoints are relations,
    rdf:type objects and subClassOf endpoints are classes, the rest are
    instances. Ordinary statements that would use a class or relation as
    subject/object are rejected and counted (the class/relation reading wins
    over instancehood), and so are statements with a literal subject. A
    literal is never a class or a relation. A type edge is dropped and
    counted when its subject is a literal or a schema term, or its object a
    literal or a relation, and so is a subClassOf or subPropertyOf edge with
    a literal at either end.

    The subclass and subproperty edges are then closed transitively: each
    instance gets the superclasses of its classes, and each statement is
    repeated under every superproperty of its relation. Cycles collapse into
    mutual containment (each member inherits every other member's
    extension) and are logged.

    Relation ids follow the relations' lexical order, each relation followed
    by its inverse. Term ids go to the classes first, in lexical order, then
    to instances and literals in order of first sight in a position they may
    take: statements first, each subject before its object, then type edges.
    """
    # Read once: every lexical form gets a provisional id, in order of first
    # sight, and statements and type edges are kept as provisional ids.
    seen: dict[str, int] = {}
    see = seen.setdefault
    subj: list[int] = []
    pred: list[int] = []
    obj: list[int] = []
    typed: list[int] = []
    typed_as: list[int] = []
    subclass: list[tuple[str, str]] = []
    subprop: list[tuple[str, str]] = []
    for s, p, o in triples:
        if p == RDF_TYPE:
            typed.append(see(s, len(seen)))
            typed_as.append(see(o, len(seen)))
        elif p == RDFS_SUBCLASSOF:
            subclass.append((s, o))
        elif p == RDFS_SUBPROPERTYOF:
            subprop.append((s, o))
        else:
            subj.append(see(s, len(seen)))
            pred.append(see(p, len(seen)))
            obj.append(see(o, len(seen)))
    lexical = list(seen)  # provisional id -> lexical form

    class_lex = {lexical[c] for c in set(typed_as)}
    class_lex.update(t for edge in subclass for t in edge)
    class_lex = {c for c in class_lex if not c.startswith('"')}
    rel_lex = {lexical[p] for p in set(pred)}
    rel_lex.update(t for edge in subprop for t in edge if not t.startswith('"'))
    overlap = class_lex & rel_lex
    for lex in sorted(overlap):
        log.warning("%r used both as class and relation; treating as relation", lex)
    class_lex -= rel_lex

    onto = Ontology(origin)
    term_lex, term_kind = onto._term_lex, onto._term_kind
    rel_id, rel_names = onto._rel_id, onto._rel_lex
    for lex in sorted(rel_lex):
        if lex in rel_id:  # names the inverse of a relation already interned
            continue
        rid = len(rel_names)
        rel_id[lex], rel_id[lex + INVERSE_MARK] = rid, rid + 1
        rel_names += [lex, lex + INVERSE_MARK]
    # the one int object of each relation id, which every column slot holds
    relation = [rel_id[lex] for lex in rel_names]
    onto._single = [(r,) for r in relation]
    class_id: dict[str, int] = {}
    for lex in sorted(class_lex):
        class_id[lex] = len(term_lex)
        term_lex.append(lex)
        term_kind.append(CLASS)

    # The kind a lexical form takes in instance position: None for a class
    # or a relation, which cannot be one.
    schema_lex = class_lex | rel_lex
    position_kind = [
        LITERAL if lex.startswith('"') else None if lex in schema_lex else INSTANCE
        for lex in lexical
    ]
    tid: list[int | None] = [None] * len(lexical)  # provisional -> term id
    for lex, cid in class_id.items():
        if lex in seen:
            tid[seen[lex]] = cid
    # the first-sight table is not kept; its bound setdefault would keep it
    del seen, see

    def new_term(pid: int, kind: str) -> int:
        t = tid[pid] = len(term_lex)
        term_lex.append(lexical[pid])
        term_kind.append(kind)
        return t

    # Statements: a subject must be an instance, an object an instance or a
    # literal. Each position interns its term on first sight, so the term
    # ids are those of inserting one statement after another; the kept
    # statements overwrite the provisional ones in place.
    relation_of = {p: relation[rel_id[lexical[p]]] for p in set(pred)}
    kept = 0
    for s, p, o in zip(subj, pred, obj):
        sid = oid = None
        if position_kind[s] is INSTANCE:
            sid = tid[s]
            if sid is None:
                sid = new_term(s, INSTANCE)
        kind = position_kind[o]
        if kind is not None:
            oid = tid[o]
            if oid is None:
                oid = new_term(o, kind)
        if sid is None or oid is None:
            onto.rejected_statements += 1
            log.warning(
                "rejected statement %s(%s, %s): schema term or literal in"
                " instance position", lexical[p], lexical[s], lexical[o],
            )
            continue
        subj[kept], pred[kept], obj[kept] = sid, relation_of[p], oid
        kept += 1
    del subj[kept:], pred[kept:], obj[kept:]

    kept = 0
    for s, c in zip(typed, typed_as):
        cid = tid[c]
        sid = None
        if position_kind[s] is INSTANCE:
            sid = tid[s]
            if sid is None:
                sid = new_term(s, INSTANCE)
        if sid is None or cid is None or term_kind[cid] != CLASS:
            # subject is a schema term or literal, or the class got demoted
            # to a relation
            onto.rejected_statements += 1
            log.warning("dropped type edge %s -> %s", lexical[s], lexical[c])
            continue
        typed[kept], typed_as[kept] = sid, cid
        kept += 1
    del typed[kept:], typed_as[kept:]

    del lexical, position_kind, tid

    superclasses: dict[int, set[int]] = {}
    for a, b in subclass:
        ca, cb = class_id.get(a), class_id.get(b)
        if ca is None or cb is None:
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
    _warn_cycles(relations_above, "subPropertyOf", rel_names)

    # subproperty closure: every statement holds for the relations above its own
    _copy_to_superproperties(subj, pred, obj, relations_above, relation)
    _fill_columns(onto, subj, pred, obj, relation)
    # free the statements before the type closure allocates its own
    del subj, pred, obj

    # subclass closure: every instance gets the classes above its own
    _group_types(onto, typed, typed_as)
    for inst, classes in onto._types_of.items():
        derived: set[int] = set()
        for c in classes:
            derived.update(classes_above.get(c, ()))
        for d in derived:
            typed.append(inst)
            typed_as.append(d)
    _group_types(onto, typed, typed_as)
    return onto


def _copy_to_superproperties(
    subj: list[int],
    rel: list[int],
    obj: list[int],
    above: dict[int, set[int]],
    relation: list[int],
) -> None:
    """Append a statement sup(s, o) for each statement r(s, o) and each sup
    above r.

    Each statement k stands for two: rel[k](subj[k], obj[k]) and its
    inverse. The relations are closed one after another, in the order of
    `above`, and each copies the statements it holds when its turn comes,
    copies included; a copy that repeats a statement is dropped later, with
    every other repeat.
    """
    if not above:
        return
    # the statements each closed relation holds, by position
    holds: dict[int, list[int]] = {r: [] for r in above}
    for k, r in enumerate(rel):
        for q in (r, r ^ 1):
            if q in holds:
                holds[q].append(k)
    for r, sups in above.items():
        for sup in sups:
            for k in holds[r][:]:
                n = len(rel)
                if rel[k] == r:
                    subj.append(subj[k])
                    obj.append(obj[k])
                else:
                    subj.append(obj[k])
                    obj.append(subj[k])
                rel.append(relation[sup])
                for q in (sup, sup ^ 1):
                    if q in holds:
                        holds[q].append(n)


def _fill_columns(
    onto: Ontology,
    subj: list[int],
    rel: list[int],
    obj: list[int],
    relation: list[int],
) -> None:
    """Fill the statement columns from the statements k, each one standing
    for rel[k](subj[k], obj[k]) and its inverse, inserted in that order.

    A counting sort puts each term's rows in insertion order; each term's
    columns are then tuples cut from the sorted rows. A statement inserted
    twice shows as a repeated row of its subject: only its first occurrence
    is kept, there and in its relation's columns.
    """
    counts = [0] * len(onto._term_lex)
    for t in subj:
        counts[t] += 1
    for t in obj:
        counts[t] += 1
    free = list(accumulate(counts, initial=0))  # each term's next row slot
    rows_r = [0] * free[-1]
    rows_o = [0] * free[-1]
    inverse = [relation[r ^ 1] for r in relation]
    for s, r, o in zip(subj, rel, obj):
        i = free[s]
        free[s] = i + 1
        rows_r[i] = r
        rows_o[i] = o
        i = free[o]
        free[o] = i + 1
        rows_r[i] = inverse[r]
        rows_o[i] = s
    del free
    # Each sorted column is freed once its tuples are cut. Terms with equal
    # relation sequences share one tuple, and a single-row term holds the
    # (r,) that relations_between returns.
    shared = {rels: rels for rels in onto._single}
    intern = shared.setdefault
    rows = iter(rows_r)
    rels_of = [intern(rels, rels) for rels in (tuple(islice(rows, n)) for n in counts)]
    del rows, rows_r
    rows = iter(rows_o)
    objs_of = [tuple(islice(rows, n)) for n in counts]
    del rows, rows_o, counts

    repeated: dict[int, set[tuple[int, int]]] = {}  # relation r -> its repeated (s, o)
    for s, objs in enumerate(objs_of):
        if len(objs) > 1 and len(set(objs)) < len(objs):
            stored = Counter(zip(rels_of[s], objs))
            if len(stored) == len(objs):
                continue  # several relations between the same two terms
            rels = tuple(r for r, _ in stored)
            rels_of[s] = intern(rels, rels)
            objs_of[s] = tuple(o for _, o in stored)
            for (r, o), n in stored.items():
                if n > 1:  # kept under the even relation of the two
                    key = (o, s) if r & 1 else (s, o)
                    repeated.setdefault(r & ~1, set()).add(key)
    onto.subject_relations = rels_of
    onto.subject_objects = objs_of

    # A relation's inverse has the same statements, transposed and in the
    # same order, so the two share their columns.
    n_pairs = len(relation) // 2
    rel_subjs: list[list[int]] = [[] for _ in range(n_pairs)]
    rel_objs: list[list[int]] = [[] for _ in range(n_pairs)]
    for s, r, o in zip(subj, rel, obj):
        if r & 1:
            s, o = o, s
        rel_subjs[r >> 1].append(s)
        rel_objs[r >> 1].append(o)
    for i in range(n_pairs):
        ss, oo = rel_subjs[i], rel_objs[i]
        rel_subjs[i] = rel_objs[i] = []
        if 2 * i in repeated:
            ss, oo = _first_occurrences(ss, oo, repeated[2 * i])
        ss, oo = tuple(ss), tuple(oo)
        onto.relation_subjects += (ss, oo)
        onto.relation_objects += (oo, ss)


def _first_occurrences(
    subjects: list[int], objects: list[int], repeated: set[tuple[int, int]]
) -> tuple[list[int], list[int]]:
    """The pairs (subjects[i], objects[i]) without the later occurrences of
    those in `repeated`."""
    kept_s: list[int] = []
    kept_o: list[int] = []
    seen: set[tuple[int, int]] = set()
    for pair in zip(subjects, objects):
        if pair in repeated:
            if pair in seen:
                continue
            seen.add(pair)
        kept_s.append(pair[0])
        kept_o.append(pair[1])
    return kept_s, kept_o


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
    # instances with equal class sequences share one tuple
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    for inst, classes in types_of.items():
        types_of[inst] = shared.setdefault(classes, classes)
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
