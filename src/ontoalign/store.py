"""Indexed in-memory store for one RDFS ontology.

An ontology is built once, by :func:`ontology_from_triples` (which the
N-Triples loader calls with the parser's triples, as they are read), and is
read-only afterwards:
:class:`Ontology` has query methods only.

Terms (instances, literals, classes) and relations are interned to dense
integer ids. Every relation r has a materialized inverse, with id ``r ^ 1``,
and every statement is stored together with its inverse statement, so
traversals can walk from any term over all incident edges by looking only
at subject-indexed statements. Type edges (rdf:type) live in dedicated
indexes, not in the general statement store: class alignment consumes them
separately and they carry no functionality semantics. Schema edges
(rdfs:subClassOf, rdfs:subPropertyOf) are applied during the build, as extra
type edges and statements, and are not kept.

The statements live in flat columns of term and relation ids:

- ``subject_relations[s]`` and ``subject_objects[s]``, lists indexed by term
  id, hold the relation and the object of each of s's statements, in
  insertion order, as two tuples of equal length. The instance sweep
  (penalties included) and the one-pair operation walk them;
  :meth:`Ontology.rows` zips them.
- ``relation_subjects[r]`` and ``relation_objects[r]``, lists indexed by
  relation id, hold the subject and the object of each of r's statements,
  in insertion order. A relation's inverse has the same statements,
  transposed and in the same order, so r's subjects are its inverse's
  objects and the two share their tuples. The functionality table, the
  relation sweep and the ``functionality`` command read them;
  :meth:`Ontology.pairs` zips them.

There is no index per pair of terms. :meth:`Ontology.relations_between`
scans the shorter of the two terms' object tuples with the C-level
``tuple.count`` and ``tuple.index``, reading the other term's rows inverted
when those are shorter, so a hub value with thousands of subjects is never
scanned from its own side. A pair almost always has one relation r, and the
scan then returns ``(r,)``, one tuple per relation shared by all of r's
statements. The engine calls it only for the relation sweep's statements
with several transported pairs, and the tests take it as that sweep's
reference: its other statements, nearly all of them, scan the same columns
by the same shorter-side rule inside the sweep's loop, without a call per
pair. The instance sweep reads landing groups off the columns instead.

Every column slot holds the one int object of its term or relation id, the
one the term table holds, so the columns add 8 bytes per slot and no int
object per statement; :meth:`Ontology.instances`, :meth:`Ontology.literals`
and :meth:`Ontology.classes` hand out the same objects. Terms with equal
relation sequences share one tuple, as do single-row terms with the same
object and instances with equal class sequences.

The term tables keep no string per term. Each term's lexical form is
appended, in UTF-8, to one buffer per ontology as the build interns the
term, with its end offset in an ``array``; :meth:`Ontology.lexical` decodes
one slice on each call, so a caller that reads a form many times keeps it.
The store keeps no index from lexical form to term id either:
:meth:`Ontology.term_id` builds one on its first call, and the run never
calls it.

On the benchmark's ``clean`` side (10k persons, 118 824 inverse-closed
statements, 47 289 terms, 1 316 distinct relation sequences, 34 856
single-row terms with 12 428 distinct objects) a statement costs about 73
bytes: 23 in subject columns (an object slot, two list slots per term and
the object tuple headers), 8 in relation columns, 11 in the id ints, 18 in
the term tables (8 of them the UTF-8 buffer), 7 in the types and 6 in the
rest. The load peaks about 15 bytes per statement above that. CSR object
columns (one ``array`` per ontology, with offsets per term) would save
about 4 MB more on the ``clean`` pair, but a slice per term to read them
costs more than the tuples: three full passes over one side's rows took
0.16 s with array slices, against 0.10 s with the column tuples and 0.04 s
with a tuple per row.

Types are held per instance and per class: :meth:`Ontology.classes_of` and
:meth:`Ontology.instances_of` return tuples, in insertion order, with the
types the subclass closure derives after the given ones. A type edge given
twice, or given and also derived, is kept once, at its first occurrence.
The given edges are grouped into tuples once. The closure then closes each
distinct given class tuple once (all of a generated side's persons share
one) and interns the closed tuples, so instances whose class sequences end
up equal share one tuple even when their given classes differ; each class
gets its derived members in one append, in the order of the instances'
first type edge.

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
from array import array
from collections import Counter
from functools import cached_property
from itertools import accumulate, islice
from typing import Callable, Iterable, Iterator

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
        # term tables: instances, literals, classes share one id space. Term
        # t's lexical form is _lex[_lex_ends[t]:_lex_ends[t + 1]] in UTF-8,
        # and _ids[t] is the int object of id t that every column slot holds.
        self._lex = b""
        self._lex_ends = array("q", [0])
        self._ids: list[int] = []
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
        return {self.lexical(t): t for t in self._ids}

    def term_id(self, lexical: str) -> int | None:
        return self._term_id.get(lexical)

    def kind(self, tid: int) -> str:
        return self._term_kind[tid]

    def kinds(self) -> tuple[str, ...]:
        """Every term's kind, indexed by term id: a read-only copy, for
        loops that check many kinds."""
        return tuple(self._term_kind)

    def lexical(self, tid: int) -> str:
        """The term's lexical form, decoded from the store's UTF-8 buffer
        on each call: a caller that reads one form many times keeps it."""
        ends = self._lex_ends
        return self._lex[ends[tid]:ends[tid + 1]].decode("utf-8", "surrogatepass")

    def relation_id(self, lexical: str) -> int | None:
        return self._rel_id.get(lexical)

    def relation_lexical(self, rid: int) -> str:
        return self._rel_lex[rid]

    def term_count(self) -> int:
        return len(self._ids)

    def relation_ids(self) -> range:
        return range(len(self._rel_lex))

    def instances(self) -> list[int]:
        return [t for t, k in zip(self._ids, self._term_kind) if k == INSTANCE]

    def literals(self) -> list[int]:
        return [t for t, k in zip(self._ids, self._term_kind) if k == LITERAL]

    def classes(self) -> list[int]:
        return [t for t, k in zip(self._ids, self._term_kind) if k == CLASS]

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
    ids, term_kind, ends = onto._ids, onto._term_kind, onto._lex_ends
    # Each term's lexical form is appended to one UTF-8 buffer as the term is
    # interned. surrogatepass keeps a lone surrogate, which the N-Triples
    # escape \uD800 gives.
    packed = bytearray()
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
        cid = class_id[lex] = len(ids)
        ids.append(cid)
        term_kind.append(CLASS)
        packed.extend(lex.encode("utf-8", "surrogatepass"))
        ends.append(len(packed))

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
        t = tid[pid] = len(ids)
        ids.append(t)
        term_kind.append(kind)
        packed.extend(lexical[pid].encode("utf-8", "surrogatepass"))
        ends.append(len(packed))
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
    onto._lex = bytes(packed)
    del packed

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
    _warn_cycles(classes_above, "subClassOf", onto.lexical)
    relations_above = _closure(superproperties)
    _warn_cycles(relations_above, "subPropertyOf", rel_names.__getitem__)

    # subproperty closure: every statement holds for the relations above its own
    _copy_to_superproperties(subj, pred, obj, relations_above, relation)
    _fill_columns(onto, subj, pred, obj, relation)
    # free the statements before the type closure allocates its own
    del subj, pred, obj

    _group_types(onto, typed, typed_as)
    del typed, typed_as
    # subclass closure: every instance gets the classes above its own
    _close_types(onto, classes_above)
    return onto


def _copy_to_superproperties(
    subj: list[int],
    rel: list[int],
    obj: list[int],
    above: dict[int, set[int]],
    relation: list[int],
) -> None:
    """Append a statement sup(s, o) for each given statement r(s, o) and each
    sup above r.

    Each statement k stands for two: rel[k](subj[k], obj[k]) and its
    inverse. `above` is transitive, so each given statement is copied once
    to each relation of its closure, and copies are never copied again: a
    copy of a copy would repeat a statement copied before it, also where
    the edges form a cycle. The relations are taken in the order of
    `above`, each with its inverse, whose closure holds the inverses of its
    own: the inverse's copies would be the same statements, transposed. A
    copy that repeats a given statement is dropped later, with every other
    repeat.
    """
    if not above:
        return
    # the given statements of each closed relation and its inverse, by position
    holds: dict[int, list[int]] = {r & ~1: [] for r in above}
    for k, r in enumerate(rel):
        given = holds.get(r & ~1)
        if given is not None:
            given.append(k)
    for r, sups in above.items():
        given = holds.pop(r & ~1, None)
        if given is None:  # copied with its inverse
            continue
        for sup in sups:
            for k in given:
                if rel[k] == r:
                    subj.append(subj[k])
                    obj.append(obj[k])
                else:
                    subj.append(obj[k])
                    obj.append(subj[k])
                rel.append(relation[sup])


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
    counts = [0] * onto.term_count()
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
    # relation sequences share one tuple, a single-row term holds the (r,)
    # that relations_between returns, and single-row terms with the same
    # object share one (o,). A single row is read without a slice or a hash
    # of a new tuple: most terms have one.
    single = onto._single
    shared = {rels: rels for rels in single}
    intern = shared.setdefault
    rows = iter(rows_r)
    rels_of: list[tuple[int, ...]] = []
    for n in counts:
        if n == 1:
            rels_of.append(single[next(rows)])
        else:
            rels = tuple(islice(rows, n))
            rels_of.append(intern(rels, rels))
    del rows, rows_r
    one_row: dict[int, tuple[int]] = {}  # object -> its single-row terms' (o,)
    rows = iter(rows_o)
    objs_of: list[tuple[int, ...]] = []
    for n in counts:
        if n == 1:
            o = next(rows)
            objs = one_row.get(o)
            if objs is None:
                objs = one_row[o] = (o,)
        else:
            objs = tuple(islice(rows, n))
        objs_of.append(objs)
    del rows, rows_o, counts

    repeated: dict[int, set[tuple[int, int]]] = {}  # relation r -> its repeated (s, o)
    for s, objs in enumerate(objs_of):
        if len(objs) > 1 and len(set(objs)) < len(objs):
            stored = Counter(zip(rels_of[s], objs))
            if len(stored) == len(objs):
                continue  # several relations between the same two terms
            rels = tuple(r for r, _ in stored)
            rels_of[s] = intern(rels, rels)
            objs = tuple(o for _, o in stored)
            objs_of[s] = one_row.setdefault(objs[0], objs) if len(objs) == 1 else objs
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


def _group_types(onto: Ontology, typed: list[int], typed_as: list[int]) -> None:
    """Group the given type edges, instance ``typed[i]`` of class
    ``typed_as[i]``, into the per-term tuples, keeping only the first
    occurrence of an edge given more than once.

    A repeat shows in its instance's tuple, so only tuples of more than one
    class are checked, and only the classes of a tuple that held a repeat
    have their instance tuples rebuilt."""
    types_of = onto._types_of = _grouped(typed, typed_as)
    instances_of = onto._instances_of = _grouped(typed_as, typed)
    repeated: set[int] = set()
    for inst, classes in types_of.items():
        if len(classes) > 1 and len(set(classes)) < len(classes):
            types_of[inst] = tuple(dict.fromkeys(classes))
            repeated.update(classes)
    for cls in repeated:
        instances_of[cls] = tuple(dict.fromkeys(instances_of[cls]))


def _close_types(onto: Ontology, above: dict[int, set[int]]) -> None:
    """Give every instance the classes above its given ones, after them.

    Each distinct given class tuple is closed once, and the closed tuples are
    interned, so instances with equal class sequences share one tuple. A
    class's derived members follow its given ones, in the order of the
    instances' first type edge; classes with no given member are added in
    order of first derivation."""
    types_of, instances_of = onto._types_of, onto._instances_of
    # given class tuple -> its closed tuple and the classes derived for it
    closed: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    derived_members: dict[int, list[int]] = {}
    for inst, given in types_of.items():
        known = closed.get(given)
        if known is None:
            derived: set[int] = set()
            for c in given:
                derived.update(above.get(c, ()))
            extra = tuple(d for d in derived if d not in given)
            full = given + extra
            known = closed[given] = shared.setdefault(full, full), extra
        types_of[inst], extra = known
        for d in extra:
            members = derived_members.get(d)
            if members is None:
                members = derived_members[d] = []
            members.append(inst)
    for cls, members in derived_members.items():
        instances_of[cls] = instances_of.get(cls, ()) + tuple(members)


def _grouped(keys: list[int], values: list[int]) -> dict[int, tuple[int, ...]]:
    """Each key mapped to the tuple of its values, ``values[i]`` for each
    ``keys[i]``, in log order; keys in order of first appearance.

    A counting sort groups the log, so no index of the log is sorted."""
    counts = Counter(keys)  # in order of first appearance
    free = dict(zip(counts, accumulate(counts.values(), initial=0)))  # next slot
    grouped = [None] * len(keys)
    for k, v in zip(keys, values):
        i = free[k]
        free[k] = i + 1
        grouped[i] = v
    del free
    runs = iter(grouped)
    return {k: tuple(islice(runs, n)) for k, n in counts.items()}


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


def _warn_cycles(
    above: dict[int, set[int]], label: str, name: Callable[[int], str]
) -> None:
    """Log each group of nodes that reach each other, given the closure and
    each node's name."""
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
                    ", ".join(sorted(name(m) for m in group)),
                )
