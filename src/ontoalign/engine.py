"""Fixpoint alignment of two ontologies.

Each iteration recomputes instance-equivalence probabilities from the previous
iteration's tables (a full snapshot read, never in-place), derives the maximal
assignment, then recomputes relation-inclusion probabilities from the fresh
equivalences. Iteration stops when no assigned instance changes partner, or
when fewer than a configured fraction of them do. Class inclusions are
computed once, at the end, from the final assignment, and reported from
`CLASS_SCORE_FLOOR` up.

Evidence model, in words:

* Two instances are likely equal if they share statements through relations
  that are likely aligned, weighted by how identifying those relations are
  (the inverse functionality): sharing a value of a one-to-one relation is
  near-proof, sharing a value of a many-to-many relation is a hint.
* A relation of one ontology is included in a relation of the other to the
  degree that its statements, transported through known-equal terms, land on
  actual statements of the other relation.
* A class is included in another to the degree that its members have a known
  equal inside the other class.

Literal-literal equalities are clamped up front through the shared
normalized-value index and never change, so their share of the evidence is
built once per run. An instance pair's factors and a relation statement's
misses are multiplied in ascending order, so results do not depend on
traversal order or on which ontology is called "first" when the two roles are
swapped, and a relation's inverse scores exactly as the relation does. A class
member's misses are multiplied in partner order.
"""

from __future__ import annotations

import logging
import sys
import time
from bisect import bisect_left
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import groupby
from operator import itemgetter
from typing import Callable, Collection, Iterator, NamedTuple

from .functionality import FunctionalityTable, build_functionality_table
from .literals import MEASURES, build_key_index
from .ntriples import AlignmentRow
from .store import INSTANCE, Ontology

try:
    import resource
except ImportError:  # not on every platform
    resource = None

log = logging.getLogger("ontoalign.engine")


@dataclass
class AlignmentConfig:
    """Tunable knobs. The defaults are the documented, tested configuration.

    No knob bounds how many statements or instances an inclusion reads.
    Evidence is always the previous maximal assignment's equalities, and
    functionality always the harmonic mean, as in the PARIS model.
    """

    theta: float = 0.1  # bootstrap relation-inclusion prior; also the storage floor
    max_iterations: int = 10
    convergence_fraction: float = 0.01  # stop when fewer instances change partner
    negative_evidence: bool = False  # penalize unmatched statements of aligned relations
    literal_mode: str = "strict"
    # Not fields, and fixed: bench/checks.py reads these four until the
    # benchmark next changes.
    pair_cap = None
    restrict_to_assignment = True
    functionality_mode = "harmonic-mean"
    negative_inner = "object"

    def __post_init__(self) -> None:
        """Reject out-of-range settings with a ValueError naming the field."""
        problems = []
        if not 0.0 < self.theta < 1.0:
            problems.append(f"theta must be in (0, 1), got {self.theta!r}")
        if not 0.0 <= self.convergence_fraction <= 1.0:
            problems.append(
                f"convergence_fraction must be in [0, 1], got {self.convergence_fraction!r}"
            )
        if self.max_iterations < 0:
            problems.append(f"max_iterations must be >= 0, got {self.max_iterations!r}")
        if self.literal_mode not in MEASURES:
            problems.append(
                f"literal_mode must be one of {sorted(MEASURES)}, got {self.literal_mode!r}"
            )
        if problems:
            raise ValueError("; ".join(problems))


@dataclass
class IterationStats:
    """What one iteration did.

    `pairs_evaluated` counts the candidate pairs the instance sweep scored:
    the pairs reached through a statement whose bounded contribution could
    lift a pair over theta, by a landing with a nonzero weight. Pairs reached
    only through weak statements, such as those naming a hub value, or only
    through zero-weight landings are never scored, since they could never
    be stored. Under negative evidence, an instance with a decisive penalty
    has only the candidates that escape it scored, and none where the
    penalty's object has no partner: a penalty alone would take every other
    candidate to theta or below (see `_InstanceFactors`). So the count
    drops under negative evidence, while every stored pair stays the same.

    `pairs_ruled_out_by_penalties` counts the escaping candidates whose
    penalty product alone is at or below theta, so that none of their
    positive factors is formed. Each is still counted in `pairs_evaluated`.
    It is 0 without negative evidence and in the first iteration.

    `phases` records the instance sweep, the assignment and the relation
    sweep, in that order (see `timed`); each sweep's time includes the build
    of its evidence view and the assignment's its change count. The
    relation sweep's peak is the iteration's end; so the first phase to
    reach a peak names it.
    """

    iteration: int
    changed: int
    tracked: int  # instances assigned in this or the previous iteration
    change_fraction: float
    equivalences: int
    subrelations: int
    pairs_evaluated: int
    pairs_ruled_out_by_penalties: int
    phases: Phases

    @property
    def seconds(self) -> float:
        """The whole iteration's wall time: the sum of its phases'."""
        return sum(seconds for seconds, _ in self.phases.values())


def peak_rss_mb() -> float | None:
    """This process's peak resident set size so far, in MB (2**20 bytes);
    None on a platform without the `resource` module."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # kilobytes on Linux, bytes on macOS
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


Phases = dict[str, tuple[float, float | None]]  # name -> (seconds, peak MB)


@contextmanager
def timed(phases: Phases, name: str) -> Iterator[None]:
    """Record the block as phase `name` of `phases`: its wall time, and the
    process's peak resident memory right after it (see `peak_rss_mb`)."""
    started = time.perf_counter()
    yield
    phases[name] = (time.perf_counter() - started, peak_rss_mb())


class EquivalenceTable:
    """Sparse term-equivalence probabilities: the run's literal seeds and one
    sweep's instance rows.

    The seeds are the sorted partner tuples of the run's `LiteralShare`, read
    in place, so a table holds them without copying them; `get` takes
    first-ontology terms only. The instance rows, kept by first-ontology
    term, are adopted as they are given (a sweep hands over its own); the
    assignment takes both of its directions from these forward rows. Seeds
    pair literals with literals and instance rows pair instances with
    instances, so the two never share a key. `get`, `pairs` and `len` cover
    both.
    """

    def __init__(
        self, literals: LiteralShare, rows: dict[int, dict[int, float]] | None = None
    ) -> None:
        self._seeds = literals.left_sorted
        self._fwd: dict[int, dict[int, float]] = {} if rows is None else rows
        self._n = sum(map(len, self._fwd.values()))

    def get(self, left: int, right: int) -> float:
        row = self._fwd.get(left)
        if row is not None:
            return row.get(right, 0.0)
        parts = self._seeds[left]
        i = bisect_left(parts, (right,))
        return parts[i][1] if i < len(parts) and parts[i][0] == right else 0.0

    def pairs(self):
        """Every stored pair: the seeds, then the instance rows in row order."""
        for left, parts in enumerate(self._seeds):
            for right, p in parts:
                yield left, right, p
        for left, row in self._fwd.items():
            for right, p in row.items():
                yield left, right, p

    def __len__(self) -> int:
        return self._n + sum(map(len, self._seeds))


@dataclass
class MaximalAssignment:
    """Per-instance argmax of the equivalence table, both directions.

    forward maps first-ontology instances to their best second-ontology
    partner (and score); backward is the mirror. Ties break toward the
    lexically smallest partner identifier. A pair that is best both ways
    carries the same p in both maps, the p of its table row. Treat as
    immutable.
    """

    forward: dict[int, tuple[int, float]] = field(default_factory=dict)
    backward: dict[int, tuple[int, float]] = field(default_factory=dict)


@dataclass
class InclusionTable:
    """Directed inclusion probabilities, sparse, both directions: P(r in r')
    of relations or P(c in c') of classes. Each direction keys a score by
    (included term, including term), so `o2_to_o1` has the second
    ontology's term first."""

    o1_to_o2: dict[tuple[int, int], float] = field(default_factory=dict)
    o2_to_o1: dict[tuple[int, int], float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.o1_to_o2) + len(self.o2_to_o1)


Partners = tuple[tuple[int, float], ...]  # (partner, probability), ascending by partner
# Per second-ontology instance, its objects per relation (see `_penalty_index`).
PenaltyIndex = dict[int, dict[int, list[int]]]


def _partners_of(
    pairs: list[tuple[int, int, float]], count: int, term: int, partner: int
) -> list[Partners]:
    """The sorted partners of each term at position `term` of the pairs,
    which list each pair once, as a list indexed by term id below `count`,
    with () for a term without pairs. A sort groups the pairs by term and
    partner, with no dict per term kept alive."""
    out: list[Partners] = [()] * count
    ordered = sorted(pairs, key=itemgetter(term, partner))
    for t, run in groupby(ordered, itemgetter(term)):
        parts = [(pair[partner], pair[2]) for pair in run]
        out[t] = tuple(parts)
    return out


def _with_assignment(
    base: list[Partners],
    best: dict[int, tuple[int, float]],
    mirror: dict[int, tuple[int, float]],
) -> list[Partners]:
    """A copy of `base`, a list of partner tuples indexed by term id, with
    each assigned term's partners written over it: its own best, from
    `best`, and every term whose best it is, from `mirror`. A term is
    usually its best's best, so most terms get the one-entry tuple of their
    best; only the others are sorted."""
    out = base.copy()
    for t, entry in best.items():
        out[t] = (entry,)
    more: dict[int, list[tuple[int, float]]] = {}
    for u, (t, p) in mirror.items():
        own = best.get(t)
        if own is None or own[0] != u:
            more.setdefault(t, []).append((u, p))
    for t, extra in more.items():
        own = best.get(t)
        if own is not None:
            extra.append(own)
        out[t] = tuple(sorted(extra))
    return out


class LiteralShare(NamedTuple):
    """The clamped seed pairs' partner tuples (see `_partners_of`), per
    ontology a list indexed by term id, with () for a term without seeds:
    the literal share of every equivalence table and every evidence view.

    Seeds never change, so `bootstrap` builds this once per run, and every
    later state, table and view reads it in place. A lookup of one pair's p
    searches its term's tuple.
    """

    left_sorted: list[Partners]
    right_sorted: list[Partners]


@dataclass
class AlignmentState:
    """One iteration's outcome and everything the next one reads. Only the
    iteration body changes it (see `_advance`).

    The literal seeds' partner lists in `literals` are built once, by
    `bootstrap`, and passed on unchanged from state to state; so is the
    `penalty_index` (see `_penalty_index`), empty without negative evidence.

    The next iteration reads `subrel` and `assignment` in its instance
    sweep, whose evidence view it builds from them, and `assignment` again
    in its change count. It never reads `equiv`: the table is the
    iteration's outcome, kept for the caller and the final result. The
    iteration replaces each part once its last reader is done (see
    `_advance`), so while it runs, `equiv` is None for a while. Where
    nothing else holds the state, as in `run_fixpoint`, each part is freed
    then.
    """

    o1: Ontology
    o2: Ontology
    config: AlignmentConfig
    fun1: FunctionalityTable
    fun2: FunctionalityTable
    literals: LiteralShare
    penalty_index: PenaltyIndex
    equiv: EquivalenceTable | None
    assignment: MaximalAssignment
    subrel: InclusionTable | None  # None means the uniform bootstrap prior
    iteration: int = 0

    @property
    def literal_seeds(self) -> list[tuple[int, int, float]]:
        """The seed pairs (a, b, p), rebuilt from `literals` on each read."""
        return [(a, b, p) for a, parts in enumerate(self.literals.left_sorted) for b, p in parts]


@dataclass
class AlignmentResult:
    """A finished run. `phases` records, in this order (see `timed`),
    `functionality`, both functionality tables; `seed`, the rest of
    `bootstrap` (the literal seeds and their partner lists); and `classes`,
    the class inclusions, computed once after the last iteration."""

    o1: Ontology
    o2: Ontology
    config: AlignmentConfig
    equiv: EquivalenceTable
    assignment: MaximalAssignment
    subrel: InclusionTable
    classes: InclusionTable
    iterations: list[IterationStats]
    converged: bool
    phases: Phases


class EvidenceView:
    """Equality evidence readable during one sweep: `left[t]` is the sorted
    (partner, p) tuple of a first-ontology term t, `right[t]` that of a
    second-ontology term, and () means no partner.

    Each list joins two shares whose terms never meet: seeds pair literals
    with literals only, and sweep rows pair instances with instances only.

    * The literal share is the run's `LiteralShare`: seeds are clamped, so
      every view sees them all.
    * The instance share is the previous maximal assignment alone, read
      straight from its two maps (see `_with_assignment`): an instance's
      partners are its best and every instance whose best it is, each with
      the stored p, so a stored pair that is best in neither direction
      carries no evidence.

    The lists hold partner tuples only, with no dict per term: the
    penalties find P(y, y2) by a scan of y's tuple (see `_penalty`). Each
    sweep builds its own view, and the view lives as long as the sweep.
    """

    def __init__(self, literals: LiteralShare, assignment: MaximalAssignment) -> None:
        fwd, bwd = assignment.forward, assignment.backward
        self.left = _with_assignment(literals.left_sorted, fwd, bwd)
        self.right = _with_assignment(literals.right_sorted, bwd, fwd)


# ------------------------------------------------------------------ bootstrap


def literal_seed_pairs(
    o1: Ontology, o2: Ontology, key: Callable[[str], str]
) -> list[tuple[int, int, float]]:
    """Every pair of cross-ontology literals that share a normalization key,
    at p = 1."""
    idx1 = build_key_index(o1, key)
    idx2 = build_key_index(o2, key)
    return [(a, b, 1.0) for k, ids1 in idx1.items() for a in ids1 for b in idx2.get(k, ())]


def _penalty_index(o2: Ontology) -> PenaltyIndex:
    """Each second-ontology instance's objects, grouped by relation: all that
    a penalty reads of a candidate (see `_InstanceFactors._penalty`)."""
    index: PenaltyIndex = {}
    for x2 in o2.instances():
        rels = o2.subject_relations[x2]
        if rels:
            objs = index[x2] = {}
            for q, o in zip(rels, o2.subject_objects[x2]):
                objs.setdefault(q, []).append(o)
    return index


def bootstrap(
    o1: Ontology,
    o2: Ontology,
    config: AlignmentConfig | None = None,
    fun1: FunctionalityTable | None = None,
    fun2: FunctionalityTable | None = None,
) -> AlignmentState:
    """Initial state: clamped literal matches, uniform relation prior theta."""
    config = config or AlignmentConfig()
    fun1 = fun1 or build_functionality_table(o1)
    fun2 = fun2 or build_functionality_table(o2)
    pairs = literal_seed_pairs(o1, o2, MEASURES[config.literal_mode])
    literals = LiteralShare(
        _partners_of(pairs, o1.term_count(), 0, 1), _partners_of(pairs, o2.term_count(), 1, 0)
    )
    return AlignmentState(
        o1=o1, o2=o2, config=config, fun1=fun1, fun2=fun2,
        literals=literals,
        penalty_index=_penalty_index(o2) if config.negative_evidence else {},
        equiv=EquivalenceTable(literals), assignment=MaximalAssignment(),
        subrel=None, iteration=0,
    )


# --------------------------------------------------------- instance equalities


# Slack added per bound term. It exceeds what rounding in one factor and in
# its share of 1 - prod(factors) can add to a computed p (a few units of
# 2**-53), so the bound still holds for computed values, whatever theta is.
_TERM_SLACK = 2.0**-50

# A weak statement's partner y2 is walked when it has at most this many
# statements per candidate; otherwise each candidate's statements with y2 are
# looked up. On the benchmark's three inputs a walked statement costs
# 0.06-0.2 us and a looked-up candidate 0.7-1.2 us (medians), and the summed
# cost of the two choices is flat for ratios from 3 to 8.
_WALK_PER_LOOKUP = 4


# An aligned relation r2 of a first-ontology relation r and the two penalty
# weights of a statement of r against it (see `_penalty_weights`).
PenaltyWeight = tuple[int, float, float]
# One candidate-independent part of a pair's penalties: the object's sorted
# partners, the aligned relation and the two penalty weights (see
# `_penalty_plan`).
PenaltyTerm = tuple[Partners, int, float, float]


class _InstanceFactors:
    """Instance-pair scores for one sweep; the one place a pair's score is
    formed (see `probability`).

    A statement r(x, y) of a first-ontology instance x hops to the known-equal
    objects y2 of y and lands on second-ontology statements r2(x2, y2); each
    matched statement pair contributes one factor
    (1 - P(incl)(r2,r) fun_inv(r) P(y,y2)) (1 - P(incl)(r,r2) fun_inv(r2) P(y,y2)).
    Candidates of a different term kind are skipped: a resource never equals
    a literal.

    A statement whose object is a hub value lands on every holder of that
    value, yet it can add at most its bound (see `_bound`) to 1 - p of any one
    candidate. `candidates` enumerates only through the statements whose
    bounds together could lift a pair over theta, then gives each candidate
    the factors of the other ("weak") statements by lookup. A pair reached
    only through weak statements could never be stored; every other pair gets
    the factor list that full enumeration gives, so its value is unchanged.
    Penalties only lower a score, so they change nothing of this.

    A landing whose two weights are both 0.0, such as one through a relation
    pair with no stored inclusion, adds no factor and makes no candidate: its
    factor would be exactly 1.0.

    Under negative evidence, the penalty weights are built once per sweep
    (see `_penalty_weights`) and the part of x's penalties that does not
    depend on the candidate once per x (see `_penalty_plan`), so each
    candidate x2 costs only the walk over its own objects, grouped by
    relation once per run (`AlignmentState.penalty_index`). The sweep scores
    x's candidates one after another; one plan is kept at a time. Penalties
    are walked only for a pair that can still be stored, and the walk stops
    as soon as one penalty rules it out (see `probability`).

    A penalty can also rule candidates out before they are scored. The
    penalty of statement r(x, y) against an aligned relation r2 is decisive
    when one of its weights w has 1 - w <= theta (see
    `_decisive_relations`). A candidate x2 with no statement r2(x2, y2) for
    a partner y2 of y has the inner product exactly 1.0, so the factor
    1 - w, and every positive score p <= 1 has p (1 - w) <= theta: such a
    pair is never stored. An instance with
    decisive penalties therefore has only the candidates that escape all of
    them scored (see `_escaping`), penalties first: a candidate whose
    penalty product P alone is at or below theta is ruled out before any
    positive factor is formed, since p <= 1 gives p P <= P. The other
    candidates get their full factor lists from one join of x's statements
    with all of them at once (see `_join`), so every stored value is
    unchanged. The other instances, every instance of the first iteration
    and every run without negative evidence take the bounded path above.
    """

    def __init__(self, state: AlignmentState, ev: EvidenceView) -> None:
        cfg = state.config
        self._left = ev.left
        self._rels1 = state.o1.subject_relations
        self._objs1 = state.o1.subject_objects
        self._rels2 = state.o2.subject_relations
        self._objs2 = state.o2.subject_objects
        self._between2 = state.o2.relations_between
        self._kinds2 = state.o2.kinds()
        self._fun1 = state.fun1.fun
        self._fun2 = state.fun2.fun
        self._inv_fun1 = state.fun1.inverse_fun
        self._inv_fun2 = state.fun2.inverse_fun
        # relation-inclusion lookups: the uniform prior theta for every
        # relation pair in the first iteration; afterwards, missing entries
        # read as zero
        if state.subrel is None:
            self._sub12 = self._sub21 = lambda _r, _q: cfg.theta
        else:
            d12, d21 = state.subrel.o1_to_o2, state.subrel.o2_to_o1
            self._sub12 = lambda r1, r2: d12.get((r1, r2), 0.0)
            self._sub21 = lambda r2, r1: d21.get((r2, r1), 0.0)
        # negative evidence: aligned relations and their penalty weights (none
        # without it, so no penalties)
        self._weights = self._penalty_weights(state.subrel) if cfg.negative_evidence else {}
        self._decisive = self._decisive_relations(cfg.theta)
        self._objs = state.penalty_index
        self._plan_of: int | None = None  # the instance `_plan` belongs to
        self._plan: list[PenaltyTerm] = []
        # A pair reached only through weak statements has p <= the sum of
        # their bounds, so it cannot be stored. The relative margin keeps
        # rounding in those float sums from letting such a pair over theta.
        self._limit = cfg.theta * (1.0 - 1e-9)
        # per relation r of x's statements and relation q of a second-ontology
        # statement q(y2, x2), the two weights of their factor before
        # P(y, y2); filled on first use (see `_coefficient`)
        self._coefs: defaultdict[int, dict[int, tuple[float, float]]] = defaultdict(dict)
        self._landings: dict[int, tuple[int, tuple[int, ...]]] = {}
        self._bounds: dict[tuple[int, int], float | None] = {}

    def _coefficient(
        self, coefs: dict[int, tuple[float, float]], r: int, q: int
    ) -> tuple[float, float]:
        """The two weights of statement r(x, y) against q(y2, x2), kept in
        r's entry of `_coefs`."""
        r2 = q ^ 1  # the statement r2(x2, y2) seen from its object side
        c = coefs[q] = (
            self._sub21(r2, r) * self._inv_fun1(r),
            self._sub12(r, r2) * self._inv_fun2(r2),
        )
        return c

    def _add_hits(
        self, acc: dict[int, list[float]], r: int, pyy: float, hits
    ) -> None:
        """Append to each candidate x2 the factor of statement r(x, y) with
        the second-ontology statement q(y2, x2), for every (q, x2) in `hits`,
        where pyy is P(y, y2): the one place a factor is formed."""
        coefs = self._coefs[r]
        kinds2 = self._kinds2
        for q, x2 in hits:
            if kinds2[x2] != INSTANCE:
                continue
            c = coefs.get(q) or self._coefficient(coefs, r, q)
            if c[0] or c[1]:
                acc.setdefault(x2, []).append((1.0 - c[0] * pyy) * (1.0 - c[1] * pyy))

    def _add_factors(
        self,
        acc: dict[int, list[float]],
        r: int,
        parts: Partners,
        among: Collection[int] | None = None,
    ) -> None:
        """Append the factors of statement r(x, y), whose object has the
        partners `parts`, to every candidate they land on, or, given `among`,
        to those candidates only.

        With `among`, each partner y2's statements are walked and kept where
        they land in `among`, unless they outnumber it more than
        `_WALK_PER_LOOKUP` times; then each candidate's statements with y2
        are looked up instead. Both find the same statements q(y2, x2), each
        once; only their order differs, and factors are multiplied sorted."""
        rels2, objs2 = self._rels2, self._objs2
        for y2, pyy in parts:
            hits = zip(rels2[y2], objs2[y2])
            if among is not None:
                if len(objs2[y2]) <= _WALK_PER_LOOKUP * len(among):
                    hits = [(q, x2) for q, x2 in hits if x2 in among]
                else:
                    between = self._between2
                    hits = [(q, x2) for x2 in among for q in between(y2, x2)]
                if not hits:
                    continue
            self._add_hits(acc, r, pyy, hits)

    def _landing(self, y2: int) -> tuple[int, tuple[int, ...]]:
        """How many instance statements q(y2, x2) there are, and their
        distinct relations q."""
        landing = self._landings.get(y2)
        if landing is None:
            kinds2 = self._kinds2
            rels = [
                q for q, x2 in zip(self._rels2[y2], self._objs2[y2])
                if kinds2[x2] == INSTANCE
            ]
            landing = self._landings[y2] = (len(rels), tuple(dict.fromkeys(rels)))
        return landing

    def _bound(
        self, r: int, y: int, parts: tuple[tuple[int, float], ...]
    ) -> float | None:
        """Upper bound on what statement r(x, y) adds to 1 - p of any one
        candidate, or None when the statement is to be enumerated.

        Per candidate, the statement contributes one factor per partner
        (y2, P(y, y2)) and relation q of a statement q(y2, x2). Since
        1 - prod(1 - a_i) <= sum(a_i), the sum over all distinct (y2, q) of
        (both factor weights) * P(y, y2) bounds it. None means the bound
        passes theta, or that the partners land on no more statements than
        there are terms, so that bounding could save no enumeration. A bound
        of 0.0 means every factor of the statement is exactly 1.0.
        """
        key = (r, y)
        if key in self._bounds:
            return self._bounds[key]
        landings = [(pyy, self._landing(y2)) for y2, pyy in parts]
        if sum(n for _, (n, _) in landings) <= sum(len(qs) for _, (_, qs) in landings):
            return None
        coefs = self._coefs[r]
        bound: float | None = None
        mass = 0.0
        terms = 0
        for pyy, (_, qs) in landings:
            for q in qs:
                c1, c2 = coefs.get(q) or self._coefficient(coefs, r, q)
                mass += (c1 + c2) * pyy
                terms += 1
            if mass + terms * _TERM_SLACK > self._limit:
                break
        else:
            bound = 0.0 if mass == 0.0 else mass + terms * _TERM_SLACK
        # only statements that can be bounded are cached; their objects are
        # the ones many instances share
        self._bounds[key] = bound
        return bound

    def row(self, x: int, floor: float) -> tuple[dict[int, float], int, int]:
        """x's candidates scored above `floor`, with their scores; how many
        candidates were scored; and how many of those were ruled out by
        their penalties alone. Where x has decisive penalties, the escaping
        candidates whose penalty product is above `floor` (see `_escaping`)
        are joined with x's statements at once (see `_join`) and scored with
        that product; otherwise every candidate of `candidates` is scored.
        """
        decisive, left = self._decisive, self._left
        terms = [
            (left[y], r2)
            for r, y in zip(self._rels1[x], self._objs1[x])
            for r2 in decisive.get(r, ())
        ] if decisive else None
        if terms:
            penalties, scored = self._escaping(x, terms, floor)
            if not penalties:
                return {}, scored, scored
            acc = self._join(x, penalties)
            ruled_out = scored - len(penalties)
        else:
            penalties, acc = {}, self.candidates(x)
            scored, ruled_out = len(acc), 0
        row: dict[int, float] = {}
        for x2, fs in acc.items():
            p = self.probability(x, x2, fs, floor, penalties.get(x2))
            if p > floor:
                row[x2] = p
        return row, scored, ruled_out

    def candidates(self, x: int) -> dict[int, list[float]]:
        """Factors per candidate partner of x that could score above theta.

        Most statements have one partner that lands on at most one
        statement, such as a literal seed of a unique value. No relation
        repeats there, so there is nothing to bound (see `_bound`): their
        factor is added straight away.
        """
        left, rels1, objs1 = self._left, self._rels1[x], self._objs1[x]
        acc: dict[int, list[float]] = {}
        weak = []
        rels2, objs2 = self._rels2, self._objs2
        for r, y in zip(rels1, objs1):
            parts = left[y]
            if not parts:
                continue
            if len(parts) == 1 and len(objs2[parts[0][0]]) <= 1:
                y2, pyy = parts[0]
                self._add_hits(acc, r, pyy, zip(rels2[y2], objs2[y2]))
                continue
            bound = self._bound(r, y, parts)
            if bound is None:
                self._add_factors(acc, r, parts)
            elif bound > 0.0:
                weak.append((bound, r, y, parts))
        if not weak:
            return acc
        # the smallest bounds stay weak while their sum stays within theta
        weak.sort()
        total = 0.0
        for i, (bound, r, _, parts) in enumerate(weak):
            total += bound
            if total > self._limit:
                for _, r, _, parts in weak[i:]:
                    self._add_factors(acc, r, parts)
                del weak[i:]
                break
        for _, r, _, parts in weak:
            self._add_factors(acc, r, parts, acc)
        return acc

    def _escaping(
        self, x: int, terms: list[tuple[Partners, int]], floor: float
    ) -> tuple[dict[int, float], int]:
        """The candidates x2 that escape each decisive penalty of x and whose
        penalty product P is above `floor`, each with P, and how many
        escaped. Each term (parts, r2), from a statement r(x, y) with y's
        partners `parts`, needs a statement r2(x2, y2) with y2 among them.
        No other candidate can be stored (see `_decisive_relations`), so x
        has none where a term's y has no partner.

        The term whose partners have the fewest statements is walked for its
        candidates; each other term keeps those that have such a statement,
        read off the candidate's objects grouped by relation. P is formed as
        `probability` forms it, and where P <= floor the pair is ruled out,
        as p P <= P for every p <= 1. A candidate kept always has a positive
        factor: the landing through which it escapes has a positive weight,
        as the penalty weight that makes the term decisive does."""
        if not all(parts for parts, _ in terms):
            return {}, 0
        rels2, objs2, grouped = self._rels2, self._objs2, self._objs
        terms.sort(key=lambda term: sum(len(objs2[y2]) for y2, _ in term[0]))
        (parts, r2), rest = terms[0], terms[1:]
        q = r2 ^ 1  # r2(x2, y2) seen from its object side
        kept: dict[int, float] = {}
        escaped = 0
        for x2 in dict.fromkeys(
            x2 for y2, _ in parts for q2, x2 in zip(rels2[y2], objs2[y2]) if q2 == q
        ):
            objs = grouped.get(x2)  # None for a term that is not an instance
            if objs is None or not all(
                any(y2 in objs.get(r2, ()) for y2, _ in parts) for parts, r2 in rest
            ):
                continue
            escaped += 1
            penalty = self._penalty(x, x2, 1.0, floor)
            if penalty is not None and penalty > floor:
                kept[x2] = penalty
        return kept, escaped

    def _join(self, x: int, among: Collection[int]) -> dict[int, list[float]]:
        """Every factor of x on each candidate in `among` that one of x's
        statements lands on, from `_add_factors` for each statement whose
        object has partners."""
        acc: dict[int, list[float]] = {}
        left = self._left
        for r, y in zip(self._rels1[x], self._objs1[x]):
            parts = left[y]
            if parts:
                self._add_factors(acc, r, parts, among)
        return acc

    def _penalty_weights(
        self, subrel: InclusionTable | None
    ) -> dict[int, tuple[PenaltyWeight, ...]]:
        """Per first-ontology relation r, one entry per aligned relation r2
        of r, that is per r2 with a stored inclusion score either way: r2 and
        the two weights fun1(r) P(r2 in r) and fun2(r2) P(r in r2), each 0.0
        where its inclusion is not stored, which makes its factor exactly
        1.0. Empty during the bootstrap iteration (the prior is implicit), so
        penalties only ever weigh computed alignments."""
        if subrel is None:
            return {}
        aligned: dict[int, set[int]] = {}
        for r1, r2 in subrel.o1_to_o2:
            aligned.setdefault(r1, set()).add(r2)
        for r2, r1 in subrel.o2_to_o1:
            aligned.setdefault(r1, set()).add(r2)
        weights: dict[int, tuple[PenaltyWeight, ...]] = {}
        for r, r2s in aligned.items():
            fr = self._fun1(r)
            weights[r] = tuple(
                (r2, fr * self._sub21(r2, r), self._fun2(r2) * self._sub12(r, r2))
                for r2 in sorted(r2s)
            )
        return weights

    def _decisive_relations(self, theta: float) -> dict[int, tuple[int, ...]]:
        """Per first-ontology relation r, the aligned relations r2 against
        which a statement r(x, y) has a decisive penalty: one of its two
        weights w has 1 - w <= theta. A candidate x2 with no statement
        r2(x2, y2) for a partner y2 of y has the inner product 1.0, so the
        factor 1 - w, and for every positive score p <= 1, p (1 - w) <= theta,
        as float multiplication is monotone: the pair can never be stored."""
        decisive: dict[int, tuple[int, ...]] = {}
        for r, entries in self._weights.items():
            r2s = tuple(
                r2 for r2, w21, w12 in entries if 1.0 - max(w21, w12) <= theta
            )
            if r2s:
                decisive[r] = r2s
        return decisive

    def _penalty_plan(self, x: int) -> list[PenaltyTerm]:
        """The part of x's penalties that does not depend on the candidate:
        one term per statement r(x, y) and entry (r2, w21, w12) of r's
        penalty weights, holding y's partners, r2 and the two weights."""
        weights, left = self._weights, self._left
        return [
            (left[y], r2, w21, w12)
            for r, y in zip(self._rels1[x], self._objs1[x])
            for r2, w21, w12 in weights.get(r, ())
        ]

    def _penalty(self, x: int, x2: int, p: float, floor: float) -> float | None:
        """The ascending product of the negative-evidence factors: statements
        of x whose objects have no equal among x2's objects under an aligned
        relation count against the pair. None as soon as one factor f has
        p f <= floor: the pair's score p prod(factors) can then not exceed
        floor (see `probability`).

        A candidate that lacks an aligned relation entirely is penalized
        through the empty inner product (worth exactly 1), i.e. having the
        relation and disagreeing is no worse than not having it at all.
        x's plan (see `_penalty_plan`) is built once for all its candidates;
        each weight w is fixed before the inner product, as in
        1 - fun(r) P(incl) inner, which multiplies left to right. A weight
        of 0.0 gives the factor exactly 1.0, which neither cuts the pair
        (p > floor wherever this runs) nor moves the product.
        """
        if x != self._plan_of:
            self._plan_of, self._plan = x, self._penalty_plan(x)
        objs2 = self._objs[x2]
        pens: list[float] = []
        for parts, r2, w21, w12 in self._plan:
            inner = 1.0
            for y2 in objs2.get(r2, ()):
                # y's partners ascend, so the scan stops at y2's place
                for b, pe in parts:
                    if b >= y2:
                        if b == y2:
                            inner *= 1.0 - pe
                        break
            for w in (w21, w12):
                f = 1.0 - w * inner
                if p * f <= floor:
                    return None
                pens.append(f)
        return _sorted_product(pens)

    def probability(
        self,
        x: int,
        x2: int,
        factors: list[float],
        floor: float = 0.0,
        penalty: float | None = None,
    ) -> float:
        """The pair's score from its positive factors: p = 1 - prod(factors),
        times the penalty product under negative evidence. `row` passes the
        product `_escaping` formed for a candidate as `penalty`; it is then
        used as it is.

        The value is exact whenever the score is above `floor`, and not above
        `floor` otherwise. Penalties are walked only for p > floor, and the
        walk stops at the first penalty f with p f <= floor. Both cuts are
        exact: every factor lies in [0, 1] and float multiplication is
        monotone, so the ascending product of the penalties is at most each
        of them, and p times it at most p f. With the default floor 0.0 every
        value is exact, since no score is negative.
        """
        p = 1.0 - _sorted_product(factors)
        if not self._weights or p <= floor:
            return p
        if penalty is None:
            penalty = self._penalty(x, x2, p, floor)
            if penalty is None:
                return 0.0
        return p * penalty


def _sorted_product(factors: list[float]) -> float:
    factors.sort()
    prod = 1.0
    for f in factors:
        prod *= f
    return prod


def instance_equivalence(state: AlignmentState, x: int, x2: int) -> float:
    """Equivalence of one candidate pair, as the next sweep computes it.

    Reads the state's tables as the previous iteration and applies the
    state's own config, negative evidence included. The value is not floored:
    the sweep stores it only if it is above theta. x is a first-ontology
    instance, x2 second. Each call builds the sweep's evidence view from the
    state's seeds and assignment, so it costs a copy of both seed lists; for
    many pairs, run the sweep.
    """
    ev = EvidenceView(state.literals, state.assignment)
    factors = _InstanceFactors(state, ev)
    return factors.probability(x, x2, factors._join(x, (x2,)).get(x2, []))


def update_all_instances(
    state: AlignmentState, counts: dict[str, int] | None = None
) -> tuple[EquivalenceTable, int]:
    """One full instance sweep: a fresh table from the previous snapshot.

    Returns the new table and the number of candidate pairs evaluated. Given
    `counts`, it also sets `counts["pairs_ruled_out_by_penalties"]` (see
    `IterationStats`). The sweep never enumerates the full cross product:
    candidates come only from shared evidence, and only through statements
    that could lift a pair over theta (see `_InstanceFactors`).
    """
    theta = state.config.theta
    factors = _InstanceFactors(state, EvidenceView(state.literals, state.assignment))
    rels_of = state.o1.subject_relations
    rows: dict[int, dict[int, float]] = {}
    evaluated = ruled_out = 0
    for x in state.o1.instances():
        if not rels_of[x]:
            continue
        row, scored, pruned = factors.row(x, theta)
        evaluated += scored
        ruled_out += pruned
        if row:
            rows[x] = row
    if counts is not None:
        counts["pairs_ruled_out_by_penalties"] = ruled_out
    return EquivalenceTable(state.literals, rows), evaluated


def compute_maximal_assignment(
    table: EquivalenceTable, o1: Ontology, o2: Ontology
) -> MaximalAssignment:
    """Per-instance argmax over stored scores, both directions, from one pass
    over the table's forward rows. These are instance rows only: the seeds
    are not among them.

    Each instance's best partner has the highest p, and among equal p the
    lexically smallest identifier. Lexical forms are unique within an
    ontology, so this order is total and the result does not depend on the
    order of the rows; only the key order of `backward` follows it.
    """
    lex1, lex2 = o1.lexical, o2.lexical
    forward: dict[int, tuple[int, float]] = {}
    backward: dict[int, tuple[int, float]] = {}
    for a, row in table._fwd.items():
        best: tuple[int, float] | None = None
        for b, p in row.items():
            if best is None or p > best[1] or (p == best[1] and lex2(b) < lex2(best[0])):
                best = (b, p)
            back = backward.get(b)
            if back is None or p > back[1] or (p == back[1] and lex1(a) < lex1(back[0])):
                backward[b] = (a, p)
        if best:
            forward[a] = best
    return MaximalAssignment(forward, backward)


# ------------------------------------------------------------- subrelations


def _subrel_rows(
    side: Ontology,
    other: Ontology,
    partners: list[Partners],
    relation: int,
) -> dict[int, float]:
    """Inclusion scores of a relation r into every candidate relation of the
    other side, from one pass over r's statements. `partners` is the
    evidence view's list for `side`.

    Per statement r(x, y): the chance that (x, y) transported through known
    equalities lands on an r'(x', y') statement (numerator, per candidate r'),
    against the chance that it lands on any known pair at all (denominator).
    Each is one minus the ascending product of the misses 1 - P(u) P(v) of
    the transported pairs (u, v) concerned, so it does not depend on the
    order in which they are visited (see `update_subrelations`).
    """
    rels = other.relations_between
    num: dict[int, float] = {}
    den = 0.0
    for x, y in side.pairs(relation):
        ex = partners[x]
        if not ex:
            continue
        ey = partners[y]
        if not ey:
            continue
        if len(ex) == 1 and len(ey) == 1:
            # one transported pair: its products are its one miss
            (u, pu), = ex
            (v, pv), = ey
            hit = 1.0 - (1.0 - pu * pv)
            den += hit
            for q in rels(u, v):
                num[q] = num.get(q, 0.0) + hit
            continue
        misses: list[float] = []
        per_rel: dict[int, list[float]] = {}
        for u, pu in ex:
            for v, pv in ey:
                miss = 1.0 - pu * pv
                misses.append(miss)
                for q in rels(u, v):
                    per_rel.setdefault(q, []).append(miss)
        den += 1.0 - _sorted_product(misses)
        for q, fs in per_rel.items():
            num[q] = num.get(q, 0.0) + (1.0 - _sorted_product(fs))
    if den <= 0.0:
        return {}
    return {q: v / den for q, v in num.items() if v > 0.0}


def update_subrelations(state: AlignmentState) -> InclusionTable:
    """Relation-inclusion sweep over the state's assignment, the one just
    computed.

    Inverse relations are first-class: every directed pair with any shared
    evidence gets a computed score, including a relation against its own
    cross-ontology namesake (never hardcoded). r's inverse has r's
    statements, transposed and in the same order, and the other side's
    relations between (y', x') are the inverses of those between (x', y'),
    so P(r^-1 in q^-1) = P(r in q): each row is computed once and written as
    (r, q), then as (r ^ 1, q ^ 1)."""
    ev = EvidenceView(state.literals, state.assignment)
    out = InclusionTable()
    for side, other, partners, scores in (
        (state.o1, state.o2, ev.left, out.o1_to_o2),
        (state.o2, state.o1, ev.right, out.o2_to_o1),
    ):
        for r in side.relation_ids()[::2]:  # each inverse is written with r
            if not side.relation_subjects[r]:
                continue
            row = _subrel_rows(side, other, partners, r)
            for q, p in row.items():
                scores[(r, q)] = p
            for q, p in row.items():
                scores[(r ^ 1, q ^ 1)] = p
    return out


# ------------------------------------------------------------------- classes


def _class_rows(
    side: Ontology,
    other: Ontology,
    partners: list[Partners],
    cls: int,
) -> dict[int, float]:
    """Inclusion of one class into every candidate class of the other side:
    the average, over its instances, of the probability that some other-side
    class member is equal. Returns each candidate's score."""
    insts = side.instances_of(cls)
    if not insts:
        return {}
    acc: dict[int, float] = {}
    for x in insts:
        prods: dict[int, float] = {}
        for x2, p in partners[x]:
            for c2 in other.classes_of(x2):
                prods[c2] = prods.get(c2, 1.0) * (1.0 - p)
        for c2, prod in prods.items():
            contribution = 1.0 - prod
            if contribution > 0.0:
                acc[c2] = acc.get(c2, 0.0) + contribution
    n = len(insts)
    return {c2: v / n for c2, v in acc.items()}


def compute_class_alignment(state: AlignmentState) -> InclusionTable:
    """Directed class inclusions from the final equivalences, both ways."""
    ev = EvidenceView(state.literals, state.assignment)
    out = InclusionTable()
    for side, other, partners, scores in (
        (state.o1, state.o2, ev.left, out.o1_to_o2),
        (state.o2, state.o1, ev.right, out.o2_to_o1),
    ):
        for c in sorted(side.classes()):
            for c_other, p in _class_rows(side, other, partners, c).items():
                scores[(c, c_other)] = p
    return out


# ------------------------------------------------------------------ fixpoint


def _assignment_change(
    prev: MaximalAssignment, new: MaximalAssignment
) -> tuple[int, int]:
    """How many instances changed partner, over how many were ever assigned."""
    changed = 0
    tracked = 0
    for old, fresh in ((prev.forward, new.forward), (prev.backward, new.backward)):
        keys = old.keys() | fresh.keys()
        tracked += len(keys)
        for k in keys:
            a = old.get(k)
            b = fresh.get(k)
            if (a and a[0]) != (b and b[0]):
                changed += 1
    return changed, tracked


def step(state: AlignmentState) -> tuple[AlignmentState, IterationStats]:
    """One full iteration: instance sweep, assignment, relation sweep.

    Returns the next state. `state` stays as it was, and readable: the
    iteration advances a copy of it, so it frees nothing of it. The body
    is `run_fixpoint`'s (see `_advance`).
    """
    state = replace(state)
    stats = _advance(state)
    return state, stats


def _advance(state: AlignmentState) -> IterationStats:
    """Advance `state` in place to the next iteration's: the iteration body
    of `step` and `run_fixpoint`.

    Each part of the state is replaced once its last reader is done, so
    where nothing else holds the parts, as in `run_fixpoint`, each is freed
    then:

    * the table at once, before the instance sweep: no phase reads it;
    * the assignment after the change count.

    Each sweep builds its evidence view from the state's assignment and
    drops it when done, so the assignment phase runs without the instance
    sweep's view, and the relation sweep and the class phase without the
    previous assignment.
    """
    phases: Phases = {}
    counts: dict[str, int] = {}
    with timed(phases, "instance_sweep"):
        state.equiv = None
        state.equiv, evaluated = update_all_instances(state, counts)
    with timed(phases, "assignment"):
        assignment = compute_maximal_assignment(state.equiv, state.o1, state.o2)
        changed, tracked = _assignment_change(state.assignment, assignment)
        state.assignment = assignment
    with timed(phases, "relation_sweep"):
        state.subrel = update_subrelations(state)
    state.iteration += 1
    return IterationStats(
        iteration=state.iteration,
        changed=changed,
        tracked=tracked,
        change_fraction=(changed / tracked) if tracked else 0.0,
        equivalences=len(state.equiv),
        subrelations=len(state.subrel),
        pairs_evaluated=evaluated,
        pairs_ruled_out_by_penalties=counts["pairs_ruled_out_by_penalties"],
        phases=phases,
    )


def run_fixpoint(
    o1: Ontology, o2: Ontology, config: AlignmentConfig | None = None
) -> AlignmentResult:
    """Align two ontologies end to end.

    One state is advanced in place (see `_advance`), and nothing else holds
    its parts: each table is freed before the next instance sweep, and
    each assignment before the next relation sweep. The last state's table
    and assignment go into the result; the class phase builds its evidence
    view from the last assignment.
    """
    cfg = config or AlignmentConfig()
    phases: Phases = {}
    with timed(phases, "functionality"):
        fun1 = build_functionality_table(o1)
        fun2 = build_functionality_table(o2)
    with timed(phases, "seed"):
        state = bootstrap(o1, o2, cfg, fun1, fun2)
    history: list[IterationStats] = []
    converged = False
    for _ in range(cfg.max_iterations):
        stats = _advance(state)
        history.append(stats)
        log.info(
            "iteration %d: %d/%d assignments changed (%.2f%%),"
            " %d equivalences, %d subrelations, %.2fs",
            stats.iteration, stats.changed, stats.tracked,
            100.0 * stats.change_fraction, stats.equivalences,
            stats.subrelations, stats.seconds,
        )
        if stats.changed == 0 or stats.change_fraction < cfg.convergence_fraction:
            converged = True
            break
    with timed(phases, "classes"):
        classes = compute_class_alignment(state)
    if not converged and cfg.max_iterations > 0:
        log.warning("stopped at max_iterations=%d without converging", cfg.max_iterations)
    return AlignmentResult(
        o1=o1, o2=o2, config=cfg, equiv=state.equiv, assignment=state.assignment,
        subrel=state.subrel if state.subrel is not None else InclusionTable(),
        classes=classes, iterations=history, converged=converged, phases=phases,
    )


# ------------------------------------------------------------------- reports

CLASS_SCORE_FLOOR = 0.4  # least class-inclusion score that result_rows reports


def _inclusion_rows(
    table: InclusionTable,
    kind: str,
    lexical1: Callable[[int], str],
    lexical2: Callable[[int], str],
) -> list[AlignmentRow]:
    """One row per entry of `table`, both directions, with the first
    ontology's term on the left; `lexical1` and `lexical2` name the terms of
    each ontology."""
    rows = [
        AlignmentRow(lexical1(a), lexical2(b), p, kind, "left_in_right")
        for (a, b), p in table.o1_to_o2.items()
    ]
    rows += [
        AlignmentRow(lexical1(a), lexical2(b), p, kind, "right_in_left")
        for (b, a), p in table.o2_to_o1.items()
    ]
    return rows


def result_rows(
    result: AlignmentResult,
) -> tuple[list[AlignmentRow], list[AlignmentRow], list[AlignmentRow]]:
    """Materialize the result as alignment rows (instances, relations, classes).

    Instance rows are the forward maximal assignment. Relation and class rows
    come from their inclusion tables, one row per entry (see
    `_inclusion_rows`); a class row is kept when its score is at least
    `CLASS_SCORE_FLOOR`.
    """
    o1, o2 = result.o1, result.o2
    instances = [
        AlignmentRow(o1.lexical(x), o2.lexical(b), p, "instance", "equivalence")
        for x, (b, p) in result.assignment.forward.items()
    ]
    relations = _inclusion_rows(
        result.subrel, "relation", o1.relation_lexical, o2.relation_lexical
    )
    classes = [
        row for row in _inclusion_rows(result.classes, "class", o1.lexical, o2.lexical)
        if row.score >= CLASS_SCORE_FLOOR
    ]
    return instances, relations, classes
