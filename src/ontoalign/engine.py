"""Fixpoint alignment of two ontologies.

Each iteration recomputes instance-equivalence probabilities from the previous
iteration's tables (a full snapshot read, never in-place), derives the maximal
assignment, then recomputes relation-inclusion probabilities from the fresh
equivalences. Iteration stops when fewer than a configured fraction of the
assigned instances change partner. Class inclusions are computed once, at the
end, from the final assignment.

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
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import Callable, Collection, NamedTuple

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
    functionality always the harmonic mean, as in the PARIS model (the
    `functionality` command keeps the other estimators for inspection).
    """

    theta: float = 0.1  # bootstrap relation-inclusion prior; also the storage floor
    max_iterations: int = 10
    convergence_fraction: float = 0.01  # stop when fewer instances change partner
    negative_evidence: bool = False  # penalize unmatched statements of aligned relations
    literal_mode: str = "strict"
    class_score_threshold: float = 0.4  # reporting floor for class rows
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
        if not 0.0 <= self.class_score_threshold <= 1.0:
            problems.append(
                f"class_score_threshold must be in [0, 1], got {self.class_score_threshold!r}"
            )
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

    `seconds` is the whole iteration's wall time. The three phase times
    within it are the instance sweep and the relation sweep, each with the
    build of its evidence view, and the assignment with its change count.
    `peak_rss_mb` is the process's peak resident memory at the iteration's
    end (see `peak_rss_mb`), None without the `resource` module.
    """

    iteration: int
    changed: int
    tracked: int  # instances assigned in this or the previous iteration
    change_fraction: float
    equivalences: int
    subrelations: int
    pairs_evaluated: int
    pairs_ruled_out_by_penalties: int
    seconds: float
    instance_sweep_seconds: float
    assignment_seconds: float
    relation_sweep_seconds: float
    peak_rss_mb: float | None


def peak_rss_mb() -> float | None:
    """This process's peak resident set size so far, in MB (2**20 bytes);
    None on a platform without the `resource` module."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # kilobytes on Linux, bytes on macOS
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


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

    def instance_pairs(self):
        """The instance rows' pairs, in row order."""
        for left, row in self._fwd.items():
            for right, p in row.items():
                yield left, right, p

    def pairs(self):
        """Every stored pair: the seeds, then the instance rows."""
        for left, parts in enumerate(self._seeds):
            for right, p in parts:
                yield left, right, p
        yield from self.instance_pairs()

    def __len__(self) -> int:
        return self._n + sum(map(len, self._seeds))


@dataclass
class MaximalAssignment:
    """Per-instance argmax of the equivalence table, both directions.

    forward maps first-ontology instances to their best second-ontology
    partner (and score); backward is the mirror. Ties break toward the
    lexically smallest partner identifier. A pair that is best both ways
    carries the same p in both maps, the p of its table row. Treat as
    immutable: `partners` is built from the two maps once.
    """

    forward: dict[int, tuple[int, float]] = field(default_factory=dict)
    backward: dict[int, tuple[int, float]] = field(default_factory=dict)

    @cached_property
    def partners(self) -> tuple[dict[int, Partners], dict[int, Partners]]:
        """The assignment's pairs, forward and backward, as partner maps seen
        from the first ontology and from the second (as `_partner_maps`
        gives them). Built on first use, then shared by every evidence view
        over this assignment."""
        return (
            _assignment_partners(self.forward, self.backward),
            _assignment_partners(self.backward, self.forward),
        )


def _assignment_partners(
    best: dict[int, tuple[int, float]], mirror: dict[int, tuple[int, float]]
) -> dict[int, Partners]:
    """Each term's partners in an assignment: its own best, from `best`, and
    every term whose best it is, from `mirror`. A term is usually its best's
    best, so most terms get the one-entry tuple of their best, shared with
    `best`; only the others are sorted."""
    out: dict[int, Partners] = {t: (entry,) for t, entry in best.items()}
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


@dataclass
class SubrelationTable:
    """Directed relation-inclusion probabilities, sparse, both directions."""

    o1_to_o2: dict[tuple[int, int], float] = field(default_factory=dict)
    o2_to_o1: dict[tuple[int, int], float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.o1_to_o2) + len(self.o2_to_o1)


@dataclass
class ClassAlignmentTable:
    """Directed class-inclusion probabilities with supporting-instance counts."""

    o1_to_o2: dict[tuple[int, int], tuple[float, int]] = field(default_factory=dict)
    o2_to_o1: dict[tuple[int, int], tuple[float, int]] = field(default_factory=dict)


Partners = tuple[tuple[int, float], ...]  # (partner, probability), ascending by partner
# Per second-ontology instance, its objects per relation (see `_penalty_index`).
PenaltyIndex = dict[int, dict[int, list[int]]]


def _partner_maps(
    pairs: list[tuple[int, int, float]],
) -> tuple[dict[int, Partners], dict[int, Partners]]:
    """Each term's partners, seen from the first ontology and from the
    second."""
    return _grouped_partners(pairs, 0, 1), _grouped_partners(pairs, 1, 0)


def _grouped_partners(
    pairs: list[tuple[int, int, float]], term: int, partner: int
) -> dict[int, Partners]:
    """The partners of each term at position `term` of the pairs, which
    list each pair once. A sort groups the pairs by term and partner, with
    no dict per term kept alive."""
    out: dict[int, Partners] = {}
    ordered = sorted(pairs, key=itemgetter(term, partner))
    for t, run in groupby(ordered, itemgetter(term)):
        parts = [(pair[partner], pair[2]) for pair in run]
        out[t] = tuple(parts)
    return out


def _by_term(base: list[Partners], partners: dict[int, Partners]) -> list[Partners]:
    """A copy of `base`, a list of partner tuples indexed by term id, with
    the entries of `partners` written over it."""
    out = base.copy()
    for term, parts in partners.items():
        out[term] = parts
    return out


class LiteralShare(NamedTuple):
    """The clamped seed pairs' partner tuples (see `_partner_maps`), per
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
    """Everything one iteration reads; treat as an immutable snapshot.

    The literal seeds' partner maps in `literals` are built once, by
    `bootstrap`, and passed on unchanged from state to state; so is the
    `penalty_index` (see `_penalty_index`), empty without negative evidence.
    """

    o1: Ontology
    o2: Ontology
    config: AlignmentConfig
    fun1: FunctionalityTable
    fun2: FunctionalityTable
    literals: LiteralShare
    penalty_index: PenaltyIndex
    equiv: EquivalenceTable
    assignment: MaximalAssignment
    subrel: SubrelationTable | None  # None means the uniform bootstrap prior
    iteration: int = 0

    @property
    def literal_seeds(self) -> list[tuple[int, int, float]]:
        """The seed pairs (a, b, p), rebuilt from `literals` on each read."""
        return [(a, b, p) for a, parts in enumerate(self.literals.left_sorted) for b, p in parts]


@dataclass
class AlignmentResult:
    """A finished run. `functionality_seconds` is the wall time of both
    functionality tables, `seed_seconds` that of the rest of `bootstrap`
    (the literal seeds and their partner maps), and `class_seconds` that of
    the class inclusions, computed once after the last iteration.
    `seed_peak_rss_mb` is the process's peak resident memory right after
    `bootstrap` (see `peak_rss_mb`)."""

    o1: Ontology
    o2: Ontology
    config: AlignmentConfig
    equiv: EquivalenceTable
    assignment: MaximalAssignment
    subrel: SubrelationTable
    classes: ClassAlignmentTable
    iterations: list[IterationStats]
    converged: bool
    class_seconds: float
    functionality_seconds: float = 0.0
    seed_seconds: float = 0.0
    seed_peak_rss_mb: float | None = None


class EvidenceView:
    """Equality evidence readable during one sweep: `left[t]` is the sorted
    (partner, p) tuple of a first-ontology term t, `right[t]` that of a
    second-ontology term, and () means no partner.

    Each list joins two shares whose terms never meet: seeds pair literals
    with literals only, and sweep rows pair instances with instances only.

    * The literal share is the run's `LiteralShare`: seeds are clamped, so
      every view sees them all.
    * The instance share is the previous maximal assignment alone
      (`assignment.partners`, whose entries carry the stored p), so an
      instance's best partner is among its partners, and a stored pair that
      is best in neither direction carries no evidence. The assignment
      builds it once, so the relation sweep that follows the assignment,
      the next instance sweep and the class phase read one build.

    The lists hold partner tuples only, with no dict per term: the
    penalties find P(y, y2) by a scan of y's tuple (see `_penalty`).
    """

    def __init__(self, literals: LiteralShare, assignment: MaximalAssignment) -> None:
        left, right = assignment.partners
        self.left = _by_term(literals.left_sorted, left)
        self.right = _by_term(literals.right_sorted, right)


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
    kinds = o2.kinds()
    for x2, rels in enumerate(o2.subject_relations):
        if rels and kinds[x2] == INSTANCE:
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
    left, right = _partner_maps(literal_seed_pairs(o1, o2, MEASURES[config.literal_mode]))
    literals = LiteralShare(
        _by_term([()] * o1.term_count(), left), _by_term([()] * o2.term_count(), right)
    )
    return AlignmentState(
        o1=o1, o2=o2, config=config, fun1=fun1, fun2=fun2,
        literals=literals,
        penalty_index=_penalty_index(o2) if config.negative_evidence else {},
        equiv=EquivalenceTable(literals),
        assignment=MaximalAssignment(), subrel=None, iteration=0,
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
PenaltyWeight = tuple[int, float | None, float | None]
# One candidate-independent part of a pair's penalties: the object's sorted
# partners, the aligned relation and the two penalty weights (see
# `_penalty_plan`).
PenaltyTerm = tuple[Partners, int, float | None, float | None]


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
    positive factor is formed, since p <= 1 gives p P <= P. Each other
    candidate gets the full factor list from one join of x's statements with
    its own row (see `of_pair`), so every stored value is unchanged. The
    other instances, every instance of the first iteration and every run
    without negative evidence take the bounded path above.
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
        objs2 = self._objs2
        if all(len(objs2[y2]) <= 1 for y2, _ in parts):
            return None  # fast path: such partners cannot repeat a relation
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
        their penalties alone (see `_escaping`). Where x has no decisive
        penalty, every candidate of `candidates` is scored by `probability`.
        """
        decisive = self._decisive
        if decisive:
            left = self._left
            terms = [
                (left[y], r2)
                for r, y in zip(self._rels1[x], self._objs1[x])
                for r2 in decisive.get(r, ())
            ]
            if terms:
                return self._escaping(x, terms, floor)
        acc = self.candidates(x)
        row: dict[int, float] = {}
        for x2, fs in acc.items():
            p = self.probability(x, x2, fs, floor)
            if p > floor:
                row[x2] = p
        return row, len(acc), 0

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
    ) -> tuple[dict[int, float], int, int]:
        """`row` for an x with decisive penalties: only the candidates x2
        that escape each of them are scored. Each term (parts, r2), from a
        statement r(x, y) with y's partners `parts`, needs a statement
        r2(x2, y2) with y2 among them. No other candidate can be stored (see
        `_decisive_relations`), so x has none where a term's y has no
        partner.

        The term whose partners have the fewest statements is walked for its
        candidates; each other term keeps those that have such a statement,
        read off the candidate's objects grouped by relation. Every survivor
        is scored penalties first: its penalty product P is formed as
        `probability` forms it, and where P <= floor the pair is ruled out,
        as p P <= P for every p <= 1. Only the others are joined with x's
        statements for their positive factors (see `of_pair`). A survivor
        always has one: the landing through which it escapes has a positive
        weight, as the penalty weight that makes the term decisive does."""
        if not all(parts for parts, _ in terms):
            return {}, 0, 0
        rels2, objs2, grouped = self._rels2, self._objs2, self._objs
        terms.sort(key=lambda term: sum(len(objs2[y2]) for y2, _ in term[0]))
        (parts, r2), rest = terms[0], terms[1:]
        q = r2 ^ 1  # r2(x2, y2) seen from its object side
        row: dict[int, float] = {}
        scored = ruled_out = 0
        for x2 in dict.fromkeys(
            x2 for y2, _ in parts for q2, x2 in zip(rels2[y2], objs2[y2]) if q2 == q
        ):
            objs = grouped.get(x2)  # None for a term that is not an instance
            if objs is None or not all(
                any(y2 in objs.get(r2, ()) for y2, _ in parts) for parts, r2 in rest
            ):
                continue
            scored += 1
            penalty = self._penalty(x, x2, 1.0, floor)
            if penalty is None or penalty <= floor:
                ruled_out += 1
                continue
            p = self.probability(x, x2, self.of_pair(x, x2), floor, penalty)
            if p > floor:
                row[x2] = p
        return row, scored, ruled_out

    def of_pair(self, x: int, x2: int) -> list[float]:
        """Every factor of the pair (x, x2), from one join: x2's row is read
        once into a map from each object y2 to the statements q(y2, x2) that
        reach x2 from it, every relation kept, and each statement of x looks
        its object's partners up there."""
        reach: dict[int, list[tuple[int, int]]] = {}
        for q, y2 in zip(self._rels2[x2], self._objs2[x2]):
            reach.setdefault(y2, []).append((q ^ 1, x2))
        acc: dict[int, list[float]] = {}
        left = self._left
        for r, y in zip(self._rels1[x], self._objs1[x]):
            for y2, pyy in left[y]:
                hits = reach.get(y2)
                if hits:
                    self._add_hits(acc, r, pyy, hits)
        return acc.get(x2, [])

    def _penalty_weights(
        self, subrel: SubrelationTable | None
    ) -> dict[int, tuple[PenaltyWeight, ...]]:
        """Per first-ontology relation r, one entry per aligned relation r2
        of r, that is per r2 with a stored inclusion score either way: r2 and
        the two weights fun1(r) P(r2 in r) and fun2(r2) P(r in r2), each None
        where its inclusion is not positive. Empty during the bootstrap
        iteration (the prior is implicit), so penalties only ever weigh
        computed alignments."""
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
            entries = []
            for r2 in sorted(r2s):
                s21 = self._sub21(r2, r)
                s12 = self._sub12(r, r2)
                entries.append((
                    r2,
                    fr * s21 if s21 > 0.0 else None,
                    self._fun2(r2) * s12 if s12 > 0.0 else None,
                ))
            weights[r] = tuple(entries)
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
                r2 for r2, w21, w12 in entries
                if any(w is not None and 1.0 - w <= theta for w in (w21, w12))
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
        1 - fun(r) P(incl) inner, which multiplies left to right.
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
            if w21 is not None:
                f = 1.0 - w21 * inner
                if p * f <= floor:
                    return None
                pens.append(f)
            if w12 is not None:
                f = 1.0 - w12 * inner
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
        times the penalty product under negative evidence. A caller that has
        formed the pair's penalty product already (see `_escaping`) passes it
        as `penalty`; it is then used as it is.

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
    instance, x2 second. Each call builds the sweep's evidence view, so it
    costs a copy of both seed lists; for many pairs, run the sweep.
    """
    ev = EvidenceView(state.literals, state.assignment)
    factors = _InstanceFactors(state, ev)
    return factors.probability(x, x2, factors.of_pair(x, x2))


def _instance_rows(
    state: AlignmentState, ev: EvidenceView
) -> tuple[dict[int, dict[int, float]], int, int]:
    """Stored-pair rows per first-ontology instance, the number of candidate
    pairs evaluated, and how many of those their penalties alone ruled out."""
    theta = state.config.theta
    factors = _InstanceFactors(state, ev)
    kinds1 = state.o1.kinds()
    rows: dict[int, dict[int, float]] = {}
    evaluated = ruled_out = 0
    for x, rels in enumerate(state.o1.subject_relations):
        if not rels or kinds1[x] != INSTANCE:
            continue
        row, scored, pruned = factors.row(x, theta)
        evaluated += scored
        ruled_out += pruned
        if row:
            rows[x] = row
    return rows, evaluated, ruled_out


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
    ev = EvidenceView(state.literals, state.assignment)
    rows, evaluated, ruled_out = _instance_rows(state, ev)
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


def update_subrelations(
    state: AlignmentState, assignment: MaximalAssignment
) -> SubrelationTable:
    """Relation-inclusion sweep over the just-computed maximal assignment.

    Inverse relations are first-class: every directed pair with any shared
    evidence gets a computed score, including a relation against its own
    cross-ontology namesake (never hardcoded). r's inverse has r's
    statements, transposed and in the same order, and the other side's
    relations between (y', x') are the inverses of those between (x', y'),
    so P(r^-1 in q^-1) = P(r in q): each row is computed once and written as
    (r, q), then as (r ^ 1, q ^ 1)."""
    ev = EvidenceView(state.literals, assignment)
    out = SubrelationTable()
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
) -> dict[int, tuple[float, int]]:
    """Inclusion of one class into every candidate class of the other side:
    the average, over its instances, of the probability that some other-side
    class member is equal. Returns score and the number of supporting
    instances."""
    insts = side.instances_of(cls)
    if not insts:
        return {}
    acc: dict[int, float] = {}
    support: dict[int, int] = {}
    for x in insts:
        prods: dict[int, float] = {}
        for x2, p in partners[x]:
            for c2 in other.classes_of(x2):
                prods[c2] = prods.get(c2, 1.0) * (1.0 - p)
        for c2, prod in prods.items():
            contribution = 1.0 - prod
            if contribution > 0.0:
                acc[c2] = acc.get(c2, 0.0) + contribution
                support[c2] = support.get(c2, 0) + 1
    n = len(insts)
    return {c2: (v / n, support[c2]) for c2, v in acc.items()}


def compute_class_alignment(state: AlignmentState) -> ClassAlignmentTable:
    """Directed class inclusions from the final equivalences, both ways."""
    ev = EvidenceView(state.literals, state.assignment)
    out = ClassAlignmentTable()
    for side, other, partners, scores in (
        (state.o1, state.o2, ev.left, out.o1_to_o2),
        (state.o2, state.o1, ev.right, out.o2_to_o1),
    ):
        for c in sorted(side.classes()):
            for c_other, entry in _class_rows(side, other, partners, c).items():
                scores[(c, c_other)] = entry
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
    """One full iteration: instance sweep, assignment, relation sweep."""
    started = time.perf_counter()
    counts: dict[str, int] = {}
    table, evaluated = update_all_instances(state, counts)
    swept = time.perf_counter()
    assignment = compute_maximal_assignment(table, state.o1, state.o2)
    changed, tracked = _assignment_change(state.assignment, assignment)
    assigned = time.perf_counter()
    subrel = update_subrelations(state, assignment)
    finished = time.perf_counter()
    fresh = AlignmentState(
        o1=state.o1, o2=state.o2, config=state.config,
        fun1=state.fun1, fun2=state.fun2,
        literals=state.literals,
        penalty_index=state.penalty_index,
        equiv=table, assignment=assignment, subrel=subrel,
        iteration=state.iteration + 1,
    )
    stats = IterationStats(
        iteration=fresh.iteration,
        changed=changed,
        tracked=tracked,
        change_fraction=(changed / tracked) if tracked else 0.0,
        equivalences=len(table),
        subrelations=len(subrel),
        pairs_evaluated=evaluated,
        pairs_ruled_out_by_penalties=counts["pairs_ruled_out_by_penalties"],
        seconds=time.perf_counter() - started,
        instance_sweep_seconds=swept - started,
        assignment_seconds=assigned - swept,
        relation_sweep_seconds=finished - assigned,
        peak_rss_mb=peak_rss_mb(),
    )
    return fresh, stats


def run_fixpoint(
    o1: Ontology, o2: Ontology, config: AlignmentConfig | None = None
) -> AlignmentResult:
    """Align two ontologies end to end."""
    cfg = config or AlignmentConfig()
    started = time.perf_counter()
    fun1 = build_functionality_table(o1)
    fun2 = build_functionality_table(o2)
    functionality_seconds = time.perf_counter() - started
    started = time.perf_counter()
    state = bootstrap(o1, o2, cfg, fun1, fun2)
    seed_seconds = time.perf_counter() - started
    seed_peak = peak_rss_mb()
    history: list[IterationStats] = []
    converged = False
    for _ in range(cfg.max_iterations):
        state, stats = step(state)
        history.append(stats)
        log.info(
            "iteration %d: %d/%d assignments changed (%.2f%%),"
            " %d equivalences, %d subrelations, %.2fs",
            stats.iteration, stats.changed, stats.tracked,
            100.0 * stats.change_fraction, stats.equivalences,
            stats.subrelations, stats.seconds,
        )
        if stats.change_fraction < cfg.convergence_fraction:
            converged = True
            break
    started = time.perf_counter()
    classes = compute_class_alignment(state)
    class_seconds = time.perf_counter() - started
    if not converged and cfg.max_iterations > 0:
        log.warning("stopped at max_iterations=%d without converging", cfg.max_iterations)
    return AlignmentResult(
        o1=o1, o2=o2, config=cfg, equiv=state.equiv, assignment=state.assignment,
        subrel=state.subrel if state.subrel is not None else SubrelationTable(),
        classes=classes, iterations=history, converged=converged,
        class_seconds=class_seconds, functionality_seconds=functionality_seconds,
        seed_seconds=seed_seconds, seed_peak_rss_mb=seed_peak,
    )


# ------------------------------------------------------------------- reports


def result_rows(
    result: AlignmentResult,
) -> tuple[list[AlignmentRow], list[AlignmentRow], list[AlignmentRow]]:
    """Materialize the result as alignment rows (instances, relations, classes).

    Instance rows are the forward maximal assignment. Relation and class rows
    keep the first ontology's term on the left and encode the inclusion
    direction explicitly; class rows respect the reporting threshold.
    """
    o1, o2, cfg = result.o1, result.o2, result.config
    instances = [
        AlignmentRow(o1.lexical(x), o2.lexical(b), p, "instance", "equivalence")
        for x, (b, p) in result.assignment.forward.items()
    ]
    relations = [
        AlignmentRow(
            o1.relation_lexical(r1), o2.relation_lexical(r2), p,
            "relation", "left_in_right",
        )
        for (r1, r2), p in result.subrel.o1_to_o2.items()
    ]
    relations += [
        AlignmentRow(
            o1.relation_lexical(r1), o2.relation_lexical(r2), p,
            "relation", "right_in_left",
        )
        for (r2, r1), p in result.subrel.o2_to_o1.items()
    ]

    classes = [
        AlignmentRow(o1.lexical(c1), o2.lexical(c2), p, "class", "left_in_right")
        for (c1, c2), (p, _) in result.classes.o1_to_o2.items()
        if p >= cfg.class_score_threshold
    ]
    classes += [
        AlignmentRow(o1.lexical(c1), o2.lexical(c2), p, "class", "right_in_left")
        for (c2, c1), (p, _) in result.classes.o2_to_o1.items()
        if p >= cfg.class_score_threshold
    ]
    return instances, relations, classes
