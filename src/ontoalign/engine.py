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
from functools import cached_property
from operator import itemgetter
from typing import Callable, Collection, Iterator

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
    the pairs reached through a strong landing group, one whose bounded
    contribution could lift a pair over theta, with a nonzero weight (see
    `_InstanceFactors`). Pairs reached only through weak groups, such as a
    hub value's holders or a city's people under a crossed inclusion, or
    only through zero-weight landings are never scored, since they could
    never be stored. Iteration 2 scores 90 379 pairs on the benchmark's
    `clean` input (seed 1) and 18 397 on `hub` (seed 1), against 165 463
    and 33 530 when whole statements were bounded; `negative` scores 22 620
    per run either way.

    Under negative evidence, an instance with a decisive penalty has only
    the candidates that escape it scored, and none where the penalty's
    object has no partner: a penalty alone would take every other candidate
    to theta or below (see `_InstanceFactors`). So the count drops under
    negative evidence, while every stored pair stays the same.
    `instances_ruled_out` counts the instances of that last kind, found
    before any of their candidates (see `_InstanceFactors.stranded`); it is
    0 without negative evidence and in the first iteration.

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
    instances_ruled_out: int
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

    The seeds are the left partner tuples of the run's `LiteralShare`, read
    in place, so a table holds them without copying them; `get` takes
    first-ontology terms only. The table keeps no reference to the share's
    right tuples, so a result does not keep them alive, and counts the
    seeds once, through the share's `len()`. The instance rows, kept by
    first-ontology term, are adopted as they are given (a sweep hands over
    its own); the assignment takes both of its directions from these
    forward rows. Seeds pair literals with literals and instance rows pair
    instances with instances, so the two never share a key. `get`, `pairs`
    and `len` cover both.
    """

    def __init__(
        self, literals: LiteralShare, rows: dict[int, dict[int, float]] | None = None
    ) -> None:
        self._seeds = literals.left_sorted
        self._fwd: dict[int, dict[int, float]] = {} if rows is None else rows
        self._n = len(literals) + sum(map(len, self._fwd.values()))

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
        return self._n


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


class LiteralShare:
    """The clamped seed pairs' partner tuples, per ontology a list indexed
    by term id, with () for a term without seeds: the literal share of every
    equivalence table and every evidence view. `literal_seed_pairs` builds
    it, and literals that share a key share one tuple.

    Seeds never change, so `bootstrap` builds this once per run, and every
    later state, table and view reads it in place. A lookup of one pair's p
    searches its term's tuple. `len()` is the number of seed pairs, each
    counted once, from the left tuples.
    """

    __slots__ = ("left_sorted", "right_sorted")

    def __init__(self, left_sorted: list[Partners], right_sorted: list[Partners]) -> None:
        self.left_sorted = left_sorted
        self.right_sorted = right_sorted

    def __len__(self) -> int:
        return sum(map(len, self.left_sorted))


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
) -> LiteralShare:
    """Every pair of cross-ontology literals that share a normalization key,
    at p = 1, as the run's `LiteralShare`.

    One join of the two sides' key maps (see `build_key_index`) writes each
    literal's partner tuple, with no pair list and no sort. A key with one
    literal on each side gives each its one-entry tuple; a key with several
    literals on either side gives all of one side's literals one shared,
    ascending tuple of the other side's. The name is older than the share:
    the benchmark wraps this function as its seed span and counts the seeds
    by `len()` of what it returns.
    """
    first1, more1 = build_key_index(o1, key)
    first2, more2 = build_key_index(o2, key)
    left: list[Partners] = [()] * o1.term_count()
    right: list[Partners] = [()] * o2.term_count()
    get2 = first2.get
    single: list[int] = []  # the left literal of each key with one per side
    for k, a in first1.items():
        b = get2(k)
        if b is None:
            continue
        if k not in more1 and k not in more2:
            left[a] = ((b, 1.0),)
            single.append(a)
            continue
        ids1, ids2 = more1.get(k, (a,)), more2.get(k, (b,))
        to2 = tuple([(u, 1.0) for u in ids2])
        to1 = tuple([(t, 1.0) for t in ids1])
        for t in ids1:
            left[t] = to2
        for u in ids2:
            right[u] = to1
    # The right tuples of those keys are made in a pass of their own, so
    # that they lie together in memory: a run's result keeps only the left
    # tuples (see `EquivalenceTable`), and the right ones then free whole
    # blocks for the result rows. Made in the loop above, they left the
    # 50k-person pair about 17 MB more resident when its rows were written.
    for a in single:
        right[left[a][0][0]] = ((a, 1.0),)
    return LiteralShare(left, right)


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
    literals = literal_seed_pairs(o1, o2, MEASURES[config.literal_mode])
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

# A weak landing group is walked when it has at most this many members per
# candidate; otherwise each candidate is looked up in a set of the group's
# members, built once per sweep (see `candidates`). On the weak groups that
# meet a candidate in the benchmark's `clean` and `hub` inputs (seed 1;
# `negative` has none), a walked member costs 0.03-0.07 us, a looked-up
# candidate 0.08-0.10 us and a set 0.06-0.09 us per member to build (best
# of 9 replays of a run's groups, Python 3.11 on a 2-core VM). Their summed
# cost is flat within 1% for ratios from 2 to 8, and so are `align_s` and
# the peak in the benchmark; at 1, `clean` builds 2 523 sets instead of 783
# and peaks about 2 MB higher. The penalty path's join makes the same choice
# per partner y2 (see `_add_factors`), looking a candidate up with
# `Ontology.relations_between`, which cost about four walked members when
# the weak step used it.
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

    The landings of one statement r(x, y) fall into landing groups: one per
    partner y2 of y and relation q, holding the instances x2 with q(y2, x2).
    Every x2 of a group gets the same factor (1 - c0 P(y, y2))
    (1 - c1 P(y, y2)), formed once per group (see `_factor`). Since
    1 - prod(1 - a_i) <= sum(a_i), the group adds at most its bound
    (c0 + c1) P(y, y2) + `_TERM_SLACK` to 1 - p of any one candidate. A hub
    value's holders form one group with a small bound, and so do the people
    of a city reached through a crossed inclusion, such as birth places
    landing on death places. `candidates` enumerates only the strong
    groups, those whose bounds together could lift a pair over theta, then
    gives each candidate the factors of the other ("weak") groups by lookup.
    A pair reached only through weak groups could never be stored; every
    other pair gets the factor list that full enumeration gives, so its
    value is unchanged. Penalties only lower a score, so they change nothing
    of this. Bounding groups rather than whole statements takes the pairs
    iteration 2 scores on the benchmark's `clean` input from 165 463 to
    90 379 (see `IterationStats`).

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
    pair is never stored. So an instance with a decisive statement whose
    object has no partner has no candidate at all; the sweep finds these
    instances in one pass over the decisive relations' statements (see
    `stranded`) and forms nothing for them. Any other instance with
    decisive penalties has only the candidates that escape all of them
    scored (see `_escaping`), penalties first: a candidate whose
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
        self._o1 = state.o1
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
        self._grouped: dict[int, tuple[tuple[int, tuple[int, ...]], ...]] = {}
        # the members of a looked-up weak landing group (y2, q), as a set;
        # filled on first use (see `candidates`)
        self._member_sets: dict[tuple[int, int], frozenset[int]] = {}

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

    def _factor(
        self, coefs: dict[int, tuple[float, float]], r: int, q: int, pyy: float
    ) -> tuple[float, float] | None:
        """The factor of statement r(x, y) on every x2 of the landing group
        (y2, q), where pyy is P(y, y2), and the group's bound: the one place
        a factor is formed. None where both weights are 0.0, so that the
        factor would be exactly 1.0.

        The factor (1 - c0 pyy) (1 - c1 pyy) takes at most (c0 + c1) pyy
        from 1, and the bound adds `_TERM_SLACK` to that."""
        c0, c1 = coefs.get(q) or self._coefficient(coefs, r, q)
        if not (c0 or c1):
            return None
        return (1.0 - c0 * pyy) * (1.0 - c1 * pyy), (c0 + c1) * pyy + _TERM_SLACK

    def _add_factors(
        self,
        acc: dict[int, list[float]],
        r: int,
        parts: Partners,
        among: Collection[int],
    ) -> None:
        """Append the factors of statement r(x, y), whose object has the
        partners `parts`, to the candidates in `among` they land on.

        Each partner y2's statements are walked and kept where they land in
        `among`, unless they outnumber it more than `_WALK_PER_LOOKUP`
        times; then each candidate's statements with y2 are looked up
        instead. Both find the same statements q(y2, x2), each once; only
        their order differs, and factors are multiplied sorted."""
        rels2, objs2, kinds2 = self._rels2, self._objs2, self._kinds2
        coefs = self._coefs[r]
        for y2, pyy in parts:
            if len(objs2[y2]) <= _WALK_PER_LOOKUP * len(among):
                hits = [(q, x2) for q, x2 in zip(rels2[y2], objs2[y2]) if x2 in among]
            else:
                between = self._between2
                hits = [(q, x2) for x2 in among for q in between(y2, x2)]
            for q, x2 in hits:
                if kinds2[x2] != INSTANCE:
                    continue
                weighed = self._factor(coefs, r, q, pyy)
                if weighed is not None:
                    acc.setdefault(x2, []).append(weighed[0])

    def _groups(self, y2: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """y2's landing groups: per relation q of a statement q(y2, x2) with
        an instance x2, q and those x2, each once. () where no relation
        repeats among y2's statements, so that each landing is a group of
        its own, walked straight from the columns. Kept for the sweep."""
        groups = self._grouped.get(y2)
        if groups is None:
            rels = self._rels2[y2]
            groups = ()
            if len(set(rels)) < len(rels):
                kinds2 = self._kinds2
                members: dict[int, list[int]] = {}
                for q, x2 in zip(rels, self._objs2[y2]):
                    if kinds2[x2] == INSTANCE:
                        members.setdefault(q, []).append(x2)
                groups = tuple((q, tuple(x2s)) for q, x2s in members.items())
            self._grouped[y2] = groups
        return groups

    @cached_property
    def stranded(self) -> set[int]:
        """The first-ontology instances with a statement r(x, y) whose
        relation r is decisive and whose object y has no partner: no
        candidate of x escapes that penalty (see `_decisive_relations`), so
        x has none. Found in one pass over the decisive relations' columns,
        on the first read; the one-pair operation never reads it.

        The decisive relations include inverses, whose subjects are mostly
        literals; only instances are kept."""
        out: set[int] = set()
        if not self._decisive:
            return out
        o1, left = self._o1, self._left
        kinds1 = o1.kinds()
        for r in self._decisive:
            for x, y in zip(o1.relation_subjects[r], o1.relation_objects[r]):
                if not left[y] and kinds1[x] == INSTANCE:
                    out.add(x)
        return out

    def row(self, x: int, floor: float) -> tuple[dict[int, float], int, int]:
        """x's candidates scored above `floor`, with their scores; how many
        candidates were scored; and how many of those were ruled out by
        their penalties alone. A `stranded` x has no candidate and builds
        no penalty term. Where x has other decisive penalties, the escaping
        candidates whose penalty product is above `floor` (see `_escaping`)
        are joined with x's statements at once (see `_join`) and scored with
        that product; otherwise every candidate of `candidates` is scored.
        """
        decisive, left = self._decisive, self._left
        if decisive and x in self.stranded:
            return {}, 0, 0
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

        Each statement r(x, y) lands through each partner y2 of y on the
        landing groups of y2 (see `_groups`). A group whose bound alone
        passes theta is strong and enumerates its members at once. The
        others are sorted by bound, and the smallest of them stay weak while
        their bounds sum to at most theta; the rest are strong as well. A
        weak group then adds its factor to the candidates the strong groups
        found: it walks its members when they are at most `_WALK_PER_LOOKUP`
        times as many as the candidates, and otherwise looks each candidate
        up in a set of its members, built once per sweep per group.
        """
        left, kinds2 = self._left, self._kinds2
        rels2, objs2 = self._rels2, self._objs2
        limit = self._limit
        acc: dict[int, list[float]] = {}
        # (bound, factor, y2, q, members) of each group within theta alone
        weak: list[tuple[float, float, int, int, tuple[int, ...]]] = []
        for r, y in zip(self._rels1[x], self._objs1[x]):
            coefs = self._coefs[r]
            for y2, pyy in left[y]:
                rels = rels2[y2]
                groups = self._groups(y2) if len(rels) > 1 else ()
                if groups:
                    for q, x2s in groups:
                        weighed = self._factor(coefs, r, q, pyy)
                        if weighed is None:
                            continue
                        f, bound = weighed
                        if bound > limit:
                            for x2 in x2s:
                                acc.setdefault(x2, []).append(f)
                        else:
                            weak.append((bound, f, y2, q, x2s))
                    continue
                for q, x2 in zip(rels, objs2[y2]):
                    if kinds2[x2] != INSTANCE:
                        continue
                    weighed = self._factor(coefs, r, q, pyy)
                    if weighed is None:
                        continue
                    f, bound = weighed
                    if bound > limit:
                        acc.setdefault(x2, []).append(f)
                    else:
                        weak.append((bound, f, y2, q, (x2,)))
        if not weak:
            return acc
        weak.sort(key=itemgetter(0))
        total = 0.0
        for i, group in enumerate(weak):
            total += group[0]
            if total > limit:
                for _, f, _, _, x2s in weak[i:]:
                    for x2 in x2s:
                        acc.setdefault(x2, []).append(f)
                del weak[i:]
                break
        if not acc:
            return acc
        walk = _WALK_PER_LOOKUP * len(acc)
        member_sets = self._member_sets
        for _, f, y2, q, x2s in weak:
            if len(x2s) <= walk:
                for x2 in x2s:
                    fs = acc.get(x2)
                    if fs is not None:
                        fs.append(f)
                continue
            members = member_sets.get((y2, q))
            if members is None:
                members = member_sets[(y2, q)] = frozenset(x2s)
            for x2, fs in acc.items():
                if x2 in members:
                    fs.append(f)
        return acc

    def _escaping(
        self, x: int, terms: list[tuple[Partners, int]], floor: float
    ) -> tuple[dict[int, float], int]:
        """The candidates x2 that escape each decisive penalty of x and whose
        penalty product P is above `floor`, each with P, and how many
        escaped. Each term (parts, r2), from a statement r(x, y) with y's
        partners `parts`, needs a statement r2(x2, y2) with y2 among them.
        No other candidate can be stored (see `_decisive_relations`). Every
        term has partners: x is not `stranded`.

        The term whose partners have the fewest statements, the first of
        them on a tie, is walked for its candidates, in the order its
        partners' statements give them, each once; each other term keeps
        those that have such a statement, read off the candidate's objects
        grouped by relation. P is formed as `probability` forms it, and
        where P <= floor the pair is ruled out, as p P <= P for every
        p <= 1. A candidate kept always has a positive factor: the landing
        through which it escapes has a positive weight, as the penalty
        weight that makes the term decisive does."""
        rels2, objs2, grouped = self._rels2, self._objs2, self._objs
        walked, least = 0, -1
        for i, (parts, _) in enumerate(terms):
            size = 0
            for y2, _ in parts:
                size += len(objs2[y2])
            if least < 0 or size < least:
                walked, least = i, size
        parts, r2 = terms[walked]
        rest = terms[:walked] + terms[walked + 1:]
        q = r2 ^ 1  # r2(x2, y2) seen from its object side
        kept: dict[int, float] = {}
        seen: set[int] = set()
        escaped = 0
        for y2, _ in parts:
            for q2, x2 in zip(rels2[y2], objs2[y2]):
                if q2 != q or x2 in seen:
                    continue
                seen.add(x2)
                objs = grouped.get(x2)  # None for a term that is not an instance
                if objs is None or not _holds_each(objs, rest):
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


def _holds_each(objs: dict[int, list[int]], terms: list[tuple[Partners, int]]) -> bool:
    """Whether a candidate whose objects, grouped by relation, are `objs`
    has for each term (parts, r2) an object under r2 among the partners
    `parts` (see `_InstanceFactors._escaping`)."""
    for parts, r2 in terms:
        held = objs.get(r2)
        if not held:
            return False
        for y2, _ in parts:
            if y2 in held:
                break
        else:
            return False
    return True


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
    `counts`, it also sets `counts["pairs_ruled_out_by_penalties"]` and
    `counts["instances_ruled_out"]` (see `IterationStats`). The sweep never
    enumerates the full cross product: candidates come only from shared
    evidence, and only through statements that could lift a pair over theta
    (see `_InstanceFactors`).
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
        counts["instances_ruled_out"] = len(factors.stranded)
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

    The relations between a transported pair (u, v) are read off the other
    side's columns in the loop, as `Ontology.relations_between` reads them:
    the shorter of u's and v's object tuples is scanned, v's rows inverted,
    and each relation is added in the order that method returns it.
    """
    rels = other.relations_between
    rels_of, objs_of = other.subject_relations, other.subject_objects
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
            col, back = objs_of[u], objs_of[v]
            if len(back) < len(col):  # v's rows, inverted
                col, key, flip = back, u, 1
                qs = rels_of[v]
            else:
                key, flip = v, 0
                qs = rels_of[u]
            n = col.count(key)
            i = -1
            while n:
                i = col.index(key, i + 1)
                q = qs[i] ^ flip
                num[q] = num.get(q, 0.0) + hit
                n -= 1
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
        instances_ruled_out=counts["instances_ruled_out"],
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
    view from the last assignment. A run whose last assignment has no pair
    although both ontologies hold instances logs a warning.
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
    if history and not state.assignment.forward and o1.instances() and o2.instances():
        log.warning(
            "no instance pair assigned after %d iterations at theta=%g",
            len(history), cfg.theta,
        )
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
