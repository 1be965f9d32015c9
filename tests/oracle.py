"""Brute-force reference implementation, used only by tests.

Everything here is written straight from the mathematical definitions with
full enumeration: every instance pair of the cross product is evaluated, every
statement pair is walked, no candidate generation, no sparse shortcuts. The
only index reuse is statement-set membership when locating a relation's
statements between two terms (absent statements contribute exact 1.0 factors,
so membership lookups cannot change any value).

An instance pair's factors, a penalty's misses and a relation statement's
misses are multiplied in ascending order, the documented canonical order; a
class member's misses are multiplied in partner order, as the engine does. So
oracle values should match the engine bit for bit, not just within an
epsilon. Every relation, inverses included, is scored in its own pass.
"""

from __future__ import annotations

from ontoalign.literals import MEASURES
from ontoalign.store import INSTANCE, LITERAL, Ontology


def sorted_product(factors):
    """Ascending-order product: the canonical order for equivalence factors,
    penalty misses and inclusion misses."""
    prod = 1.0
    for f in sorted(factors):
        prod *= f
    return prod


def seq_product(factors):
    """In-order product: the class sweep multiplies in partner-id order."""
    prod = 1.0
    for f in factors:
        prod *= f
    return prod


# ------------------------------------------------------------- functionality


def naive_functionality(onto: Ontology) -> dict[int, float]:
    """Global functionality per relation id, the harmonic mean of the local
    functionalities: distinct subjects over statements."""
    out: dict[int, float] = {}
    for rid in onto.relation_ids():
        stmts = list(onto.pairs(rid))
        out[rid] = len({s for s, _ in stmts}) / len(stmts) if stmts else 1.0
    return out


# ------------------------------------------------------ evidence enumeration


class OracleEvidence:
    """All usable equality evidence, computed by scanning every term pair.

    Literal equality is recomputed from the key definition: p = 1 when the
    two normalization keys are equal and nonempty. Instance equality comes
    from the previous table, and only pairs present in the forward or
    backward argmax count.
    """

    def __init__(self, o1, o2, equiv, fwd, bwd, measure_name):
        key = MEASURES[measure_name]
        self.pairs: dict[tuple[int, int], float] = {}
        for a in range(o1.term_count()):
            ka = o1.kind(a)
            for b in range(o2.term_count()):
                kb = o2.kind(b)
                p = 0.0
                if ka == LITERAL and kb == LITERAL:
                    key_a = key(o1.lexical(a))
                    if key_a and key_a == key(o2.lexical(b)):
                        p = 1.0
                elif ka == INSTANCE and kb == INSTANCE:
                    p = equiv.get((a, b), 0.0)
                    if p > 0.0:
                        ok = (a in fwd and fwd[a][0] == b) or (
                            b in bwd and bwd[b][0] == a
                        )
                        if not ok:
                            p = 0.0
                if p > 0.0:
                    self.pairs[(a, b)] = p

        self.left: dict[int, list[tuple[int, float]]] = {}
        self.right: dict[int, list[tuple[int, float]]] = {}
        for (a, b), p in sorted(self.pairs.items()):
            self.left.setdefault(a, []).append((b, p))
            self.right.setdefault(b, []).append((a, p))

    def p(self, a: int, b: int) -> float:
        return self.pairs.get((a, b), 0.0)


def oracle_seeds(o1, o2, measure_name) -> dict[tuple[int, int], float]:
    """Literal-literal matches, the bootstrap equivalence table."""
    ev = OracleEvidence(o1, o2, {}, {}, {}, measure_name)
    return {
        (a, b): p
        for (a, b), p in ev.pairs.items()
        if o1.kind(a) == LITERAL and o2.kind(b) == LITERAL
    }


# --------------------------------------------------------------- one sweep


def _sub_getters(subrel, theta):
    if subrel is None:
        return (lambda r1, r2: theta), (lambda r2, r1: theta)
    d12, d21 = subrel
    return (
        lambda r1, r2: d12.get((r1, r2), 0.0),
        lambda r2, r1: d21.get((r2, r1), 0.0),
    )


def oracle_instance_sweep(
    o1,
    o2,
    prev_equiv,
    prev_fwd,
    prev_bwd,
    prev_subrel,  # None for the bootstrap prior, else (dict12, dict21)
    fun1,
    fun2,  # dicts: relation id -> functionality
    theta,
    measure_name="strict",
    negative=False,
) -> dict[tuple[int, int], float]:
    """One instance sweep over the full cross product of instances."""
    ev = OracleEvidence(o1, o2, prev_equiv, prev_fwd, prev_bwd, measure_name)
    sub12, sub21 = _sub_getters(prev_subrel, theta)
    if prev_subrel is None:
        penalty_rels: dict[int, list[int]] = {}
    else:
        rels: dict[int, set[int]] = {}
        for (r1, r2) in prev_subrel[0]:
            rels.setdefault(r1, set()).add(r2)
        for (r2, r1) in prev_subrel[1]:
            rels.setdefault(r1, set()).add(r2)
        penalty_rels = {r1: sorted(v) for r1, v in rels.items()}

    new: dict[tuple[int, int], float] = dict(oracle_seeds(o1, o2, measure_name))
    for x in range(o1.term_count()):
        if o1.kind(x) != INSTANCE:
            continue
        for x2 in range(o2.term_count()):
            if o2.kind(x2) != INSTANCE:
                continue
            factors = []
            for r, y in o1.rows(x):
                for r2, y2 in o2.rows(x2):
                    pyy = ev.p(y, y2)
                    if pyy <= 0.0:
                        continue
                    factors.append(
                        (1.0 - sub21(r2, r) * fun1[r ^ 1] * pyy)
                        * (1.0 - sub12(r, r2) * fun2[r2 ^ 1] * pyy)
                    )
            if not factors:
                continue
            p = 1.0 - sorted_product(factors)
            if negative and p > 0.0:
                pens = []
                for r, y in o1.rows(x):
                    for r2 in penalty_rels.get(r, ()):
                        s21 = sub21(r2, r)
                        s12 = sub12(r, r2)
                        if s21 <= 0.0 and s12 <= 0.0:
                            continue
                        inner = sorted_product(
                            [1.0 - ev.p(y, y2) for q, y2 in o2.rows(x2) if q == r2]
                        )
                        if s21 > 0.0:
                            pens.append(1.0 - fun1[r] * s21 * inner)
                        if s12 > 0.0:
                            pens.append(1.0 - fun2[r2] * s12 * inner)
                p *= sorted_product(pens)
            if p > theta:
                new[(x, x2)] = p
    return new


def oracle_assignment(table, o1, o2):
    """Per-side argmax over instance pairs; ties to smallest partner lexical."""
    fwd: dict[int, tuple[int, float]] = {}
    bwd: dict[int, tuple[int, float]] = {}
    for (a, b), p in table.items():
        if o1.kind(a) != INSTANCE or o2.kind(b) != INSTANCE:
            continue
        cur = fwd.get(a)
        if cur is None or p > cur[1] or (p == cur[1] and o2.lexical(b) < o2.lexical(cur[0])):
            fwd[a] = (b, p)
        cur = bwd.get(b)
        if cur is None or p > cur[1] or (p == cur[1] and o1.lexical(a) < o1.lexical(cur[0])):
            bwd[b] = (a, p)
    return fwd, bwd


def oracle_change(prev_fwd, prev_bwd, fwd, bwd):
    changed = 0
    tracked = 0
    for old, new in ((prev_fwd, fwd), (prev_bwd, bwd)):
        keys = set(old) | set(new)
        tracked += len(keys)
        for k in keys:
            a = old.get(k)
            b = new.get(k)
            if (a and a[0]) != (b and b[0]):
                changed += 1
    return changed, tracked


def oracle_subrelations(o1, o2, equiv, fwd, bwd, measure_name="strict"):
    """Relation-inclusion sweep, both directions, by full enumeration."""
    ev = OracleEvidence(o1, o2, equiv, fwd, bwd, measure_name)

    def one_side(side, other, partners, all_other_rels):
        out: dict[tuple[int, int], float] = {}
        statements = {(s, r2, o) for r2 in all_other_rels for s, o in other.pairs(r2)}
        for r in side.relation_ids():
            num: dict[int, float] = {}
            den = 0.0
            for x, y in side.pairs(r):
                ex = partners.get(x, ())
                ey = partners.get(y, ())
                if not ex or not ey:
                    continue
                den_factors = []
                nfactors: dict[int, list[float]] = {}
                for x2, px in ex:
                    for y2, py in ey:
                        miss = 1.0 - px * py
                        den_factors.append(miss)
                        for r2 in all_other_rels:
                            if (x2, r2, y2) in statements:
                                nfactors.setdefault(r2, []).append(miss)
                den += 1.0 - sorted_product(den_factors)
                for r2, fl in nfactors.items():
                    num[r2] = num.get(r2, 0.0) + (1.0 - sorted_product(fl))
            if den > 0.0:
                for r2, v in num.items():
                    if v > 0.0:
                        out[(r, r2)] = v / den
        return out

    rels2 = [r for r in o2.relation_ids() if o2.relation_subjects[r]]
    rels1 = [r for r in o1.relation_ids() if o1.relation_subjects[r]]
    return (
        one_side(o1, o2, ev.left, rels2),
        one_side(o2, o1, ev.right, rels1),
    )


def oracle_classes(o1, o2, equiv, fwd, bwd, measure_name="strict"):
    """Class-inclusion sweep, both directions, by full enumeration."""
    ev = OracleEvidence(o1, o2, equiv, fwd, bwd, measure_name)

    def one_side(side, other, partners):
        out: dict[tuple[int, int], float] = {}
        for c in side.classes():
            insts = side.instances_of(c)
            if not insts:
                continue
            acc: dict[int, float] = {}
            for x in insts:
                for c2 in other.classes():
                    members = set(other.instances_of(c2))
                    factors = [
                        1.0 - p for x2, p in partners.get(x, ()) if x2 in members
                    ]
                    if not factors:
                        continue
                    hit = 1.0 - seq_product(factors)
                    if hit > 0.0:
                        acc[c2] = acc.get(c2, 0.0) + hit
            for c2, v in acc.items():
                out[(c, c2)] = v / len(insts)
        return out

    return one_side(o1, o2, ev.left), one_side(o2, o1, ev.right)


def oracle_run(
    o1,
    o2,
    theta=0.1,
    max_iterations=10,
    convergence_fraction=0.01,
    restrict=True,
    measure_name="strict",
    negative=False,
    negative_inner="object",
    functionality_mode="harmonic-mean",
    pair_cap=None,
):
    """Full fixpoint loop; returns per-iteration snapshots for lockstep checks.

    Each snapshot: (equiv dict, fwd, bwd, (sub12, sub21), change_fraction).
    The loop stops when no assignment changes or when fewer than
    `convergence_fraction` of them do. Every statement and instance is read, evidence is the previous maximal
    assignment and functionality the harmonic mean. `bench/checks.py` passes
    `restrict`, `negative_inner`, `functionality_mode` and `pair_cap` until
    the benchmark next changes; each accepts only its one value.
    """
    for name, value, only in (
        ("restrict", restrict, True),
        ("negative_inner", negative_inner, "object"),
        ("functionality_mode", functionality_mode, "harmonic-mean"),
        ("pair_cap", pair_cap, None),
    ):
        if value != only:
            raise ValueError(f"{name} is gone; got {value!r}")
    fun1 = naive_functionality(o1)
    fun2 = naive_functionality(o2)
    equiv = dict(oracle_seeds(o1, o2, measure_name))
    fwd: dict[int, tuple[int, float]] = {}
    bwd: dict[int, tuple[int, float]] = {}
    subrel = None
    history = []
    converged = False
    for _ in range(max_iterations):
        new_equiv = oracle_instance_sweep(
            o1, o2, equiv, fwd, bwd, subrel, fun1, fun2, theta,
            measure_name, negative,
        )
        new_fwd, new_bwd = oracle_assignment(new_equiv, o1, o2)
        changed, tracked = oracle_change(fwd, bwd, new_fwd, new_bwd)
        fraction = changed / tracked if tracked else 0.0
        subrel = oracle_subrelations(o1, o2, new_equiv, new_fwd, new_bwd, measure_name)
        equiv, fwd, bwd = new_equiv, new_fwd, new_bwd
        history.append((equiv, fwd, bwd, subrel, fraction))
        if fraction == 0.0 or fraction < convergence_fraction:
            converged = True
            break
    classes = oracle_classes(o1, o2, equiv, fwd, bwd, measure_name)
    return history, classes, converged
