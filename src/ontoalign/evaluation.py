"""Scoring predicted alignments against a gold standard.

Precision follows the usual alignment-evaluation convention: a predicted pair
only counts (for or against) when the gold standard has an opinion about at
least one of its two sides, so unjudged regions of large ontologies do not
drown the measurement. Recall is the fraction of gold pairs recovered.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ntriples import AlignmentRow


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    f1: float
    predicted: int  # predictions inside the judged region
    correct: int
    gold: int


def _f1(p: float, r: float) -> float:
    return 2.0 * p * r / (p + r) if p + r > 0.0 else 0.0


def evaluate_instances(
    predicted: list[AlignmentRow],
    gold: set[tuple[str, str]],
) -> Metrics:
    """Score instance predictions against gold (left, right) pairs."""
    left_judged = {a for a, _ in gold}
    right_judged = {b for _, b in gold}
    in_region = 0
    correct = 0
    seen: set[tuple[str, str]] = set()
    for row in predicted:
        pair = (row.left, row.right)
        if pair in seen:
            continue
        seen.add(pair)
        if row.left in left_judged or row.right in right_judged:
            in_region += 1
            if pair in gold:
                correct += 1
    precision = correct / in_region if in_region else 0.0
    recall = correct / len(gold) if gold else 0.0
    return Metrics(
        precision=precision,
        recall=recall,
        f1=_f1(precision, recall),
        predicted=in_region,
        correct=correct,
        gold=len(gold),
    )


def evaluate_threshold_sweep(
    predicted: list[AlignmentRow],
    gold: set[tuple[str, str]],
    start: float = 0.05,
    stop: float = 1.0,
    step: float = 0.05,
) -> list[tuple[float, Metrics]]:
    """Metrics at every acceptance threshold in [start, stop] (inclusive).

    Useful for choosing a cutoff: precision typically rises and recall falls
    as the threshold climbs.
    """
    out: list[tuple[float, Metrics]] = []
    n = int(round((stop - start) / step)) + 1
    for i in range(n):
        threshold = round(start + i * step, 10)
        kept = [row for row in predicted if row.score >= threshold]
        out.append((threshold, evaluate_instances(kept, gold)))
    return out
