"""Metric arithmetic and the judged-region precision convention."""

from ontoalign.evaluation import (
    Metrics,
    evaluate_instances,
    evaluate_threshold_sweep,
)
from ontoalign.ntriples import AlignmentRow


def row(left, right, score=1.0):
    return AlignmentRow(left, right, score, "instance", "equivalence")


def test_exact_match_scores_perfectly():
    gold = {("a", "x"), ("b", "y")}
    m = evaluate_instances([row("a", "x"), row("b", "y")], gold)
    assert m == Metrics(1.0, 1.0, 1.0, predicted=2, correct=2, gold=2)


def test_unjudged_predictions_do_not_hurt_precision():
    # neither u nor v appears anywhere in gold, so the pair is outside the
    # judged region and precision ignores it
    gold = {("a", "x")}
    m = evaluate_instances([row("a", "x"), row("u", "v")], gold)
    assert m.precision == 1.0
    assert m.predicted == 1


def test_half_judged_prediction_counts_against_precision():
    # a is judged (gold maps it to x), so predicting (a, v) is a real miss
    gold = {("a", "x")}
    m = evaluate_instances([row("a", "v")], gold)
    assert m.predicted == 1
    assert m.correct == 0
    assert m.precision == 0.0


def test_duplicate_predictions_count_once():
    gold = {("a", "x")}
    m = evaluate_instances([row("a", "x"), row("a", "x", 0.5)], gold)
    assert m.predicted == 1
    assert m.correct == 1


def test_recall_over_gold_and_f1_harmonic():
    gold = {("a", "x"), ("b", "y"), ("c", "z"), ("d", "w")}
    m = evaluate_instances([row("a", "x"), row("b", "q")], gold)
    assert m.correct == 1
    assert m.precision == 0.5
    assert m.recall == 0.25
    assert abs(m.f1 - 2 * 0.5 * 0.25 / 0.75) < 1e-12


def test_empty_gold_and_empty_predictions():
    assert evaluate_instances([], set()) == Metrics(0.0, 0.0, 0.0, 0, 0, 0)
    assert evaluate_instances([row("a", "x")], set()).precision == 0.0
    empty = evaluate_instances([], {("a", "x")})
    assert empty.recall == 0.0 and empty.gold == 1


def test_threshold_sweep_covers_range_and_monotone_predictions():
    gold = {("a", "x"), ("b", "y")}
    predicted = [row("a", "x", 0.95), row("b", "y", 0.4), row("a", "y", 0.2)]
    sweep = evaluate_threshold_sweep(predicted, gold)
    thresholds = [t for t, _ in sweep]
    assert len(thresholds) == 20
    assert thresholds[0] == 0.05
    assert thresholds[-1] == 1.0
    kept = [m.predicted for _, m in sweep]
    assert all(a >= b for a, b in zip(kept, kept[1:]))
    # at 0.5 only the 0.95 row survives
    at_half = dict(sweep)[0.5]
    assert at_half.predicted == 1 and at_half.recall == 0.5

