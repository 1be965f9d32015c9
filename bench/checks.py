"""Correctness checks, computed apart from the program under test.

Two kinds:

* gold checks read an operation's TSVs with a parser of their own and compare
  them with the generator's gold files;
* the oracle check runs the engine and the brute-force reference in
  ``tests/oracle.py`` side by side on a reduced copy of a workload's recipe and
  requires the tables to agree bit for bit at every iteration.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

from pathlib import Path

INVERSE_MARK = "⁻¹"  # how the program names a relation's inverse
DIRECTIONS = ("left_in_right", "right_in_left")


def read_tsv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t") for line in fh if line.strip()]


def _gold_pairs(path: Path) -> list[tuple[str, str]]:
    return [(row[0], row[1]) for row in read_tsv(path) if not row[0].startswith("#")]


def check_instances(out_dir: Path, gold_dir: Path) -> list[str]:
    """The assignment must equal the gold mapping: precision and recall 1."""
    predicted = {(r[0], r[1]) for r in read_tsv(out_dir / "instances.tsv")}
    gold = set(_gold_pairs(gold_dir / "gold_instances.tsv"))
    hit = len(predicted & gold)
    precision = hit / len(predicted) if predicted else 0.0
    recall = hit / len(gold) if gold else 0.0
    if precision == 1.0 and recall == 1.0:
        return []
    return [f"instances: precision {precision:.4f} recall {recall:.4f}"
            f" ({hit} of {len(predicted)} predicted, {len(gold)} gold)"]


def _check_best(rows: list[list[str]], pairs: list[tuple[str, str]], what: str) -> list[str]:
    """Each pair must be scored in both directions and no other partner of its
    left term may score higher in that direction."""
    scores: dict[tuple[str, str], dict[str, float]] = {}
    for left, right, score, _kind, direction in rows:
        scores.setdefault((left, direction), {})[right] = float(score)
    problems = []
    for left, right in pairs:
        for direction in DIRECTIONS:
            partners = scores.get((left, direction), {})
            if right not in partners:
                problems.append(f"{what}: {left} -> {right} not scored {direction}")
            elif partners[right] < max(partners.values()):
                best = max(partners, key=partners.get)
                problems.append(f"{what}: {left} -> {right} {direction} scores"
                                f" {partners[right]} below {best} {partners[best]}")
    return problems


def check_schema(out_dir: Path, gold_dir: Path) -> list[str]:
    """Gold relation pairs, their inverses and gold class pairs."""
    relations = _gold_pairs(gold_dir / "gold_relations.tsv")
    relations += [(a + INVERSE_MARK, b + INVERSE_MARK) for a, b in relations]
    return (
        _check_best(read_tsv(out_dir / "relations.tsv"), relations, "relation")
        + _check_best(read_tsv(out_dir / "classes.tsv"),
                      _gold_pairs(gold_dir / "gold_classes.tsv"), "class")
    )


def check_operation(out_dir: Path, gold_dir: Path) -> list[str]:
    return check_instances(out_dir, gold_dir) + check_schema(out_dir, gold_dir)


# ------------------------------------------------------------------ oracle


def _differences(got: dict, want: dict, where: str) -> list[str]:
    if got.keys() != want.keys():
        return [f"{where}: key sets differ ({len(got)} vs {len(want)})"]
    bad = [k for k in want if got[k] != want[k]]
    return [f"{where}: {len(bad)} values differ, e.g. {bad[0]}"] if bad else []


def oracle_lockstep(inputs: Path, config) -> list[str]:
    """Engine against tests/oracle.py on the same pair, every iteration.

    Needs ``src`` and ``tests`` of the checkout on ``sys.path``.
    """
    from oracle import oracle_run

    import ontoalign

    o1 = ontoalign.load_ontology(inputs / "left.nt", origin="first")
    o2 = ontoalign.load_ontology(inputs / "right.nt", origin="second")
    state = ontoalign.bootstrap(o1, o2, config)
    engine = []
    for _ in range(config.max_iterations):
        state, stats = ontoalign.step(state)
        engine.append((
            {(a, b): p for a, b, p in state.equiv.pairs()},
            dict(state.assignment.forward),
            dict(state.assignment.backward),
            dict(state.subrel.o1_to_o2),
            dict(state.subrel.o2_to_o1),
            stats.change_fraction,
        ))
        if stats.change_fraction < config.convergence_fraction:
            break
    classes = ontoalign.compute_class_alignment(state)

    history, oracle_classes, _ = oracle_run(
        o1, o2, theta=config.theta, max_iterations=config.max_iterations,
        convergence_fraction=config.convergence_fraction,
        restrict=config.restrict_to_assignment, measure_name=config.literal_mode,
        negative=config.negative_evidence, negative_inner=config.negative_inner,
        functionality_mode=config.functionality_mode, pair_cap=config.pair_cap,
    )
    if len(engine) != len(history):
        return [f"oracle: {len(engine)} engine iterations against {len(history)}"]
    problems = []
    for i, (e, (equiv, fwd, bwd, (sub12, sub21), fraction)) in enumerate(zip(engine, history), 1):
        problems += _differences(e[0], equiv, f"oracle iteration {i} equivalences")
        problems += _differences(e[1], fwd, f"oracle iteration {i} forward")
        problems += _differences(e[2], bwd, f"oracle iteration {i} backward")
        problems += _differences(e[3], sub12, f"oracle iteration {i} inclusions 1->2")
        problems += _differences(e[4], sub21, f"oracle iteration {i} inclusions 2->1")
        if e[5] != fraction:
            problems.append(f"oracle iteration {i}: change fraction {e[5]} != {fraction}")
    problems += _differences(dict(classes.o1_to_o2), oracle_classes[0], "oracle classes 1->2")
    problems += _differences(dict(classes.o2_to_o1), oracle_classes[1], "oracle classes 2->1")
    return problems
