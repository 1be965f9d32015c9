#!/usr/bin/env python3
"""What negative evidence does when two sources systematically disagree.

Here 90% of phone numbers differ outright between the sides. The default
scoring only accumulates support, so the untouched code and name literals
still pull every pair to 1.0. With negative evidence on, an aligned relation
whose values disagree pushes back, and almost every match is given up.

Turn it on only when sources are complete and disagreement is meaningful;
leave it off when one side is merely sparse, or missing values will be
punished like contradictions. Even on complete sources the assignment can
oscillate instead of converging (see the README's caveat), as it does here.
"""

import tempfile
from pathlib import Path

from ontoalign import (
    AlignmentConfig,
    evaluate_instances,
    load_gold,
    load_ontology,
    result_rows,
    run_fixpoint,
)
from ontoalign.synth import generate_pair

with tempfile.TemporaryDirectory() as tmp:
    data = Path(tmp)
    generate_pair(data, instances=120, seed=11, scramble_phones=0.9)
    o1 = load_ontology(data / "left.nt", origin="first")
    o2 = load_ontology(data / "right.nt", origin="second")
    gold = load_gold(data / "gold_instances.tsv")

    for label, config in (
        ("support only", AlignmentConfig()),
        ("with negative evidence", AlignmentConfig(negative_evidence=True)),
    ):
        result = run_fixpoint(o1, o2, config)
        instances, _, _ = result_rows(result)
        m = evaluate_instances(instances, gold)
        print(
            f"{label:<24} precision {m.precision:.3f}  recall {m.recall:.3f}"
            f"  ({m.correct}/{m.gold} pairs kept)"
        )
