"""Holistic alignment of two instance-rich ontologies.

Probabilistic, fixpoint-based: instance equivalences, directed
relation inclusions, and directed class inclusions reinforce each other
until the maximal assignment stops changing.

>>> from ontoalign import load_ontology, run_fixpoint
>>> result = run_fixpoint(load_ontology("a.nt"), load_ontology("b.nt"))  # doctest: +SKIP
"""

from .engine import (
    AlignmentConfig,
    AlignmentResult,
    AlignmentState,
    EquivalenceTable,
    InclusionTable,
    IterationStats,
    MaximalAssignment,
    bootstrap,
    compute_class_alignment,
    compute_maximal_assignment,
    instance_equivalence,
    result_rows,
    run_fixpoint,
    step,
)
from .evaluation import Metrics, evaluate_instances, evaluate_threshold_sweep
from .functionality import FunctionalityTable, build_functionality_table
from .ntriples import (
    AlignmentRow,
    ParseError,
    load_gold,
    load_ontology,
    parse_ntriples,
    read_alignment,
    write_alignment,
)
from .store import Ontology, ontology_from_triples

__version__ = "0.1.0"

__all__ = [
    "AlignmentConfig",
    "AlignmentResult",
    "AlignmentRow",
    "AlignmentState",
    "EquivalenceTable",
    "FunctionalityTable",
    "InclusionTable",
    "IterationStats",
    "MaximalAssignment",
    "Metrics",
    "Ontology",
    "ParseError",
    "bootstrap",
    "build_functionality_table",
    "compute_class_alignment",
    "compute_maximal_assignment",
    "evaluate_instances",
    "evaluate_threshold_sweep",
    "instance_equivalence",
    "load_gold",
    "load_ontology",
    "ontology_from_triples",
    "parse_ntriples",
    "read_alignment",
    "result_rows",
    "run_fixpoint",
    "step",
    "write_alignment",
]
