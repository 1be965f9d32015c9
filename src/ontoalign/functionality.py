"""Relation functionality: how close a relation is to being a function.

The default "harmonic-mean" mode is the number of distinct subjects divided by
the number of statements, which equals the harmonic mean of the per-subject
local functionalities 1/#objects. The other modes are alternative estimators
with different failure modes (see the mode docstrings); all are clamped into
(0, 1]. A relation's inverse functionality is the functionality of its
inverse relation, which the store materializes, so one table covers both
directions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .store import Ontology

MODES = ("harmonic-mean", "pair-ratio", "arg-ratio", "arithmetic-mean")


def local_functionality(onto: Ontology, relation: int, subject: int) -> float:
    """1 / number of objects the subject has under the relation."""
    count = onto.subject_relations[subject].count(relation)
    if count == 0:
        raise ValueError(
            f"{onto.relation_lexical(relation)} has no statement with subject"
            f" {onto.lexical(subject)}"
        )
    return 1.0 / count


def global_functionality(onto: Ontology, relation: int, mode: str = "harmonic-mean") -> float:
    """Whole-relation functionality under one of the estimation modes.

    harmonic-mean   #subjects / #statements (harmonic mean of local values)
    pair-ratio      #statements / #(object pairs sharing a subject); squares
                    per-subject counts, so single busy subjects dominate
    arg-ratio       #subjects / #objects, clamped to 1; blind to how the
                    statements distribute over the subjects
    arithmetic-mean plain average of the local functionalities
    """
    subjects = onto.relation_subjects[relation]
    if not subjects:
        return 1.0
    per_subject = Counter(subjects)
    n_stmt = len(subjects)
    n_subj = len(per_subject)
    if mode == "harmonic-mean":
        return n_subj / n_stmt
    if mode == "pair-ratio":
        return n_stmt / sum(k * k for k in per_subject.values())
    if mode == "arg-ratio":
        return min(1.0, n_subj / len(set(onto.relation_objects[relation])))
    if mode == "arithmetic-mean":
        return sum(1.0 / k for k in per_subject.values()) / n_subj
    raise ValueError(f"unknown functionality mode {mode!r}; choose from {MODES}")


@dataclass
class FunctionalityTable:
    """Per-relation functionality for one ontology, inverses included."""

    values: list[float]  # a relation with no statements reads 1.0

    def fun(self, relation: int) -> float:
        return self.values[relation]

    def inverse_fun(self, relation: int) -> float:
        return self.values[relation ^ 1]


def build_functionality_table(onto: Ontology, mode: str = "harmonic-mean") -> FunctionalityTable:
    if mode not in MODES:
        raise ValueError(f"unknown functionality mode {mode!r}; choose from {MODES}")
    return FunctionalityTable([
        global_functionality(onto, rid, mode) for rid in onto.relation_ids()
    ])
