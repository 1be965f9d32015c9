"""Relation functionality: how close a relation is to being a function.

A relation's functionality is the number of distinct subjects divided by the
number of statements, which equals the harmonic mean of the per-subject
local functionalities 1/#objects, as in the PARIS model; a relation with no
statements reads 1.0. A relation's inverse functionality is the
functionality of its inverse relation, which the store materializes, so one
table covers both directions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .store import Ontology


@dataclass
class FunctionalityTable:
    """Per-relation functionality for one ontology, inverses included."""

    values: list[float]  # a relation with no statements reads 1.0

    def fun(self, relation: int) -> float:
        return self.values[relation]

    def inverse_fun(self, relation: int) -> float:
        return self.values[relation ^ 1]


def build_functionality_table(onto: Ontology) -> FunctionalityTable:
    return FunctionalityTable([
        len(set(subjects)) / len(subjects) if subjects else 1.0
        for subjects in onto.relation_subjects
    ])
