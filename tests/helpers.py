"""Ontology builders shared by the test modules."""

from __future__ import annotations

import random

from ontoalign import engine
from ontoalign.store import RDF_TYPE, RDFS_SUBCLASSOF, Ontology, ontology_from_triples


def make_ontology(
    origin: str,
    statements: list[tuple[str, str, str]],
    types: list[tuple[str, str]] = (),
    subclasses: list[tuple[str, str]] = (),
) -> Ontology:
    """Build an ontology from readable name triples.

    Object names starting with a double quote are literals; everything else is
    an instance. Schema is closed before returning.
    """
    triples = list(statements)
    triples += [(sub, RDFS_SUBCLASSOF, sup) for sub, sup in subclasses]
    triples += [(inst, RDF_TYPE, cls) for inst, cls in types]
    return ontology_from_triples(triples, origin=origin)


def alice_statements(label: str, born: str, married: str, names: list[str]):
    """The canonical six-statement fixture under configurable names."""
    alice, bob, paris = names
    return [
        (alice, label, '"Alice"'),
        (bob, label, '"Bob"'),
        (paris, label, '"Paris"'),
        (alice, born, paris),
        (bob, born, paris),
        (alice, married, bob),
    ]


def alice_pair() -> tuple[Ontology, Ontology]:
    o1 = make_ontology(
        "first", alice_statements("label", "wasBornIn", "marriedTo", ["alice", "bob", "paris"])
    )
    o2 = make_ontology(
        "second", alice_statements("name", "birthPlace", "spouse", ["a2", "b2", "p2"])
    )
    return o1, o2


def random_world_pair(
    rng: random.Random,
    n_inst: int = 12,
    n_attr: int = 2,
    n_link: int = 2,
    n_class: int = 3,
    drop: float = 0.15,
    value_pool: int | None = None,
    hub: bool = False,
) -> tuple[Ontology, Ontology]:
    """Two random projections of one random world.

    Entities share literal attribute values across the two sides (the only
    alignment anchor); identifiers and relation names are disjoint. A smaller
    value pool than the entity count forces shared values and therefore
    ambiguous candidates. With `hub`, every entity on both sides also gets
    `active "true"`, one literal shared by all of them.
    """
    value_pool = value_pool if value_pool is not None else max(2, n_inst)
    world_attr: list[tuple[int, int, str]] = []  # (entity, attr, value)
    for e in range(n_inst):
        for a in range(n_attr):
            if rng.random() < 0.85:
                world_attr.append((e, a, f'"v{a}-{rng.randrange(value_pool)}"'))
    world_link: list[tuple[int, int, int]] = []  # (entity, link, entity)
    for _ in range(n_inst * n_link):
        e = rng.randrange(n_inst)
        e2 = rng.randrange(n_inst)
        world_link.append((e, rng.randrange(max(1, n_link)), e2))
    world_type: list[tuple[int, int]] = []
    for e in range(n_inst):
        if n_class and rng.random() < 0.7:
            world_type.append((e, rng.randrange(n_class)))

    sides = []
    for tag in ("a", "b"):
        statements = []
        for e, a, v in world_attr:
            if rng.random() >= drop:
                statements.append((f"{tag}:e{e}", f"{tag}:attr{a}", v))
        for e, l, e2 in world_link:
            if rng.random() >= drop:
                statements.append((f"{tag}:e{e}", f"{tag}:link{l}", f"{tag}:e{e2}"))
        if hub:
            statements += [(f"{tag}:e{e}", f"{tag}:active", '"true"') for e in range(n_inst)]
        types = [(f"{tag}:e{e}", f"{tag}:c{c}") for e, c in world_type]
        sides.append(
            make_ontology("first" if tag == "a" else "second", statements, types=types)
        )
    return sides[0], sides[1]


def engine_table_dict(table) -> dict[tuple[int, int], float]:
    return {(a, b): p for a, b, p in table.pairs()}


def assert_sweeps_store_one_pair_scores(o1, o2, cfg, steps):
    """Each of `steps` sweeps stores every pair whose one-pair score is above
    theta, at that score, and no other pair. Returns how many of the sweeps
    had decisive penalties (see `engine._InstanceFactors`)."""
    state = engine.bootstrap(o1, o2, cfg)
    decisive = 0
    for _ in range(steps):
        ev = engine.EvidenceView(state.literals, state.assignment)
        decisive += bool(engine._InstanceFactors(state, ev)._decisive)
        table, _ = engine.update_all_instances(state)
        for x in o1.instances():
            for x2 in o2.instances():
                p = engine.instance_equivalence(state, x, x2)
                assert table.get(x, x2) == (p if p > cfg.theta else 0.0)
        state, _ = engine.step(state)
    return decisive
