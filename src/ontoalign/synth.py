"""Synthetic ontology pairs with gold alignments.

`generate_pair` writes two N-Triples files that describe the same persons,
cities and organizations under fully renamed identifiers, plus the gold
instance, relation and class alignments between them. ``ontoalign generate``
runs it from the command line; the benchmark builds its inputs that way.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from pathlib import Path

from .store import RDF_TYPE, RDFS_SUBCLASSOF

_FIRST = (
    "Ada", "Alan", "Barbara", "Claude", "Donald", "Edsger", "Frances", "Grace",
    "Hedy", "John", "Katherine", "Kurt", "Leslie", "Margaret", "Niklaus", "Radia",
)
_LAST = (
    "Allen", "Backus", "Church", "Dijkstra", "Goldberg", "Hamilton", "Hopper",
    "Kay", "Knuth", "Lamport", "Liskov", "Lovelace", "McCarthy", "Perlman",
    "Shannon", "Turing",
)

# first-ontology name -> second-ontology name
_REL_NAMES = {
    "hasCode": "code",
    "hasName": "label",
    "hasPhone": "phone",
    "bornIn": "birthPlace",
    "diedIn": "deathPlace",
    "worksAt": "employedBy",
    "locatedIn": "basedIn",
}
_CLASS_NAMES = {
    "Person": "Human",
    "Agent": "Actor",
    "City": "Town",
    "Place": "Location",
    "Organization": "Employer",
}
# Relation names, class names and entity prefixes never collide, so one map
# renames all three. Names it lacks, such as "placeOf", are the same on both.
_SECOND_NAMES = {**_REL_NAMES, **_CLASS_NAMES, "person": "human", "city": "town", "org": "employer"}


def _iri(side: int, local: str) -> str:
    """IRI of a first-ontology name, or an entity like ``person7``, on `side`."""
    if side == 1:
        return f"http://one.example/{local}"
    head = local.rstrip("0123456789")
    return f"http://two.example/{_SECOND_NAMES.get(head, head)}{local[len(head):]}"


def _nt_literal(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _nt_line(s: str, p: str, o: str, literal: bool = False) -> str:
    obj = _nt_literal(o) if literal else f"<{o}>"
    return f"<{s}> <{p}> {obj} ."


def _phone(rng: random.Random) -> str:
    return (
        f"+{rng.randrange(1, 100)}-{rng.randrange(100, 1000)}"
        f"-{rng.randrange(100, 1000)}-{rng.randrange(1000, 10000)}"
    )


def generate_pair(
    out_dir: str | Path,
    instances: int = 200,
    seed: int = 0,
    attribute_drop: float = 0.0,
    perturb_literals: float = 0.0,
    scramble_phones: float = 0.0,
    split_relation: bool = False,
    merge_relations: bool = False,
) -> dict[str, Path]:
    """Write a synthetic ontology pair plus gold alignments.

    Both sides describe the same entities under fully renamed identifiers;
    literal values are the only common ground, which is exactly the regime the
    aligner is built for. The knobs inject controlled disagreement into the
    second ontology only:

    * attribute_drop    drop this fraction of phone statements
    * perturb_literals  reformat this fraction of phones ('-' becomes '/')
    * scramble_phones   replace this fraction of phone values outright
    * split_relation    split worksAt into two relations by subject parity
    * merge_relations   merge bornIn and diedIn into one placeOf relation

    Returns the written paths under the keys ``left``, ``right``,
    ``gold_instances``, ``gold_relations`` and ``gold_classes``.
    Raises ValueError, before writing anything, when instances < 1 or a
    fraction is outside [0, 1].
    """
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances!r}")
    for name, value in (("attribute_drop", attribute_drop),
                        ("perturb_literals", perturb_literals),
                        ("scramble_phones", scramble_phones)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    rng = random.Random(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_cities = max(2, instances // 7)
    n_orgs = max(1, instances // 10)

    name_seen: dict[str, int] = {}

    def fresh_name() -> str:
        name = f"{rng.choice(_FIRST)} {rng.choice(_LAST)}"
        bump = name_seen.get(name, 0)
        name_seen[name] = bump + 1
        return name if bump == 0 else f"{name} {bump + 1}"

    cities = [
        {"local": f"city{j}", "code": f"C{j:04d}-{rng.randrange(10**6):06d}",
         "name": f"City of {fresh_name().split()[-1]} {j}"}
        for j in range(n_cities)
    ]
    orgs = [
        {"local": f"org{k}", "code": f"G{k:04d}-{rng.randrange(10**6):06d}",
         "name": f"Org {fresh_name()} {k}", "city": rng.randrange(n_cities)}
        for k in range(n_orgs)
    ]
    people = [
        {"local": f"person{i}", "code": f"P{i:05d}-{rng.randrange(10**6):06d}",
         "name": fresh_name(), "phone": _phone(rng), "born": rng.randrange(n_cities),
         "died": rng.randrange(n_cities) if rng.random() < 0.5 else None,
         "org": rng.randrange(n_orgs) if rng.random() < 0.85 else None}
        for i in range(instances)
    ]

    # second-ontology noise decisions, one draw per person, fixed order;
    # "phone2" is the second side's phone, None where it is dropped
    for person in people:
        drop = rng.random() < attribute_drop
        scramble = (not drop) and rng.random() < scramble_phones
        perturb = (not drop) and (not scramble) and rng.random() < perturb_literals
        phone = _phone(rng) if scramble else person["phone"]
        person["phone2"] = None if drop else phone.replace("-", "/") if perturb else phone

    def side_lines(side: int) -> Iterator[str]:
        def fact(s: str, rel: str, obj: str, literal: bool = False) -> str:
            """One statement between first-ontology names, written for `side`."""
            o = obj if literal else _iri(side, obj)
            return _nt_line(_iri(side, s), _iri(side, rel), o, literal)

        def described(item: dict, cls: str) -> list[str]:
            return [
                _nt_line(_iri(side, item["local"]), RDF_TYPE, _iri(side, cls)),
                fact(item["local"], "hasCode", item["code"], literal=True),
                fact(item["local"], "hasName", item["name"], literal=True),
            ]

        yield _nt_line(_iri(side, "Person"), RDFS_SUBCLASSOF, _iri(side, "Agent"))
        yield _nt_line(_iri(side, "City"), RDFS_SUBCLASSOF, _iri(side, "Place"))
        for city in cities:
            yield from described(city, "City")
        for org in orgs:
            yield from described(org, "Organization")
            yield fact(org["local"], "locatedIn", cities[org["city"]]["local"])
        born_in, died_in = "bornIn", "diedIn"
        if side == 2 and merge_relations:
            born_in = died_in = "placeOf"
        for i, person in enumerate(people):
            yield from described(person, "Person")
            phone = person["phone" if side == 1 else "phone2"]
            if phone is not None:
                yield fact(person["local"], "hasPhone", phone, literal=True)
            yield fact(person["local"], born_in, cities[person["born"]]["local"])
            if person["died"] is not None:
                yield fact(person["local"], died_in, cities[person["died"]]["local"])
            if person["org"] is not None:
                works = "worksAt"
                if side == 2 and split_relation:
                    works = "employedByA" if i % 2 == 0 else "employedByB"
                yield fact(person["local"], works, orgs[person["org"]]["local"])

    # gold rows: first-ontology name, second-ontology name, then the direction
    relations: list[tuple[str, ...]] = []
    for name in _REL_NAMES:
        if split_relation and name == "worksAt":
            relations += [(name, half, "right_in_left") for half in ("employedByA", "employedByB")]
        elif merge_relations and name in ("bornIn", "diedIn"):
            relations.append((name, "placeOf", "left_in_right"))
        else:
            relations.append((name, name, "equivalence"))
    gold = {
        "gold_instances": [(x["local"],) * 2 for group in (people, cities, orgs) for x in group],
        "gold_relations": relations,
        "gold_classes": [(name, name, "equivalence") for name in _CLASS_NAMES],
    }

    files: dict[str, Path] = {}
    outputs = [("left.nt", side_lines(1)), ("right.nt", side_lines(2))]
    outputs += [
        (f"{key}.tsv", ("\t".join((_iri(1, a), _iri(2, b), *rest)) for a, b, *rest in rows))
        for key, rows in gold.items()
    ]
    for filename, lines in outputs:
        path = files[filename.split(".")[0]] = out / filename
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines)
    return files
