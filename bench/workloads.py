"""Workload recipes and the generated inputs they align.

Inputs come from the documented ``ontoalign generate`` command, run in a
process of its own, so generation is neither timed nor counted in memory.
The only change the benchmark makes to generated files is the hub
injection, which lives here. Generated pairs are cached under
``.bench_cache/inputs`` by workload, scale and seed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

CACHE = ".bench_cache"
REDUCED_PERSONS = 40  # scale of the copy checked against tests/oracle.py

# The generator's person classes and a hub relation for each side.
HUB_SIDES = (
    ("left.nt", "http://one.example/Person", "http://one.example/active"),
    ("right.nt", "http://two.example/Human", "http://two.example/active"),
)
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"


@dataclass(frozen=True)
class Recipe:
    persons: int
    hub: bool = False  # every person on both sides gets `active "true"`
    negative_evidence: bool = False
    # Generator seed used instead of --seed. Only the workload that keeps a
    # known fault sets it, so that its failure does not depend on the seed.
    fixed_seed: int | None = None
    # Name of the known fault whose gold-check failures are expected.
    known_fault: str | None = None


WORKLOADS: dict[str, Recipe] = {
    # Loading is over 40% of the run; parser and store work shows here.
    "clean": Recipe(persons=10_000),
    # One literal shared by every person: the instance sweep dominates.
    "hub": Recipe(persons=2_000, hub=True),
    # Penalty path, all max_iterations iterations. The generator seed is the
    # documented reproducer of the oscillation in engine._penalty_factors.
    "negative": Recipe(
        persons=4_000, negative_evidence=True, fixed_seed=4,
        known_fault="negative evidence oscillates on a noise-free copy",
    ),
}


def generate(root: Path, out_dir: Path, persons: int, seed: int) -> None:
    """Run ``ontoalign generate`` from the checkout's sources."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run(
        [sys.executable, "-m", "ontoalign.cli", "generate", "--out-dir", str(out_dir),
         "--instances", str(persons), "--seed", str(seed)],
        env=env, check=True, stdout=subprocess.DEVNULL,
    )


def inject_hub(directory: Path) -> int:
    """Append ``active "true"`` to every person on both sides.

    Persons are the subjects typed with the generator's person class of each
    side. Returns the number of statements added per side (equal on both).
    """
    added = []
    for name, person_class, relation in HUB_SIDES:
        path = directory / name
        type_suffix = f" <{RDF_TYPE}> <{person_class}> ."
        with open(path, encoding="utf-8") as fh:
            persons = [line.split(" ", 1)[0] for line in fh if line.rstrip("\n").endswith(type_suffix)]
        with open(path, "a", encoding="utf-8") as fh:
            for subject in persons:
                fh.write(f'{subject} <{relation}> "true" .\n')
        added.append(len(persons))
    if added[0] != added[1]:
        raise ValueError(f"hub injection found {added[0]} and {added[1]} persons")
    return added[0]


def prepare(root: Path, workload: str, seed: int, persons: int | None = None) -> Path:
    """Directory with the workload's left.nt, right.nt and gold TSVs.

    ``persons`` overrides the recipe's scale (the reduced copy); everything
    else about the recipe is kept.
    """
    recipe = WORKLOADS[workload]
    persons = recipe.persons if persons is None else persons
    gseed = recipe.fixed_seed if recipe.fixed_seed is not None else seed
    final = root / CACHE / "inputs" / f"{workload}-p{persons}-s{gseed}"
    if (final / "complete").is_file():
        return final
    partial = final.with_name(final.name + f".tmp{os.getpid()}")
    shutil.rmtree(partial, ignore_errors=True)
    generate(root, partial, persons, gseed)
    if recipe.hub:
        inject_hub(partial)
    (partial / "complete").write_text("")
    shutil.rmtree(final, ignore_errors=True)
    partial.rename(final)
    return final
