"""The workloads: their maps, formula pools and reference files.

Each map is fixed per workload, so set-up does the same work on every run
and every formula in the pool has a committed reference answer. ``--seed``
draws the order in which a run sends the pool's formulas.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, NamedTuple

from instances import formula_pool, generate_map

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references"

# Where a workload's reference answers come from (see make_references.py).
ORACLE = "oracle"
SEED_COMMIT = "seed-commit"


class Workload(NamedTuple):
    name: str
    make_env: Callable[[Path], dict]
    answers_from: str

    def reference_path(self) -> Path:
        return REFERENCES / f"{self.name}.json"

    def pool(self, env: dict):
        return formula_pool(env, self.name)


def _plant(root: Path) -> dict:
    with open(root / "src" / "tampnet" / "data" / "plant_8x11.json", encoding="utf-8") as fh:
        return json.load(fh)


WORKLOADS = {
    w.name: w for w in (
        Workload("sparse-reduce", lambda root: generate_map("sparse-reduce"), SEED_COMMIT),
        Workload("plant-serve", _plant, ORACLE),
    )
}
