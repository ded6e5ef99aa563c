"""Seeded benchmark inputs: maps, formula pools and a feasibility decider.

This module owns every input the benchmark feeds to tampnet, so the
workloads stay fixed when the package's own instance generator changes.
It imports nothing from tampnet.

Maps are plain environment dicts in tampnet's JSON schema. Every generated
map satisfies one structural condition, checked by ``reduction_is_complete``:
the free unlabeled cells form one 4-connected component, every labeled cell
has an unlabeled free neighbour, and every start cell is unlabeled. Under it
any agent can reach any cell while entering no other labeled cell, which
gives two properties the benchmark relies on:

* the reduced net links every (start or labeled place, labeled place) pair,
  so its size, and the number of reachable markings, depend only on the
  region template and not on where the regions landed;
* ``decide`` can settle feasibility of a formula exactly from the cell
  labels alone, without searching.

Formulas are plain text in tampnet's grammar plus a parsed form
(``Formula``) that ``decide`` and the route validator read.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import deque
from itertools import combinations
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

Cell = Tuple[int, int]

NEIGHBOURS = ((-1, 0), (0, 1), (1, 0), (0, -1))


class RegionTemplate(NamedTuple):
    """One region to place: its size, which earlier region it overlaps (by
    index into the template, sharing exactly one cell) and its propositions."""

    cells: int
    overlaps: Optional[int]
    trajectory_props: Tuple[str, ...]
    final_props: Tuple[str, ...]


class Formula(NamedTuple):
    """A formula as clause sets: visit clauses, end clauses, forbidden names."""

    visits: Tuple[FrozenSet[str], ...]
    ends: Tuple[FrozenSet[str], ...]
    no_visit: FrozenSet[str]
    no_end: FrozenSet[str]

    def text(self) -> str:
        def clause(kind, names):
            atoms = [f"{kind}({n})" for n in sorted(names, key=_name_key)]
            return atoms[0] if len(atoms) == 1 else "(" + " | ".join(atoms) + ")"

        parts = [clause("visit", c) for c in self.visits]
        parts += [clause("end", c) for c in self.ends]
        parts += [f"!visit({n})" for n in sorted(self.no_visit, key=_name_key)]
        parts += [f"!end({n})" for n in sorted(self.no_end, key=_name_key)]
        return " & ".join(parts) if parts else "true"


def _name_key(name: str):
    return (0, int(name), "") if name.isdigit() else (1, 0, name)


def parse_formula(text: str) -> Formula:
    """Read back the text that ``Formula.text`` writes (and nothing else)."""
    visits, ends, no_visit, no_end = [], [], set(), set()
    if text.strip() != "true":
        for part in text.split(" & "):
            negated = part.startswith("!")
            body = part[1:] if negated else part
            if body.startswith("("):
                body = body[1:-1]
            atoms = [a.strip() for a in body.split("|")]
            kinds = {a.split("(", 1)[0] for a in atoms}
            names = frozenset(a.split("(", 1)[1].rstrip(")") for a in atoms)
            if len(kinds) != 1 or (negated and len(atoms) != 1):
                raise ValueError(f"not a benchmark formula: {text!r}")
            kind = kinds.pop()
            if negated:
                (no_visit if kind == "visit" else no_end).update(names)
            else:
                (visits if kind == "visit" else ends).append(names)
    return Formula(tuple(visits), tuple(ends), frozenset(no_visit), frozenset(no_end))


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def sha256_of(data) -> str:
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------- maps

def _components(cells) -> List[set]:
    cells = set(cells)
    out = []
    while cells:
        seed = min(cells)
        seen = {seed}
        queue = deque([seed])
        while queue:
            r, c = queue.popleft()
            for dr, dc in NEIGHBOURS:
                nxt = (r + dr, c + dc)
                if nxt in cells and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        cells -= seen
        out.append(seen)
    return out


def cell_atoms(env: dict) -> Dict[Cell, Tuple[FrozenSet[str], FrozenSet[str]]]:
    """(visit names, end names) per labeled cell; overlaps take the union."""
    visit: Dict[Cell, set] = {}
    end: Dict[Cell, set] = {}
    for region in env["regions"]:
        for r, c in region["cells"]:
            visit.setdefault((r, c), set()).update(region.get("trajectory_props", []))
            end.setdefault((r, c), set()).update(region.get("final_props", []))
    return {cell: (frozenset(visit[cell]), frozenset(end[cell])) for cell in visit}


def free_cells(env: dict) -> set:
    rows, cols = env["grid"]["rows"], env["grid"]["cols"]
    blocked = {tuple(c) for c in env.get("obstacles", [])}
    return {(r, c) for r in range(rows) for c in range(cols)} - blocked


def reduction_is_complete(env: dict) -> bool:
    """The structural condition described in the module docstring."""
    free = free_cells(env)
    labeled = set(cell_atoms(env))
    plain = free - labeled
    if not plain or len(_components(plain)) != 1:
        return False
    if any(tuple(a) in labeled for a in env["agents"]):
        return False
    for r, c in labeled:
        if not any((r + dr, c + dc) in plain for dr, dc in NEIGHBOURS):
            return False
    return True


# The generated map: 60x60 with about 20% obstacles and two agents, and
# seven regions, four of them two cells wide; R2 overlaps R1, and R3 and R4
# share the proposition "s". With two agents the tree stays small while
# the obstacles make the reduction's searches long. Costs are fractional
# per direction, so the reduction runs in ``Fraction`` arithmetic.
ROWS, COLS, AGENTS, OBSTACLE_SHARE = 60, 60, 2, 0.2
TEMPLATE = (
    RegionTemplate(2, None, ("1",), ("1",)),
    RegionTemplate(2, 0, ("2",), ("2",)),
    RegionTemplate(2, None, ("3", "s"), ("3", "s")),
    RegionTemplate(1, None, ("4", "s"), ("4", "s")),
    RegionTemplate(1, None, ("5",), ("5",)),
    RegionTemplate(1, None, ("6",), ("6",)),
    RegionTemplate(2, None, ("7",), ("7",)),
)
MOVE_COST = {"up": 1, "right": "3/2", "down": "1/2", "left": 2}


def generate_map(seed) -> dict:
    """Draw one map from a string-keyed RNG.

    Obstacles are drawn cell by cell; free cells outside the largest
    component become obstacles too. Regions are placed one cluster at a
    time (a region plus the regions overlapping it), no two clusters
    8-adjacent, and the draw is repeated until ``reduction_is_complete``.
    """
    rng = random.Random(f"perfbench-map:{seed}")
    cells = [(r, c) for r in range(ROWS) for c in range(COLS)]
    free = {cell for cell in cells if rng.random() >= OBSTACLE_SHARE}
    free = max(_components(free), key=len)
    obstacles = sorted(set(cells) - free)
    free_sorted = sorted(free)

    def near(cell) -> set:
        r, c = cell
        return {(r + dr, c + dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)}

    for _ in range(1000):
        placed: List[List[Cell]] = []
        cluster_of: List[int] = []
        taken: set = set()
        halo: Dict[int, set] = {}
        ok = True
        for i, spec in enumerate(TEMPLATE):
            if spec.overlaps is None:
                cluster = i
                start = rng.choice(free_sorted)
                crowded = set().union(*halo.values()) if halo else set()
                if start in crowded or start in taken:
                    ok = False
                    break
                region = [start]
            else:
                cluster = cluster_of[spec.overlaps]
                region = [rng.choice(placed[spec.overlaps])]
            others = set().union(*(h for k, h in halo.items() if k != cluster)) if halo else set()
            while len(region) < spec.cells:
                r, c = region[-1]
                options = [(r + dr, c + dc) for dr, dc in NEIGHBOURS]
                options = [o for o in options
                           if o in free and o not in taken and o not in region and o not in others]
                if not options:
                    ok = False
                    break
                region.append(rng.choice(options))
            if not ok:
                break
            placed.append(region)
            cluster_of.append(cluster)
            taken.update(region)
            halo.setdefault(cluster, set()).update(*(near(cell) for cell in region))
        if not ok:
            continue
        plain = sorted(free - taken)
        starts = rng.sample(plain, AGENTS)
        env = {
            "grid": {"rows": ROWS, "cols": COLS},
            "obstacles": [list(c) for c in obstacles],
            "regions": [
                {"name": f"R{i + 1}", "cells": [list(c) for c in sorted(region)],
                 "trajectory_props": list(spec.trajectory_props),
                 "final_props": list(spec.final_props)}
                for i, (spec, region) in enumerate(zip(TEMPLATE, placed))
            ],
            "agents": [list(c) for c in starts],
            "move_cost": MOVE_COST,
        }
        if reduction_is_complete(env):
            return env
    raise RuntimeError(f"no admissible map for seed {seed!r} after 1000 draws")


# ---------------------------------------------------------------- formulas

def props_of(env: dict) -> Tuple[List[str], List[str]]:
    visit, end = set(), set()
    for region in env["regions"]:
        visit.update(region.get("trajectory_props", []))
        end.update(region.get("final_props", []))
    return sorted(visit, key=_name_key), sorted(end, key=_name_key)


# Formula pools: POOL_SIZE distinct formulas, about BLOCKED_SHARE of the
# draws built to be infeasible, at most MAX_VISITS visit clauses each.
POOL_SIZE, BLOCKED_SHARE, MAX_VISITS = 300, 0.2, 4


def _random_formula(rng: random.Random, visit: List[str], end: List[str],
                    agents: int) -> Formula:
    """Up to MAX_VISITS visit clauses, up to two end clauses, up to two
    forbidden atoms on names the formula does not require."""
    visits = set()
    for _ in range(rng.randint(1, MAX_VISITS)):
        width = rng.choice((1, 1, 1, 2))
        visits.add(frozenset(rng.sample(visit, width)))
    ends = set()
    for _ in range(rng.randint(0, min(2, agents))):
        width = rng.choice((1, 1, 2))
        ends.add(frozenset(rng.sample(end, width)))
    used_visit = set().union(*visits)
    used_end = set().union(*ends) if ends else set()
    no_visit, no_end = set(), set()
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.5:
            pool = [n for n in visit
                    if n not in used_visit and n not in used_end and n not in no_visit]
            if pool:
                no_visit.add(rng.choice(pool))
        else:
            pool = [n for n in end if n not in used_end and n not in no_end]
            if pool:
                no_end.add(rng.choice(pool))
    return Formula(tuple(sorted(visits, key=sorted)), tuple(sorted(ends, key=sorted)),
                   frozenset(no_visit), frozenset(no_end))


def _blocked_formula(rng: random.Random, env: dict, agents: int) -> Formula:
    """A formula built to be infeasible: either more end clauses on
    pairwise disjoint cells than there are agents, or an end atom whose
    every cell carries a forbidden visit atom."""
    atoms = cell_atoms(env)
    visit, end = props_of(env)
    cells_of_end = {n: {c for c, (_, e) in atoms.items() if n in e} for n in end}
    if rng.random() < 0.5:
        for _ in range(100):
            names = rng.sample(end, min(len(end), agents + 1))
            sets = [cells_of_end[n] for n in names]
            if all(not (a & b) for a, b in combinations(sets, 2)):
                extra = rng.sample(visit, rng.randint(0, 2))
                return Formula(tuple(frozenset([v]) for v in sorted(extra, key=_name_key)),
                               tuple(frozenset([n]) for n in sorted(names, key=_name_key)),
                               frozenset(), frozenset())
    name = rng.choice(end)
    shared = set.intersection(*(set(atoms[c][0]) for c in cells_of_end[name]))
    if shared:
        banned = rng.choice(sorted(shared, key=_name_key))
        others = [v for v in visit if v != banned]
        extra = rng.sample(others, min(len(others), rng.randint(0, 2)))
        return Formula(tuple(frozenset([v]) for v in sorted(extra, key=_name_key)),
                       (frozenset([name]),), frozenset([banned]), frozenset())
    raise ValueError(f"cells with end({name}) share no visit proposition")


def formula_pool(env: dict, seed) -> List[str]:
    """POOL_SIZE distinct formula texts; about BLOCKED_SHARE of the draws
    are built to be infeasible, the rest are random (and may still be)."""
    rng = random.Random(f"perfbench-formulas:{seed}")
    visit, end = props_of(env)
    agents = len(env["agents"])
    out: List[str] = []
    seen = set()
    while len(out) < POOL_SIZE:
        if rng.random() < BLOCKED_SHARE:
            formula = _blocked_formula(rng, env, agents)
        else:
            formula = _random_formula(rng, visit, end, agents)
        text = formula.text()
        if text not in seen:
            seen.add(text)
            out.append(text)
    return out


def decide(atoms: Dict[Cell, Tuple[FrozenSet[str], FrozenSet[str]]], agents: int,
           formula: Formula) -> bool:
    """Exact feasibility on a map where ``reduction_is_complete`` holds.

    ``atoms`` is ``cell_atoms`` of that map. Every agent can walk to any
    single cell entering no other labeled cell, and can always step back
    onto unlabeled ground. So a formula is feasible iff (a) each visit
    clause names a proposition on some cell that carries no forbidden
    visit, and (b) at most one cell per agent, each free of forbidden visit
    and forbidden end propositions, covers every end clause.
    """
    allowed = [c for c, (v, _) in atoms.items() if not v & formula.no_visit]
    for clause in formula.visits:
        if not any(atoms[c][0] & clause for c in allowed):
            return False
    if not formula.ends:
        return True
    covers = {atoms[c][1] for c in allowed if not atoms[c][1] & formula.no_end}
    covers = sorted(covers, key=sorted)
    for k in range(1, agents + 1):
        for pick in combinations(covers, k):
            reached = frozenset().union(*pick)
            if all(reached & clause for clause in formula.ends):
                return True
    return False
