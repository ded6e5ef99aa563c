"""Independent check of a plan's JSON against the map and the formula.

Reads only the environment dict and the plan JSON that tampnet prints; it
calls nothing in tampnet. Interleaving of agents is irrelevant to both the
cost and the formula (there are no collision constraints), so per-agent
paths are enough.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, NamedTuple, Tuple

from instances import Formula, cell_atoms, free_cells

DIRECTIONS = {(-1, 0): "up", (0, 1): "right", (1, 0): "down", (0, -1): "left"}


class RouteError(Exception):
    """The plan breaks the map or the formula."""


def move_costs(env: dict) -> Dict[str, Fraction]:
    raw = env.get("move_cost", 1)
    if isinstance(raw, dict):
        return {name: Fraction(str(raw.get(name, 1))) for name in DIRECTIONS.values()}
    return {name: Fraction(str(raw)) for name in DIRECTIONS.values()}


def parse_cost(value) -> Fraction:
    return Fraction(str(value))


class MapFacts(NamedTuple):
    """What the validator reads from a map, computed once per map."""

    free: frozenset
    atoms: dict
    costs: Dict[str, Fraction]
    starts: Tuple[Tuple[int, int], ...]

    @classmethod
    def of(cls, env: dict) -> "MapFacts":
        return cls(frozenset(free_cells(env)), cell_atoms(env), move_costs(env),
                   tuple(tuple(a) for a in env["agents"]))


def validate(facts: MapFacts, formula: Formula, plan: dict) -> Fraction:
    """Return the recomputed cost of the plan or raise RouteError.

    Checks per-agent adjacency on free cells, starts, the cost recomputed
    from the map's move costs, the formula on visited and final cells, and
    the plan's own list of satisfied atoms.
    """
    free, atoms, costs = facts.free, facts.atoms, facts.costs
    agents = plan.get("agents")
    if not isinstance(agents, list) or len(agents) != len(facts.starts):
        raise RouteError("plan has a different agent count than the map")
    total = Fraction(0)
    visited, final = set(), set()
    for i, agent in enumerate(agents):
        path = [tuple(cell) for cell in agent["path"]]
        start = facts.starts[i]
        if not path or path[0] != start or tuple(agent["start"]) != start:
            raise RouteError(f"agent {i} does not start at {list(start)}")
        for cell in path:
            if cell not in free:
                raise RouteError(f"agent {i} enters blocked or outside cell {list(cell)}")
            visited |= atoms.get(cell, (frozenset(), frozenset()))[0]
        for (r0, c0), (r1, c1) in zip(path, path[1:]):
            direction = DIRECTIONS.get((r1 - r0, c1 - c0))
            if direction is None:
                raise RouteError(f"agent {i} jumps from {[r0, c0]} to {[r1, c1]}")
            total += costs[direction]
        final |= atoms.get(path[-1], (frozenset(), frozenset()))[1]
    if parse_cost(plan["total_cost"]) != total:
        raise RouteError(f"reported cost {plan['total_cost']} but the paths cost {total}")
    for clause in formula.visits:
        if not clause & visited:
            raise RouteError(f"no agent visits any of {sorted(clause)}")
    for clause in formula.ends:
        if not clause & final:
            raise RouteError(f"no agent ends on any of {sorted(clause)}")
    if formula.no_visit & visited:
        raise RouteError(f"forbidden visits {sorted(formula.no_visit & visited)}")
    if formula.no_end & final:
        raise RouteError(f"forbidden ends {sorted(formula.no_end & final)}")
    satisfied = sorted([f"visit({n})" for n in visited] + [f"end({n})" for n in final])
    if plan.get("satisfied_atoms") != satisfied:
        raise RouteError(f"satisfied_atoms {plan.get('satisfied_atoms')} != {satisfied}")
    return total
