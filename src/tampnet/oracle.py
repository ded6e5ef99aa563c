"""Independent ground truth used to certify the planner.

``joint_search`` answers a task query by exact uniform-cost search over the
joint agent state (a sorted multiset of cells plus visit bits), knowing
nothing about the abstraction pipeline.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple

from .errors import StateBudgetError, UnknownPropositionError
from .grid import DIRECTIONS, Cell, Environment, cell_labels, free_cells
from .petri import END, VISIT
from .taskspec import BooleanSpec

DEFAULT_ORACLE_BUDGET = 1_000_000


class OracleResult(NamedTuple):
    cost: Fraction
    moves: Tuple[Tuple[int, Cell, Cell], ...]  # (agent, from cell, to cell)


def joint_search(env: Environment, spec: BooleanSpec,
                 state_budget: int = DEFAULT_ORACLE_BUDGET) -> Optional[OracleResult]:
    """Exact optimal cost for the query, or None when it cannot be met.

    States are (sorted cell multiset, visit bitset); only propositions that
    appear positively in trajectory clauses get a bit, forbidden-visit
    propositions are enforced by never entering their cells (and by rejecting
    runs that start inside them). Raises StateBudgetError past the budget,
    and, before any per-cell work, for a map with more free cells than the
    budget, as ``build_offline`` does for its state cap, so a huge grid is
    refused before its cells are listed.
    """
    if env.rows * env.cols - len(env.obstacles) > state_budget:
        raise StateBudgetError(state_budget, what="oracle search")
    cells = free_cells(env)
    index = {cell: i for i, cell in enumerate(cells)}
    # each (kind, name) to its free cells: every check and cell set below reads this
    carriers: Dict[Tuple[str, str], set] = {}
    for cell, atoms in cell_labels(env).items():
        for atom in atoms:
            carriers.setdefault(atom, set()).add(index[cell])

    # a fault names its smallest unknown atom, so the text does not
    # depend on the order a frozenset iterates in
    for kind, family, clauses in ((VISIT, "trajectory", spec.trajectory_clauses),
                                  (END, "final", spec.final_clauses)):
        for clause in clauses:
            unknown = [name for name in clause if (kind, name) not in carriers]
            if unknown:
                raise UnknownPropositionError(
                    f"{family} proposition {min(unknown)!r} is not defined by the environment")
    unknown = [atom for atom in spec.forbidden if atom not in carriers]
    if unknown:
        raise UnknownPropositionError(
            f"{min(unknown).text()} names a proposition the environment does not define")

    def cells_of(atoms) -> set:
        return set().union(*(carriers[atom] for atom in atoms))

    tracked = sorted(set().union(*spec.trajectory_clauses))
    bit_of = {name: 1 << i for i, name in enumerate(tracked)}
    clause_masks = [sum(bit_of[name] for name in clause) for clause in spec.trajectory_clauses]
    cell_bits = [0] * len(cells)
    for name, bit in bit_of.items():
        for i in carriers[VISIT, name]:
            cell_bits[i] |= bit
    final_cell_sets = [cells_of((END, name) for name in clause) for clause in spec.final_clauses]
    blocked = cells_of(a for a in spec.forbidden if a.kind == VISIT)
    forbidden_end_cells = cells_of(a for a in spec.forbidden if a.kind == END)

    start = sorted(index[cell] for cell in env.agents)
    if blocked.intersection(start):
        return None
    bits0 = 0
    for i in start:
        bits0 |= cell_bits[i]

    # exact integer costs: each cost times the LCM of the denominators
    scale = math.lcm(*(c.denominator for c in env.move_cost))
    costs = [c.numerator * (scale // c.denominator) for c in env.move_cost]
    neighbors: List[List[Tuple[int, int]]] = [[] for _ in cells]
    for i, (r, c) in enumerate(cells):
        for d, (_, (dr, dc)) in enumerate(DIRECTIONS):
            j = index.get((r + dr, c + dc))
            if j is not None and j not in blocked:
                neighbors[i].append((j, costs[d]))

    def is_goal(positions, bits) -> bool:
        for mask in clause_masks:
            if not bits & mask:
                return False
        here = set(positions)
        for members in final_cell_sets:
            if not here & members:
                return False
        return not (here & forbidden_end_cells)

    state0 = (tuple(start), bits0)
    if is_goal(*state0):
        return OracleResult(Fraction(0), ())

    dist = {state0: 0}
    parent: Dict[tuple, tuple] = {state0: None}
    heap = [(0, 0, state0)]
    counter = 1
    goal_state = None
    while heap:
        cost, _, state = heapq.heappop(heap)
        if cost > dist.get(state, cost):
            continue
        positions, bits = state
        if is_goal(positions, bits):
            goal_state = state
            break
        prev = None
        for slot, here in enumerate(positions):
            if here == prev:
                continue
            prev = here
            rest = positions[:slot] + positions[slot + 1:]
            for nxt, w in neighbors[here]:
                new_positions = tuple(sorted(rest + (nxt,)))
                new_state = (new_positions, bits | cell_bits[nxt])
                new_cost = cost + w
                old = dist.get(new_state)
                if old is None or new_cost < old:
                    if old is None and len(dist) >= state_budget:
                        raise StateBudgetError(state_budget, what="oracle search")
                    dist[new_state] = new_cost
                    parent[new_state] = (state, (here, nxt))
                    heapq.heappush(heap, (new_cost, counter, new_state))
                    counter += 1
    if goal_state is None:
        return None

    steps = []
    state = goal_state
    while parent[state] is not None:
        state, move = parent[state]
        steps.append(move)
    steps.reverse()

    agent_at = [index[cell] for cell in env.agents]
    moves = []
    for src, dst in steps:
        agent = agent_at.index(src)
        agent_at[agent] = dst
        moves.append((agent, cells[src], cells[dst]))
    return OracleResult(Fraction(dist[goal_state], scale), tuple(moves))
