from __future__ import annotations

import dataclasses
import heapq
import math
from fractions import Fraction
from itertools import groupby, repeat
from typing import List, Optional, Sequence, Tuple

import pytest

from tampnet import (BasisGraph, StateBudgetError, build_offline, load_env,
                     parse_env)
from tampnet.data import fixture_path
from tampnet.petri import Atom, END, Marking, PetriNet, fire
from tampnet.planner import TargetChoice

EMPTY = frozenset()


def end_label(name: str) -> frozenset:
    return frozenset({Atom(END, name)})


def hand_net(num_places: int, arcs: Sequence[Tuple[tuple, tuple, object]],
             labels: Sequence[frozenset], m0: Sequence[int],
             latches=frozenset()) -> PetriNet:
    """Small literal net builder for structural tests, the one place a
    literal net becomes move columns.

    Each arc is ``(input places, output places, cost)``, as in a general
    Petri net: a move takes one input place, its source, and its output
    places are one place that is no latch, its target, and the latches it
    sets, in the order written. Costs are numbers or ``"p/q"`` strings;
    the weights count them at the LCM of their denominators. An arc of any
    other shape raises ValueError, since no net can express it.
    """
    costs = [Fraction(a[2]) for a in arcs]
    scale = math.lcm(*(c.denominator for c in costs))
    latches = frozenset(latches)
    sources, targets, sets = [], [], []
    for t, (pre, post, _) in enumerate(arcs):
        plain = [p for p in post if p not in latches]
        if len(pre) != 1 or len(plain) != 1:
            raise ValueError(f"arc {t} is no move: it takes from {len(pre)} places "
                             f"and puts a token on {len(plain)}")
        sources += pre
        targets += plain
        sets.append(tuple(p for p in post if p in latches))
    return PetriNet(
        num_places=num_places,
        sources=tuple(sources),
        targets=tuple(targets),
        weights=tuple(c.numerator * (scale // c.denominator) for c in costs),
        scale=scale,
        labels=tuple(labels),
        initial_marking=tuple(m0),
        sets=tuple(sets),
        latches=latches,
    )


def counts_of(m: Marking) -> dict:
    """The ``{place: count}`` map of marking ``m``'s occupied places."""
    return {p: c for p, c in enumerate(m) if c}


def marking_of(net: PetriNet, counts) -> Marking:
    """The marking of ``net`` whose occupied places are ``counts``."""
    return tuple(map(counts.get, range(net.num_places), repeat(0)))


def relay_net() -> PetriNet:
    # unlabeled hop feeding the only watched move
    return hand_net(3, [((0,), (1,), 1), ((1,), (2,), 1)],
                    [EMPTY, EMPTY, end_label("x")], (1, 0, 0))


def two_feeders_net() -> PetriNet:
    # two incomparable ways to enable the watched move
    return hand_net(4, [((0,), (2,), 1), ((1,), (2,), 2), ((2,), (3,), 1)],
                    [EMPTY, EMPTY, EMPTY, end_label("x")], (1, 1, 0, 0))


def hop_chain_net() -> PetriNet:
    return hand_net(4, [((0,), (1,), 1), ((1,), (2,), 2), ((2,), (3,), 5)],
                    [EMPTY, EMPTY, EMPTY, end_label("x")], (1, 0, 0, 0))


def two_cycle_net() -> PetriNet:
    return hand_net(3, [((0,), (1,), 1), ((1,), (0,), 1), ((1,), (2,), 1)],
                    [EMPTY, EMPTY, end_label("x")], (1, 0, 0))


def join_net() -> PetriNet:
    # the watched move consumes from two places at once: no net expresses
    # that, so hand_net refuses it
    return hand_net(5, [((0,), (2,), 1), ((1,), (3,), 1), ((2, 3), (4,), 1)],
                    [EMPTY] * 4 + [end_label("x")], (1, 1, 0, 0, 0))


def two_byte_net(latched: bool = False) -> PetriNet:
    """260 tokens on place 0 need two-byte fields. With ``latched``, the
    move out of place 0 also sets place 4, a latch after the plain places."""
    return hand_net(4 + latched, [((0,), (1,) + (4,) * latched, 1), ((2,), (3,), "1/2")],
                    [EMPTY, end_label("x"), EMPTY, end_label("y")] + [EMPTY] * latched,
                    (260, 0, 1, 0) + (0,) * latched, latches={4} if latched else ())


def wide_net(latched: bool = False) -> PetriNet:
    """1,100 places: two short chains, far apart, and idle places holding
    tokens between them. With ``latched``, each chain's last move also sets
    the place after the chain's end, a latch, and the idle places 501,
    holding none, and 1099, holding one, are latches no move sets."""
    width = 1100
    arcs = [((p,), (p + 1,), 1) for p in range(6)]
    arcs += [((p,), (p + 1,), "1/2") for p in range(1000, 1005)]
    labels = [end_label(f"l{p}") if 1 <= p <= 6 or 1001 <= p <= 1005 else EMPTY
              for p in range(width)]
    m0 = [0] * width
    m0[0] = m0[1000] = 1
    m0[500] = 3
    m0[1099] = 1
    if not latched:
        return hand_net(width, arcs, labels, m0)
    for k in (5, 10):
        pre, (end,), cost = arcs[k]
        arcs[k] = (pre, (end, end + 1), cost)
    return hand_net(width, arcs, labels, m0, latches={7, 501, 1006, 1099})


def brute_minimal_sequence(net, source, target, blocked):
    """All-simple-paths reference for the reduction's minimal sequences:
    cheapest (cost, transition ids) from source to target that never
    enters a blocked place (small nets only)."""
    blocked = frozenset(blocked) - {source}
    if target in blocked:
        return None
    out = [[] for _ in range(net.num_places)]
    for t, (p, x) in enumerate(zip(net.sources, net.targets)):
        out[p].append((t, x))
    best = None
    stack = [(source, (), Fraction(0), frozenset({source}))]
    while stack:
        place, seq, cost, seen = stack.pop()
        if best is not None and cost > best[0]:
            continue
        if place == target:
            key = (cost, seq)
            if best is None or key < best:
                best = key
            continue
        for t, nxt in out[place]:
            if nxt in seen or nxt in blocked:
                continue
            stack.append((nxt, seq + (t,), cost + Fraction(net.weights[t], net.scale),
                          seen | {nxt}))
    return best


def occupancy(graph):
    """Every place's occupancy bitset, in place order, read through
    ``graph.index``."""
    return tuple(graph.index[p] for p in range(graph.places))


def assert_same_graph(graph, other):
    """``graph`` and ``other`` hold equal values in every column. The
    occupancy index fills on first read, so it is compared in full."""
    for column in dataclasses.fields(BasisGraph):
        if column.name == "index":
            assert occupancy(graph) == occupancy(other), column.name
        else:
            assert getattr(graph, column.name) == getattr(other, column.name), column.name


# the graph last unpacked by markings_of and its markings
_unpacked = (None, ())


def markings_of(graph):
    """Every marking of ``graph`` as a tuple, read through ``marking(i)``.

    The last graph's markings are kept, so the scan references below,
    called many times on one graph, unpack it once."""
    global _unpacked
    if _unpacked[0] is not graph:
        _unpacked = (graph, tuple(graph.marking(i) for i in range(len(graph))))
    return _unpacked[1]


def occupancy_reference(markings):
    """Per-place bitsets built one marking at a time: bit i of entry p is
    set iff marking i has a token on place p."""
    places = len(markings[0]) if markings else 0
    return tuple(sum(1 << i for i, m in enumerate(markings) if m[p])
                 for p in range(places))


@dataclasses.dataclass(frozen=True)
class ReferenceGraph:
    """Every reachable marking with its minimal cost, in the canonical tree
    order: ascending (cost, pi), where pi is the smallest (parent rank,
    transition) among the marking's in-edges that attain its cost.
    ``parent[i - 1]`` and ``transition[i - 1]`` are pi of marking i."""

    markings: Tuple[Marking, ...]
    labels: Tuple[Fraction, ...]
    parent: Tuple[int, ...]
    transition: Tuple[int, ...]


def full_graph_reference(net: PetriNet, state_budget: int = 100_000) -> ReferenceGraph:
    """The canonical tree of ``net``, derived without the builder.

    A breadth-first search fires every enabled transition of every marking
    with ``petri.fire``, keeping each edge as (child index, transition);
    Dijkstra's algorithm then labels the markings over those edges, in
    the net's integer weights. Last, the markings
    are ranked level by level in ascending cost: every min-cost in-edge of
    a level comes from a cheaper level, already ranked, so each marking's
    pi is known before its level is sorted by it. Raises StateBudgetError
    past ``state_budget`` markings.
    """
    weight = net.weights
    # each transition is tried only where its source place is marked
    by_input: List[List[int]] = [[] for _ in range(net.num_places)]
    for t, p in enumerate(net.sources):
        by_input[p].append(t)

    root = net.initial_marking
    markings = [root]
    index = {root: 0}
    edges: List[List[int]] = []  # edges[i]: child, transition, child, ...
    for m in markings:  # the loop also visits markings appended below
        out = []
        for p, tokens in enumerate(m):
            if not tokens:
                continue
            for t in by_input[p]:
                child = fire(net, m, t)
                j = index.get(child)
                if j is None:
                    if len(markings) >= state_budget:
                        raise StateBudgetError(state_budget, what="reference graph")
                    j = index[child] = len(markings)
                    markings.append(child)
                out += (j, t)
        edges.append(out)

    cost: List[Optional[int]] = [None] * len(markings)
    cost[0] = 0
    heap = [(0, 0)]
    while heap:
        q, i = heapq.heappop(heap)
        if q > cost[i]:
            continue
        out = iter(edges[i])
        for j, t in zip(out, out):
            cand = q + weight[t]
            if cost[j] is None or cand < cost[j]:
                cost[j] = cand
                heapq.heappush(heap, (cand, j))

    pi: List[Optional[Tuple[int, int]]] = [None] * len(markings)
    pi[0] = (-1, -1)  # the root has no in-edge
    ranked: List[int] = []
    rank = [0] * len(markings)
    by_cost = sorted(range(len(markings)), key=cost.__getitem__)
    for _, level in groupby(by_cost, key=cost.__getitem__):
        level = sorted(level, key=pi.__getitem__)
        for i in level:
            rank[i] = len(ranked)
            ranked.append(i)
        for i in level:
            out = iter(edges[i])
            for j, t in zip(out, out):
                if cost[i] + weight[t] == cost[j] and (pi[j] is None or (rank[i], t) < pi[j]):
                    pi[j] = (rank[i], t)
    return ReferenceGraph(tuple(markings[i] for i in ranked),
                          tuple(Fraction(cost[i], net.scale) for i in ranked),
                          tuple(pi[i][0] for i in ranked[1:]),
                          tuple(pi[i][1] for i in ranked[1:]))


def assert_matches_reference(net, graph):
    """``graph`` is the canonical tree of ``net`` that
    ``full_graph_reference`` derives: every reachable marking once, in the
    same order, with the same minimal costs and the same tree edges."""
    ref = full_graph_reference(net)
    assert markings_of(graph) == ref.markings
    assert [graph.q(i) for i in range(len(graph))] == list(ref.labels)
    assert tuple(graph.parent) == ref.parent
    assert tuple(graph.transition) == ref.transition


def _split_forbidden(vectors, escapes):
    mobility = len(escapes)
    soft = [p for p in vectors.forbidden if p < mobility]
    hard = [p for p in vectors.forbidden if p >= mobility]
    return soft, hard


def scan_select(graph, vectors, escapes):
    """Reference for select_target: plain full scan over the marking
    tuples, no early exit."""
    soft, hard = _split_forbidden(vectors, escapes)
    need = list(vectors.trajectory)
    need += [[p for p in places if p not in soft] for places in vectors.final]
    best = None
    for i, m in enumerate(markings_of(graph)):
        if any(m[p] for p in hard):
            continue
        if not all(any(m[p] for p in sup) for sup in need):
            continue
        total = graph.q(i)
        for p in soft:
            if not m[p]:
                continue
            if escapes[p] is None:
                total = None
                break
            total += m[p] * Fraction(escapes[p][1], graph.scale)
        if total is not None and (best is None or total < best.cost):
            best = TargetChoice(i, total)
    return best


def scan_diagnose(graph, vectors, escapes):
    """Reference for diagnose_infeasibility: one tuple scan per family."""
    soft, hard = _split_forbidden(vectors, escapes)
    z_sup = vectors.trajectory
    d_sup = [[p for p in places if p not in soft] for places in vectors.final]

    def ever(check) -> bool:
        return any(check(m) for m in markings_of(graph))

    def clearable(m) -> bool:
        if any(m[p] for p in hard):
            return False
        return all(not m[p] or escapes[p] is not None for p in soft)

    failing = []
    if z_sup and not ever(lambda m: all(any(m[p] for p in s) for s in z_sup)):
        failing.append("trajectory")
    if d_sup and not ever(lambda m: all(any(m[p] for p in s) for s in d_sup)):
        failing.append("final")
    if vectors.forbidden and not ever(clearable):
        failing.append("forbidden")
    return tuple(failing) if failing else ("combination",)


def square_env(side: int, regions, agents, obstacles=(), move_cost=1):
    return parse_env({
        "grid": {"rows": side, "cols": side},
        "obstacles": [list(c) for c in obstacles],
        "regions": regions,
        "agents": [list(a) for a in agents],
        "move_cost": move_cost,
    })


def random_env(rng):
    """Small map with obstacles, overlapping one- and two-cell regions, a
    proposition shared by two regions and fractional per-direction costs."""
    side = rng.choice([3, 4, 4, 5])
    cells = [(r, c) for r in range(side) for c in range(side)]
    rng.shuffle(cells)
    obstacles, free = cells[:rng.randrange(0, side)], cells[side:]
    names = ["a", "b", "c", "d"]
    regions = []
    for k in range(rng.randrange(2, 5)):
        anchor = rng.choice(free)
        near = [c for c in free if abs(c[0] - anchor[0]) + abs(c[1] - anchor[1]) == 1]
        region_cells = [anchor] + rng.sample(near, min(len(near), rng.randrange(0, 2)))
        regions.append({
            "name": f"R{k}",
            "cells": [list(c) for c in region_cells],
            "trajectory_props": [names[k]] if rng.random() < 0.8 else [],
            "final_props": [names[(k + 1) % len(names)]] if rng.random() < 0.7 else [],
        })
    regions[-1]["trajectory_props"] = regions[0]["trajectory_props"] or ["a"]
    costs = [1, Fraction(1, 3), Fraction(2, 7), Fraction(1, 2)]
    rng.shuffle(costs)
    return parse_env({
        "grid": {"rows": side, "cols": side},
        "obstacles": [list(c) for c in obstacles],
        "regions": regions,
        "agents": [list(rng.choice(free)) for _ in range(rng.randrange(1, 4))],
        "move_cost": {d: str(c) for d, c in zip(("up", "right", "down", "left"), costs)},
    })


@pytest.fixture(scope="session")
def demo_env():
    return load_env(fixture_path("demo_3x3.json"))


@pytest.fixture(scope="session")
def plant_env():
    return load_env(fixture_path("plant_8x11.json"))


@pytest.fixture(scope="session")
def demo_offline(demo_env):
    return build_offline(demo_env)


@pytest.fixture(scope="session")
def plant_offline(plant_env):
    return build_offline(plant_env)
