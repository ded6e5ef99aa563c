"""``build_simplified`` against a reference reduction that searches forward.

The reference runs one heap Dijkstra per source place, with the other
labeled places as sinks that are reached but never expanded, stops once the
last sink is settled, marks in one reverse sweep over the settled places
which sinks each place reaches on that search's cheapest-route DAG, and
reads each target's route off the DAG. Each kept place's escape move is
found by a scan over every transition of the net. It is kept here only as
an independent check: the reduced net, every lifted sequence and their
order, and the escapes must come out equal.
"""

import heapq
import random
from pathlib import Path

import pytest

from tampnet import load_env
from tampnet.abstraction import (MinimalSequence, SimplifiedNet,
                                 build_simplified, labeled_places)
from tampnet.bench import generate_instance
from tampnet.data import fixture_path
from tampnet.grid import env_to_pn, free_cells
from tampnet.petri import PetriNet

from conftest import random_env, square_env

REDUCE_MAP = Path(__file__).parent / "data" / "reduce_44x44.json"


def forward_cheapest(out, source, sink, sinks):
    """Dijkstra from ``source``; flagged places are settled, not expanded,
    and the search stops once the last of ``sinks`` of them is settled."""
    shift = len(out).bit_length()
    mask = (1 << shift) - 1
    dist = [None] * len(out)
    dist[source] = 0
    settled = []
    heap = [source]
    while heap:
        key = heapq.heappop(heap)
        p, d = key & mask, key >> shift
        if d != dist[p]:
            continue
        settled.append(p)
        if sink[p]:
            sinks -= 1
            if not sinks:
                break
            continue
        for _, q, w in out[p]:
            if dist[q] is None or d + w < dist[q]:
                dist[q] = d + w
                heapq.heappush(heap, (d + w) << shift | q)
    return dist, settled


def forward_reaching(out, dist, settled, sink, bit):
    """The bitset of sinks each place reaches on the cheapest-route DAG."""
    reach = [0] * len(out)
    for p in reversed(settled):
        if sink[p]:
            reach[p] = bit[p]
            continue
        for _, q, w in out[p]:
            if dist[p] + w == dist[q]:
                reach[p] |= reach[q]
    return reach


def forward_route(out, dist, reach, source, target, bit):
    """Smallest transition id at each step of a DAG move still reaching
    ``target``."""
    seq, places, p = [], [], source
    while p != target:
        for t, q, w in out[p]:
            if reach[q] & bit and dist[p] + w == dist[q]:
                seq.append(t)
                places.append(q)
                p = q
                break
    return MinimalSequence(source, target, tuple(seq), dist[target], tuple(places))


def scan_escapes(net, base):
    """Cheapest single move from each base place onto an unlabeled place,
    found by scanning every transition: one ``(transition id, weight)`` per
    entry of ``base``, or None when no unlabeled neighbor exists. Ties go to
    the smallest transition id."""
    owner = {p: i for i, p in enumerate(base)}
    weights = net.weights
    best = [None] * len(base)
    for t in range(net.num_transitions):
        i = owner.get(net.sources[t])
        if i is None or net.labels[net.targets[t]]:
            continue
        if best[i] is None or weights[t] < weights[best[i]]:
            best[i] = t
    return tuple(None if t is None else (t, weights[t]) for t in best)


def forward_simplified(net):
    labeled = labeled_places(net)
    started = [p for p in range(net.num_places) if net.initial_marking[p] > 0]
    base = tuple(sorted(set(labeled) | set(started)))
    index = {p: i for i, p in enumerate(base)}
    bit = {q: 1 << k for k, q in enumerate(labeled)}
    sink = bytearray(net.num_places)
    for q in labeled:
        sink[q] = 1
    out = [[] for _ in range(net.num_places)]
    for t, p, q, w in zip(range(net.num_transitions), net.sources, net.targets, net.weights):
        out[p].append((t, q, w))
    lift_map = []
    for p in base:
        own = sink[p]
        sinks = len(labeled) - own
        if not sinks:
            continue
        sink[p] = 0
        dist, settled = forward_cheapest(out, p, sink, sinks)
        reach = forward_reaching(out, dist, settled, sink, bit)
        lift_map.extend(forward_route(out, dist, reach, p, q, bit[q])
                        for q in labeled if q != p and dist[q] is not None)
        sink[p] = own
    reduced = PetriNet(
        num_places=len(base),
        sources=tuple(index[ms.source] for ms in lift_map),
        targets=tuple(index[ms.target] for ms in lift_map),
        weights=tuple(ms.weight for ms in lift_map),
        sets=((),) * len(lift_map),
        scale=net.scale,
        labels=tuple(net.labels[p] for p in base),
        initial_marking=tuple(net.initial_marking[p] for p in base),
    )
    return SimplifiedNet(reduced, tuple(lift_map), base, scan_escapes(net, base))


@pytest.mark.parametrize("env", [
    pytest.param(lambda: load_env(fixture_path("plant_8x11.json")), id="plant"),
    pytest.param(lambda: load_env(REDUCE_MAP), id="reduce_44x44"),
    pytest.param(lambda: generate_instance("acc6:50", 50, 50, 3, 8, 10)[0], id="acc6"),
])
def test_reduction_equals_the_forward_reference(env):
    net = env_to_pn(env())
    simplified = build_simplified(net)
    assert simplified.lift_map and simplified == forward_simplified(net)


def test_reduction_equals_the_forward_reference_on_random_maps():
    rng = random.Random("backward-reduction")
    for _ in range(300):
        net = env_to_pn(random_env(rng))
        assert build_simplified(net) == forward_simplified(net)


def test_escapes_take_the_cheapest_move_then_the_smallest_id():
    # up and right tie at 2, down costs 1 and left 3. The labeled centre
    # steps down. The agent's corner has only up and right, which tie, and
    # up comes first in transition id.
    env = square_env(3, [{"name": "c", "cells": [[1, 1]], "final_props": ["c"]}],
                     agents=[(2, 0)], move_cost={"up": 2, "right": 2, "down": 1, "left": 3})
    net = env_to_pn(env)
    cells = free_cells(env)
    move = {(cells[p], cells[q]): t for t, (p, q) in enumerate(zip(net.sources, net.targets))}
    simplified = build_simplified(net)
    assert simplified.base_place == (cells.index((1, 1)), cells.index((2, 0)))
    assert simplified.escapes == ((move[(1, 1), (2, 1)], 1), (move[(2, 0), (1, 0)], 2))
    assert simplified.escapes == scan_escapes(net, simplified.base_place)
