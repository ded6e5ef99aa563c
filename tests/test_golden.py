"""Byte-identity guard for the offline half.

Pins the SHA-256 of the ``save_cache`` output and of ``plan_json_text`` for
the demo map, the plant map and one seeded map with fractional
per-direction costs. Any rewrite of the reduction or the graph build must
leave caches and plan JSON byte for byte as they are; a changed digest here
means a changed answer or a changed cache format, not a style difference.
Each cache must also be its header line plus two columns of ``markings -
1`` unsigned entries each, in the widths ``basis_graph._column_code``
gives, and nothing more.

A fourth map, ``tests/data/reduce_44x44.json``, pins the reduction at a
size beyond the brute-force checks of ``test_abstraction.py``, and the
plan text of a long route on it.
"""

import hashlib
import json
import random
from array import array
from pathlib import Path

import pytest

from tampnet import (Plan, build_offline, load_env, net_digest, parse, parse_env, plan,
                     plan_json_text, save_cache)
from tampnet.abstraction import lift
from tampnet.basis_graph import _column_code
from tampnet.planner import backtrack, select_target, split_formula
from tampnet.taskspec import compile_vectors

DEMO_SPEC = "visit(2) & end(3) & !visit(1)"
PLANT_SPEC = ("visit(2) & visit(4) & visit(6) & visit(9) & visit(10)"
              " & !visit(5) & end(1) & end(7)")
FRACTIONAL_SPEC = "visit(d) & visit(a) & end(c)"

# (save_cache SHA-256, plan_json_text SHA-256). The plan digests were
# computed before the integer rewrite of the reduction and the graph build;
# the cache digests are those of the version-3 format, whose columns take
# the narrowest of 1, 2 and 4 bytes an entry.
GOLDEN = {
    "demo": ("57e1026e82bd1ca64aef4ab2f4ca0b383119dceb80da7e1acac09444a211c324",
             "c4da7cfd328ad3e898fcd04287015da017f9d897c15c3f261df929835e246ad5"),
    "plant": ("0f4c0448ac4eb880decdbe55e4dac977a53cbdb53a44102ddd09c57c3e45aa1d",
              "6ce9e836a7c954eb808a820ecdcd1328dbc8d23c0866eb669573d778eb5644b5"),
    "fractional": ("b04ebf698b7a20c81bb407994ac8593584a44cc1237d9ebd54d1789b4b320baa",
                   "76e523fa03300b8be5c30f5f6cc8336d000284644bac1bff95512d6d508af9f9"),
}


def fractional_env():
    """Seeded 10x10 map: obstacles, overlapping two-cell regions, a shared
    proposition and per-direction costs with denominators 3, 7 and 2."""
    rng = random.Random("golden:fractional")
    side = 10
    cells = [(r, c) for r in range(side) for c in range(side)]
    rng.shuffle(cells)
    obstacles, free = cells[:12], sorted(cells[12:])
    rng.shuffle(free)

    def pair(anchor):
        r, c = anchor
        for nb in ((r, c + 1), (r + 1, c), (r, c - 1), (r - 1, c)):
            if nb in free:
                return [list(anchor), list(nb)]
        return [list(anchor)]

    regions = [
        {"name": "A", "cells": pair(free[0]), "trajectory_props": ["a"]},
        {"name": "B", "cells": pair(free[1]), "trajectory_props": ["b", "s"]},
        {"name": "C", "cells": [list(free[2])], "final_props": ["c"]},
        {"name": "D", "cells": [list(free[3])], "trajectory_props": ["d", "s"]},
    ]
    # E overlaps A on A's first cell
    regions.append({"name": "E", "cells": [list(free[0]), list(free[4])],
                    "final_props": ["e"]})
    return parse_env({
        "grid": {"rows": side, "cols": side},
        "obstacles": [list(c) for c in obstacles],
        "regions": regions,
        "agents": [list(free[5]), list(free[6])],
        "move_cost": {"up": "1/3", "right": "2/7", "down": "1/2", "left": 1},
    })


def _digests(env, offline, spec, tmp_path):
    cache = tmp_path / "graph.bin"
    save_cache(offline.graph, offline.monitored.net, cache)
    data = cache.read_bytes()
    edges = len(offline.graph) - 1
    width = (array(_column_code(edges)).itemsize
             + array(_column_code(offline.monitored.net.num_transitions)).itemsize)
    assert len(data) == data.index(b"\n") + 1 + width * edges
    result = plan(env, spec, offline)
    assert isinstance(result, Plan)
    return (hashlib.sha256(data).hexdigest(),
            hashlib.sha256(plan_json_text(env, result).encode("utf-8")).hexdigest())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cache_and_plan_bytes_are_pinned(name, request, tmp_path):
    if name == "demo":
        env, offline, spec = (request.getfixturevalue("demo_env"),
                              request.getfixturevalue("demo_offline"), DEMO_SPEC)
    elif name == "plant":
        env, offline, spec = (request.getfixturevalue("plant_env"),
                              request.getfixturevalue("plant_offline"), PLANT_SPEC)
    else:
        env = fractional_env()
        offline, spec = build_offline(env), FRACTIONAL_SPEC
    assert _digests(env, offline, spec, tmp_path) == GOLDEN[name]


REDUCE_MAP = Path(__file__).parent / "data" / "reduce_44x44.json"

# Fingerprints of the offline model of REDUCE_MAP, recorded before the
# reduction stopped each search once its last sink was settled.
REDUCE_GOLDEN = {
    "reduced_net": "c3c515fc2e8b28bd88dc5d1b676a8c2cac992541b742f300f740ee3cca3be1c9",
    "monitored_net": "f1246ef51277fe04c7ff064455f43272191355b27bb2b6dc5552b4f7b517cb54",
    "lift_map": "0ba975d57356a4e04018cd8f7b7ff7350587d41d7473dc9e7788d71d792e2e7a",
    "cache": "169a418ebefcc18b1d33d437c9a08bc3818ca03e9fca50e19256cc6f332ae159",
}


def lift_map_digest(simplified) -> str:
    """SHA-256 of the lift map as canonical JSON: one
    ``[source, target, sequence, [numerator, denominator]]`` per transition."""
    rows = [[m.source, m.target, list(m.sequence), [m.cost.numerator, m.cost.denominator]]
            for m in simplified.lift_map]
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode("utf-8")).hexdigest()


def test_reduction_of_a_large_map_is_pinned(tmp_path):
    env = load_env(REDUCE_MAP)
    # the map has what the pins are meant to cover: size, obstacles,
    # fractional per-direction costs, overlapping multi-cell regions and a
    # labeled cell walled off from every other place
    assert env.rows >= 40 and env.cols >= 40 and env.obstacles
    assert any(c.denominator > 1 for c in env.move_cost)
    cells = [cell for region in env.regions for cell in region.cells]
    assert len(set(cells)) < len(cells)
    assert any(len(region.cells) > 1 for region in env.regions)
    (walled,) = [region.cells[0] for region in env.regions if region.name == "W"]
    r, c = walled
    assert all((r + dr, c + dc) in env.obstacles
               for dr, dc in ((-1, 0), (0, 1), (1, 0), (0, -1)))

    offline = build_offline(env)
    w = offline.cells.index(walled)
    assert w in offline.simplified.base_place
    assert all(w not in (m.source, m.target) for m in offline.simplified.lift_map)

    cache = tmp_path / "graph.bin"
    save_cache(offline.graph, offline.monitored.net, cache)
    assert {
        "reduced_net": net_digest(offline.simplified.net),
        "monitored_net": net_digest(offline.monitored.net),
        "lift_map": lift_map_digest(offline.simplified),
        "cache": hashlib.sha256(cache.read_bytes()).hexdigest(),
    } == REDUCE_GOLDEN


# A formula on REDUCE_MAP whose plan lifts three reduced moves to 68 grid
# moves and adds one escape hop, for two agents and a cost of 1955/36; the
# digest of its plan_json_text was recorded before the plan was walked once
# per reduced move and its text written without json.dumps.
REDUCE_SPEC = "visit(e) & visit(d) & end(fb) & !end(c)"
REDUCE_PLAN = "60ec0a996bbb3cc48496e9194a44518e06df50ed18f5a9a931ebc46ef687f931"


def test_plan_of_a_long_route_is_pinned():
    env = load_env(REDUCE_MAP)
    result = plan(env, REDUCE_SPEC, build_offline(env))
    assert isinstance(result, Plan)
    assert len(result.team_sequence) == 69
    assert result.total_cost.denominator > 1
    text = plan_json_text(env, result)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == REDUCE_PLAN


def formula_pool(env, seed, size=60):
    """``size`` seeded formulas over ``env``'s propositions: one to three
    visit atoms and up to three end atoms, in clauses of one atom or two, and
    up to two negated atoms of either kind that no clause asks for."""
    rng = random.Random(seed)
    names = {"visit": sorted({n for r in env.regions for n in r.trajectory_props}),
             "end": sorted({n for r in env.regions for n in r.final_props})}
    pool = []
    for _ in range(size):
        terms, asked = [], {}
        for kind, low, high in (("visit", 1, 3), ("end", 0, 3)):
            asked[kind] = rng.sample(names[kind], rng.randint(low, high))
            atoms = [f"{kind}({n})" for n in asked[kind]]
            while atoms:
                width = rng.randint(1, 2)
                clause, atoms = atoms[:width], atoms[width:]
                terms.append(clause[0] if len(clause) == 1 else f"({' | '.join(clause)})")
        for _ in range(rng.randint(0, 2)):
            kind = rng.choice(("visit", "end"))
            free = [n for n in names[kind] if n not in asked[kind]]
            if free:
                name = rng.choice(free)
                asked[kind].append(name)
                terms.append(f"!{kind}({name})")
        rng.shuffle(terms)
        pool.append(" & ".join(terms))
    return pool


def answer_bytes(env, result) -> bytes:
    """The plan's JSON text, or one line naming the infeasible families."""
    if isinstance(result, Plan):
        return plan_json_text(env, result).encode("utf-8")
    return ("infeasible " + " ".join(result.families) + "\n").encode("utf-8")


def hop_count(offline, spec, result: Plan) -> int:
    """How many moves of ``result``, the plan of ``spec``, are escape hops:
    the moves beyond the lift of the chosen marking's abstract run."""
    vectors = compile_vectors(spec, offline.monitored.net, offline.monitored.indicator_of)
    escapes = offline.simplified.escapes
    choice = select_target(offline.graph, split_formula(offline.graph, vectors, escapes))
    return len(result.team_sequence) - len(lift(offline.simplified,
                                                backtrack(offline.graph, choice.index)))


# SHA-256 over the answer bytes of formula_pool(env, "golden:pool:<name>"),
# in pool order, recorded before plan stopped replaying empty hop lists and
# summing costs as Fractions, and before parse read a formula in one pass.
POOL_GOLDEN = {
    "plant": "9c0880c24fb018b13ede2698705cb508864470ff6d73d0cc64ee50c0a891252b",
    "reduce": "2a91fb1bacfc5492c06d02a7b6b4754c79df94d013c69700996b0e8a3da332fc",
}


@pytest.mark.parametrize("name", sorted(POOL_GOLDEN))
def test_answers_to_a_seeded_pool_are_pinned(name, request):
    if name == "plant":
        env, offline = request.getfixturevalue("plant_env"), request.getfixturevalue("plant_offline")
    else:
        env = load_env(REDUCE_MAP)
        offline = build_offline(env)
    digest = hashlib.sha256()
    kinds = set()
    for text in formula_pool(env, f"golden:pool:{name}"):
        result = plan(env, text, offline)
        digest.update(answer_bytes(env, result))
        if isinstance(result, Plan):
            kinds.add("hops" if hop_count(offline, parse(text), result) else "no hops")
        else:
            kinds.add("infeasible")
    # the pool covers each way a query can end
    assert kinds == {"hops", "no hops", "infeasible"}
    assert digest.hexdigest() == POOL_GOLDEN[name]
