"""Byte-identity guard for the offline half.

Pins the SHA-256 of the ``save_offline`` cache's header line and of its
inflated payload, and of ``plan_json_text``, for the demo map, the plant
map and one seeded map with fractional per-direction costs. The
compressed body is not pinned: deflate output may differ between zlib
builds, and the header names the payload's checksum and size instead. Any
rewrite of the reduction or the graph build must leave caches and plan
JSON byte for byte as they are; a changed digest here means a changed
answer or a changed cache format, not a style difference. Each payload
must also be the reduction's bytes plus two columns of ``markings - 1``
unsigned entries each, in the widths ``basis_graph._column_code`` gives,
and nothing more: the version-5 format, which writes each column as its
byte planes.

A fourth map, ``tests/data/reduce_44x44.json``, pins the reduction at a
size beyond the brute-force checks of ``test_abstraction.py``, and the
plan text of a long route on it. On all four, a ``plan --cache`` that
loads its cache runs neither the reduction nor the tree build.
"""

import hashlib
import json
import random
import zlib
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

from tampnet import (Plan, build_offline, load_env, load_offline, net_digest, parse,
                     parse_env, plan, plan_json_text, save_offline)
from tampnet import planner
from tampnet.abstraction import lift, reduction_bytes
from tampnet.basis_graph import _column_code
from tampnet.cli import main
from tampnet.data import fixture_path
from tampnet.planner import backtrack, select_target, split_formula
from tampnet.taskspec import compile_vectors

DEMO_SPEC = "visit(2) & end(3) & !visit(1)"
PLANT_SPEC = ("visit(2) & visit(4) & visit(6) & visit(9) & visit(10)"
              " & !visit(5) & end(1) & end(7)")
FRACTIONAL_SPEC = "visit(d) & visit(a) & end(c)"

# (SHA-256 of the cache's header line with its newline, SHA-256 of the
# cache's inflated payload, plan_json_text SHA-256). The plan digests were
# computed before the integer rewrite of the reduction and the graph build;
# the cache digests are those of the version-5 format, which stores the
# reduction before the tree's columns and each column as its byte planes.
GOLDEN = {
    "demo": ("56cf2ff8041572aaaac43d4ae2fc6013e6c23d4ebd15b18b6a853230ae68616a",
             "c5b28d02f1e7cf055bec162cc2eb446278eee12a34f2c1ea5dbe5b153cc4d5ba",
             "c4da7cfd328ad3e898fcd04287015da017f9d897c15c3f261df929835e246ad5"),
    "plant": ("5406d5caf93b130d2591dca5f892480ecf02c21de16006035d7ceda797f091fa",
              "15dc79b6fc113a741c30eaf5c8a6f29bd9a125b8ed1aa11f21c8c5cc5ab4941f",
              "6ce9e836a7c954eb808a820ecdcd1328dbc8d23c0866eb669573d778eb5644b5"),
    "fractional": ("6f9a82e2a6c425d2167cb1a36f057799ad3f1851bea87b115b086a53f9bad047",
                   "9ffa058b6ac85d49f8ca444fde0ef5b37b5fe0b41fdada0a11c353fe25041e30",
                   "76e523fa03300b8be5c30f5f6cc8336d000284644bac1bff95512d6d508af9f9"),
}


def fractional_map():
    """Seeded 10x10 map, as its JSON object: obstacles, overlapping
    two-cell regions, a shared proposition and per-direction costs with
    denominators 3, 7 and 2."""
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
    return {
        "grid": {"rows": side, "cols": side},
        "obstacles": [list(c) for c in obstacles],
        "regions": regions,
        "agents": [list(free[5]), list(free[6])],
        "move_cost": {"up": "1/3", "right": "2/7", "down": "1/2", "left": 1},
    }


def fractional_env():
    return parse_env(fractional_map())


def cache_digests(env, offline, path):
    """Save ``offline`` to ``path`` and return the SHA-256 of the file's
    header line, with its newline, and of its inflated payload, after
    checking that the payload is the reduction's bytes plus the tree's two
    columns and nothing more."""
    save_offline(env, offline, path)
    line, _, body = path.read_bytes().partition(b"\n")
    payload = zlib.decompress(body)
    header = json.loads(line)
    edges = len(offline.graph) - 1
    width = (array(_column_code(edges)).itemsize
             + array(_column_code(offline.monitored.net.num_transitions)).itemsize)
    reduction = reduction_bytes(offline.simplified, offline.net)
    assert payload[:header["reduction"]] == reduction
    assert len(payload) == header["payload"] == len(reduction) + width * edges
    return hashlib.sha256(line + b"\n").hexdigest(), hashlib.sha256(payload).hexdigest()


def _digests(env, offline, spec, tmp_path):
    result = plan(env, spec, offline)
    assert isinstance(result, Plan)
    return (*cache_digests(env, offline, tmp_path / "graph.bin"),
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
    "cache_header": "3f947452e4e1cd5887bd0f8c396d6adebb3ccb6bd49373c22b33a30ff0def1fd",
    "cache_payload": "7a0c5b8703826ae40d39b4f4c20cb17f975cea181990b1fb67b091d9ea828bab",
}


def lift_map_digest(simplified) -> str:
    """SHA-256 of the lift map as canonical JSON: one
    ``[source, target, sequence, [numerator, denominator]]`` per transition,
    the cost in lowest terms."""
    costs = [Fraction(m.weight, simplified.net.scale) for m in simplified.lift_map]
    rows = [[m.source, m.target, list(m.sequence), [cost.numerator, cost.denominator]]
            for m, cost in zip(simplified.lift_map, costs)]
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

    header, payload = cache_digests(env, offline, tmp_path / "graph.bin")
    assert {
        "reduced_net": net_digest(offline.simplified.net),
        "monitored_net": net_digest(offline.monitored.net),
        "lift_map": lift_map_digest(offline.simplified),
        "cache_header": header,
        "cache_payload": payload,
    } == REDUCE_GOLDEN


# A formula on REDUCE_MAP whose plan lifts three reduced moves to 68 grid
# moves and adds one escape hop, for two agents and a cost of 1955/36; the
# digest of its plan_json_text was recorded before the plan was walked once
# per reduced move and its text written without json.dumps.
REDUCE_SPEC = "visit(e) & visit(d) & end(fb) & !end(c)"
REDUCE_PLAN = "60ec0a996bbb3cc48496e9194a44518e06df50ed18f5a9a931ebc46ef687f931"

# the bundled maps' file names, and the formula a cold plan answers on each map
SIZES = {"demo": "3x3", "plant": "8x11"}
COLD_SPECS = {"demo": DEMO_SPEC, "plant": PLANT_SPEC, "reduce_44x44": REDUCE_SPEC,
              "fractional": FRACTIONAL_SPEC}


def test_plan_of_a_long_route_is_pinned():
    env = load_env(REDUCE_MAP)
    result = plan(env, REDUCE_SPEC, build_offline(env))
    assert isinstance(result, Plan)
    assert len(result.team_sequence) == 69
    assert result.total_cost.denominator > 1
    text = plan_json_text(env, result)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == REDUCE_PLAN


def _refuse(*args, **kwargs):
    raise AssertionError("a plan that loads its cache reran offline work")


@pytest.mark.parametrize("name", ["demo", "plant", "reduce_44x44", "fractional"])
def test_a_cold_plan_reruns_no_offline_work(name, tmp_path, monkeypatch, capsys):
    # the cache stores the reduction beside the tree, so a plan that loads
    # it reduces nothing and builds no tree: with both stages made to
    # fail, it prints the plan of the built model byte for byte, and the
    # loaded reduction equals the built one
    if name == "fractional":
        path = tmp_path / "fractional.json"
        path.write_text(json.dumps(fractional_map()), encoding="utf-8")
    else:
        path = REDUCE_MAP if name == "reduce_44x44" else fixture_path(f"{name}_{SIZES[name]}.json")
    spec = COLD_SPECS[name]
    env = load_env(path)
    built = build_offline(env)
    expected = plan_json_text(env, plan(env, spec, built))
    cache = tmp_path / "model.bin"
    save_offline(env, built, cache)
    monkeypatch.setattr(planner, "build_simplified", _refuse)
    monkeypatch.setattr(planner, "build_graph", _refuse)
    assert main(["plan", "--env", str(path), "--spec", spec, "--cache", str(cache)]) == 0
    assert capsys.readouterr().out == expected
    loaded = load_offline(env, cache)
    assert loaded.simplified == built.simplified
    assert plan_json_text(env, plan(env, spec, loaded)) == expected


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
