import dataclasses
import errno
import hashlib
import io
import json
import os
import random
import re
import struct
import sys
import tracemalloc
import zlib
from array import array
from fractions import Fraction

import pytest

from tampnet import (CacheError, StateBudgetError, build_graph, build_offline,
                     load_env, load_offline, net_digest, save_cache, save_offline)
from tampnet import basis_graph
from tampnet.abstraction import _count_code, build_monitored, read_reduction, reduction_bytes
from tampnet.basis_graph import (_U32, CACHE_FORMAT, CACHE_VERSION, TABLE_FACTOR,
                                 _layout, load_cache, open_cache)
from tampnet.data import fixture_path
from tampnet.bench import generate_instance
from tampnet.errors import (CacheDigestError, CacheFormatError,
                            CacheVersionError)
from tampnet.grid import env_digest, env_to_pn
from tampnet.petri import fire, replay, sequence_cost
from tampnet.planner import backtrack

from conftest import (EMPTY, assert_matches_reference,
                      assert_same_graph, end_label, hand_net, hop_chain_net,
                      join_net, marking_of, markings_of, occupancy,
                      occupancy_reference,
                      random_env, relay_net, square_env, two_byte_net,
                      two_cycle_net, two_feeders_net, wide_net)

DEMO_DIGEST = "ff7e55c952e326713d2a199a4f7269c6fb6fa574575e303a087e3fd169cb653e"


def tree_edges(graph):
    """(parent, transition) of markings 1, 2, ..."""
    return list(zip(graph.parent, graph.transition))


def test_relay_graph_shape_and_reference():
    # t0: 0 -> 1 costs 1, t1: 1 -> 2 costs 1; the token walks the line,
    # so q = 0, 0 + 1 = 1, 1 + 1 = 2
    net = relay_net()
    graph = build_graph(net)
    assert markings_of(graph) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert [graph.q(i) for i in range(3)] == [0, 1, 2]
    assert tree_edges(graph) == [(0, 0), (1, 1)]
    assert_matches_reference(net, graph)


def test_hop_chain_graph_shape_and_reference():
    # t0: 0 -> 1 costs 1, t1: 1 -> 2 costs 2, t2: 2 -> 3 costs 5, so
    # q = 0, 1, 1 + 2 = 3, 3 + 5 = 8
    net = hop_chain_net()
    graph = build_graph(net)
    assert markings_of(graph) == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert [graph.q(i) for i in range(4)] == [0, 1, 3, 8]
    assert list(graph.transition) == [0, 1, 2]
    assert_matches_reference(net, graph)


def test_two_feeders_graph_shape_and_reference():
    # t0: 0 -> 2 costs 1, t1: 1 -> 2 costs 2, t2: 2 -> 3 costs 1, from
    # (1, 1, 0, 0). Each token reaches place 2 (by t0 or t1) and may go on
    # to place 3 (t2), so a marking's q is the sum of its tokens' costs:
    #   (0,1,1,0) = 1              (1,0,1,0) = 2
    #   (0,1,0,1) = 1 + 1 = 2      (0,0,2,0) = 1 + 2 = 3
    #   (1,0,0,1) = 2 + 1 = 3      (0,0,1,1) = 1 + 1 + 2 = 4
    #   (0,0,0,2) = 1 + 1 + 2 + 1 = 5
    # Ties keep the first parent found: (0,0,2,0) comes from (0,1,1,0) by
    # t1, and (0,0,1,1) from (0,1,0,1) by t1.
    net = two_feeders_net()
    graph = build_graph(net)
    assert markings_of(graph) == (
        (1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 1, 0), (0, 1, 0, 1),
        (0, 0, 2, 0), (1, 0, 0, 1), (0, 0, 1, 1), (0, 0, 0, 2))
    assert [graph.q(i) for i in range(8)] == [0, 1, 2, 2, 3, 3, 4, 5]
    assert tree_edges(graph) == [
        (0, 0), (0, 1), (1, 2), (1, 1), (2, 2), (3, 1), (6, 2)]
    assert_matches_reference(net, graph)


def test_cycle_graph_costs():
    # t0: 0 -> 1 and t1: 1 -> 0 form a cycle, t2: 1 -> 2 leaves it; all
    # cost 1. Going round the cycle (t0 then t1) only returns to the root,
    # so q = 0, 1, 1 + 1 = 2
    net = two_cycle_net()
    graph = build_graph(net)
    assert markings_of(graph) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert [graph.q(i) for i in range(3)] == [0, 1, 2]
    assert tree_edges(graph) == [(0, 0), (1, 2)]
    assert_matches_reference(net, graph)


def _out_of_source_order_net():
    # t0 leaves place 1 and t1 leaves place 0
    return hand_net(4, [((1,), (2,), 1), ((0,), (3,), 1)],
                    [EMPTY, EMPTY, end_label("x"), end_label("y")], (1, 1, 0, 0))


def _token_splitting_net():
    # t0 splits each of 130 tokens in two, so place 1 could reach 260: more
    # than a field sized for the initial total holds
    return hand_net(3, [((0,), (1, 2), 1), ((2,), (1,), 1)],
                    [EMPTY, end_label("x"), end_label("y")], (130, 0, 0))


def _latch_starting_at_two_net():
    return hand_net(3, [((0,), (1, 2), 1)], (EMPTY, end_label("x"), EMPTY), (1, 0, 2),
                    latches={2})


# (net, the refusal's message): a two-input transition and a transition
# adding tokens are no moves, so no net expresses them; moves not numbered
# by source place and a latch holding 2 are refused by the constructor
UNPACKABLE = {"join": (join_net, "arc 2 is no move"),
              "order": (_out_of_source_order_net,
                        "transition 1 leaves a lower place than the transition before it"),
              "split": (_token_splitting_net, "arc 0 is no move"),
              "latch": (_latch_starting_at_two_net, "latch place 2 starts above 1")}


@pytest.mark.parametrize("name", sorted(UNPACKABLE))
def test_build_refuses_nets_it_cannot_pack(name):
    # each shape that would not fit packed markings is refused before any
    # net exists to build a tree of
    make, message = UNPACKABLE[name]
    with pytest.raises(ValueError, match=f"^{message}"):
        make()


def test_fractional_costs_match_reference():
    # integer-scaled weights must give exact costs
    regions = [{"name": "a", "cells": [[0, 3], [1, 3]], "trajectory_props": ["a"]},
               {"name": "b", "cells": [[1, 3], [3, 0]], "trajectory_props": ["b"]},
               {"name": "c", "cells": [[2, 2]], "final_props": ["c"]}]
    env = square_env(4, regions, agents=[(0, 0), (3, 3)], obstacles=[(1, 1)],
                     move_cost={"up": "1/3", "right": "2/7", "down": "1/2", "left": 1})
    offline = build_offline(env)
    assert_matches_reference(offline.monitored.net, offline.graph)
    graph = offline.graph
    assert any(graph.q(i).denominator > 1 for i in range(1, len(graph)))


def test_demo_graph_shape(demo_offline):
    graph = demo_offline.graph
    assert len(graph) == 23
    assert len(graph.parent) == len(graph.transition) == 22
    assert occupancy(graph) == occupancy_reference(markings_of(graph))
    assert all(isinstance(graph.q(i), Fraction) for i in range(len(graph)))
    for outside in (-1, len(graph)):
        with pytest.raises(IndexError):
            graph.marking(outside)

    probe = (1, 0, 0, 0, 1, 0, 0)
    qs = {m: graph.q(i) for i, m in enumerate(markings_of(graph))}
    assert qs[probe] == 1


def _check_tree(graph):
    assert len(graph.parent) == len(graph.transition) == len(graph) - 1
    costs = [graph.q(i) for i in range(len(graph))]
    assert costs == sorted(costs)
    for i, parent in enumerate(graph.parent, 1):
        assert parent < i
    assert len(set(markings_of(graph))) == len(graph)


def test_demo_and_plant_graphs_are_trees(demo_offline, plant_offline):
    _check_tree(demo_offline.graph)
    _check_tree(plant_offline.graph)
    assert len(plant_offline.graph) == 81921


def test_backtrack_replays_to_every_demo_marking(demo_offline):
    qm = demo_offline.monitored
    graph = demo_offline.graph
    for i in range(len(graph)):
        seq = backtrack(graph, i)
        run = replay(qm.net, qm.net.initial_counts, seq)
        assert marking_of(qm.net, run.counts) == graph.marking(i)
        assert sequence_cost(qm.net, seq) == graph.q(i)
    with pytest.raises(ValueError):
        backtrack(graph, len(graph))


def test_demo_graph_matches_exhaustive_reference(demo_offline):
    qm = demo_offline.monitored
    graph = demo_offline.graph
    assert_matches_reference(qm.net, graph)
    markings = markings_of(graph)
    for i, (parent, t) in enumerate(tree_edges(graph), 1):
        assert fire(qm.net, markings[parent], t) == markings[i]
        assert graph.qs[i] - graph.qs[parent] == qm.net.weights[t]


def test_build_honors_the_state_cap(demo_offline):
    with pytest.raises(StateBudgetError) as err:
        build_graph(demo_offline.monitored.net, state_cap=5)
    assert err.value.budget == 5


def _latch_free(env):
    """``env`` with every trajectory proposition stripped: its monitored net
    has no latch places."""
    return dataclasses.replace(env, regions=tuple(
        dataclasses.replace(region, trajectory_props=frozenset())
        for region in env.regions))


def _interleaved_latches_net(m0):
    # latches 1 and 3 sit between the plain places 0, 2, 4 and 5; moves
    # set no latch, one or both
    return hand_net(6, [((0,), (2, 1), 1), ((0,), (4,), 2), ((2,), (0,), "1/2"),
                        ((2,), (4, 3), 1), ((4,), (0, 1, 3), "3/2"),
                        ((4,), (5,), 1), ((5,), (2,), "1/3")],
                    [EMPTY, EMPTY, end_label("x"), EMPTY, EMPTY, end_label("y")], m0,
                    latches={1, 3})


def _first_place_latch_net():
    # place 0 is a latch, the last place plain and holding two tokens
    return hand_net(4, [((1,), (3, 0), 1), ((3,), (1, 2), 2)],
                    [EMPTY, end_label("x"), EMPTY, end_label("y")], (0, 1, 0, 2),
                    latches={0, 2})


def _co_located_env():
    """A 4x4 map whose region "hub" carries 20 visit propositions; "a" is
    visited from the start, "w" is walled off and never visited, and "b"
    has two cells."""
    regions = [
        {"name": "hub", "cells": [[1, 2]], "final_props": ["hub"],
         "trajectory_props": [f"p{i:02}" for i in range(20)]},
        {"name": "a", "cells": [[0, 0]], "trajectory_props": ["a"]},
        {"name": "b", "cells": [[3, 1], [2, 1]], "trajectory_props": ["b"],
         "final_props": ["b"]},
        {"name": "w", "cells": [[3, 3]], "trajectory_props": ["w"]},
    ]
    return square_env(4, regions, agents=[(0, 0), (2, 0)], obstacles=[(2, 3), (3, 2)])


def _hub_latches_net(arms: int = 9):
    """One token walks from a hub (place 0) out to any of ``arms`` arms and
    back; each way out sets a latch of its own, and 299 idle tokens on the
    last place make every field two bytes wide. Arm i is place 2i - 1, its
    latch place 2i, so each latch sits between two plain places, and the
    ninth latch class takes a bit of the key's second byte."""
    out = [((0,), (2 * i - 1, 2 * i), f"{i}/3") for i in range(1, arms + 1)]
    back = [((2 * i - 1,), (0,), 1) for i in range(1, arms + 1)]
    labels = [EMPTY] + [end_label(str(p)) if p % 2 else EMPTY
                        for p in range(1, 2 * arms + 1)] + [EMPTY]
    m0 = (1,) + (0,) * (2 * arms) + (299,)
    return hand_net(2 * arms + 2, out + back, labels, m0,
                    latches=range(2, 2 * arms + 1, 2))


# Nets whose markings split into a placement and a latch mask in every
# way: latches between, before and after plain places, latches starting at
# 1, latches in two-byte fields and 1,100 places wide (test_occupancy
# checks the latch-free two-byte and wide nets), 20 latches that always
# agree, and nine latch classes in two-byte fields.
SPLIT_KEY_NETS = {
    "interleaved": lambda: _interleaved_latches_net((2, 0, 0, 0, 0, 0)),
    "interleaved-set": lambda: _interleaved_latches_net((1, 1, 1, 0, 0, 0)),
    "interleaved-crowded": lambda: _interleaved_latches_net((0, 0, 1, 1, 2, 1)),
    "first-place": _first_place_latch_net,
    "two-byte-latch": lambda: two_byte_net(latched=True),
    "wide-latches": lambda: wide_net(latched=True),
    "co-located": lambda: build_offline(_co_located_env()).monitored.net,
    "hub-latches": _hub_latches_net,
}


def _assert_canonical_and_cached(net, graph, path):
    assert_matches_reference(net, graph)
    save_cache(graph, net, path)
    assert_same_graph(load_cache(path, net), graph)


@pytest.mark.parametrize("name", sorted(SPLIT_KEY_NETS))
def test_split_key_nets_match_reference_and_cache(name, tmp_path):
    net = SPLIT_KEY_NETS[name]()
    _assert_canonical_and_cached(net, build_graph(net), tmp_path / "net.bin")


@pytest.mark.parametrize("seed", range(12))
def test_latch_free_maps_match_reference_and_cache(seed, tmp_path):
    offline = build_offline(_latch_free(random_env(random.Random(f"latch-free:{seed}"))))
    assert not offline.monitored.net.latches
    _assert_canonical_and_cached(offline.monitored.net, offline.graph, tmp_path / "map.bin")


@pytest.mark.parametrize("name", ["demo", "latch-free", "interleaved", "two-byte-latch",
                                  "co-located", "hub-latches"])
def test_state_cap_is_exact(name, demo_offline):
    # a cap of one marking fewer than the tree refuses it; the tree's own
    # size builds the same tree
    if name == "demo":
        net = demo_offline.monitored.net
    elif name == "latch-free":
        net = build_offline(_latch_free(random_env(random.Random("latch-free:cap")))).monitored.net
    else:
        net = SPLIT_KEY_NETS[name]()
    graph = build_graph(net)
    with pytest.raises(StateBudgetError) as err:
        build_graph(net, state_cap=len(graph) - 1)
    assert err.value.budget == len(graph) - 1
    assert_same_graph(build_graph(net, state_cap=len(graph)), graph)


def test_co_located_latches_share_one_key_bit():
    # the hub's 20 latches are set by the same moves and form one class, b's
    # latch another; a's starts at 1 and w's is never set, so neither takes
    # a bit. One key bit per latch place would need 2^23 table slots per
    # placement.
    qm = build_offline(_co_located_env()).monitored
    latches = qm.indicator_of
    assert _layout(qm.net).classes == [
        (latches["b"],), tuple(latches[f"p{i:02}"] for i in range(20))]
    tracemalloc.start()
    try:
        graph = build_graph(qm.net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert len(graph) == 30


def _star_net(arms: int):
    """One token on place 0 may step to any of ``arms`` dead-end places,
    each move setting a latch of its own: no two latches share a class, yet
    every marking holds at most one of them."""
    arcs = [((0,), (i, arms + i), 1) for i in range(1, arms + 1)]
    labels = [EMPTY] + [end_label(str(i)) for i in range(1, arms + 1)] + [EMPTY] * arms
    return hand_net(2 * arms + 1, arcs, labels, (1,) + (0,) * (2 * arms),
                    latches=range(arms + 1, 2 * arms + 1))


def test_sparse_latch_masks_hit_the_table_bound():
    # 17 markings over 17 placements of 2^16 masks each: a cap of 17 allows
    # 17 * TABLE_FACTOR table slots, fewer than one placement takes, so the
    # build stops before the first 512 KiB slot list is made
    net = _star_net(16)
    tracemalloc.start()
    try:
        with pytest.raises(StateBudgetError) as err:
            build_graph(net, state_cap=17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.budget == 17
    assert peak < 64 << 10
    graph = build_graph(net, state_cap=17 * (1 << 16) // TABLE_FACTOR)
    assert len(graph) == 17
    assert_matches_reference(net, graph)


def _table_slots(net, graph):
    """The search table's slots for ``graph``'s tree, ``1 << bits`` per
    placement, and the slots of one placement."""
    classes = _layout(net).classes
    latches = {p for places in classes for p in places}
    placements = {tuple(0 if p in latches else c for p, c in enumerate(m))
                  for m in markings_of(graph)}
    return len(placements) << len(classes), 1 << len(classes)


def test_the_table_bound_fires_mid_search(plant_offline):
    # plant's 251 placements take 1,024 slots each, 257,024 in all. A cap
    # of 16,063 allows 257,008: the root's slots fit, and the search
    # numbers its last placement before its 16,063rd marking. A cap of
    # 16,064 allows every slot, and the marking cap fires instead.
    net = plant_offline.monitored.net
    assert _table_slots(net, plant_offline.graph) == (257_024, 1024)
    assert 1024 <= TABLE_FACTOR * 16_063 < 257_024 <= TABLE_FACTOR * 16_064
    for cap, what in [(16_063, "search table"), (16_064, "construction")]:
        with pytest.raises(StateBudgetError) as err:
            build_graph(net, state_cap=cap)
        assert err.value.budget == cap
        assert f"basis graph {what} exceeded" in str(err.value)


def _traced_peak(call):
    """``call()`` and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _column_bytes(graph):
    """The finished graph's size, or a little more: its packed markings, 8
    bytes per cost, at most 4 per parent and per transition, and its
    occupancy bits."""
    return (len(graph.packed) + 8 * len(graph.qs) + 4 * (len(graph.parent) + len(graph.transition))
            + sum((bits.bit_length() + 7) // 8 for bits in occupancy(graph)))


@pytest.mark.parametrize("name", ["latches", "latch-free"])
def test_build_and_load_peak_near_the_graph_size(tmp_path, name):
    # Typed key, cost and edge arrays and markings packed a chunk at a time
    # from byte columns keep both peaks near 2x the graph on the map with
    # latches; lists of int objects and a list of every marking's bytes
    # peaked above 6x. On the latch-free map every marking is a placement
    # of its own, and the search's placement dict peaks near 4.8x; packing
    # a wide int per marking while that dict was still alive peaked at 5.6x.
    if name == "latches":
        env, markings, factor = generate_instance("mem", 10, 10, 2, 8, 8)[0], 4865, 4
    else:
        env = _latch_free(generate_instance("roadmap:lf20k5", 20, 20, 5, 8, 10)[0])
        markings, factor = 8378, 5
    net = build_offline(env).monitored.net
    graph, build_peak = _traced_peak(lambda: build_graph(net))
    save_cache(graph, net, tmp_path / "mem.bin")
    loaded, load_peak = _traced_peak(lambda: load_cache(tmp_path / "mem.bin", net))
    assert_same_graph(loaded, graph)
    assert len(graph) == markings
    assert build_peak <= factor * _column_bytes(graph)
    assert load_peak <= factor * _column_bytes(graph)


def test_a_load_past_its_bitmap_peaks_near_the_graph_size(tmp_path, monkeypatch, plant_offline):
    # with no room for a bitmap, the load counts plant's distinct keys in a
    # dict: dict.fromkeys peaks near 1.7x the graph, a set of the keys at
    # 2.5x
    net, graph = plant_offline.monitored.net, plant_offline.graph
    save_cache(graph, net, tmp_path / "plant.bin")
    monkeypatch.setattr(basis_graph, "TABLE_FACTOR", 0)
    loaded, peak = _traced_peak(lambda: load_cache(tmp_path / "plant.bin", net))
    assert_same_graph(loaded, graph)
    assert peak <= 2 * _column_bytes(graph)


def test_costs_past_64_bits_stay_exact(tmp_path):
    # a move costing 2**64 does not fit the 8-byte cost column, so the
    # costs are kept as a list of ints, in the build and in the load
    env = square_env(2, [{"name": "g", "cells": [[1, 1]], "final_props": ["g"]}],
                     agents=[(0, 0)], move_cost=2 ** 64)
    offline = build_offline(env)
    graph = offline.graph
    assert [graph.q(i) for i in range(len(graph))] == [0, 2 ** 65]
    _assert_canonical_and_cached(offline.monitored.net, graph, tmp_path / "big.bin")


def test_the_cost_column_follows_from_the_tree_not_the_cap(tmp_path):
    # 5,000,000 moves of cost 2**42, the default cap's worth, pass 2**64,
    # but every cost of this tree fits 8 bytes: a build at any cap that
    # finishes and the load keep the same column. Moves of cost 2**64 give
    # a list in all three
    for cost, kind in ((2 ** 42, array), (2 ** 64, list)):
        env = square_env(3, [{"name": "g", "cells": [[1, 1]], "final_props": ["g"],
                              "trajectory_props": ["g"]}],
                         agents=[(0, 0)], move_cost=cost)
        offline = build_offline(env)
        net, graph = offline.monitored.net, offline.graph
        capped = build_graph(net, state_cap=len(graph))
        save_cache(graph, net, tmp_path / "map.bin")
        loaded = load_cache(tmp_path / "map.bin", net)
        for other in (capped, loaded):
            assert other == graph
            assert_same_graph(other, graph)
        assert {type(g.qs) for g in (graph, capped, loaded)} == {kind}


def test_net_digest_is_stable(demo_offline):
    net = demo_offline.monitored.net
    assert net_digest(net) == DEMO_DIGEST
    relabeled = relay_net()
    assert net_digest(relabeled) != DEMO_DIGEST
    assert len(net_digest(relabeled)) == 64


def test_cache_round_trip_is_byte_stable(tmp_path, demo_offline):
    net = demo_offline.monitored.net
    graph = demo_offline.graph
    one = tmp_path / "one.json"
    two = tmp_path / "two.json"
    save_cache(graph, net, one)
    save_cache(graph, net, two)
    assert one.read_bytes() == two.read_bytes()
    # columns of other types are written in the file's own
    wide = dataclasses.replace(graph, parent=array(_U32, graph.parent),
                               transition=array(_U32, graph.transition))
    save_cache(wide, net, two)
    assert one.read_bytes() == two.read_bytes()

    loaded = load_cache(one, net)
    assert_same_graph(loaded, graph)


def _saved(tmp_path, offline, env=None):
    """Save ``offline``'s cache, its tree alone or, given ``env``, its whole
    model (``save_offline``), and return its path, its parsed header dict
    and its inflated payload, for ``_rewritten`` to edit."""
    path = tmp_path / "cache.bin"
    if env is None:
        save_cache(offline.graph, offline.monitored.net, path)
    else:
        save_offline(env, offline, path)
    line, _, body = path.read_bytes().partition(b"\n")
    return path, json.loads(line), zlib.decompress(body)


def _rewritten(saved, edit, rehash=True):
    """Let ``edit(header, payload)`` change copies of a ``_saved`` cache's
    header dict and payload, as a bytearray, in place, and write both back
    over its path, the payload compressed again; return the path. With
    ``rehash`` the header's checksum is recomputed over the edited
    payload."""
    path, header, payload = saved
    header, payload = dict(header), bytearray(payload)
    edit(header, payload)
    if rehash:
        header["sha256"] = hashlib.sha256(payload).hexdigest()
    path.write_bytes(json.dumps(header).encode("ascii") + b"\n" + zlib.compress(payload))
    return path


def _tampered(tmp_path, offline, edit, rehash=True, env=None):
    """A ``_saved`` cache of ``offline``, ``_rewritten`` by ``edit``, and
    the monitored net to load it with."""
    return _rewritten(_saved(tmp_path, offline, env), edit, rehash), offline.monitored.net


def _entry(graph, column, i):
    """The offsets, after the payload's reduction section, of the bytes of
    the parent (column 0) or transition (column 1) of marking i in the
    cache of ``graph``, least significant first. The file stores the
    columns in their own types, each as its byte planes: byte k of entry
    i - 1 is at ``k * edges + i - 1`` in its column, for ``edges = N - 1``."""
    parent, transition = graph.parent, graph.transition
    edges = len(parent)
    start = 0 if column == 0 else parent.itemsize * edges
    width = (parent if column == 0 else transition).itemsize
    return [start + k * edges + i - 1 for k in range(width)]


def _set_entry(body, graph, column, i, value):
    """Set the parent (column 0) or transition (column 1) of marking i in
    ``body``, a payload whose reduction section is what precedes the
    columns."""
    parent, transition = graph.parent, graph.transition
    start = len(body) - (parent.itemsize + transition.itemsize) * len(parent)
    offsets = _entry(graph, column, i)
    for offset, byte in zip(offsets, value.to_bytes(len(offsets), "little")):
        body[start + offset] = byte


def _largest(column):
    """The largest value an entry of ``column`` can hold."""
    return (1 << 8 * column.itemsize) - 1


REDUCE_MAP = os.path.join(os.path.dirname(__file__), "data", "reduce_44x44.json")


@pytest.mark.parametrize("name, codes", [("demo", ("B", "B")), ("plant", (_U32, "H")),
                                         ("reduce_44x44", ("H", "B"))])
def test_columns_take_the_narrowest_type_in_the_build_and_the_load(tmp_path, request,
                                                                   name, codes):
    # demo, plant and reduce_44x44 have 23, 81,921 and 343 markings and
    # 12, 348 and 72 transitions; a parent column holds N - 1 and a
    # transition column the transition count
    offline = (build_offline(load_env(REDUCE_MAP)) if name == "reduce_44x44"
               else request.getfixturevalue(f"{name}_offline"))
    net, graph = offline.monitored.net, offline.graph
    save_cache(graph, net, tmp_path / "graph.bin")
    loaded = load_cache(tmp_path / "graph.bin", net)
    assert (graph.parent.typecode, graph.transition.typecode) == codes
    assert (loaded.parent.typecode, loaded.transition.typecode) == codes
    assert_same_graph(loaded, graph)


def test_cache_rejects_wrong_version(tmp_path, demo_offline):
    path, net = _tampered(tmp_path, demo_offline,
                          lambda header, body: header.update(version=99))
    with pytest.raises(CacheVersionError) as err:
        load_cache(path, net)
    assert err.value.found == 99


# SHA-256 of the demo cache as the version-1 writer wrote it
V1_DEMO_SHA256 = "7c6b3d1bc9e5e04646faa8ebefd7099ad9f991c87d102b5023588f7607f9e4f9"


def _v1_text(graph, net):
    """A cache in the version-1 layout: one canonical JSON object holding
    every marking and every edge, with the transition split that version
    stored (every transition explicit) and an empty implicit firing vector
    on every edge."""
    container = {
        "format": CACHE_FORMAT,
        "version": 1,
        "digest": net_digest(net),
        "partition": {"explicit": list(range(net.num_transitions)),
                      "implicit": []},
        "markings": [[[p, c] for p, c in enumerate(m) if c] for m in markings_of(graph)],
        "edges": [None] + [[parent, t, [], [graph.q(i).numerator, graph.q(i).denominator]]
                           for i, (parent, t) in enumerate(tree_edges(graph), 1)],
    }
    return json.dumps(container, sort_keys=True, separators=(",", ":")) + "\n"


def test_cache_rejects_a_version_2_cache(tmp_path, demo_offline):
    # the version-2 layout: both columns as 4-byte ints, 8 bytes per edge
    net, graph = demo_offline.monitored.net, demo_offline.graph
    columns = [array(_U32, graph.parent), array(_U32, graph.transition)]
    if sys.byteorder == "big":
        for column in columns:
            column.byteswap()
    body = b"".join(column.tobytes() for column in columns)
    assert len(body) == 8 * (len(graph) - 1)
    header = {"format": CACHE_FORMAT, "version": 2, "digest": net_digest(net),
              "markings": len(graph), "sha256": hashlib.sha256(body).hexdigest()}
    path = tmp_path / "v2.bin"
    path.write_bytes(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")
                     + b"\n" + body)
    with pytest.raises(CacheVersionError) as err:
        load_cache(path, net)
    assert err.value.found == 2


def test_cache_rejects_a_version_1_cache(tmp_path, demo_offline):
    net = demo_offline.monitored.net
    text = _v1_text(demo_offline.graph, net)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == V1_DEMO_SHA256
    path = tmp_path / "v1.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CacheVersionError) as err:
        load_cache(path, net)
    assert err.value.found == 1


def test_cache_rejects_wrong_digest(tmp_path, demo_offline):
    path, net = _tampered(tmp_path, demo_offline,
                          lambda header, body: header.update(digest="0" * 64))
    with pytest.raises(CacheDigestError):
        load_cache(path, net)


def test_cache_rejects_foreign_and_broken_files(tmp_path, demo_offline):
    net = demo_offline.monitored.net

    missing = tmp_path / "nope.bin"
    with pytest.raises(CacheFormatError):
        load_cache(missing, net)

    garbage = tmp_path / "garbage.bin"
    garbage.write_bytes(b"{this is not json\n\x00\x01")
    with pytest.raises(CacheFormatError):
        load_cache(garbage, net)

    binary = tmp_path / "binary.bin"
    binary.write_bytes(b"\xff\xfe\x00\n")
    with pytest.raises(CacheFormatError):
        load_cache(binary, net)

    other = tmp_path / "other.json"
    other.write_text(json.dumps({"format": "something-else"}) + "\n")
    with pytest.raises(CacheFormatError):
        load_cache(other, net)

    good = tmp_path / "good.bin"
    save_cache(demo_offline.graph, net, good)
    data = good.read_bytes()
    for cut in (data.index(b"\n"), len(data) // 2, len(data) - 1):
        truncated = tmp_path / "truncated.bin"
        truncated.write_bytes(data[:cut])
        with pytest.raises(CacheFormatError):
            load_cache(truncated, net)


@pytest.mark.parametrize("count", ["23", 0, -1, True, None, 2.5])
def test_cache_rejects_a_bad_marking_count(tmp_path, demo_offline, count):
    path, net = _tampered(tmp_path, demo_offline,
                          lambda header, body: header.update(markings=count))
    with pytest.raises(CacheFormatError):
        load_cache(path, net)


@pytest.mark.parametrize("name", ["payload", "reduction"])
@pytest.mark.parametrize("count", ["0", -1, True, None, 2.5, 1 << 70])
def test_cache_rejects_a_bad_size(tmp_path, demo_offline, name, count):
    # the sizes that bound the inflate and split the payload are checked
    # before the body is inflated; 2**70 passes any payload and any size
    # an inflate can be asked for
    path, net = _tampered(tmp_path, demo_offline,
                          lambda header, body: header.update({name: count}))
    with pytest.raises(CacheFormatError, match=f"bad {name} count"):
        load_cache(path, net)


def test_cache_rejects_malformed_body(tmp_path, demo_offline):
    # a payload truncated or with bytes appended, checksum recomputed or
    # not, and the header's payload size left as it was (the inflate
    # refuses it) or set to match (the columns' length check refuses it)
    edits = (lambda header, body: body.__delitem__(slice(-1, None)),
             lambda header, body: body.__delitem__(slice(-8, None)),
             lambda header, body: body.extend(b"\x00"),
             lambda header, body: body.extend(bytes(8)))

    def resized(edit):
        def both(header, body):
            edit(header, body)
            header["payload"] = len(body)
        return both

    for edit in edits:
        for rehash in (True, False):
            path, net = _tampered(tmp_path, demo_offline, edit, rehash=rehash)
            with pytest.raises(CacheFormatError, match="bytes"):
                load_cache(path, net)
        path, net = _tampered(tmp_path, demo_offline, resized(edit))
        with pytest.raises(CacheFormatError, match="columns are .* bytes"):
            load_cache(path, net)


def test_cache_rejects_an_edit_without_a_new_checksum(tmp_path, demo_offline):
    def flip(offset):
        def edit(header, body):
            body[offset] ^= 1
        return edit

    graph = demo_offline.graph
    # the first and a middle entry of each column
    offsets = [_entry(graph, column, i)[0] for column in (0, 1) for i in (1, len(graph) // 2)]
    for offset in offsets:
        path, net = _tampered(tmp_path, demo_offline, flip(offset), rehash=False)
        with pytest.raises(CacheFormatError, match="checksum"):
            load_cache(path, net)
    path, net = _tampered(tmp_path, demo_offline,
                          lambda header, body: header.update(sha256=None), rehash=False)
    with pytest.raises(CacheFormatError, match="checksum"):
        load_cache(path, net)


def test_cache_rejects_a_parent_not_before_its_child(tmp_path, demo_offline):
    graph = demo_offline.graph
    size = len(graph)
    for i in (1, 7, size - 1):
        for parent in (i, i + 1, _largest(graph.parent)):
            path, net = _tampered(tmp_path, demo_offline,
                                  lambda header, body: _set_entry(body, graph, 0, i, parent))
            with pytest.raises(CacheFormatError, match="parent"):
                load_cache(path, net)


def test_cache_rejects_a_transition_out_of_range(tmp_path, demo_offline):
    graph = demo_offline.graph
    transitions = demo_offline.monitored.net.num_transitions
    for i in (1, 12):
        for t in (transitions, _largest(graph.transition)):
            path, net = _tampered(tmp_path, demo_offline,
                                  lambda header, body: _set_entry(body, graph, 1, i, t))
            with pytest.raises(CacheFormatError, match="transition"):
                load_cache(path, net)


def test_cache_rejects_a_cost_that_decreases(tmp_path, demo_offline):
    # re-parenting demo marking 9 or 10 onto marking 8 replays to distinct,
    # enabled markings, but cheaper than the marking stored before them
    for i in (9, 10):
        path, net = _tampered(tmp_path, demo_offline,
                              lambda header, body: _set_entry(body, demo_offline.graph, 0, i, 8))
        with pytest.raises(CacheFormatError, match="order"):
            load_cache(path, net)


def _swapped(tmp_path, offline, i):
    """A cache of ``offline`` with the tree edges into markings ``i - 1``
    and ``i`` swapped, its checksum recomputed."""
    graph = offline.graph

    def edit(header, body):
        for column, values in ((0, graph.parent), (1, graph.transition)):
            _set_entry(body, graph, column, i - 1, values[i - 1])
            _set_entry(body, graph, column, i, values[i - 2])

    return _tampered(tmp_path, offline, edit)


def _order_break(i):
    """The pattern of the order check's message for marking ``i``."""
    return re.escape(f"marking {i} breaks the (cost, parent, transition) order")


def test_cache_rejects_an_equal_cost_edge_from_a_lower_parent(tmp_path, demo_offline):
    # swapping two markings of equal cost with different parents leaves the
    # second with a parent below the first's; the first, an earlier child of
    # its parent, passes every check
    graph = demo_offline.graph
    pairs = [i for i in range(2, len(graph))
             if graph.qs[i - 1] == graph.qs[i] and graph.parent[i - 2] < graph.parent[i - 1]]
    assert pairs
    for i in pairs:
        path, net = _swapped(tmp_path, demo_offline, i)
        with pytest.raises(CacheFormatError, match=_order_break(i)):
            load_cache(path, net)


def test_cache_rejects_an_equal_cost_edge_from_the_same_parent_not_above(tmp_path, demo_offline):
    # two markings of equal cost from one parent, swapped (a transition
    # below the last) or the second's edge set to the first's (the same
    # transition, which the order check refuses before the repeat check)
    graph = demo_offline.graph
    pairs = [i for i in range(2, len(graph))
             if graph.qs[i - 1] == graph.qs[i] and graph.parent[i - 2] == graph.parent[i - 1]]
    assert pairs
    for i in pairs:
        path, net = _swapped(tmp_path, demo_offline, i)
        with pytest.raises(CacheFormatError, match=_order_break(i)):
            load_cache(path, net)

        def repeat_last(header, body):
            _set_entry(body, graph, 1, i, graph.transition[i - 2])

        path, net = _tampered(tmp_path, demo_offline, repeat_last)
        with pytest.raises(CacheFormatError, match=_order_break(i)):
            load_cache(path, net)


def test_cache_compares_marking_1_with_the_root(tmp_path, demo_offline):
    # the root's edge sorts below every edge, so markings 1 and 2, two
    # children of the root, swapped break the order at marking 2, not 1
    graph = demo_offline.graph
    assert graph.parent[:2] == array(_U32, [0, 0])
    path, net = _swapped(tmp_path, demo_offline, 2)
    with pytest.raises(CacheFormatError, match=_order_break(2)):
        load_cache(path, net)


def _wide_model(request, name):
    """The map and offline model of plant, whose cache has 4-byte parents
    and 2-byte transitions, or of reduce_44x44, with 2-byte parents and
    1-byte transitions."""
    if name == "plant":
        return request.getfixturevalue("plant_env"), request.getfixturevalue("plant_offline")
    env = load_env(REDUCE_MAP)
    return env, build_offline(env)


def _order_breaking_transition(offline):
    """The last marking i, and a transition t enabled at its parent, such
    that the edge (parent, t) sorts before the edge into marking i - 1 in
    the (cost, parent, transition) order."""
    graph, net = offline.graph, offline.monitored.net
    for i in range(len(graph) - 1, 1, -1):
        p = graph.parent[i - 1]
        before = (graph.qs[i - 1], graph.parent[i - 2], graph.transition[i - 2])
        marking = graph.marking(p)
        for t in range(net.num_transitions):
            if marking[net.sources[t]] and (graph.qs[p] + net.weights[t], p, t) <= before:
                return i, t
    raise AssertionError("no transition edit breaks the order")


@pytest.mark.parametrize("name", ["plant", "reduce_44x44"])
def test_a_model_cache_rejects_an_edit_to_one_wide_parent_entry(tmp_path, request, name):
    # each value spans several of the column's byte planes; the refusal
    # names the marking edited and the value written, so a load that read
    # the entry's bytes from other offsets would report something else
    env, offline = _wide_model(request, name)
    graph = offline.graph
    saved = _saved(tmp_path, offline, env)
    for i in (len(graph) // 2 + 1, len(graph) - 1):
        for parent in (i, _largest(graph.parent)):
            path = _rewritten(saved, lambda header, body: _set_entry(body, graph, 0, i, parent))
            with pytest.raises(CacheFormatError, match=f": marking {i} has parent {parent}$"):
                load_offline(env, path)


@pytest.mark.parametrize("name", ["plant", "reduce_44x44"])
def test_a_model_cache_rejects_an_edit_to_one_transition_entry_after_wide_parents(
        tmp_path, request, name):
    # an id out of range names the marking and the id; an id enabled at
    # the parent whose edge sorts before the last marking's breaks the
    # order at the marking edited. The transition column's planes start
    # after all of the parent column's
    env, offline = _wide_model(request, name)
    graph = offline.graph
    transitions = offline.monitored.net.num_transitions
    saved = _saved(tmp_path, offline, env)
    for i in (len(graph) // 2 + 1, len(graph) - 1):
        for t in (transitions, _largest(graph.transition)):
            path = _rewritten(saved, lambda header, body: _set_entry(body, graph, 1, i, t))
            with pytest.raises(CacheFormatError, match=f": marking {i} has transition {t}$"):
                load_offline(env, path)
    i, t = _order_breaking_transition(offline)
    path = _rewritten(saved, lambda header, body: _set_entry(body, graph, 1, i, t))
    with pytest.raises(CacheFormatError, match=_order_break(i)):
        load_offline(env, path)


def acc8_offline(latches=True):
    env, _ = generate_instance("acc8", 8, 8, 2, 4, 6)
    return build_offline(env if latches else _latch_free(env))


@pytest.mark.parametrize("name", ["demo", "acc8", "acc8-latch-free"])
def test_cache_rejects_every_single_transition_edit(tmp_path, request, name):
    # the tree holds every reachable marking, so another transition is not
    # enabled, or it reaches a marking stored elsewhere or one too cheap for
    # its place in the order
    offline = (request.getfixturevalue("demo_offline") if name == "demo"
               else acc8_offline(latches=name == "acc8"))
    net = offline.monitored.net
    transitions = net.num_transitions
    saved = _saved(tmp_path, offline)
    edits = 0
    for i, current in enumerate(offline.graph.transition, 1):
        for t in range(transitions):
            if t == current:
                continue
            path = _rewritten(saved, lambda header, body: _set_entry(body, offline.graph, 1, i, t))
            with pytest.raises(CacheError):
                load_cache(path, net)
            edits += 1
    assert edits == (len(offline.graph) - 1) * (transitions - 1)


@pytest.mark.parametrize("name", ["demo", "acc8"])
def test_cache_rejects_every_parent_edit_that_breaks_the_order(tmp_path, request, name):
    # re-parenting marking i gives it and its descendants new costs; every
    # edit whose replayed (q, parent, transition) sequence is not strictly
    # ascending is refused, also the ones whose q alone never decreases
    offline = request.getfixturevalue("demo_offline") if name == "demo" else acc8_offline()
    graph, net = offline.graph, offline.monitored.net
    weights = [q - graph.qs[p] for q, p in zip(graph.qs[1:], graph.parent)]
    saved = _saved(tmp_path, offline)
    breaking = q_sorted = 0
    for i in range(1, len(graph)):
        for parent in range(i):
            if parent == graph.parent[i - 1]:
                continue
            parents = list(graph.parent)
            parents[i - 1] = parent
            qs = [0]
            for p, w in zip(parents, weights):
                qs.append(qs[p] + w)
            keys = list(zip(qs[1:], parents, graph.transition))
            if all(a < b for a, b in zip(keys, keys[1:])):
                continue
            breaking += 1
            q_sorted += qs == sorted(qs)
            path = _rewritten(saved, lambda header, body: _set_entry(body, graph, 0, i, parent))
            with pytest.raises(CacheFormatError):
                load_cache(path, net)
    assert breaking and q_sorted


def _a_marking_listed_twice(tmp_path, offline):
    """A cache of ``offline`` whose last entry is re-pointed at an edge into
    a marking already listed, one that still comes after the entry before
    it in the (cost, parent, transition) order: the replay passes every
    other check."""
    graph, net = offline.graph, offline.monitored.net
    markings = markings_of(graph)
    i = len(graph) - 1
    before = (graph.qs[i - 1], graph.parent[i - 2], graph.transition[i - 2])
    parent, t = next((p, t) for p in range(i) for t in range(net.num_transitions)
                     if markings[p][net.sources[t]]
                     and (graph.qs[p] + net.weights[t], p, t) > before
                     and fire(net, markings[p], t) in markings[:i])

    def edit(header, body):
        _set_entry(body, graph, 0, i, parent)
        _set_entry(body, graph, 1, i, t)

    return _tampered(tmp_path, offline, edit)


@pytest.mark.parametrize("name", ["demo", "acc8", "acc8-latch-free"])
def test_cache_rejects_a_marking_listed_twice(tmp_path, request, name):
    offline = (request.getfixturevalue("demo_offline") if name == "demo"
               else acc8_offline(latches=name == "acc8"))
    path, net = _a_marking_listed_twice(tmp_path, offline)
    with pytest.raises(CacheFormatError, match="twice"):
        load_cache(path, net)


@pytest.mark.parametrize("factor", [0, 1])
def test_a_load_past_its_bitmap_rejects_a_marking_listed_twice(tmp_path, monkeypatch, factor):
    # with no room for a bitmap (0), or room for fewer slots than the
    # tree's placements take (1), the count of distinct keys after the
    # replay runs over a dict of them instead
    path, net = _a_marking_listed_twice(tmp_path, acc8_offline())
    monkeypatch.setattr(basis_graph, "TABLE_FACTOR", factor)
    with pytest.raises(CacheFormatError, match="twice"):
        load_cache(path, net)


@pytest.mark.parametrize("arms", [6, 16])
def test_sparse_latch_masks_load_past_the_bitmap_bound(tmp_path, arms):
    # 1 + arms markings, one per placement, over 2^arms masks each: the
    # build's cap leaves room for every placement's slots, but those slots
    # pass the load's bitmap bound of TABLE_FACTOR per marking, so after
    # the replay the load counts the distinct keys in a dict
    net = _star_net(arms)
    graph = build_graph(net, state_cap=(arms + 1 << arms) // TABLE_FACTOR)
    save_cache(graph, net, tmp_path / "star.bin")
    assert_same_graph(load_cache(tmp_path / "star.bin", net), graph)


@pytest.mark.parametrize("name, factor, where", [
    ("acc8", 0, "root"), ("acc8", 1, "mid-pass"), ("acc8", TABLE_FACTOR, "within"),
    # a latch-free tree has a placement per marking, so only a factor
    # below 1 puts its bound inside the pass
    ("acc8-latch-free", 0, "root"), ("acc8-latch-free", Fraction(1, 2), "mid-pass"),
    ("acc8-latch-free", TABLE_FACTOR, "within"),
])
def test_a_load_equals_the_build_in_each_repeat_check_state(tmp_path, monkeypatch,
                                                            name, factor, where):
    # the slots of the root's placement already pass the bitmap bound of
    # TABLE_FACTOR per marking, the slots of some later placement pass it,
    # or every slot fits: after the replay the load counts the distinct
    # keys in a dict in the first two states and in a bitmap in the third
    offline = acc8_offline(latches=name == "acc8")
    net, graph = offline.monitored.net, offline.graph
    slots, blank = _table_slots(net, graph)
    bound = factor * len(graph)
    assert where == ("root" if blank > bound else "mid-pass" if slots > bound else "within")
    save_cache(graph, net, tmp_path / "acc8.bin")
    monkeypatch.setattr(basis_graph, "TABLE_FACTOR", factor)
    assert_same_graph(load_cache(tmp_path / "acc8.bin", net), graph)


def test_load_cache_refuses_a_net_it_cannot_rebuild(tmp_path):
    # a well-formed file whose header names the digest of a net with a
    # two-input move, worked out from the digest's JSON by hand: no net
    # can be made with that move, so every net the constructor accepts,
    # even one of the same places and costs, is refused by its digest
    with pytest.raises(ValueError, match="^arc 2 is no move"):
        join_net()
    payload = {"places": 5, "pre": [[0], [1], [2, 3]], "post": [[2], [3], [4]],
               "cost": [[1, 1]] * 3, "labels": [[]] * 4 + [[["end", "x"]]],
               "m0": [1, 1, 0, 0, 0], "clamp": []}
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True, separators=(",", ":"))
                            .encode("utf-8")).hexdigest()
    # one edge: a 1-byte parent and a 1-byte transition
    columns = struct.pack("<BB", 0, 0)
    header = {"format": CACHE_FORMAT, "version": CACHE_VERSION, "key": None,
              "digest": digest, "markings": 2, "reduction": 0,
              "payload": len(columns), "sha256": hashlib.sha256(columns).hexdigest()}
    path = tmp_path / "join.bin"
    path.write_bytes(json.dumps(header).encode("ascii") + b"\n" + zlib.compress(columns))
    net = hand_net(5, [((0,), (2,), 1), ((1,), (3,), 1), ((2,), (4,), 1)],
                   [EMPTY] * 4 + [end_label("x")], (1, 1, 0, 0, 0))
    with pytest.raises(CacheDigestError):
        load_cache(path, net)


def test_save_cache_refuses_graphs_it_cannot_rebuild():
    # a tree could only be saved for a net, and no net has a two-input
    # move or a move that adds tokens: the constructor's translation
    # refuses both, so no such graph exists to save
    for name in ("join", "split"):
        make, message = UNPACKABLE[name]
        with pytest.raises(ValueError, match=f"^{message}"):
            make()


class _FullDisk(io.FileIO):
    """A file whose writes stop halfway, as on a full disk."""

    def write(self, data):
        super().write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def _failing_replace(src, dst):
    raise OSError(errno.EIO, "rename failed")


@pytest.mark.parametrize("failure", ["write", "rename"])
def test_a_failed_save_leaves_the_old_cache(tmp_path, monkeypatch, demo_offline, failure):
    # the new bytes go to a file of their own beside the cache, renamed
    # onto it only once written: a failed write or rename leaves the old
    # cache whole and no stray file
    path = tmp_path / "cache.bin"
    relay = relay_net()
    save_cache(build_graph(relay), relay, path)
    old = path.read_bytes()
    if failure == "write":
        monkeypatch.setattr(basis_graph, "open", _FullDisk, raising=False)
    else:
        monkeypatch.setattr(os, "replace", _failing_replace)
    with pytest.raises(OSError):
        save_cache(demo_offline.graph, demo_offline.monitored.net, path)
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["cache.bin"]


def test_a_save_replaces_the_cache_with_a_plain_file(tmp_path, demo_offline):
    # a good save over an old cache leaves only the new cache, with the
    # bytes of a save to a new path and the mode a plain open gives
    net, graph = demo_offline.monitored.net, demo_offline.graph
    relay = relay_net()
    (tmp_path / "cache").mkdir()
    path = tmp_path / "cache" / "cache.bin"
    save_cache(build_graph(relay), relay, path)
    save_cache(graph, net, path)
    save_cache(graph, net, tmp_path / "fresh.bin")
    (tmp_path / "plain.bin").write_bytes(b"")
    assert os.listdir(tmp_path / "cache") == ["cache.bin"]
    assert path.read_bytes() == (tmp_path / "fresh.bin").read_bytes()
    assert path.stat().st_mode == (tmp_path / "plain.bin").stat().st_mode
    assert_same_graph(load_cache(path, net), graph)


def test_cache_rejects_a_version_3_cache(tmp_path, demo_offline):
    # the version-3 layout: the narrow columns alone, uncompressed
    net, graph = demo_offline.monitored.net, demo_offline.graph
    body = bytes(graph.parent) + bytes(graph.transition)
    assert (graph.parent.itemsize, graph.transition.itemsize) == (1, 1)
    header = {"format": CACHE_FORMAT, "version": 3, "digest": net_digest(net),
              "markings": len(graph), "sha256": hashlib.sha256(body).hexdigest()}
    path = tmp_path / "v3.bin"
    path.write_bytes(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")
                     + b"\n" + body)
    with pytest.raises(CacheVersionError) as err:
        load_cache(path, net)
    assert err.value.found == 3
    with pytest.raises(CacheVersionError):
        load_offline(load_env(fixture_path("demo_3x3.json")), path)


def test_cache_rejects_a_version_4_cache(tmp_path, plant_env, plant_offline):
    # the version-4 layout: the payload of version 5, but each column as
    # its little-endian entries in turn rather than as byte planes
    net, graph = plant_offline.monitored.net, plant_offline.graph
    columns = [array(graph.parent.typecode, graph.parent),
               array(graph.transition.typecode, graph.transition)]
    assert (columns[0].itemsize, columns[1].itemsize) == (4, 2)
    if sys.byteorder == "big":
        for column in columns:
            column.byteswap()
    reduction = reduction_bytes(plant_offline.simplified, plant_offline.net)
    payload = b"".join([reduction, *(column.tobytes() for column in columns)])
    current = tmp_path / "v5.bin"
    save_offline(plant_env, plant_offline, current)
    assert zlib.decompress(current.read_bytes().partition(b"\n")[2]) != payload
    header = {"format": CACHE_FORMAT, "version": 4, "key": env_digest(plant_env),
              "digest": net_digest(net), "markings": len(graph), "reduction": len(reduction),
              "payload": len(payload), "sha256": hashlib.sha256(payload).hexdigest()}
    path = tmp_path / "v4.bin"
    path.write_bytes(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")
                     + b"\n" + zlib.compress(payload, 1))
    with pytest.raises(CacheVersionError) as err:
        load_cache(path, net)
    assert err.value.found == 4
    with pytest.raises(CacheVersionError) as err:
        load_offline(plant_env, path)
    assert err.value.found == 4


def _section(offline):
    """The reduction's bytes for ``offline`` and the offset of each stored
    route's ranks in them: the escapes and the route counts come first."""
    simplified = offline.simplified
    data = reduction_bytes(simplified, offline.net)
    kept = len(simplified.base_place)
    offsets = [kept + kept * struct.calcsize(_count_code(kept))]
    for ms in simplified.lift_map:
        offsets.append(offsets[-1] + len(ms.sequence) + 1)
    assert offsets[-1] == len(data)
    return data, offsets


def _with_section(section):
    """An edit for ``_tampered`` that puts ``section`` in the payload's
    place of the reduction, and the sizes it changes in the header."""
    def edit(header, payload):
        payload[:header["reduction"]] = section
        header["reduction"], header["payload"] = len(section), len(payload)
    return edit


def _moves_out(net, place):
    """The moves out of ``place``, in ascending id: their ranks are their
    positions here."""
    return [t for t, p in enumerate(net.sources) if p == place]


def _model_tampered(tmp_path, env, offline, section):
    path, _ = _tampered(tmp_path, offline, _with_section(section), env=env)
    return path


def test_cache_rejects_a_route_whose_moves_break_the_chain(tmp_path, plant_env, plant_offline):
    # a move's rank set to the count of its place's moves names the move
    # after the place's last, a move out of another place: on a route's
    # last move the chain check refuses it, unless no move follows at all;
    # on an earlier move the walk may first find no move of a later rank
    net, lift_map = plant_offline.net, plant_offline.simplified.lift_map
    data, offsets = _section(plant_offline)
    for t in (0, len(lift_map) // 2, len(lift_map) - 1):
        ms = lift_map[t]
        last = len(ms.sequence) - 1
        for k in (0, last):
            out = _moves_out(net, (ms.source, *ms.places)[k])
            section = bytearray(data)
            section[offsets[t] + k] = len(out)
            chained = k == last and out[-1] + 1 < net.num_transitions
            fault = "do not chain" if chained else "no move of rank|do not chain"
            path = _model_tampered(tmp_path, plant_env, plant_offline, section)
            with pytest.raises(CacheFormatError, match=f"route {t} .*({fault})"):
                load_offline(plant_env, path)


def test_cache_rejects_a_route_through_a_labeled_cell(tmp_path, plant_env, plant_offline):
    # a route to a labeled place, followed on by a route out of it, chains
    # and ends on a labeled place, but enters one before its last move
    lift_map = plant_offline.simplified.lift_map
    data, offsets = _section(plant_offline)
    t, u = next((t, u) for t, ms in enumerate(lift_map) for u, onward in enumerate(lift_map)
                if onward.source == ms.target)
    end = offsets[t + 1] - 1
    section = data[:end] + data[offsets[u]:offsets[u + 1] - 1] + data[end:]
    path = _model_tampered(tmp_path, plant_env, plant_offline, section)
    with pytest.raises(CacheFormatError, match=f"route {t} .* enters a labeled place before"):
        load_offline(plant_env, path)


def test_cache_rejects_routes_out_of_their_targets_order(tmp_path, plant_env, plant_offline):
    # two routes out of one source, swapped or the first stored twice: the
    # targets no longer ascend, as build_simplified numbers them
    lift_map = plant_offline.simplified.lift_map
    data, offsets = _section(plant_offline)
    t = next(t for t in range(len(lift_map) - 1) if lift_map[t].source == lift_map[t + 1].source)
    first, second = data[offsets[t]:offsets[t + 1]], data[offsets[t + 1]:offsets[t + 2]]
    for pair in (second + first, first + first):
        section = data[:offsets[t]] + pair + data[offsets[t + 2]:]
        path = _model_tampered(tmp_path, plant_env, plant_offline, section)
        with pytest.raises(CacheFormatError, match=f"route {t + 1} .* breaks the order"):
            load_offline(plant_env, path)


def test_cache_rejects_an_escape_onto_a_labeled_cell_or_out_of_another_place(
        tmp_path, plant_env, plant_offline):
    net, simplified = plant_offline.net, plant_offline.simplified
    data, _ = _section(plant_offline)
    targets = net.targets
    onto_labeled = [(i, rank) for i, p in enumerate(simplified.base_place)
                    for rank, t in enumerate(_moves_out(net, p)) if net.labels[targets[t]]]
    assert onto_labeled
    for i, rank in onto_labeled[:3]:
        section = bytearray(data)
        section[i] = rank
        path = _model_tampered(tmp_path, plant_env, plant_offline, section)
        with pytest.raises(CacheFormatError, match="escape .* enters a labeled place"):
            load_offline(plant_env, path)
    for i, p in enumerate(simplified.base_place[:3]):
        section = bytearray(data)
        section[i] = len(_moves_out(net, p))
        path = _model_tampered(tmp_path, plant_env, plant_offline, section)
        with pytest.raises(CacheFormatError, match=f"escape of place {p} is no move out of it"):
            load_offline(plant_env, path)


def test_cache_rejects_a_truncated_or_corrupted_stream(tmp_path, plant_env, plant_offline):
    path = tmp_path / "model.bin"
    save_offline(plant_env, plant_offline, path)
    line, _, body = path.read_bytes().partition(b"\n")
    broken = [body[:len(body) // 2], body[:-1], body + b"\x00"]
    for at in (2, len(body) // 3, len(body) - 2):
        flipped = bytearray(body)
        flipped[at] ^= 0xFF
        broken.append(bytes(flipped))
    for stream in broken:
        path.write_bytes(line + b"\n" + stream)
        with pytest.raises(CacheFormatError):
            load_offline(plant_env, path)


def test_cache_of_a_map_with_an_obstacle_moved_off_every_route_is_refused_by_its_key(tmp_path):
    # moving an obstacle one cell along its row, away from every stored
    # route and escape, keeps the place of every other cell and the moves
    # out of every place the reduction touches: the stored reduction still
    # reads for the new map, to the same monitored net, and the tree still
    # replays; only the map's key tells the caches apart
    env = load_env(REDUCE_MAP)
    offline = build_offline(env)
    path = tmp_path / "model.bin"
    save_offline(env, offline, path)
    simplified, cells = offline.simplified, offline.cells
    targets = offline.net.targets
    touched = {cells[p] for ms in simplified.lift_map for p in (ms.source, *ms.places)}
    touched |= {cells[p] for p in simplified.base_place}
    touched |= {cells[targets[e[0]]] for e in simplified.escapes if e is not None}

    def near(cell):
        r, c = cell
        return {(r, c), (r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)}

    obstacle, free = next(
        (x, (x[0], x[1] + 1)) for x in sorted(env.obstacles)
        if x[1] + 1 < env.cols and (x[0], x[1] + 1) not in env.obstacles
        and touched.isdisjoint(near(x) | near((x[0], x[1] + 1))))
    moved = dataclasses.replace(env, obstacles=env.obstacles - {obstacle} | {free})

    cache = open_cache(path)
    net = env_to_pn(moved)
    monitored = build_monitored(read_reduction(cache.reduction, net))
    assert net_digest(monitored.net) == cache.header["digest"]
    assert_same_graph(load_cache(cache, monitored.net), offline.graph)
    with pytest.raises(CacheDigestError):
        load_offline(moved, path)
