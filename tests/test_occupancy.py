"""Queries on the occupancy index against plain marking scans.

``select_target`` and ``diagnose_infeasibility`` answer from the per-place
bitsets of the formula's ``split_formula``. These tests compare them with the tuple-scan references in
conftest on built and cache-loaded graphs of the demo, the plant and seeded
maps, on hand-built nets whose counts overflow one byte or that are more
than a thousand places wide, and count the markings a query reads and the
places whose bitsets it builds.
"""

import dataclasses
import random
from array import array
from fractions import Fraction

import pytest

from tampnet import Plan, build_graph, build_offline, load_offline, parse, plan, save_offline
from tampnet.basis_graph import BasisGraph
from tampnet.planner import diagnose_infeasibility, select_target, split_formula
from tampnet.taskspec import SpecVectors, compile_vectors

from conftest import (EMPTY, assert_matches_reference,
                      assert_same_graph, end_label, hand_net, markings_of,
                      occupancy, occupancy_reference, random_env, replayed, scan_diagnose,
                      scan_select, square_env, two_byte_net, wide_net)
from test_planner import HOPPING_SPEC

PLANT_SPEC = ("visit(2) & visit(4) & visit(6) & visit(9) & visit(10)"
              " & !visit(5) & end(1) & end(7)")


def random_vectors(rng, n, mobility, indicators, pool=None):
    """Compiled clauses over ``n`` places: trajectory clauses over the
    indicator places, final clauses over the first ``mobility`` places and
    forbidden places anywhere in ``pool``; sometimes every place of one
    final clause is also forbidden, so dropping the soft ones empties it."""
    pool = list(range(n)) if pool is None else list(pool)
    finals = [p for p in pool if p < mobility]

    def clause(places):
        return tuple(sorted(rng.sample(places, rng.randrange(1, min(3, len(places)) + 1))))

    trajectory = tuple(clause(indicators) for _ in range(rng.randrange(0, 3))) \
        if indicators else ()
    final = tuple(clause(finals) for _ in range(rng.randrange(0, 3))) \
        if finals else ()
    forbidden = set(rng.sample(pool, rng.randrange(0, min(4, len(pool)) + 1)))
    if final and rng.random() < 0.2:
        forbidden |= set(final[0])
    return SpecVectors(trajectory, final, tuple(sorted(forbidden)))


def random_escapes(rng, mobility, real=None):
    """No escapes, the model's own escapes, or random ones with some places
    lacking an escape and fractional costs."""
    draw = rng.random()
    if draw < 0.2:
        return ()
    if real is not None and draw < 0.4:
        return real
    return tuple(None if rng.random() < 0.2
                 else (0, Fraction(rng.randint(1, 4), rng.choice([1, 2, 3])))
                 for _ in range(mobility))


def assert_answers_like_scan(graphs, vectors, escapes):
    expected = scan_select(graphs[0], vectors, escapes)
    families = scan_diagnose(graphs[0], vectors, escapes)
    for graph in graphs:
        split = split_formula(graph, vectors, escapes)
        assert select_target(graph, split) == expected
        assert diagnose_infeasibility(graph, split) == families


def loaded_copy(offline):
    graph = replayed(offline.graph, offline.monitored.net)
    assert_same_graph(graph, offline.graph)
    return graph


def check_model(offline, loaded, rng, rounds, specs=()):
    n = offline.monitored.net.num_places
    mobility = len(offline.simplified.escapes)
    indicators = sorted(offline.monitored.indicator_of.values())
    graphs = (offline.graph, loaded)
    for text in specs:
        vectors = compile_vectors(parse(text), offline.monitored.net,
                                  offline.monitored.indicator_of)
        for escapes in (offline.simplified.escapes, ()):
            assert_answers_like_scan(graphs, vectors, escapes)
    for _ in range(rounds):
        vectors = random_vectors(rng, n, mobility, indicators)
        escapes = random_escapes(rng, mobility, offline.simplified.escapes)
        assert_answers_like_scan(graphs, vectors, escapes)


def test_demo_answers_like_scan(demo_offline):
    loaded = loaded_copy(demo_offline)
    check_model(demo_offline, loaded, random.Random("occ:demo"), 200,
                specs=("visit(2) & end(3) & !visit(1)", "visit(1) & !visit(2)",
                       "visit(2) & !end(3)", "true"))


def test_plant_answers_like_scan(plant_offline):
    loaded = loaded_copy(plant_offline)
    check_model(plant_offline, loaded, random.Random("occ:plant"), 12,
                specs=(PLANT_SPEC, "visit(5) & !end(1) & !end(7)", "true"))


@pytest.mark.parametrize("seed", range(20))
def test_generated_maps_answer_like_scan(seed):
    rng = random.Random(f"occ:map:{seed}")
    offline = build_offline(random_env(rng))
    loaded = loaded_copy(offline)
    check_model(offline, loaded, rng, 30)


def test_walled_off_region_answers_like_scan():
    # the labeled corner is unreachable, so trajectory clauses can fail
    env = square_env(3, [{"name": "far", "cells": [[0, 2]],
                          "trajectory_props": ["far"], "final_props": ["fin"]},
                         {"name": "near", "cells": [[2, 2]],
                          "trajectory_props": ["near"], "final_props": ["fin"]}],
                     agents=[(2, 0), (1, 0)], obstacles=[(0, 1), (1, 2)])
    offline = build_offline(env)
    loaded = loaded_copy(offline)
    check_model(offline, loaded, random.Random("occ:island"), 60,
                specs=("visit(far)", "visit(near) & end(fin)", "visit(far) & !end(fin)"))


def test_final_clause_emptied_by_soft_places(demo_offline):
    # places 0..4 are the demo's reduced places; forbidding every place of
    # a final clause leaves it empty once an agent may step off them
    graph = demo_offline.graph
    vectors = SpecVectors((), ((1, 2),), (1, 2))
    for escapes in (demo_offline.simplified.escapes, (None,) * 5):
        split = split_formula(graph, vectors, escapes)
        assert select_target(graph, split) is None
        assert diagnose_infeasibility(graph, split) \
            == scan_diagnose(graph, vectors, escapes) == ("final",)
    # without escape pricing the same places are hard exclusions
    split = split_formula(graph, vectors, ())
    assert select_target(graph, split) is None
    assert diagnose_infeasibility(graph, split) == scan_diagnose(graph, vectors, ())


def check_hand_net(net, rng, rounds, pool):
    graph = build_graph(net)
    assert occupancy(graph) == occupancy_reference(markings_of(graph))
    assert_matches_reference(net, graph)
    loaded = replayed(graph, net)
    assert_same_graph(loaded, graph)
    n = net.num_places
    for _ in range(rounds):
        mobility = rng.randrange(0, n + 1)
        vectors = random_vectors(rng, n, mobility, pool, pool)
        assert_answers_like_scan((graph, loaded), vectors,
                                 random_escapes(rng, mobility))
    return graph


def test_counts_above_one_byte():
    net = two_byte_net()
    graph = check_hand_net(net, random.Random("occ:byte"), 60, range(4))
    assert len(graph) == 261 * 2
    assert max(map(max, markings_of(graph))) == 260


def test_net_wider_than_4096_bits():
    net = wide_net()
    pool = list(range(8)) + [500, 501, 1099] + list(range(1000, 1007))
    graph = check_hand_net(net, random.Random("occ:wide"), 60, pool)
    assert len(graph) == 7 * 6


class CountingMarkings:
    """Stand-in for ``BasisGraph.marking`` that counts its calls."""

    def __init__(self, graph):
        self._marking = graph.marking
        self.reads = 0

    def __call__(self, i):
        self.reads += 1
        return self._marking(i)


def enumerated_bound(graph, vectors, escapes):
    """Candidates a query may read: every marking meeting the clauses,
    in index order, up to the first one that pays no escape hop."""
    mobility = len(escapes)
    soft = [p for p in vectors.forbidden if p < mobility]
    stuck = [p for p in vectors.forbidden if p >= mobility or escapes[p] is None]
    need = list(vectors.trajectory)
    need += [[p for p in places if p not in soft] for places in vectors.final]
    count = 0
    for m in markings_of(graph):
        if any(m[p] for p in stuck):
            continue
        if not all(any(m[p] for p in sup) for sup in need):
            continue
        count += 1
        if not any(m[p] for p in soft):
            break
    return count


def test_queries_read_no_marking_without_escape_hops(plant_offline):
    built = plant_offline.graph
    graph = dataclasses.replace(built)
    graph.marking = markings = CountingMarkings(built)
    monitored = plant_offline.monitored
    n = monitored.net.num_places
    mobility = len(plant_offline.simplified.escapes)
    indicators = sorted(monitored.indicator_of.values())
    rng = random.Random("occ:reads")
    specs = [compile_vectors(parse(text), monitored.net, monitored.indicator_of)
             for text in (PLANT_SPEC, "visit(5) & !end(1) & !end(7)", "end(1) & end(7)")]
    specs += [random_vectors(rng, n, mobility, indicators) for _ in range(10)]
    hopping = 0
    for vectors in specs:
        for escapes in ((), plant_offline.simplified.escapes):
            markings.reads = 0
            split = split_formula(graph, vectors, escapes)
            choice = select_target(graph, split)
            soft = any(p < len(escapes) for p in vectors.forbidden)
            if soft:
                hopping += 1
                assert markings.reads <= enumerated_bound(built, vectors, escapes)
            else:
                assert markings.reads == 0
            markings.reads = 0
            diagnose_infeasibility(graph, split)
            assert markings.reads == 0
            assert choice == scan_select(built, vectors, escapes)
    assert hopping >= 3



def places_read(offline, text):
    """The places whose bitsets one feasible ``plan`` of ``text`` reads:
    the trajectory places, the final places that are not soft, the stuck
    places and the priced soft places, from the compiled clauses and the
    escape moves."""
    vectors = compile_vectors(parse(text), offline.monitored.net,
                              offline.monitored.indicator_of)
    escapes = offline.simplified.escapes
    mobility = len(escapes)
    soft = {p for p in vectors.forbidden if p < mobility}
    read = {p for clause in vectors.trajectory for p in clause}
    read |= {p for clause in vectors.final for p in clause if p not in soft}
    read |= {p for p in vectors.forbidden if p >= mobility or escapes[p] is None}
    read |= {p for p in soft if escapes[p] is not None}
    return read


@pytest.mark.parametrize("text", [PLANT_SPEC, HOPPING_SPEC, "visit(5) & end(1)"])
def test_a_cold_plan_builds_only_the_places_it_reads(plant_env, plant_offline, tmp_path, text):
    # HOPPING_SPEC's route ends on two forbidden cells with escape moves,
    # so its query prices soft places
    path = tmp_path / "plant.bin"
    save_offline(plant_env, plant_offline, path)
    offline = load_offline(plant_env, path)
    graph = offline.graph
    assert not graph.index
    result = plan(plant_env, text, offline)
    assert isinstance(result, Plan) and result == plan(plant_env, text, plant_offline)
    read = places_read(offline, text)
    assert set(graph.index) == read and len(read) < graph.places
    # a second query reuses the bitsets the first one built
    built = dict(graph.index)
    plan(plant_env, text, offline)
    assert graph.index.keys() == built.keys()
    assert all(graph.index[p] is bits for p, bits in built.items())


def test_a_build_makes_no_bitsets(demo_env):
    graph = build_offline(demo_env).graph
    assert not graph.index
    assert occupancy(graph) == occupancy_reference(markings_of(graph))
    assert len(graph.index) == graph.places


def one_marking_net():
    """Two places and a move out of the empty one: the tree is its root."""
    return hand_net(2, [((1,), (0,), 1)], [EMPTY, end_label("x")], (1, 0))


@pytest.mark.parametrize("name", ["plant", "two-byte", "one-marking"])
def test_occupied_equals_the_reference(plant_offline, name):
    if name == "plant":
        net, graph = plant_offline.monitored.net, plant_offline.graph
    else:
        net = two_byte_net() if name == "two-byte" else one_marking_net()
        graph = build_graph(net)
    expected = occupancy_reference(markings_of(graph))
    loaded = replayed(graph, net)
    assert occupancy(graph) == occupancy(loaded) == expected
    assert len(expected) == graph.places
    if name == "one-marking":
        assert len(graph) == 1 and expected == (1, 0)
    # each place alone, read first in descending order, gives its own bitset
    fresh = replayed(graph, net)
    assert [fresh.index[p] for p in reversed(range(graph.places))] == list(reversed(expected))
    for p in (-1, graph.places):
        with pytest.raises(KeyError):
            fresh.index[p]


def test_built_and_loaded_graphs_compare_equal_whatever_places_each_has_filled(
        demo_offline):
    net = demo_offline.monitored.net
    built = build_graph(net)
    loaded = replayed(built, net)
    assert built == loaded
    built.index[0]
    assert built == loaded
    loaded.index[3]
    loaded.index[4]
    assert built == loaded and set(built.index) == {0} and set(loaded.index) == {3, 4}
    # a copy makes its own index, empty until read
    copy = dataclasses.replace(loaded)
    assert copy == loaded and copy.index is not loaded.index and not copy.index
    assert_same_graph(built, loaded)
    assert_same_graph(copy, built)
    assert built != dataclasses.replace(built, qs=array("Q", [q + 1 for q in built.qs]))
    # no constructor argument sets the index
    with pytest.raises(TypeError):
        BasisGraph(built.packed, built.width, built.places, built.qs, built.scale,
                   built.parent, built.transition, built.index)
    # replace refuses an init=False field: ValueError up to Python 3.12,
    # TypeError from 3.13 on
    with pytest.raises((TypeError, ValueError)):
        dataclasses.replace(built, index=loaded.index)
