import json
import random
from fractions import Fraction

import pytest

from tampnet import (CacheDigestError, CacheFormatError, CacheVersionError,
                     Explanation, MonitoredNet, PetriNet, StateBudgetError,
                     apply_explanation, build_graph, build_offline,
                     choose_partition, full_graph_reference, load_cache,
                     minimal_explanations, net_digest, save_cache,
                     validate_partition)
from tampnet.basis_graph import BasisPartition, Edge, _build_general
from tampnet.oracle import _brute_explanations
from tampnet.planner import backtrack, linearize_explanation

from tampnet import replay, sequence_cost

from conftest import (EMPTY, as_monitored, end_label, hand_net, hop_chain_net,
                      join_net, occupancy_reference, relay_net, square_env,
                      two_cycle_net, two_feeders_net)

DEMO_DIGEST = "ff7e55c952e326713d2a199a4f7269c6fb6fa574575e303a087e3fd169cb653e"


def test_partition_forces_watched_targets_explicit():
    qm = relay_net()
    part = choose_partition(qm)
    assert sorted(part.explicit) == [1]
    assert sorted(part.implicit) == [0]
    validate_partition(qm, part)


def test_partition_breaks_cycles_at_smallest_id():
    qm = two_cycle_net()
    part = choose_partition(qm)
    assert sorted(part.explicit) == [0, 2]
    assert sorted(part.implicit) == [1]
    validate_partition(qm, part)


def test_validate_partition_rejects_bad_splits():
    qm = two_cycle_net()
    with pytest.raises(ValueError):
        validate_partition(qm, BasisPartition(frozenset({0}), frozenset({1})))
    with pytest.raises(ValueError):
        validate_partition(qm, BasisPartition(frozenset({0, 1, 2}), frozenset({1})))
    with pytest.raises(ValueError):
        validate_partition(qm, BasisPartition(frozenset({0, 1}), frozenset({2})))
    with pytest.raises(ValueError):
        validate_partition(qm, BasisPartition(frozenset({2}), frozenset({0, 1})))


def test_relay_graph_carries_the_explanation():
    qm = relay_net()
    graph = build_graph(qm, choose_partition(qm))
    assert graph.markings == ((1, 0, 0), (0, 0, 1))
    assert graph.edges[0] is None
    assert graph.edges[1] == Edge(parent=0, transition=1,
                                  explanation=((0, 1),), cost=Fraction(2))


def test_minimal_explanations_frozen_cases():
    qm = two_feeders_net()
    part = choose_partition(qm)
    assert minimal_explanations(qm, part, qm.net.initial_marking, 2) == [
        Explanation(((0, 1),), Fraction(1)),
        Explanation(((1, 1),), Fraction(2)),
    ]

    qm = hop_chain_net()
    part = choose_partition(qm)
    assert minimal_explanations(qm, part, qm.net.initial_marking, 2) == [
        Explanation(((0, 1), (1, 1)), Fraction(3)),
    ]

    qm = join_net()
    part = choose_partition(qm)
    assert minimal_explanations(qm, part, qm.net.initial_marking, 2) == [
        Explanation(((0, 1), (1, 1)), Fraction(2)),
    ]


def test_minimal_explanations_zero_vector_when_enabled():
    qm = relay_net()
    part = choose_partition(qm)
    assert minimal_explanations(qm, part, (0, 1, 0), 1) == [Explanation((), Fraction(0))]
    with pytest.raises(ValueError):
        minimal_explanations(qm, part, (1, 0, 0), 0)


def test_linearize_explanation_orders_the_chain():
    qm = hop_chain_net()
    part = choose_partition(qm)
    m0 = qm.net.initial_marking
    assert linearize_explanation(qm, part, m0, ((0, 1), (1, 1))) == (0, 1)
    with pytest.raises(ValueError):
        linearize_explanation(qm, part, m0, ((2, 1),))


def test_chain_and_join_accumulated_costs():
    for make, want in ((hop_chain_net, Fraction(8)), (join_net, Fraction(3))):
        qm = make()
        graph = build_graph(qm, choose_partition(qm))
        assert len(graph) == 2
        assert graph.q(1) == want


def test_two_feeders_graph_shape_and_reference():
    qm = two_feeders_net()
    part = choose_partition(qm)
    graph = build_graph(qm, part)
    assert graph.markings == ((1, 1, 0, 0), (0, 1, 0, 1), (1, 0, 0, 1), (0, 0, 0, 2))
    assert [graph.q(i) for i in range(4)] == [0, 2, 3, 5]

    ref = full_graph_reference(qm, part)
    idx = {m: i for i, m in enumerate(ref.markings)}
    assert set(ref.markings) == set(graph.markings)
    for i, m in enumerate(graph.markings):
        assert graph.q(i) == ref.labels[idx[m]]


def test_cycle_graph_costs():
    qm = two_cycle_net()
    graph = build_graph(qm, choose_partition(qm))
    assert graph.markings == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert [graph.q(i) for i in range(3)] == [0, 1, 2]


@pytest.mark.parametrize("seed", range(12))
def test_minimal_explanations_match_exhaustive_search(seed):
    rng = random.Random(f"expl:{seed}")
    places = rng.randrange(4, 7)
    arcs = []
    for _ in range(rng.randrange(3, 9)):
        a = rng.randrange(0, places - 1)
        b = rng.randrange(a + 1, places)
        arcs.append(((a,), (b,), rng.choice([1, 1, 2, "1/2"])))
    width = rng.randrange(1, 3)
    inputs = tuple(sorted(rng.sample(range(places), width)))
    arcs.append((inputs, (places - 1,), 1))
    explicit_id = len(arcs) - 1
    m0 = tuple(rng.randrange(0, 3) for _ in range(places))
    if sum(m0) == 0:
        m0 = (1,) + m0[1:]
    net = hand_net(places, arcs, [EMPTY] * places, m0)
    qm = as_monitored(net)
    part = BasisPartition(frozenset({explicit_id}),
                          frozenset(range(explicit_id)))
    validate_partition(qm, part)

    got = minimal_explanations(qm, part, m0, explicit_id)
    expected = _brute_explanations(net, sorted(part.implicit), m0, explicit_id)
    assert [(e.vector, e.cost) for e in got] == sorted(
        (sparse, cost) for sparse, cost, _ in expected)
    for sparse, _, staged in expected:
        assert apply_explanation(net, m0, sparse) == staged


def test_demo_graph_shape(demo_offline):
    graph = demo_offline.graph
    assert len(graph) == 23
    assert len(graph.edges) == 23
    assert graph.edges[0] is None
    assert graph.occupied == occupancy_reference(graph.markings)
    assert all(e.explanation == () for e in graph.edges[1:])
    assert all(isinstance(e.cost, Fraction) for e in graph.edges[1:])

    probe = (1, 0, 0, 0, 1, 0, 0)
    qs = {m: graph.q(i) for i, m in enumerate(graph.markings)}
    assert qs[probe] == 1


def _check_tree(graph):
    assert graph.edges[0] is None
    costs = [graph.q(i) for i in range(len(graph))]
    assert costs == sorted(costs)
    for i, edge in enumerate(graph.edges):
        if i == 0:
            continue
        assert edge.parent < i
    assert len(set(graph.markings)) == len(graph)


def test_demo_and_plant_graphs_are_trees(demo_offline, plant_offline):
    _check_tree(demo_offline.graph)
    _check_tree(plant_offline.graph)
    assert len(plant_offline.graph) == 81921


def test_backtrack_replays_to_every_demo_marking(demo_offline):
    qm = demo_offline.monitored
    part = demo_offline.partition
    graph = demo_offline.graph
    for i in range(len(graph)):
        seq = backtrack(qm, part, graph, i)
        run = replay(qm.net, qm.net.initial_marking, seq)
        assert run.final == graph.markings[i]
        assert sequence_cost(qm.net, seq) == graph.q(i)
    with pytest.raises(ValueError):
        backtrack(qm, part, graph, len(graph))


def test_demo_graph_matches_exhaustive_reference(demo_offline):
    graph = demo_offline.graph
    ref = full_graph_reference(demo_offline.monitored, demo_offline.partition)
    idx = {m: i for i, m in enumerate(ref.markings)}
    assert set(ref.markings) == set(graph.markings)
    for i, m in enumerate(graph.markings):
        assert graph.q(i) == ref.labels[idx[m]]

    ref_edges = {(src, t, y, dst): w for src, t, y, w, dst in ref.edges}
    for i, edge in enumerate(graph.edges):
        if edge is None:
            continue
        key = (idx[graph.markings[edge.parent]], edge.transition,
               edge.explanation, idx[graph.markings[i]])
        assert key in ref_edges
        assert ref_edges[key] == graph.q(i) - graph.q(edge.parent)


def test_general_build_agrees_with_packed_fast_path(demo_offline):
    general = _build_general(demo_offline.monitored, demo_offline.partition,
                             10 ** 6)
    packed = demo_offline.graph
    assert general.markings == packed.markings
    assert general.edges == packed.edges
    assert general.occupied == packed.occupied == occupancy_reference(packed.markings)


def test_packed_path_agrees_with_general_on_fractional_costs():
    # integer-scaled weights must give the same tree and exact costs
    regions = [{"name": "a", "cells": [[0, 3], [1, 3]], "trajectory_props": ["a"]},
               {"name": "b", "cells": [[1, 3], [3, 0]], "trajectory_props": ["b"]},
               {"name": "c", "cells": [[2, 2]], "final_props": ["c"]}]
    env = square_env(4, regions, agents=[(0, 0), (3, 3)], obstacles=[(1, 1)],
                     move_cost={"up": "1/3", "right": "2/7", "down": "1/2", "left": 1})
    offline = build_offline(env)
    general = _build_general(offline.monitored, offline.partition, 10 ** 6)
    assert offline.graph.markings == general.markings
    assert offline.graph.edges == general.edges
    assert any(edge.cost.denominator > 1 for edge in offline.graph.edges[1:])


def test_transitions_out_of_source_order_expand_in_id_order():
    # t0 leaves place 1 and t1 leaves place 0; equal-cost children must
    # still be discovered in transition id order
    net = hand_net(4, [((1,), (2,), 1), ((0,), (3,), 1)],
                   [EMPTY, EMPTY, end_label("x"), end_label("y")], (1, 1, 0, 0))
    qm = as_monitored(net)
    graph = build_graph(qm)
    assert graph.markings[1] == (1, 0, 1, 0)
    general = _build_general(qm, choose_partition(qm), 10 ** 6)
    assert graph.markings == general.markings
    assert graph.edges == general.edges


def test_latch_starting_above_one_saturates_as_fire_does():
    # producing into a latch that holds 2 leaves it at 1, as petri.fire does
    net = PetriNet(3, ((0,),), ((1, 2),), (Fraction(1),),
                   (EMPTY, end_label("x"), EMPTY), (1, 0, 2), frozenset({2}))
    graph = build_graph(MonitoredNet(net, {"v": 2}, (0, 1), (0, 1)))
    assert graph.markings == ((1, 0, 2), (0, 1, 1))


def test_transition_adding_tokens_keeps_exact_counts():
    # t0 splits each of 130 tokens in two, so place 1 ends up with 260: more
    # than a field sized for the initial total holds
    net = hand_net(3, [((0,), (1, 2), 1), ((2,), (1,), 1)],
                   [EMPTY, end_label("x"), end_label("y")], (130, 0, 0))
    qm = as_monitored(net)
    graph = build_graph(qm)
    assert graph.markings[-1] == (0, 260, 0)
    general = _build_general(qm, choose_partition(qm), 10 ** 6)
    assert graph.markings == general.markings
    assert graph.edges == general.edges
    assert graph.occupied == occupancy_reference(graph.markings)


def test_build_honors_the_state_cap(demo_offline):
    with pytest.raises(StateBudgetError) as err:
        build_graph(demo_offline.monitored, demo_offline.partition, state_cap=5)
    assert err.value.budget == 5


def test_net_digest_is_stable(demo_offline):
    net = demo_offline.monitored.net
    assert net_digest(net) == DEMO_DIGEST
    relabeled = relay_net().net
    assert net_digest(relabeled) != DEMO_DIGEST
    assert len(net_digest(relabeled)) == 64


def test_cache_round_trip_is_byte_stable(tmp_path, demo_offline):
    qm = demo_offline.monitored
    part = demo_offline.partition
    graph = demo_offline.graph
    one = tmp_path / "one.json"
    two = tmp_path / "two.json"
    save_cache(graph, qm, part, one)
    save_cache(graph, qm, part, two)
    assert one.read_bytes() == two.read_bytes()

    loaded, loaded_part = load_cache(one, qm)
    assert loaded.markings == graph.markings
    assert loaded.edges == graph.edges
    assert loaded.occupied == graph.occupied
    assert loaded_part == part


def _tampered(tmp_path, demo_offline, mutate):
    qm = demo_offline.monitored
    path = tmp_path / "cache.json"
    save_cache(demo_offline.graph, qm, demo_offline.partition, path)
    container = json.loads(path.read_text())
    mutate(container)
    path.write_text(json.dumps(container))
    return path, qm


def test_cache_rejects_wrong_version(tmp_path, demo_offline):
    path, qm = _tampered(tmp_path, demo_offline,
                         lambda c: c.update(version=99))
    with pytest.raises(CacheVersionError) as err:
        load_cache(path, qm)
    assert err.value.found == 99


def test_cache_rejects_wrong_digest(tmp_path, demo_offline):
    path, qm = _tampered(tmp_path, demo_offline,
                         lambda c: c.update(digest="0" * 64))
    with pytest.raises(CacheDigestError):
        load_cache(path, qm)


def test_cache_rejects_foreign_and_broken_files(tmp_path, demo_offline):
    qm = demo_offline.monitored

    missing = tmp_path / "nope.json"
    with pytest.raises(CacheFormatError):
        load_cache(missing, qm)

    garbage = tmp_path / "garbage.json"
    garbage.write_text("{this is not json")
    with pytest.raises(CacheFormatError):
        load_cache(garbage, qm)

    other = tmp_path / "other.json"
    other.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(CacheFormatError):
        load_cache(other, qm)

    good = tmp_path / "good.json"
    save_cache(demo_offline.graph, qm, demo_offline.partition, good)
    truncated = tmp_path / "truncated.json"
    truncated.write_bytes(good.read_bytes()[: good.stat().st_size // 2])
    with pytest.raises(CacheFormatError):
        load_cache(truncated, qm)


def test_cache_rejects_malformed_body(tmp_path, demo_offline):
    def break_edge(container):
        container["edges"][1] = [0]

    path, qm = _tampered(tmp_path, demo_offline, break_edge)
    with pytest.raises(CacheFormatError):
        load_cache(path, qm)

    def root_with_parent(container):
        container["edges"][0] = [0, 0, [], [1, 1]]

    path, qm = _tampered(tmp_path, demo_offline, root_with_parent)
    with pytest.raises(CacheFormatError):
        load_cache(path, qm)
