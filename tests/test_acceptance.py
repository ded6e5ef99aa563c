"""Acceptance gate: one test per shipping criterion.

Each test prints an `[acceptance] <n> <name>: PASS/FAIL` line straight to
the terminal, bypassing capture, so the verdicts are readable in any pytest
run. The checks here are end-to-end and deliberately re-derive expectations
from independent references (joint grid search, exhaustive graph rebuild,
brute-force path enumeration) instead of trusting the code under test.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from tampnet import (Infeasible, Plan, backtrack, build_graph, build_offline,
                     joint_search, load_offline, parse, plan, plan_json_text,
                     save_offline)
from tampnet.abstraction import build_simplified, labeled_places, lift
from tampnet.bench import generate_instance
from tampnet.grid import env_to_pn
from tampnet.petri import replay, sequence_cost
from tampnet.taskspec import holds

from conftest import (assert_matches_reference, brute_minimal_sequence,
                      hop_chain_net, marking_of, markings_of, relay_net,
                      square_env, two_cycle_net, two_feeders_net)

DEMO_SPEC = "visit(2) & end(3) & !visit(1)"
PLANT_SPEC = ("visit(2) & visit(4) & visit(6) & visit(9) & visit(10)"
              " & !visit(5) & end(1) & end(7)")


@pytest.fixture
def announce(capfd):
    @contextmanager
    def check(number, name):
        verdict = "FAIL"
        try:
            yield
            verdict = "PASS"
        finally:
            with capfd.disabled():
                print(f"[acceptance] {number} {name}: {verdict}", flush=True)

    return check


def test_c1_example_walkthrough(demo_env, announce):
    with announce(1, "example walkthrough"):
        t0 = time.perf_counter()
        offline = build_offline(demo_env)
        spec = parse(DEMO_SPEC)
        result = plan(demo_env, spec, offline)
        oracle = joint_search(demo_env, spec)
        elapsed = time.perf_counter() - t0

        assert isinstance(result, Plan)
        assert result.total_cost == Fraction(3)
        for path in result.per_agent_paths:
            assert (0, 2) not in path
        assert any(path[-1] == (2, 2) for path in result.per_agent_paths)
        run = replay(offline.net, offline.net.initial_counts,
                     result.team_sequence)
        assert holds(spec, run.word, run.counts, offline.net.labels)
        assert oracle is not None and oracle.cost == Fraction(3)
        assert elapsed < 1.0


def test_c2_oracle_equivalence_sweep(announce):
    with announce(2, "oracle equivalence sweep"):
        rng = random.Random("acc2")
        feasible = infeasible = 0
        t0 = time.perf_counter()
        for i in range(200):
            rows = rng.randint(3, 6)
            cols = rng.randint(3, 6)
            agents = rng.randint(1, 3)
            env, spec = generate_instance(f"acc2:{i}", rows, cols, agents, 2, 5)
            result = plan(env, spec)
            oracle = joint_search(env, spec)
            if isinstance(result, Plan):
                feasible += 1
                assert oracle is not None
                assert result.total_cost == oracle.cost
            else:
                infeasible += 1
                assert isinstance(result, Infeasible)
                assert oracle is None
        elapsed = time.perf_counter() - t0

        assert feasible > 0 and infeasible > 0
        assert feasible + infeasible == 200
        assert elapsed < 300.0


def _assert_tree(graph):
    assert len(graph.parent) == len(graph.transition) == len(graph) - 1
    assert len(set(markings_of(graph))) == len(graph)
    qs = [graph.q(i) for i in range(len(graph))]
    assert qs == sorted(qs)
    for i, parent in enumerate(graph.parent, 1):
        assert parent < i


def _assert_replays(net, graph):
    root = net.initial_counts
    for i, marking in enumerate(markings_of(graph)):
        sigma = backtrack(graph, i)
        run = replay(net, root, sigma)
        assert marking_of(net, run.counts) == marking
        assert sequence_cost(net, sigma) == graph.q(i)


def test_c3_reachability_graph_structure(demo_offline, plant_offline, announce):
    with announce(3, "reachability graph structure"):
        members = [(off.monitored.net, off.graph) for off in (demo_offline, plant_offline)]
        walled = square_env(3, [
            {"name": "zone1", "cells": [[0, 2]], "trajectory_props": ["1", "2"]},
            {"name": "zone2", "cells": [[2, 0]], "trajectory_props": ["2"]},
            {"name": "zone3", "cells": [[2, 2]], "final_props": ["3"]},
        ], agents=[[0, 0], [2, 1]], obstacles=[(1, 1)])
        pipeline_envs = [walled]
        for i in range(3):
            pipeline_envs.append(generate_instance(f"acc3:{i}", 5, 5, 2, 3, 4)[0])
        pipeline_envs.append(generate_instance("acc3:mid7", 6, 6, 3, 7, 7)[0])
        for env in pipeline_envs:
            off = build_offline(env)
            members.append((off.monitored.net, off.graph))
        for make in (relay_net, two_feeders_net, hop_chain_net, two_cycle_net):
            net = make()
            members.append((net, build_graph(net)))

        for net, graph in members:
            _assert_tree(graph)
            _assert_replays(net, graph)
            assert_matches_reference(net, graph)


def test_c4_cost_chain_across_reductions(demo_offline, plant_offline, announce):
    with announce(4, "cost chain across reductions"):
        fractional = square_env(4, [
            {"name": "a", "cells": [[0, 3]], "trajectory_props": ["1"]},
            {"name": "b", "cells": [[3, 0]], "trajectory_props": ["2"],
             "final_props": ["2"]},
            {"name": "c", "cells": [[3, 3]], "final_props": ["3"]},
        ], agents=[[0, 0], [1, 2]],
            move_cost={"up": 1, "right": "3/2", "down": "1/2", "left": 2})
        random_env, _ = generate_instance("acc4:env", 6, 6, 2, 4, 6)
        families = [
            (demo_offline, 20),
            (plant_offline, 30),
            (build_offline(fractional), 20),
            (build_offline(random_env), 30),
        ]
        rng = random.Random("acc4")
        runs = 0
        for off, count in families:
            qm, graph = off.monitored, off.graph
            for _ in range(count):
                i = rng.randrange(len(graph))
                sigma = backtrack(graph, i)
                monitored_cost = sequence_cost(qm.net, sigma)
                simplified_cost = sequence_cost(off.simplified.net, sigma)
                lifted = lift(off.simplified, sigma)
                movement_cost = sequence_cost(off.net, lifted)
                assert isinstance(monitored_cost, Fraction)
                assert monitored_cost == graph.q(i)
                assert monitored_cost == simplified_cost == movement_cost
                runs += 1
        assert runs == 100


def test_c5_reduced_move_optimality(demo_env, announce):
    with announce(5, "reduced move optimality"):
        envs = [demo_env]
        rng = random.Random("acc5")
        for _ in range(8):
            side = rng.choice([3, 4, 5])
            cells = [(r, c) for r in range(side) for c in range(side)]
            picked = rng.sample(cells, rng.randrange(4, 8))
            obstacles = picked[:rng.randrange(0, 2)]
            rest = picked[len(obstacles):]
            n_regions = rng.randrange(2, min(5, len(rest)))
            regions = [{"name": str(i + 1), "cells": [list(rest[i])],
                        "trajectory_props": [str(i + 1)]}
                       for i in range(n_regions)]
            cost = rng.choice(
                [1, "3/2", {"up": 1, "right": 2, "down": "1/2", "left": 1}])
            envs.append(square_env(side, regions, agents=[rest[n_regions]],
                                   obstacles=obstacles, move_cost=cost))

        checked = 0
        for env in envs:
            net = env_to_pn(env)
            simplified = build_simplified(net)
            labeled = set(labeled_places(net))
            stored = {(m.source, m.target): m for m in simplified.lift_map}
            for source in simplified.base_place:
                for target in sorted(labeled):
                    if source == target:
                        continue
                    blocked = labeled - {source, target}
                    best = brute_minimal_sequence(net, source, target, blocked)
                    if (source, target) in stored:
                        entry = stored[(source, target)]
                        assert best is not None
                        assert (Fraction(entry.weight, net.scale), entry.sequence) == best
                        checked += 1
                    else:
                        assert best is None
        assert checked > 0


def test_c6_scaling_smoke(announce):
    with announce(6, "scaling smoke"):
        env20, spec20 = generate_instance("acc6:20", 20, 20, 3, 8, 10)
        t0 = time.perf_counter()
        off20 = build_offline(env20)
        t1 = time.perf_counter()
        result20 = plan(env20, spec20, off20)
        t2 = time.perf_counter()
        assert isinstance(result20, Plan)
        assert t2 - t0 < 60.0
        assert t2 - t1 < 1.0

        env50, spec50 = generate_instance("acc6:50", 50, 50, 3, 8, 10)
        off50 = build_offline(env50)
        t3 = time.perf_counter()
        result50 = plan(env50, spec50, off50)
        t4 = time.perf_counter()
        assert isinstance(result50, Plan)
        assert t4 - t3 < 1.0


def test_c7_plant_case_study(plant_env, plant_offline, announce):
    with announce(7, "plant case study"):
        spec = parse(PLANT_SPEC)
        result = plan(plant_env, spec, plant_offline)
        assert isinstance(result, Plan)
        run = replay(plant_offline.net, plant_offline.net.initial_counts,
                     result.team_sequence)
        assert holds(spec, run.word, run.counts, plant_offline.net.labels)
        oracle = joint_search(plant_env, spec)
        assert oracle is not None
        assert result.total_cost == oracle.cost == Fraction(28)


def test_c8_cache_determinism(tmp_path, demo_env, announce):
    with announce(8, "cache determinism"):
        acc8_env, acc8_spec = generate_instance("acc8", 8, 8, 2, 4, 6)
        cases = [(demo_env, parse(DEMO_SPEC)), (acc8_env, acc8_spec)]
        for n, (env, spec) in enumerate(cases):
            first = tmp_path / f"case{n}_first.json"
            second = tmp_path / f"case{n}_second.json"
            off_a = build_offline(env)
            off_b = build_offline(env)
            save_offline(env, off_a, first)
            save_offline(env, off_b, second)
            assert first.read_bytes() == second.read_bytes()

            cached = load_offline(env, first)
            fresh_plan = plan(env, spec, off_a)
            cached_plan = plan(env, spec, cached)
            assert isinstance(fresh_plan, Plan)
            assert isinstance(cached_plan, Plan)
            assert plan_json_text(env, fresh_plan) == plan_json_text(env, cached_plan)
