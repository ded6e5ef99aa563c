import copy
import dataclasses
import random
import tracemalloc
from fractions import Fraction

import pytest

from tampnet import (Infeasible, Plan, build_offline, diagnose_infeasibility,
                     joint_search, parse, parse_env, plan, save_cache,
                     select_target)
from tampnet.basis_graph import load_cache
from tampnet.bench import generate_instance
from tampnet.errors import IntegrityError
from tampnet.grid import DIRECTIONS, cell_labels
from tampnet.petri import enabled, fire, replay, sequence_cost
from tampnet.planner import decompose_agents, escape_steps
from tampnet.taskspec import SpecVectors, compile_vectors, holds

from conftest import EMPTY, hand_net, random_env, scan_select, square_env


@pytest.fixture(scope="module")
def demo_loaded(demo_offline, tmp_path_factory):
    path = tmp_path_factory.mktemp("demo") / "cache.json"
    save_cache(demo_offline.graph, demo_offline.monitored, path)
    return load_cache(path, demo_offline.monitored)


@pytest.mark.parametrize("seed", range(20))
def test_select_target_agrees_with_full_scan(demo_offline, demo_loaded, seed):
    rng = random.Random(f"sel:{seed}")
    built = demo_offline.graph
    n = 7
    mobility = 5

    def clause(pool):
        return tuple(sorted(rng.sample(pool, rng.randrange(1, min(3, len(pool)) + 1))))

    vectors = SpecVectors(
        trajectory=tuple(clause([5, 6]) for _ in range(rng.randrange(0, 3))),
        final=tuple(clause(list(range(mobility)))
                    for _ in range(rng.randrange(0, 3))),
        forbidden=tuple(sorted(rng.sample(range(n), rng.randrange(0, 4)))),
    )
    if rng.random() < 0.25:
        escapes = ()
    else:
        escapes = tuple(
            None if rng.random() < 0.2
            else (0, Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2])))
            for _ in range(mobility))

    expected = scan_select(built, vectors, escapes)
    assert select_target(built, vectors, escapes) == expected
    assert select_target(demo_loaded, vectors, escapes) == expected


def test_queries_reject_places_outside_the_graph(demo_offline):
    graph = demo_offline.graph
    for place in (-1, len(graph.occupied)):
        for vectors in (SpecVectors(((place,),), (), ()),
                        SpecVectors((), ((0, place),), ()),
                        SpecVectors((), (), (place,))):
            with pytest.raises(ValueError):
                select_target(graph, vectors)
            with pytest.raises(ValueError):
                diagnose_infeasibility(graph, vectors)


def test_demo_plan_is_frozen(demo_env, demo_offline):
    result = plan(demo_env, "visit(2) & end(3) & !visit(1)", demo_offline)
    assert isinstance(result, Plan)
    assert result.total_cost == 3
    assert result.team_sequence == (21, 18, 20)
    assert result.per_agent_paths == (
        ((0, 0),),
        ((2, 1), (2, 0), (2, 1), (2, 2)),
    )
    assert result.satisfied_trace[0] == EMPTY
    assert len(result.satisfied_trace) == len(result.team_sequence) + 1


def test_empty_formula_plans_zero_motion(demo_env, demo_offline):
    result = plan(demo_env, "true", demo_offline)
    assert result.total_cost == 0
    assert result.team_sequence == ()
    assert result.per_agent_paths == (((0, 0),), ((2, 1),))


def test_plan_accepts_parsed_specs(demo_env, demo_offline):
    text = plan(demo_env, "visit(2)", demo_offline)
    obj = plan(demo_env, parse("visit(2)"), demo_offline)
    assert text == obj


def test_demo_escape_transitions(demo_offline):
    assert demo_offline.escapes == (
        (0, Fraction(1)),
        (5, Fraction(1)),
        (17, Fraction(1)),
        (19, Fraction(1)),
        (22, Fraction(1)),
    )
    got = escape_steps(demo_offline.net, demo_offline.simplified.base_place)
    assert got == demo_offline.escapes


def test_forbidden_end_agent_steps_onto_anonymous_ground():
    env = square_env(3, [{"name": "2", "cells": [[2, 0]],
                          "trajectory_props": ["2"], "final_props": ["2"]}],
                     agents=[(2, 1)])
    spec = parse("visit(2) & !end(2)")
    result = plan(env, spec)
    assert isinstance(result, Plan)
    assert result.total_cost == 2
    assert result.per_agent_paths == (((2, 1), (2, 0), (1, 0)),)
    assert result.per_agent_paths[0][-1] not in cell_labels(env)
    oracle = joint_search(env, spec)
    assert oracle.cost == result.total_cost


def test_fully_labeled_world_with_no_legal_rest_is_infeasible():
    env = parse_env({
        "grid": {"rows": 1, "cols": 2},
        "regions": [
            {"name": "one", "cells": [[0, 0]],
             "trajectory_props": ["1"], "final_props": ["1"]},
            {"name": "two", "cells": [[0, 1]], "final_props": ["2"]},
        ],
        "agents": [[0, 1]],
    })
    offline = build_offline(env)
    assert offline.escapes == (None, None)
    spec = parse("visit(1) & !end(1) & !end(2)")
    result = plan(env, spec, offline)
    assert result == Infeasible(("forbidden",))
    assert joint_search(env, spec) is None


def _island_env():
    # the labeled corner is walled off from the agent
    return square_env(3, [{"name": "far", "cells": [[0, 2]],
                           "trajectory_props": ["far"], "final_props": ["fin"]}],
                      agents=[(2, 0)], obstacles=[(0, 1), (1, 2)])


def test_infeasibility_names_the_failing_families():
    env = _island_env()
    offline = build_offline(env)
    assert plan(env, "visit(far)", offline) == Infeasible(("trajectory",))
    assert plan(env, "end(fin)", offline) == Infeasible(("final",))
    both = plan(env, "visit(far) & end(fin)", offline)
    assert both == Infeasible(("trajectory", "final"))
    assert "trajectory + final" in both.message
    assert joint_search(env, parse("visit(far)")) is None


def test_jointly_impossible_families_report_combination(demo_env, demo_offline):
    result = plan(demo_env, "visit(1) & !visit(2)", demo_offline)
    assert result == Infeasible(("combination",))
    assert joint_search(demo_env, parse("visit(1) & !visit(2)")) is None


def test_decompose_agents_lowest_index_moves_first():
    net = hand_net(2, [((0,), (1,), 1)], [EMPTY, EMPTY], (2, 0))
    assert decompose_agents(net, (0,), [0, 0]) == [(0, 1), (0,)]
    assert decompose_agents(net, (), [1, 0]) == [(1,), (0,)]


def test_decompose_agents_rejects_bad_sequences():
    net = hand_net(2, [((0,), (1,), 1)], [EMPTY, EMPTY], (2, 0))
    with pytest.raises(IntegrityError):
        decompose_agents(net, (0,), [1, 1])
    multi = hand_net(3, [((0, 1), (2,), 1)], [EMPTY] * 3, (1, 1, 0))
    with pytest.raises(ValueError):
        decompose_agents(multi, (0,), [0, 1])


def _delta_costs(env):
    return {delta: env.move_cost[d] for d, (_, delta) in enumerate(DIRECTIONS)}


@pytest.mark.parametrize("seed", range(8))
def test_plan_outputs_hang_together(seed):
    env, spec = generate_instance(f"chain:{seed}", 4, 4, 2, 2, 4)
    offline = build_offline(env)
    result = plan(env, spec, offline)
    oracle = joint_search(env, spec)
    if isinstance(result, Infeasible):
        assert oracle is None
        return

    assert oracle is not None and oracle.cost == result.total_cost
    assert sequence_cost(offline.net, result.team_sequence) == result.total_cost

    run = replay(offline.net, offline.net.initial_counts, result.team_sequence)
    assert run.word == result.satisfied_trace
    assert holds(spec, run.word, run.counts, offline.net.labels)

    steps = sum(len(path) - 1 for path in result.per_agent_paths)
    assert steps == len(result.team_sequence)
    by_delta = _delta_costs(env)
    walked = Fraction(0)
    for path in result.per_agent_paths:
        assert path[0] in env.agents
        for (r1, c1), (r2, c2) in zip(path, path[1:]):
            walked += by_delta[(r2 - r1, c2 - c1)]
    assert walked == result.total_cost


def random_formula(rng, env):
    """A formula over ``env``'s propositions: each one is left out, negated
    or asked for, and the asked-for ones of a kind are grouped into
    clauses of one or two atoms."""
    terms = []
    for kind, names in (("visit", {n for r in env.regions for n in r.trajectory_props}),
                        ("end", {n for r in env.regions for n in r.final_props})):
        wanted = []
        for name in sorted(names):
            draw = rng.random()
            if draw < 0.25:
                terms.append(f"!{kind}({name})")
            elif draw < 0.8:
                wanted.append(f"{kind}({name})")
        rng.shuffle(wanted)
        while wanted:
            width = rng.randint(1, 2)
            clause, wanted = wanted[:width], wanted[width:]
            terms.append(clause[0] if len(clause) == 1 else f"({' | '.join(clause)})")
    rng.shuffle(terms)
    return " & ".join(terms) or "true"


def test_plan_matches_the_oracle_on_random_maps():
    # maps with obstacles, overlapping regions, a shared proposition and
    # fractional per-direction costs; formulas with negations and disjunctions
    rng = random.Random("diff:oracle")
    verdicts = {"feasible": 0, "infeasible": 0}
    for _ in range(60):
        env = random_env(rng)
        offline = build_offline(env)
        for _ in range(5):
            spec = parse(random_formula(rng, env))
            result = plan(env, spec, offline)
            oracle = joint_search(env, spec)
            if isinstance(result, Plan):
                assert oracle is not None and oracle.cost == result.total_cost, spec
                # the route, escape hops included, replayed in one pass
                run = replay(offline.net, offline.net.initial_counts, result.team_sequence)
                assert result.satisfied_trace == run.word, spec
                assert holds(spec, run.word, run.counts, offline.net.labels), spec
                verdicts["feasible"] += 1
            else:
                assert oracle is None, spec
                verdicts["infeasible"] += 1
    assert min(verdicts.values()) > 0


DEMO_SPEC = "visit(2) & end(3) & !visit(1)"


def _chosen(offline, spec):
    vectors = compile_vectors(spec, offline.monitored.net, offline.monitored.indicator_of)
    return select_target(offline.graph, vectors, offline.escapes).index


def _cheaper_target(offline, spec):
    """The chosen marking's cost column reads one unit of the scale low."""
    qs = copy.copy(offline.graph.qs)
    qs[_chosen(offline, spec)] -= 1
    return dataclasses.replace(offline, graph=dataclasses.replace(offline.graph, qs=qs))


def _rerouted_edge(offline, spec):
    """The chosen marking's tree edge names another move from its parent:
    one of equal cost that fires but ends on another placement."""
    graph, net = offline.graph, offline.monitored.net
    mobility = len(offline.simplified.base_place)
    i = _chosen(offline, spec)
    parent, t = graph.marking(graph.parent[i - 1]), graph.transition[i - 1]
    other = next(u for u in range(net.num_transitions)
                 if u != t and net.cost[u] == net.cost[t] and enabled(net, parent, u)
                 and fire(net, parent, u)[:mobility] != graph.marking(i)[:mobility])
    transition = copy.copy(graph.transition)
    transition[i - 1] = other
    return dataclasses.replace(offline, graph=dataclasses.replace(graph, transition=transition))


def _unlabeled_net(offline, spec):
    """A movement net of the same moves with every place label dropped."""
    net = dataclasses.replace(offline.net, labels=(EMPTY,) * offline.net.num_places)
    return dataclasses.replace(offline, net=net)


@pytest.mark.parametrize("tamper, message", [
    (_cheaper_target, "abstract and base run costs disagree"),
    (_rerouted_edge, "base run does not reproduce the target marking"),
    (_unlabeled_net, "selected run does not satisfy the formula"),
])
def test_plan_refuses_a_tampered_offline_model(demo_env, demo_offline, tamper, message):
    spec = parse(DEMO_SPEC)
    assert isinstance(plan(demo_env, spec, demo_offline), Plan)
    with pytest.raises(IntegrityError, match=message):
        plan(demo_env, spec, tamper(demo_offline, spec))


class _Passes(tuple):
    """A tuple that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_a_feasible_query_makes_no_pass_over_the_movement_nets_places():
    # 6,400 places, 5 of them in the reduced net. A pass over the net's
    # labels or initial marking shows in their pass counts, and anything a
    # query allocates with one slot per place shows as 8 bytes a place.
    # The second formula makes the agent that visits a hop off it.
    side = 80
    env = square_env(side, [
        {"name": "a", "cells": [[5, 70]], "trajectory_props": ["a"], "final_props": ["a"]},
        {"name": "b", "cells": [[70, 5]], "final_props": ["b"]},
        {"name": "c", "cells": [[40, 40]], "trajectory_props": ["c"]},
    ], agents=[(0, 0), (side - 1, side - 1)])
    offline = build_offline(env)
    places = offline.net.num_places
    assert places == side * side
    labels, marking = _Passes(offline.net.labels), _Passes(offline.net.initial_marking)
    net = dataclasses.replace(offline.net, labels=labels, initial_marking=marking)
    offline = dataclasses.replace(offline, net=net)
    for text in ("visit(a) & visit(c) & end(b)", "visit(a) & !end(a) & end(b)"):
        plan(env, text, offline)  # per-net values computed on first use
        labels.passes = marking.passes = 0
        tracemalloc.start()
        try:
            result = plan(env, text, offline)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(result, Plan), text
        assert len(result.team_sequence) >= 100, text
        assert (labels.passes, marking.passes) == (0, 0), text
        assert peak < 8 * places, (text, peak)
