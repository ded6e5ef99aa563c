import copy
import dataclasses
import json
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from tampnet import (CacheError, Infeasible, Plan, StateBudgetError, build_graph,
                     build_offline, joint_search, load_env, load_offline, parse, parse_env,
                     plan, planner, save_cache, save_offline)
from tampnet.abstraction import MinimalSequence, SimplifiedNet, build_simplified, lift
from tampnet.basis_graph import load_cache
from tampnet.bench import generate_instance
from tampnet.errors import IntegrityError
from tampnet.grid import (DIRECTIONS, cell_labels, cost_json, env_to_pn, free_cells,
                          plan_json_text)
from tampnet.petri import END, VISIT, Atom, enabled, fire, replay, sequence_cost
from tampnet.planner import backtrack, select_target, split_formula, walk_route
from tampnet.taskspec import SpecVectors, compile_vectors, holds

from conftest import (EMPTY, end_label, hand_net, random_env, scan_diagnose,
                      scan_select, square_env)
from test_golden import REDUCE_MAP, formula_pool


@pytest.fixture(scope="module")
def demo_loaded(demo_offline, tmp_path_factory):
    path = tmp_path_factory.mktemp("demo") / "cache.json"
    save_cache(demo_offline.graph, demo_offline.monitored.net, path)
    return load_cache(path, demo_offline.monitored.net)


def _timed_and_traced(call):
    """Run ``call()``, which must raise; returns the exception, the
    seconds it took and the peak of the memory it traced."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        call()
    except Exception as exc:
        return exc, time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    raise AssertionError("the call raised nothing")


def _no_cells(*args, **kwargs):
    raise AssertionError("per-cell work ran before the check that refuses the map")


def test_a_huge_map_is_refused_before_any_per_cell_work(demo_env, demo_offline, tmp_path,
                                                         monkeypatch):
    # a 100,000 x 100,000 map has 10**10 free cells, past the default state
    # cap of 5,000,000: the build refuses it before listing a cell, and a
    # load refuses a cache of another map by its key, also before any cell.
    # Listing the cells fails here, so a missing check fails the test
    # rather than filling the memory
    monkeypatch.setattr(planner, "free_cells", _no_cells)
    monkeypatch.setattr(planner, "env_to_pn", _no_cells)
    env = parse_env({"grid": {"rows": 100_000, "cols": 100_000},
                     "regions": [{"name": "g", "cells": [[5, 5]], "final_props": ["g"]}],
                     "agents": [[0, 0], [99_999, 99_999]]})
    error, seconds, peak = _timed_and_traced(lambda: plan(env, "end(g)"))
    assert isinstance(error, StateBudgetError)
    assert str(error) == "movement net exceeded the state budget of 5000000"
    assert seconds < 0.1 and peak < 1 << 20

    path = tmp_path / "demo.bin"
    save_offline(demo_env, demo_offline, path)
    error, seconds, peak = _timed_and_traced(lambda: load_offline(env, path))
    assert isinstance(error, CacheError) and "different model" in str(error)
    assert seconds < 0.1 and peak < 1 << 20


def test_the_front_end_bound_is_the_free_cell_count():
    # a map with exactly as many free cells as the cap passes the front
    # end; one more free cell does not
    env = square_env(3, [{"name": "g", "cells": [[2, 2]], "final_props": ["g"]}],
                     agents=[(0, 0)])
    assert len(build_offline(env, state_cap=9).graph) == 2
    with pytest.raises(StateBudgetError, match="movement net"):
        build_offline(env, state_cap=8)
    walled = dataclasses.replace(env, obstacles=frozenset({(1, 1)}))
    assert len(build_offline(walled, state_cap=8).graph) == 2


def test_the_front_end_takes_at_most_1300_bytes_per_free_cell():
    # README "Exit codes and limits": listing the free cells, compiling the
    # movement net and reducing it peak at about 1.25 KB per free cell on an
    # open grid with fractional costs, which the free-cell bound relies on
    side = 150
    env = square_env(side, [
        {"name": "a", "cells": [[side // 3, side // 2]], "trajectory_props": ["a"]},
        {"name": "b", "cells": [[side - 2, 1]], "final_props": ["b"]},
    ], agents=[(0, 0), (side - 1, side - 1)],
        move_cost={"up": "1/3", "right": "2/7", "down": "1/2", "left": 1})
    tracemalloc.start()
    try:
        simplified = build_simplified(env_to_pn(env, free_cells(env)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(simplified.lift_map) == 6  # each start to each region, and back and forth
    assert peak <= 1300 * side * side, peak / (side * side)


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
            None if rng.random() < 0.2 else (0, rng.choice([1, 2, 3, 4, 5, 6]))
            for _ in range(mobility))

    expected = scan_select(built, vectors, escapes)
    for graph in (built, demo_loaded):
        assert select_target(graph, split_formula(graph, vectors, escapes)) == expected


def chain_graph():
    """One token walking the chain 0 -> 1 -> 2 -> 3 at move costs 1, 2 and
    3: its tree holds the token at place i as marking i, of cost 0, 1, 3
    and 6."""
    net = hand_net(4, [((0,), (1,), 1), ((1,), (2,), 2), ((2,), (3,), 3)],
                   [EMPTY] * 4, (1, 0, 0, 0))
    return build_graph(net)


@pytest.mark.parametrize("forbidden, prices, expected, reads", [
    # marking 1 pays a hop of 2 and ties marking 2, which pays none: the
    # tie goes to the smaller index
    ((1,), {1: 2}, (1, 3), "q1 m1 q2"),
    ((1,), {1: Fraction(2)}, (1, 3), "q1 m1 q2"),
    # a dearer hop: marking 2, the first candidate without one, is cheaper
    ((1,), {1: 3}, (2, 3), "q1 m1 q2"),
    ((1,), {1: Fraction(5, 2)}, (2, 3), "q1 m1 q2"),
    # two candidates pay hops before marking 3, which pays none
    ((1, 2), {1: 7, 2: Fraction(7, 3)}, (2, Fraction(16, 3)), "q1 m1 q2 m2 q3"),
    ((1, 2), {1: 7, 2: 4}, (3, 6), "q1 m1 q2 m2 q3"),
    # no candidate pays a hop: the first candidate, from its q alone
    ((), {}, (1, 1), "q1"),
    ((0,), {0: 1}, (1, 1), "q1"),
])
def test_select_target_stops_at_the_first_candidate_without_a_hop(
        forbidden, prices, expected, reads):
    # the chain's tree counted in sixths, so that the hop prices are whole
    # weights at its scale
    chain = chain_graph()
    built = dataclasses.replace(chain, qs=[6 * q for q in chain.qs], scale=6)
    assert [built.q(i) for i in range(len(built))] == [0, 1, 3, 6]
    escapes = tuple(None if p not in prices else (0, int(6 * prices[p])) for p in range(4))
    vectors = SpecVectors(((1, 2, 3),), (), forbidden)
    read = []

    class Costs(list):
        def __getitem__(self, i):
            read.append(f"q{i}")
            return list.__getitem__(self, i)

    graph = dataclasses.replace(built, qs=Costs(built.qs))
    graph.marking = lambda i: read.append(f"m{i}") or built.marking(i)
    choice = select_target(graph, split_formula(graph, vectors, escapes))
    assert choice == scan_select(built, vectors, escapes) == expected
    assert isinstance(choice.cost, Fraction)
    # a candidate's cost is read in turn, its marking only to price its
    # hops, and nothing past the first candidate that pays none
    assert read == reads.split()


def test_queries_reject_places_outside_the_graph(demo_offline):
    graph = demo_offline.graph
    for place in (-1, graph.places):
        for vectors in (SpecVectors(((place,),), (), ()),
                        SpecVectors((), ((0, place),), ()),
                        SpecVectors((), (), (place,))):
            with pytest.raises(ValueError):
                split_formula(graph, vectors, ())


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
    # (move, weight), at the demo's scale of 1
    assert demo_offline.simplified.escapes == ((0, 1), (5, 1), (17, 1), (19, 1), (22, 1))


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
    assert offline.simplified.escapes == (None, None)
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


@pytest.mark.parametrize("name", ["plant", "reduce"])
def test_a_query_splits_its_formula_once(name, request, monkeypatch):
    """``plan`` splits each formula of a pinned pool once, feasible or not,
    selects its target from that split once, and names the families of an
    infeasible one from the same split once, as the tuple scan does. The
    stages are counted through the planner's module globals, which is
    where the benchmark's tracer wraps them."""
    if name == "plant":
        env, offline = request.getfixturevalue("plant_env"), request.getfixturevalue("plant_offline")
    else:
        env = load_env(REDUCE_MAP)
        offline = build_offline(env)
    calls = []
    stages = ("split_formula", "select_target", "diagnose_infeasibility")

    def counted(stage):
        call = getattr(planner, stage)

        def wrapper(*args):
            result = call(*args)
            calls.append((stage, args, result))
            return result
        return wrapper

    for stage in stages:
        monkeypatch.setattr(planner, stage, counted(stage))
    kinds = set()
    for text in formula_pool(env, f"golden:pool:{name}"):
        spec = parse(text)
        calls.clear()
        result = plan(env, spec, offline)
        infeasible = isinstance(result, Infeasible)
        assert [stage for stage, _, _ in calls] == list(stages[:2 + infeasible]), text
        split = calls[0][2]
        assert all(args[1] is split for _, args, _ in calls[1:]), text
        kinds.add(type(result))
        if infeasible:
            vectors = compile_vectors(spec, offline.monitored.net, offline.monitored.indicator_of)
            assert result.families == scan_diagnose(offline.graph, vectors,
                                                    offline.simplified.escapes)
    assert kinds == {Plan, Infeasible}


def decompose_agents(net, sigma, starts):
    """Reference split of a movement firing sequence into per-agent place
    walks, one move at a time: each move is taken by the lowest-indexed
    agent currently at its source place."""
    positions = list(starts)
    paths = [[s] for s in starts]
    for step, t in enumerate(sigma):
        src, dst = net.sources[t], net.targets[t]
        try:
            agent = positions.index(src)
        except ValueError:
            raise IntegrityError(f"step {step}: no agent stands at place {src}") from None
        positions[agent] = dst
        paths[agent].append(dst)
    return [tuple(path) for path in paths]


def assert_walk_matches_reference(net, simplified, sigma, starts):
    """``walk_route`` gives what replaying the lifted run and splitting it
    one move at a time give; returns the route."""
    route = walk_route(net, simplified, sigma, starts)
    moves = lift(simplified, sigma)
    run = replay(net, net.initial_counts, moves)
    assert route.moves == list(moves)
    assert (route.counts, tuple(route.word)) == (run.counts, run.word)
    assert list(map(tuple, route.paths)) == decompose_agents(net, moves, starts)
    return route


def test_decompose_agents_lowest_index_moves_first():
    net = hand_net(2, [((0,), (1,), 1)], [EMPTY, end_label("x")], (2, 0))
    simplified = build_simplified(net)
    assert walk_route(net, simplified, (0,), [0, 0]).paths == [[0, 1], [0]]
    assert walk_route(net, simplified, (), [1, 0]).paths == [[1], [0]]
    # agent 0 idles on place 1, which agent 1's route from place 0 crosses:
    # agent 0 takes the move out of place 1
    chain = hand_net(3, [((0,), (1,), 1), ((1,), (2,), 1)],
                     [EMPTY, EMPTY, end_label("x")], (1, 1, 0))
    simplified = build_simplified(chain)
    (t,) = [t for t, m in enumerate(simplified.lift_map) if m.source == 0]
    assert simplified.stops[t] == (1,)
    route = assert_walk_matches_reference(chain, simplified, (t,), [1, 0])
    assert route.paths == [[1, 2], [0, 1]]


def test_decompose_agents_rejects_bad_sequences():
    net = hand_net(2, [((0,), (1,), 1)], [EMPTY, end_label("x")], (2, 0))
    simplified = build_simplified(net)
    with pytest.raises(IntegrityError, match="^step 0: no agent stands at place 0$"):
        walk_route(net, simplified, (0,), [1, 1])
    with pytest.raises(IntegrityError, match="^step 2: place 0 holds no token$"):
        walk_route(net, simplified, (0, 0, 0), [0, 0])
    with pytest.raises(IntegrityError, match="^step 1: unknown abstract transition 1$"):
        walk_route(net, simplified, (0, 1), [0, 0])
    # the route from place 0 is stored as move 1 alone, a move out of place 1
    chain = hand_net(3, [((0,), (1,), 1), ((1,), (2,), 1)],
                     [EMPTY, EMPTY, end_label("x")], (1, 0, 0))
    skipped = SimplifiedNet(chain, (MinimalSequence(0, 2, (1,), 1, (2,)),), (0, 1, 2),
                            (None,) * 3)
    with pytest.raises(IntegrityError, match="^step 0: the moves of abstract transition 0 "
                                             "do not chain from place 0 to a kept place$"):
        walk_route(chain, skipped, (0,), [0])
    # place 1 is a corridor place, which the reduction does not keep
    with pytest.raises(IntegrityError, match="^an agent starts off the kept places$"):
        walk_route(chain, build_simplified(chain), (), [1])


def test_walk_route_refuses_a_net_with_latches():
    # place 2 is a latch that already holds a token
    net = hand_net(3, [((0,), (1, 2), 1)], [EMPTY, end_label("x"), EMPTY], (1, 0, 1),
                   latches={2})
    with pytest.raises(IntegrityError, match="^the movement net has latch places$"):
        walk_route(net, build_simplified(net), (0,), [0])


def test_an_agent_idling_on_a_start_cell_takes_over_the_route_that_crosses_it():
    # a corridor: agent 2 starts at the west end, agents 1 and 0 idle
    # further east on unlabeled start cells, and the cheapest route from
    # the west end to the goal at the east end crosses both
    env = square_env(7, [{"name": "g", "cells": [[0, 6]], "final_props": ["g"]}],
                     agents=[(0, 3), (0, 1), (0, 0)],
                     obstacles=[(r, c) for r in range(1, 7) for c in range(7)])
    offline = build_offline(env)
    net, simplified = offline.net, offline.simplified
    (t,) = [t for t, m in enumerate(simplified.lift_map) if m.source == 0]
    assert simplified.stops[t] == (1, 3)
    route = assert_walk_matches_reference(net, simplified, (t,), offline.starts)
    assert route.paths == [[3, 4, 5, 6], [1, 2, 3], [0, 1]]
    # every abstract run of up to two moves
    abstract = simplified.net
    runs = [((), abstract.initial_marking)]
    for run, marking in runs:  # visits the runs appended below too
        if len(run) < 2:
            runs += [(run + (u,), fire(abstract, marking, u))
                     for u in range(abstract.num_transitions) if enabled(abstract, marking, u)]
    assert len(runs) == 10
    for run, _ in runs:
        assert_walk_matches_reference(net, simplified, run, offline.starts)


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


def random_formulas():
    """(env, five formula texts) for 60 seeded maps with obstacles,
    overlapping regions, a shared proposition and fractional per-direction
    costs; the formulas have negations and disjunctions."""
    rng = random.Random("diff:oracle")
    for _ in range(60):
        env = random_env(rng)
        yield env, [random_formula(rng, env) for _ in range(5)]


def random_queries():
    """(env, offline model, formula, plan result) of the 300 queries of
    ``random_formulas``."""
    for env, texts in random_formulas():
        offline = build_offline(env)
        for text in texts:
            spec = parse(text)
            yield env, offline, spec, plan(env, spec, offline)


def test_plan_matches_the_oracle_on_random_maps():
    verdicts = {"feasible": 0, "infeasible": 0}
    for env, offline, spec, result in random_queries():
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


def plan_schema(env, plan):
    """The plan's JSON object (see README for the schema), built as a dict."""
    visited = frozenset().union(*plan.satisfied_trace) if plan.satisfied_trace else frozenset()
    final_atoms = {Atom(END, p) for path in plan.per_agent_paths
                   for region in env.regions if path[-1] in region.cells
                   for p in region.final_props}
    satisfied = sorted(a.text() for a in set(a for a in visited if a.kind == VISIT) | final_atoms)
    return {
        "total_cost": cost_json(plan.total_cost),
        "agents": [
            {"start": list(path[0]), "path": [list(cell) for cell in path]}
            for path in plan.per_agent_paths
        ],
        "team_sequence": list(plan.team_sequence),
        "satisfied_atoms": satisfied,
    }


def test_plan_paths_and_text_follow_one_move_at_a_time_on_random_maps():
    # the agent split of every move, escape hops included, and the plan's
    # JSON text written by json.dumps
    feasible = 0
    for env, offline, spec, result in random_queries():
        if not isinstance(result, Plan):
            continue
        paths = decompose_agents(offline.net, result.team_sequence, offline.starts)
        assert result.per_agent_paths == tuple(
            tuple(offline.cells[p] for p in path) for path in paths), spec
        assert plan_json_text(env, result) == json.dumps(
            plan_schema(env, result), sort_keys=True, separators=(",", ":")) + "\n", spec
        feasible += 1
    assert feasible > 100


DEMO_SPEC = "visit(2) & end(3) & !visit(1)"


def _chosen(offline, spec):
    vectors = compile_vectors(spec, offline.monitored.net, offline.monitored.indicator_of)
    escapes = offline.simplified.escapes
    return select_target(offline.graph, split_formula(offline.graph, vectors, escapes)).index


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
                 if u != t and net.weights[u] == net.weights[t] and enabled(net, parent, u)
                 and fire(net, parent, u)[:mobility] != graph.marking(i)[:mobility])
    transition = copy.copy(graph.transition)
    transition[i - 1] = other
    return dataclasses.replace(offline, graph=dataclasses.replace(graph, transition=transition))


def _unlabeled_net(offline, spec):
    """A movement net of the same moves with every place label dropped."""
    net = dataclasses.replace(offline.net, labels=(EMPTY,) * offline.net.num_places)
    return dataclasses.replace(offline, net=net)


def _repriced_abstract_move(offline, spec):
    """The monitored net with the first abstract move off the route half a
    unit dearer. Its weights are counted in halves, unlike the tree's and
    the movement net's."""
    net = offline.monitored.net
    route = backtrack(offline.graph, _chosen(offline, spec))
    t = min(set(range(net.num_transitions)) - set(route))
    weights = [2 * w for w in net.weights]
    weights[t] += 1
    net = dataclasses.replace(net, weights=tuple(weights), scale=2 * net.scale)
    return dataclasses.replace(offline, monitored=dataclasses.replace(offline.monitored, net=net))


def _dearer_abstract_move(offline, spec):
    """The monitored net with the route's last abstract move one unit of
    the scale dearer."""
    net = offline.monitored.net
    t = backtrack(offline.graph, _chosen(offline, spec))[-1]
    weights = list(net.weights)
    weights[t] += 1
    net = dataclasses.replace(net, weights=tuple(weights))
    return dataclasses.replace(offline, monitored=dataclasses.replace(offline.monitored, net=net))


@pytest.mark.parametrize("tamper, message", [
    (_cheaper_target, "abstract and base run costs disagree"),
    (_dearer_abstract_move, "abstract and base run costs disagree"),
    (_rerouted_edge, "base run does not reproduce the target marking"),
    (_unlabeled_net, "selected run does not satisfy the formula"),
])
def test_plan_refuses_a_tampered_offline_model(demo_env, demo_offline, tamper, message):
    spec = parse(DEMO_SPEC)
    assert isinstance(plan(demo_env, spec, demo_offline), Plan)
    with pytest.raises(IntegrityError, match=message):
        plan(demo_env, spec, tamper(demo_offline, spec))


def test_an_abstract_cost_scale_unlike_the_trees_is_refused(demo_env, demo_offline):
    # every net of a model and its tree count costs at one scale, so costs
    # compare as plain ints: a monitored net counted in halves is refused,
    # even where its route's costs equal the tree's
    spec = parse(DEMO_SPEC)
    tampered = _repriced_abstract_move(demo_offline, spec)
    assert tampered.monitored.net.scale != demo_offline.graph.scale
    with pytest.raises(IntegrityError, match="^the model's nets and tree count costs at "
                                             "different scales$"):
        plan(demo_env, spec, tampered)


def _with_lift_entry(offline, t, entry):
    lift_map = list(offline.simplified.lift_map)
    lift_map[t] = entry
    simplified = dataclasses.replace(offline.simplified, lift_map=tuple(lift_map))
    return dataclasses.replace(offline, simplified=simplified)


@pytest.mark.parametrize("occupied", [False, True])
def test_plan_refuses_a_lift_map_entry_that_does_not_chain(demo_env, demo_offline, occupied):
    # the route's last abstract move lifts to the moves of the first other
    # entry of equal cost from another source, one that holds a token or
    # not: the walk refuses the route at that move
    spec = parse(DEMO_SPEC)
    lift_map = demo_offline.simplified.lift_map
    route = backtrack(demo_offline.graph, _chosen(demo_offline, spec))
    t = route[-1]
    ms = lift_map[t]
    other = next(m for m in lift_map if m.weight == ms.weight and m.source != ms.source
                 and (m.source in demo_offline.net.initial_counts) == occupied)
    tampered = _with_lift_entry(demo_offline, t, dataclasses.replace(
        other, source=ms.source, target=ms.target))
    with pytest.raises(IntegrityError, match=f"^step {len(route) - 1}: the moves of abstract "
                                             f"transition {t} do not chain from place "
                                             f"{ms.source} to a kept place$"):
        plan(demo_env, spec, tampered)


def test_plan_refuses_recorded_places_that_disagree_with_the_moves(plant_env, plant_offline):
    # each abstract move of the route in turn, its recorded places reversed:
    # the walk refuses the route at that move's step. The places of a
    # single move read the same reversed, so that plan stays as it is
    spec = parse("visit(2) & visit(4) & visit(6) & visit(9) & visit(10)"
                 " & !visit(5) & end(1) & end(7)")
    expected = plan(plant_env, spec, plant_offline)
    route = backtrack(plant_offline.graph, _chosen(plant_offline, spec))
    refused = 0
    for step, t in enumerate(route):
        ms = plant_offline.simplified.lift_map[t]
        tampered = _with_lift_entry(plant_offline, t, dataclasses.replace(
            ms, places=ms.places[::-1]))
        if len(ms.places) == 1:
            assert plan(plant_env, spec, tampered) == expected
            continue
        with pytest.raises(IntegrityError, match=f"^step {step}: the moves of abstract "
                                                 f"transition {t} do not chain"):
            plan(plant_env, spec, tampered)
        refused += 1
    assert refused > 4


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


# Two plant formulas: the plan of the first ends with two escape hops, the
# plan of the second with none
HOPPING_SPEC = "visit(2) & visit(8) & !end(8) & !end(2)"
STAYING_SPEC = "visit(2) & visit(4) & end(7)"


def _edited_column(offline, spec, column, edit):
    """``offline`` with the chosen marking's entry of the graph column
    ``qs`` or ``transition`` (whose entry ``i - 1`` is the tree edge into
    marking ``i``) replaced by ``edit(offline, i, value)``."""
    graph = offline.graph
    i = _chosen(offline, spec)
    values = copy.copy(getattr(graph, column))
    k = i if column == "qs" else i - 1
    values[k] = edit(offline, i, values[k])
    return dataclasses.replace(offline, graph=dataclasses.replace(graph, **{column: values}))


def _firing_edge(same_cost):
    """An edit of the chosen marking's tree edge to the first other move
    that fires from its parent, of equal cost or not, ending on another
    placement."""
    def edit(offline, i, t):
        graph, net = offline.graph, offline.monitored.net
        mobility = len(offline.simplified.base_place)
        parent = graph.marking(graph.parent[i - 1])
        return next(u for u in range(net.num_transitions)
                    if u != t and (net.weights[u] == net.weights[t]) == same_cost
                    and enabled(net, parent, u)
                    and fire(net, parent, u)[:mobility] != graph.marking(i)[:mobility])
    return edit


_COLUMN_EDITS = {
    "cheaper cost": ("qs", lambda offline, i, q: q - 1),
    "unknown edge": ("transition", lambda offline, i, t: offline.monitored.net.num_transitions),
    "equal-cost edge": ("transition", _firing_edge(True)),
    "dearer edge": ("transition", _firing_edge(False)),
}

# The error of each edit on each route. The costs are checked before the
# target marking, and both before any hop moves, so an edited edge is
# refused alike on both routes.
_COLUMN_EDIT_ERRORS = {
    ("cheaper cost", HOPPING_SPEC): (IntegrityError, "abstract and base run costs disagree"),
    ("cheaper cost", STAYING_SPEC): (IntegrityError, "abstract and base run costs disagree"),
    ("dearer edge", HOPPING_SPEC): (IntegrityError, "abstract and base run costs disagree"),
    ("dearer edge", STAYING_SPEC): (IntegrityError, "abstract and base run costs disagree"),
    ("equal-cost edge", HOPPING_SPEC):
        (IntegrityError, "base run does not reproduce the target marking"),
    ("equal-cost edge", STAYING_SPEC):
        (IntegrityError, "base run does not reproduce the target marking"),
    ("unknown edge", HOPPING_SPEC): (IntegrityError, "step 1: unknown abstract transition 348"),
    ("unknown edge", STAYING_SPEC): (IntegrityError, "step 2: unknown abstract transition 348"),
}


@pytest.mark.parametrize("text", [HOPPING_SPEC, STAYING_SPEC])
@pytest.mark.parametrize("edit", sorted(_COLUMN_EDITS))
def test_plan_refuses_an_edited_graph_column(plant_env, plant_offline, text, edit):
    spec = parse(text)
    result = plan(plant_env, spec, plant_offline)
    assert isinstance(result, Plan)
    hops = result.total_cost - plant_offline.graph.q(_chosen(plant_offline, spec))
    assert (hops > 0) == (text == HOPPING_SPEC)
    column, change = _COLUMN_EDITS[edit]
    error, message = _COLUMN_EDIT_ERRORS[edit, text]
    with pytest.raises(Exception) as raised:
        plan(plant_env, spec, _edited_column(plant_offline, spec, column, change))
    assert (type(raised.value), str(raised.value)) == (error, message)


@pytest.mark.parametrize("text", [HOPPING_SPEC, STAYING_SPEC])
def test_plan_refuses_a_movement_net_that_prices_the_last_move_higher(plant_env, plant_offline,
                                                                     text):
    # the last move is an escape hop on the hopping route: the check sums
    # the hops' weights with the route's
    result = plan(plant_env, text, plant_offline)
    net = plant_offline.net
    weights = list(net.weights)
    weights[result.team_sequence[-1]] += 1
    tampered = dataclasses.replace(plant_offline, net=dataclasses.replace(net, weights=tuple(weights)))
    with pytest.raises(IntegrityError, match="abstract and base run costs disagree"):
        plan(plant_env, text, tampered)


def _with_escape(offline, t):
    """``offline`` with the escape move out of reduced place 0 set to ``t``."""
    escapes = list(offline.simplified.escapes)
    escapes[0] = (t, escapes[0][1])
    simplified = dataclasses.replace(offline.simplified, escapes=tuple(escapes))
    return dataclasses.replace(offline, simplified=simplified)


_HOP_EDITS = {
    # move 17 is a move out of place 6, agent 1's start
    "move out of another place": (lambda offline: _with_escape(offline, 17),
                                  "escape hop 17 is not a move out of place 0"),
    "unknown move": (lambda offline: _with_escape(offline, offline.net.num_transitions),
                     "escape hop 24 is not a move out of place 0"),
    # both agents start on place 6, so none stands where the hop starts
    "starts": (lambda offline: dataclasses.replace(offline, starts=(6, 6)),
               "hop 0: no agent stands at place 0"),
}


@pytest.mark.parametrize("edit", sorted(_HOP_EDITS))
def test_plan_refuses_an_escape_hop_it_cannot_walk(edit):
    # agent 0 starts on the end(g) cell, place 0, and steps off it by
    # escape move 0; agent 1 walks from place 6 to the visit(h) cell
    env = square_env(3, [{"name": "g", "cells": [[0, 0]], "final_props": ["g"]},
                         {"name": "h", "cells": [[2, 2]], "trajectory_props": ["h"]}],
                     agents=[(0, 0), (2, 0)])
    offline = build_offline(env)
    text = "visit(h) & !end(g)"
    assert plan(env, text, offline).team_sequence[-1] == 0
    assert offline.simplified.escapes[0] == (0, 1) and offline.starts == (0, 6)
    assert offline.net.sources[17] == 6
    tamper, message = _HOP_EDITS[edit]
    with pytest.raises(IntegrityError, match=f"^{message}$"):
        plan(env, text, tamper(offline))
