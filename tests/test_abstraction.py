import random
from fractions import Fraction

import pytest

from tampnet.abstraction import (_Moves, build_monitored, build_simplified,
                                 labeled_places, lift)
from tampnet.basis_graph import _layout
from tampnet.data import fixture_path
from tampnet.grid import env_to_pn, load_env
from tampnet.petri import VISIT, Atom, fire, replay, sequence_cost

from conftest import (EMPTY, brute_minimal_sequence, marking_of, random_env,
                      square_env)
from test_golden import REDUCE_MAP


def test_demo_simplified_shape(demo_offline):
    simplified = demo_offline.simplified
    assert simplified.net.num_places == 5
    assert simplified.net.num_transitions == 12
    assert simplified.base_place == (0, 2, 6, 7, 8)
    assert simplified.net.scale == 1
    assert sorted(simplified.net.weights) == [1, 1, 2, 2, 2, 2, 2, 2, 3, 4, 4, 4]


def test_demo_transitions_ordered_by_base_pair(demo_offline):
    simplified = demo_offline.simplified
    pairs = [(m.source, m.target) for m in simplified.lift_map]
    assert pairs == sorted(pairs)
    base = set(simplified.base_place)
    labeled = set(labeled_places(demo_offline.net))
    for m in simplified.lift_map:
        assert m.source in base
        assert m.target in labeled


def test_minimal_sequence_lexicographic_tie_break():
    # uniform costs on an open 3x3: many equal-cost routes, the chosen
    # transition ids must be the smallest tuple among them
    env = square_env(3, [{"name": "z", "cells": [[2, 2]], "final_props": ["1"]}],
                     agents=[(0, 0)])
    net = env_to_pn(env)
    (ms,) = build_simplified(net).lift_map
    assert (ms.source, ms.target) == (0, 8)
    assert Fraction(ms.weight, net.scale) == 4
    assert (Fraction(ms.weight, net.scale), ms.sequence) == brute_minimal_sequence(net, 0, 8, ())


def assert_lift_map_matches_brute_force(net):
    """Every reduced transition, and the set of (source, target) pairs that
    have one, equal the all-simple-paths reference."""
    simplified = build_simplified(net)
    labeled = set(labeled_places(net))
    expected = {}
    for source in simplified.base_place:
        for target in sorted(labeled - {source}):
            ref = brute_minimal_sequence(net, source, target,
                                         labeled - {source, target})
            if ref is not None:
                expected[source, target] = ref
    got = {(m.source, m.target): (Fraction(m.weight, net.scale), m.sequence)
           for m in simplified.lift_map}
    assert expected and got == expected
    # each move's end place, and the moves that leave a kept place
    kept = set(simplified.base_place)
    for m, stops in zip(simplified.lift_map, simplified.stops):
        assert m.places == tuple(net.targets[t] for t in m.sequence)
        assert stops == tuple(k for k in range(1, len(m.sequence))
                              if net.sources[m.sequence[k]] in kept)
    return got


@pytest.mark.parametrize("seed", range(8))
def test_minimal_sequence_matches_brute_force(seed):
    # single-cell regions, obstacles, and uniform, fractional or
    # per-direction costs
    rng = random.Random(f"abs:{seed}")
    side = rng.choice([3, 4, 4, 5])
    cells = [(r, c) for r in range(side) for c in range(side)]
    rng.shuffle(cells)
    n_obstacles = rng.randrange(0, 4) if side >= 4 else 0
    obstacles, rest = cells[:n_obstacles], cells[n_obstacles:]
    n_regions = rng.randrange(2, 5)
    regions = [{"name": str(i + 1), "cells": [list(rest[i])],
                "trajectory_props": [str(i + 1)]} for i in range(n_regions)]
    agent = rest[n_regions]
    cost = rng.choice([1, "3/2", {"up": 1, "right": 2, "down": "1/2", "left": 1}])
    env = square_env(side, regions, agents=[agent], obstacles=obstacles,
                     move_cost=cost)
    assert_lift_map_matches_brute_force(env_to_pn(env))


@pytest.mark.parametrize("seed", range(40))
def test_build_simplified_matches_brute_force(seed):
    # every reduced transition against the all-simple-paths reference, on
    # maps with obstacles, overlapping two-cell regions, a proposition shared
    # by two regions, a labeled start cell and costs with denominators 2, 3, 7
    rng = random.Random(f"reduce:{seed}")
    side = rng.choice([3, 4, 5])
    cells = [(r, c) for r in range(side) for c in range(side)]
    rng.shuffle(cells)
    n_obstacles = rng.randrange(1, side)
    obstacles, free = cells[:n_obstacles], cells[n_obstacles:]
    regions = [
        {"name": "A", "cells": [list(free[0]), list(free[1])],
         "trajectory_props": ["a", "s"]},
        {"name": "B", "cells": [list(free[1]), list(free[2])],
         "trajectory_props": ["b"], "final_props": ["e"]},
        {"name": "C", "cells": [list(c) for c in free[3:3 + rng.randint(1, 2)]],
         "trajectory_props": ["s"]},
    ]
    costs = ["1/3", "2/7", "1/2", 1]
    rng.shuffle(costs)
    env = square_env(side, regions, agents=[free[0], free[-1]],
                     obstacles=obstacles,
                     move_cost=dict(zip(("up", "right", "down", "left"), costs)))
    got = assert_lift_map_matches_brute_force(env_to_pn(env))
    assert any(cost.denominator > 1 for cost, _ in got.values())


def test_minimal_sequence_detours_around_labeled_interior():
    # a wall of labeled cells across the middle: the route must go around it
    regions = [
        {"name": "wall", "cells": [[1, 0], [1, 1]], "trajectory_props": ["w"]},
        {"name": "goal", "cells": [[2, 0]], "final_props": ["g"]},
    ]
    env = square_env(3, regions, agents=[(0, 0)])
    net = env_to_pn(env)
    (ms,) = [m for m in build_simplified(net).lift_map
             if (m.source, m.target) == (0, 6)]
    blocked = set(labeled_places(net)) - {0, 6}
    assert Fraction(ms.weight, net.scale) == 6
    trace = [_one_token(net, 0)]
    for t in ms.sequence:
        trace.append(fire(net, trace[-1], t))
    interior = {m for m in trace[1:-1]}
    for marking in interior:
        occupied = {p for p, c in enumerate(marking) if c}
        assert not occupied & blocked


def _one_token(net, place):
    m = [0] * net.num_places
    m[place] = 1
    return tuple(m)


@pytest.mark.parametrize("seed", range(5))
def test_lift_preserves_cost_and_placement(demo_offline, seed):
    simplified = demo_offline.simplified
    abstract = simplified.net
    rng = random.Random(f"lift:{seed}")
    marking = abstract.initial_marking
    sigma = []
    for _ in range(rng.randrange(1, 7)):
        options = [t for t in range(abstract.num_transitions)
                   if marking[abstract.sources[t]]]
        t = rng.choice(options)
        sigma.append(t)
        marking = fire(abstract, marking, t)

    moves = lift(simplified, sigma)
    assert sequence_cost(demo_offline.net, moves) == sequence_cost(abstract, sigma)
    run = replay(demo_offline.net, demo_offline.net.initial_counts, moves)
    final = marking_of(demo_offline.net, run.counts)
    lifted = tuple(final[p] for p in simplified.base_place)
    assert lifted == marking
    off_base = [final[p] for p in range(demo_offline.net.num_places)
                if p not in set(simplified.base_place)]
    assert not any(off_base)


def test_lift_rejects_unknown_transition(demo_offline):
    with pytest.raises(ValueError):
        lift(demo_offline.simplified, (99,))


def test_demo_monitor_shape(demo_offline):
    qm = demo_offline.monitored
    assert qm.net.num_places == 7
    assert qm.indicator_of == {"1": 5, "2": 6}
    assert qm.net.labels[:5] == demo_offline.simplified.net.labels
    assert qm.net.latches == frozenset({5, 6})
    assert qm.net.labels[5] == EMPTY and qm.net.labels[6] == EMPTY
    assert qm.net.initial_marking == (1, 0, 0, 1, 0, 0, 0)


def test_monitor_production_matches_target_labels(demo_offline):
    qm = demo_offline.monitored
    abstract = demo_offline.simplified.net
    for t in range(abstract.num_transitions):
        target = abstract.targets[t]
        want = {qm.indicator_of[a.name] for a in abstract.labels[target]
                if a.kind == VISIT and a.name in qm.indicator_of}
        assert qm.net.targets[t] == target and set(qm.net.sets[t]) == want


def test_start_inside_region_sets_indicator():
    regions = [{"name": "z", "cells": [[0, 0]], "trajectory_props": ["x"]},
               {"name": "g", "cells": [[1, 1]], "final_props": ["y"]}]
    env = square_env(2, regions, agents=[(0, 0)])
    qm = build_monitored(build_simplified(env_to_pn(env)))
    assert qm.net.initial_marking[qm.indicator_of["x"]] == 1


@pytest.mark.parametrize("seed", range(4))
def test_indicators_are_monotone_binary(demo_offline, seed):
    qm = demo_offline.monitored
    rng = random.Random(f"mono:{seed}")
    marking = qm.net.initial_marking
    indicators = sorted(qm.indicator_of.values())
    prev = [marking[i] for i in indicators]
    for _ in range(12):
        options = [t for t in range(qm.net.num_transitions)
                   if marking[qm.net.sources[t]]]
        marking = fire(qm.net, marking, rng.choice(options))
        cur = [marking[i] for i in indicators]
        assert all(v in (0, 1) for v in cur)
        assert all(a <= b for a, b in zip(prev, cur))
        prev = cur


def test_unlabeled_world_reduces_to_isolated_starts():
    env = square_env(3, [], agents=[(1, 1)])
    simplified = build_simplified(env_to_pn(env))
    assert simplified.net.num_transitions == 0
    assert simplified.base_place == (4,)
    qm = build_monitored(simplified)
    assert qm.indicator_of == {}
    assert qm.net == simplified.net


def test_each_search_stops_at_its_last_source():
    # on an open 20x20 grid both sources sit within five moves of the target
    # (0, 3): the search back from it settles the places up to that cost,
    # not the whole grid
    env = square_env(20, [{"name": "a", "cells": [[0, 1]], "final_props": ["a"]},
                          {"name": "b", "cells": [[0, 3]], "final_props": ["b"]}],
                     agents=[(0, 0)])
    net = env_to_pn(env)
    moves = _Moves(net)
    expanded = []

    class Logged(list):
        def __getitem__(self, p):
            expanded.append(p)
            return list.__getitem__(self, p)

    moves.into = Logged(moves.into)
    role = bytearray(net.num_places)
    role[0], role[1] = 1, 2
    dist = moves.cheapest(3, role, 2)
    # the sources are settled but not expanded: 1 is labeled, and settling 0
    # ends the search
    settled = expanded + [1, 0]
    del expanded[:]
    # a count above the sources that exist never stops: the full search
    full = moves.cheapest(3, role, 3)
    assert settled[0] == 3 and dist[0] == 5 and dist[1] == 2
    assert len(settled) < 25 and len(set(expanded)) == net.num_places - 1
    assert all(dist[p] == full[p] for p in settled)
    assert {p for p in range(net.num_places) if full[p] < dist[0]} <= set(settled)
    routes = {(m.source, m.target): Fraction(m.weight, net.scale)
              for m in build_simplified(net).lift_map}
    assert routes == {(0, 1): 1, (0, 3): 5, (1, 3): 2, (3, 1): 2}


def scan_monitored(simplified, trajectory_props):
    """``build_monitored``'s latch column and initial marking by the
    per-transition scans it replaced: an ``Atom(VISIT, name)`` tested
    against each transition's target labels, per proposition."""
    base = simplified.net
    props = sorted(set(trajectory_props))
    indicator_of = {name: base.num_places + i for i, name in enumerate(props)}
    sets = tuple(tuple(indicator_of[name] for name in props
                       if Atom(VISIT, name) in base.labels[base.targets[t]])
                 for t in range(base.num_transitions))
    counts = list(base.initial_marking) + [0] * len(props)
    for p in range(base.num_places):
        if base.initial_marking[p] > 0:
            for atom in base.labels[p]:
                if atom.kind == VISIT and atom.name in indicator_of:
                    counts[indicator_of[atom.name]] = 1
    return sets, tuple(counts)


def scan_layout(net):
    """``_layout``'s latch classes and move table by one scan over the
    transitions per latch, as it worked them out before."""
    layout = _layout(net)
    by_setters = {}
    for p in sorted(net.latches):
        setters = tuple(t for t, latches in enumerate(net.sets) if p in latches)
        if setters and not net.initial_marking[p]:
            by_setters.setdefault(setters, []).append(p)
    classes = [tuple(places) for places in by_setters.values()]
    shift = 8 * layout.width
    place_bit = [1 << (shift * p) for p in range(net.num_places)]
    moves = []
    for t, (src, dst) in enumerate(zip(net.sources, net.targets)):
        plain = place_bit[dst] - place_bit[src]
        class_bits = sum(1 << c for c, places in enumerate(classes) if places[0] in net.sets[t])
        moves.append((((1 << shift) - 1) << (shift * src), plain, class_bits, net.weights[t]))
    return classes, tuple(moves)


def _props(env):
    return set().union(*(region.trajectory_props for region in env.regions))


def assert_tables_match_the_scans(env):
    simplified = build_simplified(env_to_pn(env))
    qm = build_monitored(simplified)
    assert set(qm.indicator_of) == _props(env)
    assert qm.net.targets == simplified.net.targets
    assert (qm.net.sets, qm.net.initial_marking) == scan_monitored(simplified, _props(env))
    layout = _layout(qm.net)
    assert (layout.classes, layout.moves) == scan_layout(qm.net)
    return qm, layout


@pytest.mark.parametrize("name", ["plant", "reduce_44x44"])
def test_one_pass_tables_match_the_scans(name):
    env = load_env(fixture_path("plant_8x11.json") if name == "plant" else REDUCE_MAP)
    qm, layout = assert_tables_match_the_scans(env)
    assert qm.indicator_of and layout.classes
    assert any(qm.net.sets)


def test_one_pass_tables_match_the_scans_on_random_maps():
    rng = random.Random("one-pass-tables")
    latched = 0
    for _ in range(200):
        _, layout = assert_tables_match_the_scans(random_env(rng))
        latched += bool(layout.classes)
    assert latched > 100
