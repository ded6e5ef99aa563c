import random
from fractions import Fraction

import pytest

from tampnet import StateBudgetError, joint_search, load_env, oracle, parse
from tampnet.bench import generate_instance
from tampnet.data import fixture_path
from tampnet.errors import UnknownPropositionError
from tampnet.grid import DIRECTIONS, cell_labels, free_cells
from tampnet.petri import END, VISIT

from conftest import square_env


def _satisfied(env, spec, paths):
    """Direct clause evaluation on per-agent cell walks, no nets involved."""
    by_cell = cell_labels(env)
    visited = set()
    for path in paths:
        for cell in path:
            visited.update(a.name for a in by_cell.get(cell, ())
                           if a.kind == VISIT)
    finals = set()
    for path in paths:
        finals.update(a.name for a in by_cell.get(path[-1], ())
                      if a.kind == END)
    if any(not clause & visited for clause in spec.trajectory_clauses):
        return False
    if any(not clause & finals for clause in spec.final_clauses):
        return False
    for atom in spec.forbidden:
        pool = visited if atom.kind == VISIT else finals
        if atom.name in pool:
            return False
    return True


def _paths_from_moves(env, moves):
    paths = [[cell] for cell in env.agents]
    for agent, src, dst in moves:
        assert paths[agent][-1] == src
        assert abs(src[0] - dst[0]) + abs(src[1] - dst[1]) == 1
        assert dst not in env.obstacles
        paths[agent].append(dst)
    return [tuple(p) for p in paths]


def _shared_name_env():
    # "p" is carried by two regions, "g" by two, "k" only by B; region C is
    # three cells that the formula forbids entering
    return square_env(4, [
        {"name": "A", "cells": [[0, 2], [0, 3]], "trajectory_props": ["p"]},
        {"name": "B", "cells": [[3, 0], [3, 1]], "trajectory_props": ["p"],
         "final_props": ["g", "k"]},
        {"name": "C", "cells": [[1, 1], [2, 1], [1, 2]], "trajectory_props": ["x"]},
        {"name": "D", "cells": [[3, 3], [2, 3]], "final_props": ["g", "h"]},
    ], agents=[(1, 0), (0, 1)])


def _fractional_env():
    return square_env(4, [
        {"name": "A", "cells": [[0, 3]], "trajectory_props": ["a"]},
        {"name": "B", "cells": [[3, 0], [2, 0]], "trajectory_props": ["b"], "final_props": ["b"]},
        {"name": "C", "cells": [[3, 3]], "final_props": ["c"]},
    ], agents=[(0, 0), (2, 2)], obstacles=[(1, 1), (1, 2)],
        move_cost={"up": "1/3", "right": "2/7", "down": "1/2", "left": "1"})


@pytest.mark.parametrize("make_env, text, cost, moves", [
    pytest.param(
        lambda: load_env(fixture_path("demo_3x3.json")), "visit(2) & end(3) & !visit(1)", 3,
        ((0, (0, 0), (1, 0)), (0, (1, 0), (2, 0)), (1, (2, 1), (2, 2))), id="demo"),
    pytest.param(
        lambda: load_env(fixture_path("plant_8x11.json")),
        "visit(2) & visit(8) & (end(5) | end(9)) & !visit(1) & !end(6)", 15,
        ((0, (3, 5), (2, 5)), (0, (2, 5), (1, 5)), (0, (1, 5), (0, 5)), (0, (0, 5), (0, 6)),
         (0, (0, 6), (0, 5)), (0, (0, 5), (0, 4)), (0, (0, 4), (0, 3)), (0, (0, 3), (0, 2)),
         (0, (0, 2), (0, 1)), (1, (4, 5), (4, 6)), (1, (4, 6), (4, 7)), (1, (4, 7), (4, 8)),
         (1, (4, 8), (5, 8)), (1, (5, 8), (6, 8)), (1, (6, 8), (6, 9))), id="plant"),
    pytest.param(
        _shared_name_env, "visit(p) & end(h) & end(k) & !visit(x)", 6,
        ((1, (0, 1), (0, 2)), (1, (0, 2), (0, 3)), (1, (0, 3), (1, 3)), (0, (1, 0), (2, 0)),
         (1, (1, 3), (2, 3)), (0, (2, 0), (3, 0))), id="shared-name"),
    pytest.param(
        _fractional_env, "visit(a) & visit(b) & end(c) & !end(b)", Fraction(139, 42),
        ((1, (2, 2), (2, 3)), (0, (0, 0), (1, 0)), (0, (1, 0), (2, 0)), (0, (2, 0), (2, 1)),
         (0, (2, 1), (2, 2)), (0, (2, 2), (2, 3)), (0, (2, 3), (1, 3)), (0, (1, 3), (0, 3)),
         (1, (2, 3), (3, 3))), id="fractional"),
])
def test_demo_query_is_frozen(make_env, text, cost, moves):
    # full witnesses, not only costs: ties between equal-cost runs are
    # broken by the search's neighbour order and heap counter, and these
    # pins catch a change to either
    result = joint_search(make_env(), parse(text))
    assert result.cost == cost
    assert result.moves == moves


def test_empty_formula_needs_no_motion(demo_env):
    result = joint_search(demo_env, parse("true"))
    assert result.cost == 0
    assert result.moves == ()


def test_moves_form_a_valid_satisfying_run(demo_env):
    spec = parse("visit(2) & end(3) & !visit(1)")
    result = joint_search(demo_env, spec)
    paths = _paths_from_moves(demo_env, result.moves)
    assert _satisfied(demo_env, spec, paths)

    by_delta = {delta: demo_env.move_cost[d]
                for d, (_, delta) in enumerate(DIRECTIONS)}
    walked = sum(
        (by_delta[(dst[0] - src[0], dst[1] - src[1])]
         for _, src, dst in result.moves), Fraction(0))
    assert walked == result.cost


def test_cost_is_invariant_under_start_order():
    regions = [{"name": "z", "cells": [[0, 2]], "trajectory_props": ["z"]},
               {"name": "g", "cells": [[2, 2]], "final_props": ["g"]}]
    spec = parse("visit(z) & end(g)")
    one = square_env(3, regions, agents=[(0, 0), (2, 0)])
    two = square_env(3, regions, agents=[(2, 0), (0, 0)])
    assert joint_search(one, spec).cost == joint_search(two, spec).cost


@pytest.mark.parametrize("text", ["visit(999)", "end(1)", "!end(zzz)",
                                  "(visit(1) | visit(missing))"])
def test_unknown_propositions_are_rejected(demo_env, text):
    with pytest.raises(UnknownPropositionError):
        joint_search(demo_env, parse(text))


def test_budget_is_enforced(demo_env):
    with pytest.raises(StateBudgetError) as err:
        joint_search(demo_env, parse("visit(2) & end(3) & !visit(1)"),
                     state_budget=2)
    assert err.value.budget == 2


def test_budget_refuses_a_map_with_more_free_cells_before_listing_them(demo_env, monkeypatch):
    # a 3,000 x 3,000 map has 9,000,000 free cells: past a budget of 1,000
    # the search is refused before a single cell is listed
    spec = parse("visit(2)")
    huge = square_env(3000, [{"name": "2", "cells": [[0, 1]], "trajectory_props": ["2"]}],
                      agents=[(0, 0)])

    def listed(env):
        raise AssertionError("the free cells were listed")

    monkeypatch.setattr(oracle, "free_cells", listed)
    with pytest.raises(StateBudgetError, match="oracle search") as err:
        joint_search(huge, spec, state_budget=1000)
    assert err.value.budget == 1000
    monkeypatch.undo()
    # the demo's 9 free cells fit a budget of 9, which the search then passes
    with pytest.raises(StateBudgetError) as err:
        joint_search(demo_env, parse("visit(2) & end(3) & !visit(1)"), state_budget=9)
    assert err.value.budget == 9


def test_start_inside_forbidden_region_cannot_be_undone():
    env = square_env(3, [{"name": "z", "cells": [[0, 2]],
                          "trajectory_props": ["1"]}],
                     agents=[(0, 2)])
    assert joint_search(env, parse("!visit(1)")) is None


@pytest.mark.parametrize("seed", range(10))
def test_no_satisfying_walk_beats_the_reported_cost(seed):
    rng = random.Random(f"orc:{seed}")
    env, spec = generate_instance(f"orc:{seed}", 3, 3, 2, 2, 3)
    cells = free_cells(env)
    index = {cell: i for i, cell in enumerate(cells)}
    by_delta = {delta: env.move_cost[d]
                for d, (_, delta) in enumerate(DIRECTIONS)}

    oracle = joint_search(env, spec)
    found = 0
    for _ in range(60):
        paths = [[cell] for cell in env.agents]
        cost = Fraction(0)
        for _ in range(rng.randrange(0, 9)):
            path = rng.choice(paths)
            r, c = path[-1]
            options = [(delta, (r + delta[0], c + delta[1]))
                       for delta in by_delta
                       if (r + delta[0], c + delta[1]) in index]
            delta, nxt = rng.choice(options)
            path.append(nxt)
            cost += by_delta[delta]
        if _satisfied(env, spec, [tuple(p) for p in paths]):
            found += 1
            assert oracle is not None
            assert oracle.cost <= cost
    if oracle is None:
        assert found == 0
