import dataclasses
import json
import random
import xml.dom.minidom
from fractions import Fraction

import pytest

from tampnet import ValidationError, cost_text, load_env, parse_env, plan
from tampnet.data import fixture_path
from tampnet.grid import (DIRECTIONS, cell_labels, cost_json, env_to_pn,
                          free_cells, plan_json_text, render)
from tampnet.petri import Atom, END, VISIT, PetriNet

from conftest import hand_net, random_env, square_env
from test_golden import REDUCE_MAP, fractional_env


def test_demo_net_shape(demo_env):
    net = env_to_pn(demo_env)
    assert net.num_places == 9
    assert net.num_transitions == 24
    assert net.initial_marking == (1, 0, 0, 0, 0, 0, 0, 1, 0)
    assert net.scale == 1 and set(net.weights) == {1}


def test_center_obstacle_net_shape():
    env = square_env(3, [{"name": "z", "cells": [[0, 2]], "final_props": ["1"]}],
                     agents=[(0, 0)], obstacles=[(1, 1)])
    net = env_to_pn(env)
    assert net.num_places == 8
    assert net.num_transitions == 16


def test_free_cells_row_major(demo_env):
    assert free_cells(demo_env) == tuple((r, c) for r in range(3) for c in range(3))


def _direction(net, cells, t):
    """Index into DIRECTIONS of move ``t``, from its source and target cells."""
    (r, c), (r2, c2) = cells[net.sources[t]], cells[net.targets[t]]
    return [delta for _, delta in DIRECTIONS].index((r2 - r, c2 - c))


def test_moves_follow_direction_table(demo_env):
    cells = free_cells(demo_env)
    net = env_to_pn(demo_env, cells)
    lookup = {cell: i for i, cell in enumerate(cells)}
    order = []
    for t in range(net.num_transitions):
        src, dst = net.sources[t], net.targets[t]
        d = _direction(net, cells, t)  # raises unless the step is a table entry
        (dr, dc) = DIRECTIONS[d][1]
        r, c = cells[src]
        assert lookup[(r + dr, c + dc)] == dst
        order.append((src, d))
    # one move per free neighbour, listed per source place in direction order
    assert order == sorted(set(order))
    assert len(order) == sum((r + dr, c + dc) in lookup
                             for r, c in cells for _, (dr, dc) in DIRECTIONS)


def test_labels_are_region_unions(demo_env):
    labels = cell_labels(demo_env)
    assert labels[(0, 2)] == {Atom(VISIT, "1"), Atom(VISIT, "2")}
    assert labels[(2, 0)] == {Atom(VISIT, "2")}
    assert labels[(2, 2)] == {Atom(END, "3")}
    assert (0, 0) not in labels


def test_env_to_pn_is_deterministic(demo_env):
    assert env_to_pn(demo_env) == env_to_pn(demo_env)


def generic_net(env) -> PetriNet:
    """The movement net of ``env`` made by ``hand_net`` from per-move arc
    lists: one move per free neighbour of each free cell, listed per
    source place in direction order, its weights counted at the LCM of
    the denominators of the moves' costs."""
    cells = free_cells(env)
    place = {cell: i for i, cell in enumerate(cells)}
    moves = [(p, place[(r + dr, c + dc)], cost)
             for p, (r, c) in enumerate(cells)
             for (_, (dr, dc)), cost in zip(DIRECTIONS, env.move_cost)
             if (r + dr, c + dc) in place]
    labels = cell_labels(env)
    marking = [0] * len(cells)
    for cell in env.agents:
        marking[place[cell]] += 1
    return hand_net(len(cells), [((p,), (q,), cost) for p, q, cost in moves],
                    [labels.get(cell, frozenset()) for cell in cells], marking)


def obstacle_env(side=60, share=0.2):
    """A seeded ``side`` x ``side`` map with ``share`` of its cells blocked,
    six one-cell regions, three agents and fractional per-direction costs."""
    rng = random.Random(f"moves:{side}")
    cells = [(r, c) for r in range(side) for c in range(side)]
    rng.shuffle(cells)
    blocked = int(share * len(cells))
    obstacles, free = cells[:blocked], cells[blocked:]
    return parse_env({
        "grid": {"rows": side, "cols": side},
        "obstacles": [list(cell) for cell in obstacles],
        "regions": [{"name": f"R{k}", "cells": [list(free[k])], "trajectory_props": [f"v{k}"],
                     "final_props": [f"e{k}"]} for k in range(6)],
        "agents": [list(cell) for cell in free[6:9]],
        "move_cost": {"up": "3/5", "right": "2/9", "down": "5/4", "left": "7/6"},
    })


def corridor_env():
    """A 1x7 corridor: its up and down costs, with denominators 11 and 13,
    belong to moves that never occur."""
    return parse_env({"grid": {"rows": 1, "cols": 7}, "agents": [[0, 0], [0, 6]],
                      "regions": [{"name": "m", "cells": [[0, 3]], "final_props": ["m"]}],
                      "move_cost": {"up": "1/11", "right": "1/2", "down": "4/13", "left": "2/3"}})


def _random_envs():
    rng = random.Random("moves:random")
    return [random_env(rng) for _ in range(200)]


def degenerate_env(rows, cols, obstacles=(), agents=((0, 0),)):
    """A ``rows`` x ``cols`` map with a labeled first agent cell and a
    cost per direction, each with its own denominator."""
    return parse_env({
        "grid": {"rows": rows, "cols": cols},
        "obstacles": [list(cell) for cell in obstacles],
        "regions": [{"name": "a", "cells": [list(agents[0])], "trajectory_props": ["a"]}],
        "agents": [list(cell) for cell in agents],
        "move_cost": {"up": "1/2", "right": "2/3", "down": "3/5", "left": "4/7"},
    })


def _degenerate_envs():
    walls = [(r, c) for r in range(5) for c in range(6) if r in (0, 4) or c in (0, 5)]
    return [
        degenerate_env(1, 1),
        degenerate_env(5, 1, agents=((0, 0), (4, 0))),
        degenerate_env(1, 5, agents=((0, 2),)),
        # every free cell isolated: a net with no moves at all
        degenerate_env(3, 3, obstacles=[(0, 1), (1, 0), (1, 2), (2, 1)],
                       agents=((0, 0), (1, 1), (2, 2))),
        degenerate_env(3, 4, obstacles=[(r, c) for r in range(3) for c in range(4)
                                        if (r + c) % 2], agents=((2, 2),)),
        # every border cell blocked
        degenerate_env(5, 6, obstacles=walls, agents=((1, 1), (3, 4))),
    ]


@pytest.mark.parametrize("envs", [
    pytest.param(lambda: [load_env(fixture_path("plant_8x11.json"))], id="plant"),
    pytest.param(lambda: [load_env(REDUCE_MAP)], id="reduce_44x44"),
    pytest.param(lambda: [fractional_env()], id="fractional"),
    pytest.param(lambda: [obstacle_env()], id="60x60"),
    pytest.param(lambda: [corridor_env()], id="corridor"),
    pytest.param(_random_envs, id="random"),
    pytest.param(_degenerate_envs, id="degenerate"),
])
def test_the_movement_net_equals_the_generic_construction(envs):
    for env in envs():
        net, reference = env_to_pn(env), generic_net(env)
        # field by field, move numbering and scale included: team_sequence
        # lists these ids, and every net of the model keeps this scale
        for f in dataclasses.fields(PetriNet):
            assert getattr(net, f.name) == getattr(reference, f.name), f.name


def test_the_scale_leaves_out_the_costs_of_moves_that_never_occur():
    # the corridor moves only right, at 1/2, and left, at 2/3: the end
    # cells have one move each, the five between them a right then a left
    net = env_to_pn(corridor_env())
    assert net.scale == 6
    assert net.weights == (3, *(3, 4) * 5, 4)


@pytest.mark.parametrize("start", [(1, 1), (0, 3), (3, 0), (-1, 0)])
def test_env_to_pn_refuses_an_agent_off_the_free_cells(start):
    # an environment made without load_env is not validated: a start on an
    # obstacle or off the grid must not land on some other place
    env = square_env(3, [], agents=[(0, 0)], obstacles=[(1, 1)])
    with pytest.raises(ValidationError, match="not a free cell"):
        env_to_pn(dataclasses.replace(env, agents=(start,)))


@pytest.mark.parametrize("patch, fragment", [
    ({"grid": {"rows": 0, "cols": 3}}, "rows"),
    ({"agents": []}, "agents"),
    ({"agents": [[1, 1]], "obstacles": [[1, 1]]}, "obstacle"),
    ({"obstacles": [[9, 9]]}, "outside"),
    ({"surprise": 1}, "surprise"),
    ({"obstacles": 5}, "obstacles must be a list"),
    ({"obstacles": None}, "obstacles must be a list"),
    ({"obstacles": {}}, "obstacles must be a list"),
    ({"regions": 5}, "regions must be a list"),
    ({"regions": None}, "regions must be a list"),
    ({"regions": {}}, "regions must be a list"),
    ({"grid": [3, 3]}, "grid must be an object"),
    ({"regions": [5]}, "regions[0] must be an object"),
    ({"regions": [{"name": "", "cells": [[0, 0]]}]}, "name must be a non-empty string"),
    ({"regions": [{"name": 5, "cells": [[0, 0]]}]}, "name must be a non-empty string"),
    ({"obstacles": [[0, 0]]}, "regions[0].cells[0]: [0, 0] is an obstacle"),
    ({"regions": [{"name": "z", "cells": [[0, 0]], "trajectory_props": "a"}]},
     "trajectory_props must be a list"),
    ({"move_cost": [1, 1, 1, 1]}, "move_cost: cost must be a number"),
    ({"move_cost": None}, "move_cost: cost must be a number"),
    # a malformed obstacle after two good ones is named by its index
    *(({"obstacles": [[1, 0], [1, 2], bad]}, f"<env>: obstacles[2]: {text}") for bad, text in [
        ([True, 0], "expected a [row, col] pair, got [True, 0]"),
        ([0, 1.0], "expected a [row, col] pair, got [0, 1.0]"),
        (["0", 1], "expected a [row, col] pair, got ['0', 1]"),
        ([0], "expected a [row, col] pair, got [0]"),
        ([0, 1, 2], "expected a [row, col] pair, got [0, 1, 2]"),
        ({}, "expected a [row, col] pair, got {}"),
        (None, "expected a [row, col] pair, got None"),
        ([-1, 0], "cell [-1, 0] is outside the 3x3 grid"),
        ([0, 3], "cell [0, 3] is outside the 3x3 grid"),
    ]),
])
def test_parse_env_rejects_bad_documents(patch, fragment):
    doc = {
        "grid": {"rows": 3, "cols": 3},
        "obstacles": [],
        "regions": [{"name": "z", "cells": [[0, 0]], "final_props": ["1"]}],
        "agents": [[2, 2]],
        "move_cost": 1,
    }
    doc.update(patch)
    with pytest.raises(ValidationError) as err:
        parse_env(doc)
    assert fragment in str(err.value)


def test_parse_env_accepts_obstacles_given_as_tuples():
    doc = {"grid": {"rows": 3, "cols": 3}, "obstacles": [(1, 0), [1, 2], (0, 1)],
           "agents": [[2, 2]]}
    assert parse_env(doc).obstacles == {(1, 0), (1, 2), (0, 1)}
    assert parse_env(dict(doc, obstacles=[(1, 0), (1, 0)])).obstacles == {(1, 0)}


@pytest.mark.parametrize("doc", [[], "grid", None])
def test_parse_env_rejects_a_document_that_is_not_an_object(doc):
    with pytest.raises(ValidationError, match="environment must be a JSON object"):
        parse_env(doc)


def test_parse_env_rejects_bad_regions():
    base = {
        "grid": {"rows": 3, "cols": 3},
        "agents": [[2, 2]],
    }
    cases = [
        [{"name": "z", "cells": [[0, 0]], "final_props": ["1"]},
         {"name": "z", "cells": [[0, 1]], "final_props": ["2"]}],
        [{"name": "z", "cells": [[0, 0]], "trajectory_props": ["bad name"]}],
        [{"name": "z", "cells": [[0]], "final_props": ["1"]}],
        [{"name": "z", "cells": [], "final_props": ["1"]}],
        [{"name": "z", "cells": [[0, 0]], "final_props": ["1"], "color": "red"}],
    ]
    for regions in cases:
        with pytest.raises(ValidationError):
            parse_env(dict(base, regions=regions))


@pytest.mark.parametrize("key", ["trajectory_props", "final_props"])
@pytest.mark.parametrize("name", ["a\n", "\na", "a b", "a\t", ""])
def test_parse_env_rejects_a_proposition_name_with_other_characters(key, name):
    # a name must be [A-Za-z0-9_]+ to its end: a trailing newline is not
    # allowed either, as no formula could name it
    doc = {"grid": {"rows": 3, "cols": 3}, "agents": [[2, 2]],
           "regions": [{"name": "z", "cells": [[0, 0]], key: [name]}]}
    with pytest.raises(ValidationError, match="bad proposition name"):
        parse_env(doc)


@pytest.mark.parametrize("cost, expected", [
    (1, (1, 1, 1, 1)),
    ("3/2", (Fraction(3, 2),) * 4),
    (0.5, (Fraction(1, 2),) * 4),
    ({"up": 1, "right": 2, "down": "1/2", "left": 4},
     (1, 2, Fraction(1, 2), 4)),
])
def test_move_cost_forms(cost, expected):
    env = square_env(2, [{"name": "z", "cells": [[0, 0]], "final_props": ["1"]}],
                     agents=[(1, 1)], move_cost=cost)
    assert env.move_cost == tuple(Fraction(x) for x in expected)
    cells = free_cells(env)
    net = env_to_pn(env, cells)
    for t in range(net.num_transitions):
        assert Fraction(net.weights[t], net.scale) == Fraction(expected[_direction(net, cells, t)])


def test_move_cost_rejects_nonpositive_and_junk():
    region = [{"name": "z", "cells": [[0, 0]], "final_props": ["1"]}]
    for bad in (0, -1, "0/2", "x", True, {"up": 1, "right": 1, "down": 1,
                                          "left": 1, "diag": 1}):
        with pytest.raises(ValidationError):
            square_env(2, region, agents=[(1, 1)], move_cost=bad)


def test_cost_text_and_json():
    assert cost_text(Fraction(3)) == "3"
    assert cost_text(Fraction(7, 2)) == "7/2"
    assert cost_json(Fraction(3)) == 3
    assert cost_json(Fraction(7, 2)) == "7/2"


def test_plan_json_schema(demo_env):
    result = plan(demo_env, "visit(2) & end(3) & !visit(1)")
    doc = json.loads(plan_json_text(demo_env, result))
    assert sorted(doc) == ["agents", "satisfied_atoms", "team_sequence", "total_cost"]
    assert doc["total_cost"] == 3
    assert doc["satisfied_atoms"] == ["end(3)", "visit(2)"]
    assert len(doc["agents"]) == 2
    for agent in doc["agents"]:
        assert agent["path"][0] == agent["start"]
    ends = sorted(tuple(a["path"][-1]) for a in doc["agents"])
    assert (2, 2) in ends


def test_render_ascii_base_and_overlay(demo_env):
    base = render(demo_env)
    rows = base.splitlines()
    assert rows[0] == "a.1"
    assert rows[2] == "2b3"

    result = plan(demo_env, "visit(2) & end(3) & !visit(1)")
    art = render(demo_env, result)
    assert "cost=3" in art
    assert "agent 2: (2,1) -> (2,0) -> (2,1) -> (2,2)" in art
    assert "S" in art and "E" in art


def test_render_svg_is_wellformed_xml(demo_env):
    result = plan(demo_env, "visit(2) & end(3) & !visit(1)")
    doc = xml.dom.minidom.parseString(render(demo_env, result, "svg"))
    assert doc.documentElement.tagName == "svg"
    assert doc.documentElement.getElementsByTagName("polyline")


def test_render_svg_escapes_region_names():
    # text content escapes &, < and > and leaves both quote marks as they are
    env = square_env(2, [{"name": "a&b<c>d\"e'f", "cells": [[0, 1]], "final_props": ["x"]}],
                     agents=[(0, 0)])
    svg = render(env, None, "svg")
    assert '<text x="35" y="12" font-size="9" fill="#333333">a&amp;b&lt;c&gt;d"e\'f</text>' in svg


def _walled_plan():
    """A 3x3 map with an obstacle in the middle, and the plan of its one
    agent's walk from (0, 0) along the top row to (0, 2)."""
    env = square_env(3, [{"name": "z", "cells": [[0, 2]], "final_props": ["1"]}],
                     agents=[(0, 0)], obstacles=[(1, 1)])
    return env, plan(env, "end(1)")


def test_render_draws_obstacles():
    env, result = _walled_plan()
    assert render(env, result).splitlines() == [
        "a.1", ".#.", "...", "", "cost=2", "", "agent 1: (0,0) -> (0,1) -> (0,2)",
        "S*E", ".#.", "..."]
    svg = render(env, result, "svg")
    xml.dom.minidom.parseString(svg)
    assert '<rect x="32" y="32" width="32" height="32" fill="#3a3a3a"/>' in svg


# (an edit of the walled plan's one path, the start of render's refusal)
MISFIT_PATHS = [
    (lambda path: (path, path), "plan has a different agent count"),
    (lambda path: ((),), "agent 0: empty path"),
    (lambda path: (((1, 0),) + path[1:],), "agent 0: path does not start at its start cell"),
    (lambda path: (path + ((3, 2),),), "agent 0: path leaves the free grid at [3, 2]"),
    (lambda path: (path[:2] + ((1, 1),),), "agent 0: path leaves the free grid at [1, 1]"),
]


@pytest.mark.parametrize("edit, message", MISFIT_PATHS,
                         ids=["agents", "empty", "start", "off-grid", "obstacle"])
def test_render_refuses_a_plan_that_does_not_fit_the_map(edit, message):
    env, result = _walled_plan()
    misfit = dataclasses.replace(result, per_agent_paths=edit(result.per_agent_paths[0]))
    for fmt in ("ascii", "svg"):
        with pytest.raises(ValidationError) as err:
            render(env, misfit, fmt)
        assert str(err.value).startswith(message)


def test_render_rejects_unknown_format(demo_env):
    with pytest.raises(ValueError):
        render(demo_env, None, "png")
