"""Grid environments: JSON loading, compilation to movement nets, rendering.

A grid world is a rows x cols board with blocked cells, labeled regions,
and agent start cells. Compilation produces one place per free cell (in
row-major order) and one transition per directed move between 4-adjacent
free cells, ordered by (source place, direction) with the direction order
up, right, down, left. A move's weight is its direction's cost times the
net's scale, the LCM of the denominators of the direction costs its moves
use.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from html import escape
from itertools import repeat
from typing import Dict, Optional, Tuple

from .errors import ValidationError
from .petri import END, NAME_RE, VISIT, Atom, PetriNet

Cell = Tuple[int, int]

# Direction order fixes transition numbering; keep stable.
DIRECTIONS: Tuple[Tuple[str, Tuple[int, int]], ...] = (
    ("up", (-1, 0)),
    ("right", (0, 1)),
    ("down", (1, 0)),
    ("left", (0, -1)),
)

_ENV_KEYS = {"grid", "obstacles", "regions", "agents", "move_cost"}
_REGION_KEYS = {"name", "cells", "trajectory_props", "final_props"}


@dataclass(frozen=True)
class Region:
    name: str
    cells: Tuple[Cell, ...]
    trajectory_props: frozenset
    final_props: frozenset


@dataclass(frozen=True)
class Environment:
    rows: int
    cols: int
    obstacles: frozenset
    regions: Tuple[Region, ...]
    agents: Tuple[Cell, ...]
    move_cost: Tuple[Fraction, Fraction, Fraction, Fraction]  # aligned with DIRECTIONS


@dataclass(frozen=True)
class Plan:
    """Result of a successful planning call.

    ``per_agent_paths`` holds one cell walk per agent, starting at the
    agent's start cell. ``team_sequence`` is the interleaved transition
    firing order in the movement net. ``satisfied_trace`` is the proposition
    word of the run (initial occupancy first, then one atom set per step).
    """

    total_cost: Fraction
    per_agent_paths: Tuple[Tuple[Cell, ...], ...]
    team_sequence: Tuple[int, ...]
    satisfied_trace: Tuple[frozenset, ...]


def load_env(path) -> Environment:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read environment file {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    return parse_env(data, source=str(path))


def parse_env(data, source="<env>") -> Environment:
    """Validate a decoded environment dict; errors name the offending field."""
    if not isinstance(data, dict):
        raise ValidationError(f"{source}: environment must be a JSON object")
    unknown = set(data) - _ENV_KEYS
    if unknown:
        raise ValidationError(f"{source}: unknown keys {sorted(unknown)}")

    grid = data.get("grid")
    if not isinstance(grid, dict) or set(grid) != {"rows", "cols"}:
        raise ValidationError(f"{source}: grid must be an object with rows and cols")
    rows, cols = grid["rows"], grid["cols"]
    for label, v in (("rows", rows), ("cols", cols)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ValidationError(f"{source}: grid.{label} must be a positive integer")

    for key in ("obstacles", "regions"):
        if not isinstance(data.get(key, []), list):
            raise ValidationError(f"{source}: {key} must be a list")

    obstacles = set()
    for i, raw in enumerate(data.get("obstacles", [])):
        obstacles.add(_cell(raw, rows, cols, f"{source}: obstacles[{i}]"))

    regions = []
    seen_names = set()
    for i, raw in enumerate(data.get("regions", [])):
        where = f"{source}: regions[{i}]"
        if not isinstance(raw, dict):
            raise ValidationError(f"{where} must be an object")
        unknown = set(raw) - _REGION_KEYS
        if unknown:
            raise ValidationError(f"{where}: unknown keys {sorted(unknown)}")
        name = raw.get("name")
        if not isinstance(name, str) or not name:
            raise ValidationError(f"{where}: name must be a non-empty string")
        if name in seen_names:
            raise ValidationError(f"{where}: duplicate region name {name!r}")
        seen_names.add(name)
        cells_raw = raw.get("cells")
        if not isinstance(cells_raw, list) or not cells_raw:
            raise ValidationError(f"{where}: cells must be a non-empty list")
        cells = []
        for j, c in enumerate(cells_raw):
            cell = _cell(c, rows, cols, f"{where}.cells[{j}]")
            if cell in obstacles:
                raise ValidationError(f"{where}.cells[{j}]: {list(cell)} is an obstacle")
            cells.append(cell)
        regions.append(Region(
            name=name,
            cells=tuple(sorted(set(cells))),
            trajectory_props=_props(raw.get("trajectory_props", []), f"{where}.trajectory_props"),
            final_props=_props(raw.get("final_props", []), f"{where}.final_props"),
        ))

    agents_raw = data.get("agents")
    if not isinstance(agents_raw, list) or not agents_raw:
        raise ValidationError(f"{source}: agents must be a non-empty list of cells")
    agents = []
    for i, raw in enumerate(agents_raw):
        cell = _cell(raw, rows, cols, f"{source}: agents[{i}]")
        if cell in obstacles:
            raise ValidationError(f"{source}: agents[{i}]: start {list(cell)} is an obstacle")
        agents.append(cell)

    return Environment(
        rows=rows,
        cols=cols,
        obstacles=frozenset(obstacles),
        regions=tuple(regions),
        agents=tuple(agents),
        move_cost=_move_cost(data.get("move_cost", 1), source),
    )


def _cell(raw, rows, cols, where) -> Cell:
    ok = (isinstance(raw, (list, tuple)) and len(raw) == 2
          and all(isinstance(v, int) and not isinstance(v, bool) for v in raw))
    if not ok:
        raise ValidationError(f"{where}: expected a [row, col] pair, got {raw!r}")
    r, c = raw
    if not (0 <= r < rows and 0 <= c < cols):
        raise ValidationError(f"{where}: cell [{r}, {c}] is outside the {rows}x{cols} grid")
    return (r, c)


def _props(raw, where) -> frozenset:
    if not isinstance(raw, list):
        raise ValidationError(f"{where} must be a list of proposition names")
    out = set()
    for v in raw:
        if not isinstance(v, str) or not NAME_RE.fullmatch(v):
            raise ValidationError(f"{where}: bad proposition name {v!r}")
        out.add(v)
    return frozenset(out)


def _one_cost(raw, where) -> Fraction:
    try:
        if isinstance(raw, bool):
            raise ValueError
        if isinstance(raw, int):
            value = Fraction(raw)
        elif isinstance(raw, float):
            value = Fraction(str(raw))
        elif isinstance(raw, str):
            value = Fraction(raw)
        else:
            raise ValueError
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"{where}: cost must be a number or 'p/q' string, got {raw!r}")
    if value <= 0:
        raise ValidationError(f"{where}: cost must be positive")
    return value


def _move_cost(raw, source) -> Tuple[Fraction, ...]:
    if isinstance(raw, dict):
        unknown = set(raw) - {name for name, _ in DIRECTIONS}
        if unknown:
            raise ValidationError(f"{source}: move_cost: unknown directions {sorted(unknown)}")
        return tuple(_one_cost(raw.get(name, 1), f"{source}: move_cost.{name}")
                     for name, _ in DIRECTIONS)
    value = _one_cost(raw, f"{source}: move_cost")
    return (value, value, value, value)


def env_digest(env: Environment) -> str:
    """SHA-256 of ``env`` as canonical JSON, the key of a cache of its
    offline model. It reads only the fields ``parse_env`` sets, none per
    free cell, so it costs the size of the map file, not of the grid."""
    payload = {
        "rows": env.rows,
        "cols": env.cols,
        "obstacles": sorted(env.obstacles),
        "regions": [[r.name, r.cells, sorted(r.trajectory_props), sorted(r.final_props)]
                    for r in env.regions],
        "agents": env.agents,
        "move_cost": [[c.numerator, c.denominator] for c in env.move_cost],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def free_cells(env: Environment) -> Tuple[Cell, ...]:
    """Free cells in row-major order; index = place id of the movement net."""
    return tuple((r, c) for r in range(env.rows) for c in range(env.cols)
                 if (r, c) not in env.obstacles)


def _grid_moves(env: Environment, cells: Tuple[Cell, ...]):
    """The moves between neighbouring ``cells``, ``free_cells(env)``, as
    columns: (place, sources, targets, directions). Move ``t`` goes from
    place ``sources[t]`` to place ``targets[t]`` in direction
    ``DIRECTIONS[directions[t]]``; the moves are listed per source place in
    direction order.

    ``place`` is a row-major array of the grid with a one-cell border of -1
    (no place) around it: cell (r, c) is at ``(r + 1) * (env.cols + 2) + c +
    1``. A neighbour is one index offset away and needs no bounds check.
    """
    width = env.cols + 2
    place = [-1] * ((env.rows + 2) * width)
    for i, (r, c) in enumerate(cells):
        place[(r + 1) * width + c + 1] = i
    offsets = tuple((d, dr * width + dc) for d, (_, (dr, dc)) in enumerate(DIRECTIONS))
    src, dst, direction = [], [], []
    for i, (r, c) in enumerate(cells):
        k = (r + 1) * width + c + 1
        for d, off in offsets:
            q = place[k + off]
            if q >= 0:
                src.append(i)
                dst.append(q)
                direction.append(d)
    return place, src, dst, direction


def cell_labels(env: Environment) -> Dict[Cell, frozenset]:
    """Atoms per cell; overlapping regions union their propositions."""
    out: Dict[Cell, set] = {}
    for region in env.regions:
        for cell in region.cells:
            atoms = out.setdefault(cell, set())
            atoms.update(Atom(VISIT, p) for p in region.trajectory_props)
            atoms.update(Atom(END, p) for p in region.final_props)
    return {cell: frozenset(atoms) for cell, atoms in out.items()}


def env_to_pn(env: Environment, cells: Optional[Tuple[Cell, ...]] = None) -> PetriNet:
    """Compile the grid into its movement net, from the move columns of
    ``_grid_moves``. Its scale is the LCM of the denominators of the
    direction costs its moves use, so a direction no move takes adds
    nothing to it. ``cells`` is ``free_cells(env)``, worked out here when
    the caller does not pass it."""
    if cells is None:
        cells = free_cells(env)
    place, src, dst, direction = _grid_moves(env, cells)
    by_cell = cell_labels(env)
    width = env.cols + 2
    counts = [0] * len(cells)
    for r, c in env.agents:
        p = place[(r + 1) * width + c + 1] if 0 <= r < env.rows and 0 <= c < env.cols else -1
        if p < 0:
            raise ValidationError(f"agent start {[r, c]} is not a free cell")
        counts[p] += 1
    costs = {d: env.move_cost[d] for d in set(direction)}
    scale = math.lcm(*(cost.denominator for cost in costs.values()))
    weight = {d: cost.numerator * (scale // cost.denominator) for d, cost in costs.items()}
    return PetriNet(len(cells), tuple(src), tuple(dst), tuple(map(weight.__getitem__, direction)),
                    ((),) * len(src), scale, tuple(map(by_cell.get, cells, repeat(frozenset()))),
                    tuple(counts))


def cost_text(value: Fraction) -> str:
    return str(cost_json(Fraction(value)))


def cost_json(value: Fraction):
    """A cost's JSON value, for an int or a Fraction: an int when whole, else ``"n/d"``."""
    return value.numerator if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


@lru_cache(maxsize=4096)
def _cell_json(cell: Cell) -> str:
    """The JSON text of one cell, ``[r,c]``, kept for the last 4,096 cells."""
    return f"[{cell[0]},{cell[1]}]"


def plan_json_text(env: Environment, plan: Plan) -> str:
    """The plan as one line of JSON (see README for the schema).

    The bytes are those of ``json.dumps`` of the schema's object with
    ``sort_keys=True`` and ``separators=(",", ":")``, plus a newline; they
    are written here directly, a joined fragment per cell. An atom's text
    is quoted as it is: ``parse_env`` admits only proposition names of
    ``petri.NAME_RE``, ``[A-Za-z0-9_]+``, which JSON writes unescaped.
    """
    ends = {path[-1] for path in plan.per_agent_paths}
    finals = set().union(*(r.final_props for r in env.regions if not ends.isdisjoint(r.cells)))
    visits = [a.name for a in frozenset().union(*plan.satisfied_trace) if a.kind == VISIT]
    # "end(...)" sorts before "visit(...)", and within a kind the texts sort
    # as the names do: ")" sorts before every character of a name
    satisfied = ",".join([*map('"end({})"'.format, sorted(finals)),
                          *map('"visit({})"'.format, sorted(visits))])
    agents = ",".join(f'{{"path":[{",".join(map(_cell_json, path))}],"start":{_cell_json(path[0])}}}'
                      for path in plan.per_agent_paths)
    cost = cost_json(plan.total_cost)
    cost = cost if isinstance(cost, int) else f'"{cost}"'
    return (f'{{"agents":[{agents}],"satisfied_atoms":[{satisfied}],'
            f'"team_sequence":[{",".join(map(str, plan.team_sequence))}],"total_cost":{cost}}}\n')


_PALETTE = ("#4c78a8", "#f58518", "#54a24b", "#e45756", "#72b7b2",
            "#b279a2", "#eeca3b", "#9d755d", "#ff9da6", "#79706e")


def render(env: Environment, plan: Optional[Plan] = None, fmt: str = "ascii") -> str:
    if plan is not None:
        _check_plan(env, plan)
    if fmt == "ascii":
        return _render_ascii(env, plan)
    if fmt == "svg":
        return _render_svg(env, plan)
    raise ValueError(f"unknown render format {fmt!r}")


def _check_plan(env: Environment, plan: Plan) -> None:
    if len(plan.per_agent_paths) != len(env.agents):
        raise ValidationError("plan has a different agent count than the environment")
    for i, path in enumerate(plan.per_agent_paths):
        if not path:
            raise ValidationError(f"agent {i}: empty path")
        if path[0] != env.agents[i]:
            raise ValidationError(f"agent {i}: path does not start at its start cell")
        for r, c in path:
            if not (0 <= r < env.rows and 0 <= c < env.cols) or (r, c) in env.obstacles:
                raise ValidationError(f"agent {i}: path leaves the free grid at [{r}, {c}]")


def _base_glyphs(env: Environment):
    glyphs = [["." for _ in range(env.cols)] for _ in range(env.rows)]
    for i, region in enumerate(env.regions):
        mark = str((i + 1) % 10)
        for r, c in region.cells:
            if glyphs[r][c] == ".":
                glyphs[r][c] = mark
    for i, (r, c) in enumerate(env.agents):
        glyphs[r][c] = chr(ord("a") + i % 26)
    for r, c in env.obstacles:
        glyphs[r][c] = "#"
    return glyphs


def _render_ascii(env: Environment, plan: Optional[Plan]) -> str:
    lines = ["".join(row) for row in _base_glyphs(env)]
    if plan is None:
        return "\n".join(lines) + "\n"
    lines.append("")
    lines.append(f"cost={cost_text(plan.total_cost)}")
    for i, path in enumerate(plan.per_agent_paths):
        overlay = [["#" if (r, c) in env.obstacles else "."
                    for c in range(env.cols)] for r in range(env.rows)]
        for r, c in path:
            overlay[r][c] = "*"
        sr, sc = path[0]
        er, ec = path[-1]
        overlay[sr][sc] = "S"
        overlay[er][ec] = "E"
        lines.append("")
        lines.append(f"agent {i + 1}: " + " -> ".join(f"({r},{c})" for r, c in path))
        lines.extend("".join(row) for row in overlay)
    return "\n".join(lines) + "\n"


def _render_svg(env: Environment, plan: Optional[Plan]) -> str:
    side = 32
    width = env.cols * side
    height = env.rows * side + (20 if plan is not None else 0)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for i, region in enumerate(env.regions):
        color = _PALETTE[i % len(_PALETTE)]
        for r, c in region.cells:
            parts.append(f'<rect x="{c * side}" y="{r * side}" width="{side}" height="{side}" '
                         f'fill="{color}" fill-opacity="0.45"/>')
        r0, c0 = region.cells[0]
        parts.append(f'<text x="{c0 * side + 3}" y="{r0 * side + 12}" font-size="9" '
                     f'fill="#333333">{escape(region.name, quote=False)}</text>')
    for r, c in sorted(env.obstacles):
        parts.append(f'<rect x="{c * side}" y="{r * side}" width="{side}" height="{side}" '
                     f'fill="#3a3a3a"/>')
    for i in range(env.rows + 1):
        parts.append(f'<line x1="0" y1="{i * side}" x2="{env.cols * side}" y2="{i * side}" '
                     f'stroke="#999999" stroke-width="0.5"/>')
    for j in range(env.cols + 1):
        parts.append(f'<line x1="{j * side}" y1="0" x2="{j * side}" y2="{env.rows * side}" '
                     f'stroke="#999999" stroke-width="0.5"/>')
    for i, (r, c) in enumerate(env.agents):
        color = _PALETTE[(i + 3) % len(_PALETTE)]
        cx, cy = c * side + side // 2, r * side + side // 2
        parts.append(f'<circle cx="{cx}" cy="{cy}" r="{side // 4}" fill="{color}" '
                     f'stroke="#000000" stroke-width="1"/>')
        parts.append(f'<text x="{cx - 3}" y="{cy + 4}" font-size="10" fill="#ffffff">{i + 1}</text>')
    if plan is not None:
        for i, path in enumerate(plan.per_agent_paths):
            color = _PALETTE[(i + 3) % len(_PALETTE)]
            offset = (i % 4) * 3 - 4
            points = " ".join(
                f"{c * side + side // 2 + offset},{r * side + side // 2 + offset}"
                for r, c in path)
            parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                         f'stroke-width="2.5" stroke-linejoin="round"/>')
        parts.append(f'<text x="4" y="{env.rows * side + 14}" font-size="11" '
                     f'fill="#333333">cost={cost_text(plan.total_cost)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
