"""Seeded random instance generation and a small benchmark harness.

Instances are drawn from a deterministic stream keyed by ``(seed, mode,
sweep value, repetition)``, so a run is reproducible from its config alone
and any single row can be regenerated without rerunning the sweep.
"""

from __future__ import annotations

import csv
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .basis_graph import DEFAULT_STATE_CAP
from .errors import TampError, ValidationError
from .grid import Environment, Plan, cost_text, parse_env
from .oracle import joint_search
from .petri import END, VISIT, Atom
from .planner import build_offline, plan
from .taskspec import BooleanSpec, format_spec

MODES = ("agents", "size", "props")

# shape of the drawn formulas: atoms per clause, forbidden atoms per formula
CLAUSE_MAX_WIDTH = 3
MAX_FORBIDDEN = 2

CSV_COLUMNS = (
    "mode",
    "param",
    "rep",
    "rows",
    "cols",
    "k",
    "A",
    "spec",
    "feasible",
    "plan_cost",
    "basis_markings",
    "offline_s",
    "online_s",
    "oracle_cost",
    "oracle_match",
    "error",
)


@dataclass
class BenchConfig:
    """What to sweep and how many instances to draw per sweep value."""

    mode: str = "size"
    seed: int = 0
    sizes: Tuple[int, ...] = (20,)
    agent_counts: Tuple[int, ...] = (3,)
    prop_range: Tuple[int, int] = (2, 10)
    repetitions: int = 20
    state_cap: int = DEFAULT_STATE_CAP
    oracle_budget: int = 0

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValidationError(f"bench mode must be one of {MODES}, got {self.mode!r}")
        if self.repetitions < 1:
            raise ValidationError("repetitions must be at least 1")
        if not self.sizes or any(s < 1 for s in self.sizes):
            raise ValidationError("sizes must be a non-empty list of positive ints")
        if not self.agent_counts or any(k < 1 for k in self.agent_counts):
            raise ValidationError("agent counts must be a non-empty list of positive ints")
        lo, hi = self.prop_range
        if lo < 1 or hi < lo:
            raise ValidationError(f"prop range must satisfy 1 <= lo <= hi, got {lo}..{hi}")
        if self.oracle_budget < 0:
            raise ValidationError(
                f"oracle budget must be 0 (off) or positive, got {self.oracle_budget}")


def sweep_values(cfg: BenchConfig) -> Tuple[int, ...]:
    """The parameter values the configured mode iterates over."""
    if cfg.mode == "agents":
        return tuple(cfg.agent_counts)
    if cfg.mode == "size":
        return tuple(cfg.sizes)
    lo, hi = cfg.prop_range
    return tuple(range(lo, hi + 1))


def total_draws(cfg: BenchConfig) -> int:
    return len(sweep_values(cfg)) * cfg.repetitions


def generate_instance(seed_key: str, rows: int, cols: int, agents: int,
                      prop_lo: int, prop_hi: int) -> Tuple[Environment, BooleanSpec]:
    """Draw one random environment plus formula from a string-keyed RNG.

    Labeled cells are distinct single-cell regions named "1", "2", ...; each
    carries a trajectory and a final proposition of the same name, so the
    formula generator can mix requirement kinds freely. Agent starts are
    drawn uniformly with replacement over all cells.
    """
    rng = random.Random(seed_key)
    all_cells = [(r, c) for r in range(rows) for c in range(cols)]
    n_labels = rng.randint(prop_lo, prop_hi)
    if n_labels > len(all_cells):
        raise ValidationError(
            f"cannot place {n_labels} labeled cells on a {rows}x{cols} grid"
        )
    labeled = rng.sample(all_cells, n_labels)
    names = [str(i + 1) for i in range(n_labels)]
    regions = [
        {
            "name": f"R{name}",
            "cells": [list(cell)],
            "trajectory_props": [name],
            "final_props": [name],
        }
        for name, cell in zip(names, labeled)
    ]
    starts = [list(rng.choice(all_cells)) for _ in range(agents)]
    env = parse_env(
        {
            "grid": {"rows": rows, "cols": cols},
            "obstacles": [],
            "regions": regions,
            "agents": starts,
            "move_cost": 1,
        }
    )

    n_traj = rng.randint(0, 2)
    n_final = rng.randint(0, 2)
    if n_traj == 0 and n_final == 0:
        n_traj = 1

    def draw_clause() -> frozenset:
        width = rng.randint(1, min(CLAUSE_MAX_WIDTH, n_labels))
        return frozenset(rng.sample(names, width))

    trajectory = tuple(draw_clause() for _ in range(n_traj))
    final = tuple(draw_clause() for _ in range(n_final))
    used_visit = set().union(*trajectory) if trajectory else set()
    used_end = set().union(*final) if final else set()

    forbidden: set = set()
    for _ in range(rng.randint(0, MAX_FORBIDDEN)):
        kind = rng.choice((VISIT, END))
        used = used_visit if kind == VISIT else used_end
        taken = {a.name for a in forbidden if a.kind == kind}
        pool = sorted(set(names) - used - taken, key=int)
        if pool:
            forbidden.add(Atom(kind, rng.choice(pool)))

    spec = BooleanSpec(trajectory, final, frozenset(forbidden))
    return env, spec


def random_instance(cfg: BenchConfig, draw: int) -> Tuple[Environment, BooleanSpec, Dict[str, int]]:
    """Instance number ``draw`` of the sweep described by ``cfg``."""
    cfg.validate()
    values = sweep_values(cfg)
    if not 0 <= draw < total_draws(cfg):
        raise ValidationError(f"draw index {draw} out of range for {total_draws(cfg)} draws")
    param = values[draw // cfg.repetitions]
    rep = draw % cfg.repetitions
    lo, hi = cfg.prop_range
    if cfg.mode == "agents":
        rows = cols = cfg.sizes[0]
        k = param
    elif cfg.mode == "size":
        rows = cols = param
        k = cfg.agent_counts[0]
    else:
        rows = cols = cfg.sizes[0]
        k = cfg.agent_counts[0]
        lo = hi = param
    seed_key = f"{cfg.seed}:{cfg.mode}:{param}:{rep}"
    env, spec = generate_instance(seed_key, rows, cols, k, lo, hi)
    return env, spec, {"param": param, "rep": rep}


def _run_one(cfg: BenchConfig, env: Environment, spec: BooleanSpec) -> Dict[str, object]:
    row: Dict[str, object] = dict.fromkeys(CSV_COLUMNS, "")
    row.update(rows=env.rows, cols=env.cols, k=len(env.agents), A=len(env.regions),
               spec=format_spec(spec))
    try:
        t0 = time.perf_counter()
        offline = build_offline(env, state_cap=cfg.state_cap)
        t1 = time.perf_counter()
        result = plan(env, spec, offline)
        t2 = time.perf_counter()
    except TampError as exc:
        row["error"] = str(exc)
        return row
    row["offline_s"] = f"{t1 - t0:.6f}"
    row["online_s"] = f"{t2 - t1:.6f}"
    row["basis_markings"] = len(offline.graph)
    feasible = isinstance(result, Plan)
    row["feasible"] = "yes" if feasible else "no"
    if feasible:
        row["plan_cost"] = cost_text(result.total_cost)
    if cfg.oracle_budget > 0:
        try:
            reference = joint_search(env, spec, state_budget=cfg.oracle_budget)
        except TampError as exc:
            row["oracle_cost"] = "budget"
            row["error"] = str(exc)
            return row
        if reference is None:
            row["oracle_cost"] = "infeasible"
            row["oracle_match"] = "yes" if not feasible else "no"
        else:
            row["oracle_cost"] = cost_text(reference.cost)
            row["oracle_match"] = (
                "yes" if feasible and result.total_cost == reference.cost else "no"
            )
    return row


def _mean_row(mode: str, param: int, group: Sequence[Dict[str, object]]) -> Dict[str, object]:
    row: Dict[str, object] = {col: "" for col in CSV_COLUMNS}
    row["mode"] = mode
    row["param"] = param
    row["rep"] = "mean"
    ok = [g for g in group if not g["error"]]
    row["error"] = f"{len(group) - len(ok)} errored" if len(ok) < len(group) else ""
    if not ok:
        return row

    def mean_of(key: str, rows_in: Sequence[Dict[str, object]]) -> str:
        vals = [float(r[key]) for r in rows_in if r[key] != ""]
        return f"{sum(vals) / len(vals):.6f}" if vals else ""

    feasible_rows = [g for g in ok if g["feasible"] == "yes"]
    row["feasible"] = f"{len(feasible_rows)}/{len(ok)}"
    costs = [Fraction(str(g["plan_cost"])) for g in feasible_rows]
    if costs:
        row["plan_cost"] = f"{float(sum(costs) / len(costs)):.3f}"
    row["basis_markings"] = mean_of("basis_markings", ok)
    row["offline_s"] = mean_of("offline_s", ok)
    row["online_s"] = mean_of("online_s", ok)
    matches = [g for g in ok if g["oracle_match"] != ""]
    if matches:
        agreeing = sum(1 for g in matches if g["oracle_match"] == "yes")
        row["oracle_match"] = f"{agreeing}/{len(matches)}"
    return row


def run_bench(cfg: BenchConfig, out_path: str) -> List[Dict[str, object]]:
    """Run the configured sweep, write a CSV to ``out_path``, return the rows.

    Per-instance rows are exact; the ``rep=mean`` summary appended after each
    sweep value reports float averages over the non-errored instances.
    """
    cfg.validate()
    values = sweep_values(cfg)
    out_rows: List[Dict[str, object]] = []
    for vi, param in enumerate(values):
        group: List[Dict[str, object]] = []
        for rep in range(cfg.repetitions):
            env, spec, _ = random_instance(cfg, vi * cfg.repetitions + rep)
            row = _run_one(cfg, env, spec)
            row.update(mode=cfg.mode, param=param, rep=rep)
            group.append(row)
            out_rows.append(row)
        out_rows.append(_mean_row(cfg.mode, param, group))
    with open(out_path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(CSV_COLUMNS))
        writer.writeheader()
        for row in out_rows:
            writer.writerow(row)
    return out_rows
