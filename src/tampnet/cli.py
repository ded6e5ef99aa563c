"""Command line entry point.

Exit codes: 0 success, 2 task infeasible, 1 anything else (bad usage,
invalid input files, budget exhaustion, cache mismatch).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .basis_graph import DEFAULT_STATE_CAP
from .bench import MODES, BenchConfig, run_bench
from .cache import load_offline, save_offline
from .errors import TampError, ValidationError
from .grid import cost_json, load_env, plan_json_text, render
from .oracle import DEFAULT_ORACLE_BUDGET, joint_search
from .planner import Infeasible, build_offline, plan
from .taskspec import parse

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; we reserve 2 for
    infeasible tasks, so usage problems are re-raised and mapped to 1."""

    def error(self, message):
        raise _UsageError(message)


def _positive(value: int, name: str) -> int:
    if value < 1:
        raise _UsageError(f"{name} must be positive, got {value}")
    return value


def _read_spec(args) -> str:
    if args.spec is not None:
        return args.spec
    try:
        with open(args.spec_file, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{args.spec_file} is not UTF-8 text: {exc}") from exc


def _build_parser() -> _Parser:
    parser = _Parser(prog="tampnet",
                     description="Grid multi-agent route planning against "
                                 "boolean visit/end formulas.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    p_build = sub.add_parser("build", help="precompute and cache the reachability index for an environment")
    p_plan = sub.add_parser("plan", help="plan routes satisfying a formula")
    p_oracle = sub.add_parser("oracle", help="exact joint search over agent configurations (slow; for cross-checking)")
    p_bench = sub.add_parser("bench", help="run a seeded random-instance sweep and write a CSV")

    for p in (p_build, p_plan, p_oracle):
        p.add_argument("--env", required=True, help="environment JSON file")
    for p in (p_plan, p_oracle):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--spec", help="formula text, e.g. 'visit(2) & end(3) & !visit(1)'")
        group.add_argument("--spec-file", help="file containing the formula")

    p_build.add_argument("--out", required=True, help="cache file to write")
    p_build.set_defaults(func=_cmd_build)

    p_plan.add_argument("--cache", help="reachability cache: loaded if present, else built and written here")
    p_plan.add_argument("--out", help="write the plan JSON here instead of stdout")
    p_plan.add_argument("--render", choices=("ascii", "svg"), help="also render the plan")
    p_plan.add_argument("--render-out", help="file for the rendering (required with --render, and only with it)")
    p_plan.set_defaults(func=_cmd_plan)

    p_oracle.add_argument("--budget", type=int, default=DEFAULT_ORACLE_BUDGET,
                          help=f"abort after this many explored states (default {DEFAULT_ORACLE_BUDGET})")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_bench.add_argument("--mode", choices=MODES, required=True,
                         help="which parameter the sweep varies")
    p_bench.add_argument("--out", required=True, help="CSV file to write")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--sizes", type=int, nargs="+", default=[20],
                         help="square grid sizes (the first is used when mode is not 'size')")
    p_bench.add_argument("--agents", type=int, nargs="+", default=[3],
                         help="agent counts (the first is used when mode is not 'agents')")
    p_bench.add_argument("--props", type=int, nargs=2, default=[2, 10], metavar=("LO", "HI"),
                         help="labeled-cell count range")
    p_bench.add_argument("--reps", type=int, default=20, help="instances per sweep value")
    p_bench.add_argument("--oracle-budget", type=int, default=0,
                         help="cross-check each instance against the exact search (0 = off)")
    p_bench.set_defaults(func=_cmd_bench)

    # added last, so each command's help lists it last
    for p in (p_build, p_plan, p_bench):
        p.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP,
                       help=f"abort after this many explored markings (default {DEFAULT_STATE_CAP})")

    return parser


def _cmd_build(args) -> int:
    env = load_env(args.env)
    offline = build_offline(env, state_cap=_positive(args.state_cap, "--state-cap"))
    save_offline(env, offline, args.out)
    print(f"wrote {args.out}: {len(offline.graph)} markings, "
          f"{len(offline.graph) - 1} edges")
    return 0


def _cmd_plan(args) -> int:
    if args.render and not args.render_out:
        raise _UsageError("--render requires --render-out")
    if args.render_out and not args.render:
        raise _UsageError("--render-out requires --render")
    env = load_env(args.env)
    spec = parse(_read_spec(args))
    # a load applies no cap, so the cap is read only for a build
    if args.cache and os.path.exists(args.cache):
        offline = load_offline(env, args.cache)
    else:
        offline = build_offline(env, state_cap=_positive(args.state_cap, "--state-cap"))
        if args.cache:
            save_offline(env, offline, args.cache)
    result = plan(env, spec, offline)
    if isinstance(result, Infeasible):
        print(result.message, file=sys.stderr)
        return 2
    text = plan_json_text(env, result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    if args.render:
        with open(args.render_out, "w", encoding="utf-8") as handle:
            handle.write(render(env, result, args.render))
    return 0


def _cmd_oracle(args) -> int:
    env = load_env(args.env)
    spec = parse(_read_spec(args))
    result = joint_search(env, spec, state_budget=_positive(args.budget, "--budget"))
    if result is None:
        print("infeasible", file=sys.stderr)
        return 2
    payload = {
        "cost": cost_json(result.cost),
        "moves": [[agent, list(src), list(dst)] for agent, src, dst in result.moves],
    }
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


def _cmd_bench(args) -> int:
    if args.oracle_budget < 0:
        raise _UsageError(f"--oracle-budget must be 0 or positive, got {args.oracle_budget}")
    cfg = BenchConfig(
        mode=args.mode,
        seed=args.seed,
        sizes=tuple(args.sizes),
        agent_counts=tuple(args.agents),
        prop_range=(args.props[0], args.props[1]),
        repetitions=args.reps,
        state_cap=_positive(args.state_cap, "--state-cap"),
        oracle_budget=args.oracle_budget,
    )
    rows = run_bench(cfg, args.out)
    instances = sum(1 for r in rows if r["rep"] != "mean")
    errors = sum(1 for r in rows if r["rep"] != "mean" and r["error"])
    print(f"wrote {args.out}: {instances} instances, {errors} errors")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (TampError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
