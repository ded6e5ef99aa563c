"""Outside-in benchmark for tampnet.

Run from the root of a checkout:

    python3 perfbench/run.py --workload plant-serve --seed 1 --seconds 15 --trace 0

One process runs one workload as a closed loop with a single client, on
one thread. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones from a run with spans around every function that ``tampnet.planner``
and ``tampnet.cli`` look up in their module globals. Everything else goes
to standard error. See README.md in this directory for the metric list.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from instances import (canonical_json, cell_atoms, decide, parse_formula,  # noqa: E402
                       reduction_is_complete, sha256_of)
from tracer import Tracer, instrumented  # noqa: E402
from validate import MapFacts, RouteError, parse_cost, validate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK = ROOT / ".perfbench_work"

# Rounds per run. A round is one set-up, query passes, one ``tampnet build``
# and one ``tampnet plan --cache``; each time metric is the median of its kind.
ROUNDS = 3

# Per-layer time metrics: (metric, span). Each is the span's self seconds
# per call over every traced phase.
PER_CALL = (
    ("basis_graph.build_graph_s", "basis_graph.build_graph"),
    ("basis_graph.save_cache_s", "basis_graph.save_cache"),
    ("basis_graph.load_cache_s", "basis_graph.load_cache"),
    ("abstraction.build_simplified_s", "abstraction.build_simplified"),
    ("abstraction.build_monitored_s", "abstraction.build_monitored"),
    ("abstraction.lift_s", "abstraction.lift"),
    ("planner.select_target_s", "planner.select_target"),
    ("planner.diagnose_infeasibility_s", "planner.diagnose_infeasibility"),
    ("planner.backtrack_s", "planner.backtrack"),
    ("planner.decompose_agents_s", "planner.decompose_agents"),
    ("planner.escape_steps_s", "planner.escape_steps"),
    ("planner.plan_self_s", "planner.plan"),
    ("taskspec.compile_vectors_s", "taskspec.compile_vectors"),
    ("taskspec.holds_s", "taskspec.holds"),
    ("petri.replay_s", "petri.replay"),
    ("petri.sequence_cost_s", "petri.sequence_cost"),
    ("grid.env_to_pn_s", "grid.env_to_pn"),
    ("grid.plan_json_text_s", "grid.plan_json_text"),
)

# Return values the traced run keeps, reduced to what the counters need.
OBSERVE = {
    "basis_graph.build_graph": len,
    "abstraction.build_simplified": lambda s: (s.net.num_places, s.net.num_transitions),
    "grid.env_to_pn": lambda n: (n.num_places, n.num_transitions),
    "planner.select_target": lambda c: None if c is None else c.index + 1,
}


class SpeedProbe:
    """Tracks how fast the machine runs now, with the fixed work of
    ``probe.py`` in a child process.

    On a shared machine the speed of a core changes by tens of percent
    within seconds. So every measured segment is bracketed by probe
    samples, never interrupted by one, and its time is multiplied by its
    scale: ``REFERENCE_S`` over the median of the samples around it. Times
    thus read as seconds on a machine where the probe takes
    ``REFERENCE_S``, and drift between and within runs cancels. The probe
    shares no code with tampnet, so the scale does not move when tampnet
    changes. Use it as a context manager; leaving it ends the child.
    """

    REFERENCE_S = 0.08

    def __init__(self):
        self.child = subprocess.Popen([sys.executable, str(HERE / "probe.py")],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      text=True)
        self.times = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.child.stdin.close()
        self.child.wait()

    def sample(self) -> float:
        """Run the probe once; returns and keeps its time."""
        self.child.stdin.write("\n")
        self.child.stdin.flush()
        elapsed = float(self.child.stdout.readline())
        self.times.append(elapsed)
        return elapsed

    def scale(self, times=None) -> float:
        """Scale for the given probe times, or for all of the run's."""
        return self.REFERENCE_S / statistics.median(self.times if times is None else times)

    def timed(self, fn, *args):
        """Call ``fn(*args)`` between two probe samples on each side;
        returns (scaled seconds, seconds, result)."""
        around = [self.sample(), self.sample()]
        t0 = time.perf_counter()
        out = fn(*args)
        elapsed = time.perf_counter() - t0
        around += [self.sample(), self.sample()]
        return elapsed * self.scale(around), elapsed, out


class QueryWindows:
    """Scaled latencies of a run's queries.

    Queries are cut into windows of about ``WINDOW_S`` of query time, with a
    probe sample between windows; each latency is scaled by the samples at
    the two ends of its window.
    """

    WINDOW_S = 1.0

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.start = probe.sample()
        self.open = []
        self.open_s = 0.0
        self.feasible, self.infeasible = [], []
        self.scaled_s = 0.0
        self.busy = 0.0

    def add(self, elapsed: float, answer) -> None:
        """Record one query; ``answer`` as from ``timed_query``."""
        self.open.append((elapsed, answer))
        self.open_s += elapsed
        self.busy += elapsed
        if self.open_s >= self.WINDOW_S:
            self.close()

    def close(self) -> None:
        if not self.open:
            return
        end = self.probe.sample()
        scale = self.probe.scale([self.start, end])
        for elapsed, answer in self.open:
            if isinstance(answer, str):
                self.feasible.append(elapsed * scale)
            elif answer is None:
                self.infeasible.append(elapsed * scale)
        self.scaled_s += self.open_s * scale
        self.open, self.open_s, self.start = [], 0.0, end


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


class Checks:
    """Counts operations and failures; keeps the first few messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.broken = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.note(what)

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.broken.append(what)
            self.note(what)

    def note(self, what: str) -> None:
        if len(self.broken) + self.failed <= 20:
            log("check failed:", what)

    @property
    def correct(self) -> bool:
        return not self.broken and self.failed == 0


class Instance:
    """The workload's map, pool and reference answers, checked for drift."""

    def __init__(self, workload, checks: Checks, load_env):
        self.workload = workload
        self.env_dict = workload.make_env(ROOT)
        self.pool = workload.pool(self.env_dict)
        with open(workload.reference_path(), encoding="utf-8") as fh:
            self.ref = json.load(fh)
        checks.expect(sha256_of(self.env_dict) == self.ref["env_sha256"],
                      "map differs from the one the references were made for")
        checks.expect(self.pool == [text for text, _ in self.ref["answers"]],
                      "formula pool differs from the one the references were made for")
        self.expected = {text: None if cost is None else parse_cost(cost)
                         for text, cost in self.ref["answers"]}
        self.facts = MapFacts.of(self.env_dict)
        self.decidable = reduction_is_complete(self.env_dict)
        self.atoms = cell_atoms(self.env_dict)
        self.first_answer = {}
        self.dir = WORK / workload.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.env_path = self.dir / "env.json"
        self.env_path.write_text(canonical_json(self.env_dict) + "\n", encoding="utf-8")
        self.env = load_env(self.env_path)

    def passes(self, seed: int):
        """Endless stream of passes over the pool, each a seeded shuffle.

        A run sends whole passes only, so every run measures the same mix of
        formulas and its quantiles do not depend on where a pass was cut.
        """
        for n in itertools.count():
            batch = list(self.pool)
            random.Random(f"perfbench-order:{self.workload.name}:{seed}:{n}").shuffle(batch)
            yield batch

    def check_answer(self, checks: Checks, text: str, answer) -> None:
        """``answer`` is plan JSON text, None for Infeasible, or an exception."""
        if isinstance(answer, BaseException):
            checks.op(False, f"{text!r} raised {answer!r}")
            return
        if text in self.first_answer:
            checks.op(self.first_answer[text] == answer,
                      f"{text!r} answered differently on a repeat")
            return
        self.first_answer[text] = answer
        expected = self.expected.get(text, "missing")
        formula = parse_formula(text)
        problems = []
        if expected == "missing":
            problems.append("no reference answer")
        if self.decidable and decide(self.atoms, len(self.facts.starts), formula) != (answer is not None):
            problems.append("feasibility differs from the decider")
        if answer is None:
            if expected not in (None, "missing"):
                problems.append(f"infeasible, reference cost {expected}")
        else:
            plan = json.loads(answer)
            try:
                cost = validate(self.facts, formula, plan)
            except RouteError as exc:
                problems.append(f"route rejected: {exc}")
                cost = None
            if expected is None:
                problems.append("reference says infeasible")
            elif cost is not None and cost != expected:
                problems.append(f"cost {cost}, reference {expected}")
        checks.op(not problems, f"{text!r}: {'; '.join(problems)}")


def check_model(inst: Instance, checks: Checks, offline) -> None:
    """Compare a set-up's model with the reference fingerprint."""
    from tampnet import net_digest

    ref = inst.ref
    checks.expect(net_digest(offline.monitored.net) == ref["net_digest"],
                  "monitored net differs from the one the references were made for")
    checks.expect(len(offline.graph) == ref["markings"],
                  f"{len(offline.graph)} markings, reference {ref['markings']}")
    net = offline.simplified.net
    checks.expect((net.num_places, net.num_transitions)
                  == (ref["reduced_places"], ref["reduced_transitions"]),
                  f"reduced net {net.num_places}/{net.num_transitions}, reference "
                  f"{ref['reduced_places']}/{ref['reduced_transitions']}")


def timed_query(inst: Instance, text: str, offline, mods, tracer=None):
    """``plan`` plus ``plan_json_text``; returns (seconds, answer) where the
    answer is the JSON text, None when infeasible, or the exception."""
    planner, grid, _, Infeasible = mods
    t0 = time.perf_counter()
    try:
        result = planner.plan(inst.env, text, offline)
        if isinstance(result, Infeasible):
            out = None
        else:
            with tracer.span("grid.plan_json_text") if tracer else contextlib.nullcontext():
                out = grid.plan_json_text(inst.env, result)
    except Exception as exc:  # a failing query is counted, the run goes on
        traceback.print_exc(file=sys.stderr)
        out = exc
    return time.perf_counter() - t0, out


def run_pass(inst: Instance, checks: Checks, batch, offline, mods, record=None,
             tracer=None):
    """Send one pass and check every answer between queries; ``record``, if
    given, gets each query's (seconds, answer).

    Returns (query seconds, the first feasible (formula, answer) or None).
    Checking is not counted in the query seconds, the closed loop's time
    spent waiting on tampnet.
    """
    busy = 0.0
    first = None
    for text in batch:
        with tracer.span("query") if tracer else contextlib.nullcontext():
            elapsed, out = timed_query(inst, text, offline, mods, tracer)
        busy += elapsed
        if record:
            record(elapsed, out)
        if isinstance(out, str):
            first = first or (text, out)
        inst.check_answer(checks, text, out)
    return busy, first


def cache_round(inst: Instance, checks: Checks, cli, first, probe: SpeedProbe):
    """One in-process ``tampnet build``, then one ``tampnet plan --cache`` on
    ``first``, a (formula, in-memory answer) pair; each timed by ``probe``.
    The cold plan must print the in-memory answer. Returns (scaled build
    seconds, scaled cold plan seconds, SHA-256 of the cache, cache bytes);
    the digest lets the caller compare builds without holding the bytes."""
    cold_text, in_memory = first
    cache = inst.dir / "cache.json"
    out = inst.dir / "cold_plan.json"

    def timed(argv):
        gc.collect()
        with contextlib.redirect_stdout(sys.stderr):
            scaled, _, code = probe.timed(cli.main, argv)
        return scaled, code

    for path in (cache, out):
        if path.exists():
            path.unlink()
    build_s, code = timed(["build", "--env", str(inst.env_path), "--out", str(cache)])
    checks.op(code == 0 and cache.exists(), f"tampnet build exited with {code}")
    if not cache.exists():
        return build_s, 0.0, None, 0
    cold_s, code = timed(["plan", "--env", str(inst.env_path), "--spec", cold_text,
                          "--cache", str(cache), "--out", str(out)])
    cold = out.read_bytes() if out.exists() else b""
    checks.op(code == 0 and cold == in_memory.encode("utf-8"),
              f"plan --cache for {cold_text!r} is not byte-identical to the in-memory answer")
    return build_s, cold_s, file_sha256(cache), cache.stat().st_size


def file_sha256(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def quantile(values, q: int, n: int) -> float:
    """The q-th of n quantiles (statistics.quantiles, 'exclusive' method)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=n)[q - 1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tampnet").rglob("*")):
        if path.suffix in (".py", ".json") and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_repeats(inst: Instance, checks: Checks, key: str, values: dict) -> None:
    """Counts that must repeat exactly between runs of the same source:
    compared with the record an earlier run in this checkout left, if any."""
    record = inst.dir / f"repeat-{source_digest()}.json"
    try:
        known = json.loads(record.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        known = {}
    for name, value in values.items():
        old = known.get(key, {}).get(name)
        checks.expect(old is None or old == value,
                      f"{name} was {old} in an earlier run, now {value}")
    known.setdefault(key, {}).update(values)
    record.write_text(json.dumps(known, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(inst: Instance, checks: Checks, seed: int, seconds: float, mods,
               probe: SpeedProbe) -> dict:
    """ROUNDS rounds. Each sets up the model, sends whole query passes until
    the run's query time reaches the round's share of ``seconds``, drops
    the model and runs the cache path once. Spreading every kind of
    measurement over the whole run lets slow drift in machine speed fall on
    all of them alike."""
    planner, _, cli, _ = mods
    setups, raw, builds, colds, digests = [], [], [], [], set()
    feasible, infeasible = [], []
    busy = scaled_busy = 0.0
    size = 0
    passes = inst.passes(seed)
    first = None
    for r in range(1, ROUNDS + 1):
        gc.collect()
        scaled, elapsed, offline = probe.timed(planner.build_offline, inst.env)
        check_model(inst, checks, offline)
        setups.append(scaled)
        raw.append(elapsed)

        windows = QueryWindows(probe)
        while busy + windows.busy < seconds * r / ROUNDS:
            found = run_pass(inst, checks, next(passes), offline, mods, windows.add)[1]
            first = first or found
        windows.close()
        offline = None
        feasible += windows.feasible
        infeasible += windows.infeasible
        busy += windows.busy
        scaled_busy += windows.scaled_s

        if first is None:
            checks.expect(False, "no feasible answer to replay from the cache")
            break
        build_s, cold_s, digest, size = cache_round(inst, checks, cli, first, probe)
        builds.append(build_s)
        colds.append(cold_s)
        digests.add(digest)
    checks.expect(len(digests) == 1, "tampnet build wrote different bytes on a repeat")
    check_repeats(inst, checks, "untraced", {"cache_bytes": size})

    done = len(feasible) + len(infeasible)
    log(f"queries: {done} in {busy:.2f} s, {len(feasible)} feasible, "
        f"{len(infeasible)} infeasible; samples beyond p95 feasible: "
        f"{len(feasible) // 20}, beyond p90 infeasible: {len(infeasible) // 10}")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    log(f"unscaled setup_s {[round(v, 4) for v in raw]}; scaled setup_s "
        f"{[round(v, 4) for v in setups]}, build_cmd_s {[round(v, 4) for v in builds]}, "
        f"cold_plan_s {[round(v, 4) for v in colds]}; query scale {scaled_busy / busy:.4f}, "
        f"run scale {probe.scale():.4f} from {len(probe.times)} probe samples")
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "query_s.p50": metric(quantile(feasible, 50, 100), "s"),
        "query_s.p95": metric(quantile(feasible, 19, 20), "s"),
        "infeasible_s.mean": metric(statistics.fmean(infeasible or [0.0]), "s"),
        "infeasible_s.p90": metric(quantile(infeasible, 9, 10), "s"),
        "queries_per_s": metric(done / scaled_busy, "1/s"),
        "peak_rss_mb": metric(peak, "MB"),
        "build_cmd_s": metric(statistics.median(builds or [0.0]), "s"),
        "cold_plan_s": metric(statistics.median(colds or [0.0]), "s"),
        "cache_bytes": metric(size, "bytes"),
    }


def per_layer(inst: Instance, checks: Checks, seed: int, seconds: float, mods,
              probe: SpeedProbe) -> dict:
    """One traced set-up; then pairs of passes over the same formulas, one
    untraced and one traced, until ``seconds`` of traced query time; then
    the traced cache path. Pairing the passes keeps drift in machine speed
    out of the tracing overhead, and the pass that goes first alternates
    between pairs, so order effects fall on both sides."""
    planner, _, cli, _ = mods
    probe.sample()
    gc.collect()
    setup = Tracer(OBSERVE)
    with instrumented(setup), setup.span("setup"):
        offline = planner.build_offline(inst.env)
    check_model(inst, checks, offline)

    query = Tracer(OBSERVE)
    plain = traced = 0.0
    first = depths = None
    for passes, batch in enumerate(inst.passes(seed), 1):
        probe.sample()
        if passes % 2:
            plain += run_pass(inst, checks, batch, offline, mods)[0]
        with instrumented(query):
            busy, found = run_pass(inst, checks, batch, offline, mods, tracer=query)
        if not passes % 2:
            plain += run_pass(inst, checks, batch, offline, mods)[0]
        traced += busy
        first = first or found
        if depths is None:
            depths = [d for d in query.observed.get("planner.select_target", []) if d is not None]
        if traced >= seconds:
            break
    offline = None
    log(f"traced passes: {passes} of {len(inst.pool)} formulas, each also sent untraced")

    cache = Tracer(OBSERVE)
    if first is None:
        checks.expect(False, "no feasible answer to replay from the cache")
        build_s = cold_s = size = 0
    else:
        with instrumented(cache), cache.span("cache"):
            build_s, cold_s, _, size = cache_round(inst, checks, cli, first, probe)
    scale = probe.scale()

    tracers = (setup, query, cache)
    names = set().union(*(t.names() for t in tracers))
    absent = [span for _, span in PER_CALL if span not in names]
    if absent:
        log("absent spans (reported as 0):", ", ".join(absent))

    def per_call(span):
        calls = sum(t.calls(span) for t in tracers)
        return scale * sum(t.self_time(span) for t in tracers) / calls if calls else 0.0

    def observed(span, pick):
        values = setup.observed.get(span)
        return pick(values[-1]) if values else 0

    markings = observed("basis_graph.build_graph", lambda v: v)
    graph_self = setup.self_time("basis_graph.build_graph")
    setup_total = setup.total_time("setup")
    counts = {
        "basis_graph.markings": markings,
        "abstraction.reduced_places": observed("abstraction.build_simplified", lambda v: v[0]),
        "abstraction.reduced_transitions": observed("abstraction.build_simplified", lambda v: v[1]),
        "grid.places": observed("grid.env_to_pn", lambda v: v[0]),
        "grid.moves": observed("grid.env_to_pn", lambda v: v[1]),
        "planner.scan_depth": sum(depths) / len(depths) if depths else 0,
    }
    check_repeats(inst, checks, f"traced-seed-{seed}", dict(counts, cache_bytes=size))

    out = {m: metric(per_call(span), "s") for m, span in PER_CALL}
    out.update({name: metric(value, "count") for name, value in counts.items()})
    out.update({
        "basis_graph.us_per_marking":
            metric(scale * graph_self / markings * 1e6 if markings else 0.0, "us"),
        "basis_graph.build_graph_setup_share":
            metric(graph_self / setup_total, "ratio"),
        "abstraction.build_simplified_setup_share":
            metric(setup.self_time("abstraction.build_simplified") / setup_total, "ratio"),
        "planner.select_target_query_share":
            metric(query.self_time("planner.select_target") / query.total_time("query"), "ratio"),
        "trace.overhead_ratio": metric(traced / plain, "ratio"),
    })
    trace_file = inst.dir / f"trace-seed-{seed}.json"
    trace_file.write_text(json.dumps({
        "setup": setup.table(), "query": query.table(), "cache": cache.table(),
        "absent": absent, "build_cmd_s": build_s, "cold_plan_s": cold_s,
    }, indent=1) + "\n", encoding="utf-8")
    log(f"spans written to {trace_file.relative_to(ROOT)}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tampnet" / "__init__.py").is_file():
        log(f"error: no tampnet sources under {ROOT / 'src'}; run from a full checkout")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from tampnet import cli, grid, planner
    from tampnet.planner import Infeasible

    # The run and its probe child share one CPU, so the probe sees the
    # speed of the core the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    checks = Checks()
    inst = Instance(WORKLOADS[args.workload], checks, grid.load_env)
    mods = (planner, grid, cli, Infeasible)
    run = per_layer if args.trace else end_to_end
    with SpeedProbe() as probe:
        metrics = run(inst, checks, args.seed, args.seconds, mods, probe)
    print(json.dumps({"correct": checks.correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
