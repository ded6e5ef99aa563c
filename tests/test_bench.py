import csv
import hashlib
import io
import re
from collections import Counter

import pytest

from tampnet import BenchConfig, ValidationError, run_bench
from tampnet.bench import (CSV_COLUMNS, MODES, generate_instance, random_instance,
                           sweep_values, total_draws)
from tampnet.petri import END, VISIT


def test_generation_is_deterministic():
    a = generate_instance("det:0", 4, 4, 2, 2, 4)
    b = generate_instance("det:0", 4, 4, 2, 2, 4)
    assert a == b
    c = generate_instance("det:1", 4, 4, 2, 2, 4)
    assert c != a


@pytest.mark.parametrize("seed", range(15))
def test_generated_instances_are_well_formed(seed):
    env, spec = generate_instance(f"wf:{seed}", 4, 4, 2, 2, 5)
    names = set()
    for region in env.regions:
        assert len(region.cells) == 1
        assert region.trajectory_props == region.final_props
        (name,) = region.trajectory_props
        assert region.name == f"R{name}"
        names.add(name)
    assert names == {str(i + 1) for i in range(len(env.regions))}
    assert 2 <= len(names) <= 5

    assert spec.trajectory_clauses or spec.final_clauses
    positives = {VISIT: set(), END: set()}
    for clause in spec.trajectory_clauses:
        assert 1 <= len(clause) <= 3
        assert clause <= names
        positives[VISIT] |= clause
    for clause in spec.final_clauses:
        assert 1 <= len(clause) <= 3
        assert clause <= names
        positives[END] |= clause
    assert len(spec.forbidden) <= 2
    for atom in spec.forbidden:
        assert atom.name in names
        assert atom.name not in positives[atom.kind]


def test_generation_rejects_impossible_label_counts():
    with pytest.raises(ValidationError):
        generate_instance("x", 3, 3, 1, 10, 10)


def test_label_placement_is_uniform():
    counts = Counter()
    for i in range(10000):
        env, _ = generate_instance(f"chi:{i}", 3, 3, 1, 1, 1)
        counts[env.regions[0].cells[0]] += 1
    assert len(counts) == 9
    expected = 10000 / 9
    chi2 = sum((n - expected) ** 2 / expected for n in counts.values())
    # 8 degrees of freedom: mean 8, standard deviation 4
    assert chi2 < 20


def test_sweep_values_by_mode():
    cfg = BenchConfig(mode="size", sizes=(5, 10), agent_counts=(2,),
                      prop_range=(2, 4), repetitions=3)
    assert sweep_values(cfg) == (5, 10)
    assert total_draws(cfg) == 6
    cfg.mode = "agents"
    assert sweep_values(cfg) == (2,)
    cfg.mode = "props"
    assert sweep_values(cfg) == (2, 3, 4)
    assert total_draws(cfg) == 9


@pytest.mark.parametrize("patch", [
    dict(mode="speed"),
    dict(repetitions=0),
    dict(sizes=()),
    dict(sizes=(0,)),
    dict(agent_counts=()),
    dict(prop_range=(0, 4)),
    dict(prop_range=(5, 4)),
    dict(oracle_budget=-1),
])
def test_config_validation(patch):
    cfg = BenchConfig(**patch)
    with pytest.raises(ValidationError):
        cfg.validate()


def test_random_instance_indexing():
    cfg = BenchConfig(mode="props", sizes=(4,), agent_counts=(2,),
                      prop_range=(2, 3), repetitions=2)
    seen = []
    for draw in range(total_draws(cfg)):
        env, spec, meta = random_instance(cfg, draw)
        seen.append((meta["param"], meta["rep"]))
        assert len(env.regions) == meta["param"]
        assert len(env.agents) == 2
    assert seen == [(2, 0), (2, 1), (3, 0), (3, 1)]
    with pytest.raises(ValidationError):
        random_instance(cfg, total_draws(cfg))
    with pytest.raises(ValidationError):
        random_instance(cfg, -1)


def _strip_timings(rows):
    out = []
    for row in rows:
        slim = dict(row)
        slim.pop("offline_s")
        slim.pop("online_s")
        out.append(slim)
    return out


def test_run_bench_writes_a_complete_csv(tmp_path):
    cfg = BenchConfig(mode="props", sizes=(4,), agent_counts=(2,),
                      prop_range=(2, 3), repetitions=2,
                      oracle_budget=200_000)
    out = tmp_path / "sweep.csv"
    rows = run_bench(cfg, out)
    assert len(rows) == 6

    with open(out, newline="") as handle:
        reader = csv.DictReader(handle)
        assert tuple(reader.fieldnames) == CSV_COLUMNS
        file_rows = list(reader)
    assert len(file_rows) == 6

    instance_rows = [r for r in file_rows if r["rep"] != "mean"]
    mean_rows = [r for r in file_rows if r["rep"] == "mean"]
    assert len(instance_rows) == 4 and len(mean_rows) == 2

    for row in instance_rows:
        assert row["mode"] == "props"
        assert row["error"] == ""
        assert row["feasible"] in ("yes", "no")
        assert row["oracle_match"] == "yes"
        if row["feasible"] == "yes":
            assert row["plan_cost"] != ""
        else:
            assert row["oracle_cost"] == "infeasible"
        assert re.fullmatch(r"\d+\.\d{6}", row["offline_s"])
        assert re.fullmatch(r"\d+\.\d{6}", row["online_s"])

    for row in mean_rows:
        assert re.fullmatch(r"\d+/\d+", row["feasible"])
        assert re.fullmatch(r"\d+/\d+", row["oracle_match"])
        if row["plan_cost"]:
            assert re.fullmatch(r"\d+\.\d{3}", row["plan_cost"])


def test_a_sweep_value_whose_instances_all_errored_reports_only_the_count(tmp_path):
    # a cap of one marking stops every build, so the mean row has no
    # instance to average
    cfg = BenchConfig(mode="size", sizes=(3,), agent_counts=(1,), prop_range=(2, 2),
                      repetitions=2, state_cap=1)
    *instances, mean = run_bench(cfg, tmp_path / "sweep.csv")
    assert len(instances) == 2
    assert all("state budget of 1" in row["error"] for row in instances)
    assert {col: value for col, value in mean.items() if value != ""} == {
        "mode": "size", "param": 3, "rep": "mean", "error": "2 errored"}


def test_run_bench_is_reproducible_modulo_timing(tmp_path):
    cfg = BenchConfig(mode="size", sizes=(3, 4), agent_counts=(2,),
                      prop_range=(2, 3), repetitions=2)
    first = run_bench(cfg, tmp_path / "a.csv")
    second = run_bench(cfg, tmp_path / "b.csv")
    assert _strip_timings(first) == _strip_timings(second)


# SHA-256 of each mode's sweep CSV without its two timing columns. The
# sweep holds a build over the state cap, an oracle over its budget and an
# infeasible formula, so every kind of row is pinned. The 4x4 maps of the
# size sweep have more free cells than the oracle's budget of 15, so the
# oracle refuses each of them before its search.
SWEEP_DIGESTS = {
    "agents": "48c9872643135b5c24ddca1002848f86df5337b198c1dcd36b7683eba1b50c6d",
    "size": "ede5b0b1500a01a33cc92cb461d50b12d82e485180566a585d3c106a0d7f5d13",
    "props": "18f32502041a5b0d4cedb48aa725149aee9321dc533f81683808f77236316ff6",
}


@pytest.mark.parametrize("mode", MODES)
def test_run_bench_csv_is_pinned(tmp_path, mode):
    cfg = BenchConfig(mode=mode, seed=7, sizes=(3, 4), agent_counts=(1, 2),
                      prop_range=(2, 3), repetitions=4, state_cap=20,
                      oracle_budget=15)
    out = tmp_path / "sweep.csv"
    run_bench(cfg, out)
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    timing = {rows[0].index("offline_s"), rows[0].index("online_s")}
    text = io.StringIO()
    csv.writer(text).writerows([cell for i, cell in enumerate(row) if i not in timing]
                               for row in rows)
    assert hashlib.sha256(text.getvalue().encode()).hexdigest() == SWEEP_DIGESTS[mode]
