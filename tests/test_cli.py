import json
import xml.dom.minidom

import pytest

from tampnet.cli import main
from tampnet.data import fixture_path

DEMO = str(fixture_path("demo_3x3.json"))
DEMO_SPEC = "visit(2) & end(3) & !visit(1)"
DEMO_PLAN = (
    '{"agents":[{"path":[[0,0]],"start":[0,0]},'
    '{"path":[[2,1],[2,0],[2,1],[2,2]],"start":[2,1]}],'
    '"satisfied_atoms":["end(3)","visit(2)"],'
    '"team_sequence":[21,18,20],"total_cost":3}\n'
)


def _other_env(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({
        "grid": {"rows": 2, "cols": 2},
        "regions": [{"name": "z", "cells": [[0, 0]], "final_props": ["1"]}],
        "agents": [[1, 1]],
    }))
    return str(path)


def test_plan_prints_the_frozen_json(capsys):
    assert main(["plan", "--env", DEMO, "--spec", DEMO_SPEC]) == 0
    out, err = capsys.readouterr()
    assert out == DEMO_PLAN
    assert err == ""


def test_plan_out_file_replaces_stdout(tmp_path, capsys):
    out = tmp_path / "plan.json"
    assert main(["plan", "--env", DEMO, "--spec", DEMO_SPEC,
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == DEMO_PLAN


def test_plan_reads_spec_from_file(tmp_path, capsys):
    spec_file = tmp_path / "task.txt"
    spec_file.write_text(DEMO_SPEC + "\n")
    assert main(["plan", "--env", DEMO, "--spec-file", str(spec_file)]) == 0
    assert capsys.readouterr().out == DEMO_PLAN


def test_infeasible_task_exits_2(capsys):
    assert main(["plan", "--env", DEMO, "--spec", "visit(1) & !visit(2)"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "infeasible" in err


def test_bad_inputs_exit_1(tmp_path, capsys):
    assert main(["plan", "--env", DEMO, "--spec", "visit(999)"]) == 1
    assert "error:" in capsys.readouterr().err

    assert main(["plan", "--env", DEMO, "--spec", "visit(1) &"]) == 1
    capsys.readouterr()

    broken = tmp_path / "broken.json"
    broken.write_text("{")
    assert main(["plan", "--env", str(broken), "--spec", "true"]) == 1
    capsys.readouterr()

    assert main(["plan", "--env", str(tmp_path / "missing.json"),
                 "--spec", "true"]) == 1
    capsys.readouterr()

    # text that is not UTF-8, as a map and as a formula file
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("visit(1) & end(2) \u00e9".encode("latin-1"))
    for argv in (["plan", "--env", str(latin1), "--spec", "true"],
                 ["build", "--env", str(latin1), "--out", str(tmp_path / "x.bin")],
                 ["oracle", "--env", str(latin1), "--spec", "true"],
                 ["plan", "--env", DEMO, "--spec-file", str(latin1)],
                 ["oracle", "--env", DEMO, "--spec-file", str(latin1)]):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith(f"error: {latin1} is not "), argv

    not_a_list = tmp_path / "obstacles.json"
    not_a_list.write_text(json.dumps({
        "grid": {"rows": 2, "cols": 2}, "obstacles": 5, "agents": [[0, 0]]}))
    assert main(["plan", "--env", str(not_a_list), "--spec", "true"]) == 1
    assert capsys.readouterr().err == \
        f"error: {not_a_list}: obstacles must be a list\n"


def test_usage_problems_exit_1_not_2(capsys):
    cases = [
        ["plan", "--spec", "true"],
        ["plan", "--env", DEMO],
        ["plan", "--env", DEMO, "--spec", "true", "--spec-file", "x"],
        ["plan", "--env", DEMO, "--spec", "true", "--render", "ascii"],
        ["build", "--out", "x.bin"],
        ["oracle", "--spec", "true"],
        ["oracle", "--env", DEMO],
        ["oracle", "--env", DEMO, "--spec", "true", "--spec-file", "x"],
        ["bench", "--mode", "size", "--out", "x.csv", "--state-cap", "x"],
        ["frobnicate"],
        ["bench", "--mode", "bogus", "--out", "x.csv"],
        [],
    ]
    for argv in cases:
        assert main(argv) == 1, argv
        assert "usage error:" in capsys.readouterr().err


def test_render_out_without_render_is_a_usage_error(tmp_path, capsys):
    # the rendering's format comes from --render: without it nothing would
    # be written to --render-out, so the command stops before planning
    art = tmp_path / "plan.txt"
    assert main(["plan", "--env", DEMO, "--spec", DEMO_SPEC,
                 "--render-out", str(art)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "usage error: --render-out requires --render\n"
    assert captured.out == ""
    assert not art.exists()


def test_render_outputs(tmp_path, capsys):
    art = tmp_path / "plan.txt"
    assert main(["plan", "--env", DEMO, "--spec", DEMO_SPEC,
                 "--out", str(tmp_path / "p.json"),
                 "--render", "ascii", "--render-out", str(art)]) == 0
    text = art.read_text()
    assert "cost=3" in text
    assert "a.1" in text

    pic = tmp_path / "plan.svg"
    assert main(["plan", "--env", DEMO, "--spec", DEMO_SPEC,
                 "--out", str(tmp_path / "p.json"),
                 "--render", "svg", "--render-out", str(pic)]) == 0
    doc = xml.dom.minidom.parseString(pic.read_text())
    assert doc.documentElement.tagName == "svg"
    capsys.readouterr()


def test_build_then_plan_through_the_cache(tmp_path, capsys):
    cache = tmp_path / "demo.cache.json"
    assert main(["build", "--env", DEMO, "--out", str(cache)]) == 0
    assert capsys.readouterr().out == \
        f"wrote {cache}: 23 markings, 22 edges\n"
    built = cache.read_bytes()

    assert main(["plan", "--env", DEMO, "--spec", DEMO_SPEC,
                 "--cache", str(cache)]) == 0
    assert capsys.readouterr().out == DEMO_PLAN
    assert cache.read_bytes() == built

    fresh = tmp_path / "fresh.cache.json"
    assert main(["plan", "--env", DEMO, "--spec", DEMO_SPEC,
                 "--cache", str(fresh)]) == 0
    assert capsys.readouterr().out == DEMO_PLAN
    assert fresh.read_bytes() == built


def test_cache_for_another_environment_is_refused(tmp_path, capsys):
    cache = tmp_path / "demo.cache.json"
    assert main(["build", "--env", DEMO, "--out", str(cache)]) == 0
    capsys.readouterr()
    assert main(["plan", "--env", _other_env(tmp_path), "--spec", "end(1)",
                 "--cache", str(cache)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "different model" in err


def test_oracle_command(capsys):
    assert main(["oracle", "--env", DEMO, "--spec", DEMO_SPEC]) == 0
    out = capsys.readouterr().out
    assert out == ('{"cost":3,"moves":[[0,[0,0],[1,0]],[0,[1,0],[2,0]],'
                   '[1,[2,1],[2,2]]]}\n')

    assert main(["oracle", "--env", DEMO, "--spec", "visit(1) & !visit(2)"]) == 2
    assert "infeasible" in capsys.readouterr().err

    assert main(["oracle", "--env", DEMO, "--spec", DEMO_SPEC,
                 "--budget", "2"]) == 1
    assert "error:" in capsys.readouterr().err


def test_state_cap_flag_bounds_the_build(capsys):
    assert main(["plan", "--env", DEMO, "--spec", "true", "--state-cap", "5"]) == 1
    assert "state budget" in capsys.readouterr().err

    assert main(["plan", "--env", DEMO, "--spec", "true",
                 "--state-cap", "100000"]) == 0


def test_a_plan_that_loads_its_cache_reads_no_state_cap(tmp_path, capsys):
    # a load applies no cap, so a cap below one is no usage error there; a
    # run that builds still refuses it (see the test below)
    cache = tmp_path / "demo.bin"
    assert main(["build", "--env", DEMO, "--out", str(cache)]) == 0
    capsys.readouterr()
    argv = ["plan", "--env", DEMO, "--spec", DEMO_SPEC, "--cache", str(cache)]
    assert main(argv + ["--out", str(tmp_path / "unset.json")]) == 0
    for value in ("0", "-3"):
        out = tmp_path / f"{value}.json"
        assert main(argv + ["--state-cap", value, "--out", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "unset.json").read_bytes()
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["plan", "build", "bench", "oracle"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_caps_below_one_are_usage_errors(command, value, tmp_path, capsys):
    out = tmp_path / "out"
    argv = {
        "plan": ["plan", "--env", DEMO, "--spec", "true", "--out", str(out)],
        "build": ["build", "--env", DEMO, "--out", str(out)],
        "bench": ["bench", "--mode", "props", "--out", str(out), "--sizes", "3",
                  "--agents", "1", "--props", "1", "1", "--reps", "1"],
        "oracle": ["oracle", "--env", DEMO, "--spec", "true"],
    }[command]
    flag = "--budget" if command == "oracle" else "--state-cap"
    assert main(argv + [flag, value]) == 1
    assert capsys.readouterr().err == \
        f"usage error: {flag} must be positive, got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["-1", "-5"])
def test_negative_oracle_budget_is_a_usage_error(value, tmp_path, capsys):
    # 0 turns the cross-check off; a negative budget is not another way to
    out = tmp_path / "sweep.csv"
    assert main(["bench", "--mode", "props", "--out", str(out), "--sizes", "3",
                 "--agents", "1", "--props", "1", "1", "--reps", "1",
                 "--oracle-budget", value]) == 1
    assert capsys.readouterr().err == \
        f"usage error: --oracle-budget must be 0 or positive, got {value}\n"
    assert not out.exists()


def test_bench_command(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["bench", "--mode", "props", "--out", str(out),
                 "--sizes", "4", "--agents", "2", "--props", "2", "3",
                 "--reps", "2", "--oracle-budget", "100000"]) == 0
    stdout = capsys.readouterr().out
    assert stdout == f"wrote {out}: 4 instances, 0 errors\n"
    header = out.read_text().splitlines()[0]
    assert header.startswith("mode,param,rep,rows,cols")

    assert main(["bench", "--mode", "props", "--out", str(out),
                 "--props", "5", "2"]) == 1
    assert "error:" in capsys.readouterr().err


def test_a_cache_in_a_missing_directory_names_the_given_path(tmp_path, monkeypatch, capsys):
    # the cache is written to a new file beside --out first; when that file
    # cannot be made, the error names the path on the command line
    monkeypatch.chdir(tmp_path)
    assert main(["build", "--env", DEMO, "--out", "missing/x.bin"]) == 1
    err = capsys.readouterr().err
    assert err == "error: [Errno 2] No such file or directory: 'missing/x.bin'\n"
    assert ".tmp" not in err
    assert list(tmp_path.iterdir()) == []
