import json
import random
import re
import shlex
import time
from pathlib import Path

import pytest

from maxkcut.cli import build_parser, main

from conftest import random_graph
from maxkcut.graph import write_instance

TRIANGLE = "3 3\n1 2 1\n1 3 2\n2 3 3\n"


@pytest.fixture
def tri_path(tmp_path):
    p = tmp_path / "tri.txt"
    p.write_text(TRIANGLE)
    return p


def test_solve_triangle_k3(tri_path, capsys):
    rc = main(["solve", "--instance", str(tri_path), "--k", "3",
               "--time-limit", "1", "--target", "6"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "f_best: 6" in out
    assert "time_to_best_seconds:" in out
    assert "total_iterations:" in out


def test_solve_writes_solution_and_trace(tri_path, tmp_path, capsys):
    sol = tmp_path / "tri.json"
    trace = tmp_path / "trace.csv"
    rc = main(["solve", "--instance", str(tri_path), "--k", "2",
               "--time-limit", "1", "--target", "5",
               "--solution-out", str(sol), "--trace-out", str(trace)])
    assert rc == 0
    doc = json.loads(sol.read_text())
    assert doc["k"] == 2 and doc["objective"] == 5 and len(doc["assign"]) == 3
    lines = trace.read_text().splitlines()
    assert lines[0] == "elapsed_seconds,f_best"
    assert lines[-1].endswith(",5")


def test_solve_missing_instance(capsys):
    rc = main(["solve", "--instance", "/nonexistent/g.txt", "--k", "2"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_solve_invalid_instance(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1\n1 4 1\n")
    rc = main(["solve", "--instance", str(bad), "--k", "2"])
    assert rc == 1
    assert "out of range" in capsys.readouterr().err


def test_solve_invalid_k(tri_path, tmp_path, capsys):
    sol = tmp_path / "sol.json"
    rc = main(["solve", "--instance", str(tri_path), "--k", "9", "--solution-out", str(sol)])
    assert rc == 1
    assert not sol.exists()


def test_check_pass(tri_path, tmp_path, capsys):
    sol = tmp_path / "sol.json"
    sol.write_text('{"instance":"tri","k":2,"objective":5,"assign":[0,0,1]}\n')
    rc = main(["check", "--instance", str(tri_path), "--solution", str(sol)])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_check_tampered_objective(tri_path, tmp_path, capsys):
    sol = tmp_path / "sol.json"
    sol.write_text('{"instance":"tri","k":2,"objective":7,"assign":[0,0,1]}\n')
    rc = main(["check", "--instance", str(tri_path), "--solution", str(sol)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "5" in out and "7" in out


def test_check_wrong_length(tri_path, tmp_path, capsys):
    sol = tmp_path / "sol.json"
    sol.write_text('{"instance":"tri","k":2,"objective":5,"assign":[0,1]}\n')
    rc = main(["check", "--instance", str(tri_path), "--solution", str(sol)])
    assert rc == 1
    assert "assignment length 2 != n=3" in capsys.readouterr().err


def test_check_text_solution(tri_path, tmp_path, capsys):
    sol = tmp_path / "sol.txt"
    sol.write_text("0\n0\n1\n")
    rc = main(["check", "--instance", str(tri_path), "--solution", str(sol),
               "--k", "2", "--objective", "5"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_check_empty_subset_warning(tri_path, tmp_path, capsys):
    sol = tmp_path / "sol.json"
    sol.write_text('{"instance":"tri","k":3,"objective":5,"assign":[0,0,1]}\n')
    rc = main(["check", "--instance", str(tri_path), "--solution", str(sol)])
    assert rc == 0
    assert "empty subset" in capsys.readouterr().out


def test_oracle_triangle(tri_path, capsys):
    assert main(["oracle", "--instance", str(tri_path), "--k", "2"]) == 0
    assert "optimum: 5" in capsys.readouterr().out
    assert main(["oracle", "--instance", str(tri_path), "--k", "3"]) == 0
    assert "optimum: 6" in capsys.readouterr().out


def test_oracle_guard_refusal(tmp_path, capsys):
    rng = random.Random(0)
    g = random_graph(rng, 20, 0.2)
    path = tmp_path / "big.txt"
    path.write_text(write_instance(g))
    rc = main(["oracle", "--instance", str(path), "--k", "2"])
    assert rc == 1
    assert "--force" in capsys.readouterr().err


@pytest.mark.parametrize("name,payload,flags", [
    ("trunc.json", '{"instance":"tri","k":2,', []),
    ("noinst.json", '{"k":2,"objective":5,"assign":[0,0,1]}', []),
    ("badassign.json", '{"instance":"tri","k":2,"objective":5,"assign":5}', []),
    ("bad.txt", "0\nx\n1\n", ["--k", "2"]),
], ids=["truncated-json", "json-without-instance", "json-assign-not-list",
        "text-non-integer"])
def test_check_malformed_solution_is_input_error(tri_path, tmp_path, capsys,
                                                 name, payload, flags):
    sol = tmp_path / name
    sol.write_text(payload)
    rc = main(["check", "--instance", str(tri_path), "--solution", str(sol), *flags])
    assert rc == 1
    assert f"error: invalid solution {sol}" in capsys.readouterr().err


@pytest.mark.parametrize("name,payload,flags", [
    ("k1.json", '{"instance":"tri","k":1,"objective":0,"assign":[0,0,0]}', []),
    ("k0.json", '{"instance":"tri","k":0,"objective":0,"assign":[0,0,0]}', []),
    ("k1.txt", "0\n0\n0\n", ["--k", "1"]),
], ids=["json-k1", "json-k0", "text-k1"])
def test_check_k_below_two_is_input_error(tri_path, tmp_path, capsys,
                                          name, payload, flags):
    sol = tmp_path / name
    sol.write_text(payload)
    rc = main(["check", "--instance", str(tri_path), "--solution", str(sol), *flags])
    assert rc == 1
    assert "k must be >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [
    '{"instance":"tri","k":2.9,"objective":5,"assign":[0,0,1]}',
    '{"instance":"tri","k":true,"objective":5,"assign":[0,0,1]}',
    '{"instance":"tri","k":"2","objective":5,"assign":[0,0,1]}',
    '{"instance":"tri","k":2,"objective":"5","assign":[0,0,1]}',
    '{"instance":"tri","k":2,"objective":5.0,"assign":[0,0,1]}',
    '{"instance":"tri","k":2,"objective":null,"assign":[0,0,1]}',
    '{"instance":"tri","k":2,"objective":5,"assign":[0.7,0,1]}',
    '{"instance":"tri","k":2,"objective":5,"assign":[false,false,true]}',
    '{"instance":"tri","k":2,"objective":5,"assign":["0",0,1]}',
], ids=["k-float", "k-bool", "k-string", "objective-string", "objective-float",
        "objective-null", "assign-float", "assign-bool", "assign-string"])
def test_check_non_integer_json_field_is_input_error(tri_path, tmp_path, capsys,
                                                     payload):
    sol = tmp_path / "sol.json"
    sol.write_text(payload)
    rc = main(["check", "--instance", str(tri_path), "--solution", str(sol)])
    assert rc == 1
    assert "must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("flags,message", [
    (["--k", "3"], "--k 3 disagrees with 2"),
    (["--objective", "999"], "--objective 999 disagrees with 5"),
    (["--k", "3", "--objective", "999"], "--k 3 disagrees with 2"),
], ids=["k", "objective", "both"])
def test_check_flag_disagreeing_with_json_is_input_error(tri_path, tmp_path,
                                                         capsys, flags, message):
    sol = tmp_path / "sol.json"
    sol.write_text('{"instance":"tri","k":2,"objective":5,"assign":[0,0,1]}\n')
    rc = main(["check", "--instance", str(tri_path), "--solution", str(sol), *flags])
    assert rc == 1
    assert message in capsys.readouterr().err


def test_check_flags_agreeing_with_json_pass(tri_path, tmp_path, capsys):
    sol = tmp_path / "sol.json"
    sol.write_text('{"instance":"tri","k":2,"objective":5,"assign":[0,0,1]}\n')
    rc = main(["check", "--instance", str(tri_path), "--solution", str(sol),
               "--k", "2", "--objective", "5"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_oracle_k_below_two_is_input_error(tri_path, capsys):
    rc = main(["oracle", "--instance", str(tri_path), "--k", "1"])
    assert rc == 1
    assert "error: k must be >= 2" in capsys.readouterr().err


def test_bench_csv_shape(tri_path, tmp_path):
    out = tmp_path / "report.csv"
    rc = main(["bench", "--instance", str(tri_path),
               "--k", "2", "--runs", "3", "--time-limit", "0.2",
               "--base-seed", "7", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "instance,n,m,k,strategy,rho,runs,f_best,f_avg,std,avg_time_to_best_seconds"
    )
    row = lines[1].split(",")
    assert row[0] == "tri.txt" and row[1] == "3" and row[3] == "2"
    assert row[4] == "sequential" and row[6] == "3"
    assert int(row[7]) == 5  # optimum found within budget


def test_bench_byte_identical_repeats(tri_path, tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        rc = main(["bench", "--instance", str(tri_path),
                   "--k", "2", "--runs", "2", "--time-limit", "0.1",
                   "--base-seed", "3", "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_bench_descent_ablation_rows(tri_path, tmp_path):
    out = tmp_path / "ab.csv"
    rc = main(["bench", "--instance", str(tri_path),
               "--strategy", "o1_only,union,random_mix,sequential", "--runs", "1",
               "--time-limit", "0.1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()[1:]
    strategies = [line.split(",")[4] for line in lines]
    assert strategies == ["o1_only", "union", "random_mix", "sequential"]


def test_bench_rho_ablation_rows(tri_path, tmp_path):
    out = tmp_path / "rho.csv"
    rc = main(["bench", "--instance", str(tri_path),
               "--rho", "0,0.5,1", "--runs", "1",
               "--time-limit", "0.1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()[1:]
    rhos = [line.split(",")[5] for line in lines]
    assert rhos == ["0", "0.5", "1"]


def test_bench_reported_best_passes_check(tri_path, tmp_path, capsys):
    # bench results must be reproducible in isolation: seed of run r is
    # base_seed + r
    sol = tmp_path / "repro.json"
    rc = main(["solve", "--instance", str(tri_path), "--k", "2",
               "--time-limit", "0.2", "--seed", "7", "--solution-out", str(sol)])
    assert rc == 0
    capsys.readouterr()
    rc = main(["check", "--instance", str(tri_path), "--solution", str(sol)])
    assert rc == 0


def test_bench_missing_instance(tmp_path, capsys):
    rc = main(["bench", "--instance", str(tmp_path / "nope"),
               "--runs", "1", "--time-limit", "0.1"])
    assert rc == 1


def test_bench_bad_rho_value_is_input_error(tri_path, tmp_path, capsys):
    out = tmp_path / "rho.csv"
    rc = main(["bench", "--instance", str(tri_path),
               "--rho", "0,abc", "--runs", "1",
               "--time-limit", "0.1", "--out", str(out)])
    assert rc == 1
    assert "'abc'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--jobs", "--runs"])
def test_bench_count_below_one_is_input_error(tri_path, tmp_path, capsys, flag):
    out = tmp_path / "report.csv"
    rc = main(["bench", "--instance", str(tri_path),
               "--runs", "1", "--time-limit", "0.1", flag, "0", "--out", str(out)])
    assert rc == 1
    assert f"{flag} must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--rho", "1.5"],
    ["--phi", "-3"],
    ["--phi", "0"],
    ["--omega", "0"],
    ["--phi", "nan"],
    ["--phi", "inf"],
    # the target ends the run at once should a NaN budget ever pass the check
    ["--time-limit", "nan", "--target", "5"],
])
def test_solve_out_of_range_param_is_input_error(tri_path, capsys, flags):
    rc = main(["solve", "--instance", str(tri_path), "--k", "2",
               "--time-limit", "0.1", *flags])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_solve_negative_time_limit_is_input_error(tri_path, capsys):
    rc = main(["solve", "--instance", str(tri_path), "--k", "2", "--time-limit", "-1"])
    assert rc == 1
    assert "time_limit" in capsys.readouterr().err


def test_bench_k_above_n_is_input_error(tri_path, tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = main(["bench", "--instance", str(tri_path),
               "--k", "5", "--runs", "1", "--time-limit", "0.1", "--out", str(out)])
    assert rc == 1
    assert "k must satisfy" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_huge_weights_are_input_error(tmp_path, capsys, command):
    inst = tmp_path / "huge.txt"
    inst.write_text("3 3\n1 2 1000000000\n1 3 1000000000\n2 3 1000000000\n")
    if command == "solve":
        argv = ["solve", "--instance", str(inst)]
    else:
        argv = ["bench", "--instance", str(inst), "--runs", "1"]
    t0 = time.perf_counter()
    rc = main(argv + ["--k", "2", "--time-limit", "1"])
    assert time.perf_counter() - t0 < 1.0
    assert rc == 1
    assert "above the limit of 8388608" in capsys.readouterr().err


def test_bench_forwards_search_flags(tri_path, tmp_path, monkeypatch):
    import maxkcut.cli

    seen = []
    real = maxkcut.cli.run_moh

    def spy(g, params):
        seen.append(params)
        return real(g, params)

    monkeypatch.setattr(maxkcut.cli, "run_moh", spy)
    rc = main(["bench", "--instance", str(tri_path),
               "--k", "2", "--runs", "2", "--jobs", "1", "--time-limit", "0.1",
               "--omega", "7", "--xi", "9", "--gamma-fraction", "0.5", "--phi", "0.25",
               "--strategy", "union", "--out", str(tmp_path / "report.csv")])
    assert rc == 0
    assert [p.seed for p in seen] == [0, 1]
    for p in seen:
        assert (p.omega, p.xi, p.gamma_fraction, p.phi) == (7, 9, 0.5, 0.25)
        assert (p.descent_strategy, p.time_limit) == ("union", 0.1)
    assert "tri.txt,3,3,2,union," in (tmp_path / "report.csv").read_text()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_bench_bad_instance_is_input_error(tri_path, tmp_path, capsys, jobs):
    (tmp_path / "short.txt").write_text("3 5\n1 2 1\n")
    out = tmp_path / "report.csv"
    rc = main(["bench", "--instance", str(tri_path), str(tmp_path / "short.txt"),
               "--k", "2", "--runs", "1", "--jobs", jobs, "--time-limit", "0.1",
               "--out", str(out)])
    assert rc == 1
    assert "promised 5 edges" in capsys.readouterr().err
    assert not out.exists()


def test_bench_jobs_share_one_run_path(tri_path, tmp_path):
    # Tiny instances reach their optimum in every run, so every column but
    # the mean time to best is fixed by (instance, params, seed).
    g = random_graph(random.Random(4), 9, 0.5)
    (tmp_path / "r9.txt").write_text(write_instance(g))
    rows = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.csv"
        rc = main(["bench", "--instance", str(tri_path), str(tmp_path / "r9.txt"),
                   "--k", "2", "--runs", "3", "--jobs", jobs, "--time-limit", "0.2",
                   "--base-seed", "5", "--out", str(out)])
        assert rc == 0
        rows[jobs] = [line.rsplit(",", 1)[0] for line in out.read_text().splitlines()]
    assert len(rows["1"]) == 3
    assert rows["2"] == rows["1"]


def test_bench_unknown_strategy_is_input_error(tri_path, tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = main(["bench", "--instance", str(tri_path), "--strategy", "union,bogus",
               "--runs", "1", "--time-limit", "0.1", "--out", str(out)])
    assert rc == 1
    assert "'bogus'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--bogus"],
    ["solve", "--instance", "g.txt", "--strategy", "bogus"],
    ["solve", "--instance", "g.txt", "--k", "two"],
    [],
], ids=["unknown-flag", "bad-choice", "bad-int", "no-subcommand"])
def test_usage_error_exits_1(capsys, argv):
    assert main(argv) == 1
    assert "usage:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["solve", "--help"]) == 0
    assert "--instance" in capsys.readouterr().out


@pytest.mark.parametrize("command,flag", [
    ("solve", "--solution-out"),
    ("solve", "--trace-out"),
    ("bench", "--out"),
])
def test_unwritable_output_fails_before_search(tri_path, tmp_path, capsys, monkeypatch,
                                              command, flag):
    import maxkcut.cli

    def no_search(g, params):
        raise AssertionError("the search ran")

    monkeypatch.setattr(maxkcut.cli, "run_moh", no_search)
    path = tmp_path / "missing" / "out"
    rc = main([command, "--instance", str(tri_path), "--k", "2", "--time-limit", "60",
               flag, str(path)])
    assert rc == 1
    assert f"error: cannot write {path}" in capsys.readouterr().err


def test_readme_commands_parse():
    # Every `maxkcut ...` line in README's code blocks, `\` continuations
    # joined, must parse, so the docs cannot keep a removed flag.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = "".join(re.findall(r"^```\w*\n(.*?)^```", readme, re.M | re.S))
    lines = blocks.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("maxkcut ")]
    assert len(commands) >= 5
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: maxkcut {shlex.join(argv)}")
