import json
import os
import random
import re
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from maxkcut.cli import build_parser, main

from conftest import random_graph
from maxkcut.graph import Graph, write_instance

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


def test_solve_warns_of_an_empty_subset(tmp_path, capsys):
    # Every edge of this triangle weighs < 0, so its only optimum puts all
    # three vertices in one subset and leaves the other empty.
    inst = tmp_path / "negative.txt"
    inst.write_text("3 3\n1 2 -1\n1 3 -2\n2 3 -3\n")
    rc = main(["solve", "--instance", str(inst), "--k", "2", "--max-rounds", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "f_best: 0" in out
    assert "warning: empty subset" in out


@pytest.mark.parametrize("name,payload,flags", [
    ("k-huge.json", '{"instance":"tri","k":1000000,"objective":5,"assign":[0,0,1]}', []),
    ("k4.txt", "0\n0\n1\n", ["--k", "4"]),
], ids=["json-k-million", "text-k4"])
def test_check_k_above_n_is_input_error(tri_path, tmp_path, capsys, name, payload, flags):
    sol = tmp_path / name
    sol.write_text(payload)
    rc = main(["check", "--instance", str(tri_path), "--solution", str(sol), *flags])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error: k must satisfy 2 <= k <= n=3" in captured.err
    assert captured.out == ""


def test_solve_text_solution_then_check_with_k(tri_path, tmp_path, capsys):
    sol = tmp_path / "tri.txt.sol"
    rc = main(["solve", "--instance", str(tri_path), "--k", "2", "--time-limit", "1",
               "--target", "5", "--solution-format", "text", "--solution-out", str(sol)])
    assert rc == 0
    assert len(sol.read_text().split()) == 3  # one subset id a line
    capsys.readouterr()
    # no --objective: nothing is claimed, so check reports the recomputed value
    rc = main(["check", "--instance", str(tri_path), "--solution", str(sol), "--k", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines() == ["objective: 5", "PASS (no claimed value to compare)"]


def test_check_text_solution_without_k_is_input_error(tri_path, tmp_path, capsys):
    sol = tmp_path / "sol.txt"
    sol.write_text("0\n0\n1\n")
    rc = main(["check", "--instance", str(tri_path), "--solution", str(sol)])
    assert rc == 1
    assert "error: plain-text solutions need --k" in capsys.readouterr().err


def test_check_unreadable_solution_is_input_error(tri_path, tmp_path, capsys):
    sol = tmp_path / "missing.json"
    rc = main(["check", "--instance", str(tri_path), "--solution", str(sol)])
    assert rc == 1
    assert f"error: cannot read solution {sol}" in capsys.readouterr().err


def test_undecodable_instance_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\n")
    rc = main(["solve", "--instance", str(bad), "--k", "2"])
    assert rc == 1
    assert f"error: cannot read instance {bad}: 'utf-8' codec" in capsys.readouterr().err


def test_undecodable_solution_is_input_error(tri_path, tmp_path, capsys):
    sol = tmp_path / "sol.json"
    sol.write_bytes(b"\xff\n")
    rc = main(["check", "--instance", str(tri_path), "--solution", str(sol)])
    assert rc == 1
    assert f"error: cannot read solution {sol}: 'utf-8' codec" in capsys.readouterr().err


def test_deeply_nested_solution_is_input_error(tri_path, tmp_path, capsys):
    sol = tmp_path / "sol.json"
    sol.write_text('{"a":' + "[" * 200000)
    rc = main(["check", "--instance", str(tri_path), "--solution", str(sol)])
    assert rc == 1
    assert f"error: invalid solution {sol}: JSON nested too deeply" in capsys.readouterr().err


def test_check_reports_out_of_range_vertices_once(tmp_path, capsys):
    n = 10**4
    inst = tmp_path / "path.txt"
    inst.write_text(f"{n} {n - 1}\n" + "".join(f"{v} {v + 1} 1\n" for v in range(1, n)))
    sol = tmp_path / "sol.txt"
    sol.write_text("7\n" * n)
    rc = main(["check", "--instance", str(inst), "--solution", str(sol), "--k", "2"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == (
        f"error: vertex 0: subset index 7 out of range 0..1 ({n} of {n} vertices out of range)\n"
    )


def _run_failing(tmp_path, monkeypatch, tri_path, error):
    """Run solve and bench with a run_moh that raises error, each with output
    files; return the exit codes.  A file that existed before is reused."""
    import maxkcut.cli

    def broken(g, params):
        raise error

    monkeypatch.setattr(maxkcut.cli, "run_moh", broken)
    kept = tmp_path / "kept.csv"
    kept.write_text("earlier results\n")
    commands = [
        ["solve", "--instance", str(tri_path), "--k", "2", "--time-limit", "1",
         "--solution-out", str(tmp_path / "sol.json"), "--trace-out", str(kept)],
        ["bench", "--instance", str(tri_path), "--k", "2", "--runs", "1",
         "--time-limit", "1", "--out", str(tmp_path / "b.csv")],
    ]
    codes = []
    for argv in commands:
        try:
            codes.append(main(argv))
        except KeyboardInterrupt:
            codes.append(None)
    # the probe's new files are gone; the file that was there stays as it was
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv", "tri.txt"]
    assert kept.read_text() == "earlier results\n"
    return codes


def test_internal_error_exits_2(tri_path, tmp_path, capsys, monkeypatch):
    assert _run_failing(tmp_path, monkeypatch, tri_path, RuntimeError("boom")) == [2, 2]
    assert capsys.readouterr().err.count("internal error: boom") == 2


def test_interrupted_run_leaves_no_empty_output(tri_path, tmp_path, monkeypatch):
    assert _run_failing(tmp_path, monkeypatch, tri_path, KeyboardInterrupt()) == [None, None]


def test_unwritable_second_output_removes_the_first(tri_path, tmp_path, capsys):
    sol = tmp_path / "sol.json"
    rc = main(["solve", "--instance", str(tri_path), "--k", "2", "--time-limit", "1",
               "--solution-out", str(sol), "--trace-out", str(tmp_path / "no" / "t.csv")])
    assert rc == 1
    assert "cannot write" in capsys.readouterr().err
    assert not sol.exists()


def test_no_output_exists_while_the_search_runs(tri_path, tmp_path, monkeypatch, capsys):
    # A run killed during its search leaves what the search saw: the files
    # that were there before the command, and no output it had not written.
    import maxkcut.cli

    real_run_moh = maxkcut.cli.run_moh
    listings = []

    def watched(g, params):
        listings.append(sorted(p.name for p in tmp_path.iterdir()))
        return real_run_moh(g, params)

    monkeypatch.setattr(maxkcut.cli, "run_moh", watched)
    kept = tmp_path / "kept.csv"
    kept.write_text("earlier results\n")
    run = ["--instance", str(tri_path), "--k", "2", "--time-limit", "1", "--max-rounds", "1"]
    assert main(["solve", *run, "--solution-out", str(tmp_path / "sol.json"),
                 "--trace-out", str(tmp_path / "trace.csv")]) == 0
    assert main(["solve", *run, "--solution-out", str(tmp_path / "sol2.json"),
                 "--trace-out", str(kept)]) == 0
    assert main(["bench", *run, "--runs", "1", "--out", str(tmp_path / "b.csv")]) == 0
    assert listings == [
        ["kept.csv", "tri.txt"],
        ["kept.csv", "sol.json", "trace.csv", "tri.txt"],
        ["kept.csv", "sol.json", "sol2.json", "trace.csv", "tri.txt"],
    ]
    assert (tmp_path / "b.csv").exists()
    assert kept.read_text().startswith("elapsed_seconds,f_best\n")


def test_symlinked_output_is_written_through_and_never_removed(tri_path, tmp_path, capsys):
    target = tmp_path / "target.json"
    link = tmp_path / "sol.json"
    link.symlink_to(target)
    solve = ["solve", "--instance", str(tri_path), "--k", "2", "--time-limit", "1",
             "--target", "5", "--solution-out", str(link)]
    # a failed solve leaves the dangling symlink as it was and creates no target
    assert main([*solve, "--trace-out", str(tmp_path / "no" / "t.csv")]) == 1
    assert "cannot write" in capsys.readouterr().err
    assert link.is_symlink() and not target.exists()
    assert main(solve) == 0
    assert link.is_symlink()
    assert json.loads(target.read_text())["objective"] == 5


def test_terminated_solve_leaves_no_output(tri_path, tmp_path):
    import maxkcut

    sol, trace = tmp_path / "sol.json", tmp_path / "trace.csv"
    env = {**os.environ, "PYTHONPATH": str(Path(maxkcut.__file__).parents[1])}
    child = subprocess.Popen(
        [sys.executable, "-m", "maxkcut.cli", "solve", "--instance", str(tri_path), "--k", "2",
         "--time-limit", "30", "--solution-out", str(sol), "--trace-out", str(trace)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        time.sleep(1.0)
        child.send_signal(signal.SIGTERM)
        assert child.wait(timeout=10) == -signal.SIGTERM
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    assert not sol.exists() and not trace.exists()


@pytest.mark.parametrize("flag", ["--solution-out", "--trace-out"])
def test_solve_output_naming_the_instance_is_input_error(tri_path, capsys, flag):
    rc = main(["solve", "--instance", str(tri_path), "--k", "2", "--time-limit", "1",
               flag, str(tri_path)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: output {tri_path} is also an input\n"
    assert tri_path.read_text() == TRIANGLE


def test_solve_outputs_naming_one_file_is_input_error(tri_path, tmp_path, capsys):
    # the second spelling reaches the same file through a symlink
    out = tmp_path / "out.txt"
    out.write_text("earlier results\n")
    link = tmp_path / "link.txt"
    link.symlink_to(out)
    rc = main(["solve", "--instance", str(tri_path), "--k", "2", "--time-limit", "1",
               "--solution-out", str(out), "--trace-out", str(link)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: output {link} is also another output\n"
    assert out.read_text() == "earlier results\n"
    assert tri_path.read_text() == TRIANGLE


def test_bench_out_naming_an_instance_is_input_error(tri_path, tmp_path, capsys):
    other = tmp_path / "other.txt"
    other.write_text(TRIANGLE)
    rc = main(["bench", "--instance", str(tri_path), str(other), "--k", "2", "--runs", "1",
               "--time-limit", "1", "--out", str(tmp_path / "sub" / ".." / "other.txt")])
    assert rc == 1
    assert "is also an input" in capsys.readouterr().err
    assert other.read_text() == TRIANGLE
    assert tri_path.read_text() == TRIANGLE


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
    assert capsys.readouterr().err == (
        "error: instance too large for exhaustive search: n=20 > max_n=16;"
        " use --force to override\n"
    )


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


def test_oracle_force_passes_the_guard(tmp_path, capsys):
    # k = 5 is above the guard's k <= 4; K5 with unit weights cuts every edge
    path = tmp_path / "k5.txt"
    path.write_text(write_instance(Graph.from_edges(
        5, [(u, v, 1) for u in range(5) for v in range(u + 1, 5)])))
    assert main(["oracle", "--instance", str(path), "--k", "5"]) == 1
    assert "--force" in capsys.readouterr().err
    assert main(["oracle", "--instance", str(path), "--k", "5", "--force"]) == 0
    assert capsys.readouterr().out.splitlines() == ["optimum: 10", "assign: 0 1 2 3 4"]


def test_oracle_k_below_two_is_input_error(tri_path, capsys):
    rc = main(["oracle", "--instance", str(tri_path), "--k", "1"])
    assert rc == 1
    assert "error: k must be >= 2" in capsys.readouterr().err


def test_oracle_is_refused_from_the_header(tmp_path, capsys):
    # n = 10^6 is above the enumeration guard: the header alone rules it
    # out, so the graph (~100 MB) is never built.
    import tracemalloc

    inst = tmp_path / "header-only.txt"
    inst.write_text("1000000 0\n")
    t0 = time.perf_counter()
    tracemalloc.start()
    try:
        rc = main(["oracle", "--instance", str(inst), "--k", "2"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 1.0
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: instance too large for exhaustive search: n=1000000 > max_n=16;"
        " use --force to override\n"
    )
    assert peak <= 2**20


@pytest.mark.parametrize("force", [[], ["--force"]], ids=["guarded", "forced"])
def test_oracle_reports_k_below_two_before_the_size_guard(tmp_path, capsys, force):
    path = tmp_path / "big.txt"
    path.write_text(write_instance(random_graph(random.Random(0), 20, 0.2)))
    assert main(["oracle", "--instance", str(path), "--k", "1", *force]) == 1
    assert capsys.readouterr().err == "error: k must be >= 2\n"


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


def test_bench_repeated_list_flags_accumulate(tri_path, tmp_path):
    p4 = tmp_path / "p4.txt"
    p4.write_text("4 3\n1 2 1\n2 3 1\n3 4 1\n")
    out = tmp_path / "grid.csv"
    rc = main(["bench", "--instance", str(tri_path), "--instance", str(p4),
               "--strategy", "union", "--strategy", "o1_only", "--rho", "0", "--rho", "1",
               "--runs", "1", "--time-limit", "0.05", "--out", str(out)])
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(row[0], row[4], row[5]) for row in rows] == [
        (name, strategy, rho)
        for name in ("tri.txt", "p4.txt")
        for strategy in ("union", "o1_only")
        for rho in ("0", "1")
    ]


def test_bench_writes_csv_to_stdout_without_out(tri_path, capsys):
    rc = main(["bench", "--instance", str(tri_path), "--runs", "1", "--time-limit", "0.05"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert lines[0].startswith("instance,n,m,k,strategy,rho,")
    assert [line.split(",")[:6] for line in lines[1:]] == [
        ["tri.txt", "3", "3", "2", "sequential", "0.5"]]


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
    ["--max-rounds", "0"],
    ["--max-rounds", "-2"],
])
def test_solve_out_of_range_param_is_input_error(tri_path, capsys, flags):
    rc = main(["solve", "--instance", str(tri_path), "--k", "2",
               "--time-limit", "0.1", *flags])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_solve_max_rounds_stops_the_run(tri_path, capsys):
    rc = main(["solve", "--instance", str(tri_path), "--k", "2",
               "--max-rounds", "2", "--time-limit", "60"])
    assert rc == 0
    assert "rounds: 2 " in capsys.readouterr().out
    # a phi whose phi * m overflows a float still means "scan every edge"
    rc = main(["solve", "--instance", str(tri_path), "--k", "2",
               "--max-rounds", "1", "--phi", "1e308"])
    assert rc == 0
    assert "rounds: 1 " in capsys.readouterr().out


@pytest.mark.parametrize("flags,reason", [
    (["--target", "5", "--time-limit", "60"], "target"),
    (["--max-rounds", "1", "--time-limit", "60"], "max_rounds"),
    (["--time-limit", "0"], "budget"),
], ids=["target", "max-rounds", "budget"])
def test_solve_prints_its_stop_reason(tri_path, capsys, flags, reason):
    rc = main(["solve", "--instance", str(tri_path), "--k", "2", *flags])
    assert rc == 0
    assert f"\nstop_reason: {reason}\n" in capsys.readouterr().out


def test_bench_max_rounds_zero_is_input_error(tri_path, tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = main(["bench", "--instance", str(tri_path), "--k", "2", "--runs", "1",
               "--max-rounds", "0", "--out", str(out)])
    assert rc == 1
    assert "max_rounds" in capsys.readouterr().err
    assert not out.exists()


def test_bench_max_rounds_gives_identical_cuts(tmp_path):
    # A round cap stops every run after the same moves whatever the host's
    # speed, so only the time column may differ between two benches.
    inst = tmp_path / "g.txt"
    inst.write_text(write_instance(random_graph(random.Random(5), 40, 0.2)))
    rows = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        rc = main(["bench", "--instance", str(inst), "--k", "3", "--runs", "3",
                   "--base-seed", "11", "--max-rounds", "3", "--time-limit", "60",
                   "--strategy", "sequential,union", "--out", str(out)])
        assert rc == 0
        rows.append([line.rsplit(",", 1)[0] for line in out.read_text().splitlines()])
    assert len(rows[0]) == 3
    assert rows[0] == rows[1]


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


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_large_k_is_input_error(tmp_path, capsys, command):
    inst = tmp_path / "edgeless.txt"
    inst.write_text("3000 0\n")
    if command == "solve":
        argv = ["solve", "--instance", str(inst)]
    else:
        argv = ["bench", "--instance", str(inst), "--runs", "1"]
    t0 = time.perf_counter()
    rc = main(argv + ["--k", "3000", "--time-limit", "1"])
    assert time.perf_counter() - t0 < 1.0
    assert rc == 1
    assert "gain table needs k*n = 9000000 entries" in capsys.readouterr().err


@pytest.mark.parametrize("command,k,message", [
    pytest.param(command, k, message, id=command + suffix)
    for k, message, suffix in [
        ("9", "above the limit of 8388608", ""),
        ("1", "error: k must satisfy 2 <= k <= n=1000000\n", "-k1"),
    ]
    for command in ["solve", "bench"]
])
def test_large_k_is_refused_from_the_header(tmp_path, capsys, command, k, message):
    # n = 10^6: the header alone rules k = 9 (the gain table) and k = 1 out,
    # so nothing of size n is allocated, the graph included (~100 MB).
    import tracemalloc

    inst = tmp_path / "header-only.txt"
    inst.write_text("1000000 0\n")
    extra = ["--runs", "1"] if command == "bench" else []
    tracemalloc.start()
    try:
        rc = main([command, "--instance", str(inst), "--k", k, *extra])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    assert message in capsys.readouterr().err
    assert peak < 4 * 2**20


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
               "--max-rounds", "4",
               "--strategy", "union", "--out", str(tmp_path / "report.csv")])
    assert rc == 0
    assert [p.seed for p in seen] == [0, 1]
    for p in seen:
        assert (p.omega, p.xi, p.gamma_fraction, p.phi, p.max_rounds) == (7, 9, 0.5, 0.25, 4)
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


def test_bench_starts_no_more_workers_than_runs(tri_path, tmp_path, monkeypatch):
    import concurrent.futures

    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    rc = main(["bench", "--instance", str(tri_path), "--k", "2", "--runs", "2",
               "--jobs", "64", "--max-rounds", "1", "--out", str(tmp_path / "report.csv")])
    assert rc == 0
    assert asked == [2]


def test_cli_import_leaves_the_process_pool_unloaded():
    import maxkcut

    code = ("import sys, maxkcut.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(Path(maxkcut.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


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


def test_solve_help_shows_tuned_defaults(capsys):
    assert main(["solve", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    # the flag's own help line, not the usage line or the choices
    assert re.search(r"--omega OMEGA [^-]*\b500\b", text)
    assert re.search(r"--strategy \{[^}]*\} [^-]*\bsequential\b", text)


@pytest.mark.parametrize("flag,default", [
    ("--runs RUNS", "10"),
    ("--base-seed BASE_SEED", "0"),
    ("--jobs JOBS", "1"),
    ("--rho RHO", "0.5"),
    ("--strategy STRATEGY", "sequential"),
    ("--k K", "2"),
])
def test_bench_help_shows_defaults(capsys, flag, default):
    assert main(["bench", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    # the flag's own help line, up to the next flag
    assert re.search(rf"{flag} (?:(?! --).)*\(default {re.escape(default)}\)", text)


OUTPUT_FLAGS = [
    ("solve", "--solution-out"),
    ("solve", "--trace-out"),
    ("bench", "--out"),
]


@pytest.fixture
def no_search(monkeypatch):
    """Fail the test should a command start the search."""
    import maxkcut.cli

    def search(g, params):
        raise AssertionError("the search ran")

    monkeypatch.setattr(maxkcut.cli, "run_moh", search)


@pytest.mark.parametrize("command,flag", OUTPUT_FLAGS)
def test_unwritable_output_fails_before_search(tri_path, tmp_path, capsys, no_search,
                                              command, flag):
    path = tmp_path / "missing" / "out"
    rc = main([command, "--instance", str(tri_path), "--k", "2", "--time-limit", "60",
               flag, str(path)])
    assert rc == 1
    assert f"error: cannot write {path}" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag", OUTPUT_FLAGS)
def test_empty_output_path_fails_before_search(tri_path, tmp_path, capsys, monkeypatch,
                                               no_search, command, flag):
    # An empty path names no file: it is refused, not taken as "no output"
    # (bench --out "" would print the CSV to stdout).
    monkeypatch.chdir(tmp_path)
    rc = main([command, "--instance", str(tri_path), "--k", "2", "--time-limit", "60",
               flag, ""])
    assert rc == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: an output path is empty\n")
    assert [p.name for p in tmp_path.iterdir()] == [tri_path.name]


def test_readme_python_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("6 ")


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
