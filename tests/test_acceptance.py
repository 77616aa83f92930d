"""Acceptance gate: one test per criterion, each printing a PASS line.

Criteria 4 and 5 need the G-set benchmark files (G22, G23, ...) and
multi-minute budgets; they are marked `slow` and `gset` and skip unless
MAXKCUT_GSET_DIR points at a directory holding the instances.  Run them with

    MAXKCUT_GSET_DIR=/path/to/gset pytest -m "slow or gset" tests/test_acceptance.py
"""

from __future__ import annotations

import itertools
import os
import random
import time

import pytest

from maxkcut.buckets import apply_single_transfer, init_state
from maxkcut.cli import main
from maxkcut.graph import Graph, parse_instance
from maxkcut.operators import psi
from maxkcut.oracle import exact_max_kcut
from maxkcut.partition import Partition, evaluate
from maxkcut.search import SearchParams, run_moh

from conftest import (
    brute_gain_table,
    brute_objective,
    bucket_snapshot,
    combined_gain,
    random_graph,
    require_gset,
)

def _report(capsys, line: str) -> None:
    """Print a criterion verdict outside pytest's capture so it always
    appears in the run log."""
    with capsys.disabled():
        print(line)


O1O2_PAPER_BEST = {
    "G22": 13359,
    "G23": 13344,
    "G25": 13340,
    "G29": 3405,
    "G33": 1382,
    "G35": 7687,
    "G36": 7680,
    "G37": 7691,
    "G38": 7688,
    "G40": 2400,
}


def _verify_placement(g, s):
    """O(nk) coherence check: every gain entry exact, every (v, i) in the
    bucket cell of its gain, and no other entry in array i, so no vertex
    sits twice in one array."""
    assign = s.partition.assign
    k = s.partition.k
    expected = brute_gain_table(g, k, assign)
    for (v, i), gain in expected.items():
        assert s.delta[v][i] == gain
        assert v in s.cells[i][gain + s.offset]
    for i in range(k):
        entries = sum(map(len, s.cells[i]))
        assert entries == sum(1 for a in assign if a != i)


def test_criterion_1_gain_algebra_exactness(capsys):
    rng = random.Random(20240501)
    t0 = time.perf_counter()
    for case in range(200):
        n = rng.randint(4, 10)
        density = rng.choice([0.3, 0.7])
        g = random_graph(rng, n, density, -10, 10)
        k = rng.choice([2, 3, 4])
        if k > n:
            k = n
        assign = [rng.randrange(k) for _ in range(n)]
        s = init_state(g, Partition(k=k, assign=assign))
        f_prev = s.f
        for step in range(1000):
            v = rng.randrange(n)
            t = rng.randrange(k - 1)
            if t >= s.partition.assign[v]:
                t += 1
            gain = apply_single_transfer(s, v, t)
            assert s.f == f_prev + gain
            f_prev = s.f
            _verify_placement(g, s)
            if step % 200 == 199:
                assert s.f == brute_objective(g, s.partition.assign)
                assert bucket_snapshot(s) == brute_gain_table(
                    g, k, s.partition.assign
                )
        assert s.f == brute_objective(g, s.partition.assign)
        assert bucket_snapshot(s) == brute_gain_table(g, k, s.partition.assign)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"gain-algebra check took {elapsed:.1f}s (limit 30s)"
    _report(capsys, f"ACCEPTANCE 1 gain-algebra exactness: PASS ({elapsed:.1f}s)")


def test_criterion_2_psi_and_combined_gain_equivalence(capsys):
    t0 = time.perf_counter()
    # indicator psi vs the case table, all valid subset-id combinations
    def case_table(cu, cv, tu, tv):
        if cu == cv:
            return -2 if tu == tv else -1
        if tu == tv:
            return -1
        if tu == cv and tv == cu:
            return 2
        if tu == cv or tv == cu:
            return 1
        return 0

    for cu, cv, tu, tv in itertools.product(range(4), repeat=4):
        if tu == cu or tv == cv:
            continue
        assert psi(cu, cv, tu, tv) == case_table(cu, cv, tu, tv)

    rng = random.Random(77)
    for k in (3, 4):
        edges = [
            (u, v, rng.randint(-10, 10)) for u in range(6) for v in range(u + 1, 6)
        ]
        g = Graph.from_edges(6, edges)
        assign = [rng.randrange(k) for _ in range(6)]
        s = init_state(g, Partition(k=k, assign=assign))
        for u in range(6):
            for v in range(6):
                if v == u:
                    continue
                for tu in range(k):
                    if tu == assign[u]:
                        continue
                    for tv in range(k):
                        if tv == assign[v]:
                            continue
                        after = list(assign)
                        after[u] = tu
                        after[v] = tv
                        diff = brute_objective(g, after) - brute_objective(g, assign)
                        assert combined_gain(s, u, tu, v, tv) == diff
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(capsys, f"ACCEPTANCE 2 psi / combined-gain equivalence: PASS ({elapsed:.1f}s)")


def test_criterion_3_oracle_equivalence(capsys):
    rng = random.Random(31337)
    t0 = time.perf_counter()
    hits = 0
    for run in range(50):
        g = random_graph(rng, 10, rng.choice([0.3, 0.5, 0.7]), -10, 10)
        k = rng.choice([2, 3])
        opt, _ = exact_max_kcut(g, k)
        params = SearchParams(
            k=k, time_limit=2.0, target_objective=opt, seed=run
        )
        result = run_moh(g, params)
        if result.f_best == opt:
            hits += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 150.0
    assert hits >= 48, f"only {hits}/50 runs reached the exact optimum"
    _report(capsys, f"ACCEPTANCE 3 oracle equivalence: PASS ({hits}/50 in {elapsed:.1f}s)")


def _gset_regression(capsys, budget: float, factor: float, needed: int) -> None:
    d = require_gset(*O1O2_PAPER_BEST)
    results = {}
    for name, target in O1O2_PAPER_BEST.items():
        g = parse_instance((d / name).read_text())
        params = SearchParams(
            k=2,
            time_limit=budget,
            seed=1,
            target_objective=target,
        )
        result = run_moh(g, params)
        results[name] = (result.f_best, target)
    ok = sum(1 for f, t in results.values() if f >= factor * t)
    detail = ", ".join(f"{n}:{f}/{t}" for n, (f, t) in results.items())
    assert ok >= needed, (
        f"only {ok}/10 instances reached {factor} x paper value: {detail}"
    )
    _report(capsys, f"ACCEPTANCE 4 paper-value regression ({budget:.0f}s): "
            f"PASS ({ok}/10; {detail})")


@pytest.mark.slow
@pytest.mark.gset
def test_criterion_4_paper_value_regression_quick(capsys):
    _gset_regression(capsys, budget=300.0, factor=0.99, needed=8)


@pytest.mark.slow
@pytest.mark.gset
def test_criterion_4_paper_value_regression_full(capsys):
    _gset_regression(capsys, budget=1800.0, factor=0.997, needed=8)


@pytest.mark.slow
@pytest.mark.gset
def test_criterion_5_ablation_direction(capsys):
    d = require_gset("G22", "G40")
    means = {}
    for strategy in ("sequential", "o1_only"):
        values = []
        for name in ("G22", "G40"):
            g = parse_instance((d / name).read_text())
            for seed in range(10):
                params = SearchParams(
                    k=2, time_limit=300.0, seed=seed, descent_strategy=strategy
                )
                values.append(run_moh(g, params).f_best)
        means[strategy] = sum(values) / len(values)
    assert means["sequential"] >= means["o1_only"], means
    _report(capsys, f"ACCEPTANCE 5 ablation direction: PASS ({means})")


def test_criterion_6_determinism(tmp_path, capsys):
    rng = random.Random(404)
    g = random_graph(rng, 12, 0.5, -5, 5)
    opt, _ = exact_max_kcut(g, 2, max_n=12)
    path = tmp_path / "inst.txt"
    from maxkcut.graph import write_instance

    path.write_text(write_instance(g))
    outs = []
    results = []
    for name in ("one.json", "two.json"):
        sol = tmp_path / name
        rc = main(["solve", "--instance", str(path), "--k", "2",
                   "--time-limit", "30", "--seed", "11", "--target", str(opt),
                   "--solution-out", str(sol)])
        assert rc == 0
        outs.append(sol.read_bytes())
        results.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    f_lines = [
        [ln for ln in text.splitlines()
         if ln.startswith(("f_best", "total_iterations"))]
        for text in results
    ]
    assert f_lines[0] == f_lines[1]
    _report(capsys, "ACCEPTANCE 6 determinism: PASS")


def test_criterion_7_k_monotonicity(capsys):
    wins = 0
    outcomes = []
    for seed in range(10):
        rng = random.Random(1000 + seed)
        # G22-sized: 2000 vertices, ~20000 unit-weight edges
        edges = set()
        while len(edges) < 20000:
            u = rng.randrange(2000)
            v = rng.randrange(2000)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        g = Graph.from_edges(2000, [(u, v, 1) for u, v in edges])
        fs = {}
        for k in (2, 3):
            params = SearchParams(k=k, time_limit=1.0, seed=seed)
            fs[k] = run_moh(g, params).f_best
        outcomes.append((fs[2], fs[3]))
        if fs[3] >= fs[2]:
            wins += 1
    assert wins >= 9, f"k=3 beat k=2 in only {wins}/10 seeds: {outcomes}"
    _report(capsys, f"ACCEPTANCE 7 k-monotonicity: PASS ({wins}/10)")
