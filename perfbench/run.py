"""Seeded benchmark of the maxkcut solver on two G-set-shaped workloads.

Run from the repository root:

    python3 perfbench/run.py --workload dense --seed 1 --seconds 55 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name with its unit, the output checks and the
behaviour fingerprint.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import statistics
import sys
import time
import traceback
from array import array
from dataclasses import dataclass
from pathlib import Path

import instances
from hostspeed import SpeedProbe
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
FINGERPRINTS = HERE / "fingerprints.json"

SETUP_REPEATS = 15  # traced set-ups, for the per-layer set-up metrics
# Safety net only: every solve stops at max_rounds or at its target well
# before this (a few seconds), and a solve that hits it fails its checks.
TIME_LIMIT = 60.0


@dataclass(frozen=True)
class Workload:
    generate: object  # seed -> instance text
    k: int
    solves: int  # search seeds per pass; the pass is the fixed work
    target: int  # cut every solve must reach; time_to_target_s is measured to it
    # Instances per run (at most 10); solve j of a pass runs on instance
    # j % instances, so that one run averages over several instances.
    instances: int = 1
    omega: int = 500
    max_rounds: int | None = None  # None: the solve stops at the target instead
    # Solves that stop at the target, run before each pass solve, for
    # time_to_target_s: with max_rounds a pass solve reaches the target in
    # its first ~0.05 s, too few to time well, so more seeds are run to it.
    target_solves_per_solve: int = 0


# A pass is a few seconds of work, so that a run repeats it several times.
# Each solve's time is its median over the run's passes, which the host's
# speed swings (see hostspeed.py) disturb far less than a single long pass.
#
# omega is lowered on dense so that most of the fixed rounds are
# non-improving rounds of omega + 1 moves.  Rounds that improve end early,
# and with the default omega = 500 a round costs 1 to 500 moves, so the work
# of a fixed round count swings by 2x between seeds; with omega = 50 it
# varies by a few per cent.  The per-move cost profile is unchanged.
WORKLOADS = {
    # The gain engine (apply_single_transfer) and O4 take most of the time.
    # The first ~100 rounds of a solve improve often and end early, so their
    # moves vary by seed; 400 rounds make that head a small share of the
    # fixed work, and two such solves vary far less than five shorter ones.
    "dense": Workload(generate=instances.dense, k=4, solves=2, target=2100,
                      omega=50, max_rounds=400, target_solves_per_solve=5),
    # Through the CLI, to a target: parsing, descent and n = 10^4 memory;
    # apply_single_transfer takes ~3 %, so a gain-engine change shows little.
    # How long the search takes to the fixed target differs by ~15 % between
    # instances, so a run spreads its solves over five of them.
    "sparse-large": Workload(generate=instances.sparse_large, k=2, solves=10, target=8900,
                             instances=5),
}


def load_program():
    """Import the solver from src/ of this checkout, and nothing else."""
    sys.path.insert(0, str(ROOT / "src"))
    import maxkcut
    import maxkcut.buckets
    import maxkcut.cli
    import maxkcut.graph
    import maxkcut.operators
    import maxkcut.partition
    import maxkcut.search
    import maxkcut.tabu

    if not Path(maxkcut.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"maxkcut imported from {maxkcut.__file__}, not {ROOT / 'src'}")
    return maxkcut


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Bench:
    def __init__(self, mk, name: str, seed: int):
        self.mk = mk
        self.name = name
        self.work = WORKLOADS[name]
        self.seed = seed
        self.tracer: Tracer | None = None  # set while the layers are wrapped
        # Checks call the originals, so that tracing never counts them.
        self.evaluate = mk.partition.evaluate
        self.validate = mk.partition.validate
        self.attempted = 0
        self.failed = 0  # solves with a failed check, plus failures outside solves
        self.failures: list[str] = []
        self.moves = array("q")  # applied (v, t) pairs of the current solve

    # -- running ----------------------------------------------------------------

    def span(self, name: str, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(name, fn, *args)

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAIL: {what}")

    def compare(self, reference: list[dict], repeat: list[dict], what: str) -> None:
        for a, b in zip(reference, repeat):
            if a.get("fingerprint") != b.get("fingerprint"):
                self.fail_run(f"seed {a['seed']}: {what} gave another result")

    def fail_run(self, what: str) -> None:
        """A failure outside any one solve; it counts as one failed solve."""
        self.fail(what)
        self.failed += 1

    def setup(self, path: Path):
        """Parse the instance file, draw the initial partition, build the
        gain table: what a solve pays before its first move.  Returns the
        perf_counter interval it took, and the graph."""
        mk = self.mk
        t0 = time.perf_counter()
        g = mk.graph.parse_instance(path.read_text())
        p = mk.partition.random_initial(g, self.work.k, random.Random(self.seed))
        mk.buckets.init_state(g, p)
        return (t0, time.perf_counter()), g

    def solve(self, g, path: Path, search_seed: int, kind: str = "pass") -> dict:
        """One solve, timed, then checked.  In a pass, workloads with
        max_rounds call run_moh and the others run `maxkcut solve --target`;
        a "target" solve calls run_moh with the target as its stop.  A
        "probe" is `maxkcut solve --target` outside the pass: the traced run
        of a max_rounds workload ends with one, so that its cli.* metrics
        are measured too.

        The record holds perf_counter intervals: `interval` of the solve
        and, for a solve that stops at the target, `target_interval` from
        the search's start to the target.  run() turns them into seconds
        once the run's host-speed samples are complete."""
        work = self.work
        self.attempted += 1
        failures = len(self.failures)
        self.moves = array("q")
        gc.collect()
        stops_at_target = kind != "pass" or work.max_rounds is None
        try:
            if kind == "probe" or work.max_rounds is None:
                interval, result, search_end = self.cli_solve(
                    path, search_seed, root=kind == "pass")
            else:
                params = self.mk.search.SearchParams(
                    k=work.k, omega=work.omega, time_limit=TIME_LIMIT, seed=search_seed,
                    max_rounds=None if stops_at_target else work.max_rounds,
                    target_objective=work.target if stops_at_target else None)
                t0 = time.perf_counter()
                result = self.span("bench.solve", self.mk.search.run_moh, g, params)
                search_end = time.perf_counter()
                interval = (t0, search_end)
        except Exception:  # noqa: BLE001 - a crashing solve is a failed solve
            traceback.print_exc()
            interval, result = None, None
        rec = {"seed": search_seed, "interval": interval}
        if result is None:
            self.fail(f"seed {search_seed}: the solve returned no result")
        else:
            rec.update(self.check(g, result, f"seed {search_seed}"))
            # A solve with a target stops on reaching it: the search ended
            # then, and started time_to_target before.
            if stops_at_target and rec["time_to_target"] is not None:
                rec["target_interval"] = (search_end - rec["time_to_target"], search_end)
        rec["ok"] = len(self.failures) == failures
        self.failed += not rec["ok"]
        return rec

    def cli_solve(self, path: Path, search_seed: int, root: bool):
        """`maxkcut solve --target`, then `maxkcut check` on its solution
        file.  Returns the solve command's perf_counter interval, its
        SearchResult and the moment the search returned.  With root, the
        solve is also the bench.solve span of a pass."""
        mk = self.mk
        work = self.work
        sol = OUT / f"{self.name}-{self.seed}-solution.json"
        captured = []
        run_moh = mk.cli.run_moh

        def capture(g, params):
            result = run_moh(g, params)
            captured.append((result, time.perf_counter()))
            return result

        argv = ["solve", "--instance", str(path), "--k", str(work.k),
                "--seed", str(search_seed), "--omega", str(work.omega),
                "--target", str(work.target), "--time-limit", str(TIME_LIMIT),
                "--solution-out", str(sol)]
        mk.cli.run_moh = capture
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                if root:
                    code = self.span("bench.solve", self.span, "cli.solve", mk.cli.main, argv)
                else:
                    code = self.span("cli.solve", mk.cli.main, argv)
                t1 = time.perf_counter()
        finally:
            mk.cli.run_moh = run_moh
        with contextlib.redirect_stdout(io.StringIO()):
            check = self.span("cli.check", mk.cli.main,
                              ["check", "--instance", str(path), "--solution", str(sol)])
        if code != 0:
            self.fail(f"seed {search_seed}: `maxkcut solve` exited {code}")
        if check != 0:
            self.fail(f"seed {search_seed}: `maxkcut check` exited {check}")
        result, search_end = captured[0] if captured else (None, None)
        return (t0, t1), result, search_end

    def check(self, g, result, label: str) -> dict:
        """The per-solve output checks, and the solve's fingerprint."""
        target = self.work.target
        f = self.evaluate(g, result.best_partition)
        if f != result.f_best:
            self.fail(f"{label}: evaluate(best_partition) = {f} != f_best = {result.f_best}")
        report = self.validate(g, result.best_partition)
        if not report.ok:
            self.fail(f"{label}: invalid partition: {report.errors}")
        trace = result.trace
        steps = list(zip(trace, trace[1:]))
        if (any(b[0] < a[0] or b[1] <= a[1] for a, b in steps)
                or trace[-1][1] != result.f_best):
            self.fail(f"{label}: trace is not monotone or does not end at f_best")
        reached = [t for t, value in trace if value >= target]
        if not reached:
            self.fail(f"{label}: target {target} not reached (f_best {result.f_best})")
        fp = (f"{result.total_iterations}:{result.rounds}:{result.f_best}:"
              + sha256(array("q", result.best_partition.assign).tobytes()))
        return {
            "time_to_target": reached[0] if reached else None,
            "iterations": result.total_iterations,
            "rounds": result.rounds,
            "perturbations": result.perturbations,
            "f_best": result.f_best,
            "fingerprint": fp,
            "moves_sha256": sha256(self.moves.tobytes()),
        }


# -- tracing ------------------------------------------------------------------


def install(tracer: Tracer, mk, bench: Bench) -> None:
    """Wrap each layer's public functions at the bindings their callers use."""
    counts = tracer.counts

    def before_apply(args):
        s, v, t = args
        counts["apply.entries"] += len(s.graph.adjacency[v]) * (s.partition.k - 1)
        bench.moves.append(v)  # the buffer is replaced per solve
        bench.moves.append(t)

    def found(key):
        def after(result, args):
            if result is not None:
                counts[key] += 1
        return after

    def op4_after(result, args):
        if result is not None and result.gain > 0:
            counts["op4.improving"] += 1

    def div_after(result, args):  # args: s, tabu, f_lo, ...
        if args[0].f > args[2]:
            counts["diversified.improved"] += 1

    ops, search, buckets = mk.operators, mk.search, mk.buckets
    tracer.timed(ops, "apply_single_transfer", "buckets.apply_single_transfer",
                 before=before_apply)
    tracer.timed(ops, "best_single_transfer", "buckets.best_single_transfer")
    tracer.timed(search, "op1_select", "operators.op1_select", after=found("op1.found"))
    tracer.timed(search, "op2_select", "operators.op2_select", after=found("op2.found"))
    tracer.timed(search, "op3_select", "operators.op3_select")
    tracer.timed(search, "op4_select", "operators.op4_select", after=op4_after)
    tracer.timed(search, "descent_phase", "search.descent_phase")
    tracer.timed(search, "diversified_phase", "search.diversified_phase", after=div_after)
    tracer.timed(search, "perturb", "search.perturb")
    tracer.timed(search, "run_moh", "search.run_moh")
    tracer.timed(mk.cli, "run_moh", "search.run_moh")
    for owner in (search, buckets):
        tracer.timed(owner, "init_state", "buckets.init_state")
    for owner in (search, mk.partition):
        tracer.timed(owner, "random_initial", "partition.random_initial")
    for owner in (mk.graph, mk.cli):
        tracer.timed(owner, "parse_instance", "graph.parse_instance")
    for owner in (buckets, mk.partition, mk.cli):
        tracer.timed(owner, "evaluate", "partition.evaluate")
    tracer.counted(mk.tabu.TabuList, "is_forbidden", "tabu.is_forbidden")
    tracer.counted(mk.tabu.TabuList, "record", "tabu.record")


def layer_metrics(tracer: Tracer, counts: dict, recs: list[dict], m: int,
                  overhead: float, traced_s: float) -> dict:
    """Per-layer metrics of the traced pass (spans under bench.solve), plus
    set-up and CLI spans from the whole traced run."""
    solve = tracer.summary("bench.solve")
    every = tracer.summary(None)

    def row(name, table=solve):
        return table.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "median_s": 0.0})

    def ratio(a, b):
        return a / b if b else 0.0

    apply_ = row("buckets.apply_single_transfer")
    op1, op2 = row("operators.op1_select"), row("operators.op2_select")
    op3, op4 = row("operators.op3_select"), row("operators.op4_select")
    best = row("buckets.best_single_transfer")
    desc, div = row("search.descent_phase"), row("search.diversified_phase")
    parse = row("graph.parse_instance", every)
    root_self = row("bench.solve")["self_s"]
    self_sum = sum(r["self_s"] for r in solve.values())
    vals = {
        "buckets.apply_single_transfer.calls": (apply_["calls"], "count"),
        "buckets.apply_single_transfer.self_s": (apply_["self_s"], "s"),
        "buckets.apply_single_transfer.us_per_call":
            (1e6 * ratio(apply_["self_s"], apply_["calls"]), "us"),
        "buckets.apply_single_transfer.entries": (counts["apply.entries"], "count"),
        "buckets.apply_single_transfer.ns_per_entry":
            (1e9 * ratio(apply_["self_s"], counts["apply.entries"]), "ns"),
        "operators.op4_select.calls": (op4["calls"], "count"),
        "operators.op4_select.self_s": (op4["self_s"], "s"),
        "operators.op4_select.us_per_call": (1e6 * ratio(op4["self_s"], op4["calls"]), "us"),
        "operators.op4_select.hit_ratio": (ratio(counts["op4.improving"], op4["calls"]), "ratio"),
        "operators.op3_select.calls": (op3["calls"], "count"),
        "operators.op3_select.self_s": (op3["self_s"], "s"),
        "operators.op3_select.us_per_call": (1e6 * ratio(op3["self_s"], op3["calls"]), "us"),
        "tabu.is_forbidden.calls": (counts["tabu.is_forbidden"], "count"),
        "tabu.is_forbidden.per_op3": (ratio(counts["tabu.is_forbidden"], op3["calls"]), "ratio"),
        "tabu.record.calls": (counts["tabu.record"], "count"),
        "operators.op2_select.calls": (op2["calls"], "count"),
        "operators.op2_select.self_s": (op2["self_s"], "s"),
        "operators.op2_select.us_per_call": (1e6 * ratio(op2["self_s"], op2["calls"]), "us"),
        "operators.op2_select.hit_ratio": (ratio(counts["op2.found"], op2["calls"]), "ratio"),
        "operators.op1_select.calls": (op1["calls"], "count"),
        "operators.op1_select.self_s": (op1["self_s"], "s"),
        "operators.op1_select.hit_ratio": (ratio(counts["op1.found"], op1["calls"]), "ratio"),
        "buckets.best_single_transfer.calls": (best["calls"], "count"),
        "buckets.best_single_transfer.self_s": (best["self_s"], "s"),
        "graph.parse_instance.s": (parse["median_s"], "s"),
        "graph.parse_instance.edges_per_s": (ratio(m, parse["median_s"]), "1/s"),
        "partition.random_initial.s": (row("partition.random_initial", every)["median_s"], "s"),
        "buckets.init_state.s": (row("buckets.init_state", every)["median_s"], "s"),
        "partition.evaluate.calls": (row("partition.evaluate", every)["calls"], "count"),
        "partition.evaluate.s": (row("partition.evaluate", every)["median_s"], "s"),
        "search.descent_phase.calls": (desc["calls"], "count"),
        "search.descent_phase.s": (desc["s"], "s"),
        "search.descent_phase.self_s": (desc["self_s"], "s"),
        "search.diversified_phase.calls": (div["calls"], "count"),
        "search.diversified_phase.s": (div["s"], "s"),
        "search.diversified_phase.self_s": (div["self_s"], "s"),
        "search.diversified_phase.improve_ratio":
            (ratio(counts["diversified.improved"], div["calls"]), "ratio"),
        "search.perturb.calls": (row("search.perturb")["calls"], "count"),
        "search.moves": (sum(r["iterations"] for r in recs), "count"),
        "search.rounds": (sum(r["rounds"] for r in recs), "count"),
        "cli.solve.s": (row("cli.solve", every)["median_s"], "s"),
        "cli.check.s": (row("cli.check", every)["median_s"], "s"),
        "trace.solve.s": (traced_s, "s"),
        "trace.solve.overhead": (overhead, "ratio"),
        "trace.solve.self_accounted": (ratio(self_sum - root_self, traced_s), "ratio"),
    }
    print("self time under bench.solve, by span:")
    for name, r in sorted(solve.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:34s} calls {r['calls']:8d}  self {r['self_s']:9.4f} s"
              f"  {100 * ratio(r['self_s'], self_sum):5.1f} %")
    print(f"  sum of self times {self_sum:.4f} s = traced solve_s {traced_s:.4f} s"
          f" x {ratio(self_sum, traced_s):.6f}")
    return vals


# -- the run ------------------------------------------------------------------


def run(mk, args) -> int:
    work = WORKLOADS[args.workload]
    bench = Bench(mk, args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    cases = []  # (graph, instance file) per instance
    shas = []
    for i in range(work.instances):
        text = work.generate(args.seed * 10 + i)
        path = OUT / f"{args.workload}-{args.seed}-{i}.txt"
        path.write_text(text)
        shas.append(sha256(text.encode()))
        cases.append((mk.graph.parse_instance(text), path))
        print(f"instance {i}: {path.name} sha256 {shas[-1]}")
    instance_sha = shas[0] if len(shas) == 1 else sha256("\n".join(shas).encode())
    seeds = [args.seed * 1000 + j for j in range(work.solves)]

    def case(j: int):
        return cases[j % len(cases)]

    print(f"workload {args.workload}, instance seeds {args.seed * 10}..{args.seed * 10 + len(cases) - 1}")
    print(f"search seeds {seeds[0]}..{seeds[-1]}, k={work.k}, omega={work.omega}, "
          f"max_rounds={work.max_rounds}, target={work.target}")

    # setup_s is sampled before every untraced solve, target-stopped ones
    # included, so that its median spans the whole run, as the solves do,
    # and not one moment of it.
    setups = []  # perf_counter intervals
    targets = []  # per pass, the target-stopped solves

    def sample_setup(path: Path) -> None:
        gc.collect()
        setups.append(bench.setup(path)[0])

    def setup_then_solve(j: int, search_seed: int) -> dict:
        g, path = case(j)
        # Every untraced pass repeats the same target-stopped seeds.
        per = work.target_solves_per_solve
        for i in range(0 if args.trace else per):
            sample_setup(path)
            targets[-1].append(bench.solve(
                g, path, args.seed * 1000 + 500 + j * per + i, kind="target"))
        sample_setup(path)
        return bench.solve(g, path, search_seed)

    # A traced run measures the untraced reference for its overhead on the
    # first third of the seeds only, which keeps it under twice a pass.
    untraced_seeds = seeds[:max(1, len(seeds) // 3)] if args.trace else seeds
    passes = []
    # The untraced run samples the host's speed throughout and reports
    # every time in reference seconds (see hostspeed.py).  The traced run
    # reports wall seconds: its probe samples would land in the spans.
    probe = None if args.trace else SpeedProbe()
    with probe or contextlib.nullcontext():
        bench.setup(cases[0][1])  # warm-up
        t_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            targets.append([])
            passes.append([setup_then_solve(j, s) for j, s in enumerate(untraced_seeds)])
            now = time.perf_counter()
            # Start another pass only if it can end within the measuring time.
            if args.trace or (now - t_start) + (now - t0) > args.seconds:
                break

    def seconds(interval) -> float:
        if interval is None:
            return float("nan")
        return probe.seconds(*interval) if probe else interval[1] - interval[0]

    for rec in [r for p in passes + targets for r in p]:
        rec["seconds"] = seconds(rec["interval"])
        if "target_interval" in rec:
            rec["time_to_target"] = seconds(rec["target_interval"])
    if probe:
        print(f"host-speed probe: {len(probe.at)} samples, "
              f"{100 * probe.share():.2f} % of the measured time")
    first = passes[0]
    for runs in (passes, targets):
        for later in runs[1:]:
            bench.compare(runs[0], later, "a repeat of the same solve")

    if args.trace:
        # The fixed work with every layer wrapped.  One traced pass keeps
        # the spans in memory small.
        tracer = bench.tracer = Tracer()
        install(tracer, mk, bench)
        try:
            for i in range(SETUP_REPEATS):
                gc.collect()
                tracer.call("bench.setup", bench.setup, case(i)[1])
            tracer.reset_counts()
            traced = [bench.solve(*case(j), s) for j, s in enumerate(seeds)]
            for rec in traced:
                rec["seconds"] = seconds(rec["interval"])
            counts = tracer.snapshot()
            if work.max_rounds is not None:
                bench.solve(*case(0), seeds[0], kind="probe")
        finally:
            bench.tracer = None
            if not tracer.restore():
                bench.fail_run("a wrapped binding was not restored")
        bench.compare(first, traced, "the traced solve")

    ran = [r for r in (traced if args.trace else first) if "fingerprint" in r]
    fingerprint = {
        "instance_sha256": instance_sha,
        "behaviour_sha256": sha256(
            "\n".join(f"{r['seed']}:{r['fingerprint']}" for r in ran).encode()),
    }
    if args.trace:
        fingerprint["moves_sha256"] = sha256(
            "\n".join(f"{r['seed']}:{r['moves_sha256']}" for r in ran).encode())
    for name, value in fingerprint.items():
        print(f"{name} {value}")
    checked = compare_fingerprint(args, fingerprint)

    metrics = {}
    if bench.failed == 0:
        def per_seed_median(runs, key):
            """Per solve of a pass, its median over the passes."""
            return [statistics.median(p[j][key] for p in runs) for j in range(len(runs[0]))]

        solve_s = sum(per_seed_median(passes, "seconds"))
        if not args.trace:
            metrics = {
                "setup_s": (statistics.median(map(seconds, setups)), "s"),
                "solve_s": (solve_s, "s"),
                "moves_per_s": (sum(r["iterations"] for r in first) / solve_s, "1/s"),
                "time_to_target_s": (statistics.fmean(per_seed_median(
                    targets if targets[0] else passes, "time_to_target")), "s"),
                "f_best_median": (statistics.median(r["f_best"] for r in first), "cut"),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
        else:
            overhead = sum(r["seconds"] for r in traced[:len(first)]) / solve_s
            metrics = layer_metrics(tracer, counts, traced, cases[0][0].m, overhead,
                                    sum(r["seconds"] for r in traced))
            metrics["search.fingerprint.changed"] = (
                sum(v == "changed" for v in checked.values()), "count")
            metrics["search.fingerprint.compared"] = (
                sum(v in ("same", "changed") for v in checked.values()), "count")
    attempted, failed = bench.attempted, bench.failed
    print(f"untraced passes: {len(passes)} of {len(first)} solves")
    print(f"fail_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted} solves failed)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    stem = f"{args.workload}-{args.seed}-trace{args.trace}"
    report = dict(result, workload=args.workload, seed=args.seed, instance_sha256s=shas,
                  fingerprint=fingerprint,
                  pass_seconds=[[r.get("seconds") for r in p] for p in passes],
                  fingerprint_check=checked, solves=traced if args.trace else first)
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        tracer.write(OUT / f"{stem}-spans.csv")
    print(json.dumps(result))
    return 0


def compare_fingerprint(args, fingerprint: dict) -> dict[str, str]:
    """Compare each fingerprint with the recorded one for this (workload,
    seed), print the outcome and return it by name: "same", "changed" or
    "none" (no reference).  --record stores this run's instead ("recorded")."""
    key = f"{args.workload}/{args.seed}"
    table = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
    ref = table.get(key, {})
    if args.record:
        table[key] = dict(ref, **fingerprint)
        FINGERPRINTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"fingerprint recorded for {key}")
        return dict.fromkeys(fingerprint, "recorded")
    checked = {}
    for name, value in fingerprint.items():
        if name not in ref:
            checked[name] = "none"
            print(f"fingerprint {name}: no reference for {key}")
        elif ref[name] == value:
            checked[name] = "same"
            print(f"fingerprint {name}: same as reference")
        else:
            checked[name] = "changed"
            print(f"FINGERPRINT CHANGED: {name} for {key} differs from the reference")
    return checked


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; passes of the fixed work repeat within it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's fingerprints in perfbench/fingerprints.json")
    args = parser.parse_args(argv)
    try:
        mk = load_program()
    except ImportError as e:
        print(f"error: cannot import the solver from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    return run(mk, args)


if __name__ == "__main__":
    sys.exit(main())
