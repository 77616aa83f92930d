"""Command-line toolchain: solve, bench, check, oracle.

Exit codes: 0 success, 1 input/usage error, 2 internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

from .buckets import check_bucket_cells
from .graph import Graph, GraphFormatError, parse_instance
from .oracle import OracleGuardError, exact_max_kcut
from .partition import (
    Partition,
    evaluate,
    solution_from_json,
    solution_from_text,
    solution_to_json,
    solution_to_text,
    validate,
)
from .search import DESCENT_STRATEGIES, SearchParams, run_moh

BENCH_COLUMNS = [
    "instance",
    "n",
    "m",
    "k",
    "strategy",
    "rho",
    "runs",
    "f_best",
    "f_avg",
    "std",
    "avg_time_to_best_seconds",
]


class InputError(Exception):
    pass


def default_time_limit(n: int) -> float:
    """Budget tiers by instance size: 30 min, 2 h, 4 h."""
    if n < 5000:
        return 1800.0
    if n < 10000:
        return 7200.0
    return 14400.0


def _load_instance(path: str) -> Graph:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise InputError(f"cannot read instance {path}: {e}") from e
    try:
        return parse_instance(text)
    except GraphFormatError as e:
        raise InputError(f"invalid instance {path}: {e}") from e


def _params_from_args(g: Graph, args, seed: int, **overrides) -> SearchParams:
    """SearchParams of one run on g from the search flags, with overrides
    for the fields a bench ablation varies.  Out-of-range values are input
    errors."""
    if not (2 <= args.k <= g.n):
        raise InputError(f"k must satisfy 2 <= k <= n={g.n}")
    try:
        check_bucket_cells(g, args.k)
    except ValueError as e:
        raise InputError(str(e)) from e
    time_limit = args.time_limit
    if time_limit is None:
        time_limit = 60.0 if args.quick else default_time_limit(g.n)
    params = SearchParams(
        k=args.k,
        omega=args.omega,
        xi=args.xi,
        rho=args.rho,
        gamma_fraction=args.gamma_fraction,
        phi=args.phi,
        time_limit=time_limit,
        target_objective=getattr(args, "target", None),
        seed=seed,
        descent_strategy=args.strategy,
    )
    params = replace(params, **overrides)
    try:
        params.check()
    except ValueError as e:
        raise InputError(str(e)) from e
    return params


def cmd_solve(args) -> int:
    g = _load_instance(args.instance)
    params = _params_from_args(g, args, args.seed)
    result = run_moh(g, params)
    print(f"instance: {args.instance}")
    print(f"n: {g.n}  m: {g.m}  k: {args.k}")
    print(f"f_best: {result.f_best}")
    print(f"time_to_best_seconds: {result.time_to_best:.3f}")
    print(f"total_iterations: {result.total_iterations}")
    print(f"rounds: {result.rounds}  perturbations: {result.perturbations}")
    report = validate(g, result.best_partition)
    for warning in report.warnings:
        print(f"warning: {warning}")
    if args.solution_out:
        name = Path(args.instance).name
        if args.solution_format == "json":
            payload = solution_to_json(name, g, result.best_partition)
        else:
            payload = solution_to_text(result.best_partition)
        Path(args.solution_out).write_text(payload)
    if args.trace_out:
        with open(args.trace_out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["elapsed_seconds", "f_best"])
            for elapsed, f in result.trace:
                writer.writerow([f"{elapsed:.3f}", f])
    return 0


def cmd_bench(args) -> int:
    if args.runs < 1:
        raise InputError("--runs must be >= 1")
    if args.jobs < 1:
        raise InputError("--jobs must be >= 1")
    if args.instances:
        names = [s.strip() for s in args.instances.split(",") if s.strip()]
        base = Path(args.dir) if args.dir else Path(".")
        paths = []
        for name in names:
            found = [c for c in (base / name, base / f"{name}.txt", base / f"{name}.dat")
                     if c.exists()]
            if not found:
                raise InputError(f"instance {name} not found under {base}")
            paths.append(found[0])
    elif args.dir:
        paths = sorted(p for p in Path(args.dir).iterdir() if p.is_file())
        if not paths:
            raise InputError(f"no instance files in {args.dir}")
    else:
        raise InputError("bench needs --dir or --instances")

    strategies = [args.strategy]
    if args.ablate == "descent":
        strategies = ["o1_only", "union", "random_mix", "sequential"]
    rhos = [args.rho]
    if args.ablate == "rho":
        rhos = []
        for token in args.rho_values.split(","):
            try:
                rhos.append(float(token))
            except ValueError:
                raise InputError(f"--rho-values: {token.strip()!r} is not a number") from None

    # Every instance is parsed once and every run's parameters are checked
    # before the first run, so a bad input fails the bench as a whole.
    cells = []
    run_graphs: list[Graph] = []
    run_params: list[SearchParams] = []
    for path in paths:
        g = _load_instance(str(path))
        for strategy in strategies:
            for rho in rhos:
                cells.append((path, g, strategy, rho))
                for r in range(args.runs):
                    run_graphs.append(g)
                    run_params.append(_params_from_args(
                        g, args, args.base_seed + r, rho=rho, descent_strategy=strategy
                    ))

    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(run_moh, run_graphs, run_params))
    else:
        results = list(map(run_moh, run_graphs, run_params))

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(BENCH_COLUMNS)
    for c, (path, g, strategy, rho) in enumerate(cells):
        runs = results[c * args.runs:(c + 1) * args.runs]
        fs = [r.f_best for r in runs]
        writer.writerow(
            [
                path.name,
                g.n,
                g.m,
                args.k,
                strategy,
                f"{rho:g}",
                len(runs),
                max(fs),
                f"{statistics.fmean(fs):.2f}",
                f"{statistics.pstdev(fs):.2f}",
                f"{statistics.fmean(r.time_to_best for r in runs):.2f}",
            ]
        )
    payload = buf.getvalue()
    if args.out:
        Path(args.out).write_text(payload)
    else:
        sys.stdout.write(payload)
    return 0


def cmd_check(args) -> int:
    g = _load_instance(args.instance)
    try:
        text = Path(args.solution).read_text()
    except OSError as e:
        raise InputError(f"cannot read solution {args.solution}: {e}") from e
    k, claimed = args.k, args.objective
    try:
        if text.lstrip().startswith("{"):
            _, k, claimed, assign = solution_from_json(text)
        else:
            assign = solution_from_text(text)
    except ValueError as e:
        raise InputError(f"invalid solution {args.solution}: {e}") from e
    flags = (("--k", args.k, k), ("--objective", args.objective, claimed))
    for flag, given, found in flags:
        if given is not None and given != found:
            raise InputError(f"{flag} {given} disagrees with {found} in {args.solution}")
    if k is None:
        raise InputError("plain-text solutions need --k")
    p = Partition(k=k, assign=assign)
    report = validate(g, p)
    if not report.ok:
        raise InputError("; ".join(report.errors))
    f = evaluate(g, p)
    for warning in report.warnings:
        print(f"warning: {warning}")
    if claimed is None:
        print(f"objective: {f}")
        print("PASS (no claimed value to compare)")
        return 0
    if f == claimed:
        print(f"PASS: recomputed objective {f} matches claimed value")
        return 0
    print(f"FAIL: recomputed objective {f} != claimed {claimed}")
    return 1


def cmd_oracle(args) -> int:
    g = _load_instance(args.instance)
    kwargs = {}
    if args.force:
        kwargs = {"max_n": g.n, "max_k": args.k}
    try:
        opt, p = exact_max_kcut(g, args.k, **kwargs)
    except OracleGuardError as e:
        raise InputError(f"{e} (use --force to override)") from e
    except ValueError as e:
        raise InputError(str(e)) from e
    print(f"optimum: {opt}")
    print(f"assign: {' '.join(str(s) for s in p.assign)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxkcut", description="Multi-operator local search for max-k-cut"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_search_flags(p):
        p.add_argument("--k", type=int, default=2)
        p.add_argument("--omega", type=int, default=500)
        p.add_argument("--xi", type=int, default=1000)
        p.add_argument("--rho", type=float, default=0.5)
        p.add_argument("--gamma-fraction", dest="gamma_fraction", type=float, default=0.1)
        p.add_argument("--phi", type=float, default=None,
                       help="O2 edge-sampling fraction (default 0.1/max_degree)")
        p.add_argument("--strategy", choices=DESCENT_STRATEGIES, default="sequential")
        p.add_argument("--time-limit", type=float, default=None,
                       help="seconds; default tiers by instance size")
        p.add_argument("--quick", action="store_true", help="60 s budget profile")

    p_solve = sub.add_parser("solve", help="run the search once on an instance")
    p_solve.add_argument("--instance", required=True)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--target", type=int, default=None,
                         help="stop early when this objective is reached")
    p_solve.add_argument("--solution-out", default=None)
    p_solve.add_argument("--solution-format", choices=["json", "text"], default="json")
    p_solve.add_argument("--trace-out", default=None,
                         help="CSV of (elapsed_seconds, f_best) improvements")
    add_search_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="seeded multi-run benchmark harness")
    p_bench.add_argument("--dir", default=None)
    p_bench.add_argument("--instances", default=None,
                         help="comma-separated instance names under --dir")
    p_bench.add_argument("--runs", type=int, default=10)
    p_bench.add_argument("--base-seed", type=int, default=0)
    p_bench.add_argument("--jobs", type=int, default=1)
    p_bench.add_argument("--ablate", choices=["none", "descent", "rho"], default="none")
    p_bench.add_argument("--rho-values", default="0,0.5,1")
    p_bench.add_argument("--out", default=None, help="CSV output path (default stdout)")
    add_search_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_check = sub.add_parser("check", help="verify a solution file")
    p_check.add_argument("--instance", required=True)
    p_check.add_argument("--solution", required=True)
    p_check.add_argument("--k", type=int, default=None)
    p_check.add_argument("--objective", type=int, default=None)
    p_check.set_defaults(func=cmd_check)

    p_oracle = sub.add_parser("oracle", help="exact optimum for tiny instances")
    p_oracle.add_argument("--instance", required=True)
    p_oracle.add_argument("--k", type=int, default=2)
    p_oracle.add_argument("--force", action="store_true",
                          help="override the enumeration size guard")
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
