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


def _params_from_args(g: Graph, args, seed: int, rho: float, strategy: str) -> SearchParams:
    """SearchParams of one run on g from the search flags.  Out-of-range
    values are input errors."""
    if not (2 <= args.k <= g.n):
        raise InputError(f"k must satisfy 2 <= k <= n={g.n}")
    try:
        check_bucket_cells(g, args.k)
    except ValueError as e:
        raise InputError(str(e)) from e
    time_limit = default_time_limit(g.n) if args.time_limit is None else args.time_limit
    params = SearchParams(
        k=args.k,
        omega=args.omega,
        xi=args.xi,
        rho=rho,
        gamma_fraction=args.gamma_fraction,
        phi=args.phi,
        time_limit=time_limit,
        target_objective=getattr(args, "target", None),
        seed=seed,
        descent_strategy=strategy,
    )
    try:
        params.check()
    except ValueError as e:
        raise InputError(str(e)) from e
    return params


def _check_writable(*paths: str | None) -> None:
    """Open each given output path before the search, so that one that
    cannot be written fails at once rather than after the time budget.
    Append mode leaves an existing file as it is until the results come."""
    for path in filter(None, paths):
        try:
            with open(path, "a"):
                pass
        except OSError as e:
            raise InputError(f"cannot write {path}: {e}") from e


def cmd_solve(args) -> int:
    g = _load_instance(args.instance)
    params = _params_from_args(g, args, args.seed, args.rho, args.strategy)
    _check_writable(args.solution_out, args.trace_out)
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
    # The grid is instance x strategy x rho.  Every instance is parsed once
    # and every run's parameters are checked before the first run, so a bad
    # input fails the bench as a whole.
    cells = []
    run_graphs: list[Graph] = []
    run_params: list[SearchParams] = []
    for path in args.instance:
        g = _load_instance(path)
        for strategy in args.strategy:
            for rho in args.rho:
                cells.append((Path(path).name, g, strategy, rho))
                for r in range(args.runs):
                    run_graphs.append(g)
                    seed = args.base_seed + r
                    run_params.append(_params_from_args(g, args, seed, rho, strategy))
    _check_writable(args.out)

    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(run_moh, run_graphs, run_params))
    else:
        results = list(map(run_moh, run_graphs, run_params))

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(BENCH_COLUMNS)
    for c, (name, g, strategy, rho) in enumerate(cells):
        runs = results[c * args.runs:(c + 1) * args.runs]
        fs = [r.f_best for r in runs]
        writer.writerow(
            [
                name,
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


def _numbers(text: str) -> list[float]:
    """A comma-separated list of numbers, such as bench's --rho grid."""
    values = []
    for token in text.split(","):
        try:
            values.append(float(token))
        except ValueError:
            raise argparse.ArgumentTypeError(f"{token.strip()!r} is not a number") from None
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxkcut", description="Multi-operator local search for max-k-cut"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_search_flags(p):
        p.add_argument("--k", type=int, default=2)
        p.add_argument("--omega", type=int, default=500)
        p.add_argument("--xi", type=int, default=1000)
        p.add_argument("--gamma-fraction", dest="gamma_fraction", type=float, default=0.1)
        p.add_argument("--phi", type=float, default=None,
                       help="O2 edge-sampling fraction (default 0.1/max_degree)")
        p.add_argument("--time-limit", type=float, default=None,
                       help="seconds; default tiers by instance size")

    p_solve = sub.add_parser("solve", help="run the search once on an instance")
    p_solve.add_argument("--instance", required=True)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--target", type=int, default=None,
                         help="stop early when this objective is reached")
    p_solve.add_argument("--solution-out", default=None)
    p_solve.add_argument("--solution-format", choices=["json", "text"], default="json")
    p_solve.add_argument("--trace-out", default=None,
                         help="CSV of (elapsed_seconds, f_best) improvements")
    p_solve.add_argument("--rho", type=float, default=0.5,
                         help="probability of O3 in the diversified phase")
    p_solve.add_argument("--strategy", choices=DESCENT_STRATEGIES, default="sequential")
    add_search_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="seeded multi-run benchmark harness")
    p_bench.add_argument("--instance", nargs="+", required=True, metavar="PATH")
    p_bench.add_argument("--runs", type=int, default=10)
    p_bench.add_argument("--base-seed", type=int, default=0)
    p_bench.add_argument("--jobs", type=int, default=1)
    p_bench.add_argument("--rho", type=_numbers, default=[0.5],
                         help="comma-separated O3 probabilities, one row each")
    p_bench.add_argument("--strategy", type=lambda text: text.split(","),
                         default=["sequential"], help="comma-separated descent strategies "
                         f"out of {', '.join(DESCENT_STRATEGIES)}, one row each")
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on a usage error, 0 after --help
        return 1 if e.code else 0
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
