"""The three-phase search: descent (O1+O2), diversified tabu phase (O3/O4),
and random perturbation (O5 applied gamma times)."""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

from .buckets import SearchState, init_state
from .graph import Graph
from .operators import (
    apply_move,
    op1_select,
    op2_select,
    op3_select,
    op4_select,
    op5_apply,
)
from .partition import Partition, random_initial
from .tabu import TabuList

DESCENT_STRATEGIES = ("sequential", "o1_only", "union", "random_mix")

# Inner-phase time checks happen every this many applied moves, bounding the
# possible budget overrun of a long phase.
TIME_CHECK_STRIDE = 128


@dataclass
class SearchParams:
    k: int
    omega: int = 500  # max diversified moves per phase
    xi: int = 1000  # non-improving rounds before perturbation
    rho: float = 0.5  # probability of O3 in the diversified phase
    gamma_fraction: float = 0.1  # perturbation strength as fraction of n
    phi: float | None = None  # O2 edge-sampling fraction; None = 0.1/d, 1 = all
    time_limit: float = 1800.0
    target_objective: int | None = None
    max_rounds: int | None = None  # deterministic stop for tests
    seed: int = 0
    descent_strategy: str = "sequential"

    def check(self) -> None:
        if self.k < 2:
            raise ValueError("k must be >= 2")
        # Written so that NaN fails each check.
        if not (self.omega >= 1):
            raise ValueError("omega must be >= 1")
        if not (self.xi >= 1):
            raise ValueError("xi must be >= 1")
        if self.max_rounds is not None and not (self.max_rounds >= 1):
            raise ValueError("max_rounds must be >= 1")
        if not (0.0 <= self.rho <= 1.0):
            raise ValueError("rho must be in [0, 1]")
        if not (0.0 < self.gamma_fraction <= 1.0):
            raise ValueError("gamma_fraction must be in (0, 1]")
        if self.phi is not None and not (0.0 < self.phi < math.inf):
            raise ValueError("phi must be finite and > 0")
        if not (self.time_limit >= 0.0):
            raise ValueError("time_limit must be >= 0")
        if self.descent_strategy not in DESCENT_STRATEGIES:
            raise ValueError(f"unknown descent strategy {self.descent_strategy!r}")


@dataclass
class SearchResult:
    best_partition: Partition
    f_best: int
    time_to_best: float
    total_iterations: int
    rounds: int
    perturbations: int
    trace: list[tuple[float, int]] = field(default_factory=list)


class _StopSearch(Exception):
    pass


class _BestTracker:
    """Records the best solution at every applied move and enforces the
    time budget and optional target objective."""

    __slots__ = ("f_best", "best_assign", "t0", "time_limit", "target",
                 "time_to_best", "trace", "_countdown")

    def __init__(self, s: SearchState, time_limit: float, target: int | None):
        self.f_best = s.f
        self.best_assign = list(s.partition.assign)
        self.t0 = time.perf_counter()
        self.time_limit = time_limit
        self.target = target
        self.time_to_best = 0.0
        self.trace: list[tuple[float, int]] = [(0.0, s.f)]
        self._countdown = TIME_CHECK_STRIDE

    def note(self, s: SearchState) -> None:
        if s.f > self.f_best:
            self.f_best = s.f
            self.best_assign = list(s.partition.assign)
            self.time_to_best = time.perf_counter() - self.t0
            self.trace.append((self.time_to_best, s.f))
            if self.target is not None and self.f_best >= self.target:
                raise _StopSearch
        self._countdown -= 1
        if self._countdown <= 0:
            self._countdown = TIME_CHECK_STRIDE
            self.check_stop()

    def check_stop(self) -> None:
        """Raise _StopSearch once the target is reached or the budget spent."""
        if self.target is not None and self.f_best >= self.target:
            raise _StopSearch
        if time.perf_counter() - self.t0 >= self.time_limit:
            raise _StopSearch


def _o2_edge_cap(g: Graph, params: SearchParams) -> int | None:
    """Number of edges O2 may scan; None when it scans every edge."""
    phi = params.phi
    if phi is None:
        phi = 0.1 / max(1, g.max_degree)  # edgeless: m = 0, every edge is scanned
    cap = max(1, math.ceil(phi * g.m))
    return cap if cap < g.m else None


def descent_phase(
    s: SearchState,
    params: SearchParams,
    rng: random.Random,
    tracker: _BestTracker,
) -> None:
    """Greedy improvement until no operator of the chosen strategy yields a
    positive-gain move.

    sequential: O1 first, O2 when O1 has no improving move; o1_only: O1
    alone; union: the better of the O1 and O2 moves, O1 on equal gain;
    random_mix: O1 or O2 first with equal probability, then the other.
    """
    cap = _o2_edge_cap(s.graph, params)
    strategy = params.descent_strategy
    while True:
        if strategy == "union":
            m1 = op1_select(s, rng)
            m2 = op2_select(s, rng, cap)
            move = m2 if m1 is None or (m2 is not None and m2.gain > m1.gain) else m1
        elif strategy == "o1_only":
            move = op1_select(s, rng)
        elif strategy == "sequential" or rng.random() < 0.5:
            move = op1_select(s, rng)
            if move is None:
                move = op2_select(s, rng, cap)
        else:
            move = op2_select(s, rng, cap)
            if move is None:
                move = op1_select(s, rng)
        if move is None:
            return
        apply_move(s, move)
        tracker.note(s)


def diversified_phase(
    s: SearchState,
    tabu: TabuList,
    f_lo: int,
    params: SearchParams,
    rng: random.Random,
    tracker: _BestTracker,
) -> None:
    """Tabu-guided O3/O4 moves until a solution better than the entry local
    optimum is found or omega moves have been made.  The tabu list is
    cleared on exit."""
    c_div = 0
    try:
        while True:
            if rng.random() < params.rho:
                move = op3_select(s, tabu, tracker.f_best, rng)
            else:
                move = op4_select(s, rng)
                if move is None:
                    move = op3_select(s, tabu, tracker.f_best, rng)
            apply_move(s, move)
            for tr in (move.first, move.second):
                if tr is not None:
                    tabu.record(tr.vertex, tr.origin, s.iter, rng)
            tracker.note(s)
            c_div += 1
            if c_div > params.omega or s.f > f_lo:
                return
    finally:
        tabu.clear()


def perturb(
    s: SearchState,
    params: SearchParams,
    rng: random.Random,
    tracker: _BestTracker,
) -> None:
    """Apply gamma = max(1, round(gamma_fraction * n)) random transfers."""
    gamma = max(1, round(params.gamma_fraction * s.graph.n))
    for _ in range(gamma):
        op5_apply(s, rng)
        tracker.note(s)


def run_moh(g: Graph, params: SearchParams) -> SearchResult:
    """Full search: random initial solution, then rounds of descent and
    diversified phases with perturbation after xi non-improving rounds,
    until the time budget or target objective is reached."""
    params.check()
    rng = random.Random(params.seed)
    p = random_initial(g, params.k, rng)
    s = init_state(g, p)
    tabu = TabuList(g.n)
    tracker = _BestTracker(s, params.time_limit, params.target_objective)
    rounds = 0
    perturbations = 0
    c_non_impv = 0
    try:
        while True:
            tracker.check_stop()
            before = tracker.f_best
            descent_phase(s, params, rng, tracker)
            f_lo = s.f
            if tracker.f_best > before:
                c_non_impv = 0
            else:
                c_non_impv += 1
            rounds += 1
            diversified_phase(s, tabu, f_lo, params, rng, tracker)
            if c_non_impv > params.xi:
                perturb(s, params, rng, tracker)
                perturbations += 1
                c_non_impv = 0
            if params.max_rounds is not None and rounds >= params.max_rounds:
                break
    except _StopSearch:
        pass
    return SearchResult(
        best_partition=Partition(k=params.k, assign=tracker.best_assign),
        f_best=tracker.f_best,
        time_to_best=tracker.time_to_best,
        total_iterations=s.iter,
        rounds=rounds,
        perturbations=perturbations,
        trace=tracker.trace,
    )
