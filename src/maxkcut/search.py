"""The three-phase search: descent (O1+O2), diversified tabu phase (O3/O4),
and random perturbation (O5 applied gamma times)."""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from operator import index

from .buckets import SearchState, check_table, init_state
from .graph import Graph
from .operators import (
    Transfer,
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


def default_time_limit(n: int) -> float:
    """Budget tiers by instance size: 30 min below n = 5000, 2 h below 10000, else 4 h."""
    return 1800.0 if n < 5000 else 7200.0 if n < 10000 else 14400.0


def check_k(k: int, n: int, w: int = 0) -> None:
    """Raise ValueError unless 2 <= k <= n and buckets.check_table(k, n, w)
    passes; the CLI calls it on an instance's header, with w = 0."""
    if not (2 <= k <= n):
        raise ValueError(f"k must satisfy 2 <= k <= n={n}")
    check_table(k, n, w)


@dataclass
class SearchParams:
    k: int
    omega: int = 500  # a diversified phase ends after at most omega + 1 moves
    xi: int = 1000  # non-improving rounds before perturbation
    rho: float = 0.5  # probability of O3 in the diversified phase
    gamma_fraction: float = 0.1  # perturbation strength as fraction of n
    phi: float | None = None  # O2 edge-sampling fraction; None = 0.1/d, 1 = all
    time_limit: float | None = None  # seconds; None = default_time_limit(n)
    target_objective: int | None = None
    max_rounds: int | None = None  # stop after this many rounds; None = no limit
    seed: int = 0
    descent_strategy: str = "sequential"

    def check(self, g: Graph) -> None:
        """Raise ValueError unless these parameters fit a run on g.  The
        counts k, omega, xi and max_rounds and the target_objective are
        converted to int."""
        counts = ("k", "omega", "xi") + tuple(
            name for name in ("max_rounds", "target_objective") if getattr(self, name) is not None
        )
        for name in counts:
            try:
                setattr(self, name, index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
        check_k(self.k, g.n, g.max_abs_incident_weight)
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
        if self.time_limit is not None and not (self.time_limit >= 0.0):
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
    stop_reason: str  # "target", "budget" (the time limit) or "max_rounds"
    trace: list[tuple[float, int]] = field(default_factory=list)


class _StopSearch(Exception):
    """Ends a run; args[0] is the stop reason, "target" or "budget"."""


class _BestTracker:
    """Keeps the first partition that reached the best f seen, and enforces
    the time budget and optional target objective.

    Each applied move is noted with its transfers.  While the state sits at
    f_best, the live assignment is the best one and nothing is copied; the
    first move that leaves it copies the assignment once and undoes that
    move's transfers in the copy."""

    __slots__ = ("f_best", "_best_assign", "_at_best", "t0", "time_limit",
                 "target", "trace", "_countdown")

    def __init__(self, s: SearchState, time_limit: float, target: int | None):
        self.f_best = s.f
        self._best_assign: list[int] = []
        self._at_best = True
        self.t0 = time.perf_counter()
        self.time_limit = time_limit
        self.target = math.inf if target is None else target
        self.trace: list[tuple[float, int]] = [(0.0, s.f)]
        self._countdown = TIME_CHECK_STRIDE

    def note(self, s: SearchState, first: Transfer, second: Transfer | None = None) -> None:
        """Record the move of transfers first (and second) just applied to s."""
        if s.f > self.f_best:
            self.f_best = s.f
            self._at_best = True
            self.trace.append((time.perf_counter() - self.t0, s.f))
            if self.f_best >= self.target:
                raise _StopSearch("target")
        elif self._at_best:
            best = self._best_assign = list(s.partition.assign)
            if second is not None:
                best[second.vertex] = second.origin
            best[first.vertex] = first.origin
            self._at_best = False
        self._countdown -= 1
        if self._countdown <= 0:
            self._countdown = TIME_CHECK_STRIDE
            self.check_stop()

    def best_assign(self, s: SearchState) -> list[int]:
        """The best partition's assignment, given the current state s."""
        return list(s.partition.assign) if self._at_best else self._best_assign

    def check_stop(self) -> None:
        """Raise _StopSearch once the target is reached or the budget spent."""
        if self.f_best >= self.target:
            raise _StopSearch("target")
        if time.perf_counter() - self.t0 >= self.time_limit:
            raise _StopSearch("budget")


def _o2_edge_cap(g: Graph, params: SearchParams) -> int | None:
    """Number of edges O2 may scan; None when it scans every edge."""
    phi = params.phi
    if phi is None:
        phi = 0.1 / max(1, g.max_degree)  # edgeless: m = 0, every edge is scanned
    # min: phi >= 1 scans every edge, and a large finite phi * m overflows
    cap = max(1, math.ceil(min(phi, 1.0) * g.m))
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
            # A Move is a non-empty tuple, always true: `or` falls back on None.
            move = op1_select(s, rng) or op2_select(s, rng, cap)
        else:
            move = op2_select(s, rng, cap) or op1_select(s, rng)
        if move is None:
            return
        apply_move(s, move)
        tracker.note(s, move.first, move.second)


def diversified_phase(
    s: SearchState,
    tabu: TabuList,
    f_lo: int,
    params: SearchParams,
    rng: random.Random,
    tracker: _BestTracker,
) -> None:
    """Tabu-guided O3/O4 moves until a solution better than the entry local
    optimum is found or omega + 1 moves have been made.  The tabu list is
    cleared when the phase ends; a stop of the search leaves it as it is."""
    c_div = 0
    while True:
        move = (rng.random() >= params.rho and op4_select(s, rng)) or op3_select(
            s, tabu, tracker.f_best, rng)
        apply_move(s, move)
        for tr in (move.first, move.second):
            if tr is not None:
                tabu.record(tr.vertex, tr.origin, s.iter, rng)
        tracker.note(s, move.first, move.second)
        c_div += 1
        if c_div > params.omega or s.f > f_lo:
            tabu.clear()
            return


def perturb(
    s: SearchState,
    params: SearchParams,
    rng: random.Random,
    tracker: _BestTracker,
) -> None:
    """Apply gamma = max(1, round(gamma_fraction * n)) random transfers."""
    gamma = max(1, round(params.gamma_fraction * s.graph.n))
    for _ in range(gamma):
        tracker.note(s, op5_apply(s, rng))


def run_moh(g: Graph, params: SearchParams) -> SearchResult:
    """Full search: random initial solution, then rounds of descent and
    diversified phases with perturbation after xi non-improving rounds,
    until the time budget or target objective is reached."""
    params.check(g)
    rng = random.Random(params.seed)
    p = random_initial(g, params.k, rng)
    s = init_state(g, p)
    tabu = TabuList(g.n)
    time_limit = default_time_limit(g.n) if params.time_limit is None else params.time_limit
    max_rounds = math.inf if params.max_rounds is None else params.max_rounds
    tracker = _BestTracker(s, time_limit, params.target_objective)
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
            if rounds >= max_rounds:
                stop_reason = "max_rounds"
                break
    except _StopSearch as stop:
        stop_reason = stop.args[0]
    return SearchResult(
        best_partition=Partition(k=params.k, assign=tracker.best_assign(s)),
        f_best=tracker.f_best,
        time_to_best=tracker.trace[-1][0],
        total_iterations=s.iter,
        rounds=rounds,
        perturbations=perturbations,
        stop_reason=stop_reason,
        trace=tracker.trace,
    )
