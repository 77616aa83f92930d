import hashlib
import math
import random

import pytest

from maxkcut import search
from maxkcut.buckets import init_state
from maxkcut.graph import Graph
from maxkcut.oracle import exact_max_kcut
from maxkcut.partition import Partition, evaluate, validate
from maxkcut.search import (
    SearchParams,
    _BestTracker,
    descent_phase,
    diversified_phase,
    perturb,
    run_moh,
)
from maxkcut.tabu import TabuList

from conftest import brute_gain_table, brute_objective, random_graph


def make_params(**kw):
    defaults = dict(k=2, time_limit=5.0, seed=0)
    defaults.update(kw)
    return SearchParams(**defaults)


def tracker(s):
    return _BestTracker(s, time_limit=5.0, target=None)


def test_descent_triangle(triangle):
    s = init_state(triangle, Partition(k=2, assign=[0, 1, 0]))
    assert s.f == 4
    descent_phase(s, make_params(phi=1.0), random.Random(0), tracker(s))
    assert s.f == 5


def test_descent_needs_o2_for_swap(square4):
    s = init_state(square4, Partition(k=2, assign=[0, 1, 0, 1]))
    descent_phase(s, make_params(phi=1.0), random.Random(0), tracker(s))
    assert s.f == 10


def test_descent_o1_only_stalls_on_swap(square4):
    s = init_state(square4, Partition(k=2, assign=[0, 1, 0, 1]))
    descent_phase(s, make_params(descent_strategy="o1_only"), random.Random(0), tracker(s))
    assert s.f == 6  # the +4 swap needs a double transfer


def test_descent_noop_at_optimum(triangle):
    s = init_state(triangle, Partition(k=3, assign=[0, 1, 2]))
    it0 = s.iter
    descent_phase(s, make_params(k=3, phi=1.0), random.Random(0), tracker(s))
    assert s.iter == it0


@pytest.mark.parametrize("strategy", ["sequential", "o1_only", "union", "random_mix"])
def test_descent_leaves_no_positive_single_transfer(strategy):
    rng = random.Random(21)
    for _ in range(10):
        g = random_graph(rng, rng.randint(4, 9), 0.6)
        k = rng.randint(2, min(4, g.n))
        assign = [rng.randrange(k) for _ in range(g.n)]
        s = init_state(g, Partition(k=k, assign=assign))
        params = make_params(k=k, descent_strategy=strategy, phi=1.0)
        descent_phase(s, params, rng, tracker(s))
        table = brute_gain_table(g, k, s.partition.assign)
        assert max(table.values()) <= 0


def test_diversified_rho_extremes():
    rng0 = random.Random(4)
    g = random_graph(rng0, 12, 0.4)
    for rho, expect_double in ((1.0, False), (0.0, True)):
        rng = random.Random(5)
        assign = [rng.randrange(3) for _ in range(12)]
        s = init_state(g, Partition(k=3, assign=assign))
        tabu = TabuList(g.n)
        params = make_params(k=3, rho=rho, omega=20)
        iters_before = s.iter
        diversified_phase(s, tabu, 10**9, params, rng, tracker(s))
        moves = s.iter - iters_before
        if expect_double:
            # O4 applies two transfers per move (when a pair exists)
            assert moves >= 2
        else:
            assert moves >= 1
        assert not tabu.expiry  # cleared on exit


def test_diversified_exits_on_improvement(square4):
    # entering at f=6 with f_lo=6: the O4/O3 move finding f>6 ends the phase
    rng = random.Random(0)
    s = init_state(square4, Partition(k=2, assign=[0, 1, 0, 1]))
    tabu = TabuList(4)
    params = make_params(omega=500, rho=0.0)
    diversified_phase(s, tabu, 6, params, rng, tracker(s))
    assert s.f > 6


def test_diversified_move_count_boundary():
    g = Graph.from_edges(4, [])  # no improvement possible, f stays 0
    rng = random.Random(1)
    s = init_state(g, Partition(k=2, assign=[0, 1, 0, 1]))
    tabu = TabuList(4)
    params = make_params(omega=5, rho=1.0)
    it0 = s.iter
    diversified_phase(s, tabu, 0, params, rng, tracker(s))
    # exit at c_div > omega: exactly omega + 1 O3 moves applied
    assert s.iter - it0 == 6


def test_perturb_strength():
    rng = random.Random(2)
    g = random_graph(rng, 30, 0.3)
    assign = [rng.randrange(2) for _ in range(30)]
    s = init_state(g, Partition(k=2, assign=assign))
    it0 = s.iter
    perturb(s, make_params(gamma_fraction=0.1), rng, tracker(s))
    assert s.iter - it0 == 3


def test_perturb_clamped_to_one():
    g = Graph.from_edges(5, [])
    rng = random.Random(3)
    s = init_state(g, Partition(k=2, assign=[0, 0, 1, 1, 0]))
    it0 = s.iter
    perturb(s, make_params(gamma_fraction=0.1), rng, tracker(s))
    assert s.iter - it0 == 1


def test_perturb_keeps_f_coherent():
    rng = random.Random(4)
    g = random_graph(rng, 20, 0.4)
    assign = [rng.randrange(3) for _ in range(20)]
    s = init_state(g, Partition(k=3, assign=assign))
    perturb(s, make_params(k=3), rng, tracker(s))
    assert s.f == brute_objective(g, s.partition.assign)


def _assert_best_consistent(g, result):
    assert evaluate(g, result.best_partition) == result.f_best == result.trace[-1][1]
    assert validate(g, result.best_partition).ok


def test_run_triangle_reaches_optimum(triangle):
    result = run_moh(triangle, make_params(time_limit=1.0, target_objective=5))
    assert result.f_best == 5
    assert evaluate(triangle, result.best_partition) == 5


def test_run_square4_reaches_optimum(square4):
    result = run_moh(square4, make_params(time_limit=1.0, target_objective=10))
    assert result.f_best == 10


def test_run_best_is_consistent_and_trace_monotone():
    rng = random.Random(6)
    g = random_graph(rng, 15, 0.4)
    result = run_moh(g, make_params(k=3, time_limit=0.3, seed=5))  # stops on budget
    _assert_best_consistent(g, result)
    values = [f for _, f in result.trace]
    assert values == sorted(values)


def test_run_determinism():
    rng = random.Random(7)
    g = random_graph(rng, 12, 0.5)
    opt, _ = exact_max_kcut(g, 2, max_n=12)
    runs = [
        run_moh(g, make_params(time_limit=10.0, seed=42, target_objective=opt))
        for _ in range(2)
    ]
    assert runs[0].f_best == runs[1].f_best
    assert runs[0].total_iterations == runs[1].total_iterations
    assert runs[0].best_partition.assign == runs[1].best_partition.assign


def test_run_max_rounds_stop():
    rng = random.Random(8)
    g = random_graph(rng, 10, 0.5)
    result = run_moh(g, make_params(time_limit=100.0, max_rounds=3, seed=1))
    assert result.rounds == 3
    _assert_best_consistent(g, result)


def test_run_invalid_params(triangle):
    with pytest.raises(ValueError):
        run_moh(triangle, make_params(rho=1.5))
    with pytest.raises(ValueError):
        run_moh(triangle, make_params(omega=0))
    with pytest.raises(ValueError, match="phi"):
        run_moh(triangle, make_params(phi=0.0))
    with pytest.raises(ValueError, match="phi"):
        run_moh(triangle, make_params(phi=math.nan))
    with pytest.raises(ValueError, match="phi"):
        run_moh(triangle, make_params(phi=math.inf))
    with pytest.raises(ValueError, match="time_limit"):
        run_moh(triangle, make_params(time_limit=-1.0))
    with pytest.raises(ValueError, match="time_limit"):
        run_moh(triangle, make_params(time_limit=math.nan, max_rounds=1))
    make_params(time_limit=math.inf).check()
    with pytest.raises(ValueError, match="k must"):
        run_moh(triangle, make_params(k=1))
    for rounds in (0, -3):
        with pytest.raises(ValueError, match="max_rounds"):
            run_moh(triangle, make_params(max_rounds=rounds))
    for name in ("omega", "xi"):
        with pytest.raises(ValueError, match=name):
            run_moh(triangle, make_params(**{name: math.nan}, max_rounds=1))


def test_time_budget_is_respected():
    import time

    rng = random.Random(9)
    g = random_graph(rng, 60, 0.2)
    t0 = time.perf_counter()
    run_moh(g, make_params(k=3, time_limit=0.3, seed=2))
    assert time.perf_counter() - t0 < 2.0


# A run on which the descent, the diversified phase and a perturbation each
# raise f_best at least once within its first 30 rounds.
def _phase_graph():
    return random_graph(random.Random(3), 24, 0.3, -5, 5)


_PHASE_PARAMS = dict(k=3, seed=0, xi=1, omega=3, gamma_fraction=0.5, time_limit=60.0)


def _record_phases(monkeypatch):
    """Wrap the three phases of run_moh; each call appends (phase, f_best
    on entry, f_best on exit), also when the run stops inside it."""
    events = []
    for name in ("descent_phase", "diversified_phase", "perturb"):
        def wrapper(*args, _orig=getattr(search, name), _name=name):
            tr = args[-1]
            before = tr.f_best
            try:
                _orig(*args)
            finally:
                events.append((_name, before, tr.f_best))
        monkeypatch.setattr(search, name, wrapper)
    return events


@pytest.mark.parametrize("phase", ["descent_phase", "diversified_phase", "perturb"])
def test_run_stopped_at_target_keeps_best_consistent(monkeypatch, phase):
    g = _phase_graph()
    events = _record_phases(monkeypatch)
    run_moh(g, make_params(max_rounds=30, **_PHASE_PARAMS))
    # the first call of this phase that raised f_best: its exit value is a
    # target no earlier phase call reached
    target = next(after for name, before, after in events
                  if name == phase and after > before)
    events.clear()
    result = run_moh(g, make_params(target_objective=target, **_PHASE_PARAMS))
    assert events[-1][0] == phase  # the stop was raised inside this phase
    assert result.f_best == target
    _assert_best_consistent(g, result)


def test_large_k_stays_small():
    # k = n = 150: any coefficient table over all subset quadruples would hold
    # k**4 = 5e8 entries.  One round runs O1/O2 and the O3/O4 phase; the
    # gain table itself is n*k entries.
    import time
    import tracemalloc

    g = random_graph(random.Random(7), 150, 0.03)
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        result = run_moh(g, make_params(k=150, omega=50, max_rounds=1, time_limit=60.0))
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.rounds == 1
    assert elapsed < 20.0
    assert peak < 8 * 2**20
    assert evaluate(g, result.best_partition) == result.f_best


# Move-sequence fingerprint of run_moh: the SHA-256 of every applied
# (vertex, target) transfer, with f_best and the iteration count, for a fixed
# (instance, params, seed).  xi=2 makes O5 perturbation fire and the default
# phi makes O2 sample edges, so every operator contributes moves.  A change
# that alters the search trajectory fails here, however small.
MOVE_DIGESTS = {
    # (k, strategy): (sha256 of the move sequence, f_best, total_iterations)
    (2, "sequential"): ("b06bc1d040cc17d5694b1c57c5ada002d8bdcfe6ca0d0bfe65d44561b52d04d9", 272, 6310),
    (2, "o1_only"): ("a5e799fde523236b230ff94ffeb7bafda38944af803e406c256d77cfd4efc5e3", 272, 6962),
    (2, "union"): ("eb7f6555fc5c736fea545b4860e62a1b07944687404d9352afa34dac7d2a491d", 272, 7823),
    (2, "random_mix"): ("067e56af5898de8663aa648371479d8eeeee7431aa39bf42918a024aed622a34", 272, 7633),
    (3, "sequential"): ("6b2bde5d8e11995040cad800cd52b7cdfb8d95daee6a23ac08abd235233069e6", 315, 6569),
    (3, "o1_only"): ("eef44a5f99992ab287341f62704db3d5189eadc3ccba9e812b001438a669a389", 323, 6879),
    (3, "union"): ("b600deeefef6d80af3e1750309defb7cefdfd72fb9cbf8b31c2a1243e4861a86", 323, 6112),
    (3, "random_mix"): ("a4f49a2df22820766ba9f4357ea40c47a3a09dba2c4184895a1c45b5a27c019a", 315, 6931),
    (4, "sequential"): ("334ebb6f29a70e596d146094479508518228c2563e368eb6f318e56a3635e95b", 339, 6456),
    (4, "o1_only"): ("2e2654f9bf6dc2912b5474d3fad653f4e9127f0eaeba03c0d15997d345bc947f", 339, 5197),
    (4, "union"): ("488172e9e3593ee9959a090b8413dc093f5931efe86145cbb02ae623de07993d", 339, 7537),
    (4, "random_mix"): ("511a018bca6b223d7e1a78eed1d248f3e6306b19fd63ecb90fcb186861b87300", 339, 5419),
}


def _move_digest(monkeypatch, k, strategy):
    import maxkcut.operators as operators

    g = random_graph(random.Random(1510), 40, 0.3)
    moves = []
    apply = operators.apply_single_transfer

    def record(s, v, t):
        moves.append(f"{v}:{t}")
        return apply(s, v, t)

    monkeypatch.setattr(operators, "apply_single_transfer", record)
    params = SearchParams(k=k, seed=7, max_rounds=20, xi=2, time_limit=600.0,
                          descent_strategy=strategy)
    result = run_moh(g, params)
    digest = hashlib.sha256(",".join(moves).encode()).hexdigest()
    return digest, result.f_best, result.total_iterations


@pytest.mark.parametrize("strategy", ["sequential", "o1_only", "union", "random_mix"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_move_sequence_digest(monkeypatch, k, strategy):
    assert _move_digest(monkeypatch, k, strategy) == MOVE_DIGESTS[(k, strategy)]
