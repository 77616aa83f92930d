import functools
import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from maxkcut import search
from maxkcut.buckets import apply_single_transfer, init_state
from maxkcut.graph import Graph
from maxkcut.oracle import exact_max_kcut
from maxkcut.operators import Transfer
from maxkcut.partition import Partition, evaluate, random_initial, validate
from maxkcut.search import (
    SearchParams,
    _BestTracker,
    descent_phase,
    diversified_phase,
    perturb,
    run_moh,
)
from maxkcut.tabu import TabuList

from conftest import assert_coherent, brute_gain_table, brute_objective, random_graph


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
    opt, _ = exact_max_kcut(g, 2)
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


@pytest.mark.parametrize("kw,reason,rounds", [
    (dict(target_objective=5, time_limit=60.0), "target", None),
    (dict(max_rounds=1, time_limit=60.0), "max_rounds", 1),
    (dict(time_limit=0.0), "budget", 0),
], ids=["target", "max-rounds", "budget"])
def test_run_reports_why_it_stopped(triangle, kw, reason, rounds):
    # The triangle's 2-cut optimum is 5; a zero budget ends the run at its
    # first check, before any round.
    result = run_moh(triangle, make_params(**kw))
    assert result.stop_reason == reason
    if rounds is not None:
        assert result.rounds == rounds
    if reason == "target":
        assert result.f_best == 5
    _assert_best_consistent(triangle, result)


def test_phi_of_one_or_more_scans_every_edge():
    # phi * m overflows a float at phi = 1e308; any phi >= 1 means phi = 1
    g = random_graph(random.Random(4), 20, 0.3)
    runs = [run_moh(g, make_params(k=3, phi=phi, max_rounds=3, seed=2)) for phi in (1.0, 1e308)]
    a, b = ((r.f_best, r.best_partition.assign, r.total_iterations, r.rounds) for r in runs)
    assert a == b


def test_run_invalid_params(triangle):
    with pytest.raises(ValueError):
        run_moh(triangle, make_params(rho=1.5))
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
    make_params(time_limit=math.inf).check(triangle)
    make_params(time_limit=None).check(triangle)
    for k in (1, 4):
        with pytest.raises(ValueError, match="k must satisfy 2 <= k <= n=3"):
            run_moh(triangle, make_params(k=k))
    for rounds in (0, -3):
        with pytest.raises(ValueError, match="max_rounds"):
            run_moh(triangle, make_params(max_rounds=rounds))
    for name in ("omega", "xi"):
        with pytest.raises(ValueError, match=name):
            run_moh(triangle, make_params(**{name: math.nan}, max_rounds=1))
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            run_moh(triangle, make_params(**{name: 0}))
    for fraction in (0.0, 1.5):
        with pytest.raises(ValueError, match=r"gamma_fraction must be in \(0, 1\]"):
            make_params(gamma_fraction=fraction).check(triangle)
    # Counts must be integers: k=2.0 used to pass the check and fail later
    # in random_initial, and fractional omega, xi and max_rounds ran.
    for name, value in (("k", 2.0), ("k", "2"), ("omega", 1.5), ("xi", 2.5),
                        ("max_rounds", 1.5), ("max_rounds", math.nan),
                        ("target_objective", "x"), ("target_objective", 2.5)):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            run_moh(triangle, make_params(**{name: value}))


def test_check_converts_integer_counts(triangle):
    class Count:
        def __init__(self, value):
            self.value = value

        def __index__(self):
            return self.value

    params = make_params(k=Count(3), omega=Count(4), xi=Count(5), max_rounds=Count(2))
    params.check(triangle)
    counts = (params.k, params.omega, params.xi, params.max_rounds)
    assert counts == (3, 4, 5, 2) and {type(c) for c in counts} == {int}


@pytest.mark.parametrize("n,seconds", [(4999, 1800.0), (5000, 7200.0), (9999, 7200.0),
                                       (10000, 14400.0)])
def test_default_time_limit_tiers(n, seconds):
    assert search.default_time_limit(n) == seconds


def test_run_default_budget_is_the_size_tier(monkeypatch):
    budgets = []
    real = search._BestTracker

    def spy(s, time_limit, target):
        budgets.append(time_limit)
        return real(s, time_limit, target)

    monkeypatch.setattr(search, "_BestTracker", spy)
    g = Graph.from_edges(10000, [(0, 1, 1)])
    assert run_moh(g, SearchParams(k=2, target_objective=1)).f_best == 1
    assert budgets == [14400.0]


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
    # (k, "wide"): the sequential strategy on a 150-vertex graph of weights
    # -1, 0 and 1, whose W = 44 is at least 20 max|w|, so its bucket arrays
    # keep floors; the cases above all have W < 20 max|w|.
    (2, "wide"): ("50d1fe2bd73162ef36f13ce3d48d35957900d0b796b9de3d50a014d09e6f7991", 314, 3094),
    (3, "wide"): ("9c1d3b54e824d50ec2b029294edd1ac87573a46a75dc66de1056dad8ae011730", 367, 1132),
    (4, "wide"): ("4b29a2cb8d56d5fcef14e3594428eacd05fa4124664e49dd06e0c07a584e10f3", 362, 968),
}


def _digest_case(k, strategy):
    if strategy == "wide":
        g = random_graph(random.Random(1510), 150, 0.3, -1, 1)
        strategy = "sequential"
    else:
        g = random_graph(random.Random(1510), 40, 0.3)
    params = SearchParams(k=k, seed=7, max_rounds=20, xi=2, time_limit=600.0,
                          descent_strategy=strategy)
    return g, params


@functools.cache
def _digest_run(k, strategy):
    """One search of a digest case, shared by the move and best-partition
    digest tests: (move digest, f_best, total_iterations, best digest, the
    highest floor of any bucket array met at a move)."""
    import maxkcut.operators as operators

    moves = []
    floor = 0
    apply = operators.apply_single_transfer

    def record(s, v, t):
        nonlocal floor
        moves.append(f"{v}:{t}")
        floor = max(floor, *s.low)
        return apply(s, v, t)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "apply_single_transfer", record)
        result = run_moh(*_digest_case(k, strategy))
    digest = hashlib.sha256(",".join(moves).encode()).hexdigest()
    best = hashlib.sha256(bytes(result.best_partition.assign)).hexdigest()
    return digest, result.f_best, result.total_iterations, best, floor


@pytest.mark.parametrize("strategy", ["sequential", "o1_only", "union", "random_mix"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_move_sequence_digest(k, strategy):
    assert _digest_run(k, strategy)[:3] == MOVE_DIGESTS[(k, strategy)]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_move_sequence_digest_with_floors(k):
    # The run must use a floor, or these cases would not check that floors
    # change no move.
    run = _digest_run(k, "wide")
    assert run[:3] == MOVE_DIGESTS[(k, "wide")]
    assert run[4] > 0


# SHA-256 of best_partition.assign (one byte a vertex) for the MOVE_DIGESTS
# cases.  The move digest alone passes a tracker that keeps another partition
# of the same f; the tracker keeps the first partition that reached f_best.
BEST_DIGESTS = {
    (2, "sequential"): "c895ae3633b88549f05073de0d29b5b6599dc20c688c87f58fd0842a11e8ef33",
    (2, "o1_only"): "c895ae3633b88549f05073de0d29b5b6599dc20c688c87f58fd0842a11e8ef33",
    (2, "union"): "c895ae3633b88549f05073de0d29b5b6599dc20c688c87f58fd0842a11e8ef33",
    (2, "random_mix"): "c895ae3633b88549f05073de0d29b5b6599dc20c688c87f58fd0842a11e8ef33",
    (3, "sequential"): "6a745a0c3e51c6429dc4fac20e80c7b85a162010bf8a7d20c217f1f3989736ec",
    (3, "o1_only"): "c5ea7a6f543ac7e632f249c4e45cf6e3cb93348b77802aeff3d2e020729878d9",
    (3, "union"): "c5ea7a6f543ac7e632f249c4e45cf6e3cb93348b77802aeff3d2e020729878d9",
    (3, "random_mix"): "6a745a0c3e51c6429dc4fac20e80c7b85a162010bf8a7d20c217f1f3989736ec",
    (4, "sequential"): "5e4b03416b698fd1d46c7913731794b7fe9dd70ddffc20c99a8dbd5543ca9144",
    (4, "o1_only"): "5e4b03416b698fd1d46c7913731794b7fe9dd70ddffc20c99a8dbd5543ca9144",
    (4, "union"): "2e7bddab893aa8c4937927c4fe95e3ebb3857a8b17e6c73a2ae5950f77d8a7e2",
    (4, "random_mix"): "dc15b3155b8b771b6914076ae57ac03daf81a8d656b4a0a887fa225580f80657",
    (2, "wide"): "e839ba2e0ad18acd6ddd7f3f5407cfc1782bf601b5c5669d557bbab65c685f9f",
    (3, "wide"): "15d7b35af7c52237512c9f1c38cfd59e028523ec50407e28ae3580860972fb35",
    (4, "wide"): "4c6379190e79a2f490339a16366c02ee581cae2750a06bd8f1c7919bd8125408",
}


@pytest.mark.parametrize("strategy", ["sequential", "o1_only", "union", "random_mix", "wide"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_best_partition_digest(k, strategy):
    assert _digest_run(k, strategy)[3] == BEST_DIGESTS[(k, strategy)]


# _BestTracker copies the best partition only when a move leaves it.  On the
# path 0-1-2-3 with unit weights and the isolated vertex 4, k = 2, the best
# f = 3 is reached at [0, 1, 0, 1, x], and a transfer of vertex 4 gains 0.
def _path_state(assign):
    g = Graph.from_edges(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    return init_state(g, Partition(k=2, assign=list(assign)))


def _transfer(s, v, t):
    """Apply the transfer of v to t and return it."""
    tr = Transfer(v, s.partition.assign[v], t)
    apply_single_transfer(s, v, t)
    return tr


def test_tracker_zero_gain_move_after_new_best_keeps_pre_move_assignment():
    s = _path_state([0, 0, 0, 1, 0])  # f = 1
    tr = tracker(s)
    tr.note(s, _transfer(s, 1, 1))  # f 1 -> 3, a new best
    tr.note(s, _transfer(s, 4, 1))  # gain 0
    assert (s.f, tr.best_assign(s)) == (3, [0, 1, 0, 1, 0])
    tr.note(s, _transfer(s, 4, 0))  # gain 0, back on the best partition
    tr.note(s, _transfer(s, 3, 0))  # f 3 -> 2
    assert (tr.f_best, tr.best_assign(s)) == (3, [0, 1, 0, 1, 0])


def test_tracker_undoes_a_double_transfer_that_leaves_the_best():
    s = _path_state([0, 0, 0, 1, 0])
    tr = tracker(s)
    tr.note(s, _transfer(s, 1, 1))  # f 1 -> 3, a new best
    first = _transfer(s, 1, 0)
    second = _transfer(s, 2, 1)
    tr.note(s, first, second)  # f 3 -> 1
    tr.note(s, _transfer(s, 0, 1))  # f 1 -> 2
    assert s.partition.assign == [1, 0, 1, 1, 0]
    assert (tr.f_best, tr.best_assign(s)) == (3, [0, 1, 0, 1, 0])


def test_tracker_stop_on_an_improving_move_returns_the_current_state():
    s = _path_state([0, 0, 0, 1, 0])
    tr = _BestTracker(s, time_limit=5.0, target=3)
    with pytest.raises(search._StopSearch):
        tr.note(s, _transfer(s, 1, 1))
    best = tr.best_assign(s)
    assert (tr.f_best, best) == (3, [0, 1, 0, 1, 0])
    assert best is not s.partition.assign


def test_run_that_never_beats_its_initial_partition_returns_it():
    # every partition of an edgeless graph has f = 0, so every move gains 0
    g = Graph.from_edges(6, [])
    params = make_params(max_rounds=3, omega=4, xi=1)
    result = run_moh(g, params)
    initial = random_initial(g, 2, random.Random(params.seed))
    assert result.total_iterations > 0
    assert result.trace == [(0.0, 0)]
    assert result.best_partition.assign == initial.assign


@st.composite
def _runs(draw):
    """A graph with n <= 8 and signed or zero weights, and SearchParams with
    every value inside its range and a max_rounds stop."""
    n = draw(st.integers(2, 8))
    edges = [
        (u, v, draw(st.integers(-3, 3)))
        for u in range(n)
        for v in range(u + 1, n)
        if draw(st.booleans())
    ]
    params = SearchParams(
        k=draw(st.integers(2, min(4, n))),
        omega=draw(st.integers(1, 6)),
        xi=draw(st.integers(1, 2)),  # so that perturbations happen
        rho=draw(st.floats(0.0, 1.0)),
        gamma_fraction=draw(st.floats(0.0, 1.0, exclude_min=True)),
        phi=draw(st.none() | st.floats(0.0, 2.0, exclude_min=True)),
        time_limit=60.0,
        max_rounds=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 2**32)),
        descent_strategy=draw(st.sampled_from(search.DESCENT_STRATEGIES)),
    )
    return Graph.from_edges(n, edges), params


@settings(max_examples=100, deadline=None)
@given(_runs())
def test_run_invariants_hold_at_every_phase_boundary(run):
    g, params = run
    phases = []
    noted = [0]  # single transfers the tracker was told of

    def note(tr, s, *transfers, _orig=search._BestTracker.note):
        noted[0] += sum(t is not None for t in transfers)
        _orig(tr, s, *transfers)

    def checked(name):
        def wrapper(*args, _orig=getattr(search, name)):
            _orig(*args)
            s, tr = args[0], args[-1]
            assert_coherent(g, s)
            # every transfer was noted, so the tracker's best is no worse
            # than s and is the partition it hands back
            assert noted[0] == s.iter
            assert tr.f_best >= s.f
            assert brute_objective(g, tr.best_assign(s)) == tr.f_best
            if name == "diversified_phase":
                assert not args[1].expiry, "tabu list left filled"
            phases.append(name)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search._BestTracker, "note", note)
        for name in ("descent_phase", "diversified_phase", "perturb"):
            mp.setattr(search, name, checked(name))
        result = run_moh(g, params)
    assert phases.count("diversified_phase") == result.rounds <= params.max_rounds
    assert evaluate(g, result.best_partition) == result.f_best
    values = [f for _, f in result.trace]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert result.f_best <= exact_max_kcut(g, params.k)[0]
