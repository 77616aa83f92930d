import random

from maxkcut.buckets import init_state
from maxkcut.operators import op3_select
from maxkcut.partition import Partition
from maxkcut.tabu import TabuList

from conftest import random_graph, stored_gain


def test_record_and_expiry_window():
    tl = TabuList(100)
    rng = random.Random(0)
    tl.record(5, 2, 100, rng)
    tenure = tl.expiry[(5, 2)] - 100
    assert 3 <= tenure <= 10
    assert tl.is_forbidden(5, 2, 101)
    assert tl.is_forbidden(5, 2, tl.expiry[(5, 2)] - 1)
    assert not tl.is_forbidden(5, 2, tl.expiry[(5, 2)])


def test_boundary_convention():
    tl = TabuList(100)
    tl.expiry[(5, 2)] = 107
    assert tl.is_forbidden(5, 2, 106)
    assert not tl.is_forbidden(5, 2, 107)
    assert not tl.is_forbidden(5, 3, 101)  # different subset


def test_small_n_clamps_tenure():
    tl = TabuList(20)
    rng = random.Random(3)
    draws = set()
    for _ in range(50):
        tl.record(0, 0, 0, rng)
        draws.add(tl.expiry[(0, 0)])
    assert draws == {3}  # floor(20/10) = 2 < 3, clamped to [3, 3]


def test_tenure_range_over_n():
    rng = random.Random(7)
    for n in (5, 30, 100, 1234):
        tl = TabuList(n)
        hi = max(3, n // 10)
        for _ in range(200):
            tl.record(1, 1, 0, rng)
            assert 3 <= tl.expiry[(1, 1)] <= hi


def test_rerecord_overwrites():
    tl = TabuList(200)
    rng = random.Random(1)
    tl.record(7, 0, 100, rng)
    first = tl.expiry[(7, 0)]
    tl.record(7, 0, 110, rng)
    assert tl.expiry[(7, 0)] != first or tl.expiry[(7, 0)] >= 113


def test_clear():
    tl = TabuList(100)
    rng = random.Random(2)
    tl.clear()  # no-op on empty
    tl.record(1, 0, 0, rng)
    tl.record(2, 1, 0, rng)
    tl.clear()
    assert not tl.is_forbidden(1, 0, 1)
    assert not tl.expiry
    tl.record(1, 0, 50, rng)
    assert tl.is_forbidden(1, 0, 51)


def test_cleared_tabu_equals_unrestricted_argmax():
    rng = random.Random(13)
    for _ in range(20):
        g = random_graph(rng, rng.randint(4, 8), 0.5)
        k = rng.randint(2, min(3, g.n))
        assign = [rng.randrange(k) for _ in range(g.n)]
        s = init_state(g, Partition(k=k, assign=assign))
        tl = TabuList(g.n)
        for _ in range(5):
            tl.expiry[(rng.randrange(g.n), rng.randrange(k))] = 1000
        tl.clear()
        m = op3_select(s, tl, f_best=10**9, rng=rng)
        best = max(
            stored_gain(s, v, t)
            for v in range(g.n)
            for t in range(k)
            if t != assign[v]
        )
        assert m.gain == best
