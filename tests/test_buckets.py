import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from maxkcut.buckets import (
    apply_single_transfer,
    best_single_transfer,
    init_state,
)
from maxkcut.graph import Graph
from maxkcut.partition import Partition

from conftest import assert_coherent, brute_gain_table, bucket_snapshot, random_graph


def test_init_triangle_gains(triangle):
    s = init_state(triangle, Partition(k=2, assign=[0, 0, 1]))
    assert s.f == 5
    # hand-applied initial-gain formula, vertices 0..2
    assert s.delta[0][1] == -1
    assert s.delta[1][1] == -2
    assert s.delta[2][0] == -5
    assert_coherent(triangle, s)


def test_init_edgeless_all_zero():
    g = Graph.from_edges(4, [])
    s = init_state(g, Partition(k=3, assign=[0, 1, 2, 0]))
    assert s.f == 0
    assert all(gain == 0 for row in s.delta for gain in row)
    for i in range(3):
        assert s._true_gmax(i) == s.offset  # gain 0 cell


def test_init_triangle_k3_optimal(triangle):
    s = init_state(triangle, Partition(k=3, assign=[0, 1, 2]))
    assert s.f == 6
    for v in range(3):
        for x in range(3):
            if x != s.partition.assign[v]:
                assert s.delta[v][x] <= 0
    assert_coherent(triangle, s)


def test_apply_transfer_matches_recompute(triangle):
    s = init_state(triangle, Partition(k=2, assign=[0, 0, 1]))
    gain = apply_single_transfer(s, 0, 1)
    assert gain == -1
    assert s.f == 4
    assert_coherent(triangle, s)


def test_transfer_involution(triangle):
    s = init_state(triangle, Partition(k=2, assign=[0, 0, 1]))
    f0 = s.f
    delta0 = [row[:] for row in s.delta]
    snap0 = bucket_snapshot(s)
    apply_single_transfer(s, 1, 1)
    apply_single_transfer(s, 1, 0)
    assert s.f == f0
    assert s.delta == delta0
    assert bucket_snapshot(s) == snap0
    assert s.partition.assign == [0, 0, 1]


def test_edgeless_moves_are_free():
    g = Graph.from_edges(5, [])
    s = init_state(g, Partition(k=2, assign=[0, 1, 0, 1, 0]))
    for v, t in [(0, 1), (3, 0), (0, 0 if s.partition.assign[0] else 1)]:
        if t != s.partition.assign[v]:
            assert apply_single_transfer(s, v, t) == 0
    assert s.f == 0
    assert all(gain == 0 for row in s.delta for gain in row)


def test_best_single_transfer_triangle(triangle):
    s = init_state(triangle, Partition(k=2, assign=[0, 1, 0]))
    v, t, gain = best_single_transfer(s, random.Random(0))
    assert (v, t, gain) == (0, 1, 1)


def test_best_single_transfer_returns_negative_best(triangle):
    s = init_state(triangle, Partition(k=2, assign=[0, 0, 1]))
    v, t, gain = best_single_transfer(s, random.Random(0))
    assert (v, t, gain) == (0, 1, -1)


def test_best_single_transfer_uniform_tie_break():
    # every gain is 0: array 1 holds {0, 1, 2} and array 0 holds {3}; ties
    # pick an array uniformly, then a vertex uniformly within its top cell
    g = Graph.from_edges(4, [])
    s = init_state(g, Partition(k=2, assign=[0, 0, 0, 1]))
    rng = random.Random(42)
    counts = Counter(best_single_transfer(s, rng)[0] for _ in range(3000))
    assert set(counts) == {0, 1, 2, 3}
    assert abs(counts[3] / 3000 - 1 / 2) < 0.05
    for v in (0, 1, 2):
        assert abs(counts[v] / 3000 - 1 / 6) < 0.05


def test_best_single_transfer_skips_empty_array():
    g = Graph.from_edges(3, [])
    s = init_state(g, Partition(k=2, assign=[0, 0, 0]))
    v, t, gain = best_single_transfer(s, random.Random(0))
    assert v in (0, 1, 2) and (t, gain) == (1, 0)


def test_best_single_transfer_dominates_brute_force():
    rng = random.Random(9)
    for _ in range(30):
        g = random_graph(rng, rng.randint(3, 8), 0.5)
        k = rng.randint(2, 4)
        if k > g.n:
            continue
        assign = [rng.randrange(k) for _ in range(g.n)]
        s = init_state(g, Partition(k=k, assign=assign))
        _, _, gain = best_single_transfer(s, rng)
        table = brute_gain_table(g, k, assign)
        assert gain == max(table.values())


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_gain_coherence_random_walk(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 9)
    g = random_graph(rng, n, rng.choice([0.3, 0.7]))
    k = rng.randint(2, min(4, n))
    assign = [rng.randrange(k) for _ in range(n)]
    s = init_state(g, Partition(k=k, assign=assign))
    f_prev = s.f
    for _ in range(40):
        v = rng.randrange(n)
        t = rng.randrange(k - 1)
        if t >= s.partition.assign[v]:
            t += 1
        reported = s.delta[v][t]
        gain = apply_single_transfer(s, v, t)
        assert gain == reported
        assert s.f == f_prev + gain  # f-telescoping
        f_prev = s.f
    assert_coherent(g, s)
