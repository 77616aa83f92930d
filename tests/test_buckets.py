import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from maxkcut.buckets import (
    MAX_BUCKET_CELLS,
    SearchState,
    apply_single_transfer,
    best_single_transfer,
    check_bucket_cells,
    init_state,
)
from maxkcut.graph import Graph
from maxkcut.operators import (
    apply_move,
    op1_select,
    op2_select,
    op3_select,
    op4_select,
    op5_apply,
)
from maxkcut.partition import Partition
from maxkcut.search import SearchParams, run_moh
from maxkcut.tabu import TabuList

from conftest import (
    assert_coherent,
    brute_gain_table,
    brute_objective,
    bucket_snapshot,
    random_graph,
)


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


def test_cell_members_newest_first():
    # edgeless: every gain is 0, so array 1 has one non-empty cell; vertices
    # enter it in index order, and a vertex that leaves and comes back is
    # the newest member
    g = Graph.from_edges(4, [])
    s = init_state(g, Partition(k=2, assign=[0, 0, 0, 1]))
    assert list(reversed(s.cells[1][s.offset])) == [2, 1, 0]
    apply_single_transfer(s, 0, 1)
    assert list(reversed(s.cells[1][s.offset])) == [2, 1]
    apply_single_transfer(s, 0, 0)
    assert list(reversed(s.cells[1][s.offset])) == [0, 2, 1]
    assert [(gain, list(reversed(cell))) for gain, cell in s.cells_descending(1)] == [
        (0, [0, 2, 1])
    ]
    assert list(s.descending(1)) == [(0, 0), (2, 0), (1, 0)]


def test_descending_lists_each_entry_once():
    rng = random.Random(5)
    g = random_graph(rng, 12, 0.5, -4, 4)
    k = 3
    s = init_state(g, Partition(k=k, assign=[rng.randrange(k) for _ in range(g.n)]))
    for _ in range(60):
        v = rng.randrange(g.n)
        t = rng.choice([x for x in range(k) if x != s.partition.assign[v]])
        apply_single_transfer(s, v, t)
    table = brute_gain_table(g, k, s.partition.assign)
    for i in range(k):
        entries = list(s.descending(i))
        assert sorted(entries) == sorted((v, gain) for (v, x), gain in table.items() if x == i)
        gains = [gain for _, gain in entries]
        assert gains == sorted(gains, reverse=True)
        # within a cell, the cell's members newest first
        assert entries == [
            (v, gain)
            for gain, _ in s.cells_descending(i)
            for v in reversed(s.cells[i][gain + s.offset])
        ]


def _weighted_triangle(w):
    return Graph.from_edges(3, [(0, 1, w), (0, 2, w), (1, 2, w)])


def test_bucket_table_limit_boundary():
    # W = 2w on a triangle, so k=2 needs 2 * (4w + 1) cells
    check_bucket_cells(_weighted_triangle(1048575), 2)  # 8388602 cells
    with pytest.raises(ValueError, match=f"limit of {MAX_BUCKET_CELLS}"):
        check_bucket_cells(_weighted_triangle(1048576), 2)  # 8388610 cells


def test_huge_weights_rejected_before_allocation():
    g = _weighted_triangle(10**9)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="bucket table needs"):
        SearchState(g, Partition(k=2, assign=[0, 0, 1]))
    with pytest.raises(ValueError, match="bucket table needs"):
        run_moh(g, SearchParams(k=2, max_rounds=1))
    assert time.perf_counter() - t0 < 1.0


def test_wide_weight_range_builds():
    # n=200, 30 % density, weights in [-1000, 1000], k=4: W = 39787, so the
    # table has 318300 cells, well under the limit
    rng = random.Random(11)
    g = random_graph(rng, 200, 0.3, -1000, 1000)
    k = 4
    s = init_state(g, Partition(k=k, assign=[rng.randrange(k) for _ in range(g.n)]))
    assert len(s.cells) * len(s.cells[0]) <= MAX_BUCKET_CELLS
    assert s.f == brute_objective(g, s.partition.assign)
    v, t, gain = best_single_transfer(s, rng)
    assert gain == brute_gain_table(g, k, s.partition.assign)[(v, t)]


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


def list_best_single_transfer(s, rng):
    """best_single_transfer drawing its vertex from a list of the cell."""
    best, tied = 0, []
    for i in range(s.partition.k):
        idx = s._true_gmax(i)
        if idx > best:
            best, tied = idx, [i]
        elif idx == best:
            tied.append(i)
    i = rng.choice(tied)
    v = rng.choice(list(reversed(s.cells[i][best])))
    return v, i, best - s.offset


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_best_single_transfer_draws_as_from_a_list(seed):
    # sparse small-weight graphs give top cells of many members, so the
    # drawn member is reached from either end of the cell
    rng = random.Random(seed)
    n = rng.randint(2, 40)
    g = random_graph(rng, n, rng.choice([0.05, 0.2]), -2, 2)
    k = rng.randint(2, min(4, n))
    s = init_state(g, Partition(k=k, assign=[rng.randrange(k) for _ in range(n)]))
    for _ in range(20):
        draw = rng.getrandbits(32)
        a, b = random.Random(draw), random.Random(draw)
        move = best_single_transfer(s, a)
        assert move == list_best_single_transfer(s, b)
        assert a.getstate() == b.getstate()
        apply_single_transfer(s, move[0], move[1])


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


@st.composite
def signed_instances(draw):
    """(graph, k, assign): a random signed graph, zero weights included, and
    a random assignment into k in [2, 5] subsets, possibly leaving some empty."""
    k = draw(st.integers(min_value=2, max_value=5))
    n = draw(st.integers(min_value=2, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    weight = st.one_of(st.just(0), st.integers(min_value=-6, max_value=6))
    g = Graph.from_edges(n, [(u, v, draw(weight)) for u, v in chosen])
    assign = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return g, k, assign


class GainTableMachine(RuleBasedStateMachine):
    """Interleaves raw transfers, O1-O4 moves and O5 kicks on one state; the
    gain table, buckets and f must match a from-scratch recompute after every
    step, and every reported gain must equal the objective's change."""

    @initialize(instance=signed_instances(), seed=st.integers(0, 2**32 - 1))
    def setup(self, instance, seed):
        self.g, k, assign = instance
        self.s = init_state(self.g, Partition(k=k, assign=assign))
        self.rng = random.Random(seed)
        self.tabu = TabuList(self.g.n)
        self.f_best = self.s.f

    def _apply(self, move):
        if move is None:
            return
        before = brute_objective(self.g, self.s.partition.assign)
        for tr in (move.first, move.second):
            if tr is not None:
                self.tabu.record(tr.vertex, tr.origin, self.s.iter, self.rng)
        apply_move(self.s, move)
        assert move.gain == brute_objective(self.g, self.s.partition.assign) - before
        self.f_best = max(self.f_best, self.s.f)

    @rule(data=st.data())
    def transfer(self, data):
        k = self.s.partition.k
        v = data.draw(st.integers(0, self.g.n - 1))
        c = self.s.partition.assign[v]
        t = data.draw(st.integers(0, k - 1).filter(lambda x: x != c))
        before = brute_objective(self.g, self.s.partition.assign)
        gain = apply_single_transfer(self.s, v, t)
        assert gain == brute_objective(self.g, self.s.partition.assign) - before

    @rule()
    def o1(self):
        self._apply(op1_select(self.s, self.rng))

    @rule(cap=st.none() | st.integers(1, 4))
    def o2(self, cap):
        self._apply(op2_select(self.s, self.rng, cap))

    @rule()
    def o3(self):
        self._apply(op3_select(self.s, self.tabu, self.f_best, self.rng))

    @rule()
    def o4(self):
        self._apply(op4_select(self.s, self.rng))

    @rule()
    def o5(self):
        op5_apply(self.s, self.rng)

    @invariant()
    def coherent(self):
        assert_coherent(self.g, self.s)


GainTableMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
test_gain_table_state_machine = GainTableMachine.TestCase
