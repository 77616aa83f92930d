import random
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from maxkcut.buckets import (
    MAX_BUCKET_CELLS,
    MAX_GAIN_ENTRIES,
    SearchState,
    apply_single_transfer,
    best_single_transfer,
    check_table,
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
from maxkcut.partition import Partition, evaluate
from maxkcut.search import SearchParams, run_moh
from maxkcut.tabu import TabuList

from conftest import (
    EagerState,
    assert_coherent,
    brute_gain_table,
    brute_objective,
    bucket_snapshot,
    eager_apply_single_transfer,
    random_graph,
    reference_state,
    stored_gain,
)


def test_init_triangle_gains(triangle):
    s = init_state(triangle, Partition(k=2, assign=[0, 0, 1]))
    assert s.f == 5
    # hand-applied initial-gain formula, vertices 0..2
    assert stored_gain(s, 0, 1) == -1
    assert stored_gain(s, 1, 1) == -2
    assert stored_gain(s, 2, 0) == -5
    assert_coherent(triangle, s)


def test_init_edgeless_all_zero():
    g = Graph.from_edges(4, [])
    s = init_state(g, Partition(k=3, assign=[0, 1, 2, 0]))
    assert s.f == 0
    assign = s.partition.assign
    assert all(stored_gain(s, v, x) == 0 for v in range(g.n) for x in range(3) if x != assign[v])
    assert all(s.slot[assign[v]][v] == -1 for v in range(g.n))
    for i in range(3):
        assert s._true_gmax(i) == s.offset  # gain 0 cell


def test_init_triangle_k3_optimal(triangle):
    s = init_state(triangle, Partition(k=3, assign=[0, 1, 2]))
    assert s.f == 6
    for v in range(3):
        for x in range(3):
            if x != s.partition.assign[v]:
                assert stored_gain(s, v, x) <= 0
    assert_coherent(triangle, s)


def test_apply_transfer_matches_recompute(triangle):
    s = init_state(triangle, Partition(k=2, assign=[0, 0, 1]))
    gain = apply_single_transfer(s, 0, 1)
    assert gain == -1
    assert s.f == 4
    assert_coherent(triangle, s)


def test_transfer_into_own_subset_is_refused(triangle):
    s = init_state(triangle, Partition(k=3, assign=[0, 0, 1]))
    with pytest.raises(ValueError, match="equals current subset"):
        apply_single_transfer(s, 2, s.partition.assign[2])
    assert s.iter == 0
    assert_coherent(triangle, s)


def test_transfer_involution(triangle):
    s = init_state(triangle, Partition(k=2, assign=[0, 0, 1]))
    f0 = s.f
    slot0 = [row[:] for row in s.slot]
    snap0 = bucket_snapshot(s)
    apply_single_transfer(s, 1, 1)
    apply_single_transfer(s, 1, 0)
    assert s.f == f0
    assert s.slot == slot0
    assert bucket_snapshot(s) == snap0
    assert s.partition.assign == [0, 0, 1]


def test_edgeless_moves_are_free():
    g = Graph.from_edges(5, [])
    s = init_state(g, Partition(k=2, assign=[0, 1, 0, 1, 0]))
    for v, t in [(0, 1), (3, 0), (0, 0 if s.partition.assign[0] else 1)]:
        if t != s.partition.assign[v]:
            assert apply_single_transfer(s, v, t) == 0
    assert s.f == 0
    assign = s.partition.assign
    assert all(stored_gain(s, v, x) == 0 for v in range(g.n) for x in range(2) if x != assign[v])
    assert all(s.slot[assign[v]][v] == -1 for v in range(g.n))


def test_extreme_gains_use_the_end_cells():
    # A unit-weight star: W is the centre's degree, and the centre's gain is
    # +W with every leaf beside it (cell 2W) and -W with every leaf in the
    # target subset (cell 0), the two ends of each array.
    leaves = 5
    g = Graph.from_edges(leaves + 1, [(0, v, 1) for v in range(1, leaves + 1)])
    s = init_state(g, Partition(k=3, assign=[0] * (leaves + 1)))
    w = s.offset
    assert w == leaves
    assert 0 in s.cells[1][2 * w] and 0 in s.cells[2][2 * w]
    assert_coherent(g, s)
    # The centre leaves its leaves (+W), the leaves move to subset 2 one by
    # one, the centre joins them (-W) and leaves them again (+W).
    moves = [(0, 1)] + [(v, 2) for v in range(1, leaves + 1)] + [(0, 2), (0, 0)]
    centre_gains = []
    for v, t in moves:
        expected = brute_gain_table(g, 3, s.partition.assign)[(v, t)]
        assert apply_single_transfer(s, v, t) == expected
        assert_coherent(g, s)
        if v == 0:
            centre_gains.append(expected)
        if (v, t) == (0, 1):
            assert 0 in s.cells[0][0]
    assert centre_gains == [w, -w, w]
    assert 0 in s.cells[2][0]
    assert s.f == w


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


def test_cells_descending_lists_each_entry_once():
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
        walk = list(s.cells_descending(i))
        # each non-empty cell once, at its own index, top cell first
        assert [idx for idx, _ in walk] == sorted({idx for idx, _ in walk}, reverse=True)
        assert all(cell and cell is s.cells[i][idx] for idx, cell in walk)
        entries = [(v, idx - s.offset) for idx, cell in walk for v in cell]
        assert sorted(entries) == sorted((v, gain) for (v, x), gain in table.items() if x == i)


def _weighted_triangle(w):
    return Graph.from_edges(3, [(0, 1, w), (0, 2, w), (1, 2, w)])


def test_bucket_table_limit_boundary():
    # k=2 arrays of 2W + 1 cells, as on a triangle of edge weight W/2
    check_table(2, 3, 2097150)  # 8388602 cells
    with pytest.raises(ValueError, match=f"limit of {MAX_BUCKET_CELLS}"):
        check_table(2, 3, 2097152)  # 8388610 cells


def test_huge_weights_rejected_before_allocation():
    g = _weighted_triangle(10**9)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="bucket table needs"):
        SearchState(g, Partition(k=2, assign=[0, 0, 1]))
    with pytest.raises(ValueError, match="bucket table needs"):
        run_moh(g, SearchParams(k=2, max_rounds=1))
    assert time.perf_counter() - t0 < 1.0


def test_gain_table_limit_boundary():
    # W = 0, as on an edgeless graph, so the bucket table has k cells; the
    # gain table has k*n entries
    check_table(2048, 4096)  # 8388608 entries
    with pytest.raises(ValueError, match=f"limit of {MAX_GAIN_ENTRIES}"):
        check_table(2049, 4096)  # 8392704 entries


def test_large_k_rejected_before_allocation():
    # k = n = 3000: 9e6 gain-table entries, ~0.7 GB had the state been built
    g = Graph.from_edges(3000, [])
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="gain table needs"):
        SearchState(g, Partition(k=3000, assign=list(range(3000))))
    with pytest.raises(ValueError, match="gain table needs"):
        run_moh(g, SearchParams(k=3000, max_rounds=1))
    assert time.perf_counter() - t0 < 1.0


def test_table_over_both_limits_reports_the_gain_table_first():
    # k = n = 3000 with W = 10^9: 9e6 gain-table entries and 6e12 cells
    g = Graph.from_edges(3000, [(0, 1, 10**9)])
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="^gain table needs"):
        SearchState(g, Partition(k=3000, assign=list(range(3000))))
    with pytest.raises(ValueError, match="^gain table needs"):
        run_moh(g, SearchParams(k=3000, max_rounds=1))
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
        reported = stored_gain(s, v, t)
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


@st.composite
def build_instances(draw):
    """(graph, k, assign) for the build oracle: n in [2, 40] with the last
    vertices possibly isolated, weights all zero, all negative, mixed or all
    1 (dense unit graphs give tables wide enough to keep floors), k in
    [2, n], and every vertex in subset 0 or each in a drawn subset."""
    n = draw(st.integers(2, 40))
    isolated = draw(st.integers(0, n))
    kind = draw(st.sampled_from(["zero", "negative", "mixed", "unit"]))
    density = draw(st.sampled_from([0.0, 0.2, 0.6, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    lo, hi = {"zero": (0, 0), "negative": (-5, -1), "mixed": (-3, 3), "unit": (1, 1)}[kind]
    live = n - isolated
    g = Graph.from_edges(n, [
        (u, v, rng.randint(lo, hi))
        for u in range(live) for v in range(u + 1, live) if rng.random() < density
    ])
    k = draw(st.integers(2, n))
    if draw(st.booleans()):
        assign = [0] * n
    else:
        assign = [rng.randrange(k) for _ in range(n)]
    return g, k, assign


@settings(max_examples=200, deadline=None)
@given(build_instances())
@example((Graph.from_edges(30, [(u, v, 1) for u in range(30) for v in range(u + 1, 30)]), 3,
          [v % 3 for v in range(30)]))
@example((Graph.from_edges(30, [(u, v, 1) for u in range(30) for v in range(u + 1, 30)]), 2,
          [0] * 30))
def test_build_equals_the_vertexwise_reference(instance):
    # The two-pass build gives the state the vertex-wise build gave, field
    # by field, member order included; the examples keep floors (W = 29
    # >= 20 max|w|), the second with B_0 empty at floor 0.
    g, k, assign = instance
    s = SearchState(g, Partition(k=k, assign=list(assign)))
    ref = reference_state(g, Partition(k=k, assign=list(assign)))
    assert s.slot == ref.slot
    assert [[list(cell) for cell in cells] for cells in s.cells] == [
        [list(cell) for cell in cells] for cells in ref.cells
    ]
    for field in ("gmax", "low", "stamp", "band", "clock", "f", "offset", "others", "iter"):
        assert getattr(s, field) == getattr(ref, field), field
    assert s.f == evaluate(g, s.partition)
    assert s.partition.assign == assign


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


def _assert_lockstep(s, ref):
    """s holds ref's table: equal slots and f, every cell at or above its
    array's floor equal to ref's, member order included, and the entries
    below the floor, grouped by cell in stamp order, equal to ref's cells."""
    assert s.f == ref.f
    assert s.slot == ref.slot
    for i, cells in enumerate(s.cells):
        low = s.low[i]
        ref_cells = [list(cell) for cell in ref.cells[i]]
        assert [list(cell) for cell in cells[low:]] == ref_cells[low:]
        if not low:  # nothing lies below, and the array keeps no stamps
            continue
        below = [[] for _ in range(low)]
        col = s.slot[i]
        for v in sorted(range(len(col)), key=s.stamp[i].__getitem__):
            if 0 <= col[v] < low:
                below[col[v]].append(v)
        assert below == ref_cells[:low]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    max_w=st.sampled_from([1, 2]),
    k=st.integers(2, 4),
    bursts=st.lists(st.integers(0, 80), min_size=1, max_size=4),
    one_subset=st.booleans(),
)
@example(seed=1, max_w=1, k=3, bursts=[40, 0, 80], one_subset=True)
def test_floors_move_in_lockstep_with_the_eager_table(seed, max_w, k, bursts, one_subset):
    # Bursts of random transfers lift the tops above the floors; each O1
    # descent after one lowers them again, so walks fill bands.  O1, O3 and
    # O4 must draw the same moves from both tables.  With every vertex in
    # subset 0, B_0 starts empty, at floor 0 and with no stamps.
    rng = random.Random(seed)
    g = random_graph(rng, 30 + 30 * max_w, 0.6, -max_w, max_w)
    assert g.max_abs_incident_weight >= 20 * g.max_abs_weight  # the table keeps floors
    assign = [0 if one_subset else rng.randrange(k) for _ in range(g.n)]
    s = SearchState(g, Partition(k=k, assign=assign))
    ref = EagerState(g, Partition(k=k, assign=list(assign)))
    low0 = list(s.low)
    assert max(low0) > 0
    if one_subset:
        assert low0[0] == 0 and s.stamp[0] is None
    _assert_lockstep(s, ref)

    def transfer(v, t):
        assert apply_single_transfer(s, v, t) == eager_apply_single_transfer(ref, v, t)
        _assert_lockstep(s, ref)

    def same_draw(select, *args):
        draw = rng.getrandbits(32)
        a, b = random.Random(draw), random.Random(draw)
        move = select(s, *args, a)
        assert move == select(ref, *args, b)
        assert a.getstate() == b.getstate()
        return move

    for burst in bursts:
        for _ in range(burst):
            v = rng.randrange(g.n)
            t = rng.randrange(k - 1)
            transfer(v, t + (t >= s.partition.assign[v]))
        for _ in range(500):
            v, t, gain = same_draw(best_single_transfer)
            if gain <= 0:
                break
            transfer(v, t)
        same_draw(op3_select, TabuList(g.n), s.f)
        move = same_draw(op4_select)
        if move is not None:
            for tr in (move.first, move.second):
                transfer(tr.vertex, tr.target)
    assert any(lo < lo0 for lo, lo0 in zip(s.low, low0)), "no walk filled a band"
    for i in range(k):
        list(s.cells_descending(i))
    assert [[list(cell) for cell in cells] for cells in s.cells] == [
        [list(cell) for cell in cells] for cells in ref.cells
    ]
