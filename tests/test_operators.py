import hashlib
import itertools
import random

import pytest

from maxkcut.buckets import init_state
from maxkcut.graph import Graph
from maxkcut.operators import (
    Move,
    Transfer,
    apply_move,
    op1_select,
    op2_select,
    op3_select,
    op4_select,
    op5_apply,
    psi,
)
from maxkcut.partition import Partition, evaluate
from maxkcut.tabu import TabuList

from conftest import brute_objective, combined_gain, random_graph, reference_op3_select


def psi_case_table(c_u, c_v, t_u, t_v):
    """The seven-case definition, transcribed literally."""
    if c_u == c_v and t_u == t_v:
        return -2
    if c_u == c_v and t_u != t_v:
        return -1
    if c_u != c_v and t_u == t_v:
        return -1
    if c_u != c_v and t_u == c_v and t_v != c_u:
        return 1
    if c_u != c_v and t_u != c_v and t_v == c_u:
        return 1
    if c_u != c_v and t_u == c_v and t_v == c_u:
        return 2
    return 0


def test_psi_paper_cases():
    assert psi(0, 0, 1, 1) == -2  # same origins, same target
    assert psi(0, 1, 1, 0) == 2  # swap
    assert psi(0, 1, 2, 3) == 0  # all four distinct


def test_psi_equals_case_table_exhaustively():
    for c_u, c_v, t_u, t_v in itertools.product(range(4), repeat=4):
        if t_u == c_u or t_v == c_v:
            continue
        assert psi(c_u, c_v, t_u, t_v) == psi_case_table(c_u, c_v, t_u, t_v)


def test_psi_rejects_noop_targets():
    with pytest.raises(ValueError):
        psi(0, 1, 0, 2)


def dt_differential(g, k, assign, u, t_u, v, t_v):
    after = list(assign)
    after[u] = t_u
    after[v] = t_v
    return brute_objective(g, after) - brute_objective(g, assign)


def test_combined_gain_triangle_to_empty(triangle):
    s = init_state(triangle, Partition(k=3, assign=[0, 0, 1]))
    gain = combined_gain(s, 0, 2, 1, 2)
    assert gain == dt_differential(triangle, 3, [0, 0, 1], 0, 2, 1, 2) == 0


def test_combined_gain_swap(square4):
    s = init_state(square4, Partition(k=2, assign=[0, 1, 0, 1]))
    assert s.f == 6
    gain = combined_gain(s, 0, 1, 1, 0)
    assert gain == 4
    assert gain == dt_differential(square4, 2, [0, 1, 0, 1], 0, 1, 1, 0)


def test_combined_gain_nonadjacent_is_sum():
    g = Graph.from_edges(4, [(0, 1, 5)])
    s = init_state(g, Partition(k=2, assign=[0, 0, 0, 1]))
    assert combined_gain(s, 2, 1, 3, 0) == s.delta[2][1] + s.delta[3][0]


def test_combined_gain_matches_differential_exhaustively():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(4, 8)
        g = random_graph(rng, n, 0.6)
        k = rng.randint(2, min(4, n))
        assign = [rng.randrange(k) for _ in range(n)]
        s = init_state(g, Partition(k=k, assign=assign))
        for u in range(n):
            for v in range(u + 1, n):
                for t_u in range(k):
                    if t_u == assign[u]:
                        continue
                    for t_v in range(k):
                        if t_v == assign[v]:
                            continue
                        assert combined_gain(s, u, t_u, v, t_v) == dt_differential(
                            g, k, assign, u, t_u, v, t_v
                        )


def test_op1_improving(triangle):
    s = init_state(triangle, Partition(k=2, assign=[0, 1, 0]))
    m = op1_select(s, random.Random(0))
    assert m is not None
    assert (m.first.vertex, m.first.target, m.gain) == (0, 1, 1)
    assert m.second is None


def test_op1_none_at_local_optimum(triangle):
    s = init_state(triangle, Partition(k=2, assign=[0, 0, 1]))
    assert op1_select(s, random.Random(0)) is None


def test_op1_none_on_edgeless():
    g = Graph.from_edges(4, [])
    s = init_state(g, Partition(k=2, assign=[0, 1, 0, 1]))
    assert op1_select(s, random.Random(0)) is None


def test_op1_none_implies_no_positive_gain():
    rng = random.Random(11)
    for _ in range(30):
        g = random_graph(rng, rng.randint(3, 8), 0.5)
        k = rng.randint(2, min(4, g.n))
        assign = [rng.randrange(k) for _ in range(g.n)]
        s = init_state(g, Partition(k=k, assign=assign))
        if op1_select(s, rng) is None:
            for v in range(g.n):
                for t in range(k):
                    if t != assign[v]:
                        assert s.delta[v][t] <= 0


def brute_best_dt_over_edges(g, k, assign):
    best = None
    for u, v, w in g.edges:
        if w == 0:
            continue
        for t_u in range(k):
            if t_u == assign[u]:
                continue
            for t_v in range(k):
                if t_v == assign[v]:
                    continue
                gain = dt_differential(g, k, assign, u, t_u, v, t_v)
                if best is None or gain > best:
                    best = gain
    return best


def test_op2_finds_the_swap(square4):
    s = init_state(square4, Partition(k=2, assign=[0, 1, 0, 1]))
    assert op1_select(s, random.Random(0)) is None
    m = op2_select(s, random.Random(0))
    assert m is not None and m.gain == 4
    apply_move(s, m)
    assert s.f == 10


def test_op2_none_at_dt_optimum(triangle):
    s = init_state(triangle, Partition(k=3, assign=[0, 1, 2]))
    assert brute_best_dt_over_edges(triangle, 3, [0, 1, 2]) <= 0
    assert op2_select(s, random.Random(0)) is None


def test_op2_none_on_zero_weights():
    g = Graph.from_edges(4, [(0, 1, 0), (1, 2, 0)])
    s = init_state(g, Partition(k=2, assign=[0, 0, 1, 1]))
    assert op2_select(s, random.Random(0)) is None


def test_op2_unsampled_matches_brute_force():
    rng = random.Random(17)
    for _ in range(25):
        g = random_graph(rng, rng.randint(4, 8), 0.6)
        k = rng.randint(2, min(4, g.n))
        assign = [rng.randrange(k) for _ in range(g.n)]
        s = init_state(g, Partition(k=k, assign=assign))
        m = op2_select(s, rng, max_edges=None)
        best = brute_best_dt_over_edges(g, k, assign)
        if m is None:
            assert best is None or best <= 0
        else:
            assert m.gain == best > 0


def test_op2_sampling_caps_edges(square4):
    s = init_state(square4, Partition(k=2, assign=[0, 1, 0, 1]))
    # a 1-edge sample still returns a positive move when it hits one
    seen = {op2_select(s, random.Random(seed), max_edges=1) for seed in range(20)}
    assert any(m is not None for m in seen)


def test_op2_sampling_skips_zero_weight_edges():
    # Zero-weight edges join the vertices with the best single gains, so a
    # sample that drew one would return it; a 1-edge cap samples among the
    # nonzero edges only.
    rng = random.Random(23)
    for _ in range(40):
        g = random_graph(rng, rng.randint(4, 9), 0.7, wmin=-1, wmax=1)
        weight = {frozenset((u, v)): w for u, v, w in g.edges}
        k = rng.randint(2, 4)
        s = init_state(g, Partition(k=k, assign=[rng.randrange(k) for _ in range(g.n)]))
        for cap in (1, 2):
            m = op2_select(s, rng, max_edges=cap)
            if m is not None:
                assert weight[frozenset((m.first.vertex, m.second.vertex))] != 0


TRI_TABU_STATE = [0, 0, 1]  # gains: v0->S2 = -1, v1->S2 = -2, v2->S1 = -5


def test_op3_respects_tabu(triangle):
    s = init_state(triangle, Partition(k=2, assign=list(TRI_TABU_STATE)))
    tabu = TabuList(3)
    tabu.expiry[(0, 1)] = 100  # v0 banned from S2
    m = op3_select(s, tabu, f_best=10_000, rng=random.Random(0))
    assert (m.first.vertex, m.first.target, m.gain) == (1, 1, -2)


def test_op3_aspiration_boundary(triangle):
    s = init_state(triangle, Partition(k=2, assign=list(TRI_TABU_STATE)))
    tabu = TabuList(3)
    tabu.expiry[(0, 1)] = 100
    # move v0->S2 reaches f=4; aspiration needs strictly better than f_best
    m = op3_select(s, tabu, f_best=4, rng=random.Random(0))
    assert (m.first.vertex, m.gain) == (1, -2)
    m = op3_select(s, tabu, f_best=3, rng=random.Random(0))
    assert (m.first.vertex, m.gain) == (0, -1)


def test_op3_all_tabu_falls_back(triangle):
    s = init_state(triangle, Partition(k=2, assign=list(TRI_TABU_STATE)))
    tabu = TabuList(3)
    for v in range(3):
        for t in range(2):
            tabu.expiry[(v, t)] = 100
    m = op3_select(s, tabu, f_best=10_000, rng=random.Random(0))
    assert m.gain == -1  # unrestricted best


def test_op3_never_picks_inadmissible():
    rng = random.Random(23)
    for _ in range(40):
        g = random_graph(rng, rng.randint(4, 8), 0.5)
        k = rng.randint(2, min(3, g.n))
        assign = [rng.randrange(k) for _ in range(g.n)]
        s = init_state(g, Partition(k=k, assign=assign))
        tabu = TabuList(g.n)
        for _ in range(rng.randint(0, 5)):
            tabu.expiry[(rng.randrange(g.n), rng.randrange(k))] = s.iter + 10
        f_best = s.f + rng.randint(-3, 3)
        m = op3_select(s, tabu, f_best, rng)
        v, t = m.first.vertex, m.first.target
        admissible = {
            (vv, tt): s.delta[vv][tt]
            for vv in range(g.n)
            for tt in range(k)
            if tt != assign[vv]
            and (not tabu.is_forbidden(vv, tt, s.iter) or s.f + s.delta[vv][tt] > f_best)
        }
        if admissible:
            assert (v, t) in admissible
            assert m.gain == max(admissible.values())


def test_op3_trajectory_digest():
    """Pins O3's exact moves and RNG use under tabu and aspiration.

    Each of 300 seeded random states (n 2-60, k 2-5; about a third are k=2
    graphs with +-1 weights, whose cells are large) starts with a random
    tabu list of live and expired entries and runs eight op3_select calls
    with f_best a few units either side of f, so aspiration both holds and
    fails.  Each move is applied and its return ban recorded as the
    diversified phase does.  The move and the RNG state after each call are
    hashed, so a change in the move, the tie-break or the number of random
    draws changes the digest.
    """
    rng = random.Random(1618)
    h = hashlib.sha256()
    for _ in range(300):
        n = rng.randint(2, 60)
        if rng.random() < 0.35:
            k = 2
            edges = [
                (u, v, rng.choice((-1, 1)))
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.1
            ]
        else:
            k = rng.randint(2, min(5, n))
            wmax = rng.randint(1, 10)
            density = rng.choice([0.1, 0.3, 0.6])
            edges = [
                (u, v, rng.randint(-wmax, wmax))
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < density
            ]
        g = Graph.from_edges(n, edges)
        s = init_state(g, Partition(k=k, assign=[rng.randrange(k) for _ in range(n)]))
        tabu = TabuList(n)
        for _ in range(rng.randint(0, n)):
            tabu.expiry[(rng.randrange(n), rng.randrange(k))] = rng.randint(-4, 12)
        op_rng = random.Random(rng.randrange(2**32))
        for _ in range(8):
            f_best = s.f + rng.randint(-4, 4)
            m = op3_select(s, tabu, f_best, op_rng)
            h.update(repr((m, op_rng.getstate())).encode())
            apply_move(s, m)
            tabu.record(m.first.vertex, m.first.origin, s.iter, op_rng)
    assert h.hexdigest() == (
        "d4dc0693d891190e418ff202216a6f8f1675cf6cb37798883e38e3e220178657"
    )


def test_op3_matches_reference_on_large_cells():
    """O3 returns the reference's move and leaves the RNG where it does.

    States are k=2, n 400-600, m = n edges of weight +-1, after a descent,
    so the top cells hold hundreds of vertices.  20-200 live bans (and some
    expired ones) sit inside the top cells of both arrays, so the drawn
    member often lies past banned ones in the cell; the test counts those
    draws and requires them to occur.
    """
    rng = random.Random(8128)
    past_bans = 0
    for _ in range(12):
        n = rng.randint(400, 600)
        pairs = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(n)}
        g = Graph.from_edges(n, [(u, v, rng.choice((-1, 1))) for u, v in sorted(pairs)])
        s = init_state(g, Partition(k=2, assign=[rng.randrange(2) for _ in range(n)]))
        while (m := op1_select(s, rng)) is not None:
            apply_move(s, m)
        tabu = TabuList(n)
        top = [
            (v, i)
            for i in range(2)
            for _, cell in itertools.islice(s.cells_descending(i), 2)
            for v in cell
        ]
        for v, i in rng.sample(top, min(len(top), rng.randint(20, 200))):
            tabu.expiry[(v, i)] = s.iter + rng.randint(-3, 30)
        for _ in range(40):
            f_best = s.f + rng.randint(-2, 2)
            seed = rng.randrange(2**32)
            ref_rng, op_rng = random.Random(seed), random.Random(seed)
            expected = reference_op3_select(s, tabu, f_best, ref_rng)
            m = op3_select(s, tabu, f_best, op_rng)
            assert m == expected
            assert op_rng.getstate() == ref_rng.getstate()
            v, t = m.first.vertex, m.first.target
            if s.f + m.gain <= f_best:
                ahead = itertools.takewhile(
                    lambda u: u != v, reversed(s.cells[t][m.gain + s.offset])
                )
                past_bans += any(tabu.is_forbidden(u, t, s.iter) for u in ahead)
            apply_move(s, m)
            tabu.record(v, m.first.origin, s.iter, op_rng)
    assert past_bans >= 20


def brute_best_o4(s, p, q):
    g = s.graph
    assign = s.partition.assign
    best = None
    for u in range(g.n):
        if assign[u] == p:
            continue
        for v in range(g.n):
            if v == u or assign[v] == q:
                continue
            gain = combined_gain(s, u, p, v, q)
            if best is None or gain > best:
                best = gain
    return best


def test_op4_exact_against_brute_force():
    rng = random.Random(31)
    for _ in range(40):
        g = random_graph(rng, rng.randint(4, 9), 0.5)
        k = rng.randint(2, min(4, g.n))
        assign = [rng.randrange(k) for _ in range(g.n)]
        s = init_state(g, Partition(k=k, assign=assign))
        m = op4_select(s, random.Random(rng.randrange(2**30)))
        if m is None:
            continue
        p, q = m.first.target, m.second.target
        assert m.gain == brute_best_o4(s, p, q)
        assert m.first.vertex != m.second.vertex
        assert assign[m.first.vertex] != p and assign[m.second.vertex] != q


def test_op4_trajectory_digest():
    """Pins O4's exact moves and RNG use, ties included, so a pruning change
    that drops a pair able to reach the incumbent fails here.

    Each of 300 seeded random states (n 2-30, k 2-5, weights in [-W, W]
    with W <= 10, so zero weights occur, and up to n/4 isolated vertices)
    runs up to eight op4_select calls, applying each move.  Every returned
    move is hashed with the RNG state after the call, so a change in the
    move, the tie-break or the number of random draws changes the digest.
    """
    rng = random.Random(2718)
    h = hashlib.sha256()
    for _ in range(300):
        n = rng.randint(2, 30)
        k = rng.randint(2, min(5, n))
        wmax = rng.randint(1, 10)
        density = rng.choice([0.2, 0.5, 0.9])
        isolated = set(rng.sample(range(n), rng.randint(0, n // 4)))
        edges = [
            (u, v, rng.randint(-wmax, wmax))
            for u in range(n)
            for v in range(u + 1, n)
            if u not in isolated and v not in isolated and rng.random() < density
        ]
        g = Graph.from_edges(n, edges)
        assign = [rng.randrange(k) for _ in range(n)]
        s = init_state(g, Partition(k=k, assign=assign))
        op_rng = random.Random(rng.randrange(2**32))
        for _ in range(8):
            m = op4_select(s, op_rng)
            h.update(repr((m, op_rng.getstate())).encode())
            if m is None:
                break
            apply_move(s, m)
    assert h.hexdigest() == (
        "e9778c655676e8f6c2986cb5876c4289821c5939d43e5bde5e0d1ab58f8946d0"
    )


def test_op4_finds_the_heavy_swap():
    """k=3, (p, q) = (1, 2): the unique best O4 move swaps the endpoints of
    the weight-10 edge (2 in S_q -> S_p, 3 in S_p -> S_q), psi = 2.

    B_1 lists 0 (S_2), 4 (S_0), 1 (S_0), 2 (S_2).  Vertex 1 is not in S_q,
    so its pairs are bounded by max|w| and cannot reach the incumbent; the
    later vertex 2 is in S_q and reaches it only through the 2*max|w| bound.
    """
    g = Graph.from_edges(
        5, [(0, 3, -3), (0, 1, 2), (2, 4, 3), (1, 4, -3), (2, 3, 10), (1, 3, 3)]
    )
    assign = [2, 0, 2, 1, 0]
    s = init_state(g, Partition(k=3, assign=assign))
    assert brute_best_o4(s, 1, 2) == 3
    winners = [
        (u, v)
        for u in range(5)
        for v in range(5)
        if u != v and assign[u] != 1 and assign[v] != 2
        and combined_gain(s, u, 1, v, 2) == 3
    ]
    assert winners == [(2, 3)]
    for seed in itertools.count():
        m = op4_select(s, random.Random(seed))
        if (m.first.target, m.second.target) == (1, 2):
            break
    assert m == Move(gain=3, first=Transfer(2, 2, 1), second=Transfer(3, 1, 2))


def test_op4_k2_pair_is_both_subsets(square4):
    s = init_state(square4, Partition(k=2, assign=[0, 1, 0, 1]))
    m = op4_select(s, random.Random(0))
    assert {m.first.target, m.second.target} == {0, 1}


def test_op4_zero_weight_graph():
    g = Graph.from_edges(4, [(0, 1, 0)])
    s = init_state(g, Partition(k=2, assign=[0, 0, 1, 1]))
    m = op4_select(s, random.Random(0))
    assert m is not None and m.gain == 0


def test_op5_changes_exactly_one_vertex():
    rng = random.Random(2)
    g = random_graph(rng, 30, 0.2)
    assign = [rng.randrange(3) for _ in range(30)]
    s = init_state(g, Partition(k=3, assign=list(assign)))
    op5_apply(s, rng)
    diffs = [v for v in range(30) if s.partition.assign[v] != assign[v]]
    assert len(diffs) == 1


def test_op5_seeded_determinism():
    g = Graph.from_edges(6, [(0, 1, 1)])
    seqs = []
    for _ in range(2):
        rng = random.Random(99)
        s = init_state(g, Partition(k=3, assign=[0, 1, 2, 0, 1, 2]))
        seqs.append([op5_apply(s, rng) for _ in range(10)])
    assert seqs[0] == seqs[1]


def test_op5_k2_always_opposite(triangle):
    rng = random.Random(1)
    s = init_state(triangle, Partition(k=2, assign=[0, 0, 1]))
    for _ in range(10):
        before = list(s.partition.assign)
        tr = op5_apply(s, rng)
        assert tr.target == 1 - before[tr.vertex]
