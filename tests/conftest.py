"""Shared fixtures and independent brute-force oracles.

The recompute helpers here derive gains and objectives straight from the
definitions over the edge list, independent of the incremental engine they
are used to check.
"""

from __future__ import annotations

import math
import os
import random
from copy import copy
from itertools import tee
from pathlib import Path

import pytest

from maxkcut.buckets import SearchState, best_single_transfer
from maxkcut.graph import Graph, triples
from maxkcut.operators import _O4_TIE_BUDGET, Move, Transfer, psi


def random_graph(
    rng: random.Random,
    n: int,
    density: float,
    wmin: int = -10,
    wmax: int = 10,
) -> Graph:
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                edges.append((u, v, rng.randint(wmin, wmax)))
    return Graph.from_edges(n, edges)


def brute_objective(g: Graph, assign) -> int:
    return sum(w for u, v, w in triples(g.edges) if assign[u] != assign[v])


def brute_gain_table(g: Graph, k: int, assign) -> dict[tuple[int, int], int]:
    """delta[(v, x)] for every x != assign[v], from the definition."""
    table = {}
    for v in range(g.n):
        internal = sum(w for nb, w in g.adjacency[v] if assign[nb] == assign[v])
        for x in range(k):
            if x == assign[v]:
                continue
            external = sum(w for nb, w in g.adjacency[v] if assign[nb] == x)
            table[(v, x)] = internal - external
    return table


def stored_gain(s: SearchState, v: int, x: int) -> int:
    """The gain of moving v into subset x as the table holds it: the table
    stores the bucket-cell index gain + W, so W is taken off."""
    return s.slot[x][v] - s.offset


def combined_gain(s: SearchState, u: int, t_u: int, v: int, t_v: int) -> int:
    """Gain of jointly moving u -> t_u and v -> t_v (u != v): the two single
    gains plus psi * w_uv, where w_uv is 0 for a non-adjacent pair."""
    if u == v:
        raise ValueError("double transfer needs two distinct vertices")
    w_uv = next((w for nb, w in s.graph.adjacency[u] if nb == v), 0)
    c_u = s.partition.assign[u]
    c_v = s.partition.assign[v]
    return stored_gain(s, u, t_u) + stored_gain(s, v, t_v) + psi(c_u, c_v, t_u, t_v) * w_uv


def reference_op3_select(s: SearchState, tabu, f_best: int, rng: random.Random) -> Move:
    """O3 as first written: one tabu test per member of each array's top
    admissible cell, read straight off s.cells.  operators.op3_select must
    return the same move and leave rng in the same state."""
    best: int | None = None
    per_array: dict[int, list[int]] = {}
    for i, cells in enumerate(s.cells):
        for idx in range(len(cells) - 1, -1, -1):
            if not cells[idx]:
                continue
            gain = idx - s.offset
            if best is not None and gain < best:
                break
            admissible = [
                v
                for v in reversed(cells[idx])
                if not tabu.is_forbidden(v, i, s.iter) or s.f + gain > f_best
            ]
            if admissible:
                if best is None or gain > best:
                    best = gain
                    per_array = {i: admissible}
                else:
                    per_array[i] = admissible
                break
    if best is None:
        v, t, gain = best_single_transfer(s, rng)
        return Move(gain=gain, first=Transfer(v, s.partition.assign[v], t))
    i = rng.choice(sorted(per_array))
    v = rng.choice(per_array[i])
    return Move(gain=best, first=Transfer(v, s.partition.assign[v], i))


def _descending(s: SearchState, i: int):
    """(vertex, gain) for every entry of B_i in non-increasing gain order,
    newest first within a cell: the per-vertex walk the reference O4 reads."""
    for idx, cell in s.cells_descending(i):
        for v in reversed(cell):
            yield v, idx - s.offset


def reference_op4_select(s: SearchState, rng: random.Random) -> Move | None:
    """O4 as written before its adjacent pass read B_p cell by cell: one
    (vertex, gain) stream per array and a per-vertex walk of every
    neighbour list.  operators.op4_select must return the same move and
    leave rng in the same state.

    Best double transfer (u -> S_p, v -> S_q) for a randomly drawn ordered
    pair of distinct subsets; gain may be <= 0.

    Bucket-ordered scans of arrays p and q.  An adjacent pair's combined
    gain is at most gain(u) + gain(v) + 2*max|w| when u is in S_q (the swap
    case, psi = 2) and gain(u) + gain(v) + max|w| for every other u; pairs
    whose bound is below the incumbent are skipped.  Ties are resolved by
    reservoir sampling over the scanned candidates.
    """
    assign = s.partition.assign
    k = s.partition.k
    p, q = rng.sample(range(k), 2)

    best = -math.inf  # no candidate yet: every bound below holds until one is met
    choice: tuple[int, int] | None = None
    tie_count = 0
    tie_budget = _O4_TIE_BUDGET
    adjacency = s.graph.adjacency

    # Each copy of scan_q rescans B_q from the top; tee caches the entries
    # read so far and reads further ones from the cells lazily.
    (scan_q,) = tee(_descending(s, q), 1)
    top_q = next(copy(scan_q), None)
    if top_q is None:  # every vertex is in S_q
        return None
    gq_top = top_q[1]

    # Non-adjacent pairs: for each u from the top of p, partners from the top
    # of q; sums only decrease, so each inner scan stops at the incumbent.
    for u, gu in _descending(s, p):
        if gu + gq_top < best:
            break
        if gu + gq_top == best and tie_budget <= 0:
            break
        nu = None
        for v, gv in copy(scan_q):
            gain = gu + gv
            if gain < best:
                break
            if v == u:
                continue
            if nu is None:
                nu = set(nb for nb, _ in adjacency[u])
            if v in nu:
                continue
            if gain > best:
                best = gain
                choice = (u, v)
                tie_count = 1
            else:
                tie_budget -= 1
                if tie_budget < 0:
                    break
                tie_count += 1
                if rng.random() * tie_count < 1.0:
                    choice = (u, v)

    # Adjacent pairs: psi(c_u, c_v, p, q) = -[c_u=c_v] + [c_v=p] + [c_u=q]
    # with c_u != p, so psi*w can exceed max|w| only in the swap case
    # c_u = q, c_v = p, where it is at most 2*max|w|.  That per-u bound
    # floors the admissible gain of v into S_q; a u whose floor is above the
    # top of B_q is skipped, and the scan ends once even 2*max|w| cannot
    # reach the incumbent.  Skipped pairs are strictly below it, so they
    # would have drawn no random number.
    max_w = s.graph.max_abs_weight
    two_w = 2 * max_w
    # psi(c_u, c_v, p, q) per origin pair, filled as pairs are met.
    coefs: dict[tuple[int, int], int] = {}
    for u, gu in _descending(s, p):
        neighbours = adjacency[u]
        if not neighbours:
            continue
        cu = assign[u]
        if gu + gq_top + two_w < best:
            break
        bound = two_w if cu == q else max_w
        v_floor = best - gu - bound
        if v_floor > gq_top:
            continue
        for v, w in neighbours:
            cv = assign[v]
            if cv == q:
                continue
            dvq = stored_gain(s, v, q)
            if dvq < v_floor:
                continue
            coef = coefs.get((cu, cv))
            if coef is None:
                coef = coefs[cu, cv] = psi(cu, cv, p, q)
            gain = gu + dvq + coef * w
            if gain > best:
                best = gain
                choice = (u, v)
                tie_count = 1
                v_floor = best - gu - bound
            elif gain == best:
                tie_count += 1
                if rng.random() * tie_count < 1.0:
                    choice = (u, v)

    if choice is None:
        return None
    u, v = choice
    return Move(
        gain=best,
        first=Transfer(u, assign[u], p),
        second=Transfer(v, assign[v], q),
    )


def bucket_snapshot(s: SearchState) -> dict[tuple[int, int], int]:
    """Map of (vertex, array) -> gain read off the bucket cells, with
    structural checks (2W+1 cells per array, no vertex twice in one array)."""
    snapshot = {}
    for i, cells in enumerate(s.cells):
        assert len(cells) == 2 * s.offset + 1, f"array {i} has {len(cells)} cells"
        for idx, cell in enumerate(cells):
            for v in cell:
                assert (v, i) not in snapshot, f"vertex {v} duplicated in array {i}"
                snapshot[(v, i)] = idx - s.offset
    return snapshot


def assert_coherent(g: Graph, s: SearchState) -> None:
    """Full from-scratch check of f, the gain table, and bucket placement."""
    assign = s.partition.assign
    k = s.partition.k
    assert s.f == brute_objective(g, assign)
    # One column of n entries per subset; a vertex's own-subset entry is -1.
    assert len(s.slot) == k
    assert all(len(col) == g.n for col in s.slot)
    assert all(s.slot[assign[v]][v] == -1 for v in range(g.n))
    expected = brute_gain_table(g, k, assign)
    for (v, x), gain in expected.items():
        assert stored_gain(s, v, x) == gain, f"gain of {v} into {x}"
        assert v in s.cells[x][s.slot[x][v]], f"{v} not in the cell its slot for {x} names"
    assert bucket_snapshot(s) == expected
    for i in range(k):
        top = max((idx for idx, cell in enumerate(s.cells[i]) if cell), default=0)
        assert s.gmax[i] >= top, f"gmax of array {i} below its top cell"


@pytest.fixture
def triangle() -> Graph:
    return Graph.from_edges(3, [(0, 1, 1), (0, 2, 2), (1, 2, 3)])


@pytest.fixture
def square4() -> Graph:
    # 4-vertex graph where the best k=2 cut needs a swap: edges
    # (0,1):3, (2,3):3, (0,2):2, (1,3):2
    return Graph.from_edges(4, [(0, 1, 3), (2, 3, 3), (0, 2, 2), (1, 3, 2)])


def gset_dir() -> Path | None:
    path = os.environ.get("MAXKCUT_GSET_DIR")
    if not path:
        return None
    p = Path(path)
    return p if p.is_dir() else None


def require_gset(*names: str) -> Path:
    d = gset_dir()
    if d is None:
        pytest.skip("MAXKCUT_GSET_DIR not set; G-set benchmark files unavailable")
    for name in names:
        if not (d / name).exists():
            pytest.skip(f"G-set instance {name} not present in {d}")
    return d
