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
from types import SimpleNamespace

import pytest

from maxkcut.buckets import SearchState, best_single_transfer
from maxkcut.graph import Graph, triples
from maxkcut.operators import _O4_TIE_BUDGET, Move, Transfer


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


def psi(c_u: int, c_v: int, t_u: int, t_v: int) -> int:
    """Interaction coefficient of a double transfer sharing an edge.

    Indicator form -[c_u=c_v] + [t_u=c_v] - [t_u=t_v] + [c_u=t_v]; equal to
    the seven-case definition on every admissible input.  O2 and O4 compute
    this form inline; the tests check them against this reference.
    """
    if t_u == c_u or t_v == c_v:
        raise ValueError("double-transfer targets must differ from current subsets")
    return (
        -(1 if c_u == c_v else 0)
        + (1 if t_u == c_v else 0)
        - (1 if t_u == t_v else 0)
        + (1 if c_u == t_v else 0)
    )


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
    admissible cell, read cell by cell off s.cells_descending.
    operators.op3_select must return the same move and leave rng in the
    same state."""
    best: int | None = None
    per_array: dict[int, list[int]] = {}
    for i in range(s.partition.k):
        for idx, cell in s.cells_descending(i):
            gain = idx - s.offset
            if best is not None and gain < best:
                break
            admissible = [
                v
                for v in reversed(cell)
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
    """Map of (vertex, array) -> gain read off the bucket cells at or above
    each array's floor and off the gain table below it, with structural
    checks (2W+1 cells per array, no cell below the floor filled, no vertex
    twice in one array)."""
    snapshot = {}
    for i, cells in enumerate(s.cells):
        assert len(cells) == 2 * s.offset + 1, f"array {i} has {len(cells)} cells"
        low = s.low[i]
        assert not any(cells[:low]), f"array {i} has a cell filled below its floor"
        for idx, cell in enumerate(cells):
            for v in cell:
                assert (v, i) not in snapshot, f"vertex {v} duplicated in array {i}"
                snapshot[(v, i)] = idx - s.offset
        for v, idx in enumerate(s.slot[i]):
            if 0 <= idx < low:
                assert (v, i) not in snapshot, f"vertex {v} of array {i} below the floor and in a cell"
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
        idx = s.slot[x][v]
        if idx >= s.low[x]:
            assert v in s.cells[x][idx], f"{v} not in the cell its slot for {x} names"
    assert bucket_snapshot(s) == expected
    for i in range(k):
        top = max((idx for idx, cell in enumerate(s.cells[i]) if cell), default=0)
        assert s.gmax[i] >= top, f"gmax of array {i} below its top cell"
        assert s.gmax[i] >= s.low[i], f"gmax of array {i} below its floor"


def vertexwise_table(graph: Graph, partition):
    """(others, slot, cells, gmax) built as SearchState first built them,
    vertex by vertex: a list of v's neighbour sums into each subset, then v's
    entries, each into its cell; every cell is filled."""
    off = graph.max_abs_incident_weight
    k = partition.k
    assign = partition.assign
    others = [[x for x in range(k) if x != c] for c in range(k)]
    slot = [[-1] * graph.n for _ in range(k)]
    cells = [[{} for _ in range(2 * off + 1)] for _ in range(k)]
    gmax = [0] * k
    for v, nbs in enumerate(graph.adjacency):
        sums = [0] * k
        for nb, w in nbs:
            sums[assign[nb]] += w
        c = assign[v]
        own = sums[c] + off
        for x in others[c]:
            slot[x][v] = idx = own - sums[x]
            cells[x][idx][v] = None
            if idx > gmax[x]:
                gmax[x] = idx
    return others, slot, cells, gmax


def reference_state(graph: Graph, partition) -> SimpleNamespace:
    """Every field SearchState's build sets, from the vertex-wise table and
    f from its definition: the oracle the two-pass build is checked against.
    Floors, stamps, band and clock follow the rules of the buckets module
    docstring."""
    others, slot, cells, gmax = vertexwise_table(graph, partition)
    off = graph.max_abs_incident_weight
    band = 5 * graph.max_abs_weight
    band = band if band and off >= 4 * band else 2 * off + 1
    low = [max(0, top - band) for top in gmax]
    for cx, lo in zip(cells, low):
        for cell in cx[:lo]:
            cell.clear()
    return SimpleNamespace(
        graph=graph, partition=partition, iter=0, offset=off, others=others, slot=slot,
        cells=cells, gmax=gmax, low=low, band=band, clock=graph.n,
        stamp=[list(range(graph.n)) if lo else None for lo in low],
        f=brute_objective(graph, partition.assign),
    )


class EagerState:
    """The gain table as first written, every entry in its cell at all
    times: the reference that SearchState's floors are checked against.
    Built and updated as SearchState was before it had floors; it offers
    what best_single_transfer and O1-O4 read."""

    def __init__(self, graph: Graph, partition):
        self.graph = graph
        self.partition = partition
        self.iter = 0
        self.offset = graph.max_abs_incident_weight
        self.others, self.slot, self.cells, self.gmax = vertexwise_table(graph, partition)
        self.f = brute_objective(graph, partition.assign)

    def _true_gmax(self, i):
        cells = self.cells[i]
        idx = self.gmax[i]
        while idx >= 0 and not cells[idx]:
            idx -= 1
        self.gmax[i] = idx if idx >= 0 else 0
        return idx

    def cells_descending(self, i):
        cells = self.cells[i]
        for idx in range(self._true_gmax(i), -1, -1):
            cell = cells[idx]
            if cell:
                yield idx, cell


def eager_apply_single_transfer(s: EagerState, v: int, t: int) -> int:
    """apply_single_transfer as first written, on an EagerState: every
    shifted entry leaves its cell and joins its new one."""
    assign = s.partition.assign
    c = assign[v]
    slot, cells, gmax, off = s.slot, s.cells, s.gmax, s.offset
    gain = slot[t][v] - off
    s.f += gain
    others = s.others
    plan_c = [(slot[y], -2 if y == t else -1, cells[y], y) for y in others[c]]
    plan_t = [(slot[y], 2 if y == c else 1, cells[y], y) for y in others[t]]
    plan_other = [(slot[c], 1, cells[c], c), (slot[t], -1, cells[t], t)]
    for u, w in s.graph.adjacency[v]:
        if w == 0:
            continue
        cu = assign[u]
        plan = plan_c if cu == c else plan_t if cu == t else plan_other
        for col, dd, cy, y in plan:
            old = col[u]
            col[u] = new = old + w * dd
            del cy[old][u]
            cy[new][u] = None
            if new > gmax[y]:
                gmax[y] = new
    col = slot[t]
    del cells[t][col[v]][v]
    col[v] = -1
    assign[v] = t
    for x in others[t]:
        col, cx = slot[x], cells[x]
        if x == c:
            new = off - gain
        else:
            old = col[v]
            new = old - gain
            del cx[old][v]
        col[v] = new
        cx[new][v] = None
        if new > gmax[x]:
            gmax[x] = new
    s.iter += 1
    return gain


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
