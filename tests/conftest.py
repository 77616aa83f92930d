"""Shared fixtures and independent brute-force oracles.

The recompute helpers here derive gains and objectives straight from the
definitions over the edge list, independent of the incremental engine they
are used to check.
"""

from __future__ import annotations

import os
import random
from pathlib import Path

import pytest

from maxkcut.buckets import SearchState, best_single_transfer
from maxkcut.graph import Graph
from maxkcut.operators import Move, Transfer, psi


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
    return sum(w for u, v, w in g.edges if assign[u] != assign[v])


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


def combined_gain(s: SearchState, u: int, t_u: int, v: int, t_v: int) -> int:
    """Gain of jointly moving u -> t_u and v -> t_v (u != v): the two single
    gains plus psi * w_uv, where w_uv is 0 for a non-adjacent pair."""
    if u == v:
        raise ValueError("double transfer needs two distinct vertices")
    w_uv = next((w for nb, w in s.graph.adjacency[u] if nb == v), 0)
    c_u = s.partition.assign[u]
    c_v = s.partition.assign[v]
    return s.delta[u][t_u] + s.delta[v][t_v] + psi(c_u, c_v, t_u, t_v) * w_uv


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
    expected = brute_gain_table(g, k, assign)
    for (v, x), gain in expected.items():
        assert s.delta[v][x] == gain, f"delta[{v}][{x}]"
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
