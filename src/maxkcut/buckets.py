"""Incremental single-transfer gain table backed by bucket arrays.

For each subset i there is a bucket array B_i of 2W+1 cells (W = the largest
absolute incident weight sum of any vertex, which bounds every gain).  Cell
``gain + W`` of B_i is a dict used as an insertion-ordered set of the
vertices outside S_i whose gain for moving into S_i currently equals
``gain``.  Every gain change deletes the vertex from its cell and re-inserts
it, so a cell read backwards lists its members by last arrival, newest
first.  A per-array top marker (gmax) is raised eagerly on insertion and
lowered lazily on queries.  Only this module knows the cell layout; the
selectors read it through cells_descending/descending.
"""

from __future__ import annotations

import random
from collections.abc import Iterator

from .graph import Graph
from .partition import Partition, evaluate


# Largest bucket table (k arrays of 2W+1 cells) a state may allocate.  Each
# cell is an empty dict of ~72 bytes, so this is ~0.6 GB.
MAX_BUCKET_CELLS = 2**23


def check_bucket_cells(g: Graph, k: int) -> None:
    """Raise ValueError when the bucket table of g with k subsets would
    exceed MAX_BUCKET_CELLS."""
    w = g.max_abs_incident_weight
    cells = k * (2 * w + 1)
    if cells > MAX_BUCKET_CELLS:
        raise ValueError(
            f"bucket table needs k*(2W+1) = {cells} cells (k={k}, W={w}, the largest"
            f" absolute incident weight sum), above the limit of {MAX_BUCKET_CELLS}"
        )


class SearchState:
    """Partition plus objective, gain table, and bucket structure, kept
    mutually coherent under apply_single_transfer."""

    __slots__ = ("graph", "partition", "f", "delta", "cells", "gmax", "offset", "iter")

    def __init__(self, graph: Graph, partition: Partition):
        check_bucket_cells(graph, partition.k)
        self.graph = graph
        self.partition = partition
        self.iter = 0
        self.offset = graph.max_abs_incident_weight
        self._rebuild()

    def _rebuild(self) -> None:
        g = self.graph
        k = self.partition.k
        assign = self.partition.assign
        n = g.n
        ncells = 2 * self.offset + 1
        # delta[v][x]: gain of moving v into subset x; entry for x == assign[v]
        # is meaningless and kept at 0.
        delta = [[0] * k for _ in range(n)]
        for v in range(n):
            acc = [0] * k
            for nb, w in g.adjacency[v]:
                acc[assign[nb]] += w
            own = acc[assign[v]]
            row = delta[v]
            for x in range(k):
                row[x] = own - acc[x]
            row[assign[v]] = 0
        self.delta = delta
        self.f = evaluate(g, self.partition)
        self.cells: list[list[dict[int, None]]] = [
            [{} for _ in range(ncells)] for _ in range(k)
        ]
        self.gmax = [0] * k
        for i in range(k):
            for v in range(n):
                if assign[v] != i:
                    self._insert(i, v)

    def _insert(self, i: int, v: int) -> None:
        idx = self.delta[v][i] + self.offset
        self.cells[i][idx][v] = None
        if idx > self.gmax[i]:
            self.gmax[i] = idx

    def _remove(self, i: int, v: int) -> None:
        del self.cells[i][self.delta[v][i] + self.offset][v]

    def _true_gmax(self, i: int) -> int:
        """Lower gmax to the true top non-empty cell; -1 when B_i is empty."""
        cells = self.cells[i]
        idx = self.gmax[i]
        while idx >= 0 and not cells[idx]:
            idx -= 1
        self.gmax[i] = idx if idx >= 0 else 0
        return idx

    def cells_descending(self, i: int) -> Iterator[tuple[int, dict[int, None]]]:
        """(gain, cell) for each non-empty cell of B_i, top cell first.  The
        state must not change while this is iterated."""
        cells = self.cells[i]
        off = self.offset
        for idx in range(self._true_gmax(i), -1, -1):
            cell = cells[idx]
            if cell:
                yield idx - off, cell

    def descending(self, i: int) -> Iterator[tuple[int, int]]:
        """(vertex, gain) for every entry of B_i in non-increasing gain
        order, newest first within a cell."""
        for gain, cell in self.cells_descending(i):
            for v in reversed(cell):
                yield v, gain


def init_state(g: Graph, p: Partition) -> SearchState:
    """Build a coherent state from scratch: gains per the initial-gain formula,
    buckets populated, objective evaluated."""
    return SearchState(g, p)


def apply_single_transfer(s: SearchState, v: int, t: int) -> int:
    """Move v into subset t, updating f, gains, and buckets incrementally.

    Returns the realized gain.  Only v's own row and the rows of its
    neighbors change; each changed entry is shifted to its new bucket cell.
    """
    part = s.partition
    assign = part.assign
    c = assign[v]
    if t == c:
        raise ValueError(f"target subset {t} equals current subset of vertex {v}")
    k = part.k
    delta = s.delta
    row = delta[v]
    gain = row[t]
    s.f += gain

    # Neighbor rows: Delta_{u->y} += w * (-[c_u=c] + [c_u=t] - [y=t] + [y=c]).
    # The coefficient depends only on which of three cases c_u falls in, so
    # each case's (array, coefficient) plan is built once per move.  Arrays
    # are independent, so any order over y within one neighbor keeps
    # every cell's member order; neighbors go in adjacency order.
    plan_c = [(y, -2 if y == t else -1) for y in range(k) if y != c]
    plan_t = [(y, 2 if y == c else 1) for y in range(k) if y != t]
    plan_other = [(c, 1), (t, -1)]
    cells, gmax = s.cells, s.gmax
    off = s.offset
    for u, w in s.graph.adjacency[v]:
        if w == 0:
            continue
        cu = assign[u]
        plan = plan_c if cu == c else plan_t if cu == t else plan_other
        urow = delta[u]
        for y, dd in plan:
            old = urow[y]
            new = old + w * dd
            urow[y] = new
            cy = cells[y]
            del cy[old + off][u]
            idx = new + off
            cy[idx][u] = None
            if idx > gmax[y]:
                gmax[y] = idx

    # Moved vertex: leave array t, join array c; gains toward third subsets
    # all shift by -gain (the new origin subset is t instead of c).  Each
    # shift re-inserts v, also when gain is 0 and its cell stays the same.
    s._remove(t, v)
    assign[v] = t
    for x in range(k):
        if x != c and x != t:
            s._remove(x, v)
            row[x] -= gain
            s._insert(x, v)
    row[t] = 0
    row[c] = -gain
    s._insert(c, v)

    s.iter += 1
    return gain


def best_single_transfer(s: SearchState, rng: random.Random) -> tuple[int, int, int]:
    """A maximum-gain single transfer (vertex, target subset, gain).

    Ties are broken uniformly among the arrays attaining the global top
    gain, then uniformly within that bucket cell.
    """
    k = s.partition.k
    best = None
    tied: list[int] = []
    for i in range(k):
        idx = s._true_gmax(i)
        if idx < 0:
            continue
        if best is None or idx > best:
            best = idx
            tied = [i]
        elif idx == best:
            tied.append(i)
    if best is None:
        raise ValueError("no single-transfer move exists (k subsets cover nothing)")
    i = rng.choice(tied)
    v = rng.choice(list(reversed(s.cells[i][best])))
    return v, i, best - s.offset
