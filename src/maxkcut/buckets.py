"""Incremental single-transfer gain table backed by bucket arrays.

For each subset i there is a bucket array B_i of 2W+1 cells (W = the largest
absolute incident weight sum of any vertex, which bounds every gain).  Cell
``gain + W`` of B_i is an insertion-ordered set (a dict) of the vertices
outside S_i whose gain for moving into S_i is ``gain``; the table stores
that cell index, slot[v][i] = gain + W, not the gain itself.  Once
SearchState has built the table, apply_single_transfer is its one writer:
every gain change moves the vertex from cell slot[v][i] to its new cell, so
a cell read backwards lists its members newest first.  A per-array top
marker (gmax) is raised eagerly on insertion and lowered lazily on queries.
cells_descending is the one walk, top cell first; O3 and O4 read each
cell's members directly.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from itertools import islice

from .draws import below
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

    __slots__ = ("graph", "partition", "f", "slot", "cells", "gmax", "offset", "iter")

    def __init__(self, graph: Graph, partition: Partition):
        check_bucket_cells(graph, partition.k)
        self.graph = graph
        self.partition = partition
        self.iter = 0
        self.offset = off = graph.max_abs_incident_weight
        k = partition.k
        assign = partition.assign
        # slot[v][x]: off + the gain of moving v into subset x; the entry for
        # x == assign[v] is meaningless and kept at off (gain 0).  Each cell
        # receives its members in ascending vertex order.
        others = [[x for x in range(k) if x != c] for c in range(k)]
        self.slot = slot = []
        self.cells = cells = [[{} for _ in range(2 * off + 1)] for _ in range(k)]
        self.gmax = gmax = [0] * k
        for v, nbs in enumerate(graph.adjacency):
            row = [0] * k
            for nb, w in nbs:
                row[assign[nb]] += w
            c = assign[v]
            own = row[c]
            row[c] = off
            for x in others[c]:
                row[x] = idx = own - row[x] + off
                cells[x][idx][v] = None
                if idx > gmax[x]:
                    gmax[x] = idx
            slot.append(row)
        self.f = evaluate(graph, partition)

    def _true_gmax(self, i: int) -> int:
        """Lower gmax to the true top non-empty cell; -1 when B_i is empty."""
        cells = self.cells[i]
        idx = self.gmax[i]
        while idx >= 0 and not cells[idx]:
            idx -= 1
        self.gmax[i] = idx if idx >= 0 else 0
        return idx

    def cells_descending(self, i: int) -> Iterator[tuple[int, dict[int, None]]]:
        """(index, cell) for each non-empty cell of B_i, top cell first; a
        member's gain is index - offset.  The state must not change while
        this is iterated."""
        cells = self.cells[i]
        for idx in range(self._true_gmax(i), -1, -1):
            cell = cells[idx]
            if cell:
                yield idx, cell


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
    slot = s.slot
    row = slot[v]
    cells, gmax = s.cells, s.gmax
    off = s.offset
    gain = row[t] - off
    s.f += gain

    # Neighbor rows: Delta_{u->y} += w * (-[c_u=c] + [c_u=t] - [y=t] + [y=c]).
    # The coefficient depends only on which of three cases c_u falls in, so
    # each case's (array, coefficient, cells) plan is built once per move.
    # Arrays are independent, so any order over y within one neighbor keeps
    # every cell's member order; neighbors go in adjacency order.
    plan_c = [(y, -2 if y == t else -1, cells[y]) for y in range(k) if y != c]
    plan_t = [(y, 2 if y == c else 1, cells[y]) for y in range(k) if y != t]
    plan_other = [(c, 1, cells[c]), (t, -1, cells[t])]
    for u, w in s.graph.adjacency[v]:
        if w == 0:
            continue
        cu = assign[u]
        plan = plan_c if cu == c else plan_t if cu == t else plan_other
        urow = slot[u]
        for y, dd, cy in plan:
            old = urow[y]
            urow[y] = new = old + w * dd
            del cy[old][u]
            cy[new][u] = None
            if new > gmax[y]:
                gmax[y] = new

    # Moved vertex: leave B_t; toward every other subset its gain falls by
    # `gain`, the new origin subset being t instead of c.  That holds for
    # x = c too, since row[c] is off (gain 0) before the move, but v has no
    # entry in B_c to delete.  Each shift re-inserts v, also when gain is 0.
    del cells[t][row[t]][v]
    row[t] = off
    assign[v] = t
    for x in range(k):
        if x == t:
            continue
        old = row[x]
        row[x] = new = old - gain
        cx = cells[x]
        if x != c:
            del cx[old][v]
        cx[new][v] = None
        if new > gmax[x]:
            gmax[x] = new

    s.iter += 1
    return gain


def best_single_transfer(s: SearchState, rng: random.Random) -> tuple[int, int, int]:
    """A maximum-gain single transfer (vertex, target subset, gain).

    Ties are broken uniformly among the arrays attaining the global top
    gain, then uniformly within that bucket cell.
    """
    k = s.partition.k
    # Cell 0 is the lowest cell, and an empty array's top is -1, so it never
    # ties.  With k >= 2 every vertex lies in some array, so tied fills.
    best = 0
    tied: list[int] = []
    for i in range(k):
        idx = s._true_gmax(i)
        if idx > best:
            best = idx
            tied = [i]
        elif idx == best:
            tied.append(i)
    getrandbits = rng.getrandbits
    i = tied[below(getrandbits, len(tied))]
    cell = s.cells[i][best]
    # The draw of rng.choice over a list of the members, newest first;
    # member j is read from the nearer end.
    size = len(cell)
    j = below(getrandbits, size)
    if j < size // 2:
        v = next(islice(reversed(cell), j, None))
    else:
        v = next(islice(cell, size - 1 - j, None))
    return v, i, best - s.offset
