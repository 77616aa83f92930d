"""Incremental single-transfer gain table backed by bucket arrays.

For each subset i there is a bucket array B_i of 2W+1 cells (W = the largest
absolute incident weight sum of any vertex, which bounds every gain).  Cell
``gain + W`` of B_i is an insertion-ordered set (a dict) of the vertices
outside S_i whose gain for moving into S_i is ``gain``; the table stores
that cell index, slot[i][v] = gain + W, not the gain itself, in one list of
n entries per subset.  A vertex's entry for its own subset is -1, below
every cell index.  Once SearchState has built the table,
apply_single_transfer is its one writer: every gain change moves the vertex
from cell slot[i][v] to its new cell, so a cell read backwards lists its
members newest first.  A per-array top marker (gmax) is raised eagerly on
insertion and lowered lazily on queries.  cells_descending is the one walk,
top cell first; O3 and O4 read each cell's members directly.
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
# Largest gain table (k columns of n entries) a state may allocate.  With
# the cell entries and others[] that grow with it, a state built at k = n
# holds 64-82 bytes per (vertex, subset) pair, so this too is ~0.6 GB.
MAX_GAIN_ENTRIES = 2**23


def check_bucket_cells(g: Graph, k: int) -> None:
    """Raise ValueError when the bucket table of g with k subsets would
    exceed MAX_BUCKET_CELLS or its gain table MAX_GAIN_ENTRIES."""
    w = g.max_abs_incident_weight
    cells = k * (2 * w + 1)
    if cells > MAX_BUCKET_CELLS:
        raise ValueError(
            f"bucket table needs k*(2W+1) = {cells} cells (k={k}, W={w}, the largest"
            f" absolute incident weight sum), above the limit of {MAX_BUCKET_CELLS}"
        )
    entries = k * g.n
    if entries > MAX_GAIN_ENTRIES:
        raise ValueError(
            f"gain table needs k*n = {entries} entries (k={k}, n={g.n}),"
            f" above the limit of {MAX_GAIN_ENTRIES}"
        )


class SearchState:
    """Partition plus objective, gain table, and bucket structure, kept
    mutually coherent under apply_single_transfer."""

    __slots__ = ("graph", "partition", "f", "slot", "cells", "gmax", "offset", "iter", "others")

    def __init__(self, graph: Graph, partition: Partition):
        check_bucket_cells(graph, partition.k)
        self.graph = graph
        self.partition = partition
        self.iter = 0
        self.offset = off = graph.max_abs_incident_weight
        k = partition.k
        assign = partition.assign
        # slot[x][v]: off + the gain of moving v into subset x, one column
        # per subset; the entry for x == assign[v] is -1, below every cell
        # index.  Each cell receives its members in ascending vertex order.
        # others[c]: the subsets other than c, ascending.
        self.others = others = [[x for x in range(k) if x != c] for c in range(k)]
        self.slot = slot = [[-1] * graph.n for _ in range(k)]
        self.cells = cells = [[{} for _ in range(2 * off + 1)] for _ in range(k)]
        self.gmax = gmax = [0] * k
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


# perfbench wraps this name to time building a state.
init_state = SearchState


def apply_single_transfer(s: SearchState, v: int, t: int) -> int:
    """Move v into subset t, updating f, gains, and buckets incrementally.

    Returns the realized gain.  Only the entries of v and of its neighbors
    change; each changed entry is shifted to its new bucket cell.
    """
    assign = s.partition.assign
    c = assign[v]
    if t == c:
        raise ValueError(f"target subset {t} equals current subset of vertex {v}")
    slot = s.slot
    cells, gmax = s.cells, s.gmax
    off = s.offset
    gain = slot[t][v] - off
    s.f += gain

    # Neighbor entries: Delta_{u->y} += w * (-[c_u=c] + [c_u=t] - [y=t] + [y=c]).
    # The coefficient depends only on which of three cases c_u falls in, so
    # each case's (column, coefficient, cells, array) plan is built once per
    # move.  Arrays are independent, so any order over y within one neighbor
    # keeps every cell's member order; neighbors go in adjacency order.
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

    # Moved vertex: leave B_t; toward every other subset its gain falls by
    # `gain`, the new origin subset being t instead of c.  Toward c, whose
    # entry was the -1 sentinel, that is off - gain, and v has no entry in
    # B_c to delete.  Each shift re-inserts v, also when gain is 0.
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
