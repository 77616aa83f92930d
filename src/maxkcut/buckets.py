"""Incremental single-transfer gain table backed by bucket arrays.

For each subset i there is a bucket array B_i of 2W+1 cells (W = the largest
absolute incident weight sum of any vertex, which bounds every gain).  Cell
``gain + W`` of B_i is an insertion-ordered set (a dict) of the vertices
outside S_i whose gain for moving into S_i is ``gain``; the table stores
that cell index, slot[i][v] = gain + W, not the gain itself, in one list of
n entries per subset.  A vertex's entry for its own subset is -1, below
every cell index.  SearchState builds the table in two passes, its columns
first summing each vertex's edge weights into each subset (one pass over
the edges), then turned into cell indices in ascending vertex order, so
each cell receives its members in that order.  From then on,
apply_single_transfer is its one writer: every gain change moves the vertex
from cell slot[i][v] to its new cell, so a cell read backwards lists its
members newest first.  A per-array top marker (gmax) is raised eagerly on
insertion and lowered lazily on queries.  cells_descending is the one walk,
top cell first; O3 and O4 read each cell's members directly.

The readers stay near each array's top, so a wide table keeps only those
cells filled.  When W is at least 20 max|w| (four bands of 5 max|w| cells
fit in it), each array has a floor low[i]: its cells at or above the floor
hold their members as described above, and an entry below the floor lives
only in slot[i], with stamp[i][v], the state's clock value at its last
shift.  A shift that starts and ends below the floor writes the stamp and
touches no dict.  _true_gmax and cells_descending, on walking past the
floor, fill the next band: its entries go into their cells in stamp order,
which is the order the cells would have received them, and the floor drops
by one band.  Every reader therefore sees the cells and member orders of a
fully filled table.  The floor starts one band below each array's top and
is only lowered.  On the dense benchmark shape (n = 800, k = 4, W ~ 70,
max|w| = 1) the walks of two 100-round solves read no cell more than 4
below its array's top, the floors sat 0-8 cells below the tops, and 9 % of
a target-stopped solve's shifts touched a dict (39 % over 400 rounds).  A
narrower table is built the same way as a single band of 2W+1 cells, so
its floors are 0 from the build.  An array at floor 0 has nothing below
it and keeps no stamps; floors only fall, so it never reads or writes one.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from itertools import islice

from .draws import below
from .graph import Graph, triples
from .partition import Partition, evaluate  # noqa: F401 (see init_state)


# Largest gain table (k columns of n entries) a state may allocate; check_table
# states this limit and the next.  With the cell entries and others[] that
# grow with it, a state built at k = n holds 64-82 bytes per (vertex, subset)
# pair on a narrow table and 96-107 on a wide one, whose stamps add 8 (n = 200
# and 400), so this is ~0.6-0.9 GB.
MAX_GAIN_ENTRIES = 2**23
# Largest bucket table (k arrays of 2W+1 cells) a state may allocate.  Each
# cell is an empty dict of ~72 bytes, so this is ~0.6 GB.
MAX_BUCKET_CELLS = 2**23


def check_table(k: int, n: int, w: int = 0) -> None:
    """Raise ValueError when the gain table of k subsets of n vertices would
    exceed MAX_GAIN_ENTRIES, or else its bucket table of k arrays of 2w+1
    cells MAX_BUCKET_CELLS (w: the largest absolute incident weight sum).
    With w = 0 it needs only an instance's header; then, for n >= 1, the k
    cells pass whenever k*n does."""
    entries = k * n
    if entries > MAX_GAIN_ENTRIES:
        raise ValueError(
            f"gain table needs k*n = {entries} entries (k={k}, n={n}),"
            f" above the limit of {MAX_GAIN_ENTRIES}"
        )
    cells = k * (2 * w + 1)
    if cells > MAX_BUCKET_CELLS:
        raise ValueError(
            f"bucket table needs k*(2W+1) = {cells} cells (k={k}, W={w}, the largest"
            f" absolute incident weight sum), above the limit of {MAX_BUCKET_CELLS}"
        )


class SearchState:
    """Partition plus objective, gain table, and bucket structure, kept
    mutually coherent under apply_single_transfer."""

    __slots__ = (
        "graph", "partition", "f", "slot", "cells", "gmax", "low", "stamp", "band", "clock",
        "offset", "iter", "others",
    )

    def __init__(self, graph: Graph, partition: Partition):
        check_table(partition.k, graph.n, graph.max_abs_incident_weight)
        self.graph = graph
        self.partition = partition
        self.iter = 0
        self.offset = off = graph.max_abs_incident_weight
        k = partition.k
        n = graph.n
        assign = partition.assign
        # slot[x][v]: off + the gain of moving v into subset x, one column
        # per subset; the entry for x == assign[v] is -1, below every cell
        # index.  others[c]: the subsets other than c, ascending.
        self.others = others = [[x for x in range(k) if x != c] for c in range(k)]
        self.cells = cells = [[{} for _ in range(2 * off + 1)] for _ in range(k)]
        self.gmax = gmax = [0] * k
        # Edge pass: slot[x][v] sums v's edge weights into subset x (home[v]
        # is the column of v's own subset).
        self.slot = slot = [[0] * n for _ in range(k)]
        home = [slot[c] for c in assign]
        for u, v, w in triples(graph.edges):
            home[v][u] += w
            home[u][v] += w
        del home  # freed before the cells fill
        # Vertex pass: gain into x = sum into v's own subset - sum into x; f =
        # total weight - inside weight, which the own sums count once per end.
        inside = 0
        for v, c in enumerate(assign):
            col = slot[c]
            inside += col[v]
            own = col[v] + off
            col[v] = -1
            for x in others[c]:
                col = slot[x]
                col[v] = idx = own - col[v]
                cells[x][idx][v] = None
                if idx > gmax[x]:
                    gmax[x] = idx
        self.f = sum(islice(graph.edges, 2, None, 3)) - inside // 2
        # A table of at least four bands keeps only the cells within a band
        # of each array's top; a narrower one is a single band.  Entries
        # below a floor take the build order as their stamps, all below the
        # clock; an array at floor 0 has none below it and keeps no stamps.
        band = 5 * graph.max_abs_weight
        self.band = band = band if band and off >= 4 * band else 2 * off + 1
        self.clock = n
        self.low = low = [max(0, top - band) for top in gmax]
        self.stamp = [list(range(n)) if lo else None for lo in low]
        for cx, lo in zip(cells, low):
            for cell in islice(cx, lo):
                cell.clear()

    def _fill(self, i: int) -> int:
        """Lower B_i's floor by one band, inserting the band's entries in
        the order they reached their cells; returns the new floor."""
        hi = self.low[i]
        self.low[i] = lo = max(0, hi - self.band)
        col, cells = self.slot[i], self.cells[i]
        for v in sorted(
            [v for v, idx in enumerate(col) if lo <= idx < hi], key=self.stamp[i].__getitem__
        ):
            cells[col[v]][v] = None
        return lo

    def _true_gmax(self, i: int) -> int:
        """Lower gmax to the true top non-empty cell, filling bands as the
        walk passes the floor; -1 when B_i is empty."""
        cells = self.cells[i]
        idx = self.gmax[i]
        lo = self.low[i]
        while True:
            while idx >= lo and not cells[idx]:
                idx -= 1
            if idx >= lo or not lo:
                break
            lo = self._fill(i)
        self.gmax[i] = idx if idx >= 0 else 0
        return idx

    def cells_descending(self, i: int) -> Iterator[tuple[int, dict[int, None]]]:
        """(index, cell) for each non-empty cell of B_i, top cell first; a
        member's gain is index - offset.  Bands are filled as the walk
        reaches them.  The state must not change while this is iterated."""
        cells = self.cells[i]
        top = self._true_gmax(i)
        end = self.low[i]
        while True:
            for idx in range(top, end - 1, -1):
                cell = cells[idx]
                if cell:
                    yield idx, cell
            if not end:
                return
            top, end = end - 1, self._fill(i)


# perfbench wraps these names on this module by attribute: init_state to time
# building a state, and evaluate, which the build no longer calls.
init_state = SearchState


def apply_single_transfer(s: SearchState, v: int, t: int) -> int:
    """Move v into subset t, updating f, gains, and buckets incrementally.

    Returns the realized gain.  Only the entries of v and of its neighbors
    change.  A shifted entry leaves its cell if that lies at or above its
    array's floor and joins its new cell if that does; one that lands below
    the floor is stamped with the clock instead.
    """
    assign = s.partition.assign
    c = assign[v]
    if t == c:
        raise ValueError(f"target subset {t} equals current subset of vertex {v}")
    slot, cells, gmax, low, stamp = s.slot, s.cells, s.gmax, s.low, s.stamp
    off = s.offset
    gain = slot[t][v] - off
    s.f += gain

    # Neighbor entries: Delta_{u->y} += w * (-[c_u=c] + [c_u=t] - [y=t] + [y=c]).
    # By the case c_u falls in, that is dc toward c, dt toward t and dr
    # toward every other subset (rest); a zero delta marks u's own subset or
    # entries that keep their gain.  Arrays are independent, so any order
    # over y within one neighbor keeps every cell's member order; neighbors
    # go in adjacency order, each stamped with its own clock value.
    col_c, cells_c, st_c, lo_c, top_c = slot[c], cells[c], stamp[c], low[c], gmax[c]
    col_t, cells_t, st_t, lo_t, top_t = slot[t], cells[t], stamp[t], low[t], gmax[t]
    rest = [(slot[y], cells[y], stamp[y], low[y], y) for y in s.others[c] if y != t]
    adjacency = s.graph.adjacency[v]
    clock = s.clock
    for now, (u, w) in enumerate(adjacency, clock):
        cu = assign[u]
        if cu == c:
            dc, dt, dr = 0, -2 * w, -w
        elif cu == t:
            dc, dt, dr = 2 * w, 0, w
        else:
            dc, dt, dr = w, -w, 0
        if dc:
            old = col_c[u]
            col_c[u] = new = old + dc
            if old >= lo_c:
                del cells_c[old][u]
            if new >= lo_c:
                cells_c[new][u] = None
                if new > top_c:
                    top_c = new
            else:
                st_c[u] = now
        if dt:
            old = col_t[u]
            col_t[u] = new = old + dt
            if old >= lo_t:
                del cells_t[old][u]
            if new >= lo_t:
                cells_t[new][u] = None
                if new > top_t:
                    top_t = new
            else:
                st_t[u] = now
        if dr:
            for col, cy, st, lo, y in rest:
                old = col[u]
                col[u] = new = old + dr
                if old >= lo:
                    del cy[old][u]
                if new >= lo:
                    cy[new][u] = None
                    if new > gmax[y]:
                        gmax[y] = new
                else:
                    st[u] = now
    gmax[c] = top_c
    gmax[t] = top_t
    now = clock + len(adjacency)
    s.clock = now + 1

    # Moved vertex: leave B_t; toward every other subset its gain falls by
    # `gain`, the new origin subset being t instead of c.  Toward c, whose
    # entry was the -1 sentinel, below every floor, that is off - gain.
    # Each shift re-inserts v, also when gain is 0.
    old = col_t[v]
    if old >= lo_t:
        del cells_t[old][v]
    col_t[v] = -1
    assign[v] = t
    for x in s.others[t]:
        col = slot[x]
        old = col[v]
        new = off - gain if x == c else old - gain
        if old >= low[x]:
            del cells[x][old][v]
        col[v] = new
        if new >= low[x]:
            cells[x][new][v] = None
            if new > gmax[x]:
                gmax[x] = new
        else:
            stamp[x][v] = now

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
