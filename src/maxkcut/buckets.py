"""Incremental single-transfer gain table backed by bucket arrays.

For each subset i there is a bucket array B_i of 2W+1 cells (W = the largest
absolute incident weight sum of any vertex, which bounds every gain).  Cell
``gain + W`` of B_i holds a doubly linked list of the vertices outside S_i
whose gain for moving into S_i currently equals ``gain``.  A per-array top
marker (gmax) is raised eagerly on insertion and lowered lazily on queries.
"""

from __future__ import annotations

import random

from .graph import Graph
from .partition import Partition, evaluate

NIL = -1


class SearchState:
    """Partition plus objective, gain table, and bucket structure, kept
    mutually coherent under apply_single_transfer."""

    __slots__ = (
        "graph",
        "partition",
        "f",
        "delta",
        "heads",
        "nxt",
        "prv",
        "gmax",
        "offset",
        "iter",
    )

    def __init__(self, graph: Graph, partition: Partition):
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
        self.heads = [[NIL] * ncells for _ in range(k)]
        self.nxt = [[NIL] * n for _ in range(k)]
        self.prv = [[NIL] * n for _ in range(k)]
        self.gmax = [0] * k
        for i in range(k):
            for v in range(n):
                if assign[v] != i:
                    self._insert(i, v)

    # -- intrusive doubly linked list plumbing --------------------------------

    def _insert(self, i: int, v: int) -> None:
        idx = self.delta[v][i] + self.offset
        heads = self.heads[i]
        old = heads[idx]
        self.nxt[i][v] = old
        self.prv[i][v] = NIL
        if old != NIL:
            self.prv[i][old] = v
        heads[idx] = v
        if idx > self.gmax[i]:
            self.gmax[i] = idx

    def _remove(self, i: int, v: int) -> None:
        idx = self.delta[v][i] + self.offset
        p, nx = self.prv[i][v], self.nxt[i][v]
        if p != NIL:
            self.nxt[i][p] = nx
        else:
            self.heads[i][idx] = nx
        if nx != NIL:
            self.prv[i][nx] = p

    def _shift(self, i: int, v: int, new_gain: int) -> None:
        self._remove(i, v)
        self.delta[v][i] = new_gain
        self._insert(i, v)

    def _true_gmax(self, i: int) -> int:
        """Lower gmax to the true top non-empty cell; NIL when B_i is empty."""
        heads = self.heads[i]
        idx = self.gmax[i]
        while idx >= 0 and heads[idx] == NIL:
            idx -= 1
        self.gmax[i] = idx if idx >= 0 else 0
        return idx

    def cell_members(self, i: int, idx: int) -> list[int]:
        out = []
        v = self.heads[i][idx]
        while v != NIL:
            out.append(v)
            v = self.nxt[i][v]
        return out


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
    # are independent lists, so any order over y within one neighbor keeps
    # every cell's member order; neighbors go in adjacency order.
    plan_c = [(y, -2 if y == t else -1) for y in range(k) if y != c]
    plan_t = [(y, 2 if y == c else 1) for y in range(k) if y != t]
    plan_other = [(c, 1), (t, -1)]
    heads, nxt, prv, gmax = s.heads, s.nxt, s.prv, s.gmax
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
            hy, ny, py = heads[y], nxt[y], prv[y]
            # Unlink u from its old cell, then push it to the new cell's head.
            p, nx = py[u], ny[u]
            if p != NIL:
                ny[p] = nx
            else:
                hy[old + off] = nx
            if nx != NIL:
                py[nx] = p
            idx = new + off
            h = hy[idx]
            ny[u] = h
            py[u] = NIL
            if h != NIL:
                py[h] = u
            hy[idx] = u
            if idx > gmax[y]:
                gmax[y] = idx

    # Moved vertex: leave array t, join array c; gains toward third subsets
    # all shift by -gain (the new origin subset is t instead of c).
    old_t_gain = gain
    s._remove(t, v)
    assign[v] = t
    part.sizes[c] -= 1
    part.sizes[t] += 1
    for x in range(k):
        if x == c or x == t:
            continue
        s._shift(x, v, row[x] - old_t_gain)
    row[t] = 0
    row[c] = -old_t_gain
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
    v = rng.choice(s.cell_members(i, best))
    return v, i, best - s.offset
