"""The five search operators over a SearchState.

O1: best single transfer (descent, positive gains only).
O2: best double transfer over edge-adjacent pairs, optionally edge-sampled.
O3: best single transfer under the tabu list with aspiration.
O4: best double transfer into two randomly drawn distinct target subsets.
O5: one uniformly random single transfer.
"""

from __future__ import annotations

import math
import random
from itertools import filterfalse, islice
from operator import itemgetter
from typing import NamedTuple

from .buckets import SearchState, apply_single_transfer, best_single_transfer
from .draws import below, sample_below
from .tabu import TabuList


class Transfer(NamedTuple):
    vertex: int
    origin: int
    target: int


class Move(NamedTuple):
    gain: int
    first: Transfer
    second: Transfer | None = None


def apply_move(s: SearchState, move: Move) -> None:
    apply_single_transfer(s, move.first.vertex, move.first.target)
    if move.second is not None:
        apply_single_transfer(s, move.second.vertex, move.second.target)


def op1_select(s: SearchState, rng: random.Random) -> Move | None:
    """Best single transfer if it improves f, else None."""
    v, t, gain = best_single_transfer(s, rng)
    if gain <= 0:
        return None
    return Move(gain, Transfer(v, s.partition.assign[v], t))


def op2_select(
    s: SearchState, rng: random.Random, max_edges: int | None = None
) -> Move | None:
    """Best improving double transfer among edge-adjacent pairs.

    Candidates are the nonzero-weight edges, each expanded over all (k-1)^2
    target pairs; when max_edges is given and smaller than the candidate
    count, a uniform edge sample of that size is scanned instead.
    """
    assign = s.partition.assign
    slot = s.slot
    edges = s.graph.nonzero_edges
    m = len(edges) // 3
    picks = range(m)
    if max_edges is not None and max_edges < m:
        picks = sample_below(rng, m, max_edges)
    targets = s.others  # ascending, so ties keep their order
    best_gain = zero = 2 * s.offset  # two slots sum to the pair's gain + 2W
    ties: list[tuple[int, int, int, int]] = []
    for j in picks:
        i = 3 * j  # where edge j's fields begin
        u, v, w = edges[i], edges[i + 1], edges[i + 2]
        cu, cv = assign[u], assign[v]
        # psi(cu, cv, tu, tv) = -[cu=cv] + [tu=cv] - [tu=tv] + [cu=tv]
        psi_cu = -(cu == cv)
        targets_v = targets[cv]
        for tu in targets[cu]:
            du = slot[tu][u]
            psi_tu = psi_cu + (tu == cv)
            for tv in targets_v:
                gain = du + slot[tv][v] + (psi_tu + (cu == tv) - (tu == tv)) * w
                if gain < best_gain:
                    continue
                if gain > best_gain:
                    best_gain = gain
                    ties = [(u, tu, v, tv)]
                elif best_gain > zero:
                    ties.append((u, tu, v, tv))
    if not ties:
        return None
    u, tu, v, tv = ties[below(rng.getrandbits, len(ties))]
    return Move(best_gain - zero, Transfer(u, assign[u], tu), Transfer(v, assign[v], tv))


def op3_select(
    s: SearchState, tabu: TabuList, f_best: int, rng: random.Random
) -> Move:
    """Best single transfer among moves that are not tabu or that aspirate
    (would strictly beat f_best).  Falls back to the unrestricted best move
    when every candidate is tabu and none aspirates.  The live bans are
    grouped by target once per call, so admissible members are counted."""
    k = s.partition.k
    bans: list[set[int]] = [set() for _ in range(k)]
    for (v, t), exp in tabu.expiry.items():
        if exp > s.iter:
            bans[t].add(v)
    # A member of cell idx aspirates when s.f + idx - offset > f_best.
    aspire = f_best - s.f + s.offset
    best = -math.inf
    # (array, admissible count, cell, skip) per array tied at best, ascending.
    tied: list[tuple[int, int, dict[int, None], set[int]]] = []
    for i in range(k):
        for idx, cell in s.cells_descending(i):
            if idx < best:
                break
            skip = bans[i] if idx <= aspire else set()
            count = len(cell) - len(cell.keys() & skip)
            if count:
                if idx > best:
                    best = idx
                    tied = []
                tied.append((i, count, cell, skip))
                break
    if not tied:
        v, t, gain = best_single_transfer(s, rng)
        return Move(gain, Transfer(v, s.partition.assign[v], t))
    getrandbits = rng.getrandbits
    i, count, cell, skip = tied[below(getrandbits, len(tied))]
    # The draw of rng.choice over a list of the cell's admissible members,
    # newest first; member j is read from the cell.
    j = below(getrandbits, count)
    v = next(islice(filterfalse(skip.__contains__, reversed(cell)), j, None))
    return Move(best - s.offset, Transfer(v, s.partition.assign[v], i))


# After this many tied-gain candidate pairs, O4 stops widening the tie pool
# (the maximum is already exact; only the tie-break distribution narrows).
_O4_TIE_BUDGET = 256


def op4_select(s: SearchState, rng: random.Random) -> Move | None:
    """Best double transfer (u -> S_p, v -> S_q) for a randomly drawn ordered
    pair of distinct subsets; gain may be <= 0.

    Both passes walk B_p and B_q cell by cell, top first; every walk of B_q
    is a fresh cells_descending(q), which yields the same cells each time,
    since the state does not change.  An adjacent pair's combined gain is at
    most gain(u) + gain(v) + 2*max|w| when u is in S_q (the swap case,
    psi = 2) and gain(u) + gain(v) + max|w| for every other u; pairs whose
    bound is below the incumbent are skipped, and a cell of B_p whose
    partners in B_q are fewer than its members is read from their side.
    Ties are resolved by reservoir sampling over the scanned candidates.
    Gains are compared as cell index sums, a pair's gain + 2*offset.
    """
    assign = s.partition.assign
    k = s.partition.k
    p, q = sample_below(rng, k, 2)
    sq = s.slot[q]

    best = -math.inf  # no candidate yet: every bound below holds until one is met
    choice: tuple[int, int] | None = None
    tie_count = 0
    tie_budget = _O4_TIE_BUDGET
    adjacency = s.graph.adjacency

    top_q = next(s.cells_descending(q), None)
    if top_q is None:  # every vertex is in S_q
        return None
    gq_top = top_q[0]

    # Non-adjacent pairs: for each u from the top of p, partners from the top
    # of q; sums only decrease, so each scan stops at the incumbent.  A break
    # on the tie budget inside a cell leaves best at the cell's sum, so the
    # next, lower cell breaks at once.
    for gu, p_cell in s.cells_descending(p):
        if gu + gq_top < best:
            break
        for u in reversed(p_cell):
            if gu + gq_top == best and tie_budget <= 0:
                break
            nu = None
            for gv, q_cell in s.cells_descending(q):
                gain = gu + gv
                if gain < best:
                    break
                for v in reversed(q_cell):
                    if v == u:
                        continue
                    if nu is None:
                        nu = set(map(itemgetter(0), adjacency[u]))
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
    # floors v's cell index in B_q, slot[q][v], at f_swap (swap) or f_other;
    # a u whose floor is above the top of B_q is skipped, and the scan ends
    # once even 2*max|w| cannot reach the incumbent.  Skipped pairs are
    # strictly below it, so they would have drawn no random number.  A v in
    # S_q has slot[q][v] = -1, which every floor >= 0 rejects; a floor can
    # be negative, so cv == q is still tested.
    max_w = s.graph.max_abs_weight
    two_w = 2 * max_w
    # The floors only rise from one B_p cell to the next, so B_q is read
    # about as far as the first cell's partners reach.
    for gu, cell in s.cells_descending(p):
        if gu + gq_top + two_w < best:
            break
        f_swap = best - gu - two_w
        f_other = best - gu - max_w
        # Partners: the members of B_q with index >= f_swap, a prefix of B_q.
        # Every u of this cell has a floor >= f_swap while best only rises,
        # so a u with no partner neighbour meets no pair.  When the partners
        # are fewer than the cell's members, the cell is read from their side.
        partners: list[dict[int, None]] = []
        count = 0
        for gv, q_cell in s.cells_descending(q):
            if gv < f_swap or count >= len(cell):
                break
            partners.append(q_cell)
            count += len(q_cell)
        members = reversed(cell)
        if count < len(cell):
            found = {
                u for q_cell in partners for v in q_cell for u, _ in adjacency[v] if u in cell
            }
            if not found:
                continue
            members = [u for u in members if u in found]
        for u in filter(adjacency.__getitem__, members):  # u has a neighbour
            cu = assign[u]
            v_floor = f_swap if cu == q else f_other
            if v_floor > gq_top:
                continue
            for v, w in adjacency[u]:
                svq = sq[v]
                if svq < v_floor:
                    continue
                cv = assign[v]
                if cv == q:
                    continue
                # psi(cu, cv, p, q), since cu != p, cv != q and p != q
                gain = gu + svq + ((cu == q) + (cv == p) - (cu == cv)) * w
                if gain > best:
                    best = gain
                    choice = (u, v)
                    tie_count = 1
                    f_swap = best - gu - two_w
                    f_other = best - gu - max_w
                    v_floor = f_swap if cu == q else f_other
                elif gain == best:
                    tie_count += 1
                    if rng.random() * tie_count < 1.0:
                        choice = (u, v)

    if choice is None:
        return None
    u, v = choice
    return Move(best - 2 * s.offset, Transfer(u, assign[u], p), Transfer(v, assign[v], q))


def op5_apply(s: SearchState, rng: random.Random) -> Transfer:
    """Apply one uniformly random single transfer and return it."""
    getrandbits = rng.getrandbits
    v = below(getrandbits, s.graph.n)
    c = s.partition.assign[v]
    t = below(getrandbits, s.partition.k - 1)
    if t >= c:
        t += 1
    apply_single_transfer(s, v, t)
    return Transfer(v, c, t)
