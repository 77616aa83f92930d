"""The five search operators over a SearchState.

O1: best single transfer (descent, positive gains only).
O2: best double transfer over edge-adjacent pairs, optionally edge-sampled.
O3: best single transfer under the tabu list with aspiration.
O4: best double transfer into two randomly drawn distinct target subsets.
O5: one uniformly random single transfer.
"""

from __future__ import annotations

import random
from copy import copy
from dataclasses import dataclass
from itertools import filterfalse, islice, tee

from .buckets import SearchState, apply_single_transfer, best_single_transfer
from .tabu import TabuList


@dataclass(frozen=True)
class Transfer:
    vertex: int
    origin: int
    target: int


@dataclass(frozen=True)
class Move:
    gain: int
    first: Transfer
    second: Transfer | None = None


def psi(c_u: int, c_v: int, t_u: int, t_v: int) -> int:
    """Interaction coefficient of a double transfer sharing an edge.

    Indicator form -[c_u=c_v] + [t_u=c_v] - [t_u=t_v] + [c_u=t_v]; equal to
    the seven-case definition on every admissible input.
    """
    if t_u == c_u or t_v == c_v:
        raise ValueError("double-transfer targets must differ from current subsets")
    return (
        -(1 if c_u == c_v else 0)
        + (1 if t_u == c_v else 0)
        - (1 if t_u == t_v else 0)
        + (1 if c_u == t_v else 0)
    )


def _psi_block(k: int, c_u: int, c_v: int) -> list[list[int]]:
    """psi(c_u, c_v, t_u, t_v) for every target pair, indexed [t_u][t_v].

    Inadmissible entries (t_u == c_u or t_v == c_v) hold 0.  O2 builds one
    block per origin pair it meets within a call: k**2 work, no more than
    one edge's own scan over its target pairs.
    """
    r = range(k)
    return [
        [psi(c_u, c_v, tu, tv) if tu != c_u and tv != c_v else 0 for tv in r]
        for tu in r
    ]


def apply_move(s: SearchState, move: Move) -> None:
    apply_single_transfer(s, move.first.vertex, move.first.target)
    if move.second is not None:
        apply_single_transfer(s, move.second.vertex, move.second.target)


def op1_select(s: SearchState, rng: random.Random) -> Move | None:
    """Best single transfer if it improves f, else None."""
    v, t, gain = best_single_transfer(s, rng)
    if gain <= 0:
        return None
    return Move(gain=gain, first=Transfer(v, s.partition.assign[v], t))


def op2_select(
    s: SearchState, rng: random.Random, max_edges: int | None = None
) -> Move | None:
    """Best improving double transfer among edge-adjacent pairs.

    Candidates are the nonzero-weight edges, each expanded over all (k-1)^2
    target pairs; when max_edges is given and smaller than the candidate
    count, a uniform edge sample of that size is scanned instead.
    """
    assign = s.partition.assign
    delta = s.delta
    k = s.partition.k
    candidates = s.graph.nonzero_edges
    if not candidates:
        return None
    if max_edges is not None and max_edges < len(candidates):
        candidates = rng.sample(candidates, max_edges)
    blocks: dict[tuple[int, int], list[list[int]]] = {}
    best_gain = 0
    ties: list[tuple[int, int, int, int]] = []
    for u, v, w in candidates:
        cu, cv = assign[u], assign[v]
        urow, vrow = delta[u], delta[v]
        coef_uv = blocks.get((cu, cv))
        if coef_uv is None:
            coef_uv = blocks[cu, cv] = _psi_block(k, cu, cv)
        for tu in range(k):
            if tu == cu:
                continue
            du = urow[tu]
            coef_tu = coef_uv[tu]
            for tv in range(k):
                if tv == cv:
                    continue
                gain = du + vrow[tv] + coef_tu[tv] * w
                if gain > best_gain:
                    best_gain = gain
                    ties = [(u, tu, v, tv)]
                elif gain == best_gain and best_gain > 0:
                    ties.append((u, tu, v, tv))
    if not ties:
        return None
    u, tu, v, tv = rng.choice(ties)
    return Move(
        gain=best_gain,
        first=Transfer(u, assign[u], tu),
        second=Transfer(v, assign[v], tv),
    )


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
    best: int | None = None
    per_array: dict[int, tuple[int, dict[int, None], set[int]]] = {}
    for i in range(k):
        for gain, cell in s.cells_descending(i):
            if best is not None and gain < best:
                break
            skip = bans[i] if s.f + gain <= f_best else set()
            count = len(cell) - len(cell.keys() & skip)
            if count:
                if best is None or gain > best:
                    best = gain
                    per_array = {i: (count, cell, skip)}
                else:
                    per_array[i] = (count, cell, skip)
                break
    if best is None:
        v, t, gain = best_single_transfer(s, rng)
        return Move(gain=gain, first=Transfer(v, s.partition.assign[v], t))
    i = rng.choice(sorted(per_array))
    count, cell, skip = per_array[i]
    # choice over a range draws the same _randbelow(count) as over a list;
    # the drawn member is the j-th admissible one of the cell, newest first.
    j = rng.choice(range(count))
    v = next(islice(filterfalse(skip.__contains__, reversed(cell)), j, None))
    return Move(gain=best, first=Transfer(v, s.partition.assign[v], i))


# After this many tied-gain candidate pairs, O4 stops widening the tie pool
# (the maximum is already exact; only the tie-break distribution narrows).
_O4_TIE_BUDGET = 256


def op4_select(s: SearchState, rng: random.Random) -> Move | None:
    """Best double transfer (u -> S_p, v -> S_q) for a randomly drawn ordered
    pair of distinct subsets; gain may be <= 0.

    Bucket-ordered scans of arrays p and q.  An adjacent pair's combined
    gain is at most gain(u) + gain(v) + 2*max|w| when u is in S_q (the swap
    case, psi = 2) and gain(u) + gain(v) + max|w| for every other u; pairs
    whose bound is below the incumbent are skipped.  Ties are resolved by
    reservoir sampling over the scanned candidates.
    """
    assign = s.partition.assign
    delta = s.delta
    k = s.partition.k
    p, q = rng.sample(range(k), 2)

    best: int | None = None
    choice: tuple[int, int] | None = None
    tie_count = 0
    tie_budget = _O4_TIE_BUDGET
    adjacency = s.graph.adjacency

    # Each copy of scan_q rescans B_q from the top; tee caches the entries
    # read so far and reads further ones from the cells lazily.
    (scan_q,) = tee(s.descending(q), 1)
    top_q = next(copy(scan_q), None)
    if top_q is None:  # every vertex is in S_q
        return None
    gq_top = top_q[1]

    # Non-adjacent pairs: for each u from the top of p, partners from the top
    # of q; sums only decrease, so each inner scan stops at the incumbent.
    for u, gu in s.descending(p):
        if best is not None:
            if gu + gq_top < best:
                break
            if gu + gq_top == best and tie_budget <= 0:
                break
        nu = None
        for v, gv in copy(scan_q):
            gain = gu + gv
            if best is not None and gain < best:
                break
            if v == u:
                continue
            if nu is None:
                nu = set(nb for nb, _ in adjacency[u])
            if v in nu:
                continue
            if best is None or gain > best:
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
    # floors the admissible delta[v][q]; a u whose floor is above the top of
    # B_q is skipped, and the scan ends once even 2*max|w| cannot reach the
    # incumbent.  Skipped pairs are strictly below it, so they would have
    # drawn no random number.
    max_w = s.graph.max_abs_weight
    two_w = 2 * max_w
    # psi(c_u, c_v, p, q) per origin pair, filled as pairs are met.
    coefs: dict[tuple[int, int], int] = {}
    for u, gu in s.descending(p):
        neighbours = adjacency[u]
        if not neighbours:
            continue
        cu = assign[u]
        bound = two_w if cu == q else max_w
        v_floor = None
        if best is not None:
            if gu + gq_top + two_w < best:
                break
            v_floor = best - gu - bound
            if v_floor > gq_top:
                continue
        for v, w in neighbours:
            cv = assign[v]
            if cv == q:
                continue
            dvq = delta[v][q]
            if v_floor is not None and dvq < v_floor:
                continue
            coef = coefs.get((cu, cv))
            if coef is None:
                coef = coefs[cu, cv] = psi(cu, cv, p, q)
            gain = gu + dvq + coef * w
            if best is None or gain > best:
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


def op5_apply(s: SearchState, rng: random.Random) -> Transfer:
    """Apply one uniformly random single transfer and return it."""
    v = rng.randrange(s.graph.n)
    c = s.partition.assign[v]
    t = rng.randrange(s.partition.k - 1)
    if t >= c:
        t += 1
    apply_single_transfer(s, v, t)
    return Transfer(v, c, t)
