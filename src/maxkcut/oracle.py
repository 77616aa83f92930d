"""Exact max-k-cut by exhaustive enumeration with label-symmetry pruning.

Ground truth for tests and the checker; only feasible on tiny instances.
"""

from __future__ import annotations

from .graph import Graph
from .partition import Partition

DEFAULT_MAX_N = 16
DEFAULT_MAX_K = 4


class OracleGuardError(ValueError):
    pass


def exact_max_kcut(
    g: Graph,
    k: int,
    max_n: int = DEFAULT_MAX_N,
    max_k: int = DEFAULT_MAX_K,
) -> tuple[int, Partition]:
    """Optimum objective and one optimal partition.

    Vertex 0 is pinned to subset 0 and new labels are introduced in
    increasing order, which enumerates each labeling orbit once (the
    objective is invariant under subset relabeling).  Empty subsets are
    permitted, so the optimum is monotone non-decreasing in k.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if g.n > max_n or k > max_k:
        raise OracleGuardError(
            f"instance too large for exhaustive search (n={g.n} > {max_n} or "
            f"k={k} > {max_k}); raise the guard explicitly to override"
        )
    n = g.n
    if n == 0:
        return 0, Partition(k=k, assign=[])
    # lower_adj[v]: neighbors with smaller index, for incremental cut weight
    lower_adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, w in g.edges:
        a, b = (u, v) if u > v else (v, u)
        lower_adj[a].append((b, w))

    assign = [0] * n
    best_val = None
    best_assign: list[int] | None = None

    def rec(v: int, used: int, cut: int) -> None:
        nonlocal best_val, best_assign
        if v == n:
            if best_val is None or cut > best_val:
                best_val = cut
                best_assign = assign.copy()
            return
        top = min(used + 1, k)
        for s in range(top):
            add = 0
            for nb, w in lower_adj[v]:
                if assign[nb] != s:
                    add += w
            assign[v] = s
            rec(v + 1, max(used, s + 1), cut + add)

    assign[0] = 0
    rec(1, 1, 0)
    assert best_val is not None and best_assign is not None
    return best_val, Partition(k=k, assign=best_assign)
