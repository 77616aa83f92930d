"""Seeded instance generators shaped like two G-set families.

Each generator returns G-set edge-list text (header ``n m``, then ``u v w``
lines, 1-indexed).  The solver only ever sees this text, through
``parse_instance``.  The same (family, seed) always gives the same bytes:
generators draw from ``random.Random`` seeded with a string, which does not
depend on hash randomisation.
"""

from __future__ import annotations

import random


def _rng(family: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{family}:{seed}")


def _distinct_pairs(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """m distinct unordered vertex pairs, drawn uniformly, in draw order."""
    seen: set[tuple[int, int]] = set()
    pairs = []
    while len(pairs) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key not in seen:
            seen.add(key)
            pairs.append(key)
    return pairs


def _text(n: int, edges) -> str:
    lines = [f"{n} {len(edges)}"]
    lines.extend(f"{u + 1} {v + 1} {w}" for u, v, w in edges)
    return "\n".join(lines) + "\n"


def dense(seed: int, n: int = 800, m: int = 19176) -> str:
    """G6-shaped random graph: 6 % density, weights +1 and -1.

    Exactly half the edges (rounded down) weigh -1, so the total weight is
    the same for every seed; with a fair coin per edge it would drift by
    about sqrt(m), which moves every attainable cut by as much and makes a
    fixed target cut much easier on some seeds than on others.
    """
    rng = _rng("dense", seed)
    pairs = _distinct_pairs(rng, n, m)
    weights = [1] * (m - m // 2) + [-1] * (m // 2)
    rng.shuffle(weights)
    return _text(n, [(u, v, w) for (u, v), w in zip(pairs, weights)])


def sparse_large(seed: int, n: int = 10000, m: int = 9999) -> str:
    """G70-shaped sparse random graph with unit weights."""
    rng = _rng("sparse-large", seed)
    return _text(n, [(u, v, 1) for u, v in _distinct_pairs(rng, n, m)])
