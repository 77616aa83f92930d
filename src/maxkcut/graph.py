"""Weighted undirected graphs in the G-set edge-list text format.

The format is a header line ``n m`` followed by ``m`` lines ``u v w`` with
1-indexed vertex ids and integer (possibly negative) weights.  Vertices are
stored 0-indexed internally.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import islice
from operator import index


class GraphFormatError(ValueError):
    """Raised for malformed graph input.

    Carries the 1-based line number of the offending text line, or, from
    Graph.from_edges, the 0-based index of the offending edge.
    """

    def __init__(self, reason: str, line: int | None = None, edge: int | None = None):
        message = reason
        if line is not None:
            message = f"{reason} at line {line}"
        elif edge is not None:
            message = f"{reason} in edge {edge}"
        super().__init__(message)
        self.reason = reason
        self.line = line
        self.edge = edge


@dataclass(frozen=True)
class Graph:
    """Immutable weighted undirected graph.

    edges is flat, (u0, v0, w0, u1, v1, w1, ...) in input order: 24 bytes an
    edge, where a tuple per edge took 72; triples(edges) reads it by edge.
    nonzero_edges holds the edges of nonzero weight the same way; it is the
    edges tuple itself when no edge weighs 0.
    adjacency[v] lists (neighbor, weight) pairs, symmetric by construction;
    equal pairs are one shared tuple.
    max_abs_incident_weight is the largest sum of |w| over the edges incident
    to any single vertex; it bounds every single-transfer move gain.
    """

    n: int
    edges: tuple[int, ...]
    nonzero_edges: tuple[int, ...]
    adjacency: tuple[tuple[tuple[int, int], ...], ...]
    max_degree: int
    max_abs_incident_weight: int
    max_abs_weight: int

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build a graph from 0-indexed (u, v, w) edges.

        The one validator of edge lists: an edge that is not a triple, a
        field that is not an integer, an out-of-range vertex id, a self-loop
        or a repeated vertex pair raises GraphFormatError carrying the index
        of the offending edge.
        """
        try:
            n = index(n)
        except TypeError:
            raise ValueError(f"vertex count {n!r} is not an integer") from None
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        # One int object per vertex id and one (neighbour, weight) tuple per
        # distinct pair, shared by the edge fields and every adjacency list
        # that holds it: a sparse n=10^4 graph holds a third less memory.
        ids = list(range(n))
        pairs: dict[tuple[int, int], tuple[int, int]] = {}
        seen: set[int] = set()
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        abs_sum = [0] * n
        out = []
        for i, edge in enumerate(edges):
            try:
                u, v, w = edge
            except (TypeError, ValueError):
                raise GraphFormatError("edge is not a (u, v, w) triple", edge=i) from None
            try:
                u, v, w = index(u), index(v), index(w)
            except TypeError:
                raise GraphFormatError("vertex id or weight not an integer", edge=i) from None
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError("vertex id out of range", edge=i)
            if u == v:
                raise GraphFormatError("self-loop", edge=i)
            key = u * n + v if u < v else v * n + u
            if key in seen:
                raise GraphFormatError("duplicate edge", edge=i)
            seen.add(key)
            u, v = ids[u], ids[v]
            out += u, v, w
            pair = v, w
            adj[u].append(pairs.setdefault(pair, pair))
            pair = u, w
            adj[v].append(pairs.setdefault(pair, pair))
            aw = abs(w)
            abs_sum[u] += aw
            abs_sum[v] += aw
        nonzero = edges = tuple(out)
        del seen, pairs, out  # freed before the adjacency tuples are made
        if 0 in edges[2::3]:
            nonzero = tuple(x for e in triples(edges) if e[2] for x in e)
        for x, a in enumerate(adj):
            adj[x] = tuple(a)
        return cls(
            n=n,
            edges=edges,
            nonzero_edges=nonzero,
            adjacency=tuple(adj),
            max_degree=max(map(len, adj), default=0),
            max_abs_incident_weight=max(abs_sum, default=0),
            max_abs_weight=max(map(abs, edges[2::3]), default=0),
        )

    @property
    def m(self) -> int:
        return len(self.edges) // 3


def triples(flat: tuple[int, ...]):
    """The (u, v, w) triples of a flat edge tuple, made one at a time."""
    it = iter(flat)
    return zip(it, it, it)


def _header_line(text: str) -> tuple[int, str]:
    """(1-based number, text) of the first non-blank line, read off a prefix
    that doubles until it holds that line whole: a prefix's last line may be
    cut, so it counts only when the prefix is the whole text."""
    size = 64
    while True:
        lines = text[:size].splitlines()
        whole = size >= len(text)
        for lineno, raw in enumerate(lines if whole else lines[:-1], 1):
            if raw.strip():
                return lineno, raw
        if whole:
            raise GraphFormatError("empty input, expected 'n m' header")
        size *= 2


def parse_instance(text: str, check_n: Callable[[int], None] | None = None) -> Graph:
    """Parse G-set edge-list text into a Graph.

    Blank lines are ignored.  Malformed headers or edge lines, out-of-range
    or duplicate edges, self-loops, and edge-count mismatches raise
    GraphFormatError with the 1-based line number; a malformed edge line
    is reported before any edge check.  check_n, when given, is called with
    the header's vertex count before anything of that size is allocated,
    the split lines of the text included; what it raises propagates.
    """
    lineno, raw = _header_line(text)  # lineno: the line last read, where an error is
    try:
        n, m = map(int, raw.split())
    except ValueError:  # a token that is no integer, or not two tokens
        raise GraphFormatError("malformed header, expected 'n m'", lineno) from None
    if n < 0 or m < 0:
        raise GraphFormatError("negative count in header", lineno)
    if check_n is not None:
        check_n(n)
    numbered = enumerate(islice(text.splitlines(), lineno, None), lineno + 1)

    def edge_lines():
        nonlocal lineno
        for lineno, raw in numbered:
            parts = raw.split()
            if not parts:
                continue
            if len(parts) != 3:
                raise GraphFormatError("malformed edge, expected 'u v w'", lineno)
            try:
                u, v, w = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError("malformed edge, expected integers 'u v w'", lineno) from None
            yield u - 1, v - 1, w

    edges = edge_lines()
    try:
        g = Graph.from_edges(n, edges)
    except GraphFormatError as e:
        reason, line = e.reason, lineno
    else:
        if g.m != m:
            raise GraphFormatError(f"header promised {m} edges, found {g.m}")
        return g
    for _ in edges:  # a malformed line further on is reported first
        pass
    raise GraphFormatError(reason, line)


def write_instance(g: Graph) -> str:
    """Serialize a Graph back to G-set edge-list text (1-indexed)."""
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u + 1} {v + 1} {w}" for u, v, w in triples(g.edges))
    return "\n".join(out) + "\n"
