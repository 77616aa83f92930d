"""Weighted undirected graphs in the G-set edge-list text format.

The format is a header line ``n m`` followed by ``m`` lines ``u v w`` with
1-indexed vertex ids and integer (possibly negative) weights.  Vertices are
stored 0-indexed internally.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    adjacency[v] lists (neighbor, weight) pairs, symmetric by construction.
    max_abs_incident_weight is the largest sum of |w| over the edges incident
    to any single vertex; it bounds every single-transfer move gain.
    nonzero_edges lists the edges of nonzero weight in input order; it is
    the edges tuple itself when no edge weighs 0.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...]
    nonzero_edges: tuple[tuple[int, int, int], ...]
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
        edges = list(edges)
        seen: set[tuple[int, int]] = set()
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for i, edge in enumerate(edges):
            try:
                u, v, w = edge
            except (TypeError, ValueError):
                raise GraphFormatError("edge is not a (u, v, w) triple", edge=i) from None
            try:
                edges[i] = u, v, w = index(u), index(v), index(w)
            except TypeError:
                raise GraphFormatError("vertex id or weight not an integer", edge=i) from None
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError("vertex id out of range", edge=i)
            if u == v:
                raise GraphFormatError("self-loop", edge=i)
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphFormatError("duplicate edge", edge=i)
            seen.add(key)
            adj[u].append((v, w))
            adj[v].append((u, w))
        max_degree = max((len(a) for a in adj), default=0)
        big_w = max((sum(abs(w) for _, w in a) for a in adj), default=0)
        nonzero = edges = tuple(edges)
        if any(w == 0 for _, _, w in edges):
            nonzero = tuple(e for e in edges if e[2] != 0)
        return cls(
            n=n,
            edges=edges,
            nonzero_edges=nonzero,
            adjacency=tuple(tuple(a) for a in adj),
            max_degree=max_degree,
            max_abs_incident_weight=big_w,
            max_abs_weight=max((abs(w) for _, _, w in edges), default=0),
        )

    @property
    def m(self) -> int:
        return len(self.edges)


def parse_instance(text: str) -> Graph:
    """Parse G-set edge-list text into a Graph.

    Blank lines are ignored.  Malformed headers or edge lines, out-of-range
    or duplicate edges, self-loops, and edge-count mismatches raise
    GraphFormatError with the 1-based line number.  Edge lines are
    tokenized first and validated by Graph.from_edges afterwards.
    """
    lines = text.splitlines()
    header_line = None
    for idx, raw in enumerate(lines):
        if raw.strip():
            header_line = idx
            break
    if header_line is None:
        raise GraphFormatError("empty input, expected 'n m' header")
    parts = lines[header_line].split()
    if len(parts) != 2:
        raise GraphFormatError("malformed header, expected 'n m'", header_line + 1)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphFormatError("malformed header, expected 'n m'", header_line + 1) from None
    if n < 0 or m < 0:
        raise GraphFormatError("negative count in header", header_line + 1)

    edges: list[tuple[int, int, int]] = []
    linenos: list[int] = []
    for idx in range(header_line + 1, len(lines)):
        raw = lines[idx].strip()
        if not raw:
            continue
        lineno = idx + 1
        parts = raw.split()
        if len(parts) != 3:
            raise GraphFormatError("malformed edge, expected 'u v w'", lineno)
        try:
            u, v, w = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise GraphFormatError("malformed edge, expected integers 'u v w'", lineno) from None
        edges.append((u - 1, v - 1, w))
        linenos.append(lineno)
    try:
        g = Graph.from_edges(n, edges)
    except GraphFormatError as e:
        raise GraphFormatError(e.reason, linenos[e.edge]) from None
    if g.m != m:
        raise GraphFormatError(f"header promised {m} edges, found {g.m}")
    return g


def write_instance(g: Graph) -> str:
    """Serialize a Graph back to G-set edge-list text (1-indexed)."""
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u + 1} {v + 1} {w}" for u, v, w in g.edges)
    return "\n".join(out) + "\n"
