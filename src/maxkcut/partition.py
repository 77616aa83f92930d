"""Candidate solutions (k-cuts): representation, evaluation, initialization."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .draws import below
from .graph import Graph, triples


@dataclass
class Partition:
    """Assignment of every vertex to one of k subsets."""

    k: int
    assign: list[int]


def random_initial(g: Graph, k: int, rng: random.Random) -> Partition:
    """Assign vertices uniformly at random, then repair empty subsets by
    moving vertices out of subsets of size >= 2 until none is empty."""
    if k < 2 or k > g.n:
        raise ValueError(f"k must satisfy 2 <= k <= n, got k={k}, n={g.n}")
    # One draw of randrange(k) per vertex: below(getrandbits, k), inlined.
    getrandbits = rng.getrandbits
    bits = k.bit_length()
    assign = []
    for _ in range(g.n):
        r = getrandbits(bits)
        while r >= k:
            r = getrandbits(bits)
        assign.append(r)
    sizes = [0] * k
    for s in assign:
        sizes[s] += 1
    empties = [i for i in range(k) if sizes[i] == 0]
    while empties:
        target = empties.pop()
        while True:
            v = below(getrandbits, g.n)
            if sizes[assign[v]] >= 2:
                break
        sizes[assign[v]] -= 1
        assign[v] = target
        sizes[target] += 1
    return Partition(k=k, assign=assign)


def evaluate(g: Graph, p: Partition) -> int:
    """Objective value: total weight of edges whose endpoints lie in
    different subsets."""
    assign = p.assign
    return sum(w for u, v, w in triples(g.edges) if assign[u] != assign[v])


@dataclass
class ValidationReport:
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def validate(g: Graph, p: Partition) -> ValidationReport:
    """Check 2 <= k <= n, assignment length and subset range.

    Empty subsets are reported as warnings, not errors: single-transfer moves
    may legitimately empty a subset during search.
    """
    report = ValidationReport()
    if p.k < 2:
        report.errors.append(f"k must be >= 2, got k={p.k}")
        return report
    if p.k > g.n:
        report.errors.append(f"k must satisfy 2 <= k <= n={g.n}")
        return report
    if len(p.assign) != g.n:
        report.errors.append(f"assignment length {len(p.assign)} != n={g.n}")
        return report
    for v, s in enumerate(p.assign):
        if not (0 <= s < p.k):
            report.errors.append(f"vertex {v}: subset index {s} out of range 0..{p.k - 1}")
    if not report.errors:
        sizes = [0] * p.k
        for s in p.assign:
            sizes[s] += 1
        for i, c in enumerate(sizes):
            if c == 0:
                report.warnings.append(f"empty subset {i}")
    return report


def solution_to_json(instance: str, g: Graph, p: Partition) -> str:
    doc = {
        "instance": instance,
        "k": p.k,
        "objective": evaluate(g, p),
        "assign": list(p.assign),
    }
    return json.dumps(doc, indent=None, separators=(",", ":")) + "\n"


def solution_to_text(p: Partition) -> str:
    """One subset id per line, vertex order."""
    return "\n".join(str(s) for s in p.assign) + "\n"


def _json_int(value, field: str) -> int:
    # bool is an int subclass, but true/false is no subset id or count.
    if type(value) is not int:
        raise ValueError(f"field {field} must be an integer, got {value!r}")
    return value


def solution_from_json(text: str) -> tuple[str, int, int, list[int]]:
    """Returns (instance, k, claimed objective, assignment).  A malformed
    document, or a k, objective or subset id that is not a JSON integer,
    raises ValueError."""
    doc = json.loads(text)
    try:
        return (
            str(doc["instance"]),
            _json_int(doc["k"], "k"),
            _json_int(doc["objective"], "objective"),
            [_json_int(s, "assign") for s in doc["assign"]],
        )
    except KeyError as e:
        raise ValueError(f"missing field {e}") from None
    except TypeError as e:
        raise ValueError(f"malformed field: {e}") from None


def solution_from_text(text: str) -> list[int]:
    return [int(line) for line in text.split() if line.strip()]
