"""Tracing from outside the program: wrap public functions at the module
bindings their callers use, record spans in memory, restore the bindings.

A span is (name, start, end, parent).  Functions called once per scanned
vertex, such as ``TabuList.is_forbidden``, are counted, not timed: a span
per call would cost more than the call itself.
"""

from __future__ import annotations

import statistics
import time
from array import array
from collections import defaultdict

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._cells: dict[str, list[int]] = {}
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording ------------------------------------------------------------

    def call(self, name: str, fn, *args, after=None):
        """Run fn(*args) inside a span; after(result, args) runs once the span
        has ended, also when fn raises (result is then None)."""
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        result = None
        self.start.append(perf_counter())
        try:
            result = fn(*args)
            return result
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()
            if after is not None:
                after(result, args)

    def patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def timed(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace owner.attr by a wrapper that records a span per call.
        before(args) runs outside the span, ahead of it."""
        fn = getattr(owner, attr)
        call = self.call

        if before is None:
            def wrapper(*args):
                return call(name, fn, *args, after=after)
        else:
            def wrapper(*args):
                before(args)
                return call(name, fn, *args, after=after)

        self.patch(owner, attr, wrapper)

    def counted(self, owner, attr: str, name: str) -> None:
        """Replace owner.attr by a wrapper that only counts its calls."""
        fn = getattr(owner, attr)
        cell = self._cells[name] = [0]

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        self.patch(owner, attr, wrapper)

    def reset_counts(self) -> None:
        self.counts.clear()
        for cell in self._cells.values():
            cell[0] = 0

    def snapshot(self) -> dict[str, int]:
        """The counts so far: those of counted() and those added to counts."""
        out = defaultdict(int, self.counts)
        out.update((name, cell[0]) for name, cell in self._cells.items())
        return out

    def restore(self) -> bool:
        """Put every original binding back; True when all are restored."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        ok = all(getattr(o, a) is orig for o, a, orig in self._saved)
        self._saved.clear()
        return ok

    # -- analysis -------------------------------------------------------------

    def summary(self, root: str | None = None) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds and the median
        duration of one call, over spans that lie under a span named root
        (the root spans included), or over every span when root is None.

        Self time is a span's duration minus the durations of its direct
        children; children never overlap, because spans nest on one stack.
        """
        count = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        root_id = self._ids.get(root, -2)
        under = [False] * count
        for i in range(count):  # parents precede children
            p = self.parent[i]
            under[i] = (root is None or self.name[i] == root_id
                        or (p >= 0 and under[p]))
        per: dict[str, dict] = {}
        durations: defaultdict[str, list[float]] = defaultdict(list)
        for i in range(count):
            if not under[i]:
                continue
            name = self.names[self.name[i]]
            row = per.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
            durations[name].append(dur[i])
        for name, row in per.items():
            row["median_s"] = statistics.median(durations[name])
        return per

    def write(self, path) -> None:
        """Write every span as CSV: name, start, end, parent index."""
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i},{names[self.name[i]]},{self.start[i]:.9f},"
                         f"{self.end[i]:.9f},{self.parent[i]}\n")
