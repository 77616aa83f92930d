"""Tabu memory for the diversified phase: (vertex, subset) return bans
with dynamic tenure drawn from [3, max(3, n // 10)]."""

from __future__ import annotations

import math
import random


class TabuList:
    """Maps (vertex, subset) to the iteration at which the ban expires.

    A pair is forbidden at iteration t exactly when its expiry is > t.
    """

    def __init__(self, n: int):
        # rand(3, n/10) is ill-formed for n < 30; clamp the upper bound.
        self.low = 3
        self.high = max(3, n // 10)
        self.expiry: dict[tuple[int, int], int] = {}

    def record(self, v: int, origin: int, iteration: int, rng: random.Random) -> None:
        tenure = rng.randint(self.low, self.high)
        self.expiry[(v, origin)] = iteration + tenure

    def is_forbidden(self, v: int, target: int, iteration: int) -> bool:
        return self.expiry.get((v, target), -math.inf) > iteration

    def clear(self) -> None:
        self.expiry.clear()
