"""Random draws read straight from ``getrandbits``.

On a plain random.Random, choice, randrange, randint and sample all reduce
to one rejection draw, ``_randbelow(n)``: ``getrandbits(n.bit_length())``
until the result is below n.  These functions make the same getrandbits
calls in the same order, so a seed gives the same values and leaves the
same generator state, without the Python frames of random.py per draw.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable


def below(getrandbits: Callable[[int], int], n: int) -> int:
    """The draw of random.Random._randbelow(n): rng.randrange(n) is
    below(rng.getrandbits, n), rng.choice(seq) is seq[below(..., len(seq))]
    and rng.randint(a, b) is a + below(..., b - a + 1)."""
    if n < 1:
        raise ValueError(f"no integer is below {n} and >= 0")
    bits = n.bit_length()  # not (n - 1): CPython draws one bit for n = 1
    r = getrandbits(bits)
    while r >= n:
        r = getrandbits(bits)
    return r


def sample_below(rng: random.Random, n: int, count: int) -> list[int]:
    """rng.sample(range(n), count), draw for draw.

    random.Random.sample copies the population into a pool when n is at most
    a set's size for count picks, and otherwise redraws a pick already
    taken.  The second branch runs here; the first is rng.sample's own."""
    if not 0 <= count <= n:
        raise ValueError(f"cannot sample {count} of {n}")
    setsize = 21  # CPython's pool-or-set threshold, as in random.py
    if count > 5:
        setsize += 4 ** math.ceil(math.log(count * 3, 4))
    if n <= setsize:
        return rng.sample(range(n), count)
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    # below(getrandbits, n) per pick, redrawn while it is a pick already
    # taken; a dict keeps the picks in draw order.
    picks: dict[int, None] = {}
    while len(picks) < count:
        r = getrandbits(bits)
        if r < n:
            picks[r] = None
    return list(picks)
