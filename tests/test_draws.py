"""The draws of maxkcut.draws equal random.Random's own, value and state."""

import math
import random

import pytest

from maxkcut.draws import below, sample_below

# Sizes around every power of two up to 2**20, where n.bit_length() steps.
SIZES = sorted(
    set(range(1, 71))
    | {m for j in range(1, 21) for m in (2**j - 1, 2**j, 2**j + 1)}
    | {9999}
)
SEEDS = (0, 1, 7, 2024)


def _pair(seed):
    return random.Random(seed), random.Random(seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_below_is_randrange(seed):
    for n in SIZES:
        ours, theirs = _pair(seed * 100003 + n)
        for _ in range(5):
            assert below(ours.getrandbits, n) == theirs.randrange(n)
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("seed", SEEDS)
def test_below_is_choice_and_randint(seed):
    for n in SIZES:
        ours, theirs = _pair(seed * 100003 + n)
        seq = range(7, 7 + 3 * n, 3)
        for _ in range(3):
            assert seq[below(ours.getrandbits, n)] == theirs.choice(seq)
            assert 3 + below(ours.getrandbits, n) == theirs.randint(3, 3 + n - 1)
        assert ours.getstate() == theirs.getstate()


def test_below_rejects_an_empty_range():
    rng = random.Random(0)
    state = rng.getstate()
    for n in (0, -1, -8):
        with pytest.raises(ValueError):
            below(rng.getrandbits, n)
    assert rng.getstate() == state


def _set_size(count):
    """The population size up to which random.Random.sample copies the
    population into a pool (CPython's threshold)."""
    size = 21
    if count > 5:
        size += 4 ** math.ceil(math.log(count * 3, 4))
    return size


class _CountingRandom(random.Random):
    """A Random that counts its sample calls and draws as Random does."""

    samples = 0

    def sample(self, population, k, **kw):
        self.samples += 1
        return super().sample(population, k, **kw)


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 6, 20, 22, 100])
def test_sample_below_is_sample(count):
    edge = _set_size(count)
    sizes = sorted(
        {count, count + 1, edge - 1, edge, edge + 1, edge + 2, 2 * edge, 9999} - set(range(count))
    )
    branches = set()
    for n in sizes:
        for seed in SEEDS:
            ours, theirs = _CountingRandom(seed), random.Random(seed)
            assert sample_below(ours, n, count) == theirs.sample(range(n), count)
            assert ours.getstate() == theirs.getstate()
            # At or below the set size the pool branch is rng.sample's own.
            assert ours.samples == (n <= edge)
            branches.add(n <= edge)
    assert branches == {True, False}


def test_sample_below_draws_in_sequence():
    """Consecutive samples leave the generator where sample leaves it."""
    ours, theirs = _pair(5)
    for n, count in [(9999, 112), (2, 2), (4, 2), (500, 40), (30, 3), (9999, 1)]:
        assert sample_below(ours, n, count) == theirs.sample(range(n), count)
    assert ours.getstate() == theirs.getstate()


def test_sample_below_rejects_a_count_outside_the_population():
    rng = random.Random(0)
    for n, count in [(3, 4), (100, 101), (5, -1), (0, 1)]:
        with pytest.raises(ValueError):
            sample_below(rng, n, count)
    assert sample_below(rng, 0, 0) == [] and sample_below(rng, 50, 0) == []
