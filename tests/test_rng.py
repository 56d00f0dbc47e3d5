"""substream: the same streams as numpy's SeedSequence spawn-key construction."""

import numpy as np
import pytest

from nrqae.rng import substream


def _reference(seed, *path):
    """The construction substream replaced, kept here as the reference."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def _random_cases(count):
    rng = np.random.default_rng(2024)

    def value():
        kind = int(rng.integers(4))
        if kind == 0:
            return int(rng.choice([0, 1, 7, 7001, 2 ** 32 - 1, 2 ** 32, 2 ** 64]))
        if kind == 1:
            return int(rng.integers(0, 100))
        if kind == 2:
            return int(rng.integers(0, 2 ** 32))
        return int(rng.integers(0, 2 ** 62)) * 2 ** int(rng.integers(0, 40))

    seeds = [lambda: 0, lambda: 7, lambda: int(rng.integers(0, 2 ** 32)),
             lambda: 2 ** 64 + int(rng.integers(0, 2 ** 62)) * int(rng.integers(1, 2 ** 30))]
    cases = []
    for i in range(count):
        seed = seeds[i % len(seeds)]()
        cases.append((seed, tuple(value() for _ in range(int(rng.integers(0, 7))))))
    return cases


def test_streams_match_the_spawn_key_construction():
    cases = _random_cases(3000)
    # every seed class meets every path length, and multi-word path elements occur
    assert {len(path) for _, path in cases} == set(range(7))
    assert any(seed >= 2 ** 64 for seed, _ in cases)
    assert any(p >= 2 ** 32 for _, path in cases for p in path)
    for seed, path in cases:
        # the draws the program makes, in turn from one generator of each kind
        got, want = substream(seed, *path), _reference(seed, *path)
        assert np.array_equal(got.binomial(100_000, 0.3), want.binomial(100_000, 0.3))
        assert np.array_equal(got.integers(0, 2), want.integers(0, 2))
        assert np.array_equal(got.standard_normal((2, 4, 4)),
                              want.standard_normal((2, 4, 4))), (seed, path)


def test_numpy_integer_arguments_match():
    # numpy integer scalars give the words of the Python ints they hold
    args = (np.int64(7), np.int32(3), np.uint64(2 ** 40 + 5))
    assert np.array_equal(substream(*args).standard_normal(8),
                          _reference(*args).standard_normal(8))


@pytest.mark.parametrize("seed, path", [(-1, ()), (-(2 ** 40), ()), (7, (-1,)),
                                        (7, (0, 3, -2)), (2 ** 70, (2 ** 33, -1))])
def test_negative_values_are_rejected(seed, path):
    with pytest.raises(ValueError):
        _reference(seed, *path)
    with pytest.raises(ValueError):
        substream(seed, *path)
