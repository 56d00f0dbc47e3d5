"""substream, stream_key and philox_keys: the streams and keys of numpy's SeedSequence."""

import numpy as np
import pytest

from nrqae.rng import philox_keys, rekey, stream_key, substream


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


def test_streams_match_through_one_rekeyed_generator():
    """One generator re-keyed from case to case gives every case's fresh stream."""
    cases = _random_cases(3000)
    rng = np.random.default_rng(2025)
    gen = np.random.Generator(np.random.Philox(0))
    left = []  # the Philox state each case leaves for the next re-key
    for i, (seed, path) in enumerate(cases):
        got = substream(seed, *path, into=gen)
        assert got is gen
        want = _reference(seed, *path)
        # small n and n p take the inversion sampler, large ones BTPE
        n = int(rng.choice([1, 7, 40, 1000, 100_000, 2 ** 40]))
        p = float(rng.choice([0.0, 1.0, 1e-4, float(rng.uniform())]))
        assert got.binomial(n, p) == want.binomial(n, p), (seed, path, n, p)
        assert got.integers(0, 2) == want.integers(0, 2)
        size = i % 7 + 1
        assert np.array_equal(got.standard_normal(size), want.standard_normal(size))
        if i % 3 == 0:
            # a second 32-bit draw leaves none pending
            assert got.integers(0, 2) == want.integers(0, 2)
        state = gen.bit_generator.state
        left.append((state["has_uint32"], state["buffer_pos"]))
    # re-keys happen after an odd number of 32-bit draws, after an even
    # one, and with a partly used buffer
    assert {has for has, _ in left} == {0, 1}
    assert {pos for _, pos in left} >= {1, 2, 3}


def test_into_must_be_a_philox_generator():
    with pytest.raises(ValueError):
        substream(7, 1, into=np.random.default_rng(0))
    with pytest.raises(AttributeError):
        substream(7, 1, into=np.random.Philox(0))


def test_numpy_integer_arguments_match():
    # numpy integer scalars give the words of the Python ints they hold
    args = (np.int64(7), np.int32(3), np.uint64(2 ** 40 + 5))
    assert np.array_equal(substream(*args).standard_normal(8),
                          _reference(*args).standard_normal(8))
    gen = np.random.Generator(np.random.Philox(0))
    assert np.array_equal(substream(*args, into=gen).standard_normal(8),
                          _reference(*args).standard_normal(8))


@pytest.mark.parametrize("seed, path", [(-1, ()), (-(2 ** 40), ()), (7, (-1,)),
                                        (7, (0, 3, -2)), (2 ** 70, (2 ** 33, -1))])
def test_negative_values_are_rejected(seed, path):
    with pytest.raises(ValueError):
        _reference(seed, *path)
    with pytest.raises(ValueError):
        substream(seed, *path)
    with pytest.raises(ValueError):
        substream(seed, *path, into=np.random.Generator(np.random.Philox(0)))


def test_philox_keys_match_generate_state():
    """Batched keys, and the scalar stream_key, are the ones SeedSequence derives, row by row."""
    rng = np.random.default_rng(2026)

    def word():
        return int(rng.choice([0, 1, 2 ** 32 - 1, int(rng.integers(0, 2 ** 32))]))

    def wide_seed():
        # 2-16 words: from 5 words on, the seed shifts the path's hash steps
        words = int(rng.integers(2, 17))
        top = int(rng.integers(1, 2 ** 32))  # nonzero, so the seed has that many words
        return sum(word() << 32 * i for i in range(words - 1)) + (top << 32 * (words - 1))

    checked, seeds, widths, edges = 0, set(), set(), set()
    gen = np.random.Generator(np.random.Philox(0))
    while checked < 3000:
        seed = (0, 2 ** 32 - 1, word(), 2 ** 32, wide_seed(), wide_seed())[checked % 6]
        width = int(rng.integers(1, 5))
        paths = [tuple(word() for _ in range(width)) for _ in range(int(rng.integers(1, 9)))]
        for path, key in zip(paths, philox_keys(seed, paths), strict=True):
            want = np.random.SeedSequence(entropy=seed, spawn_key=path).generate_state(2, np.uint64)
            assert key == tuple(want.tolist()) == stream_key(seed, *path), (seed, path)
            edges.update(set(path) & {0, 2 ** 32 - 1})
        seeds.add(seed)
        widths.add(width)
        # a generator re-keyed to the batch's last key draws that row's fresh stream
        assert rekey(gen, key).standard_normal(3).tolist() == \
            _reference(seed, *path).standard_normal(3).tolist()
        checked += len(paths)
    assert {0, 2 ** 32 - 1, 2 ** 32} <= seeds and widths == {1, 2, 3, 4}
    assert edges == {0, 2 ** 32 - 1}
    # every seed width from one to sixteen words occurs
    assert {(seed.bit_length() + 31) // 32 for seed in seeds} >= set(range(1, 17))


@pytest.mark.parametrize("seed, paths", [
    (7, [(1, 2), (3,)]),                  # ragged
    (7, [(1,), (2, 3), (4,)]),
    (2 ** 32, [(1, 2 ** 32)]),            # a wide path element under a two-word seed
    (7, [(1, 2 ** 32)]),                  # path elements beyond 32 bits
    (7, [(2 ** 64,)]),
    (7, [(1, 2 ** 70)]),
    (7, [(np.uint64(2 ** 40),)]),
    (-1, [(1,)]),
    (7, [(0, -1)]),
    (-(2 ** 40), [(1,)]),                 # a negative seed of two words
])
def test_philox_keys_rejects_ragged_or_wide_values(seed, paths):
    with pytest.raises(ValueError):
        philox_keys(seed, paths)
