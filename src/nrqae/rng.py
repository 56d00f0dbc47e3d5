"""Deterministic stream splitting for reproducible experiments."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_WORD_MASK = 0xFFFF_FFFF
_POOL_WORDS = 4  # SeedSequence's pool size: a seed is padded to it before a path
# SeedSequence.generate_state's output hash: pool word i is xored with
# INIT_B * MULT_B^i, multiplied by INIT_B * MULT_B^(i+1) (mod 2^32) and
# xor-shifted by 16. _HASH holds those (xor, multiplier) pairs.
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_HASH = tuple((_INIT_B * _MULT_B ** i & _WORD_MASK, _INIT_B * _MULT_B ** (i + 1) & _WORD_MASK)
              for i in range(_POOL_WORDS))
_HASH_XOR = np.array([x for x, _ in _HASH], dtype=np.uint32)[:, None]
_HASH_MULT = np.array([m for _, m in _HASH], dtype=np.uint32)[:, None]
_ZEROS = (0, 0, 0, 0)
# SeedSequence's mix: with C_k = INIT_A MULT_A^k, hash step k maps w to (w ^ C_k) C_(k+1),
# and a pool word x absorbs the result h as MIX_L x - MIX_R h; each xor-shifts by 16 after.
_INIT_A, _MULT_A, _MIX_L, _MIX_R = 0x43B0D7E5, 0x931E8875, 0xCA01F9DD, 0x4973F715


def _philox_key(pool) -> tuple:
    """The Philox key that generate_state(2, np.uint64) derives from a 4-word pool."""
    a, b, c, d = pool.tolist()
    (xa, ma), (xb, mb), (xc, mc), (xd, md) = _HASH
    a = (a ^ xa) * ma & _WORD_MASK
    b = (b ^ xb) * mb & _WORD_MASK
    c = (c ^ xc) * mc & _WORD_MASK
    d = (d ^ xd) * md & _WORD_MASK
    return a ^ a >> 16 | (b ^ b >> 16) << 32, c ^ c >> 16 | (d ^ d >> 16) << 32


@lru_cache(maxsize=16)
def _path_steps(offset: int, width: int) -> tuple:
    """The (xor, multiplier) constants of hash steps offset + 4p + d, each shaped (width, 4, 1).

    Step offset + 4p + d hashes path word p for pool word d; the steps before
    offset hash the seed.
    """
    steps = np.multiply.accumulate(np.array([_INIT_A] + [_MULT_A] * (offset + 4 * width),
                                            dtype=np.uint32), dtype=np.uint32)[offset:, None]
    tables = steps[:-1].reshape(width, 4, 1), steps[1:].reshape(width, 4, 1)
    for table in tables:
        table.setflags(write=False)
    return tables


@lru_cache(maxsize=64)
def _seed_pool(seed: int) -> tuple:
    """SeedSequence(seed)'s 4-word pool as a column, and the hash step of a path's first word.

    The pool's own 4 words take hash steps 0-15 and each further 32-bit word
    of the seed 4 more, so a path starts at step 16 + 4 (words - 4).
    """
    pool = np.random.SeedSequence(seed).pool[:, None]
    pool.setflags(write=False)
    return pool, 16 + 4 * max(0, (seed.bit_length() + 31) // 32 - _POOL_WORDS)


def philox_keys(seed: int, paths) -> list:
    """The Philox keys that ``substream(seed, *row, into=gen)`` writes, one per row.

    paths is a sequence of rows of one length or a 2-D integer array with
    every element in [0, 2^32); the seed is any integer >= 0. numpy mixes
    the seed into the pool (kept per seed); the path words are mixed in for
    all rows at once in uint32 arithmetic, which wraps as C does.
    """
    rows = np.asarray(paths)  # an element beyond every integer dtype makes an object array
    if (rows.ndim != 2 or rows.dtype.kind not in "iu"
            or seed < 0 or (rows >> 32).any()):  # negatives shift to -1
        raise ValueError("paths must have one length, with elements in [0, 2^32) and seed >= 0")
    pool, offset = _seed_pool(int(seed))
    xors, mults = _path_steps(offset, rows.shape[1])
    # hashed[p, d] is path word p hashed by step offset + 4p + d, for pool word d
    hashed = (rows.T.astype(np.uint32)[:, None] ^ xors) * mults
    hashed ^= hashed >> 16
    pool = np.repeat(pool, len(rows), axis=1)
    for h in hashed * _MIX_R:
        pool *= _MIX_L
        pool -= h
        pool ^= pool >> 16
    pool ^= _HASH_XOR
    pool *= _HASH_MULT
    key = (pool ^ pool >> 16).astype(np.uint64)
    return list(zip((key[0] | key[1] << 32).tolist(), (key[2] | key[3] << 32).tolist()))


def rekey(gen: np.random.Generator, key) -> np.random.Generator:
    """Write key, a zero counter and an empty buffer into a Generator over Philox.

    That resets all of its state (binomial's cached constants depend only on
    (n, p)), so the draws are a new generator's at about half the cost.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": key},
        "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen


def stream_key(seed: int, *path: int) -> tuple:
    """The Philox key numpy derives from SeedSequence(entropy=seed, spawn_key=path).

    That is the key substream(seed, *path, into=gen) writes. numpy builds
    the SeedSequence itself when a value is 2^32 or more (or negative, which
    numpy rejects). When every value lies in [0, 2^32), the entropy words
    are assembled here as SeedSequence would: the seed, zero-padded to the
    pool size when a path follows, then the path. Passing them as plain
    entropy skips numpy's slower conversion of Python ints and gives the
    same pool and key.
    """
    for value in (seed, *path):
        if not 0 <= value <= _WORD_MASK:
            ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
            break
    else:
        words = [seed, 0, 0, 0, *path] if path else [seed]
        ss = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    return _philox_key(ss.pool)


def substream(seed: int, *path: int,
              into: np.random.Generator | None = None) -> np.random.Generator:
    """Independent generator for a (seed, path) pair.

    Philox is counter-based, so streams spawned from the same seed with
    distinct spawn keys never overlap. Callers key streams by tuples such
    as (trial, depth, term) to keep every drawn quantity reproducible in
    isolation.

    The stream is that of ``SeedSequence(entropy=seed, spawn_key=path)``:
    its key, stream_key(seed, *path), is written through rekey into
    ``into``, a Generator over Philox, or without ``into`` into a new one.
    """
    if into is None:
        into = np.random.Generator(np.random.Philox(0))
    return rekey(into, stream_key(seed, *path))
