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


def _long_words(seed: int, path) -> list:
    """Entropy words as numpy assembles them, for values of any size.

    Each value gives its little-endian 32-bit words (one word for 0); the
    seed's words are zero-padded to the pool size when a path follows.
    """
    words: list = []
    for i, value in enumerate((seed, *path)):
        value = int(value)
        if value < 0:
            raise ValueError(f"expected non-negative integer, got {value}")
        if i == 1:
            words.extend([0] * (_POOL_WORDS - len(words)))
        words.append(value & _WORD_MASK)
        value >>= 32
        while value:
            words.append(value & _WORD_MASK)
            value >>= 32
    return words


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
def _path_steps(width: int) -> tuple:
    """The (xor, multiplier) constants of hash steps 16 + 4p + d, each shaped (width, 4, 1).

    Step 16 + 4p + d hashes path word p for pool word d; steps 0-15 hash the seed.
    """
    steps = np.multiply.accumulate(np.array([_INIT_A] + [_MULT_A] * (16 + 4 * width),
                                            dtype=np.uint32), dtype=np.uint32)[16:, None]
    tables = steps[:-1].reshape(width, 4, 1), steps[1:].reshape(width, 4, 1)
    for table in tables:
        table.setflags(write=False)
    return tables


@lru_cache(maxsize=64)
def _seed_pool(seed: int) -> np.ndarray:
    """The 4-word pool numpy's SeedSequence(seed) mixes from a seed alone, as a column."""
    pool = np.random.SeedSequence(seed).pool[:, None]
    pool.setflags(write=False)
    return pool


def philox_keys(seed: int, paths) -> list:
    """The Philox keys that ``substream(seed, *row, into=gen)`` writes, one per row.

    paths is a sequence of rows of one length or a 2-D integer array; the
    seed and every element lie in [0, 2^32). numpy mixes the seed into the
    pool (hash steps 0-15, kept per seed); the path words are mixed in for
    all rows at once in uint32 arithmetic, which wraps as C does.
    """
    try:
        rows = np.asarray(paths)
    except OverflowError:  # beyond every integer dtype, so beyond 32 bits too
        rows = None
    if (rows is None or rows.ndim != 2 or rows.dtype.kind not in "iu"
            or not 0 <= seed <= _WORD_MASK or (rows >> 32).any()):  # negatives shift to -1
        raise ValueError("paths must have one length, with seed and elements in [0, 2^32)")
    xors, mults = _path_steps(rows.shape[1])
    # hashed[p, d] is path word p hashed by step 16 + 4p + d, for pool word d
    hashed = (rows.T.astype(np.uint32)[:, None] ^ xors) * mults
    hashed ^= hashed >> 16
    pool = np.repeat(_seed_pool(int(seed)), len(rows), axis=1)
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


def substream(seed: int, *path: int,
              into: np.random.Generator | None = None) -> np.random.Generator:
    """Independent generator for a (seed, path) pair.

    Philox is counter-based, so streams spawned from the same seed with
    distinct spawn keys never overlap. Callers key streams by tuples such
    as (trial, depth, term) to keep every drawn quantity reproducible in
    isolation.

    The stream is that of ``SeedSequence(entropy=seed, spawn_key=path)``.
    Its entropy words are assembled here as SeedSequence would: the seed's
    words, zero-padded to the pool size when a path follows, then each path
    element's words. Passing them as plain entropy skips numpy's slower
    conversion of Python ints and gives the same pool, key and draws.

    Without ``into`` a new Philox generator is built. With ``into``, a
    Generator over Philox, that generator is given the key numpy derives
    from the SeedSequence's pool through rekey, and returned. Seeds and
    path elements in [0, 2^32) skip the word assembly.
    """
    for value in (seed, *path):
        if not 0 <= value <= _WORD_MASK:
            words = _long_words(seed, path)
            break
    else:
        words = [seed, 0, 0, 0, *path] if path else [seed]
    ss = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    if into is None:
        return np.random.Generator(np.random.Philox(ss))
    return rekey(into, _philox_key(ss.pool))
