"""Deterministic stream splitting for reproducible experiments."""

from __future__ import annotations

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
_ZEROS = (0, 0, 0, 0)


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
    Generator over Philox, that generator is re-keyed and returned: the key
    numpy derives from the SeedSequence's pool is written with a zero
    counter and an empty buffer. That resets every field of the Philox
    state, and the constants Generator.binomial caches depend only on its
    (n, p), so the draws are those of a new generator at about half the
    cost. Seeds and path elements in [0, 2^32) skip the word assembly.
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
    into.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": _philox_key(ss.pool)},
        "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return into
