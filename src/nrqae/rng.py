"""Deterministic stream splitting for reproducible experiments."""

from __future__ import annotations

import numpy as np

_WORD_MASK = 0xFFFF_FFFF
_POOL_WORDS = 4  # SeedSequence's pool size: a seed is padded to it before a path


def _append_words(value: int, words: list) -> None:
    """Append value's little-endian 32-bit words (one word for 0), as numpy does."""
    if value < 0:
        raise ValueError(f"expected non-negative integer, got {value}")
    words.append(value & _WORD_MASK)
    value >>= 32
    while value:
        words.append(value & _WORD_MASK)
        value >>= 32


def substream(seed: int, *path: int) -> np.random.Generator:
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
    """
    words: list = []
    _append_words(int(seed), words)
    if path:
        words.extend([0] * (_POOL_WORDS - len(words)))
        for p in path:
            _append_words(int(p), words)
    ss = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    return np.random.Generator(np.random.Philox(ss))
