"""Keyed, counter-based random number generation.

Every random decision in the package is drawn from a generator keyed by a
tuple of integers/strings (seed, purpose, step, ...). Two draws with the same
key are identical across runs, platforms and call orders, which is what makes
corpus generation, training batches and per-position sampling reproducible
without any shared mutable RNG state.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _mix(parts: tuple) -> np.ndarray:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, str):
            h.update(b"s" + part.encode("utf-8"))
        elif isinstance(part, (int, np.integer)):
            h.update(b"i" + int(part).to_bytes(16, "little", signed=True))
        else:
            raise TypeError(f"rng key parts must be int or str, got {type(part).__name__}")
        h.update(b"\x00")
    raw = h.digest()
    return np.frombuffer(raw, dtype=np.uint64)


def rng_for(*key_parts: int | str) -> np.random.Generator:
    """Deterministic generator for a key tuple (Philox, counter-based)."""
    return np.random.Generator(np.random.Philox(key=_mix(key_parts)))

