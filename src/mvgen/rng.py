"""Keyed, counter-based random number generation.

Every random decision in the package is drawn from a generator keyed by a
tuple of integers/strings (seed, purpose, step, ...). Two draws with the same
key are identical across runs, platforms and call orders, which is what makes
corpus generation, training batches and per-position sampling reproducible
without any shared mutable RNG state.

`first_uniforms` gives the first `random()` of many such generators at once,
bit for bit: the keys come in groups that share a prefix, so each prefix is
hashed once, and numpy's Philox4x64-10 runs in uint64 arrays under the keys of
every group together (a sampling walk passes one group per scale).
"""

from __future__ import annotations

import hashlib

import numpy as np

from .numerics import ContractError

# Philox4x64 round multipliers and Weyl key increments (Salmon et al., SC'11)
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
# 0-d uint64 operands: numpy's cheapest path on the few-row arrays of a walk
_LOW32, _32, _11 = (np.array(v, dtype=np.uint64) for v in (0xFFFFFFFF, 32, 11))
_M_LO, _M_HI = _PHILOX_M & _LOW32, _PHILOX_M >> _32


def _key_part(part: int | str) -> bytes:
    if isinstance(part, str):
        return b"s" + part.encode("utf-8") + b"\x00"
    if isinstance(part, (int, np.integer)):
        try:
            return b"i" + int(part).to_bytes(16, "little", signed=True) + b"\x00"
        except OverflowError:  # a try is free; a range check per position is not
            raise ContractError(
                f"rng key part {part} lies outside the signed 128-bit range") from None
    raise TypeError(f"rng key parts must be int or str, got {type(part).__name__}")


def _hasher(parts) -> "hashlib.blake2b":
    """The 16-byte blake2b state after the key parts, in order."""
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(_key_part(part))
    return h


def rng_for(*key_parts: int | str) -> np.random.Generator:
    """Deterministic generator for a key tuple (Philox, counter-based)."""
    key = np.frombuffer(_hasher(key_parts).digest(), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def first_uniforms(groups) -> list[np.ndarray]:
    """One array per (prefix, positions) group, u[r] ==
    rng_for(*prefix, positions[r]).random(), bit for bit.

    A fresh Philox generator's first block is Philox4x64-10 of the counter
    [1, 0, 0, 0]; its first round has a closed form, the other nine run here
    once on (2, n) uint64 arrays over every group's keys, and random() is the
    first word's top 53 bits.
    """
    digests, ends = [], []
    for prefix, positions in groups:
        h = _hasher(prefix)
        for pos in positions:
            g = h.copy()
            g.update(_key_part(pos))
            digests.append(g.digest())
        ends.append(len(digests))
    # (2, n) in C order: the rounds run twice as fast as on the transposed view
    key = np.frombuffer(b"".join(digests), dtype=np.uint64).reshape(-1, 2).T.copy()
    # after round 0: words 0 and 2 are the key, words 1 and 3 are 0 and M0
    x02, x13 = key, np.array([[0], [_PHILOX_M[0, 0]]], dtype=np.uint64)
    for _ in range(9):
        key = key + _PHILOX_W
        lo, hi = x02 & _LOW32, x02 >> _32
        # high word of M * x02 from 32-bit halves (Hacker's Delight, mulhu)
        t = _M_HI * lo + ((_M_LO * lo) >> _32)
        w = (t & _LOW32) + _M_LO * hi
        mul_hi = _M_HI * hi + (t >> _32) + (w >> _32)
        x02, x13 = mul_hi[::-1] ^ x13 ^ key, (_PHILOX_M * x02)[::-1]
    u = (x02[0] >> _11) * 2.0 ** -53
    return [u[start:end] for start, end in zip([0] + ends, ends)]
