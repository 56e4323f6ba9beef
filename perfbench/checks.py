"""Correctness checks on the outputs the benchmark gets back from mvgen.

Each check returns a list of problems (empty when the output is correct), so a
run can report every failed check by name instead of stopping at the first.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


def losses_problems(name: str, losses: list[float]) -> list[str]:
    """Losses are finite and fall over the run (last quarter below first quarter)."""
    if not losses:
        return [f"{name}: no losses recorded"]
    if not all(math.isfinite(x) for x in losses):
        return [f"{name}: non-finite loss"]
    quarter = max(1, len(losses) // 4)
    first, last = np.mean(losses[:quarter]), np.mean(losses[-quarter:])
    if len(losses) < 2 or not last < first:
        return [f"{name}: loss did not fall ({first:.6f} -> {last:.6f} over {len(losses)} steps)"]
    return []


def initial_prior_loss_problems(loss: float, vocab_size: int) -> list[str]:
    """A zero-initialised head scores exactly ln V per token (float32 rounding allowed)."""
    expected = math.log(vocab_size)
    if not abs(loss - expected) <= 1e-5 * expected:
        return [f"first prior batch scored {loss!r}, expected ln {vocab_size} = {expected!r}"]
    return []


def sample_problems(pyramid, values: np.ndarray, forward_passes: int, expected_passes: int,
                    stream: bytes, tokens_from_bytes) -> list[str]:
    """One generated image: pass count, pixel range, and the MVTK round-trip."""
    problems = []
    if forward_passes != expected_passes:
        problems.append(f"forward_passes {forward_passes} != {expected_passes}")
    if not (np.isfinite(values).all() and values.min() >= 0.0 and values.max() <= 1.0):
        problems.append("pixel values outside [0, 1]")
    decoded, _ = tokens_from_bytes(stream)
    if len(decoded.grids) != len(pyramid.grids) or not all(
            np.array_equal(a, b) for a, b in zip(decoded.grids, pyramid.grids)):
        problems.append("MVTK round-trip differs from the sampled pyramid")
    return problems


def pgm_problems(values: np.ndarray, read_back: np.ndarray) -> list[str]:
    """The written PGM holds the image quantized to 8 bits."""
    if read_back.shape != values.shape or np.abs(read_back - values).max() > 0.5 / 255 + 1e-9:
        return ["PGM read-back differs from the generated image"]
    return []


def finite_problems(name: str, value: float) -> list[str]:
    return [] if math.isfinite(value) else [f"{name} is not finite: {value!r}"]


def same_problems(name: str, digests: list[str]) -> list[str]:
    """Digests of repeated, identically seeded work are identical."""
    return [] if len(set(digests)) <= 1 else [f"{name} differs between repeats: {digests}"]


def digest(*parts) -> str:
    """Order-sensitive digest of arrays, bytes and plain values."""
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.dtype).encode() + str(part.shape).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()
