"""Host speed reference: a fixed numpy kernel timed alongside the measured work.

On a shared host the same code can run 1.5x slower for tens of seconds at a
time, with CPU time tracking wall time. A run that times this kernel next to
every measured operation can scale that drift out: a duration divided by the
kernel's local median and multiplied by `NOMINAL_S` reads as the duration at
the host speed where the kernel takes `NOMINAL_S`. The kernel mixes what
mvgen spends its time on (interpreter overhead around small float32 numpy
operations, and sgemm and elementwise passes over MB-sized arrays) and
depends on numpy alone, so no change to mvgen can move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median kernel time on an idle 2-core x86-64 host (OpenBLAS, 1 thread)
NOMINAL_S = 2.1e-3
# share of an iteration's time spent on the kernel, and the most runs per iteration
REFERENCE_SHARE, MOST_REPEATS = 0.03, 8
# a duration is normalized by the samples of the iterations within this distance
HALF_WINDOW = 4


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = (rng.normal(size=(64, 64)) / 8).astype(np.float32)
        self._rows = rng.normal(size=(480, 128)).astype(np.float32)
        self._cols = rng.normal(size=(128, 512)).astype(np.float32)
        self.samples: list[float] = []

    def _kernel(self) -> float:
        # batch-1 inference: interpreter overhead around L1-sized float32 ops
        x = self._small
        acc = 0.0
        for _ in range(32):
            x = np.tanh((x @ self._small) * 0.5 + 0.1)
            acc += sum(float(v) for v in x[0, :8])
        # batch training: sgemm and elementwise passes over MB-sized arrays
        y = np.tanh((self._rows @ self._cols) * 0.01)
        return acc + float((y.T @ self._rows)[0, 0])

    def sample(self, repeats: int = 1) -> list[float]:
        """Time the kernel `repeats` times; returns the durations in seconds."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        self.samples += times
        return times


def normalized(duration: float, reference: float) -> float:
    """`duration` rescaled to the host speed at which the kernel takes NOMINAL_S."""
    return duration * NOMINAL_S / reference


def repeats_for(duration: float) -> int:
    """Kernel runs that cost about REFERENCE_SHARE of an operation lasting `duration`."""
    return min(MOST_REPEATS, max(1, round(REFERENCE_SHARE * duration / NOMINAL_S)))


def local_references(references: list[list[float]]) -> list[float]:
    """For each position, the median of the samples taken within HALF_WINDOW of it."""
    out = []
    for i in range(len(references)):
        pooled = [t for part in references[max(0, i - HALF_WINDOW):i + HALF_WINDOW + 1]
                  for t in part]
        out.append(statistics.median(pooled))
    return out
