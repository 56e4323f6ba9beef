"""Evaluation suite: Frechet distance, kernel MMD, efficiency score, timing.

The feature embedder is the frozen tokenizer encoder with spatial mean
pooling, so the whole suite is self-contained and deterministic. Absolute
distances are therefore only comparable within this embedder; the suite
asserts relative and consistency properties, plus the published efficiency
table, which depends on no embedder at all.
"""

from __future__ import annotations

import csv
import dataclasses
import importlib.resources
import math
import os
import platform
import time
from typing import Callable

import numpy as np

from . import checkpoint as ckpt
from .numerics import ContractError, no_grad
from .tokenizer import TokenizerModel, load_tokenizer

CSV_HEADER = "model,n_real,n_fake,fid,kid,median_time_s,efficiency,gamma,seed"

EFFICIENCY_GAMMA = 0.1
EFFICIENCY_TOLERANCE = 0.05

# Images per encoder call in `FeatureEmbedder.embed`: 32 keep the encoder's
# largest im2col buffer at 4 MB at the default tokenizer (17 MB at 128), so
# evaluation's peak memory does not hinge on the allocator's free lists.
EMBED_CHUNK = 32


class FeatureEmbedder:
    """Frozen tokenizer encoder + spatial mean pooling -> C-dim features."""

    def __init__(self, model: TokenizerModel, checkpoint_hash: str = ""):
        self.model = model
        self.checkpoint_hash = checkpoint_hash

    @classmethod
    def from_checkpoint(cls, path: str | os.PathLike) -> "FeatureEmbedder":
        model, _ = load_tokenizer(path)
        return cls(model, checkpoint_hash=ckpt.checkpoint_hash(path))

    def embed(self, images: np.ndarray) -> np.ndarray:
        """(N, R, R) -> (N, C) float64 features, `EMBED_CHUNK` images per
        encoder call; each image's features are independent of the chunk size."""
        images = np.asarray(images)
        feats = []
        with no_grad():
            for lo in range(0, images.shape[0], EMBED_CHUNK):
                latent = self.model.encoder_forward(images[lo:lo + EMBED_CHUNK]).values
                feats.append(latent.mean(axis=(2, 3)))
        return np.concatenate(feats, axis=0).astype(np.float64)


@dataclasses.dataclass(frozen=True)
class GaussianStats:
    n: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        if self.n < 2:
            raise ContractError("Gaussian fit needs at least 2 samples")
        if not np.allclose(self.cov, self.cov.T, atol=1e-12):
            raise ContractError("covariance must be symmetric")

    @classmethod
    def from_features(cls, features: np.ndarray) -> "GaussianStats":
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] < 2:
            raise ContractError("need an (N >= 2, C) feature matrix")
        mean = features.mean(axis=0)
        centered = features - mean
        cov = centered.T @ centered / (features.shape[0] - 1)
        return cls(n=features.shape[0], mean=mean, cov=(cov + cov.T) / 2.0)


def _sqrtm_psd(mat: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition, negatives clamped."""
    vals, vecs = np.linalg.eigh((mat + mat.T) / 2.0)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def frechet_distance(a: GaussianStats, b: GaussianStats) -> float:
    """||mu_a - mu_b||^2 + Tr(cov_a + cov_b - 2 (cov_a cov_b)^(1/2))."""
    if a.mean.shape != b.mean.shape:
        raise ContractError("feature dimensions differ")
    diff = a.mean - b.mean
    root_a = _sqrtm_psd(a.cov)
    inner = root_a @ b.cov @ root_a
    vals = np.linalg.eigvalsh((inner + inner.T) / 2.0)
    tr_sqrt = float(np.sqrt(np.clip(vals, 0.0, None)).sum())
    return float(diff @ diff + np.trace(a.cov) + np.trace(b.cov) - 2.0 * tr_sqrt)


def _poly_kernel(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    c = x.shape[1]
    return (x @ y.T / c + 1.0) ** 3


def kid(features_a: np.ndarray, features_b: np.ndarray) -> float:
    """Unbiased MMD^2 with the degree-3 polynomial kernel (x.y/C + 1)^3."""
    a = np.asarray(features_a, dtype=np.float64)
    b = np.asarray(features_b, dtype=np.float64)
    n, m = a.shape[0], b.shape[0]
    if n < 2 or m < 2:
        raise ContractError("unbiased KID needs at least 2 samples per set")
    if a.shape[1] != b.shape[1]:
        raise ContractError("feature dimensions differ")
    k_aa = _poly_kernel(a, a)
    k_bb = _poly_kernel(b, b)
    k_ab = _poly_kernel(a, b)
    term_a = (k_aa.sum() - np.trace(k_aa)) / (n * (n - 1))
    term_b = (k_bb.sum() - np.trace(k_bb)) / (m * (m - 1))
    return float(term_a + term_b - 2.0 * k_ab.mean())


def efficiency(q: float, p: float) -> float:
    """Quality-latency score q * (log10(1 + p))^EFFICIENCY_GAMMA; lower is better."""
    if q < 0 or not 0.0 <= p < math.inf:
        raise ContractError("efficiency needs a non-negative quality and a finite, "
                            f"non-negative time, not quality {q} and time {p}")
    if p == 0.0:
        return 0.0  # degenerate: log10(1) == 0; flagged by the report layer
    return q * math.log10(1.0 + p) ** EFFICIENCY_GAMMA


@dataclasses.dataclass
class TimingResult:
    median_s: float
    per_image_s: list[float]
    fingerprint: dict


def environment_fingerprint() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def time_generation(generator: Callable[[], object], n_images: int,
                    warmup: int = 1) -> TimingResult:
    """Median wall-clock seconds per generated image, warmup discarded."""
    if n_images < 1:
        raise ContractError("n_images must be at least 1")
    if warmup >= n_images:
        raise ContractError("warmup must leave at least one timed image")
    times = []
    for i in range(n_images):
        start = time.perf_counter()
        generator()
        times.append(time.perf_counter() - start)
    timed = times[warmup:]
    return TimingResult(median_s=float(np.median(timed)), per_image_s=timed,
                        fingerprint=environment_fingerprint())


@dataclasses.dataclass
class MetricReport:
    model: str
    n_real: int
    n_fake: int
    fid: float
    kid: float
    median_time_s: float
    efficiency: float
    gamma: float
    seed: int
    degenerate_time: bool = False
    embedder_hash: str = ""

    def csv_row(self) -> str:
        return (f"{self.model},{self.n_real},{self.n_fake},{self.fid:.8g},"
                f"{self.kid:.8g},{self.median_time_s:.8g},{self.efficiency:.8g},"
                f"{self.gamma:.8g},{self.seed}")

    def text_report(self) -> str:
        lines = [
            f"model:          {self.model}",
            f"real / fake:    {self.n_real} / {self.n_fake}",
            f"fid:            {self.fid:.6f}",
            f"kid:            {self.kid:.8f}",
            f"median_time_s:  {self.median_time_s:.6f}"
            + ("  (degenerate: efficiency forced to 0)" if self.degenerate_time else ""),
            f"efficiency:     {self.efficiency:.6f} (gamma={self.gamma})",
            f"embedder:       {self.embedder_hash or 'n/a'}",
        ]
        return "\n".join(lines)


def evaluate(real: np.ndarray, fake: np.ndarray, embedder: FeatureEmbedder,
             median_time_s: float = 0.0, model: str = "local", seed: int = 0) -> MetricReport:
    """Embed both sets, fit Gaussians, compute FID / KID / efficiency."""
    if real.shape[0] == 0 or fake.shape[0] == 0:
        raise ContractError("evaluate needs non-empty real and fake sets")
    if real.shape[1:] != fake.shape[1:]:
        raise ContractError("real and fake image sizes differ")
    resolution = embedder.model.config.resolution
    if real.shape[1:] != (resolution, resolution):
        raise ContractError("image size does not match the embedder's resolution")
    feats_real = embedder.embed(real)
    feats_fake = embedder.embed(fake)
    fid = frechet_distance(GaussianStats.from_features(feats_real),
                           GaussianStats.from_features(feats_fake))
    kid_value = kid(feats_real, feats_fake)
    eff = efficiency(max(fid, 0.0), median_time_s)
    return MetricReport(model=model, n_real=real.shape[0], n_fake=fake.shape[0],
                        fid=fid, kid=kid_value, median_time_s=median_time_s,
                        efficiency=eff, gamma=EFFICIENCY_GAMMA, seed=seed,
                        degenerate_time=(median_time_s == 0.0),
                        embedder_hash=embedder.checkpoint_hash)


# -- published efficiency table -------------------------------------------------


@dataclasses.dataclass(frozen=True)
class EfficiencyRow:
    model: str
    time_s: float
    fid: float
    efficiency: float


def load_table1() -> list[EfficiencyRow]:
    """The bundled 25-row (model, time, fid, efficiency) transcription."""
    source = importlib.resources.files("mvgen").joinpath("data/table1_efficiency.csv")
    rows = []
    with source.open("r", encoding="ascii") as fh:
        for record in csv.DictReader(fh):
            rows.append(EfficiencyRow(model=record["model"], time_s=float(record["time_s"]),
                                      fid=float(record["fid"]),
                                      efficiency=float(record["efficiency"])))
    if len(rows) != 25:
        raise ValueError(f"expected 25 efficiency rows, found {len(rows)}")
    return rows


def verify_table1() -> tuple[list[tuple[EfficiencyRow, float]], float]:
    """Every row's efficiency recomputed by `efficiency`, the score `evaluate`
    reports; returns (rows with recomputed, max |dev|)."""
    results = [(row, efficiency(row.fid, row.time_s)) for row in load_table1()]
    return results, max(abs(value - row.efficiency) for row, value in results)
