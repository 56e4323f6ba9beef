"""Reference code, apart from the package it checks, that the tests judge mvgen
against: the scalar quantizer, layernorm in numpy's own reductions, a pyramid's
joint log-likelihood whole and scale by scale, and the geometry detectors (not
collected by pytest)."""

import numpy as np

from mvgen import datagen as dg
from mvgen.numerics import NumericError, log_softmax, no_grad
from mvgen.prior import PriorModel, ScaleCache
from mvgen.tokenizer import Codebook, TokenPyramid


def default_labels() -> list[tuple[dg.DatasetLabel, str]]:
    return [(dg.DatasetLabel(i, family), family) for i, family in enumerate(dg.FAMILIES)]


def quantize(vec: np.ndarray, codebook: Codebook) -> int:
    """Nearest codebook row by squared Euclidean distance; ties -> lowest index."""
    vec = np.asarray(vec, dtype=np.float64)
    if not np.isfinite(vec).all():
        raise NumericError("quantize received non-finite input")
    deltas = codebook.embeddings.astype(np.float64) - vec[None, :]
    return int(np.argmin((deltas * deltas).sum(axis=1)))


def layernorm(x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Layernorm over the last axis written with numpy's `mean` and `var`:
    the forward values of x, and the input gradient for the output gradient g."""
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    inv = 1.0 / np.sqrt(centered.var(axis=-1, keepdims=True) + 1e-5)
    out = centered * inv
    grad = inv * (g - g.mean(axis=-1, keepdims=True)
                  - out * (g * out).mean(axis=-1, keepdims=True))
    return out, grad


def _realized_logprob(logits: np.ndarray, flat: np.ndarray) -> float:
    """Sum over rows of the log-softmax value at each row's realized index."""
    logp = log_softmax(logits).values
    return float(logp[np.arange(flat.size), flat].sum())


def joint_logprob(pyramid: TokenPyramid, c: int, model: PriorModel) -> float:
    """log p(pyramid | c): sum of log-softmax values at the realized indices."""
    with no_grad():
        logits = model.forward_batch([g[None] for g in pyramid.grids], np.array([c]))
    return _realized_logprob(logits.values[0], pyramid.flat())


def joint_logprob_incremental(pyramid: TokenPyramid, c: int, model: PriorModel) -> float:
    """Same quantity scale by scale through one cache (factorization identity)."""
    cache = ScaleCache(c)
    return sum(_realized_logprob(model.next_scale_logits(list(pyramid.grids[:k]), c, cache),
                                 pyramid.grids[k].reshape(-1))
               for k in range(model.schedule.num_scales))


def _robust_normalize(img: np.ndarray) -> np.ndarray:
    """Rescale so the 99.5th percentile maps to 1; shields detectors from
    per-sample contrast squash left behind by surviving intensity outliers."""
    q = float(np.quantile(img, 0.995))
    if q < 0.05:
        return np.asarray(img, dtype=np.float64)
    return np.clip(np.asarray(img, dtype=np.float64) / q, 0.0, 1.0)


def _fg_moments(fg: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    ys, xs = np.nonzero(fg)
    if ys.size < 8:
        return None
    pts = np.stack([ys, xs], axis=1).astype(np.float64)
    center = pts.mean(axis=0)
    centered = pts - center
    cov = centered.T @ centered / pts.shape[0]
    return center, cov


def _aspect_ratio(cov: np.ndarray) -> float:
    eigvals = np.linalg.eigvalsh(cov)
    lo = max(float(eigvals[0]), 1e-9)
    return float(np.sqrt(eigvals[1] / lo))


def detect_parallel_bands(img: np.ndarray) -> bool:
    """Row-variance test on the central crop: the image is nearly a function of
    the row index alone (strong row-mean variance, tiny residual within rows)."""
    r = img.shape[0]
    img = _robust_normalize(img)
    c = img[r // 4: 3 * r // 4, r // 4: 3 * r // 4]
    row_profile = c.mean(axis=1)
    v_row = float(row_profile.var())
    v_col = float(c.mean(axis=0).var())
    within_row = float(((c - row_profile[:, None]) ** 2).mean())
    if not (v_row > 0.004 and v_col < 0.25 * v_row and within_row < 0.25 * v_row):
        return False
    # stripes either alternate (several reversals) or show a flat two-level
    # profile; a single smooth arch (an eccentric blob) does neither
    steps = np.diff(row_profile)
    signs = np.sign(steps[np.abs(steps) > 0.03])
    reversals = int((signs[1:] != signs[:-1]).sum()) if signs.size > 1 else 0
    lo, hi = np.quantile(row_profile, (0.25, 0.75))
    near_level = (np.abs(row_profile - lo) < 0.08) | (np.abs(row_profile - hi) < 0.08)
    bimodal = hi - lo > 0.15 and float(near_level.mean()) >= 0.75
    return reversals >= 2 or bimodal


def detect_nested_ellipses(img: np.ndarray) -> bool:
    """Eccentric footprint with intensity decreasing outward along elliptical shells."""
    img = _robust_normalize(img)
    fg = img > 0.15
    if fg.sum() < 0.02 * img.size:
        return False
    moments = _fg_moments(fg)
    if moments is None:
        return False
    center, cov = moments
    if _aspect_ratio(cov) < 1.15:
        return False
    ys, xs = np.nonzero(fg)
    pts = np.stack([ys, xs], axis=1).astype(np.float64) - center
    inv = np.linalg.inv(cov + 1e-9 * np.eye(2))
    radii = np.sqrt(np.einsum("ni,ij,nj->n", pts, inv, pts))
    order = np.argsort(radii)
    vals = img[ys[order], xs[order]]
    shells = np.array_split(vals, 4)
    means = [float(s.mean()) for s in shells]
    monotone = all(means[i] >= means[i + 1] - 0.05 for i in range(3))
    return monotone and (means[0] - means[3]) > 0.12


def detect_ring_with_core(img: np.ndarray) -> bool:
    """Isotropic footprint whose radial profile is bright-dip-bright."""
    img = _robust_normalize(img)
    fg = img > 0.2
    if fg.sum() < 0.01 * img.size:
        return False
    _, counts = dg.label_components(fg)
    min_size = max(3, int(0.001 * img.size))
    if int((counts >= min_size).sum()) > 3:
        return False
    moments = _fg_moments(fg)
    if moments is None:
        return False
    center, cov = moments
    if _aspect_ratio(cov) > 1.30:
        return False
    yy, xx = np.mgrid[0:img.shape[0], 0:img.shape[1]].astype(np.float64)
    radius = np.sqrt((yy - center[0]) ** 2 + (xx - center[1]) ** 2)
    ys, xs = np.nonzero(fg)
    r_max = float(np.quantile(np.sqrt((ys - center[0]) ** 2 + (xs - center[1]) ** 2), 0.98))
    if r_max < 4:
        return False
    bins = np.clip((radius / r_max * 8).astype(np.int64), 0, 8)
    profile = np.array([float(img[bins == i].mean()) if np.any(bins == i) else 0.0
                        for i in range(8)])
    core = profile[0]
    if core < 0.5:
        return False
    dip_idx = int(np.argmin(profile[1:7])) + 1
    dip = profile[dip_idx]
    rebound = float(profile[dip_idx:].max())
    # the gap must be genuinely dark, not just darker than the core
    return dip <= 0.25 and dip <= core - 0.3 and rebound >= dip + 0.2


def detect_lattice_of_blobs(img: np.ndarray) -> bool:
    """Many small bright components arranged on the plate."""
    fg = _robust_normalize(img) > 0.45
    _, counts = dg.label_components(fg)
    min_size = max(3, int(0.0008 * img.size))
    return int((counts >= min_size).sum()) >= 6


DETECTORS = {
    dg.NESTED_ELLIPSES: detect_nested_ellipses,
    dg.PARALLEL_BANDS: detect_parallel_bands,
    dg.RING_WITH_CORE: detect_ring_with_core,
    dg.LATTICE_OF_BLOBS: detect_lattice_of_blobs,
}
