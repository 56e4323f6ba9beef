"""Reference code, apart from the package it checks, that the tests judge mvgen
against: the scalar quantizer, layernorm in numpy's own reductions, the fused
tensor ops composed from the primitive ops, the prior's forward built from
those compositions, AdamW's out-of-place step, the argsort top-k/top-p
filters, a pyramid's joint log-likelihood whole and scale by scale, and the
geometry detectors (not collected by pytest)."""

import numpy as np

from mvgen import datagen as dg
from mvgen.numerics import (
    NumericError,
    Tensor,
    as_tensor,
    gelu,
    l2_normalize,
    layernorm as layernorm_op,
    log_softmax,
    no_grad,
    softmax,
    take,
)
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


# -- the fused tensor ops, composed from the primitive ops they replace ---------


def modulate(x, g, b) -> Tensor:
    return layernorm_op(x) * g + b


def gated_add(x, a, y) -> Tensor:
    return x + a * y


def split_heads(x: Tensor, heads: int) -> Tensor:
    b, rows, width = x.shape
    return x.reshape(b, rows, heads, width // heads).transpose(0, 2, 1, 3)


def merge_heads(x: Tensor) -> Tensor:
    b, heads, rows, hd = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, rows, heads * hd)


def attend(q: Tensor, k: Tensor, v: Tensor, temp: Tensor, mask=None) -> Tensor:
    scores = (q @ k.transpose(0, 1, 3, 2)) * temp.reshape(1, -1, 1, 1)
    if mask is not None:
        scores = scores + as_tensor(mask)
    return softmax(scores) @ v


class ComposedPrior(PriorModel):
    """The prior with `_attention` and `_run` written in the composed ops,
    walking the cache as `PriorModel` does."""

    def _attention(self, i: int, h_in: Tensor, cache: ScaleCache) -> Tensor:
        heads = self.config.heads
        q = l2_normalize(split_heads(self._linear(f"block{i}.wq", h_in), heads))
        k = l2_normalize(split_heads(self._linear(f"block{i}.wk", h_in), heads))
        v = split_heads(self._linear(f"block{i}.wv", h_in), heads)
        done = cache.scales_done
        start = self._offsets[done]
        k, v = cache.extend(i, k, v, start, self.schedule.token_count)
        end = start + q.shape[2]
        mask = None if end == self._offsets[done + 1] else self._mask_bias[start:end, :end]
        att = attend(q, k, v, self.params[f"block{i}.temp"], mask)
        return self._linear(f"block{i}.wo", merge_heads(att))

    def _run(self, seq: Tensor, labels: np.ndarray, cache: ScaleCache) -> Tensor:
        cfg = self.config
        if not cache.modulations:
            cond = take(self.params["cond_emb"], labels).reshape(len(labels), 1, cfg.width)
            for i in range(cfg.depth):
                g1, b1, a1, g2, b2, a2 = self._modulation(cond, f"block{i}.adaln", 6)
                cache.modulations.append((g1 + 1.0, b1, a1, g2 + 1.0, b2, a2))
            gf, bf = self._modulation(cond, "final.adaln", 2)
            cache.modulations.append((gf + 1.0, bf))
        x = seq
        for i in range(cfg.depth):
            g1, b1, a1, g2, b2, a2 = cache.modulations[i]
            x = gated_add(x, a1, self._attention(i, modulate(x, g1, b1), cache))
            ffn = gelu(self._linear(f"block{i}.ffn1", modulate(x, g2, b2)))
            x = gated_add(x, a2, self._linear(f"block{i}.ffn2", ffn))
        gf, bf = cache.modulations[-1]
        return self._linear("head", modulate(x, gf, bf))


def adamw_step(values, m, v, g, step: int, lr: float, cfg):
    """One AdamW step on new arrays: (values, m, v) after it."""
    m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
    v = cfg.beta2 * v + (1.0 - cfg.beta2) * (g * g)
    m_hat = m / (1.0 - cfg.beta1 ** step)
    v_hat = v / (1.0 - cfg.beta2 ** step)
    values = values - lr * (m_hat / (np.sqrt(v_hat) + cfg.eps) + cfg.weight_decay * values)
    return values, m, v


def keep_largest(probs: np.ndarray, count) -> np.ndarray:
    """Zero all but each row's `count` largest masses by the rank of a stable
    descending argsort (ties -> lower index, NaN last), renormalize."""
    rank = np.argsort(np.argsort(-probs, axis=-1, kind="stable"), axis=-1)
    out = np.where(rank < count, probs, 0.0)
    return out / out.sum(axis=-1, keepdims=True)


def top_k_filter(probs: np.ndarray, k: int) -> np.ndarray:
    probs = np.asarray(probs, dtype=np.float64)
    return probs.copy() if k >= probs.shape[-1] else keep_largest(probs, k)


def top_p_filter(probs: np.ndarray, p: float) -> np.ndarray:
    probs = np.asarray(probs, dtype=np.float64)
    if p == 1.0:
        return probs.copy()
    cum = np.cumsum(-np.sort(-probs, axis=-1), axis=-1)
    return keep_largest(probs, (cum < p).sum(axis=-1, keepdims=True) + 1)


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
