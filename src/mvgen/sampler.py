"""Scale-by-scale autoregressive sampling with guidance and truncation.

Each scale costs two prior evaluations (condition and null condition) when
guidance is enabled, one otherwise, so the forward-pass count per image is
2K or K regardless of how many tokens the schedule holds. `generate` keeps one
KV cache per condition, so each pass runs only the new scale's n_k^2 rows
against the cached keys and values of the coarser scales. A scale's rows are
filtered and drawn in one call each. Every draw uses the first uniform of a
counter-based generator keyed by (seed, "draw", scale, position); one
vectorised Philox pass (`rng.first_uniforms`) gives a scale's uniforms, bit
for bit those of the per-position generators. Draws are order-independent,
and the paired null evaluation consumes no randomness, so guidance strength 1
is bit-identical to running without guidance. `generate` runs with per-op
finiteness checks off and checks each scale's logits and the decoded image;
`sample_scale` also checks the filtered distribution, which a temperature so
small that logits / T overflow leaves non-finite; no op is at fault there, so
that NonOpNumericError raises without a rerun.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .numerics import ContractError, NonOpNumericError, NumericError, checked_at_boundaries
from .prior import PriorModel, ScaleCache
from .rng import first_uniforms
from .tokenizer import TokenizerModel, TokenPyramid, decode_batch


@dataclasses.dataclass(frozen=True)
class SamplingConfig:
    cfg_scale: float | None = None  # None disables guidance (single pass per scale)
    top_k: int | None = None
    top_p: float | None = None
    temperature: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.cfg_scale is not None and not 0 <= self.cfg_scale < np.inf:
            raise ContractError("cfg_scale must be finite and non-negative")
        if self.top_k is not None and self.top_k < 1:
            raise ContractError("top_k must be at least 1")
        if self.top_p is not None and not 0.0 < self.top_p <= 1.0:
            raise ContractError("top_p must lie in (0, 1]")
        if not self.temperature >= 0:  # NaN too
            raise ContractError("temperature must be non-negative")


def cfg_combine(cond: np.ndarray, uncond: np.ndarray, s: float) -> np.ndarray:
    """Guided logits uncond + s * (cond - uncond); s == 1 returns cond exactly."""
    cond = np.asarray(cond, dtype=np.float64)
    uncond = np.asarray(uncond, dtype=np.float64)
    if cond.shape != uncond.shape:
        raise ContractError("conditional/unconditional logits must match in shape")
    if s == 1.0:
        return cond.copy()
    return uncond + s * (cond - uncond)


def _keep_largest(probs: np.ndarray, count: int | np.ndarray) -> np.ndarray:
    """Zero all but each row's `count` largest masses (ties -> lower index), renormalize."""
    rank = np.argsort(np.argsort(-probs, axis=-1, kind="stable"), axis=-1)
    out = np.where(rank < count, probs, 0.0)
    return out / out.sum(axis=-1, keepdims=True)


def top_k_filter(probs: np.ndarray, k: int) -> np.ndarray:
    """Zero all but the k largest masses (ties -> lower index), renormalize.

    Works along the last axis, so a (n, V) array is filtered row by row.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if k < 1:
        raise ContractError("top_k must be at least 1")
    if k >= probs.shape[-1]:
        return probs.copy()
    return _keep_largest(probs, k)


def top_p_filter(probs: np.ndarray, p: float) -> np.ndarray:
    """Keep the smallest descending-order prefix with cumulative mass >= p.

    Works along the last axis, so a (n, V) array is filtered row by row.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if not 0.0 < p <= 1.0:
        raise ContractError("top_p must lie in (0, 1]")
    if p == 1.0:
        return probs.copy()
    cum = np.cumsum(-np.sort(-probs, axis=-1), axis=-1)
    # cum never falls, so the count of entries below p is where p would insert
    return _keep_largest(probs, (cum < p).sum(axis=-1, keepdims=True) + 1)


def categorical_draw(probs: np.ndarray, seed: int, scale_index: int, position: int):
    """Inverse-CDF draw using the uniform keyed by (seed, scale, position).

    Works along the last axis: row r of a (n, V) array draws with the uniform
    keyed by position + r, and the n indices come back as an array. The n
    uniforms come from one `first_uniforms` call, bit for bit the first
    `rng_for(seed, "draw", scale_index, position + r).random()` of each key.
    """
    probs = np.asarray(probs)
    rows = probs.reshape(-1, probs.shape[-1])
    n, v = rows.shape
    u = first_uniforms((seed, "draw", scale_index), range(position, position + n))
    cum = np.cumsum(rows, axis=-1)
    idx = (cum <= u[:, None]).sum(axis=-1)  # searchsorted(side="right"): cum never falls
    last_nonzero = v - 1 - np.argmax(rows[:, ::-1] > 0, axis=-1)
    missed = (idx >= v) | (rows[np.arange(n), np.minimum(idx, v - 1)] == 0.0)
    idx = np.where(missed, last_nonzero, idx)
    return int(idx[0]) if probs.ndim == 1 else idx


def _filtered_distribution(logits: np.ndarray, cfg: SamplingConfig) -> np.ndarray:
    """Row-wise softmax at the temperature, then top-k and top-p.

    Overflow and NaN do not warn: `sample_scale` checks the result.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = logits / cfg.temperature
        shifted = scaled - scaled.max(axis=-1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=-1, keepdims=True)
        if cfg.top_k is not None:
            probs = top_k_filter(probs, cfg.top_k)
        if cfg.top_p is not None:
            probs = top_p_filter(probs, cfg.top_p)
    return probs


def _finite_logits(logits: np.ndarray, which: str, scale_index: int) -> np.ndarray:
    if not np.isfinite(logits).all():
        raise NumericError(f"non-finite {which} logits at scale {scale_index}")
    return logits


def sample_scale(model: PriorModel, prefix: list[np.ndarray], c: int, cfg: SamplingConfig,
                 caches: tuple[ScaleCache, ScaleCache] | None = None) -> tuple[np.ndarray, int]:
    """Draw the next scale's grid; returns (grid, forward passes used).

    `caches` are the (condition, null condition) caches of a walk holding
    the prefix's scales; without them each pass runs the whole prefix in a
    fresh cache.
    """
    k = len(prefix)
    n = model.schedule.sizes[k]
    if cfg.top_k is not None and cfg.top_k > model.config.vocab_size:
        raise ContractError("top_k exceeds the vocabulary size")
    cache, null_cache = caches or (None, None)
    cond_logits = _finite_logits(model.next_scale_logits(prefix, c, cache=cache),
                                 "conditional", k)
    passes = 1
    if cfg.cfg_scale is None:
        guided = cond_logits.astype(np.float64)
    else:
        uncond_logits = _finite_logits(model.next_scale_logits(
            prefix, model.config.null_index, cache=null_cache), "null", k)
        passes = 2
        guided = cfg_combine(cond_logits, uncond_logits, cfg.cfg_scale)
    if cfg.temperature == 0.0:
        flat = np.argmax(guided, axis=-1)  # argmax limit; ties -> lowest index
    else:
        probs = _filtered_distribution(guided, cfg)
        if not np.isfinite(probs).all():
            raise NonOpNumericError(f"non-finite sampling distribution at scale {k}")
        flat = categorical_draw(probs, cfg.seed, k, 0)
    return flat.reshape(n, n), passes


@dataclasses.dataclass
class GenerationResult:
    values: np.ndarray
    pyramid: TokenPyramid
    forward_passes: int


def generate(prior: PriorModel, tokenizer: TokenizerModel, c: int,
             cfg: SamplingConfig) -> GenerationResult:
    """Sample every scale coarse to fine, then decode through the tokenizer.

    A non-finite logit or pixel reruns the call with per-op checks on, so the
    NumericError names the op.
    """
    if prior.schedule.sizes != tokenizer.schedule.sizes:
        raise ContractError("prior and tokenizer schedules differ")

    def walk() -> GenerationResult:
        prefix: list[np.ndarray] = []
        passes = 0
        caches = (ScaleCache(c), ScaleCache(prior.config.null_index))
        for _ in prior.schedule.sizes:
            grid, used = sample_scale(prior, prefix, c, cfg, caches)
            prefix.append(grid)
            passes += used
        values = decode_batch(tokenizer, [g[None] for g in prefix])[0]
        if not np.isfinite(values).all():
            raise NumericError("non-finite decoded image")
        return GenerationResult(values=values, pyramid=TokenPyramid(tuple(prefix)),
                                forward_passes=passes)

    return checked_at_boundaries(walk)
