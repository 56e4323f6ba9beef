"""Scale-by-scale autoregressive sampling with guidance and truncation.

Each scale costs two prior evaluations (condition and null condition) when
guidance is enabled, one otherwise, so the forward-pass count per image is
2K or K regardless of how many tokens the schedule holds; `generate` reports
it from the schedule and its config. `generate` keeps one KV cache per
condition, so each pass runs only the new scale's n_k^2 rows against the
cached keys and values of the coarser scales, and the two caches share one
`CodeInputs`: the label-free inputs of scales 2..K are built once per walk,
only scale 1's condition rows once per condition. A scale's rows are
filtered and drawn in one call each. Top-k and top-p sort each row once and
keep the masses above its count-th largest, then those equal to it by lowest
index: the kept set of a stable descending argsort (NaN last), which
tests/oracles.py keeps as the reference. Row r of scale k draws with the
first uniform of a counter-based generator keyed by (seed, "draw", k, r);
`walk_uniforms` gives every scale's uniforms in one vectorised Philox pass
(`rng.first_uniforms`), bit for bit those of the per-row generators, before
the walk's first pass. Draws are order-independent, and the paired null
evaluation consumes no randomness, so guidance strength 1 is bit-identical
to running without guidance. `generate` runs with per-op finiteness checks
off and checks each scale's logits and the decoded image; `sample_scale`
also checks the filtered distribution, which a temperature so small that
logits / T overflow leaves non-finite; no op is at fault there, so that
NonOpNumericError raises without a rerun.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from .numerics import ContractError, NonOpNumericError, NumericError, checked_at_boundaries
from .prior import CodeInputs, PriorModel, ScaleCache
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


def _keep_largest(probs: np.ndarray, count: int | np.ndarray, least: np.ndarray) -> np.ndarray:
    """Zero all but each row's `count` largest masses (ties -> lower index, NaN
    after every number), renormalize: the first `count` of a stable
    descending sort. `least` is each row's count-th largest mass, NaN where
    the count reaches past the row's numbers.

    The kept masses are those above `least`, then as many of those equal to
    it as the count leaves, by lowest index.
    """
    keep = probs >= least
    if not (keep.sum(axis=-1, keepdims=True) == count).all():
        # ties at the count-th mass, or a count past the row's numbers
        nan_least = np.isnan(least)
        above = (probs > least) | (nan_least & ~np.isnan(probs))
        tied = (probs == least) | (nan_least & np.isnan(probs))
        room = count - above.sum(axis=-1, keepdims=True)
        keep = above | (tied & (np.cumsum(tied, axis=-1) <= room))
    out = np.where(keep, probs, 0.0)
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
    return _keep_largest(probs, k, -np.sort(-probs, axis=-1)[..., k - 1:k])


def top_p_filter(probs: np.ndarray, p: float) -> np.ndarray:
    """Keep the smallest descending-order prefix with cumulative mass >= p.

    Works along the last axis, so a (n, V) array is filtered row by row.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if not 0.0 < p <= 1.0:
        raise ContractError("top_p must lie in (0, 1]")
    if p == 1.0:
        return probs.copy()
    ranked = np.sort(-probs, axis=-1)
    cum = np.cumsum(-ranked, axis=-1)
    # cum never falls, so the count of entries below p is where p would
    # insert; past the last entry, every entry is kept
    count = np.minimum((cum < p).sum(axis=-1, keepdims=True) + 1, probs.shape[-1])
    return _keep_largest(probs, count, -np.take_along_axis(ranked, count - 1, axis=-1))


def walk_uniforms(seed: int, sizes: Sequence[int]) -> list[np.ndarray]:
    """Each scale's draw uniforms, in one Philox pass: row r of scale k (n_k^2
    rows) draws with the first `rng_for(seed, "draw", k, r).random()`."""
    return first_uniforms([((seed, "draw", k), range(n * n)) for k, n in enumerate(sizes)])


def categorical_draw(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws for a scale's (n, V) rows: row r draws with u[r], and
    the n indices come back as an array."""
    n, v = probs.shape
    cum = np.cumsum(probs, axis=-1)
    idx = (cum <= u[:, None]).sum(axis=-1)  # searchsorted(side="right"): cum never falls
    last_nonzero = v - 1 - np.argmax(probs[:, ::-1] > 0, axis=-1)
    missed = (idx >= v) | (probs[np.arange(n), np.minimum(idx, v - 1)] == 0.0)
    return np.where(missed, last_nonzero, idx)


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
                 uniforms: np.ndarray,
                 caches: tuple[ScaleCache, ScaleCache] | None = None) -> np.ndarray:
    """Draw the next scale's grid with its `walk_uniforms` entry.

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
    if cfg.cfg_scale is None:
        guided = cond_logits.astype(np.float64)
    else:
        uncond_logits = _finite_logits(model.next_scale_logits(
            prefix, model.config.null_index, cache=null_cache), "null", k)
        guided = cfg_combine(cond_logits, uncond_logits, cfg.cfg_scale)
    if cfg.temperature == 0.0:
        flat = np.argmax(guided, axis=-1)  # argmax limit; ties -> lowest index
    else:
        probs = _filtered_distribution(guided, cfg)
        if not np.isfinite(probs).all():
            raise NonOpNumericError(f"non-finite sampling distribution at scale {k}")
        flat = categorical_draw(probs, uniforms)
    return flat.reshape(n, n)


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
    uniforms = walk_uniforms(cfg.seed, prior.schedule.sizes)

    def walk() -> GenerationResult:
        prefix: list[np.ndarray] = []
        inputs = CodeInputs()
        caches = (ScaleCache(c, inputs=inputs), ScaleCache(prior.config.null_index, inputs=inputs))
        for u in uniforms:
            prefix.append(sample_scale(prior, prefix, c, cfg, u, caches))
        values = decode_batch(tokenizer, [g[None] for g in prefix])[0]
        if not np.isfinite(values).all():
            raise NumericError("non-finite decoded image")
        return GenerationResult(values=values, pyramid=TokenPyramid(tuple(prefix)),
                                forward_passes=len(prefix) * (1 if cfg.cfg_scale is None else 2))

    return checked_at_boundaries(walk)
