"""Conditioned next-scale autoregressive transformer over token pyramids.

The flat sequence concatenates every scale's grid cells coarse to fine.
Attention is block-causal at scale granularity (a position sees every position
of its own and all coarser scales), so logits at scale k depend only on grids
strictly coarser than k plus the dataset-label condition, and the keys and
values of a finished scale never change: every forward walks a `ScaleCache`,
and one that holds the coarser scales runs only the new scale's rows against
them (a fresh one runs the whole prefix). A walk keeps what its later passes
would only recompute: the condition's AdaLN modulations, each block's keys
and values, which `ScaleCache.extend` stores and hands back, and in a
`CodeInputs` the label-free inputs of scales 2..K, which the condition and
null caches of a guided walk share. A pass of exactly one scale adds no mask,
as its block of the mask is all zeros. A block builds about 18 graph nodes
per pass: the fused `modulate`, `gated_add`, `split_heads`, `attend` and
`merge_heads` ops stand, bit for bit, for the compositions tests/oracles.py's
`ComposedPrior` spells out. Inputs for scale 1 are the condition embedding;
inputs for scale k>1 are the sum of the code embeddings of all coarser
scales, each upsampled to the finest grid, then resized to the scale-k grid
and linearly projected (a residual code alone says little of the image so
far). The sum is of raw codebook rows: the tokenizer's per-scale refinements
(Phi) are not applied, so it is not the tokenizer's partial reconstruction.
The condition also drives every block through adaptive layernorm modulation,
and queries/keys are L2-normalized with a learned per-head temperature. The
output head starts at zero, so an untrained model predicts the uniform
distribution exactly.
"""

from __future__ import annotations

import dataclasses
import math
import os
from typing import Sequence

import numpy as np

from . import checkpoint as ckpt
from .numerics import (
    ContractError,
    OptimizerConfig,
    Parameter,
    Tensor,
    as_tensor,
    attend,
    concat,
    gated_add,
    gelu,
    l2_normalize,
    linear,
    log_softmax,
    merge_heads,
    modulate,
    no_grad,
    resize_bilinear,
    softmax,  # noqa: F401  (no caller here; perfbench's tests wrap prior.softmax)
    split_heads,
    take,
    take_along_last,
    train_loop,
)
from .rng import rng_for
from .tokenizer import EVAL_CHUNK, ModelConfig, ScaleSchedule, _check_grid, _lookup

MASK_BIAS = -1e9  # exp() underflows to exactly 0.0, so masking is bit-exact


@dataclasses.dataclass(frozen=True)
class PriorConfig(ModelConfig):
    depth: int = 4
    width: int = 128
    heads: int = 4
    n_labels: int = 4
    code_dim: int = 8
    cond_dropout_p: float = 0.1

    def __post_init__(self):
        super().__post_init__()
        if self.depth < 0:
            raise ContractError("depth must be non-negative")
        if self.width < 1 or self.heads < 1:
            raise ContractError("width and heads must be positive")
        if self.width % self.heads != 0:
            raise ContractError("width must be divisible by heads")
        if not 0.0 <= self.cond_dropout_p < 1.0:
            raise ContractError("cond_dropout_p must lie in [0, 1)")

    @property
    def null_index(self) -> int:
        return self.n_labels


@dataclasses.dataclass
class CodeInputs:
    """The inputs of a walk's scales 2..K, which depend on its grids and not
    on the condition, so a guided walk's two caches share one: `rows[j - 1]`
    is scale j+1's (B, n^2, W) input (its projected code sum plus position
    and level embeddings), built from `grids[:j]` on the first pass that
    needs it; `acc` is the latent accumulator of upsampled code embeddings
    after those grids."""
    grids: list[np.ndarray] = dataclasses.field(default_factory=list)
    rows: list[Tensor] = dataclasses.field(default_factory=list)
    acc: np.ndarray | None = None


@dataclasses.dataclass
class ScaleCache:
    """A coarse-to-fine walk through the prior, which every forward runs.

    Under the block-causal mask the keys and values of finished scales are
    final, so a forward runs only the rows after the scales the cache holds
    against them; a fresh cache holds none, so the whole prefix runs. What
    depends only on the condition and the weights is computed on the walk's
    first pass and kept: `modulations`, each block's six AdaLN chunks (the
    scales with their + 1 applied) and the final layer's two. `keys` and
    `values` are each block's (B, heads, L, hd) arrays over the whole
    schedule: `extend` writes a pass's own rows and hands the pass the rows
    up to its end. A pass that covers the whole schedule keeps none.
    `inputs` holds the label-free inputs of scales 2..K, which the caches of
    the two conditions of one walk may share; scale 1's condition rows are
    the cache's own. So a cache is valid for one set of weights; `condition`
    is the one condition a `next_scale_logits` walk is built for.
    """
    condition: int | None = None
    scales_done: int = 0
    inputs: CodeInputs = dataclasses.field(default_factory=CodeInputs)
    modulations: list[tuple[Tensor, ...]] = dataclasses.field(default_factory=list)
    keys: dict[int, np.ndarray] = dataclasses.field(default_factory=dict)
    values: dict[int, np.ndarray] = dataclasses.field(default_factory=dict)

    def extend(self, block: int, k: Tensor, v: Tensor, start: int,
               length: int) -> tuple[Tensor, Tensor]:
        """Write a pass's (B, heads, rows, hd) keys and values, rows `start`
        onward of a `length`-row schedule, into block's arrays, and return the
        keys and values the pass attends to: every row up to its end."""
        end = start + k.shape[2]
        if start == 0 and end == length:
            return k, v
        if start == 0:
            self.keys[block] = np.empty(k.shape[:2] + (length, k.shape[3]), dtype=k.values.dtype)
            self.values[block] = np.empty_like(self.keys[block])
        self.keys[block][:, :, start:end] = k.values
        self.values[block][:, :, start:end] = v.values
        if start == 0:
            return k, v
        # only no_grad passes follow the first, so the rows before this
        # pass's need no graph
        return as_tensor(self.keys[block][:, :, :end]), as_tensor(self.values[block][:, :, :end])


def build_mask(schedule: ScaleSchedule) -> np.ndarray:
    """(L, L) bool: [i, j] iff scale(j) <= scale(i); dense within a scale."""
    scale_of = schedule.scale_of_position()
    return scale_of[None, :] <= scale_of[:, None]


def _parameters(config: PriorConfig, draw) -> dict[str, Parameter]:
    """Every parameter in saved order. draw(name, shape, std) gives the
    values of each drawn one; biases and AdaLN start at zero, attention
    temperatures at one."""
    dtype = config.np_dtype()
    w, v = config.width, config.vocab_size
    length = config.scale_schedule.token_count
    params: dict[str, Parameter] = {}

    def normal(name, shape, std=0.02):
        params[name] = Parameter(draw(name, shape, std))

    def zeros(name, shape):
        params[name] = Parameter(np.zeros(shape, dtype=dtype))

    normal("cond_emb", (config.n_labels + 1, w))
    normal("input_proj.w", (config.code_dim, w))
    zeros("input_proj.b", (w,))
    normal("pos_emb", (length, w))
    normal("level_emb", (config.scale_schedule.num_scales, w))
    for i in range(config.depth):
        for piece in ("wq", "wk", "wv", "wo"):
            normal(f"block{i}.{piece}.w", (w, w))
            zeros(f"block{i}.{piece}.b", (w,))
        params[f"block{i}.temp"] = Parameter(np.ones(config.heads, dtype=dtype))
        normal(f"block{i}.ffn1.w", (w, 4 * w))
        zeros(f"block{i}.ffn1.b", (4 * w,))
        normal(f"block{i}.ffn2.w", (4 * w, w), std=0.02 / math.sqrt(2 * config.depth))
        zeros(f"block{i}.ffn2.b", (w,))
        zeros(f"block{i}.adaln.w", (w, 6 * w))
        zeros(f"block{i}.adaln.b", (6 * w,))
    zeros("final.adaln.w", (w, 2 * w))
    zeros("final.adaln.b", (2 * w,))
    zeros("head.w", (w, v))
    zeros("head.b", (v,))
    return params


class PriorModel:
    def __init__(self, config: PriorConfig, params: dict[str, Parameter],
                 code_table: np.ndarray):
        if code_table.shape != (config.vocab_size, config.code_dim):
            raise ContractError("code table must be (vocab_size, code_dim)")
        self.config = config
        self.schedule = config.scale_schedule
        self.params = params
        self.code_table = np.asarray(code_table, dtype=config.np_dtype())
        self._mask_bias = np.where(build_mask(self.schedule), 0.0, MASK_BIAS).astype(config.np_dtype())
        self._level_ids = self.schedule.scale_of_position()
        self._offsets = [0] + [s.stop for s in self.schedule.position_slices()]

    @classmethod
    def create(cls, config: PriorConfig, code_table: np.ndarray, seed: int = 0) -> "PriorModel":
        dtype = config.np_dtype()

        def draw(name, shape, std):
            return rng_for(seed, "prior", name).normal(0, std, size=shape).astype(dtype)

        return cls(config, _parameters(config, draw), np.asarray(code_table))

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    # -- forward ---------------------------------------------------------

    def embed_inputs(self, prefix_grids: Sequence[np.ndarray], labels: np.ndarray,
                     cache: ScaleCache | None = None) -> Tensor:
        """Inputs for the scales after those the cache holds, up to len(prefix)+1.

        prefix_grids[j] is the (B, n, n) token grid of scale j+1; labels are
        per-sample condition indices (null index allowed). Scale 1 sees the
        condition embedding; scale k>1 the projected sum of the upsampled
        code embeddings of scales 1 .. k-1, accumulated on the finest grid
        and resized to its own. Each scale adds its position and level
        embeddings. The cache (a fresh one by default) supplies scale k>1's
        rows from its `inputs` when they are built, and raises if they were
        built from other grids.
        """
        cfg = self.config
        cache = ScaleCache() if cache is None else cache
        labels = np.asarray(labels, dtype=np.int64)
        if labels.min() < 0 or labels.max() > cfg.null_index:
            raise ContractError("condition index out of range")
        k_active = len(prefix_grids) + 1
        if k_active > self.schedule.num_scales:
            raise ContractError("prefix longer than the schedule allows")
        first = cache.scales_done
        rows = []
        if first == 0:
            n1 = self.schedule.sizes[0]
            start = np.repeat(labels[:, None], n1 * n1, axis=1)
            rows.append(self._placed(take(self.params["cond_emb"], start), 0))  # (B, n1^2, W)
        for j in range(max(first, 1), k_active):
            rows.append(self._code_rows(prefix_grids[j - 1], j, len(labels), cache.inputs))
        return rows[0] if len(rows) == 1 else concat(rows, axis=1)

    def _placed(self, x, k: int) -> Tensor:
        """Scale k's (B, n^2, W) rows x plus their position and level embeddings."""
        start, end = self._offsets[k], self._offsets[k + 1]
        return x + self.params["pos_emb"][start:end] + take(self.params["level_emb"],
                                                            self._level_ids[start:end])

    def _code_rows(self, grid: np.ndarray, j: int, b: int, inputs: CodeInputs) -> Tensor:
        """Scale j+1's input rows (j >= 1), whose newest code grid is scale
        j's: `inputs` builds them once, from its accumulator."""
        cfg = self.config
        m, n = self.schedule.sizes[j - 1:j + 1]
        grid = _check_grid(grid, j - 1, (b, m, m), cfg.vocab_size)
        if j <= len(inputs.rows):
            if not np.array_equal(grid, inputs.grids[j - 1]):
                raise ContractError(f"the cache's inputs were built from another grid {j - 1}")
            return inputs.rows[j - 1]
        n_latent = self.schedule.latent_size
        acc = (np.zeros((b, cfg.code_dim, n_latent, n_latent), dtype=cfg.np_dtype())
               if inputs.acc is None else inputs.acc)
        acc = acc + resize_bilinear(_lookup(grid, self.code_table), n_latent, n_latent).values
        up = resize_bilinear(acc, n, n).values
        flat = up.transpose(0, 2, 3, 1).reshape(b, n * n, cfg.code_dim)
        inputs.acc = acc
        inputs.grids.append(grid.copy())
        inputs.rows.append(self._placed(self._linear("input_proj", flat), j))
        return inputs.rows[-1]

    def _linear(self, name: str, x) -> Tensor:
        return linear(x, self.params[f"{name}.w"], self.params[f"{name}.b"])

    def _modulation(self, cond: Tensor, name: str, chunks: int) -> list[Tensor]:
        """The chunks of one AdaLN projection of the (B, 1, W) condition."""
        w = self.config.width
        mod = self._linear(name, cond)
        return [mod[:, :, i * w:(i + 1) * w] for i in range(chunks)]

    def _attention(self, i: int, h_in: Tensor, cache: ScaleCache) -> Tensor:
        """Block i's attention for the rows after the scales the cache holds,
        against the cached keys and values ahead of their own."""
        heads = self.config.heads

        def project(piece):
            return split_heads(self._linear(f"block{i}.{piece}", h_in), heads)

        q = l2_normalize(project("wq"))
        done = cache.scales_done
        start = self._offsets[done]
        k, v = cache.extend(i, l2_normalize(project("wk")), project("wv"), start,
                            self.schedule.token_count)
        end = start + q.shape[2]
        # one scale's rows see every row up to their end, so its mask block is
        # all zeros; adding it could only turn a -0 score into +0, which
        # softmax maps to the same exp(0) = 1
        mask = None if end == self._offsets[done + 1] else self._mask_bias[start:end, :end]
        mixed = merge_heads(attend(q, k, v, self.params[f"block{i}.temp"], mask))
        return self._linear(f"block{i}.wo", mixed)

    def _run(self, seq: Tensor, labels: np.ndarray, cache: ScaleCache) -> Tensor:
        """(B, L', W) inputs + B condition indices -> (B, L', V) logits for
        the rows after the scales the cache holds."""
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

    def forward_batch(self, grids: Sequence[np.ndarray], labels: np.ndarray) -> Tensor:
        """Teacher-forced logits (B, L, V) for full pyramids: grid k is an
        integer (B, n_k, n_k) array of codes in [0, V), B = len(labels)."""
        sizes = self.schedule.sizes
        if len(grids) != len(sizes):
            raise ContractError(f"a pyramid has {len(sizes)} grids, not {len(grids)}")
        labels = np.asarray(labels, dtype=np.int64)
        grids = [_check_grid(g, k, (len(labels), n, n), self.config.vocab_size)
                 for k, (g, n) in enumerate(zip(grids, sizes))]
        cache = ScaleCache()
        return self._run(self.embed_inputs(grids[:-1], labels, cache), labels, cache)

    def next_scale_logits(self, prefix_grids: Sequence[np.ndarray], c: int,
                          cache: ScaleCache | None = None) -> np.ndarray:
        """Logits (n_k^2, V) for the scale following the prefix (single sample).

        Without a cache a fresh one runs the whole prefix. A caller's cache
        must be built for c and hold the len(prefix) scales before; then only
        the new scale's rows run. Either way the cache advances past that
        scale. The two agree to rounding: each product runs another number
        of rows, so their bits are equal only while the AdaLN gates are zero.
        """
        k = len(prefix_grids)
        if cache is None:
            cache = ScaleCache(c)
        elif cache.condition != c:
            raise ContractError(f"cache built for condition {cache.condition}, not {c}")
        elif cache.scales_done != k:
            raise ContractError(f"cache holds {cache.scales_done} scales, the prefix {k}")
        labels = np.array([c])
        with no_grad():
            seq = self.embed_inputs([np.asarray(g)[None] for g in prefix_grids], labels, cache)
            logits = self._run(seq, labels, cache).values[0]
        cache.scales_done = k + 1
        n = self.schedule.sizes[k]
        return logits[-n * n:]


def flatten_targets(grids: Sequence[np.ndarray]) -> np.ndarray:
    """Per-scale (B, n, n) grids -> (B, L) flat target indices."""
    b = np.asarray(grids[0]).shape[0]
    return np.concatenate([np.asarray(g).reshape(b, -1) for g in grids], axis=1)


def batch_loss(model: PriorModel, grids: Sequence[np.ndarray], labels: np.ndarray) -> Tensor:
    """Summed cross-entropy over all scales, averaged per token."""
    logits = model.forward_batch(grids, labels)
    logp = log_softmax(logits)
    picked = take_along_last(logp, flatten_targets(grids))
    return -picked.mean()


def train_prior(grids: Sequence[np.ndarray], labels: np.ndarray, model: PriorModel,
                opt: OptimizerConfig, steps: int, batch_size: int = 32, seed: int = 0,
                start_step: int = 0, log_every: int = 25) -> list[tuple[int, float, float]]:
    """Teacher-forced training with per-sample condition dropout."""
    n = labels.shape[0]
    if n == 0:
        raise ContractError("prior training needs a non-empty token corpus")

    def loss_at(step):
        idx = rng_for(seed, "batch", step).integers(0, n, size=batch_size)
        batch_labels = labels[idx].copy()
        drop = rng_for(seed, "cdrop", step).random(batch_size) < model.config.cond_dropout_p
        batch_labels[drop] = model.config.null_index
        return batch_loss(model, [np.asarray(g)[idx] for g in grids], batch_labels), None

    return train_loop(model.parameters(), opt, batch_size, steps, start_step, log_every,
                      "prior", loss_at)


def per_token_loss(model: PriorModel, grids: Sequence[np.ndarray], labels: np.ndarray) -> float:
    """Held-out evaluation loss (no condition dropout)."""
    total, count = 0.0, 0
    n = labels.shape[0]
    with no_grad():
        for lo in range(0, n, EVAL_CHUNK):
            part = [np.asarray(g)[lo:lo + EVAL_CHUNK] for g in grids]
            part_labels = labels[lo:lo + EVAL_CHUNK]
            loss = batch_loss(model, part, part_labels)
            tokens = part_labels.shape[0] * model.schedule.token_count
            total += loss.item() * tokens
            count += tokens
    return total / count


# -- checkpointing -------------------------------------------------------------


def save_prior(path: str | os.PathLike, model: PriorModel,
               extra_config: dict | None = None, train_step: int | None = None,
               optimizer_state: bool = False) -> None:
    arrays = {"code_table": model.code_table,
              **ckpt.param_arrays(model.params, optimizer_state)}
    ckpt.save_model(path, "prior", model.config, arrays, extra_config, train_step)


def load_prior(path: str | os.PathLike) -> tuple[PriorModel, dict]:
    cfg, config, arrays = ckpt.load_model(path, "prior", PriorConfig)
    dtype = cfg.np_dtype()
    code_table = ckpt.section(arrays, "code_table", (cfg.vocab_size, cfg.code_dim), dtype)
    params = _parameters(cfg, lambda name, shape, std: np.empty(shape, dtype=dtype))
    ckpt.load_params(params, arrays, dtype)
    return PriorModel(cfg, params, code_table), config
