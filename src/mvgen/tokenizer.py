"""Multi-scale residual vector-quantized autoencoder.

Training and encoding run one walk over the scale schedule, coarse to fine:
at each scale the running latent residual is aligned down to that scale,
quantized against a single shared codebook, and the refinement of its codes
(upsampled back to the full latent extent and passed through a per-scale Phi,
half the input plus half a 3x3 conv of it, as in VAR) is subtracted before the
next scale sees the residual.
Reconstruction sums the same refinements and feeds them to the decoder.
Training uses straight-through gradients across the quantizer, an EMA-updated
codebook with dead-code reseeding, a commitment penalty pulling
pre-quantization features toward their selected codes, and a walk penalty on
the full-resolution residual left after each scale, which trains the
refinements so that each subtraction shrinks what remains.
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
    NumericError,
    OptimizerConfig,
    Parameter,
    Tensor,
    as_tensor,
    conv2d,
    conv_transpose2d,
    no_grad,
    relu,
    resize_bilinear,
    train_loop,
)
from .rng import rng_for

MVTK_MAGIC = b"MVTK"
MVTK_VERSION = 1
# Weight of the walk term (mean over scales) in the tokenizer objective. It
# only has to make each subtraction shrink the residual; at weight 1 the desk
# prior's guided samples failed criterion 8e (two labels at 0.895).
WALK_WEIGHT = 1.0 / 16
EVAL_CHUNK = 64  # images (or token pyramids) per batch in held-out evaluation


@dataclasses.dataclass(frozen=True)
class ScaleSchedule:
    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if len(sizes) == 0 or sizes[0] < 1:
            raise ContractError("schedule needs at least one positive size")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ContractError("schedule sizes must be strictly increasing")

    @property
    def num_scales(self) -> int:
        return len(self.sizes)

    @property
    def latent_size(self) -> int:
        return self.sizes[-1]

    @property
    def token_count(self) -> int:
        return sum(n * n for n in self.sizes)

    def scale_of_position(self) -> np.ndarray:
        """Scale index (0-based) of each flat-sequence position."""
        return np.repeat(np.arange(self.num_scales, dtype=np.int64), [n * n for n in self.sizes])

    def position_slices(self) -> list[slice]:
        """Flat-sequence slice occupied by each scale."""
        out, start = [], 0
        for n in self.sizes:
            out.append(slice(start, start + n * n))
            start += n * n
        return out


PAPER_SCHEDULE = ScaleSchedule((1, 2, 3, 4, 5, 6, 8, 10, 13, 16))
DESK_SCHEDULE = ScaleSchedule((1, 2, 3, 4))


@dataclasses.dataclass
class Codebook:
    embeddings: np.ndarray  # (V, C)
    ema_counts: np.ndarray  # (V,)
    ema_sums: np.ndarray  # (V, C)

    @classmethod
    def create(cls, vocab_size: int, embed_dim: int, seed: int, dtype=np.float64) -> "Codebook":
        rng = rng_for(seed, "codebook-init")
        emb = rng.normal(0.0, 0.1, size=(vocab_size, embed_dim)).astype(dtype)
        return cls(embeddings=emb,
                   ema_counts=np.zeros(vocab_size, dtype=dtype),
                   ema_sums=np.zeros((vocab_size, embed_dim), dtype=dtype))


@dataclasses.dataclass(frozen=True)
class TokenPyramid:
    grids: tuple[np.ndarray, ...]

    def __post_init__(self):
        grids = tuple(np.asarray(g, dtype=np.int64) for g in self.grids)
        object.__setattr__(self, "grids", grids)
        for g in grids:
            if g.ndim != 2 or g.shape[0] != g.shape[1]:
                raise ContractError("token grids must be square")
            if g.size and g.min() < 0:
                raise ContractError("token indices must be non-negative")

    def flat(self) -> np.ndarray:
        return np.concatenate([g.reshape(-1) for g in self.grids])


@dataclasses.dataclass(frozen=True)
class ModelConfig:
    """What the tokenizer's and the prior's configs share: the code vocabulary,
    the scale schedule and the float type they compute in."""
    vocab_size: int = 64
    schedule: tuple[int, ...] = DESK_SCHEDULE.sizes
    dtype: str = "float64"

    def __post_init__(self):
        if self.dtype not in ("float32", "float64"):
            raise ContractError(f"dtype must be float32 or float64, not {self.dtype!r}")
        if self.vocab_size < 1:
            raise ContractError("vocab_size must be positive")
        object.__setattr__(self, "schedule", ScaleSchedule(self.schedule).sizes)

    @property
    def scale_schedule(self) -> ScaleSchedule:
        return ScaleSchedule(self.schedule)

    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


@dataclasses.dataclass(frozen=True)
class TokenizerConfig(ModelConfig):
    resolution: int = 32
    embed_dim: int = 8
    beta_commit: float = 0.25
    ema_decay: float = 0.99

    def __post_init__(self):
        super().__post_init__()
        if self.embed_dim < 1:
            raise ContractError("embed_dim must be positive")
        if not 0.0 <= self.ema_decay <= 1.0:
            raise ContractError("ema_decay must lie in [0, 1]")
        if self.beta_commit < 0:
            raise ContractError("beta_commit must be non-negative")
        latent = self.scale_schedule.latent_size
        factor = self.resolution / latent
        stages = math.log2(factor) if factor >= 2 else -1
        if stages != int(stages) or stages < 1:
            raise ContractError(
                f"resolution {self.resolution} over latent {latent} "
                "must be a power-of-two downsample factor of at least 2")

    @property
    def num_stages(self) -> int:
        return int(math.log2(self.resolution // self.scale_schedule.latent_size))

    def stage_widths(self) -> list[int]:
        """Encoder stage output channels: (32, 64, ..., 64, C)."""
        stages = self.num_stages
        if stages == 1:
            return [self.embed_dim]
        return [32] + [64] * (stages - 2) + [self.embed_dim]


def _parameters(config: TokenizerConfig, draw) -> dict[str, Parameter]:
    """Every conv kernel and bias in saved order; draw(name, shape, std)
    gives the weights of kernel `name`."""
    dtype = config.np_dtype()
    params: dict[str, Parameter] = {}

    def kernel(name, cin, cout, k, transposed=False):
        """He-normal weights over the cin * k * k fan-in, zero bias; a
        transposed conv keeps its kernel as (cin, cout, k, k)."""
        shape = (cin, cout, k, k) if transposed else (cout, cin, k, k)
        params[f"{name}.w"] = Parameter(draw(name, shape, math.sqrt(2.0 / (cin * k * k))))
        params[f"{name}.b"] = Parameter(np.zeros(cout, dtype=dtype))

    # 4x4 stride-2 kernels cover the plane evenly (no checkerboard on the
    # transpose side); the per-scale refinements stay 3x3
    widths = config.stage_widths()
    cin = 1
    for i, cout in enumerate(widths):
        kernel(f"enc{i}", cin, cout, 4)
        cin = cout
    rev = [1] + widths[:-1]
    cin = widths[-1]
    for i, cout in enumerate(reversed(rev)):
        kernel(f"dec{i}", cin, cout, 4, transposed=True)
        cin = cout
    for k in range(config.scale_schedule.num_scales):
        kernel(f"phi{k}", config.embed_dim, config.embed_dim, 3)
    return params


class TokenizerModel:
    def __init__(self, config: TokenizerConfig, params: dict[str, Parameter], codebook: Codebook):
        self.config = config
        self.schedule = config.scale_schedule
        self.params = params
        self.codebook = codebook

    @classmethod
    def create(cls, config: TokenizerConfig, seed: int = 0) -> "TokenizerModel":
        dtype = config.np_dtype()

        def draw(name, shape, std):
            return rng_for(seed, "tokenizer", name).normal(0, std, size=shape).astype(dtype)

        codebook = Codebook.create(config.vocab_size, config.embed_dim, seed, dtype)
        return cls(config, _parameters(config, draw), codebook)

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    # -- network pieces --------------------------------------------------

    def encoder_forward(self, x: Tensor) -> Tensor:
        """(B, 1, R, R) -> (B, C, nK, nK)."""
        h = x
        stages = self.config.num_stages
        for i in range(stages):
            h = conv2d(h, self.params[f"enc{i}.w"], self.params[f"enc{i}.b"], stride=2)
            if i < stages - 1:
                h = relu(h)
        return h

    def decoder_forward(self, f: Tensor) -> Tensor:
        """(B, C, nK, nK) -> (B, 1, R, R), unclamped."""
        h = f
        stages = self.config.num_stages
        for i in range(stages):
            h = conv_transpose2d(h, self.params[f"dec{i}.w"], self.params[f"dec{i}.b"])
            if i < stages - 1:
                h = relu(h)
        return h

    def phi(self, k: int, f: Tensor) -> Tensor:
        """Scale k's refinement: VAR's Phi, half the input plus half a 3x3 conv of it."""
        return f * 0.5 + conv2d(f, self.params[f"phi{k}.w"], self.params[f"phi{k}.b"]) * 0.5


# -- encoding and decoding ----------------------------------------------------


def _quantize_grid(features: np.ndarray, embeddings: np.ndarray) -> np.ndarray:
    """features (B, C, n, n) -> indices (B, n, n). Ties break to lowest index."""
    b, c, n, _ = features.shape
    flat = features.transpose(0, 2, 3, 1).reshape(-1, c)
    e = embeddings
    dist = (flat * flat).sum(axis=1, keepdims=True) - 2.0 * flat @ e.T + (e * e).sum(axis=1)[None, :]
    return np.argmin(dist, axis=1).reshape(b, n, n)


def _lookup(grid: np.ndarray, embeddings: np.ndarray) -> np.ndarray:
    """indices (B, n, n) -> embeddings (B, C, n, n)."""
    return embeddings[grid].transpose(0, 3, 1, 2)


def _walk(model: TokenizerModel, images: np.ndarray,
          grids: Sequence[np.ndarray] | None = None,
          offsets: Sequence[np.ndarray] | None = None) -> tuple[Tensor, list[tuple]]:
    """The coarse-to-fine walk over (B, R, R) images -> (encoder output, per
    scale (fk, indices, codes, refinement, residual after the subtraction)).

    Scale k quantizes fk, the running residual aligned down to n_k, to codes
    zq and subtracts the refinement phi_k(up(st)), st = fk + sg(zq - fk), the
    offset sg(zq - fk) a constant array; grids[k] replaces the quantizer's
    choice and offsets[k] that offset. Training runs it with gradients;
    encoding runs it under no_grad, so both quantize the same values.
    """
    dtype = model.config.np_dtype()
    emb = model.codebook.embeddings
    n_latent = model.schedule.latent_size
    latent = model.encoder_forward(as_tensor(images[:, None, :, :].astype(dtype)))
    f = latent
    scales = []
    for k, n in enumerate(model.schedule.sizes):
        fk = resize_bilinear(f, n, n)
        idx = _quantize_grid(fk.values, emb) if grids is None else np.asarray(grids[k])
        zq = _lookup(idx, emb).astype(dtype)
        offset = as_tensor(zq - fk.values if offsets is None else offsets[k])
        refinement = model.phi(k, resize_bilinear(fk + offset, n_latent, n_latent))
        f = f - refinement
        scales.append((fk, idx, zq, refinement, f))
    return latent, scales


def encode_batch(model: TokenizerModel, images: np.ndarray) -> list[np.ndarray]:
    """(B, R, R) -> per-scale index grids [(B, n_k, n_k)]."""
    r = model.config.resolution
    if images.ndim != 3 or images.shape[1:] != (r, r):
        raise ContractError(f"expected (B, {r}, {r}) images")
    with no_grad():
        return [idx for _, idx, *_ in _walk(model, images)[1]]


def _check_grid(grid, k: int, shape: tuple, vocab_size: int) -> np.ndarray:
    """grid as an array; ContractError unless it is scale k's integer grid of
    `shape`, (B, n_k, n_k), holding codes in [0, vocab_size)."""
    grid = np.asarray(grid)
    if grid.shape != shape:
        raise ContractError(f"grid {k} has shape {grid.shape}, expected {shape}")
    if grid.dtype.kind not in "iu":
        raise ContractError(f"grid {k} holds {grid.dtype} values, not integer codes")
    if grid.size and (grid.min() < 0 or grid.max() >= vocab_size):
        raise ContractError(f"grid {k} holds codes outside [0, {vocab_size})")
    return grid


def decode_batch(model: TokenizerModel, grids: Sequence[np.ndarray]) -> np.ndarray:
    """Per-scale index grids -> images (B, R, R) clamped to [0, 1]; grid k is
    (B, n_k, n_k), and the first k grids alone reconstruct from the first k scales."""
    sizes = model.schedule.sizes
    if not 1 <= len(grids) <= len(sizes):
        raise ContractError(f"decode takes 1 to {len(sizes)} grids, got {len(grids)}")
    lead = np.shape(grids[0])[:1]
    grids = [_check_grid(idx, k, lead + (sizes[k], sizes[k]), model.config.vocab_size)
             for k, idx in enumerate(grids)]
    n_latent = model.schedule.latent_size
    b = grids[0].shape[0]
    with no_grad():
        f = np.zeros((b, model.config.embed_dim, n_latent, n_latent), dtype=model.config.np_dtype())
        for k, idx in enumerate(grids):
            zq = _lookup(idx, model.codebook.embeddings).astype(f.dtype)
            f = f + model.phi(k, resize_bilinear(zq, n_latent, n_latent)).values
        out = model.decoder_forward(as_tensor(f)).values[:, 0]
    return np.clip(out, 0.0, 1.0)


# -- training ------------------------------------------------------------------


@dataclasses.dataclass
class _StepStats:
    counts: np.ndarray
    sums: np.ndarray
    feature_pool: np.ndarray  # sampled pre-quantization vectors for reseeding


@dataclasses.dataclass
class StAnchor:
    """Per-scale quantizer state captured at a fixed parameter point.

    The walk subtracts phi_k(up(st)) with st = fk + sg(zq - fk). Replaying the
    captured indices, replacing sg(zq - fk) with the captured constant offset
    and the walk term's sg(f) with the captured encoder output turns the loss
    into a smooth function whose exact gradient equals the straight-through
    estimator's output, so central finite differences become a valid oracle
    for it.
    """

    offset: np.ndarray  # zq - fk, (B, C, n, n)
    indices: np.ndarray  # quantizer choice, (B, n, n)
    latent: np.ndarray  # encoder output f, (B, C, nK, nK); shared by all scales


def st_anchors(model: TokenizerModel, batch: np.ndarray) -> list[StAnchor]:
    """Capture straight-through anchors for `batch` at the current weights."""
    with no_grad():
        latent, scales = _walk(model, batch)
    return [StAnchor(offset=zq - fk.values, indices=idx, latent=latent.values)
            for fk, idx, zq, *_ in scales]


def training_graph(model: TokenizerModel, batch: np.ndarray,
                   anchors: Sequence[StAnchor] | None = None) -> tuple[Tensor, _StepStats]:
    """Build the straight-through loss graph for one batch from `_walk`.

    loss = recon + beta_commit * sum_k mean((fk - zq_k)^2)
                 + WALK_WEIGHT * mean_k mean((sg(f) - sum_{j<=k} phi_j(up(zq_j)))^2)

    recon decodes the sum of the walk's refinements phi_k(up(st_k)). The last
    term is the walk term: the full-resolution residual left after each scale,
    averaged over scales as in VAR's multi-scale quantizer loss. The encoder
    output f and the codes are held constant in it, so it trains only the
    refinements phi_j, to cancel what the walk subtracts.

    anchors replay captured index choices and replace the stop-gradient
    offset and sg(f) with captured constants (see StAnchor), which the
    gradient oracle differentiates by finite differences.
    """
    cfg = model.config
    v, c = model.codebook.embeddings.shape
    n_latent = model.schedule.latent_size
    grids = None if anchors is None else [a.indices for a in anchors]
    offsets = None if anchors is None else [a.offset for a in anchors]
    latent, scales = _walk(model, batch, grids, offsets)
    # the walk term's residual starts from sg(f)
    residual = as_tensor(latent.values if anchors is None else anchors[0].latent)
    recon_feat = commit = walk = None
    for k, (fk, _, zq, refinement, _) in enumerate(scales):
        term = ((fk - as_tensor(zq)) ** 2.0).mean()
        commit = term if commit is None else commit + term
        recon_feat = refinement if recon_feat is None else recon_feat + refinement
        residual = residual - model.phi(k, resize_bilinear(zq, n_latent, n_latent))
        term = (residual ** 2.0).mean()
        walk = term if walk is None else walk + term

    x_hat = model.decoder_forward(recon_feat)
    recon = ((x_hat - as_tensor(batch[:, None, :, :].astype(cfg.np_dtype()))) ** 2.0).mean()
    loss = recon + cfg.beta_commit * commit + walk * (WALK_WEIGHT / model.schedule.num_scales)
    # EMA statistics over every scale's cells, coarse to fine
    flat_idx = np.concatenate([idx.reshape(-1) for _, idx, *_ in scales])
    pooled = np.concatenate([fk.values.transpose(0, 2, 3, 1).reshape(-1, c) for fk, *_ in scales])
    sums = np.zeros((v, c), dtype=np.float64)
    np.add.at(sums, flat_idx, pooled.astype(np.float64))
    counts = np.bincount(flat_idx, minlength=v).astype(np.float64)
    return loss, _StepStats(counts=counts, sums=sums, feature_pool=pooled)


def _ema_update(model: TokenizerModel, stats: _StepStats, step: int, seed: int) -> None:
    cb = model.codebook
    decay = model.config.ema_decay
    dtype = model.config.np_dtype()
    cb.ema_counts = (decay * cb.ema_counts + (1 - decay) * stats.counts).astype(dtype)
    cb.ema_sums = (decay * cb.ema_sums + (1 - decay) * stats.sums).astype(dtype)
    alive = cb.ema_counts > 1e-4
    cb.embeddings[alive] = (cb.ema_sums[alive] / cb.ema_counts[alive, None]).astype(dtype)
    if step >= 1000:
        dead = cb.ema_counts < 1e-3
        n_dead = int(dead.sum())
        if n_dead:
            rng = rng_for(seed, "reseed", step)
            picks = rng.integers(0, stats.feature_pool.shape[0], size=n_dead)
            fresh = stats.feature_pool[picks].astype(dtype)
            cb.embeddings[dead] = fresh
            revive = max(float(np.median(cb.ema_counts[~dead])) if (~dead).any() else 0.1, 0.1)
            cb.ema_counts[dead] = revive
            cb.ema_sums[dead] = fresh * revive


def init_codebook_from_data(model: TokenizerModel, batch: np.ndarray, seed: int) -> None:
    """Seed codebook rows from encoder features of a data batch (k-means style init)."""
    dtype = model.config.np_dtype()
    with no_grad():
        f = model.encoder_forward(as_tensor(batch[:, None, :, :].astype(dtype))).values
    cells = []
    for n in model.schedule.sizes:
        fk = resize_bilinear(f, n, n).values
        cells.append(fk.transpose(0, 2, 3, 1).reshape(-1, model.config.embed_dim))
    pool = np.concatenate(cells, axis=0)
    if not np.isfinite(pool).all():
        raise NumericError("codebook warm start received non-finite features")
    rng = rng_for(seed, "codebook-warm")
    picks = rng.choice(pool.shape[0], size=model.config.vocab_size,
                       replace=pool.shape[0] < model.config.vocab_size)
    jitter = rng.normal(0, 1e-3, size=(model.config.vocab_size, model.config.embed_dim))
    model.codebook.embeddings = (pool[picks] + jitter).astype(dtype)


def train_tokenizer(train_images: np.ndarray, model: TokenizerModel,
                    opt: OptimizerConfig, steps: int, batch_size: int = 16,
                    seed: int = 0, start_step: int = 0, warm_start: bool = True,
                    log_every: int = 25) -> list[tuple[int, float, float]]:
    """AdamW training loop; returns the (step, lr, loss) curve."""
    n = train_images.shape[0]
    if n == 0:
        raise ContractError("training corpus is empty")

    def loss_at(step):
        batch = train_images[rng_for(seed, "batch", step).integers(0, n, size=batch_size)]
        if step == 0 and warm_start:
            init_codebook_from_data(model, batch, seed)
        loss, stats = training_graph(model, batch)
        return loss, lambda: _ema_update(model, stats, step, seed)

    return train_loop(model.parameters(), opt, batch_size, steps, start_step, log_every,
                      "tokenizer", loss_at)


def residual_energies(model: TokenizerModel, images: np.ndarray) -> list[float]:
    """Mean squared norm of the latent residual after each scale's subtraction.

    On trained models the sequence is expected to be non-increasing: every
    scale's quantized refinement removes part of what remains.
    """
    with no_grad():
        scales = _walk(model, images)[1]
    return [float((f.values.astype(np.float64) ** 2).mean()) for *_, f in scales]


def _squared_errors(model: TokenizerModel, images: np.ndarray, upto_scale: int | None = None):
    """(recon - image)^2 per chunk of images, decoded from the first upto_scale scales."""
    for lo in range(0, images.shape[0], EVAL_CHUNK):
        part = images[lo:lo + EVAL_CHUNK]
        yield (decode_batch(model, encode_batch(model, part)[:upto_scale]) - part) ** 2


def reconstruction_mse(model: TokenizerModel, images: np.ndarray,
                       upto_scale: int | None = None) -> float:
    """Mean squared reconstruction error over a slice set."""
    return sum(float(sq.sum()) for sq in _squared_errors(model, images, upto_scale)) / images.size


def reconstruction_psnr(model: TokenizerModel, images: np.ndarray) -> float:
    """Mean per-image PSNR (dB) of encode->decode against the originals."""
    return float(np.mean(np.concatenate([
        10.0 * np.log10(1.0 / np.maximum(sq.mean(axis=(1, 2)), 1e-12))
        for sq in _squared_errors(model, images)])))


def codebook_usage(model: TokenizerModel, images: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Empirical code-selection frequency over a held-out set.

    Returns (histogram summing to 1, utilization fraction, square heatmap).
    """
    if images.shape[0] == 0:
        raise ContractError("codebook_usage needs a non-empty eval set")
    v = model.config.vocab_size
    counts = np.zeros(v, dtype=np.int64)
    for lo in range(0, images.shape[0], EVAL_CHUNK):
        grids = encode_batch(model, images[lo:lo + EVAL_CHUNK])
        for g in grids:
            counts += np.bincount(g.reshape(-1), minlength=v)
    hist = counts / counts.sum()
    utilization = float((counts > 0).mean())
    side = int(math.ceil(math.sqrt(v)))
    heatmap = np.zeros(side * side)
    heatmap[:v] = hist
    return hist, utilization, heatmap.reshape(side, side)


# -- MVTK token streams ---------------------------------------------------------


def tokens_to_bytes(pyramid: TokenPyramid, vocab_size: int) -> bytes:
    if vocab_size > 0xFFFF:
        raise ContractError("MVTK stores indices as u16")
    for g in pyramid.grids:
        if g.size and g.max() >= vocab_size:
            raise ContractError("token index out of range for stream")
    parts = [MVTK_MAGIC, MVTK_VERSION.to_bytes(4, "little"),
             len(pyramid.grids).to_bytes(4, "little")]
    for g in pyramid.grids:
        parts.append(int(g.shape[0]).to_bytes(4, "little"))
    parts.append(int(vocab_size).to_bytes(4, "little"))
    for g in pyramid.grids:
        parts.append(g.astype("<u2").tobytes())
    return b"".join(parts)


def tokens_from_bytes(blob: bytes) -> tuple[TokenPyramid, int]:
    if blob[:4] != MVTK_MAGIC:
        raise ckpt.ArtifactError("not an MVTK token stream")
    version = int.from_bytes(blob[4:8], "little")
    if version != MVTK_VERSION:
        raise ckpt.ArtifactError(f"unsupported MVTK version {version}")
    k = int.from_bytes(blob[8:12], "little")
    pos = 16 + 4 * k
    if len(blob) < pos:
        raise ckpt.ArtifactError(f"MVTK header of {k} scales; the stream has {len(blob)} bytes")
    *sizes, vocab = (int(w) for w in np.frombuffer(blob, dtype="<u4", count=k + 1, offset=12))
    if len(blob) < pos + 2 * sum(n * n for n in sizes):
        raise ckpt.ArtifactError(f"MVTK grids {sizes} run past the end ({len(blob)} bytes)")
    grids = []
    for n in sizes:
        arr = np.frombuffer(blob, dtype="<u2", count=n * n, offset=pos)
        grids.append(arr.reshape(n, n).astype(np.int64))
        pos += 2 * n * n
    return TokenPyramid(tuple(grids)), vocab


def write_token_stream(path: str | os.PathLike, pyramid: TokenPyramid, vocab_size: int) -> None:
    ckpt.write_artifact(path, tokens_to_bytes(pyramid, vocab_size))


def read_token_stream(path: str | os.PathLike) -> tuple[TokenPyramid, int]:
    return ckpt.read_artifact(path, tokens_from_bytes)


# -- checkpointing ---------------------------------------------------------------


def save_tokenizer(path: str | os.PathLike, model: TokenizerModel,
                   extra_config: dict | None = None, train_step: int | None = None,
                   optimizer_state: bool = False) -> None:
    arrays = ckpt.param_arrays(model.params, optimizer_state)
    for name in ("embeddings", "ema_counts", "ema_sums"):
        arrays[f"codebook.{name}"] = getattr(model.codebook, name)
    ckpt.save_model(path, "tokenizer", model.config, arrays, extra_config, train_step)


def load_tokenizer(path: str | os.PathLike) -> tuple[TokenizerModel, dict]:
    cfg, config, arrays = ckpt.load_model(path, "tokenizer", TokenizerConfig)
    dtype = cfg.np_dtype()
    params = _parameters(cfg, lambda name, shape, std: np.empty(shape, dtype=dtype))
    ckpt.load_params(params, arrays, dtype)
    v, c = cfg.vocab_size, cfg.embed_dim
    codebook = Codebook(**{name: ckpt.section(arrays, f"codebook.{name}", shape, dtype)
                           for name, shape in (("embeddings", (v, c)), ("ema_counts", (v,)),
                                               ("ema_sums", (v, c)))})
    return TokenizerModel(cfg, params, codebook), config
