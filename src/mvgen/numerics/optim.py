"""AdamW with decoupled weight decay, warmup+cosine schedule, gradient clipping,
and the one training loop that drives them."""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Iterable

import numpy as np

from .tensor import ContractError, NumericError, Tensor, checked_at_boundaries


@dataclasses.dataclass(frozen=True)
class OptimizerConfig:
    beta1: float = 0.9
    beta2: float = 0.95
    weight_decay: float = 0.05
    peak_lr: float = 1e-3
    warmup_steps: int = 100
    total_steps: int = 1000
    min_lr: float | None = None
    grad_clip_norm: float = 1.0
    eps: float = 1e-8

    def __post_init__(self):
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ContractError("betas must lie in [0, 1)")
        if self.warmup_steps > self.total_steps:
            raise ContractError("warmup_steps must not exceed total_steps")
        if self.grad_clip_norm <= 0:
            raise ContractError("grad_clip_norm must be positive")
        if self.eps <= 0:
            raise ContractError("eps must be positive")
        if self.min_lr is None:
            object.__setattr__(self, "min_lr", self.peak_lr / 100.0)
        for name in ("weight_decay", "warmup_steps", "peak_lr", "min_lr"):
            if getattr(self, name) < 0:
                raise ContractError(f"{name} must be non-negative")

    def scaled_for_batch(self, batch_size: int) -> "OptimizerConfig":
        """Scale peak (and floor) learning rate linearly with batch_size / 32."""
        factor = batch_size / 32
        return dataclasses.replace(self, peak_lr=self.peak_lr * factor,
                                   min_lr=self.min_lr * factor)


class Parameter(Tensor):
    """Learnable tensor with AdamW moment buffers and a step counter."""

    __slots__ = ("m", "v", "step")

    def __init__(self, values):
        super().__init__(values, requires_grad=True, _op="parameter")
        self.m = np.zeros_like(self.values)
        self.v = np.zeros_like(self.values)
        self.step = 0


def lr_at(step: int, cfg: OptimizerConfig) -> float:
    """Linear warmup to peak_lr, cosine decay to min_lr, clamped past total_steps."""
    if step < 0:
        raise ContractError("step must be non-negative")
    if step >= cfg.total_steps:
        return cfg.min_lr
    if step < cfg.warmup_steps:
        return cfg.peak_lr * step / cfg.warmup_steps
    span = cfg.total_steps - cfg.warmup_steps
    progress = (step - cfg.warmup_steps) / span
    return cfg.min_lr + 0.5 * (cfg.peak_lr - cfg.min_lr) * (1.0 + math.cos(math.pi * progress))


def adamw_update(p: Parameter, lr: float, cfg: OptimizerConfig) -> Parameter:
    """One decoupled-weight-decay update; moments are bias-corrected.

    m and v are updated in place and the step is built in two temporaries,
    with the expressions of
        m = beta1 * m + (1 - beta1) * g;  v = beta2 * v + (1 - beta2) * (g * g)
        values = values - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * values)
    in their order; `values` gets a new array.
    """
    if lr < 0:
        raise ContractError("learning rate must be non-negative")
    if p.grad is None:
        raise ContractError("parameter gradient not populated")
    g = p.grad
    p.step += 1
    step = np.multiply(g, 1.0 - cfg.beta1)
    p.m *= cfg.beta1
    p.m += step
    other = np.multiply(g, g)
    other *= 1.0 - cfg.beta2
    p.v *= cfg.beta2
    p.v += other
    m_hat = np.divide(p.m, 1.0 - cfg.beta1 ** p.step, out=step)
    root = np.sqrt(np.divide(p.v, 1.0 - cfg.beta2 ** p.step, out=other), out=other)
    root += cfg.eps
    step = np.divide(m_hat, root, out=step)
    step += np.multiply(p.values, cfg.weight_decay, out=other)
    step *= lr
    p.values = p.values - step
    return p


def clip_grad_norm(params: Iterable[Parameter], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm.

    Returns the scale factor applied (1.0 when already within bounds). A
    non-finite norm raises NumericError and leaves every gradient as it was.
    """
    params = list(params)
    total = 0.0
    for p in params:
        if p.grad is None:
            raise ContractError("clip_grad_norm requires populated gradients")
        total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if not math.isfinite(norm):
        raise NumericError(f"gradient norm is {norm}")
    if norm <= max_norm or norm == 0.0:
        return 1.0
    scale = max_norm / norm
    for p in params:
        p.grad *= p.grad.dtype.type(scale)
    return scale


def train_loop(params: list[Parameter], opt: OptimizerConfig, batch_size: int, steps: int,
               start_step: int, log_every: int, what: str,
               loss_at: Callable[[int], tuple[Tensor, Callable | None]]) -> list[tuple]:
    """AdamW steps start_step .. start_step + steps - 1 -> the (step, lr, loss) curve.

    loss_at(step) returns the step's loss and an optional callback to run after
    the update. Per-op finiteness checks are off: the loss and the gradient
    norm are checked before any weight moves, and a failure reruns the step
    with per-op checks on and is re-raised naming `what`, the step and the op.
    """
    scaled = opt.scaled_for_batch(batch_size)

    def clipped_grads(step):
        for p in params:
            p.zero_grad()
        loss, after_update = loss_at(step)
        loss.backward()
        clip_grad_norm(params, scaled.grad_clip_norm)
        return loss, after_update

    curve = []
    for step in range(start_step, start_step + steps):
        try:
            loss, after_update = checked_at_boundaries(lambda: clipped_grads(step))
        except NumericError as err:
            raise NumericError(f"{what} training diverged at step {step}: {err}") from err
        lr = lr_at(step, scaled)
        for p in params:
            adamw_update(p, lr, scaled)
        if after_update is not None:
            after_update()
        if step % log_every == 0 or step == start_step + steps - 1:
            curve.append((step, lr, loss.item()))
    return curve
