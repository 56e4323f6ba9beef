"""Minimal dense-tensor substrate: reverse-mode autodiff, conv ops, AdamW."""

from .conv import conv2d, conv_transpose2d, resize_bilinear
from .optim import OptimizerConfig, Parameter, adamw_update, clip_grad_norm, lr_at, train_loop
from .tensor import (
    ContractError,
    NonOpNumericError,
    NumericError,
    Tensor,
    add,
    as_tensor,
    checked_at_boundaries,
    concat,
    exp,
    gelu,
    index,
    l2_normalize,
    layernorm,
    linear,
    log,
    log_softmax,
    matmul,
    mul,
    no_grad,
    power,
    reduce_mean,
    reduce_sum,
    relu,
    reshape,
    softmax,
    take,
    take_along_last,
    tanh,
    transpose,
)

