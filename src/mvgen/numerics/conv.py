"""2D convolution, transposed convolution and bilinear resampling.

All spatial ops use channels-first layout (B, C, H, W). Convolutions run as
im2col matmuls with a 1-pixel zero border (`PADDING`): `_im2col` copies the
input into a zero-bordered buffer and one strided window view of that into
contiguous columns, which moves data and computes nothing; the transposed
convolution, always at stride 2, reuses the scatter (col2im) path, which is
also the exact gradient of the forward convolution. Both take their kernel
gradient from one product over the whole batch (`_kernel_grad`). Bilinear
resampling uses area-aligned sample positions (pixel centers at (i + 0.5)/N),
so a 2x2 -> 1x1 resize averages all four pixels and every output is a convex
combination of inputs.
"""

from __future__ import annotations

import functools

import numpy as np

from .tensor import ContractError, Tensor, _make, as_tensor

PADDING = 1


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int):
    """x (B,C,H,W) -> cols (B, C*kh*kw, Ho*Wo) over the zero-padded x: x goes
    into a zero-bordered buffer, then one strided window view of it is
    copied into the columns. Data moves; no value is computed."""
    b, c, h, w = x.shape
    padded = np.zeros((b, c, h + 2 * PADDING, w + 2 * PADDING), dtype=x.dtype)
    padded[:, :, PADDING:h + PADDING, PADDING:w + PADDING] = x
    ho = (h + 2 * PADDING - kh) // stride + 1
    wo = (w + 2 * PADDING - kw) // stride + 1
    sb, sc, sh, sw = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded, (b, c, kh, kw, ho, wo), (sb, sc, sh, sw, stride * sh, stride * sw),
        writeable=False)
    return windows.reshape(b, c * kh * kw, ho * wo), ho, wo


def _col2im(cols: np.ndarray, b: int, c: int, h: int, w: int,
            kh: int, kw: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """Scatter-add columns back onto a (B,C,H,W) canvas (adjoint of _im2col)."""
    canvas = np.zeros((b, c, h + 2 * PADDING, w + 2 * PADDING), dtype=cols.dtype)
    cols6 = cols.reshape(b, c, kh, kw, ho, wo)
    for i in range(kh):
        for j in range(kw):
            canvas[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += cols6[:, :, i, j]
    return canvas[:, :, PADDING:h + PADDING, PADDING:w + PADDING]


def _kernel_grad(a: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """sum_i a[i] @ cols[i].T as one product: the weight gradient of both convolutions."""
    a2 = np.ascontiguousarray(a.transpose(1, 0, 2)).reshape(a.shape[1], -1)
    c2 = np.ascontiguousarray(cols.transpose(1, 0, 2)).reshape(cols.shape[1], -1)
    return a2 @ c2.T


def conv2d(x, weight, bias, stride: int = 1) -> Tensor:
    """weight (Cout, Cin, kh, kw), bias (Cout,)."""
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    b, cin, h, w = x.values.shape
    cout, cin_w, kh, kw = weight.values.shape
    if cin != cin_w:
        raise ContractError(f"conv2d channel mismatch: input {cin}, weight {cin_w}")
    if kh > h + 2 * PADDING or kw > w + 2 * PADDING:
        raise ContractError(f"conv2d kernel {kh}x{kw} exceeds the padded {h}x{w} input")
    cols, ho, wo = _im2col(x.values, kh, kw, stride)
    w_mat = weight.values.reshape(cout, cin * kh * kw)
    out = (w_mat @ cols).reshape(b, cout, ho, wo) + bias.values[None, :, None, None]

    def backward(g):
        g_mat = g.reshape(b, cout, ho * wo)
        weight._accum(_kernel_grad(g_mat, cols).reshape(weight.values.shape))
        bias._accum(g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            dcols = np.matmul(w_mat.T, g_mat)
            x._accum(_col2im(dcols, b, cin, h, w, kh, kw, stride, ho, wo))

    return _make(out, (x, weight, bias), backward, "conv2d")


def conv_transpose2d(x, weight, bias) -> Tensor:
    """weight (Cin, Cout, kh, kw); stride 2, so output H = 2(H-1) - 2*PADDING + kh."""
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    b, cin, hi, wi = x.values.shape
    cin_w, cout, kh, kw = weight.values.shape
    if cin != cin_w:
        raise ContractError(f"conv_transpose2d channel mismatch: input {cin}, weight {cin_w}")
    ho = 2 * (hi - 1) - 2 * PADDING + kh
    wo = 2 * (wi - 1) - 2 * PADDING + kw
    w_mat = weight.values.reshape(cin, cout * kh * kw)
    x_mat = x.values.reshape(b, cin, hi * wi)
    cols = np.matmul(w_mat.T, x_mat)
    out = _col2im(cols, b, cout, ho, wo, kh, kw, 2, hi, wi)
    out = out + bias.values[None, :, None, None]

    def backward(g):
        g_cols, _, _ = _im2col(g, kh, kw, 2)
        x._accum(np.matmul(w_mat, g_cols).reshape(b, cin, hi, wi))
        weight._accum(_kernel_grad(x_mat, g_cols).reshape(weight.values.shape))
        bias._accum(g.sum(axis=(0, 2, 3)))

    return _make(out, (x, weight, bias), backward, "conv_transpose2d")


@functools.lru_cache(maxsize=128)
def resize_weights(src: int, dst: int) -> np.ndarray:
    """(dst, src) convex-combination matrix for area-aligned bilinear sampling."""
    mat = np.zeros((dst, src))
    scale = src / dst
    for i in range(dst):
        pos = (i + 0.5) * scale - 0.5
        lo = int(np.floor(pos))
        frac = pos - lo
        i0 = min(max(lo, 0), src - 1)
        i1 = min(max(lo + 1, 0), src - 1)
        mat[i, i0] += 1.0 - frac
        mat[i, i1] += frac
    return mat


def resize_bilinear(x, out_h: int, out_w: int) -> Tensor:
    """Area-aligned bilinear resize over the trailing two axes of a Tensor or
    an array; at equal size it returns x's own values, not a copy."""
    x = as_tensor(x)
    h, w = x.values.shape[-2:]
    if out_h < 1 or out_w < 1:
        raise ContractError("resize target must be at least 1x1")
    if (h, w) == (out_h, out_w):
        return x
    wr = resize_weights(h, out_h).astype(x.values.dtype)
    wc = resize_weights(w, out_w).astype(x.values.dtype)
    out = wr @ x.values @ wc.T

    def backward(g):
        x._accum(wr.T @ g @ wc)

    return _make(out, (x,), backward, "resize_bilinear")

