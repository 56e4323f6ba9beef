"""Dense-tensor reverse-mode differentiation over numpy arrays.

A `Tensor` wraps a float32/float64 ndarray plus an optional backward closure;
`backward()` on a scalar loss topologically walks the graph and accumulates
exact partial derivatives into every reachable tensor with `requires_grad`.
Every op output, and in `backward()` every gradient an op passes back, is
checked for NaN/Inf (a contract violation). The training loop and the sampler
run with these per-op checks off and check their boundaries instead (a loss,
a gradient norm, logits, an image); a boundary that fails reruns its step
with per-op checks on, so the error names the op (`checked_at_boundaries`).

Gradient ownership: a leaf (a tensor with no backward, such as a Parameter)
owns its `.grad`, which `clip_grad_norm` scales in place, and keeps it after
`backward()`. An interior node keeps the first gradient passed to it by
reference, so it may share that array with other nodes; a second
contribution makes a new array. No backward writes into the gradient `g` it
is given. `backward()` releases each interior node once its backward has
run: its `.grad`, its closure (with the forward arrays it captured) and its
edges to its parents go, and only its `.values` stay. A later `backward()`
that reaches a released node raises ContractError.

`linear(x, w, b)` is `x @ w + b` for a 2-D weight as one node, with the
bits of the 2-D product plus the bias; `matmul` is the batched product of
activations. `gelu` runs one forward in place; when a gradient is needed,
x * x, tanh, 1 + tanh and x / 2 keep buffers of their own, in which the
forward pass then computes the derivative. The normalizers (`layernorm`,
`log_softmax`, `softmax`, `l2_normalize`) work on the last axis; the
reductions (`reduce_sum`, `reduce_mean`) cover the whole tensor.

The fused ops each build one node where the composition they replace built
several, and reproduce its forward values and every input gradient byte for
byte: they run the same numpy expressions in the same order, some in place,
and hand `backward()` their parents in the composition's order, so gradients
that meet at a shared node are summed in the same order too.
- `modulate(x, g, b)`: AdaLN's `layernorm(x) * g + b`;
- `gated_add(x, a, y)`: the gated residual `x + a * y`;
- `split_heads(x, heads)` and `merge_heads(x)`: attention's `reshape` plus
  `transpose` pairs;
- `attend(q, k, v, temp, mask)`: `softmax((q @ kᵀ) * temp + mask) @ v`, with
  softmax as `exp(log_softmax)`; without a gradient it works in place in two
  score-sized buffers.
The prior calls these, so no command calls `exp`, `log`, `tanh`,
`transpose`, `matmul`, `layernorm`, `softmax` or `reduce_sum`. They stay
because perfbench's tracer wraps every op of its list (`OP_TARGETS`) by name,
and tests/oracles.py composes the fused ops' references from them.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence, TypeVar

import numpy as np


class NumericError(RuntimeError):
    """Non-finite values or diverging computation."""


class NonOpNumericError(NumericError):
    """A NumericError no Tensor op can be at fault for, such as a sampling
    distribution that overflowed; `checked_at_boundaries` does not rerun."""


class ContractError(ValueError):
    """A precondition of an operation was violated."""


_GRAD_ENABLED = True
_NAN_CHECKS = True
T = TypeVar("T")


def checked_at_boundaries(run: Callable[[], T]) -> T:
    """run() with per-op finiteness checks off.

    run() checks its own boundaries (a loss, a gradient norm, logits) and
    changes nothing before they pass. When it raises NumericError, it runs
    once more with per-op checks on, so the error names the op whose output
    or gradient is non-finite; if that rerun passes, the first error stands.
    A NonOpNumericError raises at once.
    """
    global _NAN_CHECKS
    previous = _NAN_CHECKS
    _NAN_CHECKS = False
    try:
        return run()
    except NonOpNumericError:
        raise
    except NumericError:
        _NAN_CHECKS = True
        run()
        raise
    finally:
        _NAN_CHECKS = previous


def _finite(values: np.ndarray) -> bool:
    # a float64 sum is finite iff every element is finite at our magnitudes;
    # one fused pass, no temporary, unlike isfinite().all()
    return bool(np.isfinite(values.sum(dtype=np.float64)))


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (forward values only)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the shape of its source operand."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, values, requires_grad: bool = False, *,
                 _parents: tuple = (), _backward: Callable | None = None, _op: str = "leaf"):
        arr = np.asarray(values)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.values = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward
        self._op = _op

    # -- basics ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.values.shape}, op={self._op}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        if self.values.size != 1:
            raise ContractError("item() requires a single-element tensor")
        return float(self.values.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def _accum(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad), self.values.shape)
        dtype = self.values.dtype
        if self._backward is None:
            # a leaf owns its gradient: clip_grad_norm scales it in place
            if self.grad is None:
                self.grad = grad.astype(dtype, copy=True)
            else:
                self.grad += grad
        elif self.grad is None:
            self.grad = grad.astype(dtype, copy=False)
        else:
            self.grad = (self.grad + grad).astype(dtype, copy=False)

    def backward(self) -> None:
        """Populate gradients of the scalar loss w.r.t. every reachable leaf,
        releasing each interior node once its backward has run."""
        if self.values.size != 1:
            raise ContractError("backward() requires a scalar loss")
        if not np.isfinite(self.values).all():
            raise NumericError("loss is non-finite")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.values)
        for node in reversed(order):
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
                if _NAN_CHECKS and not all(_finite(p.grad) for p in node._parents
                                           if p.grad is not None):
                    raise NumericError(f"non-finite gradient produced by op '{node._op}'")
            # nothing reads an interior gradient, closure or edge again
            node.grad = None
            node._backward = _released
            node._parents = ()

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = _pair(self, other)
        return add(a, mul(b, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __getitem__(self, key):
        return index(self, key)

    def reshape(self, *shape):
        return reshape(self, shape)

    def transpose(self, *axes):
        return transpose(self, axes)

    def sum(self):
        return reduce_sum(self)

    def mean(self):
        return reduce_mean(self)


def _released(g) -> None:
    raise ContractError("backward() reached a node an earlier backward() has released")


def as_tensor(x, dtype=None) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=dtype))


def _pair(a, b) -> tuple[Tensor, Tensor]:
    """Coerce a binary op's operands; a non-Tensor second operand adopts the
    first's dtype, so float32 graphs are not silently promoted to float64."""
    a = as_tensor(a)
    return a, (b if isinstance(b, Tensor) else as_tensor(b, dtype=a.values.dtype))


def _needs_grad(*tensors: Tensor) -> bool:
    return _GRAD_ENABLED and any(t.requires_grad for t in tensors)


def _make(values: np.ndarray, parents: tuple, backward: Callable, op: str) -> Tensor:
    if _NAN_CHECKS and not _finite(values):
        raise NumericError(f"non-finite values produced by op '{op}'")
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        return Tensor(values, True, _parents=parents, _backward=backward, _op=op)
    return Tensor(values, False, _op=op)


# -- elementwise ----------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _pair(a, b)
    out = a.values + b.values

    def backward(g):
        a._accum(g)
        b._accum(g)

    return _make(out, (a, b), backward, "add")


def mul(a, b) -> Tensor:
    a, b = _pair(a, b)
    out = a.values * b.values

    def backward(g):
        a._accum(g * b.values)
        b._accum(g * a.values)

    return _make(out, (a, b), backward, "mul")


def power(a, exponent: float) -> Tensor:
    a = as_tensor(a)
    p = float(exponent)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = a.values ** p

    def backward(g):
        a._accum(g * p * a.values ** (p - 1.0))

    return _make(out, (a,), backward, "power")


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.values)

    def backward(g):
        a._accum(g * out)

    return _make(out, (a,), backward, "exp")


def log(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.log(a.values)

    def backward(g):
        a._accum(g / a.values)

    return _make(out, (a,), backward, "log")


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.values)

    def backward(g):
        a._accum(g * (1.0 - out * out))

    return _make(out, (a,), backward, "tanh")


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = np.maximum(a.values, 0.0)

    def backward(g):
        a._accum(g * (a.values > 0))

    return _make(out, (a,), backward, "relu")


_GELU_C = 0.7978845608028654  # sqrt(2/pi)


def gelu(a) -> Tensor:
    """tanh-approximated GELU in place; when a gradient is needed, x * x,
    tanh, 1 + tanh and x / 2 keep buffers of their own for the derivative."""
    a = as_tensor(a)
    x = a.values
    needs_grad = _needs_grad(a)
    xx = x * x
    inner = np.multiply(xx, x, out=None if needs_grad else xx)
    inner *= 0.044715
    inner += x
    inner *= _GELU_C
    t = np.tanh(inner, out=inner)
    one_t = np.add(t, 1.0, out=None if needs_grad else t)
    half_x = np.multiply(x, 0.5)
    out = np.multiply(half_x, one_t, out=None if needs_grad else half_x)
    if not needs_grad:
        return _make(out, (a,), None, "gelu")
    # da = 0.5 * (1 + t) + 0.5 * x * (1 - t * t) * dinner,
    # dinner = C * (1 + 3 * 0.044715 * x * x)
    xx *= 3 * 0.044715
    xx += 1.0
    xx *= _GELU_C
    t *= t
    np.subtract(1.0, t, out=t)
    t *= half_x
    t *= xx
    one_t *= 0.5
    one_t += t
    da = one_t

    def backward(g):
        a._accum(g * da)

    return _make(out, (a,), backward, "gelu")


# -- shape ops -------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = a.values.reshape(shape)
    src_shape = a.values.shape

    def backward(g):
        a._accum(g.reshape(src_shape))

    return _make(out, (a,), backward, "reshape")


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    out = a.values.transpose(axes)

    def backward(g):
        a._accum(g.transpose(np.argsort(axes)))

    return _make(out, (a,), backward, "transpose")


def concat(parts: Sequence, axis: int = 0) -> Tensor:
    tensors = [as_tensor(p) for p in parts]
    out = np.concatenate([t.values for t in tensors], axis=axis)
    sizes = [t.values.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            t._accum(piece)

    return _make(out, tuple(tensors), backward, "concat")


def _gather(a, key, op: str) -> Tensor:
    a = as_tensor(a)
    out = a.values[key]
    src_shape = a.values.shape

    def backward(g):
        full = np.zeros(src_shape, dtype=g.dtype)
        np.add.at(full, key, g)
        a._accum(full)

    return _make(out, (a,), backward, op)


def index(a, key) -> Tensor:
    return _gather(a, key, "index")


def take(a, indices: np.ndarray) -> Tensor:
    """Gather rows with integer indices (embedding lookup)."""
    return _gather(a, np.asarray(indices), "take")


def take_along_last(a, indices: np.ndarray) -> Tensor:
    """out[..., i] = a[..., i, indices[..., i]] for a trailing vocabulary axis."""
    a = as_tensor(a)
    idx = np.asarray(indices)
    out = np.take_along_axis(a.values, idx[..., None], axis=-1)[..., 0]
    src_shape = a.values.shape

    def backward(g):
        full = np.zeros(src_shape, dtype=g.dtype)
        np.put_along_axis(full, idx[..., None], g[..., None], axis=-1)
        a._accum(full)

    return _make(out, (a,), backward, "take_along_last")


# -- reductions and linear algebra ------------------------------------------


def _reduction(a: Tensor, out: np.ndarray, op: str, count: int = 1) -> Tensor:
    """The sum of all of a, divided by count; g spreads back over every element."""
    src_shape = a.values.shape

    def backward(g):
        g = np.broadcast_to(g, src_shape)
        a._accum(g / count if count != 1 else g)

    return _make(out, (a,), backward, op)


def reduce_sum(a) -> Tensor:
    a = as_tensor(a)
    return _reduction(a, a.values.sum(), "sum")


def reduce_mean(a) -> Tensor:
    a = as_tensor(a)
    return _reduction(a, a.values.mean(), "mean", a.values.size)


def matmul(a, b) -> Tensor:
    """a @ b batched over leading axes, as attention's; `linear` takes 2-D weights."""
    a, b = as_tensor(a), as_tensor(b)
    av, bv = a.values, b.values
    if av.ndim < 2 or bv.ndim < 2:
        raise ContractError("matmul requires operands with at least 2 dimensions")
    out = av @ bv

    def backward(g):
        if a.requires_grad:
            a._accum(g @ np.swapaxes(bv, -1, -2))
        if b.requires_grad:
            b._accum(np.swapaxes(av, -1, -2) @ g)

    return _make(out, (a, b), backward, "matmul")


def linear(x, w, b) -> Tensor:
    """x @ w + b for a 2-D weight as one node, with the bits of the 2-D product
    over x's collapsed leading axes plus the bias, added in place; the bias
    gradient is reduced by `_unbroadcast`, as `add` reduces it."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    xv, wv = x.values, w.values
    if xv.ndim < 2 or wv.ndim != 2:
        raise ContractError("linear requires x with at least 2 dimensions and a 2-D weight")
    x2 = xv.reshape(-1, xv.shape[-1])
    out = (x2 @ wv).reshape(xv.shape[:-1] + (wv.shape[-1],))
    out = out.astype(np.promote_types(out.dtype, b.values.dtype), copy=False)
    out += b.values

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            x._accum((g2 @ wv.T).reshape(xv.shape))
        if w.requires_grad:
            w._accum(x2.T @ g2)
        b._accum(g)

    return _make(out, (x, w, b), backward, "linear")


# -- normalization and softmax ------------------------------------------------


def _mean_last(x: np.ndarray) -> np.ndarray:
    """x.mean(axis=-1, keepdims=True) as numpy computes it: the sum, divided
    in place by the count as an intp (a float64 divide for float32 sums)."""
    total = np.add.reduce(x, axis=-1, keepdims=True)
    return np.true_divide(total, np.intp(x.shape[-1]), out=total, casting="unsafe")


def _normalized(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """layernorm's (values, inverse deviation) over the last axis. The
    statistics take numpy's `mean` and `var` steps in their order, without
    numpy's Python wrappers: var(c) is mean((c - mean(c))**2)."""
    centered = x - _mean_last(x)
    dev = centered - _mean_last(centered)
    var = _mean_last(np.square(dev, out=dev))
    var += 1e-5
    inv = np.true_divide(1.0, np.sqrt(var, out=var), out=var)
    return np.multiply(centered, inv, out=centered), inv


def _normalized_grad(g: np.ndarray, out: np.ndarray, inv: np.ndarray) -> np.ndarray:
    return inv * (g - _mean_last(g) - out * _mean_last(g * out))


def layernorm(a) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (eps 1e-5, no affine)."""
    a = as_tensor(a)
    out, inv = _normalized(a.values)

    def backward(g):
        a._accum(_normalized_grad(g, out, inv))

    return _make(out, (a,), backward, "layernorm")


def log_softmax(a) -> Tensor:
    a = as_tensor(a)
    x = a.values
    shifted = x - x.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse

    def backward(g):
        a._accum(g - np.exp(out) * g.sum(axis=-1, keepdims=True))

    return _make(out, (a,), backward, "log_softmax")


def softmax(a) -> Tensor:
    return exp(log_softmax(a))


def l2_normalize(a) -> Tensor:
    """Scale vectors along the last axis to unit L2 norm; zero vectors stay zero."""
    a = as_tensor(a)
    x = a.values
    norm = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    inv = np.where(norm > 0, 1.0 / np.where(norm > 0, norm, 1.0), 0.0)
    out = x * inv

    def backward(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        a._accum((g - out * dot) * inv)

    return _make(out, (a,), backward, "l2_normalize")


# -- fused ops (see the module docstring) ---------------------------------------


def modulate(x, g, b) -> Tensor:
    """AdaLN's `layernorm(x) * g + b`; g and b broadcast to x's shape."""
    x, g, b = as_tensor(x), as_tensor(g), as_tensor(b)
    normed, inv = _normalized(x.values)
    needs_grad = _needs_grad(x, g, b)
    out = np.multiply(normed, g.values, out=None if needs_grad else normed)
    out += b.values
    if not needs_grad:
        return _make(out, (x, g, b), None, "modulate")

    def backward(grad):
        b._accum(grad)
        g._accum(grad * normed)
        x._accum(_normalized_grad(grad * g.values, normed, inv))

    return _make(out, (x, g, b), backward, "modulate")


def gated_add(x, a, y) -> Tensor:
    """The gated residual `x + a * y`; x has the broadcast shape."""
    x, a, y = as_tensor(x), as_tensor(a), as_tensor(y)
    out = a.values * y.values
    out += x.values

    def backward(g):
        x._accum(g)
        a._accum(g * y.values)
        y._accum(g * a.values)

    return _make(out, (x, a, y), backward, "gated_add")


def split_heads(a, heads: int) -> Tensor:
    """(B, L, W) -> (B, heads, L, W / heads): `reshape`, then `transpose`."""
    a = as_tensor(a)
    b, rows, width = a.values.shape
    out = a.values.reshape(b, rows, heads, width // heads).transpose(0, 2, 1, 3)

    def backward(g):
        a._accum(g.transpose(0, 2, 1, 3).reshape(b, rows, width))

    return _make(out, (a,), backward, "split_heads")


def merge_heads(a) -> Tensor:
    """(B, heads, L, hd) -> (B, L, heads * hd), the inverse of `split_heads`."""
    a = as_tensor(a)
    b, heads, rows, hd = a.values.shape
    out = a.values.transpose(0, 2, 1, 3).reshape(b, rows, heads * hd)

    def backward(g):
        a._accum(g.reshape(b, rows, heads, hd).transpose(0, 2, 1, 3))

    return _make(out, (a,), backward, "merge_heads")


def attend(q, k, v, temp, mask: np.ndarray | None = None) -> Tensor:
    """Attention's core, softmax((q @ kᵀ) * temp + mask) @ v, as one node.

    q is (B, heads, Lq, hd), k and v are (B, heads, Lk, hd), temp holds the
    (heads,) temperatures and mask is None or an additive (Lq, Lk) array.
    Softmax is `exp(log_softmax)`, so the bits are those of `transpose`,
    `matmul`, `reshape`, `mul`, `add`, `log_softmax` and `exp` composed.
    Without a gradient the scores are worked on in place in two buffers.
    """
    q, k, v, temp = as_tensor(q), as_tensor(k), as_tensor(v), as_tensor(temp)
    qv, kv, vv = q.values, k.values, v.values
    temp4 = temp.values.reshape(1, -1, 1, 1)
    needs_grad = _needs_grad(q, k, v, temp)
    raw = qv @ kv.transpose(0, 1, 3, 2)
    scores = np.multiply(raw, temp4, out=None if needs_grad else raw)
    if mask is not None:
        scores += mask
    scores -= scores.max(axis=-1, keepdims=True)
    att = np.exp(scores)
    scores -= np.log(att.sum(axis=-1, keepdims=True))
    att = np.exp(scores, out=att)
    out = att @ vv
    if not needs_grad:
        return _make(out, (q, k, temp, v), None, "attend")

    def backward(g):
        # the composition's backwards in its order: matmul, exp,
        # log_softmax (the mask's add passes g on), mul, matmul, transpose
        v._accum(np.swapaxes(att, -1, -2) @ g)
        gl = (g @ np.swapaxes(vv, -1, -2)) * att
        gs = gl - att * gl.sum(axis=-1, keepdims=True)
        gr = gs * temp4
        q._accum(gr @ kv)
        k._accum((np.swapaxes(qv, -1, -2) @ gr).transpose(0, 1, 3, 2))
        temp._accum(_unbroadcast(gs * raw, temp4.shape).reshape(temp.values.shape))

    # parents in the composition's order, so backward() visits the graph as before
    return _make(out, (q, k, temp, v), backward, "attend")
