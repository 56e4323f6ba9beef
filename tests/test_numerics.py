import math
import tracemalloc
import zlib

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import layernorm as numpy_layernorm

from mvgen import numerics as nx
from mvgen.numerics.tensor import _unbroadcast


def finite_diff(loss_fn, arr, eps=1e-5):
    """Central finite differences of a scalar loss over every array element."""
    grad = np.zeros_like(arr, dtype=np.float64)
    flat = arr.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = loss_fn(arr)
        flat[i] = orig - eps
        lo = loss_fn(arr)
        flat[i] = orig
        out[i] = (hi - lo) / (2 * eps)
    return grad


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / denom


def check_op(build, shape, seed, scale=1.0, eps=1e-5, tol=1e-4):
    rng = np.random.default_rng(seed)
    arr = rng.normal(0, scale, size=shape)
    x = nx.Tensor(arr.copy(), requires_grad=True)
    loss = build(x)
    loss.backward()

    def loss_value(values):
        return build(nx.Tensor(values)).item()

    fd = finite_diff(loss_value, arr.copy(), eps)
    assert rel_err(x.grad, fd) < tol, f"gradient mismatch: {rel_err(x.grad, fd)}"


class TestForwardBackward:
    def test_square_at_three(self):
        theta = nx.Tensor(3.0, requires_grad=True)
        loss = theta * theta
        loss.backward()
        assert theta.grad == pytest.approx(6.0)

    def test_softmax_onehot_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(1, 7))
        onehot = np.zeros((1, 7))
        onehot[0, 3] = 1.0

        def build(x):
            return (nx.softmax(x) * nx.as_tensor(onehot)).sum()

        x = nx.Tensor(z.copy(), requires_grad=True)
        build(x).backward()
        fd = finite_diff(lambda v: build(nx.Tensor(v)).item(), z.copy())
        assert rel_err(x.grad, fd) < 1e-6

    def test_constant_loss_gives_zero_grad(self):
        theta = nx.Tensor([1.0, 2.0], requires_grad=True)
        loss = nx.as_tensor(5.0) * 1.0
        other = (theta * 0.0).sum()  # depends on theta with zero coefficient
        (loss + other).backward()
        assert np.all(theta.grad == 0.0)

    def test_non_scalar_loss_rejected(self):
        t = nx.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(nx.ContractError):
            (t * 2.0).backward()

    def test_nan_in_forward_names_the_op(self):
        t = nx.Tensor([-1.0], requires_grad=True)
        with pytest.raises(nx.NumericError, match="log"):
            nx.log(t)

    def test_grad_accumulates_over_fanout(self):
        x = nx.Tensor(2.0, requires_grad=True)
        y = x * 3.0
        loss = y + y  # y used twice
        loss.backward()
        assert x.grad == pytest.approx(6.0)

    @pytest.mark.parametrize("other", [1.0, np.full(3, 0.25, dtype=np.float32)],
                             ids=["float", "array"])
    def test_float32_minus_a_non_tensor_stays_float32(self, other):
        x = nx.Tensor(np.linspace(-1.0, 1.0, 3, dtype=np.float32), requires_grad=True)
        y = x - other
        (y * y).sum().backward()
        assert y.values.dtype == x.grad.dtype == np.float32
        assert np.array_equal(y.values, x.values - np.asarray(other, dtype=np.float32))


OPS = {
    "add_broadcast": lambda x: (x + nx.Tensor(np.arange(4.0))).sum(),
    "mul": lambda x: (x * x).sum(),
    "power3": lambda x: nx.power(x, 3.0).sum(),
    "exp": lambda x: nx.exp(x).mean(),
    "log": lambda x: nx.log(x * x + 0.5).sum(),
    "tanh": lambda x: nx.tanh(x).sum(),
    "gelu": lambda x: nx.gelu(x).sum(),
    "relu": lambda x: nx.relu(x + 0.05).sum(),  # nudge off the kink
    "reshape_transpose": lambda x: nx.transpose(x.reshape(4, 4), (1, 0)).mean(),
    "layernorm": lambda x: (nx.layernorm(x) * nx.Tensor(np.arange(x.shape[-1]) * 1.0)).sum(),
    "log_softmax": lambda x: nx.log_softmax(x)[..., 0].sum(),
    "l2_normalize": lambda x: (nx.l2_normalize(x) * nx.Tensor(np.linspace(0, 1, x.shape[-1]))).sum(),
    "index": lambda x: (x[1:3] * 2.0).sum(),
    "concat": lambda x: nx.concat([x, x * 2.0], axis=0).sum(),
    # x is the input, the weight and (one row of it) the bias at once
    "linear": lambda x: (nx.linear(x, x * 0.5, x[2]) * nx.Tensor(np.linspace(-1, 1, 4))).sum(),
    "modulate": lambda x: (nx.modulate(x, x[0] * 0.5, x[1])
                           * nx.Tensor(np.linspace(-1, 1, 4))).sum(),
    "gated_add": lambda x: (nx.gated_add(x, x[0], x * x) * nx.Tensor(np.linspace(-1, 1, 4))).sum(),
    "split_heads": lambda x: (nx.split_heads(x.reshape(1, 4, 4), 2)
                              * nx.Tensor(np.linspace(-1, 1, 16).reshape(1, 2, 4, 2))).sum(),
    "merge_heads": lambda x: (nx.merge_heads(x.reshape(1, 2, 4, 2))
                              * nx.Tensor(np.linspace(-1, 1, 16).reshape(1, 4, 4))).sum(),
    # q, k, v and (one row of x) the two heads' temperatures; one score masked
    "attend": lambda x: (nx.attend(x.reshape(1, 2, 2, 4), (x * 0.5).reshape(1, 2, 2, 4),
                                   x.reshape(1, 2, 2, 4), x[3, :2],
                                   np.array([[0.0, -1e9], [0.0, 0.0]]))
                         * nx.Tensor(np.linspace(-1, 1, 16).reshape(1, 2, 2, 4))).sum(),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_op_gradients_match_finite_differences(name):
    check_op(OPS[name], (4, 4), seed=zlib.crc32(name.encode()))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_power_two_and_three_equal_their_products_bit_for_bit(dtype):
    # signed zeros, infinities, subnormals and an overflow, with per-op checks off
    tiny, big = np.finfo(dtype).smallest_subnormal, np.finfo(dtype).max
    x_val = np.array([-0.0, 0.0, -np.inf, np.inf, -1.5, 0.3, 7.0, tiny, -tiny, big], dtype=dtype)
    g = np.linspace(-2.0, 3.0, x_val.size).astype(dtype)
    with np.errstate(over="ignore"):
        expected = {2.0: (x_val * x_val, g * 2.0 * x_val),
                    3.0: (x_val ** 3.0, g * 3.0 * x_val ** 2.0)}
        for p, (value, grad) in expected.items():
            x = nx.Tensor(x_val, requires_grad=True)
            y = nx.checked_at_boundaries(lambda: nx.power(x, p))
            y._backward(g)
            assert y.values.tobytes() == value.tobytes()
            assert x.grad.tobytes() == grad.tobytes()


def test_matmul_gradients():
    rng = np.random.default_rng(3)
    a_val = rng.normal(size=(3, 4))
    b_val = rng.normal(size=(4, 2))
    a = nx.Tensor(a_val.copy(), requires_grad=True)
    b = nx.Tensor(b_val.copy(), requires_grad=True)
    (a @ b).sum().backward()
    fd_a = finite_diff(lambda v: (nx.Tensor(v) @ nx.Tensor(b_val)).sum().item(), a_val.copy())
    fd_b = finite_diff(lambda v: (nx.Tensor(a_val) @ nx.Tensor(v)).sum().item(), b_val.copy())
    assert rel_err(a.grad, fd_a) < 1e-6
    assert rel_err(b.grad, fd_b) < 1e-6


def test_batched_matmul_broadcast_gradients():
    rng = np.random.default_rng(4)
    a_val = rng.normal(size=(2, 3, 4))
    w_val = rng.normal(size=(4, 5))
    probe = nx.Tensor(rng.normal(size=(2, 3, 5)))

    def build(a, w):
        return ((a @ w) * probe).sum()

    a = nx.Tensor(a_val.copy(), requires_grad=True)
    w = nx.Tensor(w_val.copy(), requires_grad=True)
    build(a, w).backward()
    fd_a = finite_diff(lambda v: build(nx.Tensor(v), nx.Tensor(w_val)).item(), a_val.copy())
    fd_w = finite_diff(lambda v: build(nx.Tensor(a_val), nx.Tensor(v)).item(), w_val.copy())
    assert rel_err(a.grad, fd_a) < 1e-6
    assert rel_err(w.grad, fd_w) < 1e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape", [(5, 4), (2, 5, 4)])
def test_linear_equals_matmul_then_add_bit_for_bit(x_shape, dtype):
    """linear has the bits of the 2-D products over x's collapsed leading axes
    plus the bias, whose gradient _unbroadcast reduces."""
    rng = np.random.default_rng(13)
    x_val, w_val, b_val = (rng.normal(size=shape).astype(dtype)
                           for shape in (x_shape, (4, 3), (3,)))
    g = rng.normal(size=x_shape[:-1] + (3,)).astype(dtype)
    x, w, b = (nx.Tensor(v.copy(), requires_grad=True) for v in (x_val, w_val, b_val))
    out = nx.linear(x, w, b)
    (out * nx.Tensor(g)).sum().backward()
    x2, g2 = x_val.reshape(-1, 4), g.reshape(-1, 3)
    assert out.values.tobytes() == ((x2 @ w_val).reshape(g.shape) + b_val).tobytes()
    assert x.grad.tobytes() == (g2 @ w_val.T).reshape(x_shape).tobytes()
    assert w.grad.tobytes() == (x2.T @ g2).tobytes()
    assert b.grad.tobytes() == _unbroadcast(g, (3,)).tobytes()


def test_gelu_gradient_has_the_unfused_bits_and_no_grad_builds_no_derivative():
    def unfused_grad(x, g):  # the reference: each term computed from x afresh
        t = np.tanh(0.7978845608028654 * (x + 0.044715 * (x * x * x)))
        dinner = 0.7978845608028654 * (1.0 + 3 * 0.044715 * (x * x))
        return g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner)

    rng = np.random.default_rng(14)
    for dtype in (np.float32, np.float64):
        x_val = rng.normal(0, 2, size=(6, 7)).astype(dtype)
        probe = rng.normal(size=(6, 7)).astype(dtype)
        x = nx.Tensor(x_val.copy(), requires_grad=True)
        y = nx.gelu(x)
        (y * nx.Tensor(probe)).sum().backward()
        assert x.grad.tobytes() == unfused_grad(x_val, probe).tobytes()
        with nx.no_grad():
            y_no_grad = nx.gelu(x)
        assert y_no_grad._backward is None and not y_no_grad.requires_grad
        assert y_no_grad.values.tobytes() == y.values.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [1, 8, 128])
def test_layernorm_has_the_bits_of_numpy_mean_and_var(width, dtype):
    """Random rows, constant rows (variance 0), rows 1e4 off zero and signed
    zeros: forward values and input gradient equal the numpy oracle's bytes."""
    rng = np.random.default_rng(width)
    x_val = np.concatenate([
        rng.normal(size=(4, width)),
        np.full((2, width), -3.25),
        1e4 + rng.normal(size=(3, width)),
        np.where(np.arange(width) % 2 == 0, -0.0, 0.0)[None],
    ]).astype(dtype).reshape(2, 5, width)
    g = rng.normal(size=x_val.shape).astype(dtype)
    g[0, 0, 0] = -0.0
    x = nx.Tensor(x_val.copy(), requires_grad=True)
    out = nx.layernorm(x)
    (out * nx.Tensor(g)).sum().backward()
    want_out, want_grad = numpy_layernorm(x_val, g)
    assert out.values.dtype == dtype and x.grad.dtype == dtype
    assert out.values.tobytes() == want_out.tobytes()
    assert x.grad.tobytes() == want_grad.tobytes()


def _attend_case(cached: bool, masked: bool):
    """attend's inputs as the prior hands them over: q, k and v in the split
    heads' layout, or k and v as a cache's rows up to the pass's end."""
    b, heads, hd, lq = 2, 3, 4, 5
    lk = 9 if cached else lq

    def inputs(rng, dtype):
        def split(rows):
            return rng.normal(size=(b, rows, heads, hd)).astype(dtype).transpose(0, 2, 1, 3)
        if cached:
            kv = [rng.normal(size=(b, heads, lk + 3, hd)).astype(dtype)[:, :, :lk]
                  for _ in range(2)]
        else:
            kv = [split(lk), split(lk)]
        mask = None
        if masked:
            allow = rng.random((lq, lk)) < 0.7
            allow[:, 0] = True
            mask = np.where(allow, 0.0, -1e9).astype(dtype)
        return [split(lq), *kv, rng.uniform(0.5, 3.0, size=heads).astype(dtype)], {"mask": mask}

    return nx.attend, oracles.attend, inputs


def _case(fused, composed, *shapes):
    def inputs(rng, dtype):
        return [rng.normal(size=shape).astype(dtype) for shape in shapes], {}
    return fused, composed, inputs


FUSED = {
    "modulate": _case(nx.modulate, oracles.modulate, (2, 5, 6), (2, 1, 6), (2, 1, 6)),
    "gated_add": _case(nx.gated_add, oracles.gated_add, (2, 5, 6), (2, 1, 6), (2, 5, 6)),
    "split_heads": _case(lambda x: nx.split_heads(x, 3), lambda x: oracles.split_heads(x, 3),
                         (2, 5, 6)),
    "merge_heads": _case(nx.merge_heads, oracles.merge_heads, (2, 3, 5, 2)),
    **{f"attend-{rows}{'-masked' * masked}": _attend_case(rows == "cached", masked)
       for rows in ("whole", "cached") for masked in (False, True)},
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(FUSED))
def test_fused_op_has_the_bits_of_its_composition(name, dtype):
    """Forward values with and without a gradient, and every input gradient,
    equal the composed ops' bytes (tests/oracles.py)."""
    fused, composed, inputs = FUSED[name]
    arrays, kwargs = inputs(np.random.default_rng(zlib.crc32(name.encode())), dtype)
    results = []
    for op in (fused, composed):
        leaves = [nx.Tensor(a, requires_grad=True) for a in arrays]
        out = op(*leaves, **kwargs)
        probe = np.random.default_rng(1).normal(size=out.shape).astype(dtype)
        (out * nx.Tensor(probe)).sum().backward()
        with nx.no_grad():
            no_grad_out = op(*[nx.Tensor(a) for a in arrays], **kwargs)
        assert out.values.dtype == dtype
        results.append([out.values, no_grad_out.values, *(t.grad for t in leaves)])
    for got, want in zip(*results):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_leaves_fed_by_one_add_own_their_gradients_through_clipping():
    probe = np.array([3.0, 4.0])
    a, b = nx.Parameter(np.zeros(2)), nx.Parameter(np.ones(2))
    ((a + b) * nx.Tensor(probe)).sum().backward()
    assert not np.shares_memory(a.grad, b.grad)
    scale = nx.clip_grad_norm([a, b], 1.0)
    assert scale == pytest.approx(1.0 / (5.0 * math.sqrt(2.0)))
    assert np.array_equal(a.grad, probe * scale) and np.array_equal(b.grad, probe * scale)


def _recording(node, received):
    """node, with its backward wrapped to keep each gradient it is given, by
    reference: backward() releases interior gradients once they are used."""
    inner = node._backward

    def backward(g):
        received.append(g)
        inner(g)

    node._backward = backward
    return node


def test_interior_fanout_accumulates_without_changing_its_consumers_gradient():
    probe = np.array([1.0, -2.0, 0.5])
    x = nx.Tensor(np.array([0.3, 0.1, -0.7]), requires_grad=True)
    at_y, at_s, at_z = [], [], []
    y = _recording(x * 3.0, at_y)
    s = _recording(y + y, at_s)  # s passes one gradient array to y twice
    (s * nx.Tensor(probe)).sum().backward()
    assert len(at_s) == 1 and np.array_equal(at_s[0], probe)
    assert len(at_y) == 1 and np.array_equal(at_y[0], 2.0 * probe)
    assert np.array_equal(x.grad, 6.0 * probe)
    z = _recording(x * 2.0, at_z)  # its first gradient is reduce_sum's read-only broadcast view
    (z.sum() + (z * nx.Tensor(probe)).sum()).backward()
    assert len(at_z) == 1 and np.array_equal(at_z[0], 1.0 + probe)


def test_backward_releases_interior_nodes_and_a_second_pass_raises():
    x = nx.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = x * 3.0
    loss = y.sum()
    loss.backward()
    assert np.array_equal(x.grad, [3.0, 3.0])  # a leaf keeps its gradient
    assert y.grad is None and y._parents == () and np.array_equal(y.values, [3.0, 6.0])
    with pytest.raises(nx.ContractError):
        loss.backward()
    with pytest.raises(nx.ContractError):  # a new loss over a released node
        (y * 2.0).sum().backward()
    assert np.array_equal(x.grad, [3.0, 3.0])


def test_backward_peak_memory_does_not_grow_with_the_chain():
    # 20 muls on a 1 MB array; each passes back a new 1 MB gradient. Kept
    # until the loss is dropped, they would raise the peak by about 21 arrays.
    x = nx.Tensor(np.linspace(-1.0, 1.0, 1 << 17), requires_grad=True)
    y = x
    for _ in range(20):
        y = y * 1.01
    loss = y.sum()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= 4 * x.values.nbytes
    assert np.allclose(x.grad, 1.01 ** 20)


def test_take_and_take_along_last_gradients():
    rng = np.random.default_rng(5)
    table = rng.normal(size=(6, 3))
    idx = np.array([0, 2, 2, 5])
    t = nx.Tensor(table.copy(), requires_grad=True)
    nx.take(t, idx).sum().backward()
    expected = np.zeros_like(table)
    np.add.at(expected, idx, np.ones((4, 3)))
    assert np.allclose(t.grad, expected)

    logits = nx.Tensor(rng.normal(size=(2, 5)), requires_grad=True)
    picks = np.array([[1], [3]])[:, 0]
    nx.take_along_last(logits, picks).sum().backward()
    expected = np.zeros((2, 5))
    expected[0, 1] = expected[1, 3] = 1.0
    assert np.allclose(logits.grad, expected)


class TestConvOps:
    def test_conv2d_gradients(self):
        rng = np.random.default_rng(7)
        x_val = rng.normal(size=(2, 3, 6, 6))
        w_val = rng.normal(size=(4, 3, 3, 3)) * 0.5
        b_val = rng.normal(size=(4,))
        probe = rng.normal(size=(2, 4, 3, 3))

        def build(x, w, b):
            return (nx.conv2d(x, w, b, stride=2) * nx.Tensor(probe)).sum()

        x = nx.Tensor(x_val.copy(), requires_grad=True)
        w = nx.Tensor(w_val.copy(), requires_grad=True)
        b = nx.Tensor(b_val.copy(), requires_grad=True)
        build(x, w, b).backward()
        fd_x = finite_diff(lambda v: build(nx.Tensor(v), nx.Tensor(w_val), nx.Tensor(b_val)).item(), x_val.copy())
        fd_w = finite_diff(lambda v: build(nx.Tensor(x_val), nx.Tensor(v), nx.Tensor(b_val)).item(), w_val.copy())
        fd_b = finite_diff(lambda v: build(nx.Tensor(x_val), nx.Tensor(w_val), nx.Tensor(v)).item(), b_val.copy())
        assert rel_err(x.grad, fd_x) < 1e-6
        assert rel_err(w.grad, fd_w) < 1e-6
        assert rel_err(b.grad, fd_b) < 1e-6

    def test_conv2d_parameter_gradients_do_not_depend_on_the_input_needing_one(self):
        rng = np.random.default_rng(9)
        x_val = rng.normal(size=(2, 3, 6, 6))
        w_val = rng.normal(size=(4, 3, 3, 3))
        probe = rng.normal(size=(2, 4, 6, 6))
        grads = []
        for x_needs_grad in (True, False):
            x = nx.Tensor(x_val, requires_grad=x_needs_grad)
            w, b = nx.Tensor(w_val, requires_grad=True), nx.Tensor(np.ones(4), requires_grad=True)
            (nx.conv2d(x, w, b) * nx.Tensor(probe)).sum().backward()
            assert (x.grad is not None) == x_needs_grad
            grads.append((w.grad.tobytes(), b.grad.tobytes()))
        assert grads[0] == grads[1]

    def test_conv_transpose2d_shape_and_gradients(self):
        # the decoder's 4x4 kernel at stride 2 doubles the grid
        rng = np.random.default_rng(8)
        x_val = rng.normal(size=(1, 2, 3, 3))
        w_val = rng.normal(size=(2, 3, 4, 4)) * 0.5
        b_val = rng.normal(size=(3,))
        out = nx.conv_transpose2d(nx.Tensor(x_val), nx.Tensor(w_val), nx.Tensor(b_val))
        assert out.shape == (1, 3, 6, 6)
        probe = rng.normal(size=out.shape)

        def build(x, w, b):
            t = nx.conv_transpose2d(x, w, b)
            return (t * nx.Tensor(probe)).sum()

        x = nx.Tensor(x_val.copy(), requires_grad=True)
        w = nx.Tensor(w_val.copy(), requires_grad=True)
        b = nx.Tensor(b_val.copy(), requires_grad=True)
        build(x, w, b).backward()
        fd_x = finite_diff(lambda v: build(nx.Tensor(v), nx.Tensor(w_val), nx.Tensor(b_val)).item(), x_val.copy())
        fd_w = finite_diff(lambda v: build(nx.Tensor(x_val), nx.Tensor(v), nx.Tensor(b_val)).item(), w_val.copy())
        assert rel_err(x.grad, fd_x) < 1e-6
        assert rel_err(w.grad, fd_w) < 1e-6

    def test_conv_transpose_is_adjoint_of_conv(self):
        # <conv(x), y> == <x, conv_T(y)> with shared weights and zero bias
        rng = np.random.default_rng(9)
        x = rng.normal(size=(1, 2, 8, 8))
        w = rng.normal(size=(3, 2, 4, 4))
        y = rng.normal(size=(1, 3, 4, 4))
        zeros3 = np.zeros(3)
        zeros2 = np.zeros(2)
        cx = nx.conv2d(nx.Tensor(x), nx.Tensor(w), nx.Tensor(zeros3), stride=2).values
        cty = nx.conv_transpose2d(nx.Tensor(y), nx.Tensor(w), nx.Tensor(zeros2)).values
        assert (cx * y).sum() == pytest.approx((x * cty).sum(), rel=1e-10)

    @pytest.mark.parametrize("batch", [1, 16])
    @pytest.mark.parametrize("op,stride,kernel", [
        ("conv2d", 1, 3), ("conv2d", 2, 3), ("conv2d", 1, 4), ("conv2d", 2, 4),
        ("conv_transpose2d", 2, 3), ("conv_transpose2d", 2, 4)])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_im2col_has_the_bits_of_pad_and_sliding_windows(self, monkeypatch, op, stride,
                                                             kernel, batch, dtype):
        """Forward values and every gradient, against tests/oracles.py's
        im2col; a quarter of the inputs and probes are -0.0."""
        rng = np.random.default_rng(zlib.crc32(f"{op}{stride}{kernel}{batch}{dtype}".encode()))

        def signed_zeros(shape):
            v = rng.normal(size=shape)
            return np.where(rng.random(shape) < 0.25, -0.0, v).astype(dtype)

        cin, cout = 3, 5
        w_shape = (cout, cin) if op == "conv2d" else (cin, cout)
        x_val, w_val = signed_zeros((batch, cin, 7, 7)), signed_zeros(w_shape + (kernel,) * 2)
        b_val = signed_zeros((cout,))
        probe = {}

        def run():
            x, w, b = (nx.Tensor(v.copy(), requires_grad=True) for v in (x_val, w_val, b_val))
            out = (nx.conv2d(x, w, b, stride=stride) if op == "conv2d"
                   else nx.conv_transpose2d(x, w, b))
            g = probe.setdefault("g", signed_zeros(out.shape))
            (out * nx.Tensor(g)).sum().backward()
            return [out.values.tobytes()] + [t.grad.tobytes() for t in (x, w, b)]

        lean, padded = (f(x_val, kernel, kernel, stride) for f in (nx.conv._im2col, oracles.im2col))
        assert lean[0].tobytes() == padded[0].tobytes() and lean[1:] == padded[1:]
        got = run()
        monkeypatch.setattr(nx.conv, "_im2col", oracles.im2col)
        assert got == run()

    def test_kernel_past_the_padded_input_is_contract_error(self):
        w = nx.Tensor(np.ones((2, 1, 4, 4)))
        assert nx.conv2d(np.ones((1, 1, 2, 2)), w, np.zeros(2), stride=2).shape == (1, 2, 1, 1)
        for stride in (1, 2):
            with pytest.raises(nx.ContractError, match="kernel 4x4 exceeds the padded 1x1 input"):
                nx.conv2d(np.ones((1, 1, 1, 1)), w, np.zeros(2), stride=stride)

    def test_resize_identity_and_average(self):
        grid = nx.Tensor(np.array([[0.0, 0.0], [1.0, 1.0]]))
        same = nx.resize_bilinear(grid, 2, 2)
        assert same.values is grid.values
        down = nx.resize_bilinear(grid, 1, 1)
        assert down.values[0, 0] == pytest.approx(0.5)
        with pytest.raises(nx.ContractError, match="at least 1x1"):
            nx.resize_bilinear(grid, 0, 2)

    def test_resize_preserves_constants_and_range(self):
        rng = np.random.default_rng(11)
        const = nx.resize_bilinear(nx.Tensor(np.full((3, 5), 0.7)), 8, 2).values
        assert np.allclose(const, 0.7)
        data = rng.uniform(0.2, 0.9, size=(6, 6))
        out = nx.resize_bilinear(nx.Tensor(data), 13, 4).values
        assert out.min() >= data.min() - 1e-12 and out.max() <= data.max() + 1e-12

    def test_resize_gradient(self):
        rng = np.random.default_rng(12)
        probe = rng.normal(size=(5, 5))
        check_op(lambda x: (nx.resize_bilinear(x, 5, 5) * nx.Tensor(probe)).sum(), (3, 3), seed=12)


class TestAdamW:
    def cfg(self, **kw):
        base = dict(beta1=0.9, beta2=0.95, weight_decay=0.05, peak_lr=0.1,
                    warmup_steps=1, total_steps=10, grad_clip_norm=1.0)
        base.update(kw)
        return nx.OptimizerConfig(**base)

    def test_hand_evaluated_first_step(self):
        p = nx.Parameter(np.array([1.0]))
        p.grad = np.array([1.0])
        nx.adamw_update(p, 0.1, self.cfg())
        # m_hat = 1, v_hat = 1 -> 1 - 0.1*(1/(1+1e-8) + 0.05)
        expected = 1.0 - 0.1 * (1.0 / (1.0 + 1e-8) + 0.05)
        assert p.values[0] == pytest.approx(expected, abs=1e-12)
        assert p.values[0] == pytest.approx(0.895, abs=1e-8)
        assert p.step == 1

    def test_zero_grad_no_decay_is_identity(self):
        p = nx.Parameter(np.array([1.0, -2.0]))
        p.grad = np.zeros(2)
        nx.adamw_update(p, 0.1, self.cfg(weight_decay=0.0))
        assert np.allclose(p.values, [1.0, -2.0])

    def test_decay_only(self):
        p = nx.Parameter(np.array([1.0]))
        p.grad = np.zeros(1)
        nx.adamw_update(p, 0.1, self.cfg(weight_decay=0.05))
        assert p.values[0] == pytest.approx(0.995)

    def test_negative_lr_rejected(self):
        p = nx.Parameter(np.array([1.0]))
        p.grad = np.ones(1)
        with pytest.raises(nx.ContractError):
            nx.adamw_update(p, -0.1, self.cfg())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_moments_change_in_place_and_values_get_a_new_array(self, dtype):
        """Bit for bit the out-of-place step of tests/oracles.py; an array
        held from before a step shows which buffers the step reused."""
        rng = np.random.default_rng(15)
        cfg = self.cfg(weight_decay=0.1)
        p = nx.Parameter(rng.normal(size=(3, 4)).astype(dtype))
        want = (p.values, p.m, p.v)
        for step in range(1, 5):
            p.grad = rng.normal(size=(3, 4)).astype(dtype)
            want = oracles.adamw_step(*want, p.grad, step, 0.05 * step, cfg)
            old_values, old_m, old_v = p.values, p.m, p.v
            kept = old_values.copy()
            nx.adamw_update(p, 0.05 * step, cfg)
            assert p.m is old_m and p.v is old_v
            assert p.values is not old_values and old_values.tobytes() == kept.tobytes()
            for got, expected in zip((p.values, p.m, p.v), want):
                assert got.dtype == dtype and got.tobytes() == expected.tobytes()

    def test_bit_identical_across_runs(self):
        def run():
            p = nx.Parameter(np.full(5, 0.3))
            for step in range(7):
                p.grad = np.sin(np.arange(5) + step)
                nx.adamw_update(p, 0.01 * (step + 1), self.cfg())
            return p.values.tobytes()

        assert run() == run()


class TestLrSchedule:
    cfg = nx.OptimizerConfig(peak_lr=1.0, min_lr=0.01, warmup_steps=10, total_steps=110)

    def test_endpoints_and_midpoint(self):
        assert nx.lr_at(10, self.cfg) == pytest.approx(1.0)
        assert nx.lr_at(110, self.cfg) == pytest.approx(0.01)
        assert nx.lr_at(60, self.cfg) == pytest.approx((1.0 + 0.01) / 2)

    def test_clamp_past_total(self):
        assert nx.lr_at(1000, self.cfg) == pytest.approx(0.01)

    def test_continuity_at_warmup(self):
        eps_before = nx.lr_at(9, self.cfg)
        at = nx.lr_at(10, self.cfg)
        just_after = nx.lr_at(11, self.cfg)
        assert eps_before < at
        assert abs(at - just_after) < 0.01

    @given(st.integers(min_value=10, max_value=109))
    @settings(max_examples=50, deadline=None)
    def test_monotone_after_warmup(self, step):
        assert nx.lr_at(step, self.cfg) >= nx.lr_at(step + 1, self.cfg) - 1e-15

    def test_default_min_lr_is_percent_of_peak(self):
        cfg = nx.OptimizerConfig(peak_lr=3.0, warmup_steps=0, total_steps=5)
        assert cfg.min_lr == pytest.approx(0.03)


class TestClipGradNorm:
    def test_three_four_five(self):
        p = nx.Parameter(np.zeros(2))
        p.grad = np.array([3.0, 4.0])
        scale = nx.clip_grad_norm([p], 1.0)
        assert scale == pytest.approx(0.2)
        assert np.allclose(p.grad, [0.6, 0.8])

    def test_below_threshold_untouched(self):
        p = nx.Parameter(np.zeros(1))
        p.grad = np.array([0.5])
        assert nx.clip_grad_norm([p], 1.0) == 1.0
        assert p.grad[0] == 0.5

    def test_global_norm_over_multiple_params(self):
        a, b = nx.Parameter(np.zeros(1)), nx.Parameter(np.zeros(1))
        a.grad, b.grad = np.array([1.0]), np.array([1.0])
        nx.clip_grad_norm([a, b], 1.0)
        assert a.grad[0] == pytest.approx(1 / math.sqrt(2))
        assert b.grad[0] == pytest.approx(1 / math.sqrt(2))

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=8),
           st.floats(0.1, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, grads, max_norm):
        p1 = nx.Parameter(np.zeros(len(grads)))
        p1.grad = np.array(grads, dtype=np.float64)
        nx.clip_grad_norm([p1], max_norm)
        once = p1.grad.copy()
        nx.clip_grad_norm([p1], max_norm)
        assert np.allclose(p1.grad, once, rtol=1e-12, atol=1e-15)

    def test_nan_gradient_raises_and_scales_nothing(self):
        a, b = nx.Parameter(np.zeros(2)), nx.Parameter(np.zeros(1))
        a.grad, b.grad = np.array([np.nan, 3.0]), np.array([4.0])
        with pytest.raises(nx.NumericError, match="gradient norm is nan"):
            nx.clip_grad_norm([a, b], 1.0)
        assert np.array_equal(a.grad, [np.nan, 3.0], equal_nan=True)
        assert np.array_equal(b.grad, [4.0])


def test_boundary_error_stands_when_the_rerun_passes():
    calls = []

    def run():
        calls.append(len(calls))
        if calls == [0]:
            raise nx.NumericError("boundary")

    with pytest.raises(nx.NumericError, match="boundary"):
        nx.checked_at_boundaries(run)
    assert calls == [0, 1]


class TestTrainLoop:
    def test_non_finite_gradient_names_the_op_and_moves_no_weight(self):
        # sqrt is finite at 0, its gradient is not
        x, y = nx.Parameter(np.array([0.0, 4.0])), nx.Parameter(np.array([1.0]))
        before = [x.values.copy(), y.values.copy()]

        def loss_at(step):
            return nx.power(x, 0.5).sum() + (y * y).sum(), None

        with np.errstate(divide="ignore"), pytest.raises(
                nx.NumericError, match="toy training diverged at step 0: "
                                       "non-finite gradient produced by op 'power'"):
            nx.train_loop([x, y], nx.OptimizerConfig(warmup_steps=0, total_steps=5), 32, 2, 0,
                          1, "toy", loss_at)
        assert all(np.array_equal(p.values, v) for p, v in zip([x, y], before))


def test_unbroadcast_reduces_correctly():
    g = np.ones((2, 3, 4))
    assert _unbroadcast(g, (3, 4)).shape == (3, 4)
    assert _unbroadcast(g, (1, 4)).shape == (1, 4)
    assert _unbroadcast(g, (1, 4)).sum() == 24


def test_no_grad_skips_graph():
    x = nx.Tensor(1.0, requires_grad=True)
    with nx.no_grad():
        y = x * 2.0
    assert not y.requires_grad
