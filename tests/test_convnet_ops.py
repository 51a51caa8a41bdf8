"""The ConvNet's hot ops against frozen copies of their earlier implementations.

Two generations of oracles are kept here, verbatim but for the arguments the
ops no longer take (the convolution's bias, the dropout rate) and the
closures' signature: each backward closure now receives its inputs' gradient
sinks, and writes to those in place of the input tensors:

- the first implementation: `conv2d` by row-major im2col, `leaky_relu` by
  `np.where`, the batch-norm training forward by `mean` then `var`, and
  `adabn_adapt` by one prefix pass per batch-norm layer;
- the sample-major (N, C, H, W) ops that the channel-major (C, N, H, W) conv
  stack replaced: `conv2d`, `batch_norm` in both modes, `global_avg_pool`,
  the dropout draw and AdaBN's population statistics.

The rewrites do the same arithmetic in the same order on other layouts, so
everything that is not a GEMM must match bit for bit. A GEMM's summation
order may depend on the operand layout in some BLAS builds, so random-valued
convolutions are compared to the row-major im2col to 1e-6 relative; the
sample-major `conv2d` hands the GEMM the same operands, so it must match
exactly. Channel-major ops get their inputs transposed here explicitly, and
their results are transposed back before the comparison.
"""

import tracemalloc

import numpy as np
import pytest

from semgcal import build_tsd_dnn, default_train_config
from semgcal import adapt as adapt_mod
from semgcal import autodiff as ad
from semgcal.adapt import adabn_adapt, dann_train
from semgcal.autodiff import (
    DROPOUT_P,
    Tensor,
    _make,
    batch_norm,
    conv2d,
    dropout,
    global_avg_pool,
    leaky_relu,
    no_grad,
)
from semgcal.errors import ShapeError
from semgcal.nn import (
    CONVNET_CHANNELS,
    CONVNET_INPUT_SHAPE,
    BatchNorm,
    build_spectrogram_convnet,
    save_network,
)
from semgcal.train import fit


def _swap01(a):
    """(N, C, H, W) <-> (C, N, H, W), as a contiguous copy."""
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3))


def _run_backward(out, g):
    """Run the closure of the op that produced `out` on the gradient `g`."""
    out.node.backward(g, *out.node.parents)


# -- first implementation --------------------------------------------------------


def _old_conv2d(x, w):
    n, c, h, wd = x.data.shape
    o, c2, kh, kw = w.data.shape
    oh, ow = h - kh + 1, wd - kw + 1
    windows = np.lib.stride_tricks.sliding_window_view(x.data, (kh, kw), axis=(2, 3))
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)
    w_flat = w.data.reshape(o, -1)
    out_data = (cols @ w_flat.T).reshape(n, oh, ow, o).transpose(0, 3, 1, 2)

    def backward(g, sx, sw):
        g_mat = g.transpose(0, 2, 3, 1).reshape(n * oh * ow, o)
        if sw is not None:
            sw._accumulate((g_mat.T @ cols).reshape(w.data.shape))
        if sx is not None:
            dcols = (g_mat @ w_flat).reshape(n, oh, ow, c, kh, kw)
            dx = np.zeros_like(x.data)
            for i in range(kh):
                for j in range(kw):
                    dx[:, :, i : i + oh, j : j + ow] += dcols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
            sx._accumulate(dx)

    return _make(np.ascontiguousarray(out_data), (x, w), backward)


def _old_leaky_relu(a, slope=0.1):
    mask = a.data > 0
    out_data = np.where(mask, a.data, slope * a.data)

    def backward(g, sa):
        sa._accumulate(np.where(mask, g, slope * g))

    return _make(out_data, (a,), backward)


def _old_bn_train_forward(x, gamma, beta, running_mean, running_var, momentum=0.1, eps=1e-5):
    axes = (0, 2, 3) if x.ndim == 4 else (0,)

    def expand(v):
        return v[None, :, None, None] if x.ndim == 4 else v[None, :]

    mean = x.mean(axis=axes)
    var = x.var(axis=axes)
    running_mean *= 1.0 - momentum
    running_mean += momentum * mean.astype(running_mean.dtype)
    running_var *= 1.0 - momentum
    running_var += momentum * var.astype(running_var.dtype)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - expand(mean)) * expand(inv_std)
    return xhat * expand(gamma) + expand(beta)


def _old_adabn_adapt(model, x_tgt, batch_size=512):
    x = np.asarray(x_tgt, dtype=np.float32)
    out = model.clone()
    with no_grad():
        for pos, layer in enumerate(out.feature_layers):
            if not isinstance(layer, BatchNorm):
                continue
            total = None
            total_sq = None
            count = 0
            for lo in range(0, len(x), batch_size):
                t = out.layer_input(x[lo : lo + batch_size])
                for prev in out.feature_layers[:pos]:
                    t = prev(t, None)
                a = t.data.astype(np.float64)
                if a.ndim == 4:
                    a = _swap01(a)  # the layers run channel-major
                axes = (0, 2, 3) if a.ndim == 4 else (0,)
                batch_count = a.size // a.shape[1]
                s = a.sum(axis=axes)
                sq = (a * a).sum(axis=axes)
                total = s if total is None else total + s
                total_sq = sq if total_sq is None else total_sq + sq
                count += batch_count
            mean = total / count
            var = np.maximum(total_sq / count - mean * mean, 1e-12)
            layer.set_stats(mean, var)
    return out


# -- sample-major (N, C, H, W) ops -------------------------------------------------


def _nchw_dropout(a, rng):
    keep = (rng.random(a.data.shape) >= DROPOUT_P).astype(a.data.dtype) / (1.0 - DROPOUT_P)

    def backward(g, sa):
        sa._accumulate(g * keep, owned=True)

    return _make(a.data * keep, (a,), backward)


def _nchw_conv2d(x, w):
    n, c, h, wd = x.data.shape
    o, c2, kh, kw = w.data.shape
    if c != c2:
        raise ShapeError(f"input has {c} channels but kernel expects {c2}")
    oh, ow = h - kh + 1, wd - kw + 1
    x_t = x.data.transpose(1, 0, 2, 3)
    cols_t = np.empty((c, kh, kw, n, oh, ow), dtype=x.data.dtype)
    for i in range(kh):
        for j in range(kw):
            cols_t[:, i, j] = x_t[:, :, i : i + oh, j : j + ow]
    cols_t = cols_t.reshape(c * kh * kw, n * oh * ow)
    w_flat = w.data.reshape(o, -1)
    out_data = (w_flat @ cols_t).reshape(o, n, oh, ow).transpose(1, 0, 2, 3)

    def backward(g, sx, sw):
        g_t = g.transpose(1, 0, 2, 3).reshape(o, n * oh * ow)
        if sw is not None:
            sw._accumulate((g_t @ cols_t.T).reshape(w.data.shape), owned=True)
        if sx is not None:
            dcols_t = (w_flat.T @ g_t).reshape(c, kh, kw, n, oh, ow)
            dx = np.zeros_like(x.data)
            dx_t = dx.transpose(1, 0, 2, 3)
            for i in range(kh):
                for j in range(kw):
                    dx_t[:, :, i : i + oh, j : j + ow] += dcols_t[:, i, j]
            sx._accumulate(dx, owned=True)

    return _make(np.ascontiguousarray(out_data), (x, w), backward)


def _nchw_global_avg_pool(x):
    n, c, h, w = x.data.shape

    def backward(g, sx):
        dx = np.broadcast_to(g[:, :, None, None] / (h * w), x.data.shape).astype(x.data.dtype)
        sx._accumulate(dx, owned=True)

    return _make(x.data.mean(axis=(2, 3)), (x,), backward)


def _nchw_batch_norm(x, gamma, beta, running_mean, running_var, training, momentum=0.1, eps=1e-5):
    is_conv = x.data.ndim == 4
    axes = (0, 2, 3) if is_conv else (0,)

    def expand(v):
        return v[None, :, None, None] if is_conv else v[None, :]

    if training:
        m = x.data.size // x.data.shape[1]
        count = np.intp(m)
        mean = np.add.reduce(x.data, axis=axes)
        np.true_divide(mean, count, out=mean, casting="unsafe")
        xhat = x.data - expand(mean)
        var = np.add.reduce(np.square(xhat), axis=axes)
        np.true_divide(var, count, out=var, casting="unsafe")
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean.astype(running_mean.dtype)
        running_var *= 1.0 - momentum
        running_var += momentum * var.astype(running_var.dtype)
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat *= expand(inv_std)

        def backward(g, sx, sgamma, sbeta):
            if sgamma is not None:
                sgamma._accumulate((g * xhat).sum(axis=axes), owned=True)
            if sbeta is not None:
                sbeta._accumulate(g.sum(axis=axes), owned=True)
            if sx is not None:
                dxhat = g * expand(gamma.data)
                term = dxhat - dxhat.mean(axis=axes, keepdims=True) \
                    - xhat * (dxhat * xhat).sum(axis=axes, keepdims=True) / m
                sx._accumulate(term * expand(inv_std), owned=True)

    else:
        inv_std = 1.0 / np.sqrt(running_var.astype(x.data.dtype) + eps)
        xhat = x.data - expand(running_mean.astype(x.data.dtype))
        xhat *= expand(inv_std)

        def backward(g, sx, sgamma, sbeta):
            if sgamma is not None:
                sgamma._accumulate((g * xhat).sum(axis=axes), owned=True)
            if sbeta is not None:
                sbeta._accumulate(g.sum(axis=axes), owned=True)
            if sx is not None:
                sx._accumulate(g * expand(gamma.data * inv_std), owned=True)

    out_data = xhat * expand(gamma.data) + expand(beta.data)
    return _make(out_data, (x, gamma, beta), backward)


def _nchw_population_stats(batches):
    total = None
    total_sq = None
    count = 0
    for batch in batches:
        a = batch.astype(np.float64)
        axes = (0, 2, 3) if a.ndim == 4 else (0,)
        s = a.sum(axis=axes)
        sq = (a * a).sum(axis=axes)
        total = s if total is None else total + s
        total_sq = sq if total_sq is None else total_sq + sq
        count += a.size // a.shape[1]
    mean = total / count
    return mean, np.maximum(total_sq / count - mean * mean, 1e-12)


def _install_sample_major(mp):
    """Run the networks on the sample-major ops: no input transpose, NCHW
    activations through the conv stack and NCHW AdaBN statistics."""
    mp.setattr(ad, "_channel_major", lambda t: t)
    mp.setattr(ad, "conv2d", _nchw_conv2d)
    mp.setattr(ad, "batch_norm", _nchw_batch_norm)
    mp.setattr(ad, "global_avg_pool", _nchw_global_avg_pool)
    mp.setattr(ad, "dropout", _nchw_dropout)
    mp.setattr(adapt_mod, "_population_stats", _nchw_population_stats)


# -- shapes -----------------------------------------------------------------------


def _layer_shapes(n):
    """Sample-major (input, kernel) shapes of the four ConvNet blocks at batch size n."""
    c, h, w = CONVNET_INPUT_SHAPE
    shapes = []
    for o in CONVNET_CHANNELS:
        shapes.append(((n, c, h, w), (o, c, 3, 3)))
        c, h, w = o, h - 2, w - 2
    return shapes


# The four real ConvNet layer shapes, plus a non-square and a 1x1 kernel.
CONV_CASES = [*_layer_shapes(3), ((2, 5, 6, 7), (4, 5, 2, 3)), ((2, 5, 4, 3), (6, 5, 1, 1))]
CONV_IDS = ["block0", "block1", "block2", "block3", "kernel2x3", "kernel1x1"]

# The same at batch sizes 1 and 7.
EXACT_CONV_CASES = [case for n in (1, 7) for case in
                    [*_layer_shapes(n), ((n, 5, 6, 7), (4, 5, 2, 3)), ((n, 5, 4, 3), (6, 5, 1, 1))]]
EXACT_CONV_IDS = [f"{name}-n{n}" for n in (1, 7) for name in CONV_IDS]


def _run_conv(op, x, w, g, channel_major=True):
    """out, dx, dw of one conv2d call on sample-major x and g, returned
    sample-major; a channel-major op gets x and g transposed."""
    swap = _swap01 if channel_major else np.asarray
    tx, tw = Tensor(swap(x), requires_grad=True), Tensor(w.copy(), requires_grad=True)
    out = op(tx, tw)
    _run_backward(out, swap(g))
    for arr in (out.data, tx.grad, tw.grad):
        assert arr.flags["C_CONTIGUOUS"]
    return swap(out.data), swap(tx.grad), tw.grad


def _conv_data(rng, x_shape, w_shape, integer=False):
    draw = (lambda shape: rng.integers(-3, 4, shape)) if integer else rng.standard_normal
    oh, ow = x_shape[2] - w_shape[2] + 1, x_shape[3] - w_shape[3] + 1
    x = draw(x_shape).astype(np.float32)
    w = (draw(w_shape) if integer else rng.uniform(-0.3, 0.3, w_shape)).astype(np.float32)
    g = draw((x_shape[0], w_shape[0], oh, ow)).astype(np.float32)
    return x, w, g


class TestConv2dMatchesFrozenIm2col:
    @pytest.mark.parametrize("x_shape, w_shape", CONV_CASES, ids=CONV_IDS)
    def test_random_values_close(self, x_shape, w_shape):
        x, w, g = _conv_data(np.random.default_rng(11), x_shape, w_shape)
        new = _run_conv(conv2d, x, w, g)
        old = _run_conv(_old_conv2d, x, w, g, channel_major=False)
        for name, got, want in zip(("out", "dx", "dw"), new, old):
            assert got.shape == want.shape and got.dtype == want.dtype, name
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6 * np.abs(want).max(), err_msg=name)

    @pytest.mark.parametrize("x_shape, w_shape", CONV_CASES, ids=CONV_IDS)
    def test_integer_values_bit_identical(self, x_shape, w_shape):
        # Small integers keep every partial sum exact, so any BLAS summation
        # order gives the same bits and only the data movement is compared.
        x, w, g = _conv_data(np.random.default_rng(12), x_shape, w_shape, integer=True)
        for name, got, want in zip(("out", "dx", "dw"), _run_conv(conv2d, x, w, g),
                                   _run_conv(_old_conv2d, x, w, g, channel_major=False)):
            np.testing.assert_array_equal(got, want, err_msg=name)


class TestConv2dMatchesSampleMajor:
    @pytest.mark.parametrize("x_shape, w_shape", EXACT_CONV_CASES, ids=EXACT_CONV_IDS)
    def test_bit_identical(self, x_shape, w_shape):
        x, w, g = _conv_data(np.random.default_rng(21), x_shape, w_shape)
        new = _run_conv(conv2d, x, w, g)
        old = _run_conv(_nchw_conv2d, x, w, g, channel_major=False)
        for name, got, want in zip(("out", "dx", "dw"), new, old):
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name

    def test_transposed_view_input(self):
        # The first block reads the channel-major view of the sample-major input.
        x, w, g = _conv_data(np.random.default_rng(22), (7, 4, 10, 24), (32, 4, 3, 3))
        tx = Tensor(x, requires_grad=True)
        tw = Tensor(w, requires_grad=True)
        out = conv2d(ad._channel_major(tx), tw)
        ad.mean_all(ad.mul(out, Tensor(_swap01(g)))).backward()
        ref_x, ref_w = Tensor(x.copy(), requires_grad=True), Tensor(w.copy(), requires_grad=True)
        ref = _nchw_conv2d(ref_x, ref_w)
        ad.mean_all(ad.mul(ref, Tensor(g))).backward()
        assert np.array_equal(_swap01(out.data), ref.data)
        assert np.array_equal(tx.grad, ref_x.grad)
        assert np.array_equal(tw.grad, ref_w.grad)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor(np.zeros((3, 2, 5, 5))), Tensor(np.zeros((4, 2, 3, 3))))


def _conv_grads(op, x, w, g, x_grad, w_grad, channel_major=True):
    """dx and dw of one conv2d call on sample-major x and g, with only the
    operands named by `x_grad` and `w_grad` requiring a gradient."""
    swap = _swap01 if channel_major else np.asarray
    tx, tw = Tensor(swap(x), requires_grad=x_grad), Tensor(w.copy(), requires_grad=w_grad)
    _run_backward(op(tx, tw), swap(g))
    return None if tx.grad is None else swap(tx.grad), tw.grad


class TestConv2dRegathersColumns:
    """The forward drops the im2col columns and the backward gathers them
    again only for the kernel gradient."""

    @pytest.mark.parametrize("x_shape, w_shape", _layer_shapes(32), ids=CONV_IDS[:4])
    def test_forward_holds_only_its_output(self, x_shape, w_shape):
        x, w, _ = _conv_data(np.random.default_rng(31), x_shape, w_shape)
        tx, tw = Tensor(_swap01(x), requires_grad=True), Tensor(w, requires_grad=True)
        conv2d(tx, tw)  # first-call allocations stay out of the measurement
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = conv2d(tx, tw)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert held <= out.data.nbytes + 64 * 1024

    @pytest.mark.parametrize("x_shape, w_shape", EXACT_CONV_CASES, ids=EXACT_CONV_IDS)
    def test_frozen_kernel_input_gradient_without_a_gather(self, x_shape, w_shape, monkeypatch):
        # The VAT probe: the parameters are frozen and only the input needs a gradient.
        x, w, g = _conv_data(np.random.default_rng(32), x_shape, w_shape)
        gathers = []
        columns = ad._columns

        def counted(*args):
            gathers.append(args)
            return columns(*args)

        monkeypatch.setattr(ad, "_columns", counted)
        tx, tw = Tensor(_swap01(x), requires_grad=True), Tensor(w.copy())
        out = conv2d(tx, tw)
        assert len(gathers) == 1
        _run_backward(out, _swap01(g))
        assert len(gathers) == 1 and tw.grad is None
        want_dx, _ = _conv_grads(_nchw_conv2d, x, w, g, True, False, channel_major=False)
        assert tx.grad.tobytes() == _swap01(want_dx).tobytes()

    @pytest.mark.parametrize("x_shape, w_shape", EXACT_CONV_CASES, ids=EXACT_CONV_IDS)
    def test_frozen_input_kernel_gradient(self, x_shape, w_shape):
        # The first block in training: the input needs no gradient.
        x, w, g = _conv_data(np.random.default_rng(33), x_shape, w_shape)
        got_dx, got_dw = _conv_grads(conv2d, x, w, g, False, True)
        want_dx, want_dw = _conv_grads(_nchw_conv2d, x, w, g, False, True, channel_major=False)
        assert got_dx is None and want_dx is None
        assert got_dw.dtype == want_dw.dtype
        assert got_dw.tobytes() == want_dw.tobytes()


ACTIVATION_SHAPES = [(3, 32, 8, 22), (3, 54, 6, 20), (3, 94, 4, 18), (3, 167, 2, 16), (5, 200)]


def _awkward(rng, shape, dtype):
    """Random values with signed zeros, a subnormal and a NaN mixed in."""
    a = (rng.standard_normal(shape) * 3 + 0.5).astype(dtype)
    a.flat[::13] = 0.0
    a.flat[1::17] = -0.0
    a.flat[2] = np.finfo(dtype).smallest_subnormal
    a.flat[3] = -np.finfo(dtype).smallest_subnormal
    a.flat[4] = np.nan
    return a


class TestLeakyReluMatchesFrozenWhere:
    @pytest.mark.parametrize("shape", ACTIVATION_SHAPES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_and_gradient_bit_identical(self, shape, dtype):
        rng = np.random.default_rng(13)
        a = _awkward(rng, shape, dtype)
        g = rng.standard_normal(shape).astype(dtype)
        results = []
        for op in (leaky_relu, _old_leaky_relu):
            t = Tensor(a.copy(), requires_grad=True)
            out = op(t)
            _run_backward(out, g)
            results.append((out.data, t.grad))
        for got, want in zip(*results):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def _to_layout(a):
    """A sample-major activation as the op takes it: 4-D ones channel-major."""
    return _swap01(a) if a.ndim == 4 else a


class TestBatchNormTrainForwardMatchesFrozen:
    @pytest.mark.parametrize("n", [1, 2, 7])
    @pytest.mark.parametrize("shape", [s[1:] for s in ACTIVATION_SHAPES])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_and_running_buffers_bit_identical(self, n, shape, dtype):
        rng = np.random.default_rng(14)
        x = (rng.standard_normal((n, *shape)) * 2 + 0.7).astype(dtype)
        c = shape[0]
        gamma = rng.uniform(0.5, 1.5, c).astype(dtype)
        beta = rng.standard_normal(c).astype(dtype)
        rm, rv = rng.standard_normal(c).astype(dtype), rng.uniform(0.5, 2.0, c).astype(dtype)
        rm_new, rv_new = rm.copy(), rv.copy()
        out = batch_norm(Tensor(_to_layout(x)), Tensor(gamma), Tensor(beta), rm_new, rv_new, training=True)
        want = _old_bn_train_forward(x, gamma, beta, rm, rv)
        assert out.data.dtype == want.dtype
        assert _to_layout(out.data).tobytes() == want.tobytes()
        assert rm_new.tobytes() == rm.tobytes()
        assert rv_new.tobytes() == rv.tobytes()


class TestBatchNormMatchesSampleMajor:
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("n", [1, 7, 256])
    @pytest.mark.parametrize("shape", [s[1:] for s in ACTIVATION_SHAPES])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_backward_and_buffers_bit_identical(self, training, n, shape, dtype):
        rng = np.random.default_rng(23)
        x = (rng.standard_normal((n, *shape)) * 2 + 0.7).astype(dtype)
        g = rng.standard_normal((n, *shape)).astype(dtype)
        c = shape[0]
        gamma = rng.uniform(0.5, 1.5, c).astype(dtype)
        beta = rng.standard_normal(c).astype(dtype)
        rm, rv = rng.standard_normal(c).astype(dtype), rng.uniform(0.5, 2.0, c).astype(dtype)
        results = []
        for op, layout in ((batch_norm, _to_layout), (_nchw_batch_norm, np.asarray)):
            tx = Tensor(layout(x), requires_grad=True)
            tg, tb = Tensor(gamma.copy(), requires_grad=True), Tensor(beta.copy(), requires_grad=True)
            rm_t, rv_t = rm.copy(), rv.copy()
            out = op(tx, tg, tb, rm_t, rv_t, training=training)
            _run_backward(out, layout(g))
            results.append((layout(out.data), layout(tx.grad), tg.grad, tb.grad, rm_t, rv_t))
        for name, got, want in zip(("out", "dx", "dgamma", "dbeta", "running_mean", "running_var"), *results):
            assert got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name

    def test_awkward_values_bit_identical(self):
        rng = np.random.default_rng(24)
        x = _awkward(rng, (7, 54, 6, 20), np.float32)
        x.flat[4] = 1.0  # a NaN would make every statistic NaN
        gamma, beta = rng.uniform(0.5, 1.5, 54).astype(np.float32), np.zeros(54, np.float32)
        outs = []
        for op, layout in ((batch_norm, _to_layout), (_nchw_batch_norm, np.asarray)):
            rm, rv = np.zeros(54, np.float32), np.ones(54, np.float32)
            outs.append((layout(op(Tensor(layout(x)), Tensor(gamma), Tensor(beta), rm, rv, True).data), rm, rv))
        for got, want in zip(*outs):
            assert got.tobytes() == want.tobytes()


class TestGlobalAvgPoolMatchesSampleMajor:
    @pytest.mark.parametrize("n", [1, 7, 256])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_and_gradient_bit_identical(self, n, dtype):
        rng = np.random.default_rng(25)
        x = rng.standard_normal((n, 167, 2, 16)).astype(dtype)
        g = rng.standard_normal((n, 167)).astype(dtype)
        new_x, old_x = Tensor(_swap01(x), requires_grad=True), Tensor(x.copy(), requires_grad=True)
        new, old = global_avg_pool(new_x), _nchw_global_avg_pool(old_x)
        assert new.data.shape == (n, 167) and new.data.flags["C_CONTIGUOUS"]
        _run_backward(new, g)
        _run_backward(old, g)
        assert new.data.tobytes() == old.data.tobytes()
        assert new_x.grad.flags["C_CONTIGUOUS"]
        assert _swap01(new_x.grad).tobytes() == old_x.grad.tobytes()


class TestDropoutDrawMatchesSampleMajor:
    @pytest.mark.parametrize("shape", ACTIVATION_SHAPES)
    def test_same_elements_kept(self, shape):
        rng = np.random.default_rng(26)
        x = rng.standard_normal(shape).astype(np.float32)
        g = rng.standard_normal(shape).astype(np.float32)
        results = []
        for op, layout in ((dropout, _to_layout), (_nchw_dropout, np.asarray)):
            t = Tensor(layout(x), requires_grad=True)
            draw = np.random.default_rng(7)
            out = op(t, draw)
            _run_backward(out, layout(g))
            results.append((layout(out.data), layout(t.grad), draw.random()))
        (got_out, got_dx, got_next), (want_out, want_dx, want_next) = results
        assert got_out.tobytes() == want_out.tobytes()
        assert got_dx.tobytes() == want_dx.tobytes()
        assert got_next == want_next  # the same number of draws


class TestAdaBnMatchesFrozenPrefixPasses:
    @pytest.mark.parametrize("build, shape", [
        (build_spectrogram_convnet, CONVNET_INPUT_SHAPE),
        (build_tsd_dnn, (385,)),
    ], ids=["convnet", "tsd_dnn"])
    def test_stats_bit_identical(self, build, shape):
        # 600 rows: one full 512-row batch and a short one.
        rng = np.random.default_rng(15)
        model = build(11, seed=3)
        x = (rng.standard_normal((600, *shape)) * 2 + 0.3).astype(np.float32)
        got = adabn_adapt(model, x).state_arrays()
        want = _old_adabn_adapt(model, x).state_arrays()
        assert sorted(got) == sorted(want)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name


def _convnet_task(n=72):
    rng = np.random.default_rng(27)
    x = (rng.standard_normal((n, *CONVNET_INPUT_SHAPE)) * 2 + 0.3).astype(np.float32)
    y = np.arange(n) % 11
    x_tgt = (rng.standard_normal((n, *CONVNET_INPUT_SHAPE)) * 2 + 0.6).astype(np.float32)
    return x, y, x_tgt


class TestConvNetMatchesSampleMajorPath:
    """The whole ConvNet on channel-major ops against the same code run on the
    frozen sample-major ops."""

    def _both(self, fn):
        with pytest.MonkeyPatch.context() as mp:
            _install_sample_major(mp)
            want = fn()
        return fn(), want

    def test_adabn_stats_and_predictions_bit_identical(self):
        x, _, x_tgt = _convnet_task(600)
        model = build_spectrogram_convnet(11, seed=4)

        def run():
            adapted = adabn_adapt(model, x_tgt)
            return adapted.state_arrays(), adapted.predict_probs(x)

        (got, got_p), (want, want_p) = self._both(run)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name
        assert got_p.tobytes() == want_p.tobytes()

    def test_input_gradient_bit_identical(self):
        # The VAT probe's path: an eval-mode float64 input gradient.
        x, _, _ = _convnet_task(5)
        model = build_spectrogram_convnet(11, seed=5)

        def run():
            probe = Tensor(x.astype(np.float64), requires_grad=True)
            ad.mean_all(ad.mul(model.logits(probe), 0.5)).backward()
            return probe.grad

        got, want = self._both(run)
        assert got.flags["C_CONTIGUOUS"]
        assert got.tobytes() == want.tobytes()

    def test_fit_dann_adabn_saves_same_bytes(self, tmp_path):
        x, y, x_tgt = _convnet_task()
        cfg = default_train_config("spectrogram_convnet", max_epochs=2, batch_size=32, seed=6)

        def run():
            model = build_spectrogram_convnet(11, seed=6)
            fit(model, x, y, cfg)
            model, _ = dann_train(model, x, y, x_tgt, 0.1, cfg)
            path = tmp_path / "model.bin"
            save_network(adabn_adapt(model, x_tgt), path)
            return path.read_bytes()

        got, want = self._both(run)
        assert got == want
