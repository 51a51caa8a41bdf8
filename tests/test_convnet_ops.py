"""The ConvNet's hot ops against frozen copies of their first implementation.

`conv2d` (row-major im2col), `leaky_relu` (`np.where`), the batch-norm
training forward (`mean` then `var`) and `adabn_adapt` (one prefix pass per
batch-norm layer) are kept here verbatim as oracles. The rewrites do the same
arithmetic in the same order on other layouts, so everything that is not a
GEMM must match bit for bit. A GEMM's summation order may depend on the
operand layout in some BLAS builds, so random-valued convolutions are compared
to 1e-6 relative; integer-valued ones, whose sums are exact in any order, must
match exactly.
"""

import numpy as np
import pytest

from semgcal import ParameterError, adabn_adapt, build_spectrogram_convnet, build_tsd_dnn
from semgcal.autodiff import Tensor, _make, batch_norm, conv2d, leaky_relu, no_grad
from semgcal.nn import CONVNET_CHANNELS, CONVNET_INPUT_SHAPE, BatchNorm, _Ctx


def _old_conv2d(x, w, b=None):
    n, c, h, wd = x.data.shape
    o, c2, kh, kw = w.data.shape
    oh, ow = h - kh + 1, wd - kw + 1
    windows = np.lib.stride_tricks.sliding_window_view(x.data, (kh, kw), axis=(2, 3))
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)
    w_flat = w.data.reshape(o, -1)
    out_data = (cols @ w_flat.T).reshape(n, oh, ow, o).transpose(0, 3, 1, 2)
    if b is not None:
        out_data = out_data + b.data[None, :, None, None]

    def backward(g):
        g_mat = g.transpose(0, 2, 3, 1).reshape(n * oh * ow, o)
        if w.requires_grad:
            w._accumulate((g_mat.T @ cols).reshape(w.data.shape))
        if b is not None and b.requires_grad:
            b._accumulate(g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            dcols = (g_mat @ w_flat).reshape(n, oh, ow, c, kh, kw)
            dx = np.zeros_like(x.data)
            for i in range(kh):
                for j in range(kw):
                    dx[:, :, i : i + oh, j : j + ow] += dcols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
            x._accumulate(dx)

    parents = (x, w) if b is None else (x, w, b)
    return _make(np.ascontiguousarray(out_data), parents, backward)


def _old_leaky_relu(a, slope=0.1):
    mask = a.data > 0
    out_data = np.where(mask, a.data, slope * a.data)

    def backward(g):
        a._accumulate(np.where(mask, g, slope * g))

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
    out.eval()
    ctx = _Ctx(False, None)
    with no_grad():
        for pos, layer in enumerate(out.feature_layers):
            if not isinstance(layer, BatchNorm):
                continue
            total = None
            total_sq = None
            count = 0
            for lo in range(0, len(x), batch_size):
                t = Tensor(x[lo : lo + batch_size])
                for prev in out.feature_layers[:pos]:
                    t = prev(t, ctx)
                a = t.data.astype(np.float64)
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


def _layer_shapes(n):
    """(input, kernel) shapes of the four ConvNet blocks at batch size n."""
    c, h, w = CONVNET_INPUT_SHAPE
    shapes = []
    for o in CONVNET_CHANNELS:
        shapes.append(((n, c, h, w), (o, c, 3, 3)))
        c, h, w = o, h - 2, w - 2
    return shapes


# The four real ConvNet layer shapes, plus a non-square and a 1x1 kernel.
CONV_CASES = [*_layer_shapes(3), ((2, 5, 6, 7), (4, 5, 2, 3)), ((2, 5, 4, 3), (6, 5, 1, 1))]
CONV_IDS = ["block0", "block1", "block2", "block3", "kernel2x3", "kernel1x1"]


def _run_conv(op, x, w, b, g):
    tx, tw = Tensor(x.copy(), requires_grad=True), Tensor(w.copy(), requires_grad=True)
    tb = None if b is None else Tensor(b.copy(), requires_grad=True)
    out = op(tx, tw, tb)
    out._backward(g)
    return out.data, tx.grad, tw.grad, None if tb is None else tb.grad


class TestConv2dMatchesFrozenIm2col:
    @pytest.mark.parametrize("x_shape, w_shape", CONV_CASES, ids=CONV_IDS)
    @pytest.mark.parametrize("with_bias", [False, True], ids=["nobias", "bias"])
    def test_random_values_close(self, x_shape, w_shape, with_bias):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(x_shape).astype(np.float32)
        w = rng.uniform(-0.3, 0.3, w_shape).astype(np.float32)
        b = rng.standard_normal(w_shape[0]).astype(np.float32) if with_bias else None
        oh, ow = x_shape[2] - w_shape[2] + 1, x_shape[3] - w_shape[3] + 1
        g = rng.standard_normal((x_shape[0], w_shape[0], oh, ow)).astype(np.float32)
        new = _run_conv(conv2d, x, w, b, g)
        old = _run_conv(_old_conv2d, x, w, b, g)
        for name, got, want in zip(("out", "dx", "dw", "db"), new, old):
            if want is None:
                assert got is None
                continue
            assert got.shape == want.shape and got.dtype == want.dtype, name
            assert got.flags["C_CONTIGUOUS"], name
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6 * np.abs(want).max(), err_msg=name)

    @pytest.mark.parametrize("x_shape, w_shape", CONV_CASES, ids=CONV_IDS)
    def test_integer_values_bit_identical(self, x_shape, w_shape):
        # Small integers keep every partial sum exact, so any BLAS summation
        # order gives the same bits and only the data movement is compared.
        rng = np.random.default_rng(12)
        x = rng.integers(-3, 4, x_shape).astype(np.float32)
        w = rng.integers(-3, 4, w_shape).astype(np.float32)
        b = rng.integers(-3, 4, w_shape[0]).astype(np.float32)
        oh, ow = x_shape[2] - w_shape[2] + 1, x_shape[3] - w_shape[3] + 1
        g = rng.integers(-3, 4, (x_shape[0], w_shape[0], oh, ow)).astype(np.float32)
        for name, got, want in zip(("out", "dx", "dw", "db"),
                                   _run_conv(conv2d, x, w, b, g), _run_conv(_old_conv2d, x, w, b, g)):
            np.testing.assert_array_equal(got, want, err_msg=name)


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
            out = op(t, 0.1)
            out._backward(g)
            results.append((out.data, t.grad))
        for got, want in zip(*results):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("slope", [-0.1, 1.5])
    def test_slope_outside_unit_interval_rejected(self, slope):
        with pytest.raises(ParameterError):
            leaky_relu(Tensor(np.ones(3)), slope)


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
        out = batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), rm_new, rv_new, training=True)
        want = _old_bn_train_forward(x, gamma, beta, rm, rv)
        assert out.data.dtype == want.dtype
        assert out.data.tobytes() == want.tobytes()
        assert rm_new.tobytes() == rm.tobytes()
        assert rv_new.tobytes() == rv.tobytes()


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
