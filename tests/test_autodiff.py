"""Finite-difference gradient checks for every op and layer type.

All checks run in 64-bit mode with central differences (h = 1e-3) and demand
relative error <= 1e-4 on sampled coordinates.
"""

import numpy as np
import pytest

from semgcal import UsageError
from semgcal.autodiff import (
    Tensor,
    _channel_major,
    batch_norm,
    concat,
    conv2d,
    cross_entropy,
    dropout,
    entropy_of_softmax,
    exp,
    global_avg_pool,
    gradient_reversal,
    kl_to_fixed,
    leaky_relu,
    linear,
    log_softmax,
    mean_all,
    mul,
    softmax,
    sub,
    sum_all,
    sum_axis,
)

H = 1e-3
REL_TOL = 1e-4


def numeric_grad(loss_fn, arrays, which, idx, h=H):
    """Central finite difference of loss_fn at arrays[which].flat[idx]."""
    def eval_at(delta):
        perturbed = [a.copy() for a in arrays]
        perturbed[which].flat[idx] += delta
        return loss_fn(perturbed)
    return (eval_at(h) - eval_at(-h)) / (2 * h)


def check_gradients(loss_fn, arrays, n_samples=40, seed=0, rel_tol=REL_TOL):
    """Compare autodiff gradients of loss_fn against central differences.

    loss_fn(list of ndarrays) must rebuild the graph from scratch and return
    either a float (for the numeric path) or the loss Tensor plus the list of
    parameter Tensors (for the autodiff path) depending on `as_graph`.
    """
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = loss_fn([t.data for t in tensors], tensors)
    loss.backward()
    rng = np.random.default_rng(seed)
    checked = 0
    for which, t in enumerate(tensors):
        size = t.data.size
        take = min(n_samples, size)
        for idx in rng.choice(size, size=take, replace=False):
            ad_g = t.grad.flat[idx] if t.grad is not None else 0.0
            fd_g = numeric_grad(lambda arrs: float(loss_fn(arrs, None).data), arrays, which, idx)
            denom = max(abs(ad_g), abs(fd_g))
            if denom < 1e-8:
                continue
            rel = abs(ad_g - fd_g) / denom
            assert rel <= rel_tol, f"param {which} coord {idx}: ad={ad_g} fd={fd_g} rel={rel}"
            checked += 1
    return checked


def _wrap(arrays, tensors):
    """loss_fn helper: when tensors is None, build fresh constant-graph tensors."""
    if tensors is None:
        return [Tensor(a, requires_grad=True) for a in arrays]
    return tensors


class TestOpGradients:
    def test_linear(self):
        rng = np.random.default_rng(1)
        x, w, b = rng.standard_normal((5, 4)), rng.standard_normal((3, 4)), rng.standard_normal(3)

        def loss_fn(arrays, tensors):
            tx, tw, tb = _wrap(arrays, tensors)
            return mean_all(mul(linear(tx, tw, tb), linear(tx, tw, tb)))

        assert check_gradients(loss_fn, [x, w, b]) > 0

    def test_reductions(self):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal((4, 6)), rng.standard_normal((4, 6))

        def loss_fn(arrays, tensors):
            ta, tb = _wrap(arrays, tensors)
            prod = mul(ta, tb)
            return sub(mean_all(mul(prod, prod)), sum_all(sum_axis(prod, axis=1)))

        assert check_gradients(loss_fn, [a, b]) > 0

    def test_conv2d(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 6, 7)).transpose(1, 0, 2, 3).copy()  # channel-major
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)

        def loss_fn(arrays, tensors):
            tx, tw, tb = _wrap(arrays, tensors)
            out = conv2d(tx, tw, tb)
            return mean_all(mul(out, out))

        assert check_gradients(loss_fn, [x, w, b]) > 0

    @pytest.mark.parametrize("kernel", [(2, 3), (1, 1)], ids=["2x3", "1x1"])
    def test_conv2d_non_square_and_pointwise_kernels(self, kernel):
        rng = np.random.default_rng(30)
        x = rng.standard_normal((2, 3, 5, 6)).transpose(1, 0, 2, 3).copy()  # channel-major
        w = rng.standard_normal((4, 3, *kernel))
        b = rng.standard_normal(4)

        def loss_fn(arrays, tensors):
            tx, tw, tb = _wrap(arrays, tensors)
            out = conv2d(tx, tw, tb)
            return mean_all(mul(out, out))

        assert check_gradients(loss_fn, [x, w, b]) > 0

    def test_batch_norm_train_mode(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((8, 5))
        gamma = rng.uniform(0.5, 1.5, 5)
        beta = rng.standard_normal(5)

        def loss_fn(arrays, tensors):
            tx, tg, tb = _wrap(arrays, tensors)
            out = batch_norm(tx, tg, tb, np.zeros(5), np.ones(5), training=True)
            return mean_all(mul(out, out))

        assert check_gradients(loss_fn, [x, gamma, beta]) > 0

    def test_batch_norm_train_mode_conv(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 4, 5, 2)).transpose(1, 0, 2, 3).copy()  # channel-major
        gamma = rng.uniform(0.5, 1.5, 4)
        beta = rng.standard_normal(4)

        def loss_fn(arrays, tensors):
            tx, tg, tb = _wrap(arrays, tensors)
            out = batch_norm(tx, tg, tb, np.zeros(4), np.ones(4), training=True)
            return mean_all(mul(out, out))

        assert check_gradients(loss_fn, [x, gamma, beta]) > 0

    def test_channel_major_input_gradient(self):
        # The sample-major input of a conv stack, through its one transpose.
        rng = np.random.default_rng(31)
        x = rng.standard_normal((2, 3, 5, 6))
        w = rng.standard_normal((4, 3, 2, 2))

        def loss_fn(arrays, tensors):
            tx, tw = _wrap(arrays, tensors)
            out = conv2d(_channel_major(tx), tw)
            return mean_all(mul(out, out))

        assert check_gradients(loss_fn, [x, w]) > 0

    def test_batch_norm_eval_mode(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((6, 4))
        gamma = rng.uniform(0.5, 1.5, 4)
        beta = rng.standard_normal(4)
        rm, rv = rng.standard_normal(4), rng.uniform(0.5, 2.0, 4)

        def loss_fn(arrays, tensors):
            tx, tg, tb = _wrap(arrays, tensors)
            out = batch_norm(tx, tg, tb, rm.copy(), rv.copy(), training=False)
            return mean_all(mul(out, out))

        assert check_gradients(loss_fn, [x, gamma, beta]) > 0

    def test_leaky_relu(self):
        rng = np.random.default_rng(7)
        # keep inputs away from the kink at zero
        x = rng.uniform(0.2, 1.5, (6, 5)) * rng.choice([-1.0, 1.0], (6, 5))

        def loss_fn(arrays, tensors):
            (tx,) = _wrap(arrays, tensors)
            return mean_all(mul(leaky_relu(tx, 0.1), leaky_relu(tx, 0.1)))

        assert check_gradients(loss_fn, [x]) > 0

    def test_dropout_disabled_is_identity_with_gradient(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 5))

        def loss_fn(arrays, tensors):
            (tx,) = _wrap(arrays, tensors)
            return mean_all(mul(dropout(tx, 0.0, None), tx))

        assert check_gradients(loss_fn, [x]) > 0

    def test_global_avg_pool(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 4, 2, 5))

        def loss_fn(arrays, tensors):
            (tx,) = _wrap(arrays, tensors)
            out = global_avg_pool(tx)
            return mean_all(mul(out, out))

        assert check_gradients(loss_fn, [x]) > 0

    def test_softmax_cross_entropy(self):
        rng = np.random.default_rng(10)
        logits = rng.standard_normal((6, 7))
        labels = rng.integers(0, 7, 6)

        def loss_fn(arrays, tensors):
            (tl,) = _wrap(arrays, tensors)
            return cross_entropy(tl, labels)

        assert check_gradients(loss_fn, [logits]) > 0

    def test_log_softmax_and_entropy(self):
        rng = np.random.default_rng(11)
        logits = rng.standard_normal((5, 6))

        def loss_fn(arrays, tensors):
            (tl,) = _wrap(arrays, tensors)
            return entropy_of_softmax(tl)

        assert check_gradients(loss_fn, [logits]) > 0

    def test_kl_to_fixed(self):
        rng = np.random.default_rng(12)
        logits = rng.standard_normal((4, 5))
        ref = rng.standard_normal((4, 5))
        shifted = ref - ref.max(axis=1, keepdims=True)
        lp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        p = np.exp(lp)

        def loss_fn(arrays, tensors):
            (tl,) = _wrap(arrays, tensors)
            return kl_to_fixed(p, lp, tl)

        assert check_gradients(loss_fn, [logits]) > 0

    def test_gradient_reversal_forward_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = gradient_reversal(x, 0.7)
        assert np.array_equal(out.data, x.data)

    def test_gradient_reversal_backward_negates(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        loss = sum_all(gradient_reversal(x, 1.0))
        loss.backward()
        np.testing.assert_allclose(x.grad, -1.0)

    def test_gradient_reversal_scaling_finite_difference(self):
        # composite loss through the reversal node: autodiff gradient equals
        # -lambda times the gradient of the same loss without the node
        rng = np.random.default_rng(13)
        x = rng.standard_normal((3, 4))
        w = rng.standard_normal((2, 4))

        def grad_with_lambda(lam):
            tx = Tensor(x.copy(), requires_grad=True)
            tw = Tensor(w.copy(), requires_grad=True)
            out = linear(gradient_reversal(tx, lam) if lam is not None else tx, tw, None)
            mean_all(mul(out, out)).backward()
            return tx.grad

        plain = grad_with_lambda(None)
        np.testing.assert_allclose(grad_with_lambda(0.1), -0.1 * plain, rtol=1e-10)
        np.testing.assert_allclose(grad_with_lambda(1.0), -plain, rtol=1e-10)

    def test_concat_exp_softmax(self):
        rng = np.random.default_rng(14)
        a, b = rng.standard_normal((2, 3)), rng.standard_normal((4, 3))

        def loss_fn(arrays, tensors):
            ta, tb = _wrap(arrays, tensors)
            joined = concat([ta, tb])
            return mean_all(mul(softmax(joined), exp(log_softmax(joined))))

        assert check_gradients(loss_fn, [a, b]) > 0


class TestBackwardContracts:
    def test_sum_of_squares_gradient(self):
        theta = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        loss = sum_all(mul(theta, theta))
        loss.backward()
        np.testing.assert_allclose(theta.grad, 2 * theta.data)

    def test_two_layer_net_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((6, 4))
        w1, b1 = rng.standard_normal((5, 4)), rng.standard_normal(5)
        w2, b2 = rng.standard_normal((3, 5)), rng.standard_normal(3)
        labels = rng.integers(0, 3, 6)

        def loss_fn(arrays, tensors):
            tw1, tb1, tw2, tb2 = _wrap(arrays, tensors)
            h = leaky_relu(linear(Tensor(x), tw1, tb1), 0.1)
            return cross_entropy(linear(h, tw2, tb2), labels)

        checked = check_gradients(loss_fn, [w1, b1, w2, b2], n_samples=10)
        assert checked >= 10

    def test_constant_loss_zero_gradients(self):
        x = Tensor(np.ones((3, 3)), requires_grad=True)
        loss = mul(sum_all(x), 0.0)
        loss.backward()
        np.testing.assert_allclose(x.grad, 0.0)

    def test_backward_on_detached_tensor_raises(self):
        with pytest.raises(UsageError):
            Tensor(np.array(1.0)).backward()

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(UsageError):
            mul(x, x).backward()

    def test_gradient_accumulates_across_backward_calls(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        for _ in range(2):
            sum_all(mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, 2 * 2 * x.data)

    def test_dropout_train_mode_scaling(self):
        rng = np.random.default_rng(16)
        x = Tensor(np.ones((2000, 10)), requires_grad=True)
        out = dropout(x, 0.5, rng)
        kept = out.data[out.data != 0]
        np.testing.assert_allclose(kept, 2.0)  # inverted scaling 1/(1-p)
        assert abs(out.data.mean() - 1.0) < 0.05
