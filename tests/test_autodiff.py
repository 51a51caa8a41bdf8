"""Finite-difference gradient checks for every op and layer type.

All checks run in 64-bit mode with central differences (h = 1e-3) and demand
relative error <= 1e-4 on sampled coordinates.
"""

import tracemalloc
import weakref

import numpy as np
import pytest
from _helpers import graph_sinks, saved_arrays

from semgcal import UsageError
from semgcal.adapt import _domain_loss
from semgcal.autodiff import (
    DROPOUT_P,
    Node,
    Tensor,
    _channel_major,
    _make,
    add,
    batch_norm,
    concat,
    conv2d,
    cross_entropy,
    dropout,
    entropy_of_softmax,
    global_avg_pool,
    gradient_reversal,
    kl_to_fixed,
    leaky_relu,
    linear,
    log_softmax_rows,
    mean_all,
    mul,
    sum_all,
)
from semgcal.nn import BatchNorm, LeakyReLU, build_spectrogram_convnet, build_tsd_dnn

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
            return add(mean_all(mul(prod, prod)), mul(sum_all(prod), -0.5))

        assert check_gradients(loss_fn, [a, b]) > 0

    def test_conv2d(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 6, 7)).transpose(1, 0, 2, 3).copy()  # channel-major
        w = rng.standard_normal((4, 3, 3, 3))

        def loss_fn(arrays, tensors):
            tx, tw = _wrap(arrays, tensors)
            out = conv2d(tx, tw)
            return mean_all(mul(out, out))

        assert check_gradients(loss_fn, [x, w]) > 0

    @pytest.mark.parametrize("kernel", [(2, 3), (1, 1)], ids=["2x3", "1x1"])
    def test_conv2d_non_square_and_pointwise_kernels(self, kernel):
        rng = np.random.default_rng(30)
        x = rng.standard_normal((2, 3, 5, 6)).transpose(1, 0, 2, 3).copy()  # channel-major
        w = rng.standard_normal((4, 3, *kernel))

        def loss_fn(arrays, tensors):
            tx, tw = _wrap(arrays, tensors)
            out = conv2d(tx, tw)
            return mean_all(mul(out, out))

        assert check_gradients(loss_fn, [x, w]) > 0

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
            return mean_all(mul(leaky_relu(tx), leaky_relu(tx)))

        assert check_gradients(loss_fn, [x]) > 0

    def test_dropout_with_a_fixed_draw(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 5))

        def loss_fn(arrays, tensors):
            (tx,) = _wrap(arrays, tensors)
            # a generator seeded afresh per pass: every pass drops the same elements
            return mean_all(mul(dropout(tx, np.random.default_rng(18)), tx))

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
        b = rng.standard_normal(2)

        def grad_with_lambda(lam):
            tx = Tensor(x.copy(), requires_grad=True)
            tw = Tensor(w.copy(), requires_grad=True)
            out = linear(gradient_reversal(tx, lam) if lam is not None else tx, tw, Tensor(b))
            mean_all(mul(out, out)).backward()
            return tx.grad

        plain = grad_with_lambda(None)
        np.testing.assert_allclose(grad_with_lambda(0.1), -0.1 * plain, rtol=1e-10)
        np.testing.assert_allclose(grad_with_lambda(1.0), -plain, rtol=1e-10)

    def test_concat_entropy(self):
        rng = np.random.default_rng(14)
        a, b = rng.standard_normal((2, 3)), rng.standard_normal((4, 3))

        def loss_fn(arrays, tensors):
            ta, tb = _wrap(arrays, tensors)
            joined = concat([ta, tb])
            return add(entropy_of_softmax(joined), mean_all(mul(joined, joined)))

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
            h = leaky_relu(linear(Tensor(x), tw1, tb1))
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
        out = dropout(x, rng)
        kept = out.data[out.data != 0]
        np.testing.assert_allclose(kept, 2.0)  # inverted scaling 1/(1-p)
        assert abs(out.data.mean() - 1.0) < 0.05


def _retaining_backward(loss: Tensor):
    """`Tensor.backward` as it was before the walk released the graph, kept
    as an oracle: every closure runs once, in the same order, and every
    node keeps its gradient, parents and closure."""
    topo, seen, stack = [], set(), [(loss.node, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if isinstance(p, Node) and id(p) not in seen:
                stack.append((p, False))
    loss.node.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node.grad is not None:
            node.backward(node.grad, *node.parents)


def _network(kind: str, seed: int = 0):
    build = {"tsd_dnn": build_tsd_dnn, "spectrogram_convnet": build_spectrogram_convnet}[kind]
    return build(7, seed=seed)


def _step_loss(model, batch: int, seed: int = 0) -> Tensor:
    """The loss of one training step: the gesture cross-entropy of a TSD DNN,
    or a ConvNet DANN step's gesture plus domain loss (two feature passes
    on one tape)."""
    data = np.random.default_rng(seed + 1)
    shape = (batch, *model.input_shape)
    x = data.standard_normal(shape).astype(np.float32)
    y = data.integers(0, 7, batch)
    rng = np.random.default_rng(seed + 2)
    feats = model.features(x, rng=rng)
    loss = cross_entropy(model.head_logits(feats, "gesture"), y)
    if model.kind == "spectrogram_convnet":
        x_tgt = data.standard_normal(shape).astype(np.float32)
        dom, _ = _domain_loss(model, rng, feats, x_tgt, 0.1)
        loss = add(loss, dom)
    return loss


_STEPS = [("tsd_dnn", 64), ("spectrogram_convnet", 8)]


class TestGraphRelease:
    """backward() releases each non-leaf node once its closure has run."""

    @pytest.mark.parametrize("kind, batch", _STEPS)
    def test_non_leaf_nodes_hold_nothing_after_backward(self, kind, batch):
        model = _network(kind)
        loss = _step_loss(model, batch)
        sinks = graph_sinks(loss)
        inner = [s for s in sinks if isinstance(s, Node)]
        leaves = [s for s in sinks if isinstance(s, Tensor)]
        assert len(inner) > 10 and len(inner) + len(leaves) == len(sinks)
        loss.backward()
        for node in inner:
            assert node.grad is None and node.parents == () and node.backward is None and node.released
        # The leaves are the parameters on the tape (a TSD gesture step
        # leaves the domain head off), and they keep their gradients.
        params = {id(p) for p in model.named_parameters().values()}
        assert leaves and {id(t) for t in leaves} <= params
        assert all(t.grad is not None for t in leaves)

    @pytest.mark.parametrize("kind, batch", _STEPS)
    def test_leaf_gradients_equal_the_retaining_walk(self, kind, batch):
        model, oracle_model = _network(kind), _network(kind)
        loss, oracle_loss = _step_loss(model, batch), _step_loss(oracle_model, batch)
        np.testing.assert_array_equal(loss.data, oracle_loss.data)
        loss.backward()
        _retaining_backward(oracle_loss)
        oracle = oracle_model.named_parameters()
        with_grads = 0
        for name, p in model.named_parameters().items():
            assert (p.grad is None) == (oracle[name].grad is None), name
            if p.grad is not None:
                np.testing.assert_array_equal(p.grad, oracle[name].grad, err_msg=name)
                assert p.grad.dtype == oracle[name].grad.dtype
                with_grads += 1
        assert with_grads >= 8

    def test_second_backward_raises_and_leaves_gradients(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        z = sum_all(mul(leaky_relu(x), leaky_relu(x)))
        z.backward()
        np.testing.assert_allclose(x.grad, [2.0, -0.04])
        first = x.grad.copy()
        with pytest.raises(UsageError, match="released by an earlier backward"):
            z.backward()
        np.testing.assert_array_equal(x.grad, first)

    def test_backward_through_a_released_node_raises(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        h = leaky_relu(x)
        sum_all(h).backward()
        first = x.grad.copy()
        with pytest.raises(UsageError, match="released by an earlier backward"):
            sum_all(mul(h, h)).backward()
        np.testing.assert_array_equal(x.grad, first)

    def test_leaf_loss_keeps_its_gradient(self):
        theta = Tensor(np.array(3.0), requires_grad=True)
        theta.backward()
        theta.backward()
        np.testing.assert_array_equal(theta.grad, 1.0)

    def test_convnet_dann_step_holds_only_the_parameter_gradients(self):
        model = _network("spectrogram_convnet")
        _step_loss(model, 32).backward()  # first-call allocations stay out of the measurement
        model.zero_grad()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = _step_loss(model, 32, seed=1)
            loss.backward()
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert loss.data.size == 1
        grads = sum(p.grad.nbytes for p in model.named_parameters().values())
        assert held <= grads + 64 * 1024


class TestTapeKeepsOnlyWhatBackwardReads:
    """A node holds the arrays its closure reads, never its input or output
    value, so an interior activation lives only while a caller holds it."""

    @pytest.mark.parametrize("kind, batch", _STEPS)
    def test_bn_and_leaky_relu_values_are_freed_while_the_graph_lives(self, kind, batch, monkeypatch):
        refs = []

        def watched(call, with_input):
            def wrapper(layer, x, rng):
                out = call(layer, x, rng)
                if with_input:
                    refs.append(weakref.ref(x.data))
                refs.append(weakref.ref(out.data))
                return out
            return wrapper

        monkeypatch.setattr(BatchNorm, "__call__", watched(BatchNorm.__call__, True))
        monkeypatch.setattr(LeakyReLU, "__call__", watched(LeakyReLU.__call__, False))
        model = _network(kind)
        loss = _step_loss(model, batch)
        n_blocks = len(model.bn_layers())
        # Two feature passes for the ConvNet DANN step, one for the TSD DNN.
        assert len(refs) == 3 * n_blocks * (2 if kind == "spectrogram_convnet" else 1)
        assert all(ref() is None for ref in refs)
        assert not loss.node.released
        loss.backward()
        assert all(p.grad is not None for layer in model.feature_layers for _, p in layer.params())

    def test_convnet_dann_step_memory_at_batch_256(self):
        # Measured with tracemalloc: numpy reports its allocations to it.
        model = _network("spectrogram_convnet")
        _step_loss(model, 32).backward()  # first-call allocations stay out of the measurement
        model.zero_grad()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = _step_loss(model, 256, seed=1)
            held = tracemalloc.get_traced_memory()[0] - base
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        mb = 2**20
        assert held <= 130 * mb, f"{held / mb:.1f} MB held after the forward pass"
        assert peak <= 160 * mb, f"{peak / mb:.1f} MB at the step's peak"


def _float_factor_dropout(a: Tensor, rng: np.random.Generator) -> Tensor:
    """`dropout` as it was when the graph saved the float keep factor, kept
    as an oracle."""
    p = DROPOUT_P
    shape = a.data.shape
    if a.data.ndim == 4:
        kept = (rng.random((shape[1], shape[0], *shape[2:])) >= p).transpose(1, 0, 2, 3)
    else:
        kept = rng.random(shape) >= p
    keep = kept.astype(a.data.dtype, order="C")
    keep /= 1.0 - p

    def backward(g, sa):
        sa._accumulate(g * keep, owned=True)

    return _make(a.data * keep, (a,), backward)


class TestDropoutMask:
    @pytest.mark.parametrize("shape", [(64, 200), (16, 9, 7, 20)], ids=["2d", "channel-major-4d"])
    def test_bits_equal_the_float_factor_version(self, shape):
        data = np.random.default_rng(5)
        x = data.standard_normal(shape).astype(np.float32)
        upstream = data.standard_normal(shape).astype(np.float32)
        outs, grads = [], []
        for op in (dropout, _float_factor_dropout):
            t = Tensor(x.copy(), requires_grad=True)
            out = op(t, np.random.default_rng(6))
            sum_all(mul(out, Tensor(upstream))).backward()
            outs.append(out.data)
            grads.append(t.grad)
        np.testing.assert_array_equal(outs[0], outs[1])
        np.testing.assert_array_equal(grads[0], grads[1])
        assert outs[0].dtype == outs[1].dtype and grads[0].dtype == grads[1].dtype


# The adaptation losses as they were when the tape composed them from
# log_softmax, exp, mul, sum_axis, mean_all, neg and sub, replayed in numpy
# with every cast `_accumulate` made, as an oracle for the single-node ops.
# `weight` is the constant the loss is multiplied by, so the loss node's
# gradient is `weight` cast to the loss's dtype.
def _composite_entropy(logits: np.ndarray, weight: float):
    n, k = logits.shape
    dtype = logits.dtype
    ls = log_softmax_rows(logits)
    p = np.exp(ls)
    loss = -np.asarray((p * ls).sum(axis=1).mean())
    g_neg = np.array(weight, dtype=dtype)
    g_mean = np.array(-g_neg, dtype=dtype)
    g_rows = np.broadcast_to(g_mean / n, (n,)).astype(dtype)
    g_mul = np.broadcast_to(np.expand_dims(g_rows, 1), (n, k)).astype(dtype)
    g_exp = g_mul * ls  # mul's backward feeds exp's node first,
    g_ls = g_mul * p  # then the log-softmax node,
    g_ls += g_exp * p  # to which exp's backward adds
    return loss, g_ls - p * g_ls.sum(axis=1, keepdims=True)


def _composite_kl(p_fixed: np.ndarray, logp_fixed: np.ndarray, logits: np.ndarray, weight: float):
    n, k = logits.shape
    ls = log_softmax_rows(logits)
    loss = np.asarray((p_fixed * logp_fixed - p_fixed * ls).sum(axis=1).mean())
    g_mean = np.array(weight, dtype=loss.dtype)
    g_rows = np.broadcast_to(g_mean / n, (n,)).astype(loss.dtype)
    g_sub = np.broadcast_to(np.expand_dims(g_rows, 1), (n, k)).astype(loss.dtype)
    g_mul = -g_sub
    g_ls = np.array(g_mul * p_fixed, dtype=logits.dtype)
    return loss, g_ls - np.exp(ls) * g_ls.sum(axis=1, keepdims=True)


def _fixed_distribution(rng, shape, dtype):
    lp = log_softmax_rows(rng.standard_normal(shape).astype(dtype))
    return np.exp(lp), lp


_DTYPES = [(np.float32, np.float32), (np.float64, np.float64), (np.float64, np.float32)]
_DTYPE_IDS = ["float32", "float64", "float64-teacher-float32-logits"]


class TestAdaptationLossOps:
    """entropy_of_softmax and kl_to_fixed are one node each, with the bits of
    the composites they replaced."""

    WEIGHT = 0.01

    def _weighted_grad(self, loss_of, logits):
        t = Tensor(logits.copy(), requires_grad=True)
        loss = loss_of(t)
        mul(loss, self.WEIGHT).backward()
        return loss.data, t.grad

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_entropy_bits_equal_the_composite(self, dtype):
        logits = (3.0 * np.random.default_rng(20).standard_normal((37, 11))).astype(dtype)
        loss, grad = self._weighted_grad(entropy_of_softmax, logits)
        want_loss, want_grad = _composite_entropy(logits, self.WEIGHT)
        assert loss.dtype == want_loss.dtype == grad.dtype == want_grad.dtype == dtype
        assert np.array_equal(loss, want_loss) and np.array_equal(grad, want_grad)

    @pytest.mark.parametrize("fixed_dtype, logits_dtype", _DTYPES, ids=_DTYPE_IDS)
    def test_kl_bits_equal_the_composite(self, fixed_dtype, logits_dtype):
        rng = np.random.default_rng(21)
        p, lp = _fixed_distribution(rng, (37, 11), fixed_dtype)
        logits = (3.0 * rng.standard_normal((37, 11))).astype(logits_dtype)
        loss, grad = self._weighted_grad(lambda t: kl_to_fixed(p, lp, t), logits)
        want_loss, want_grad = _composite_kl(p, lp, logits, self.WEIGHT)
        assert loss.dtype == want_loss.dtype == np.result_type(fixed_dtype, logits_dtype)
        assert grad.dtype == want_grad.dtype == logits_dtype
        assert np.array_equal(loss, want_loss) and np.array_equal(grad, want_grad)

    def test_mixed_dtype_kl_matches_finite_differences(self):
        # A float64 teacher against float32 logits, as DIRT-T runs it: the
        # float32 gradient against central differences of the float64 loss.
        rng = np.random.default_rng(22)
        p, lp = _fixed_distribution(rng, (5, 6), np.float64)
        logits = rng.standard_normal((5, 6)).astype(np.float32)
        t = Tensor(logits.copy(), requires_grad=True)
        kl_to_fixed(p, lp, t).backward()
        assert t.grad.dtype == np.float32
        fd = np.empty(logits.shape)
        for idx in np.ndindex(logits.shape):
            fd[idx] = numeric_grad(lambda arrs: float(kl_to_fixed(p, lp, Tensor(arrs[0])).data),
                                   [logits.astype(np.float64)], 0, np.ravel_multi_index(idx, logits.shape))
        np.testing.assert_allclose(t.grad, fd, rtol=REL_TOL, atol=1e-6)

    @pytest.mark.parametrize("loss_name", ["entropy", "kl"])
    def test_one_node_holding_only_logits_sized_arrays(self, loss_name):
        rng = np.random.default_rng(23)
        x, w, b = (Tensor(a, requires_grad=True) for a in
                   (rng.standard_normal((9, 4)), rng.standard_normal((5, 4)), rng.standard_normal(5)))
        logits = linear(x, w, b)
        p, lp = _fixed_distribution(rng, (9, 5), np.float64)
        loss = entropy_of_softmax(logits) if loss_name == "entropy" else kl_to_fixed(p, lp, logits)
        nodes = [s for s in graph_sinks(loss) if isinstance(s, Node)]
        assert len(nodes) == len([s for s in graph_sinks(logits) if isinstance(s, Node)]) + 1
        assert loss.node.parents == (logits.node,)
        cells = [c.cell_contents for c in loss.node.backward.__closure__]
        assert not any(isinstance(v, (Tensor, Node)) for v in cells)
        saved = saved_arrays(loss.node)
        assert saved and all(a.shape == (9, 5) for a in saved)
