"""Minimal reverse-mode automatic differentiation on numpy arrays.

A `Tensor` wraps an ndarray and records the operations that produced it;
calling `backward()` on a scalar loss walks the tape in reverse topological
order and accumulates gradients into every reachable tensor that requires
them. Only the operations needed by the two network architectures and the
adaptation losses are implemented.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

from .errors import ParameterError, ShapeError, UsageError

_state = threading.local()


@contextlib.contextmanager
def no_grad():
    """Disable tape recording, e.g. for inference or statistics collection.

    The flag is thread-local so concurrent experiment cells cannot switch
    each other's recording off.
    """
    prev = getattr(_state, "grad_enabled", True)
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


def grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g: np.ndarray, owned: bool = False):
        """Add `g` to this tensor's gradient.

        `owned` says the caller created `g` for this call and holds it nowhere
        else, so a first gradient of the tensor's dtype is `g` itself. Any
        other array, such as an output gradient passed through unchanged or a
        view of one, is copied: no two gradients ever share memory.
        """
        if self.grad is None:
            if owned and type(g) is np.ndarray and g.dtype == self.data.dtype:
                self.grad = g
            else:
                self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad += g

    def backward(self):
        if self.data.size != 1:
            raise UsageError("backward() requires a scalar loss")
        if self._backward is None and not self.requires_grad:
            raise UsageError("backward() on a tensor detached from any recorded graph")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if getattr(_state, "grad_enabled", True) and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a gradient back to `shape` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def backward(g):
        if a.requires_grad:
            ga = _unbroadcast(g, a.data.shape)
            a._accumulate(ga, owned=ga is not g)
        if b.requires_grad:
            gb = _unbroadcast(g, b.data.shape)
            b._accumulate(gb, owned=gb is not g)

    return _make(a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def backward(g):
        if a.requires_grad:
            ga = _unbroadcast(g, a.data.shape)
            a._accumulate(ga, owned=ga is not g)
        if b.requires_grad:
            b._accumulate(-_unbroadcast(g, b.data.shape), owned=True)

    return _make(a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape), owned=True)
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape), owned=True)

    return _make(a.data * b.data, (a, b), backward)


def neg(a) -> Tensor:
    a = _as_tensor(a)

    def backward(g):
        a._accumulate(-g, owned=True)

    return _make(-a.data, (a,), backward)


def exp(a) -> Tensor:
    a = _as_tensor(a)
    out_data = np.exp(a.data)

    def backward(g):
        a._accumulate(g * out_data, owned=True)

    return _make(out_data, (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    old_shape = a.data.shape

    def backward(g):
        a._accumulate(g.reshape(old_shape))

    return _make(a.data.reshape(shape), (a,), backward)


def concat(tensors: list[Tensor]) -> Tensor:
    """The tensors stacked along axis 0 (rows)."""
    offsets = np.cumsum([0] + [len(t.data) for t in tensors])

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t._accumulate(g[lo:hi])

    return _make(np.concatenate([t.data for t in tensors], axis=0), tuple(tensors), backward)


def sum_all(a: Tensor) -> Tensor:
    def backward(g):
        a._accumulate(np.broadcast_to(g, a.data.shape).astype(a.data.dtype), owned=True)

    return _make(np.asarray(a.data.sum()), (a,), backward)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size

    def backward(g):
        a._accumulate(np.broadcast_to(g / n, a.data.shape).astype(a.data.dtype), owned=True)

    return _make(np.asarray(a.data.mean()), (a,), backward)


def sum_axis(a: Tensor, axis: int) -> Tensor:
    def backward(g):
        g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.data.shape).astype(a.data.dtype), owned=True)

    return _make(a.data.sum(axis=axis), (a,), backward)


def leaky_relu(a: Tensor, slope: float = 0.1) -> Tensor:
    """max(a, slope * a), which is the leaky ReLU for a slope in [0, 1]."""
    if not 0.0 <= slope <= 1.0:
        raise ParameterError(f"leaky ReLU slope must be in [0, 1], got {slope}")

    data = a.data

    def backward(g):
        # g times 1 or slope, looked up per element: the bits of
        # np.where(data > 0, g, slope * g) without a branch per element.
        factor = np.array([slope, 1.0], dtype=g.dtype).take((data > 0).view(np.uint8))
        a._accumulate(g * factor, owned=True)

    return _make(np.maximum(data, slope * data), (a,), backward)


def dropout(a: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: keep with probability 1-p and scale by 1/(1-p).

    A 4-D input is channel-major (C, N, H, W). Its uniforms are drawn in the
    sample-major shape (N, C, H, W) and read transposed, so every element
    keeps the draw it has in the sample-major layout.
    """
    if p <= 0.0:
        return a
    shape = a.data.shape
    if a.data.ndim == 4:
        kept = (rng.random((shape[1], shape[0], *shape[2:])) >= p).transpose(1, 0, 2, 3)
    else:
        kept = rng.random(shape) >= p
    keep = kept.astype(a.data.dtype, order="C")
    keep /= 1.0 - p

    def backward(g):
        a._accumulate(g * keep, owned=True)

    return _make(a.data * keep, (a,), backward)


def gradient_reversal(a: Tensor, lambda_d: float = 1.0) -> Tensor:
    """Identity in the forward pass; scales the gradient by -lambda_d in the backward pass."""

    def backward(g):
        a._accumulate(-lambda_d * g, owned=True)

    return _make(a.data, (a,), backward)


def linear(x: Tensor, w: Tensor, b: Tensor | None) -> Tensor:
    """x @ w.T + b with w of shape (out, in)."""

    def backward(g):
        if x.requires_grad:
            x._accumulate(g @ w.data, owned=True)
        if w.requires_grad:
            w._accumulate(g.T @ x.data, owned=True)
        if b is not None and b.requires_grad:
            b._accumulate(g.sum(axis=0), owned=True)

    parents = (x, w) if b is None else (x, w, b)
    out_data = x.data @ w.data.T
    if b is not None:
        out_data = out_data + b.data
    return _make(out_data, parents, backward)


def _chan_sum(a: np.ndarray) -> np.ndarray:
    """Per-channel sums: over axis 0 of an (N, C) array, and over every axis
    but the first of a channel-major (C, N, ...) one.

    Channel-major sums are added in the order numpy uses for the sample-major
    `(N, C, H, W).sum(axis=(0, 2, 3))`: a pairwise sum over each sample's
    contiguous H*W positions, then the N partial sums one after another. One
    reduce over the contiguous (C, N*H*W) rows would pair the samples'
    values differently and change the bits.
    """
    if a.ndim == 2:
        return np.add.reduce(a, axis=0)
    c, n = a.shape[:2]
    per_sample = np.add.reduce(a.reshape(c, n, -1), axis=2)
    return np.add.reduce(np.ascontiguousarray(per_sample.T), axis=0)


def _channel_major(x: Tensor) -> Tensor:
    """(N, C, H, W) -> the channel-major view (C, N, H, W) the conv stack takes.

    The backward pass hands the input a sample-major copy of the gradient.
    """

    def backward(g):
        x._accumulate(g.transpose(1, 0, 2, 3).copy(), owned=True)

    return _make(x.data.transpose(1, 0, 2, 3), (x,), backward)


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Valid (no padding), stride-1 2-D convolution via channel-major im2col.

    x: (C, N, H, W); w: (O, C, kh, kw) -> (O, N, H - kh + 1, W - kw + 1).
    Activations stay channel-major through the whole conv stack (Dumoulin &
    Visin 2016), so neither pass transposes them.

    The columns are gathered as `cols_t` of shape (C*kh*kw, N*oh*ow): one
    slice copy per kernel offset (i, j) straight from `x`, each moving
    contiguous rows of `ow` values, so the forward pass is the single GEMM
    `w_flat @ cols_t` whose rows are already the output's channels
    (Chellapilla et al. 2006). The backward pass reads the output gradient
    as (O, N*oh*ow), reuses `cols_t` for the kernel gradient and scatters the
    column gradient back with one slab add per kernel offset (col2im). The
    bias gradient is a `_chan_sum`.
    """
    c, n, h, wd = x.data.shape
    o, c2, kh, kw = w.data.shape
    if c != c2:
        raise ShapeError(f"input has {c} channels but kernel expects {c2}")
    oh, ow = h - kh + 1, wd - kw + 1
    if oh < 1 or ow < 1:
        raise ShapeError(f"kernel ({kh},{kw}) larger than input ({h},{wd})")
    cols_t = np.empty((c, kh, kw, n, oh, ow), dtype=x.data.dtype)
    for i in range(kh):
        for j in range(kw):
            cols_t[:, i, j] = x.data[:, :, i : i + oh, j : j + ow]
    cols_t = cols_t.reshape(c * kh * kw, n * oh * ow)
    w_flat = w.data.reshape(o, -1)
    out_data = (w_flat @ cols_t).reshape(o, n, oh, ow)
    if b is not None:
        out_data = out_data + b.data[:, None, None, None]

    def backward(g):
        g_t = g.reshape(o, n * oh * ow)
        if w.requires_grad:
            w._accumulate((g_t @ cols_t.T).reshape(w.data.shape), owned=True)
        if b is not None and b.requires_grad:
            b._accumulate(_chan_sum(g), owned=True)
        if x.requires_grad:
            dcols_t = (w_flat.T @ g_t).reshape(c, kh, kw, n, oh, ow)
            dx = np.zeros_like(x.data)
            for i in range(kh):
                for j in range(kw):
                    dx[:, :, i : i + oh, j : j + ow] += dcols_t[:, i, j]
            x._accumulate(dx, owned=True)

    parents = (x, w) if b is None else (x, w, b)
    return _make(out_data, parents, backward)


def global_avg_pool(x: Tensor) -> Tensor:
    """Channel-major (C, N, H, W) -> sample-major (N, C) mean over the spatial
    axes.

    Each mean is the pairwise sum of one (c, n) plane divided by H*W, the
    arithmetic of `(N, C, H, W).mean(axis=(2, 3))`.
    """
    c, n, h, w = x.data.shape

    def backward(g):
        dx = np.broadcast_to((g.T / (h * w))[:, :, None, None], x.data.shape)
        x._accumulate(dx.astype(x.data.dtype, order="C"), owned=True)

    means = np.add.reduce(x.data.reshape(c, n, h * w), axis=2)
    np.true_divide(means, np.intp(h * w), out=means, casting="unsafe")
    return _make(np.ascontiguousarray(means.T), (x,), backward)


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalization of (N, C) or channel-major (C, N, H, W) input.

    In training mode the batch statistics normalize and the running buffers
    are updated in place with an exponential moving average (population
    variance). In eval mode the running buffers normalize. Every per-channel
    sum is a `_chan_sum`, so channel-major input gets the bits of the same
    values laid out (N, C, H, W).
    """
    shape = (-1, 1, 1, 1) if x.data.ndim == 4 else (1, -1)

    def expand(v):
        return v.reshape(shape)

    m = x.data.size // gamma.data.size

    if training:
        # The arithmetic of x.mean() and x.var() (a sum, then true division
        # by the intp count), with the sum taken once and the centred input
        # reused for both the variance and xhat.
        count = np.intp(m)
        mean = _chan_sum(x.data)
        np.true_divide(mean, count, out=mean, casting="unsafe")
        xhat = x.data - expand(mean)
        var = _chan_sum(np.square(xhat))
        np.true_divide(var, count, out=var, casting="unsafe")
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean.astype(running_mean.dtype)
        running_var *= 1.0 - momentum
        running_var += momentum * var.astype(running_var.dtype)
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat *= expand(inv_std)

        def backward(g):
            if gamma.requires_grad:
                gamma._accumulate(_chan_sum(g * xhat), owned=True)
            if beta.requires_grad:
                beta._accumulate(_chan_sum(g), owned=True)
            if x.requires_grad:
                # (dxhat - mean(dxhat) - xhat * sum(dxhat * xhat) / m) * inv_std
                # (Ioffe & Szegedy 2015), built in place with Python's
                # left-to-right order: the product xhat * sum is divided by m.
                dxhat = g * expand(gamma.data)
                proj = dxhat * xhat
                proj_sum = _chan_sum(proj)
                dxhat_mean = _chan_sum(dxhat)
                np.true_divide(dxhat_mean, count, out=dxhat_mean, casting="unsafe")
                np.multiply(xhat, expand(proj_sum), out=proj)
                proj /= m
                dxhat -= expand(dxhat_mean)
                dxhat -= proj
                dxhat *= expand(inv_std)
                x._accumulate(dxhat, owned=True)

    else:
        inv_std = 1.0 / np.sqrt(running_var.astype(x.data.dtype) + eps)
        xhat = x.data - expand(running_mean.astype(x.data.dtype))
        xhat *= expand(inv_std)

        def backward(g):
            if gamma.requires_grad:
                gamma._accumulate(_chan_sum(g * xhat), owned=True)
            if beta.requires_grad:
                beta._accumulate(_chan_sum(g), owned=True)
            if x.requires_grad:
                x._accumulate(g * expand(gamma.data * inv_std), owned=True)

    out_data = xhat * expand(gamma.data)
    out_data += expand(beta.data)
    return _make(out_data, (x, gamma, beta), backward)


def log_softmax(x: Tensor) -> Tensor:
    """Row-wise log softmax of a (N, K) tensor."""
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    ls = shifted - lse
    probs = np.exp(ls)

    def backward(g):
        x._accumulate(g - probs * g.sum(axis=1, keepdims=True), owned=True)

    return _make(ls, (x,), backward)


def softmax(x: Tensor) -> Tensor:
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        x._accumulate(p * (g - (g * p).sum(axis=1, keepdims=True)), owned=True)

    return _make(p, (x,), backward)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer labels under row-wise softmax."""
    n = logits.data.shape[0]
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    ls = shifted - lse
    loss = -ls[np.arange(n), labels].mean()

    def backward(g):
        probs = np.exp(ls)
        probs[np.arange(n), labels] -= 1.0
        logits._accumulate(g * probs / n, owned=True)

    return _make(np.asarray(loss, dtype=logits.data.dtype), (logits,), backward)


def entropy_of_softmax(logits: Tensor) -> Tensor:
    """Mean Shannon entropy (nats) of the row-wise softmax of `logits`.

    Built from log_softmax so the gradient flows through both the
    probabilities and their logs.
    """
    ls = log_softmax(logits)
    p = exp(ls)
    per_row = sum_axis(mul(p, ls), axis=1)
    return neg(mean_all(per_row))


def kl_to_fixed(p_fixed: np.ndarray, logp_fixed: np.ndarray, logits: Tensor) -> Tensor:
    """Mean KL(p_fixed || softmax(logits)) with p_fixed treated as a constant.

    `logp_fixed` must be the log of `p_fixed` as computed alongside it, so
    that the divergence is exactly zero when `logits` reproduce the same
    distribution bit for bit.
    """
    ls = log_softmax(logits)
    diff = sub(Tensor(p_fixed * logp_fixed), mul(Tensor(p_fixed), ls))
    return mean_all(sum_axis(diff, axis=1))
