"""Minimal reverse-mode automatic differentiation on numpy arrays.

A `Tensor` wraps an ndarray. An op whose inputs need a gradient while
recording is on gives its output a `Node`, the output's place on the tape:
the node holds the op's backward closure, the gradient sinks of its inputs
(`parents`), its own gradient and a `released` flag, but never the output
value. A gradient sink is a leaf `Tensor` (a parameter, or another tensor
created with `requires_grad=True`) or a `Node`, never an interior `Tensor`,
so the tape keeps an activation only where a backward closure reads it, as
PyTorch's autograd does (Paszke et al. 2019). Calling `backward()` on a
scalar loss walks the nodes in reverse topological order; each closure
receives the node's gradient and its input sinks, and accumulates into every
sink that is not None. Only the operations needed by the two network
architectures and the adaptation losses are implemented.

The walk releases the graph as it goes, as autograd does without
`retain_graph`: once a node's closure has run, the node drops its gradient,
its parents and the closure, and with the closure every array the forward
pass saved for it. Only the leaves keep their gradients. So `backward()`
runs once per graph; a second call raises `UsageError`.

What each node keeps, besides scalars, shapes and dtypes:
- `conv2d` and `linear`: the input array and the weight array (`conv2d`
  gathers its im2col columns again from the input);
- `batch_norm`: `xhat`, the `gamma` array and the (C,) `inv_std`;
- `leaky_relu`: a one-byte `input > 0` mask, built only when the op is
  recorded;
- `dropout`: its one-byte keep mask;
- `global_avg_pool`, `_channel_major`, `concat`, `sum_all`, `mean_all`,
  `add` and `gradient_reversal`: nothing activation-sized;
- `mul`: both operand arrays;
- `cross_entropy`, `entropy_of_softmax` and `kl_to_fixed`: the logits' log
  softmax, and the probabilities or the fixed distribution, all (N, K).

An interior activation is therefore freed as soon as the caller drops its
`Tensor`, unless the next op's closure reads it: a ConvNet block keeps its
input, `xhat` and two masks, about 10 bytes per activation element.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

from .errors import ShapeError, UsageError

# The one setting of each layer hyper-parameter, shared by both networks.
LEAKY_SLOPE = 0.1
DROPOUT_P = 0.5
BN_MOMENTUM = 0.1
BN_EPS = 1e-5

_state = threading.local()


@contextlib.contextmanager
def no_grad():
    """Disable tape recording, e.g. for inference or statistics collection.

    The flag is thread-local, as PyTorch's grad mode is: a block switches
    recording off only in the thread that entered it, so a caller's other
    threads keep recording.
    """
    prev = getattr(_state, "grad_enabled", True)
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


class _Sink:
    """What a backward closure accumulates into: a leaf `Tensor` or a `Node`."""

    __slots__ = ("grad",)

    def _accumulate(self, g: np.ndarray, owned: bool = False):
        """Add `g` to this sink's gradient.

        `owned` says the caller created `g` for this call and holds it nowhere
        else, so a first gradient of the sink's dtype is `g` itself. Any
        other array, such as an output gradient passed through unchanged or a
        view of one, is copied: no two gradients ever share memory.
        """
        if self.grad is None:
            if owned and type(g) is np.ndarray and g.dtype == self.dtype:
                self.grad = g
            else:
                self.grad = np.array(g, dtype=self.dtype, copy=True)
        else:
            self.grad += g


class Node(_Sink):
    """A recorded op's output on the tape: its backward closure, the gradient
    sinks of the op's inputs (None where an input needs no gradient), the
    output's dtype and gradient, and whether a walk has released it."""

    __slots__ = ("parents", "backward", "dtype", "released")

    def __init__(self, parents: tuple, backward, dtype):
        self.grad: np.ndarray | None = None
        self.parents = parents
        self.backward = backward
        self.dtype = dtype
        self.released = False


class Tensor(_Sink):
    __slots__ = ("data", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        # The op that produced this tensor, when it was recorded.
        self.node: Node | None = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Accumulate d(self)/d(leaf) into every leaf reachable on the tape.

        Each node is released as soon as its closure has run: its `grad`,
        `parents` and `backward` are cleared, which frees the gradient and
        the arrays the closure saved. The leaves keep their gradients. A
        graph can therefore be walked once; calling `backward()` again on
        it, or on any graph that shares a released node, raises `UsageError`
        before any gradient changes.
        """
        if self.data.size != 1:
            raise UsageError("backward() requires a scalar loss")
        root = self.node
        if root is None:
            if not self.requires_grad:
                raise UsageError("backward() on a tensor detached from any recorded graph")
            self.grad = np.ones_like(self.data)  # a leaf loss is its own gradient
            return
        topo: list[Node] = []
        seen: set[int] = set()
        stack: list[tuple[Node, bool]] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node.released:
                raise UsageError("backward() on a graph already released by an earlier backward()")
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if type(p) is Node and id(p) not in seen:
                    stack.append((p, False))
        root.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node.grad is not None:
                node.backward(node.grad, *node.parents)
            node.grad = None
            node.parents = ()
            node.backward = None
            node.released = True

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def _recorded(inputs: tuple[Tensor, ...]) -> bool:
    """Whether an op on `inputs` goes on the tape: recording is on and some
    input needs a gradient."""
    return getattr(_state, "grad_enabled", True) and any(t.requires_grad for t in inputs)


def _make(data: np.ndarray, inputs: tuple[Tensor, ...], backward) -> Tensor:
    """The op's output `Tensor`, with a `Node` when the op is recorded.

    `backward(g, *sinks)` receives the output gradient and one sink per
    input: the input's node, the input itself if it is a leaf that needs a
    gradient, or None.
    """
    out = Tensor(data)
    if _recorded(inputs):
        out.requires_grad = True
        sinks = tuple(t.node if t.node is not None else (t if t.requires_grad else None) for t in inputs)
        out.node = Node(sinks, backward, out.data.dtype)
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
    a_shape, b_shape = a.data.shape, b.data.shape

    def backward(g, sa, sb):
        if sa is not None:
            ga = _unbroadcast(g, a_shape)
            sa._accumulate(ga, owned=ga is not g)
        if sb is not None:
            gb = _unbroadcast(g, b_shape)
            sb._accumulate(gb, owned=gb is not g)

    return _make(a.data + b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    a_data, b_data = a.data, b.data

    def backward(g, sa, sb):
        if sa is not None:
            sa._accumulate(_unbroadcast(g * b_data, a_data.shape), owned=True)
        if sb is not None:
            sb._accumulate(_unbroadcast(g * a_data, b_data.shape), owned=True)

    return _make(a_data * b_data, (a, b), backward)


def concat(tensors: list[Tensor]) -> Tensor:
    """The tensors stacked along axis 0 (rows)."""
    offsets = np.cumsum([0] + [len(t.data) for t in tensors])

    def backward(g, *sinks):
        for s, lo, hi in zip(sinks, offsets[:-1], offsets[1:]):
            if s is not None:
                s._accumulate(g[lo:hi])

    return _make(np.concatenate([t.data for t in tensors], axis=0), tuple(tensors), backward)


def sum_all(a: Tensor) -> Tensor:
    shape, dtype = a.data.shape, a.data.dtype

    def backward(g, sa):
        sa._accumulate(np.broadcast_to(g, shape).astype(dtype), owned=True)

    return _make(np.asarray(a.data.sum()), (a,), backward)


def mean_all(a: Tensor) -> Tensor:
    n, shape, dtype = a.data.size, a.data.shape, a.data.dtype

    def backward(g, sa):
        sa._accumulate(np.broadcast_to(g / n, shape).astype(dtype), owned=True)

    return _make(np.asarray(a.data.mean()), (a,), backward)


def leaky_relu(a: Tensor) -> Tensor:
    """max(a, LEAKY_SLOPE * a): the leaky ReLU, as the slope is in [0, 1].

    A recorded op keeps the one-byte mask `a > 0`, not `a`; an unrecorded
    one builds no mask.
    """
    data = a.data
    out_data = np.maximum(data, LEAKY_SLOPE * data)
    if not _recorded((a,)):
        return Tensor(out_data)
    positive = (data > 0).view(np.uint8)

    def backward(g, sa):
        # g times 1 or the slope, looked up per element: the bits of
        # np.where(data > 0, g, LEAKY_SLOPE * g) without a branch per element.
        factor = np.array([LEAKY_SLOPE, 1.0], dtype=g.dtype).take(positive)
        sa._accumulate(g * factor, owned=True)

    return _make(out_data, (a,), backward)


def dropout(a: Tensor, rng: np.random.Generator) -> Tensor:
    """Inverted dropout at p = DROPOUT_P: keep with probability 1-p and scale
    by 1/(1-p).

    A 4-D input is channel-major (C, N, H, W). Its uniforms are drawn in the
    sample-major shape (N, C, H, W) and read transposed, so every element
    keeps the draw it has in the sample-major layout.
    """
    shape = a.data.shape
    if a.data.ndim == 4:
        kept = (rng.random((shape[1], shape[0], *shape[2:])) >= DROPOUT_P).transpose(1, 0, 2, 3)
    else:
        kept = rng.random(shape) >= DROPOUT_P
    # The graph saves the one-byte mask. Each pass rebuilds the float factor
    # kept / (1 - p) and multiplies it into its input in place: the bits of
    # x * factor, as multiplication commutes.
    kept = np.ascontiguousarray(kept)
    dtype = a.data.dtype

    def times_factor(x):
        out = kept.astype(dtype)
        out /= 1.0 - DROPOUT_P
        out *= x
        return out

    def backward(g, sa):
        sa._accumulate(times_factor(g), owned=True)

    return _make(times_factor(a.data), (a,), backward)


def gradient_reversal(a: Tensor, lambda_d: float = 1.0) -> Tensor:
    """Identity in the forward pass; scales the gradient by -lambda_d in the backward pass."""

    def backward(g, sa):
        sa._accumulate(-lambda_d * g, owned=True)

    return _make(a.data, (a,), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w.T + b with w of shape (out, in)."""
    x_data, w_data = x.data, w.data

    def backward(g, sx, sw, sb):
        if sx is not None:
            sx._accumulate(g @ w_data, owned=True)
        if sw is not None:
            sw._accumulate(g.T @ x_data, owned=True)
        if sb is not None:
            sb._accumulate(g.sum(axis=0), owned=True)

    return _make(x_data @ w_data.T + b.data, (x, w, b), backward)


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

    def backward(g, sx):
        sx._accumulate(g.transpose(1, 0, 2, 3).copy(), owned=True)

    return _make(x.data.transpose(1, 0, 2, 3), (x,), backward)


def _columns(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """The channel-major im2col matrix `cols_t` of shape (C*kh*kw, N*oh*ow)
    of x (C, N, H, W): one slice copy per kernel offset (i, j), each moving
    contiguous rows of `ow` values."""
    c, n, h, wd = x.shape
    oh, ow = h - kh + 1, wd - kw + 1
    cols_t = np.empty((c, kh, kw, n, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols_t[:, i, j] = x[:, :, i : i + oh, j : j + ow]
    return cols_t.reshape(c * kh * kw, n * oh * ow)


def conv2d(x: Tensor, w: Tensor) -> Tensor:
    """Valid (no padding), stride-1 2-D convolution via channel-major im2col.

    x: (C, N, H, W); w: (O, C, kh, kw) -> (O, N, H - kh + 1, W - kw + 1).
    Activations stay channel-major through the whole conv stack (Dumoulin &
    Visin 2016), so neither pass transposes them.

    The forward pass gathers the columns `cols_t` straight from `x`, so it
    is the single GEMM `w_flat @ cols_t` whose rows are already the output's
    channels (Chellapilla et al. 2006), and drops them. The backward pass
    reads the output gradient as (O, N*oh*ow) and, only when the kernel
    needs a gradient, gathers the columns again from the input array the
    node already holds (Chen et al. 2016 trade this recomputation for
    memory): the same bytes in the same layout, so the kernel gradient
    `g_t @ cols_t.T` has the bits it would have had from saved columns. They
    are freed before the column gradient is scattered back with one slab
    add per kernel offset (col2im). There is no bias: the batch norm that
    follows every convolution absorbs it.
    """
    x_data = x.data
    c, n, h, wd = x_data.shape
    o, c2, kh, kw = w_shape = w.data.shape
    if c != c2:
        raise ShapeError(f"input has {c} channels but kernel expects {c2}")
    oh, ow = h - kh + 1, wd - kw + 1
    if oh < 1 or ow < 1:
        raise ShapeError(f"kernel ({kh},{kw}) larger than input ({h},{wd})")
    w_flat = w.data.reshape(o, -1)
    out_data = (w_flat @ _columns(x_data, kh, kw)).reshape(o, n, oh, ow)

    def backward(g, sx, sw):
        g_t = g.reshape(o, n * oh * ow)
        if sw is not None:
            sw._accumulate((g_t @ _columns(x_data, kh, kw).T).reshape(w_shape), owned=True)
        if sx is not None:
            dcols_t = (w_flat.T @ g_t).reshape(c, kh, kw, n, oh, ow)
            dx = np.zeros_like(x_data)
            for i in range(kh):
                for j in range(kw):
                    dx[:, :, i : i + oh, j : j + ow] += dcols_t[:, i, j]
            sx._accumulate(dx, owned=True)

    return _make(out_data, (x, w), backward)


def global_avg_pool(x: Tensor) -> Tensor:
    """Channel-major (C, N, H, W) -> sample-major (N, C) mean over the spatial
    axes.

    Each mean is the pairwise sum of one (c, n) plane divided by H*W, the
    arithmetic of `(N, C, H, W).mean(axis=(2, 3))`.
    """
    c, n, h, w = shape = x.data.shape
    dtype = x.data.dtype

    def backward(g, sx):
        dx = np.broadcast_to((g.T / (h * w))[:, :, None, None], shape)
        sx._accumulate(dx.astype(dtype, order="C"), owned=True)

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
) -> Tensor:
    """Batch normalization of (N, C) or channel-major (C, N, H, W) input.

    In training mode the batch statistics normalize and the running buffers
    are updated in place with an exponential moving average of momentum
    BN_MOMENTUM (population variance). In eval mode the running buffers
    normalize. Either way BN_EPS is added to the variance. Every per-channel
    sum is a `_chan_sum`, so channel-major input gets the bits of the same
    values laid out (N, C, H, W).
    """
    shape = (-1, 1, 1, 1) if x.data.ndim == 4 else (1, -1)

    def expand(v):
        return v.reshape(shape)

    gamma_data = gamma.data
    m = x.data.size // gamma_data.size

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
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean.astype(running_mean.dtype)
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var.astype(running_var.dtype)
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= expand(inv_std)

        def backward(g, sx, sgamma, sbeta):
            if sgamma is not None:
                sgamma._accumulate(_chan_sum(g * xhat), owned=True)
            if sbeta is not None:
                sbeta._accumulate(_chan_sum(g), owned=True)
            if sx is not None:
                # (dxhat - mean(dxhat) - xhat * sum(dxhat * xhat) / m) * inv_std
                # (Ioffe & Szegedy 2015), built in place with Python's
                # left-to-right order: the product xhat * sum is divided by m.
                dxhat = g * expand(gamma_data)
                proj = dxhat * xhat
                proj_sum = _chan_sum(proj)
                dxhat_mean = _chan_sum(dxhat)
                np.true_divide(dxhat_mean, count, out=dxhat_mean, casting="unsafe")
                np.multiply(xhat, expand(proj_sum), out=proj)
                proj /= m
                dxhat -= expand(dxhat_mean)
                dxhat -= proj
                dxhat *= expand(inv_std)
                sx._accumulate(dxhat, owned=True)

    else:
        inv_std = 1.0 / np.sqrt(running_var.astype(x.data.dtype) + BN_EPS)
        xhat = x.data - expand(running_mean.astype(x.data.dtype))
        xhat *= expand(inv_std)

        def backward(g, sx, sgamma, sbeta):
            if sgamma is not None:
                sgamma._accumulate(_chan_sum(g * xhat), owned=True)
            if sbeta is not None:
                sbeta._accumulate(_chan_sum(g), owned=True)
            if sx is not None:
                sx._accumulate(g * expand(gamma_data * inv_std), owned=True)

    out_data = xhat * expand(gamma_data)
    out_data += expand(beta.data)
    return _make(out_data, (x, gamma, beta), backward)


def log_softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise log softmax of a (N, K) array, shifted by each row's maximum."""
    shifted = x - x.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a (N, K) array, shifted by each row's maximum."""
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer labels under row-wise softmax."""
    n = logits.data.shape[0]
    ls = log_softmax_rows(logits.data)
    loss = -ls[np.arange(n), labels].mean()

    def backward(g, s):
        probs = np.exp(ls)
        probs[np.arange(n), labels] -= 1.0
        s._accumulate(g * probs / n, owned=True)

    return _make(np.asarray(loss, dtype=logits.data.dtype), (logits,), backward)


def entropy_of_softmax(logits: Tensor) -> Tensor:
    """Mean Shannon entropy (nats) of the row-wise softmax of `logits`.

    The gradient flows through both the probabilities and their logs: with
    c = -g / N per element, c * p + (c * ls) * p is the gradient at the log
    softmax `ls`, which its Jacobian takes back to the logits.
    """
    ls = log_softmax_rows(logits.data)
    p = np.exp(ls)
    n = ls.shape[0]

    def backward(g, s):
        c = -g / n
        gl = c * p + (c * ls) * p
        s._accumulate(gl - p * gl.sum(axis=1, keepdims=True), owned=True)

    return _make(-np.asarray((p * ls).sum(axis=1).mean()), (logits,), backward)


def kl_to_fixed(p_fixed: np.ndarray, logp_fixed: np.ndarray, logits: Tensor) -> Tensor:
    """Mean KL(p_fixed || softmax(logits)) with p_fixed treated as a constant.

    `logp_fixed` must be the log of `p_fixed` as computed alongside it, so
    that the divergence is exactly zero when `logits` reproduce the same
    distribution bit for bit. The loss has the dtype `p_fixed` and the
    logits promote to; the gradient at the log softmax, -g / N * p_fixed, is
    cast to the logits' dtype before the Jacobian takes it back to them.
    """
    ls = log_softmax_rows(logits.data)
    n, dtype = ls.shape[0], ls.dtype

    def backward(g, s):
        gl = (-(g / n) * p_fixed).astype(dtype, copy=False)
        s._accumulate(gl - np.exp(ls) * gl.sum(axis=1, keepdims=True), owned=True)

    return _make(np.asarray((p_fixed * logp_fixed - p_fixed * ls).sum(axis=1).mean()), (logits,), backward)
