"""Shared fixtures: small networks and synthetic cluster tasks for fast tests."""

import numpy as np

from semgcal.autodiff import Node, Tensor
from semgcal.nn import BatchNorm, Dropout, LeakyReLU, Linear, Network


def graph_sinks(loss: Tensor) -> list:
    """Every gradient sink reachable from `loss` on the tape: its `Node`s and
    its leaf `Tensor`s."""
    seen, stack, sinks = set(), [loss.node], []
    while stack:
        s = stack.pop()
        if s is not None and id(s) not in seen:
            seen.add(id(s))
            sinks.append(s)
            if isinstance(s, Node):
                stack.extend(s.parents)
    return sinks


def saved_arrays(node: Node) -> list[np.ndarray]:
    """The arrays a node's backward closure holds, directly or through a
    function it calls (dropout's `times_factor`, batch norm's `expand`)."""
    cells = [c.cell_contents for c in node.backward.__closure__ or ()]
    cells += [c.cell_contents for f in cells if callable(f) for c in getattr(f, "__closure__", None) or ()]
    return [v for v in cells if isinstance(v, np.ndarray)]


def mini_net(in_dim=16, hidden=24, classes=4, seed=0, dropout=False, with_bn=True, dtype=np.float32):
    """A small MLP with the same skeleton as the TSD DNN (one hidden block);
    its dropout layer, at the networks' one rate, is there only if asked for."""
    rng = np.random.default_rng(seed)
    layers = [Linear("fc0", in_dim, hidden, rng, dtype)]
    if with_bn:
        layers.append(BatchNorm("fc0.bn", hidden, dtype))
    layers.append(LeakyReLU())
    if dropout:
        layers.append(Dropout())
    gesture = Linear("gesture_head", hidden, classes, rng, dtype)
    domain = Linear("domain_head", hidden, 2, rng, dtype)
    return Network("tsd_dnn", classes, layers, gesture, domain, (in_dim,))


def cluster_task(seed=0, classes=4, d=16, n_per=40, shift=2.0, n_target=None):
    """Labeled source clusters and an unlabeled target translated by `shift`
    standard deviations along a fixed random direction."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 3.0, (classes, d))
    direction = rng.standard_normal(d)
    direction *= shift / np.linalg.norm(direction)

    def sample(n_per_class, offset):
        xs, ys = [], []
        for c in range(classes):
            xs.append(rng.standard_normal((n_per_class, d)) + centers[c] + offset)
            ys.append(np.full(n_per_class, c))
        x = np.vstack(xs).astype(np.float32)
        y = np.concatenate(ys).astype(np.int64)
        order = rng.permutation(len(x))
        return x[order], y[order]

    x_src, y_src = sample(n_per, np.zeros(d))
    x_tgt, y_tgt = sample(n_target or n_per, direction)
    return x_src, y_src, x_tgt, y_tgt
