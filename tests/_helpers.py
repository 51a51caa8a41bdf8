"""Shared fixtures: small networks and synthetic cluster tasks for fast tests."""

import numpy as np

from semgcal.autodiff import Tensor
from semgcal.nn import BatchNorm, Dropout, LeakyReLU, Linear, Network


def graph_tensors(loss: Tensor) -> list[Tensor]:
    """Every tensor reachable from `loss` on the tape."""
    seen, stack, nodes = set(), [loss], []
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            nodes.append(t)
            stack.extend(t._parents)
    return nodes


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
