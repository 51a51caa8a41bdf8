"""ADAM optimizer with bias correction."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import NumericError

# Kingma & Ba's defaults, the only ones either network trains with.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = dict(params)
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        self.t += 1
        b1, b2 = BETA1, BETA2
        for k, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient for parameter {k}")
            # The moments are updated in place, in the order of operations of
            # m = b1 * m + (1 - b1) * g and v = b2 * v + (1 - b2) * g * g.
            m, v = self.m[k], self.v[k]
            m *= b1
            m += (1.0 - b1) * g
            sq = (1.0 - b2) * g
            sq *= g
            v *= b2
            v += sq
            m_hat = m / (1.0 - b1 ** self.t)
            v_hat = v / (1.0 - b2 ** self.t)
            # The parameter array is updated in place, as p - lr * m_hat /
            # (sqrt(v_hat) + eps) would round: nothing holds it across a step
            # (snapshots, clones and loaded states are copies).
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)
