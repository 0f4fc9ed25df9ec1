"""Minimal deterministic optimizers over lists of numpy parameter arrays."""

from __future__ import annotations

import math

import numpy as np


class SGD:
    """Plain gradient descent with a constant learning rate."""

    def __init__(self, params: list[np.ndarray], lr: float):
        self.params = params
        self.lr = lr

    def step(self, grads: list[np.ndarray]) -> None:
        for p, g in zip(self.params, grads):
            p -= self.lr * g


class Adam:
    """Adam with bias correction, in the folded form of Kingma & Ba (Sec. 2).

    Step t updates m = beta1 * m + (1 - beta1) * g and
    v = beta2 * v + (1 - beta2) * g * g, then
    p -= alpha_t * m / (sqrt(v) + eps_t) with
    alpha_t = lr * sqrt(1 - beta2**t) / (1 - beta1**t) and
    eps_t = eps * sqrt(1 - beta2**t). This equals the textbook
    lr * m_hat / (sqrt(v_hat) + eps) up to rounding. `step` updates `m`, `v`
    and the parameters in place through one scratch array per parameter,
    and leaves `grads` unmodified. The scratch is taken per step, not held:
    a held buffer would add its size to the training peak.
    """

    def __init__(
        self,
        params: list[np.ndarray],
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, grads: list[np.ndarray]) -> None:
        self.t += 1
        root = math.sqrt(1.0 - self.beta2**self.t)
        alpha = self.lr * root / (1.0 - self.beta1**self.t)
        eps = self.eps * root
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            s = np.multiply(g, 1.0 - self.beta1)
            m *= self.beta1
            m += s
            np.multiply(g, 1.0 - self.beta2, out=s)
            s *= g
            v *= self.beta2
            v += s
            np.sqrt(v, out=s)
            s += eps
            np.divide(m, s, out=s)
            s *= alpha
            p -= s
