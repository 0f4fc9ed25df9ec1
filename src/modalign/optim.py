"""Minimal deterministic optimizers over lists of numpy parameter arrays."""

from __future__ import annotations

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
    """Adam with bias correction; update is lr * m_hat / (sqrt(v_hat) + eps).

    `step` updates `m`, `v` and the parameters in place through two scratch
    buffers per parameter, in the operation order of the textbook formula,
    so its results are bit-identical to it. The buffers are taken per step,
    not held: between steps the training temporaries reuse their memory,
    whereas held buffers would add their size to the training peak.
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
        m_scale = 1.0 - self.beta1**self.t
        v_scale = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            a, b = np.empty_like(p), np.empty_like(p)
            # m = beta1 * m + (1 - beta1) * g
            np.multiply(m, self.beta1, out=m)
            np.add(m, np.multiply(g, 1.0 - self.beta1, out=a), out=m)
            # v = beta2 * v + (1 - beta2) * g * g
            np.multiply(v, self.beta2, out=v)
            np.multiply(np.multiply(g, 1.0 - self.beta2, out=a), g, out=a)
            np.add(v, a, out=v)
            # p -= lr * (m / m_scale) / (sqrt(v / v_scale) + eps)
            np.multiply(np.divide(m, m_scale, out=a), self.lr, out=a)
            np.add(np.sqrt(np.divide(v, v_scale, out=b), out=b), self.eps, out=b)
            p -= np.divide(a, b, out=a)
