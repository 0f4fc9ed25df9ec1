import math

import numpy as np

from modalign.optim import Adam


def textbook_adam(params, grads_per_step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The Adam update of Kingma & Ba, Algorithm 1: every term is a fresh
    array, and `m` and `v` are rebound each step."""
    params = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grads_per_step, start=1):
        for i, (p, g) in enumerate(zip(params, grads)):
            m[i] = beta1 * m[i] + (1.0 - beta1) * g
            v[i] = beta2 * v[i] + (1.0 - beta2) * g * g
            m_hat = m[i] / (1.0 - beta1**t)
            v_hat = v[i] / (1.0 - beta2**t)
            p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return params, m, v


def folded_adam(params, grads_per_step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The folded update of Kingma & Ba, Sec. 2, in the operation order of
    `Adam.step`, with fresh arrays."""
    params = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grads_per_step, start=1):
        root = math.sqrt(1.0 - beta2**t)
        alpha = lr * root / (1.0 - beta1**t)
        for i, (p, g) in enumerate(zip(params, grads)):
            m[i] = beta1 * m[i] + (1.0 - beta1) * g
            v[i] = beta2 * v[i] + (1.0 - beta2) * g * g
            p -= alpha * (m[i] / (np.sqrt(v[i]) + eps * root))
    return params, m, v


def run_adam(start, grads_per_step, lr):
    params = [p.copy() for p in start]
    optimizer = Adam(params, lr=lr)
    for grads in grads_per_step:
        optimizer.step(grads)
    return params, optimizer.m, optimizer.v


def steps_of_gradients():
    """A start point and 200 steps of gradients spanning many magnitudes,
    with exact zeros."""
    rng = np.random.default_rng(0)
    start = [rng.standard_normal((16, 16)), rng.standard_normal(16)]
    grads_per_step = [
        [rng.standard_normal(p.shape) * 10.0 ** rng.integers(-8, 4) * (rng.random(p.shape) > 0.1)
         for p in start]
        for _ in range(200)
    ]
    return start, grads_per_step


def test_in_place_step_is_bit_identical_to_the_folded_formula():
    start, grads_per_step = steps_of_gradients()
    copies = [[g.copy() for g in grads] for grads in grads_per_step]
    expected = folded_adam(start, grads_per_step, lr=0.003)
    got = run_adam(start, grads_per_step, lr=0.003)
    for got_part, want_part in zip(got, expected):
        for g, w in zip(got_part, want_part):
            assert g.tobytes() == w.tobytes()
    # `step` reads the gradients and never writes them.
    for grads, kept in zip(grads_per_step, copies):
        for g, k in zip(grads, kept):
            assert g.tobytes() == k.tobytes()


def test_step_stays_close_to_the_textbook_formula():
    # The folded form only regroups the bias correction, so the parameters
    # differ from the textbook update by rounding alone. Measured on these
    # steps, the largest difference is 4.4e-16, one unit in the last place
    # of the largest parameter (about 3); the bound allows four.
    start, grads_per_step = steps_of_gradients()
    want, m_want, v_want = textbook_adam(start, grads_per_step, lr=0.003)
    got, m_got, v_got = run_adam(start, grads_per_step, lr=0.003)
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 4 * np.spacing(np.abs(w).max())
    # The moments are computed as in the textbook, so they match exactly.
    for g, w in zip(m_got + v_got, m_want + v_want):
        assert g.tobytes() == w.tobytes()
