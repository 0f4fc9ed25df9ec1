import numpy as np

from modalign.optim import Adam


def textbook_adam(params, grads_per_step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The Adam update as written before `step` went in place: every term
    is a fresh array, and `m` and `v` are rebound each step."""
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


def test_in_place_step_is_bit_identical_to_the_textbook_formula():
    rng = np.random.default_rng(0)
    start = [rng.standard_normal((16, 16)), rng.standard_normal(16)]
    # Gradients spanning many magnitudes, with exact zeros, over 200 steps.
    grads_per_step = [
        [rng.standard_normal(p.shape) * 10.0 ** rng.integers(-8, 4) * (rng.random(p.shape) > 0.1)
         for p in start]
        for _ in range(200)
    ]
    expected, m, v = textbook_adam(start, grads_per_step, lr=0.003)
    params = [p.copy() for p in start]
    optimizer = Adam(params, lr=0.003)
    for grads in grads_per_step:
        optimizer.step(grads)
    for got, want in zip(params + optimizer.m + optimizer.v, expected + m + v):
        assert got.tobytes() == want.tobytes()

