"""Batch contrastive loss between adapted embeddings and text embeddings.

Each adapted row's own description embedding is its positive; the other
descriptions in the batch act as negatives. The loss for row i is

    -log( exp(s_ii / t) / sum_j exp(s_ij / t) )

averaged over the batch, where s_ij is the dot product of row-normalized
inputs and t the temperature. Softmax is computed with per-row max
subtraction for stability. The returned gradient is the analytic derivative
with respect to the (already normalized) adapted rows, so finite-difference
checks can perturb the input matrix directly.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateBatch, DimensionMismatch, NonPositiveTemperature
from .vectors import as_vectors

# Row norms are a caller responsibility; this guards against passing raw,
# unnormalized embeddings by mistake.
_NORM_CHECK_TOLERANCE = 1e-4


def _checked_inputs(adapted, texts) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(as_vectors(adapted), dtype=np.float64)
    z = np.asarray(as_vectors(texts), dtype=np.float64)
    if a.shape != z.shape:
        raise DimensionMismatch(
            f"adapted batch has shape {a.shape}, texts have shape {z.shape}"
        )
    if a.shape[0] < 2:
        raise DegenerateBatch(f"a contrastive batch needs >= 2 rows, got {a.shape[0]}")
    for name, m in (("adapted", a), ("texts", z)):
        norms = np.linalg.norm(m, axis=1)
        if np.abs(norms - 1.0).max() > _NORM_CHECK_TOLERANCE:
            raise ValueError(f"{name} rows must be unit-normalized before the loss")
    return a, z


def _log_softmax(logits: np.ndarray, axis: int) -> np.ndarray:
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def info_nce_forward(adapted, texts, temperature: float, symmetric: bool = False):
    """Mean contrastive loss, computed in the dtype of the inputs.

    Takes (B, d) arrays that are already row-normalized and checks nothing,
    so the gradient check can evaluate it in extended precision. Returns
    (loss, row log-softmax, column log-softmax or None when not symmetric).
    """
    logits = (adapted @ texts.T) / temperature
    diag = np.arange(logits.shape[0])
    log_p_rows = _log_softmax(logits, axis=1)
    loss = -log_p_rows[diag, diag].mean()
    log_p_cols = None
    if symmetric:
        log_p_cols = _log_softmax(logits, axis=0)
        loss = 0.5 * (loss + -log_p_cols[diag, diag].mean())
    return loss, log_p_rows, log_p_cols


def info_nce_loss(
    adapted, texts, temperature: float, symmetric: bool = False
) -> tuple[float, np.ndarray]:
    """Mean contrastive loss and its gradient w.r.t. the adapted rows.

    Args:
        adapted: (B, d) row-normalized adapted embeddings.
        texts: (B, d) row-normalized paired text embeddings, row i positive
            for adapted row i.
        temperature: softmax temperature, > 0.
        symmetric: also average in the text->adapted direction.

    Returns:
        (loss, gradient) with gradient shaped like `adapted`.
    """
    if not temperature > 0:
        raise NonPositiveTemperature(f"temperature must be > 0, got {temperature}")
    a, z = _checked_inputs(adapted, texts)
    batch = a.shape[0]

    loss, log_p_rows, log_p_cols = info_nce_forward(a, z, temperature, symmetric)
    diag = np.arange(batch)
    dlogits = np.exp(log_p_rows)
    dlogits[diag, diag] -= 1.0

    if symmetric:
        q_cols = np.exp(log_p_cols)
        q_cols[diag, diag] -= 1.0
        dlogits = 0.5 * (dlogits + q_cols)

    gradient = dlogits @ z / (batch * temperature)
    return float(loss), gradient
