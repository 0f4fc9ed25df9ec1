"""Per-modality linear adapters trained against paired text embeddings.

The backbone encoders that produced the input embeddings stay frozen; the
only trainable parameters are one affine map per modality. Adapted rows are
re-normalized before the contrastive loss so training optimizes the same
cosine geometry used at inference. Training runs in one Python thread and
its products on BLAS threads (CPU time is twice wall time on 2 cores).
For a fixed seed it is bit-reproducible at any BLAS thread count, as a test
checks.
"""

from __future__ import annotations

import io
import math
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .contrastive import info_nce_forward, info_nce_loss
from .errors import (
    DegenerateBatch,
    DimensionMismatch,
    NonFiniteParameter,
    UnknownSample,
    ZeroVector,
)
from .kb import KnowledgeBase
from .optim import SGD, Adam
from .serialize import (
    BOOLEAN,
    INTEGER,
    STRING,
    atomic_write_bytes,
    field_problem,
    is_int,
    read_json,
)
from .ubem import read_container, write_container_header, write_ubem_stream
from .vectors import ZERO_NORM, EmbeddingMatrix, as_vectors, normalize_rows


class OptimizerKind(str, Enum):
    SGD = "sgd"
    ADAM = "adam"


@dataclass(frozen=True)
class TrainConfig:
    temperature: float = 0.07
    learning_rate: float = 0.01
    batch_size: int = 32
    epochs: int = 10
    seed: int = 0
    optimizer: OptimizerKind = OptimizerKind.ADAM
    symmetric_loss: bool = False

    def __post_init__(self):
        problem = field_problem(self.__dict__, _CONFIG_FIELDS)
        if problem is not None:
            raise ValueError(f"train config: {problem}")
        object.__setattr__(self, "optimizer", OptimizerKind(self.optimizer.lower()))


@dataclass
class LinearAdapter:
    """Affine map from a frozen backbone space into the shared text space."""

    weight: np.ndarray  # (dim_out, dim_in)
    bias: np.ndarray  # (dim_out,)
    modality: str = ""

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2 or self.bias.ndim != 1:
            raise ValueError("weight must be 2-D and bias 1-D")
        if self.bias.shape[0] != self.weight.shape[0]:
            raise ValueError(
                f"bias has {self.bias.shape[0]} entries for {self.weight.shape[0]} output dims"
            )

    @property
    def dim_in(self) -> int:
        return self.weight.shape[1]

    @property
    def dim_out(self) -> int:
        return self.weight.shape[0]

    def require_finite(self) -> None:
        if not (np.isfinite(self.weight).all() and np.isfinite(self.bias).all()):
            raise NonFiniteParameter(
                f"adapter {self.modality!r} has NaN/Inf parameters"
            )

    def apply(self, visual) -> EmbeddingMatrix:
        """Map raw embeddings through the adapter and unit-normalize rows."""
        self.require_finite()
        v = np.asarray(as_vectors(visual), dtype=np.float64)
        if v.shape[1] != self.dim_in:
            raise DimensionMismatch(
                f"input dim {v.shape[1]} does not match adapter dim_in {self.dim_in}"
            )
        labels = visual.labels if isinstance(visual, EmbeddingMatrix) else None
        return EmbeddingMatrix(_unit_map(self.weight, self.bias, v)[0], labels)


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_error: float
    passed: bool


def default_adapter(dim_in: int, dim_out: int, seed: int, modality: str = "") -> LinearAdapter:
    """Identity for square maps, otherwise a seeded scaled-Gaussian init."""
    if dim_in == dim_out:
        weight = np.eye(dim_out)
    else:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xAD,)))
        weight = rng.standard_normal((dim_out, dim_in)) / np.sqrt(dim_in)
    return LinearAdapter(weight, np.zeros(dim_out), modality)


def resolve_pairs(
    pairs: list[tuple[str, int]], visual, kb: KnowledgeBase, path=None
) -> tuple[np.ndarray, np.ndarray]:
    """Map (sample_id, visual_row) pairs, read from the pairs file `path`
    when one is given, to training arrays.

    Returns the float64 visual rows in pair order and, for each pair, the
    unit-length float64 embedding of the sample's paired description. The
    arrays hold no reference to `kb`, so the knowledge base can be freed
    before training. A row out of range raises ValueError, and a sample
    with no paired description UnknownSample, each naming the sample and
    `path` if given.
    """
    if not pairs:
        raise ValueError("pairs must be non-empty")
    v = as_vectors(visual)
    where = f" in {path}" if path else ""
    visual_rows = []
    text_rows = []
    for sample_id, row in pairs:
        if not 0 <= row < v.shape[0]:
            raise ValueError(
                f"pair row {row} of sample {sample_id!r}{where} "
                f"out of range for {v.shape[0]} visual rows"
            )
        text_row = kb.pair_index.get(sample_id)
        if text_row is None:
            raise UnknownSample(f"no paired description for sample {sample_id!r}{where}")
        visual_rows.append(row)
        text_rows.append(text_row)
    return (
        np.asarray(v[visual_rows], dtype=np.float64),
        normalize_rows(kb.read_rows(text_rows)),
    )


def _unit_map(W, b, visual):
    """Affine map plus row normalization, in the dtype of the inputs.

    Returns the unit rows and their norms. A row whose norm is below ZERO_NORM
    raises ZeroVector, and one whose norm is not finite (the map overflowed)
    raises NonFiniteParameter; both name the first such row.
    """
    mapped = visual @ W.T
    mapped += b
    norms = np.linalg.norm(mapped, axis=1)
    ok = (norms >= ZERO_NORM) & (norms < np.inf)
    if not ok.all():
        row = int(np.argmin(ok))
        if norms[row] < ZERO_NORM:
            raise ZeroVector(f"adapted row {row} collapsed to norm 0")
        raise NonFiniteParameter(f"adapted row {row} has norm {norms[row]}")
    mapped /= norms[:, None]
    return mapped, norms


def _forward_backward(W, b, visual, texts, temperature, symmetric):
    """Loss plus analytic gradients w.r.t. the affine parameters.

    Chains the contrastive gradient through row normalization:
    d(a/|a|)/da applied to g is (g - (g.a_hat) a_hat) / |a|.
    """
    unit, norms = _unit_map(W, b, visual)
    loss, g = info_nce_loss(unit, texts, temperature, symmetric)
    unit *= (g * unit).sum(axis=1, keepdims=True)
    g -= unit
    g /= norms[:, None]
    return loss, [g.T @ visual, g.sum(axis=0)]


def train(
    visual: np.ndarray,
    texts: np.ndarray,
    config: TrainConfig,
    modality: str = "",
) -> tuple[LinearAdapter, list[float]]:
    """Fit one adapter by seeded mini-batch contrastive training.

    `visual` holds one raw embedding per pair and `texts` the unit-length
    embedding of its paired description, as `resolve_pairs` returns them.
    Training starts from `default_adapter(dim_in, dim_out, config.seed,
    modality)`, with `dim_out` the text dim. Returns the trained adapter and
    the per-epoch mean loss. Inputs are never mutated. Row counts that
    differ raise ValueError, and text rows that are all identical (no
    negatives exist) raise DegenerateBatch. A batch whose loss is NaN or
    Inf, or whose adapted rows' norms overflow (the loss is then NaN),
    raises NonFiniteParameter naming the modality, the epoch and the batch
    (both counted from 1).
    """
    visual = np.asarray(as_vectors(visual), dtype=np.float64)
    texts = np.asarray(as_vectors(texts), dtype=np.float64)
    if texts.shape[0] != visual.shape[0]:
        raise ValueError(f"{texts.shape[0]} text rows for {visual.shape[0]} visual rows")
    if (texts == texts[:1]).all():
        raise DegenerateBatch("all paired text rows are identical; no negatives exist")

    n, dim_in = visual.shape
    adapter = default_adapter(dim_in, texts.shape[1], config.seed, modality)
    kind = Adam if config.optimizer == OptimizerKind.ADAM else SGD
    optimizer = kind([adapter.weight, adapter.bias], config.learning_rate)

    rng = np.random.default_rng(config.seed)
    history: list[float] = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        loss_sum = 0.0
        seen = 0
        for batch, start in enumerate(range(0, n, config.batch_size), start=1):
            idx = order[start : start + config.batch_size]
            if idx.size < 2:
                continue  # a 1-sample tail has no negatives
            cause = ""
            try:
                loss, grads = _forward_backward(
                    adapter.weight, adapter.bias, visual[idx], texts[idx],
                    config.temperature, config.symmetric_loss,
                )
            except NonFiniteParameter as e:  # an adapted row's norm overflowed
                loss, cause = math.nan, f" ({e})"
            if not math.isfinite(loss):
                raise NonFiniteParameter(
                    f"training of adapter {adapter.modality!r} diverged: loss is {loss} "
                    f"at epoch {epoch}, batch {batch}{cause}"
                )
            optimizer.step(grads)
            loss_sum += loss * idx.size
            seen += idx.size
        history.append(loss_sum / seen)
    return adapter, history


def gradient_check_arrays(
    adapter: LinearAdapter,
    visual,
    texts,
    config: TrainConfig,
    step: float = 1e-5,
) -> GradCheckReport:
    """Compare analytic parameter gradients against central differences.

    Relative error uses max(|analytic|, |numeric|, 1e-8) as denominator; the
    check passes when the worst entry stays under 1e-3.
    """
    adapter.require_finite()
    v = np.asarray(as_vectors(visual), dtype=np.float64)
    z = np.asarray(as_vectors(texts), dtype=np.float64)
    if v.shape[0] < 2:
        raise DegenerateBatch("gradient check needs a batch of >= 2 pairs")
    W = adapter.weight.copy()
    b = adapter.bias.copy()
    _, grads = _forward_backward(
        W, b, v, z, config.temperature, config.symmetric_loss
    )

    v_ext = v.astype(np.longdouble)
    z_ext = z.astype(np.longdouble)

    def loss_at(Wp, bp):
        # Extended precision: differences of O(1e-10) between two O(1) losses
        # would otherwise drown in float64 rounding when gradients are tiny
        # (very large temperatures).
        unit, _ = _unit_map(Wp.astype(np.longdouble), bp.astype(np.longdouble), v_ext)
        return info_nce_forward(unit, z_ext, config.temperature, config.symmetric_loss)[0]

    two_step = np.longdouble(2.0) * np.longdouble(step)
    max_rel = 0.0
    for analytic, param in zip(grads, (W, b)):
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            original = param[ix]
            param[ix] = original + step
            plus = loss_at(W, b)
            param[ix] = original - step
            minus = loss_at(W, b)
            param[ix] = original
            numeric = float((plus - minus) / two_step)
            a = float(analytic[ix])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            if rel > max_rel:
                max_rel = rel
    return GradCheckReport(max_rel, max_rel < 1e-3)


# --- persistence -----------------------------------------------------------

# NaN, infinity and an integer past the float range all fail the bounds.
_POSITIVE = (
    lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool)
    and 0 < v <= sys.float_info.max,
    "a finite number > 0",
)
_OPTIMIZERS = [o.value for o in OptimizerKind]
# The train config's field table, each key optional; TrainConfig checks itself against it.
_CONFIG_FIELDS = {
    "temperature": _POSITIVE,
    "learning_rate": _POSITIVE,
    "batch_size": (lambda v: is_int(v) and v >= 2, "an integer >= 2"),
    "epochs": (lambda v: is_int(v) and v >= 1, "an integer >= 1"),
    "seed": (lambda v: is_int(v) and v >= 0, "an integer >= 0"),
    "optimizer": (
        lambda v: isinstance(v, str) and v.lower() in _OPTIMIZERS, f"one of {_OPTIMIZERS}"
    ),
    "symmetric_loss": BOOLEAN,
}


def train_config_from_dict(obj) -> TrainConfig:
    """Build a TrainConfig from a parsed JSON object: a pipeline config's
    `"train"` entry, or a whole `train --config` file.

    Unknown keys and values of the wrong JSON type or out of range raise
    ValueError naming the key.
    """
    problem = field_problem(obj, _CONFIG_FIELDS, closed=True)
    if problem is not None:
        raise ValueError(f"train config: {problem}")
    return TrainConfig(**obj)


def load_train_config(path) -> TrainConfig:
    """Read a training config file: the JSON object a pipeline config holds
    under `"train"`. Any error raises ValueError naming the file."""
    obj = read_json(path)
    try:
        return train_config_from_dict(obj)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e


def save_adapter(path, adapter: LinearAdapter) -> None:
    """Adapter file: JSON header line + weight UBEM blob + 1-row bias blob."""
    adapter.require_finite()
    header = {"modality": adapter.modality, "dim_in": adapter.dim_in, "dim_out": adapter.dim_out}
    buf = io.BytesIO()
    write_container_header(buf, "linear-adapter", header)
    write_ubem_stream(buf, EmbeddingMatrix(adapter.weight.astype(np.float32)))
    write_ubem_stream(buf, EmbeddingMatrix(adapter.bias.astype(np.float32)[None, :]))
    atomic_write_bytes(Path(path), buf.getvalue())


_HEADER_FIELDS = {"dim_in": INTEGER, "dim_out": INTEGER, "modality": STRING}


def load_adapter(path) -> LinearAdapter:
    """Read an adapter file; a malformed header or blob raises ValueError
    naming the file (and, for a bad header key, the key)."""
    header, (weight, bias) = read_container(path, "linear-adapter", 2)
    problem = field_problem(header, _HEADER_FIELDS, ("dim_in", "dim_out"))
    if problem is not None:
        raise ValueError(f"{path}: adapter header: {problem}")
    dim_in, dim_out = header["dim_in"], header["dim_out"]
    modality = header.get("modality", "")
    if weight.vectors.shape != (dim_out, dim_in) or bias.vectors.shape != (1, dim_out):
        raise ValueError(f"{path}: adapter blob shapes do not match header")
    return LinearAdapter(weight.vectors, bias.vectors[0], modality)
