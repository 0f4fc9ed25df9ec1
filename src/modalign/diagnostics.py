"""Alignment diagnostics: how strongly embeddings cluster by modality.

Within each class, pairs of samples are split into same-modality and
cross-modality pairs; the diagnostics report the mean cosine of each pool
and their difference. A balanced, modality-agnostic space drives the gap
toward zero; a space where samples cluster by modality keeps same-modality
pairs much closer than cross-modality ones, giving a positive gap.

The pair sums come from class sums, with no Gram block. For the unit rows
a_i of one class in one modality, with sum s, the ordered pairs i != j sum
to s·s - Σ‖a_i‖², and the pairs across two modalities sum to s_a·s_b. Each
modality is read once, and only a row count and one d-vector per (modality,
class) are kept. This is not the pairwise summation order, so a returned
float may differ from the exhaustive sum in its last one or two digits; the
six decimals of the written reports do not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InsufficientSamples, ZeroVector
from .vectors import ZERO_NORM, EmbeddingMatrix, normalize_rows, row_norms


@dataclass(frozen=True)
class AlignmentDiagnostics:
    intra_class_cross_modal_cosine: float
    intra_class_same_modal_cosine: float
    modality_gap: float  # same-modal mean minus cross-modal mean

    def to_report(self) -> dict:
        return {
            "intra_class_cross_modal_cosine": self.intra_class_cross_modal_cosine,
            "intra_class_same_modal_cosine": self.intra_class_same_modal_cosine,
            "modality_gap": self.modality_gap,
        }


def alignment_diagnostics(
    modality_embeddings: dict[str, EmbeddingMatrix],
    modality_categories: dict[str, list[str]],
) -> AlignmentDiagnostics:
    """Mean intra-class cosine split by same- vs. cross-modality pairs.

    Requires at least two modalities of one dim, an identical class set in
    each, and at least two samples per class per modality. A zero row raises
    ZeroVector naming its modality and its row in that modality's matrix.
    """
    if len(modality_embeddings) < 2:
        raise InsufficientSamples("diagnostics need at least 2 modalities")
    names = sorted(modality_embeddings)
    if set(names) != set(modality_categories):
        raise ValueError("embeddings and categories must cover the same modalities")

    # class -> (row count, row sum) of each modality read so far
    classes: dict[str, list[tuple[int, np.ndarray]]] = {}
    same_sum = cross_sum = 0.0
    same_count = cross_count = 0
    dim = modality_embeddings[names[0]].dim
    for name, cats in sorted(modality_categories.items()):
        matrix = modality_embeddings[name]
        if len(cats) != matrix.rows:
            raise ValueError(f"modality {name!r}: {len(cats)} categories for {matrix.rows} rows")
        if matrix.dim != dim:
            raise DimensionMismatch(
                f"modality {name!r} has dim {matrix.dim}, modality {names[0]!r} has dim {dim}"
            )
        norms = row_norms(matrix.vectors)
        bad = np.flatnonzero(norms < ZERO_NORM)
        if bad.size:
            raise ZeroVector(f"modality {name!r}: row {int(bad[0])} has norm {norms[bad[0]]:.3e}")
        rows: dict[str, list[int]] = {}
        for row, cat in enumerate(cats):
            rows.setdefault(cat, []).append(row)
        if not rows:
            raise InsufficientSamples(f"modality {name!r} has no rows")
        if classes and rows.keys() != classes.keys():
            raise InsufficientSamples(
                f"modality {name!r} does not cover the same classes as {names[0]!r}"
            )
        for cat in sorted(rows):
            n = len(rows[cat])
            if n < 2:
                raise InsufficientSamples(
                    f"class {cat!r} has {n} sample(s) in modality {name!r}; need >= 2"
                )
            unit = normalize_rows(matrix.vectors[rows[cat]])
            s = unit.sum(axis=0)
            same_sum += (s * s).sum() - (unit * unit).sum()
            same_count += n * (n - 1)
            for n_a, s_a in classes.setdefault(cat, []):
                cross_sum += (s_a * s).sum()
                cross_count += n_a * n
            classes[cat].append((n, s))

    same_mean = same_sum / same_count
    cross_mean = cross_sum / cross_count
    return AlignmentDiagnostics(
        intra_class_cross_modal_cosine=float(cross_mean),
        intra_class_same_modal_cosine=float(same_mean),
        modality_gap=float(same_mean - cross_mean),
    )
