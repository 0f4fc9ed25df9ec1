import tracemalloc

import numpy as np
import pytest

from modalign.diagnostics import alignment_diagnostics
from modalign.errors import InsufficientSamples, ZeroVector
from modalign.vectors import EmbeddingMatrix, cosine


def loop_oracle(modality_embeddings, modality_categories):
    """Exhaustive pairwise oracle over (modality, category, vector) tags."""
    tagged = []
    for name in modality_embeddings:
        for row, cat in enumerate(modality_categories[name]):
            tagged.append((name, cat, modality_embeddings[name].vectors[row]))
    same, cross = [], []
    for i in range(len(tagged)):
        for j in range(i + 1, len(tagged)):
            mod_a, cat_a, va = tagged[i]
            mod_b, cat_b, vb = tagged[j]
            if cat_a != cat_b:
                continue
            value = cosine(va, vb)
            (same if mod_a == mod_b else cross).append(value)
    return float(np.mean(cross)), float(np.mean(same))


def test_all_identical_embeddings():
    block = np.tile([1.0, 0.0], (4, 1))
    embeddings = {
        "a": EmbeddingMatrix(block.copy()),
        "b": EmbeddingMatrix(block.copy()),
    }
    categories = {"a": ["x"] * 4, "b": ["x"] * 4}
    diag = alignment_diagnostics(embeddings, categories)
    assert diag.intra_class_same_modal_cosine == pytest.approx(1.0, abs=1e-12)
    assert diag.intra_class_cross_modal_cosine == pytest.approx(1.0, abs=1e-12)
    assert diag.modality_gap == pytest.approx(0.0, abs=1e-12)


def test_orthogonal_modalities():
    # modality a lives on e0, modality b on e1: same-modal cosine 1, cross 0
    a = np.tile([1.0, 0.0], (3, 1))
    b = np.tile([0.0, 1.0], (3, 1))
    diag = alignment_diagnostics(
        {"a": EmbeddingMatrix(a), "b": EmbeddingMatrix(b)},
        {"a": ["x"] * 3, "b": ["x"] * 3},
    )
    assert diag.intra_class_same_modal_cosine == pytest.approx(1.0, abs=1e-12)
    assert diag.intra_class_cross_modal_cosine == pytest.approx(0.0, abs=1e-12)
    assert diag.modality_gap == pytest.approx(1.0, abs=1e-12)


def test_matches_loop_oracle():
    rng = np.random.default_rng(0)
    for uneven in (False, True):
        embeddings = {}
        categories = {}
        for shift, name in enumerate(("img", "ev", "aud")):
            embeddings[name] = EmbeddingMatrix(rng.standard_normal((12, 6)))
            categories[name] = [f"c{i % 3}" for i in range(12)]
            if uneven:  # classes of 2, 3 and 7 shuffled rows far from unit length
                embeddings[name].vectors *= rng.uniform(0.01, 100.0, (12, 1))
                sizes = np.roll([2, 3, 7], shift)  # each class's size differs by modality
                categories[name] = list(rng.permutation(np.repeat(["c0", "c1", "c2"], sizes)))
        # diagnostics normalizes internally; oracle must see the same unit rows
        unit = {
            name: EmbeddingMatrix(
                m.vectors / np.linalg.norm(m.vectors, axis=1, keepdims=True)
            )
            for name, m in embeddings.items()
        }
        expected_cross, expected_same = loop_oracle(unit, categories)
        diag = alignment_diagnostics(embeddings, categories)
        assert diag.intra_class_cross_modal_cosine == pytest.approx(expected_cross, abs=1e-9)
        assert diag.intra_class_same_modal_cosine == pytest.approx(expected_same, abs=1e-9)
        assert diag.modality_gap == pytest.approx(expected_same - expected_cross, abs=1e-9)


def test_needs_two_modalities():
    with pytest.raises(InsufficientSamples):
        alignment_diagnostics(
            {"only": EmbeddingMatrix(np.eye(3))}, {"only": ["x", "x", "x"]}
        )


def test_needs_two_samples_per_class():
    embeddings = {
        "a": EmbeddingMatrix(np.eye(3)),
        "b": EmbeddingMatrix(np.eye(3)),
    }
    categories = {"a": ["x", "x", "y"], "b": ["x", "x", "y"]}
    with pytest.raises(InsufficientSamples):
        alignment_diagnostics(embeddings, categories)


def test_class_sets_must_match():
    embeddings = {
        "a": EmbeddingMatrix(np.eye(2)),
        "b": EmbeddingMatrix(np.eye(2)),
    }
    categories = {"a": ["x", "x"], "b": ["y", "y"]}
    with pytest.raises(InsufficientSamples):
        alignment_diagnostics(embeddings, categories)


def test_report_keys():
    block = np.tile([1.0, 0.0], (2, 1))
    diag = alignment_diagnostics(
        {"a": EmbeddingMatrix(block.copy()), "b": EmbeddingMatrix(block.copy())},
        {"a": ["x", "x"], "b": ["x", "x"]},
    )
    assert list(diag.to_report()) == [
        "intra_class_cross_modal_cosine",
        "intra_class_same_modal_cosine",
        "modality_gap",
    ]


def test_zero_row_names_its_modality_and_its_row_in_that_matrix():
    vectors = np.eye(4)[[0, 1, 2, 3, 0, 1]]
    embeddings = {"a": EmbeddingMatrix(vectors.copy()), "b": EmbeddingMatrix(vectors)}
    vectors[5] = 0.0  # row 5 of modality "b", the third row of class "y"
    categories = {name: ["x", "y"] * 3 for name in embeddings}
    with pytest.raises(ZeroVector, match=r"^modality 'b': row 5 has norm 0\.000e\+00$"):
        alignment_diagnostics(embeddings, categories)


def test_traced_peak_stays_below_one_modality():
    rng = np.random.default_rng(1)
    rows, dim = 4000, 128
    embeddings = {}
    for name in ("a", "b"):
        unit = rng.standard_normal((rows, dim))
        embeddings[name] = EmbeddingMatrix(unit / np.linalg.norm(unit, axis=1, keepdims=True))
    categories = {name: [f"c{i % 40}" for i in range(rows)] for name in embeddings}
    tracemalloc.start()
    try:
        alignment_diagnostics(embeddings, categories)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < embeddings["a"].vectors.nbytes
