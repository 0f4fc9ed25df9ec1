"""Deterministic synthetic benchmark bundles for desk-scale experiments.

Each class gets a direction in embedding space; descriptions scatter around
the class direction with Gaussian noise and carry no modality bias (text is
the modality-agnostic anchor). Each visual modality adds its own fixed
offset vector to every sample it emits, which manufactures the clustered-by-
modality geometry that adapter training is supposed to undo.

All randomness flows from one seed through fixed spawn keys per stage, so
adding a modality or more classes never perturbs the draws of existing ones.

Embeddings are drawn in class blocks: one draw per (stage, modality, class)
gives all of that class's rows as `center + noise_sigma * noise` in float64,
rounded to float32. A visual block's center is the class direction plus the
modality's offset; a description block's center is the class direction.
Each embedding file concatenates its blocks once: the KB holds the category
descriptions class by class, then each modality's paired descriptions.
Every file name of a bundle is written once, in the table that `bundle.json`
stores under `files`; the pipeline config and the returned `SyntheticBundle`
take their paths from it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .kb import KnowledgeRecord, Source, save_records
from .serialize import atomic_write_text, fixed_json
from .ubem import write_ubem
from .vectors import EmbeddingMatrix

# Spawn-key stage tags for the per-stream generators.
_STAGE_CENTERS = 0
_STAGE_CATEGORY_DESCRIPTIONS = 1
_STAGE_MODALITY_OFFSET = 2
_STAGE_MODALITY_SAMPLES = 3
_STAGE_PAIRED_DESCRIPTIONS = 4


@dataclass(frozen=True)
class SyntheticSpec:
    categories: int = 10
    modalities: int = 2
    samples_per_class: int = 20
    dim: int = 16
    class_separation: float = 1.0
    modality_offset: float = 1.0
    noise_sigma: float = 0.3
    descriptions_per_class: int = 50
    seed: int = 0

    def __post_init__(self):
        for name in ("categories", "modalities", "samples_per_class", "dim", "descriptions_per_class"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("class_separation", "modality_offset", "noise_sigma"):
            if not 0 <= getattr(self, name) < math.inf:  # NaN fails both comparisons
                raise ValueError(f"{name} must be a finite number >= 0, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class SyntheticBundle:
    """Paths of one generated bundle, all inside `root`."""

    root: Path
    records: Path
    kb_embeddings: Path
    prompts: Path
    labels: Path
    modality_names: tuple[str, ...]
    visual: dict[str, Path]
    pairs: dict[str, Path]
    pipeline_config: Path


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def category_name(g: int) -> str:
    return f"cat{g:03d}"


def modality_name(m: int) -> str:
    return f"mod{m}"


def sample_name(m: int, g: int, i: int) -> str:
    return f"{modality_name(m)}_{category_name(g)}_{i:04d}"


def class_directions(spec: SyntheticSpec) -> np.ndarray:
    """Per-class anchor points, scaled by the class separation."""
    rng = _rng(spec.seed, _STAGE_CENTERS)
    raw = rng.standard_normal((spec.categories, spec.dim))
    units = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    return spec.class_separation * units


def modality_offsets(spec: SyntheticSpec) -> np.ndarray:
    """One fixed offset vector per modality, of norm `modality_offset`."""
    out = np.zeros((spec.modalities, spec.dim))
    if spec.modality_offset == 0:
        return out
    for m in range(spec.modalities):
        rng = _rng(spec.seed, _STAGE_MODALITY_OFFSET, m)
        out[m] = spec.modality_offset * _unit(rng.standard_normal(spec.dim))
    return out


def _class_block(spec: SyntheticSpec, center: np.ndarray, rows: int, *key: int) -> np.ndarray:
    """`rows` Gaussian draws around `center` from the stream `key`, rounded to float32."""
    noise = _rng(spec.seed, *key).standard_normal((rows, spec.dim))
    return (center + spec.noise_sigma * noise).astype(np.float32)


def _write_jsonl(path: Path, rows) -> None:
    """Write one `json.dumps` line per row."""
    atomic_write_text(path, "".join(json.dumps(row) + "\n" for row in rows))


def generate_synthetic(spec: SyntheticSpec, out_dir) -> SyntheticBundle:
    """Write a complete bundle: KB files, prompts, per-modality data, labels."""
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    centers = class_directions(spec)
    offsets = modality_offsets(spec)
    categories = [category_name(g) for g in range(spec.categories)]
    modality_names = tuple(modality_name(m) for m in range(spec.modalities))
    files = {
        "records": "records.jsonl",
        "kb_embeddings": "kb_embeddings.ubem",
        "prompts": "prompts.ubem",
        "labels": "labels.jsonl",
        "pipeline_config": "pipeline_config.json",
        "modalities": {
            name: {"visual": f"{name}.ubem", "pairs": f"{name}_pairs.jsonl"}
            for name in modality_names
        },
    }
    paths = {key: root / name for key, name in files.items() if key != "modalities"}
    visual_paths = {name: root / f["visual"] for name, f in files["modalities"].items()}
    pair_paths = {name: root / f["pairs"] for name, f in files["modalities"].items()}

    # Category-level descriptions: class direction plus isotropic noise.
    records = [
        KnowledgeRecord(
            id=f"desc_{category}_{i:04d}",
            category=category,
            description=f"synthetic category description {i} for {category}",
            source=Source.LLM_CATEGORY,
            generator="synthetic",
        )
        for category in categories
        for i in range(spec.descriptions_per_class)
    ]
    kb_blocks = [
        _class_block(spec, centers[g], spec.descriptions_per_class, _STAGE_CATEGORY_DESCRIPTIONS, g)
        for g in range(spec.categories)
    ]

    # Per-sample visual embeddings and their paired descriptions.
    labels: list[tuple[str, str]] = []
    for m, name in enumerate(modality_names):
        samples = [
            (sample_name(m, g, i), category)
            for g, category in enumerate(categories)
            for i in range(spec.samples_per_class)
        ]
        sample_ids = [sid for sid, _ in samples]
        visual_blocks = [
            _class_block(
                spec, centers[g] + offsets[m], spec.samples_per_class,
                _STAGE_MODALITY_SAMPLES, m, g,
            )
            for g in range(spec.categories)
        ]
        write_ubem(visual_paths[name], EmbeddingMatrix(np.concatenate(visual_blocks), sample_ids))
        _write_jsonl(
            pair_paths[name],
            ({"sample_id": sid, "visual_row": i} for i, sid in enumerate(sample_ids)),
        )
        kb_blocks += [
            _class_block(
                spec, centers[g], spec.samples_per_class, _STAGE_PAIRED_DESCRIPTIONS, m, g
            )
            for g in range(spec.categories)
        ]
        records += [
            KnowledgeRecord(
                id=sid,
                category=category,
                description=f"synthetic paired description for {sid}",
                source=Source.MLLM_DATA,
                generator="synthetic",
            )
            for sid, category in samples
        ]
        labels += samples

    save_records(paths["records"], records)
    write_ubem(
        paths["kb_embeddings"],
        EmbeddingMatrix(np.concatenate(kb_blocks), [r.id for r in records]),
    )
    # One prompt per class: its direction scaled to unit length.
    prompt_vectors = np.stack([_unit(center) for center in centers])
    write_ubem(paths["prompts"], EmbeddingMatrix(prompt_vectors.astype(np.float32), categories))
    _write_jsonl(paths["labels"], ({"id": sid, "category": cat} for sid, cat in labels))

    # per-category candidate pool: category descriptions plus paired ones
    pool = spec.descriptions_per_class + spec.modalities * spec.samples_per_class
    config = {
        "records": files["records"],
        "embeddings": files["kb_embeddings"],
        "prompts": files["prompts"],
        "labels": files["labels"],
        "modalities": files["modalities"],
        "k": min(50, pool),
        "retrieval_ks": [1, 5, 10, 20],
        "train": {
            "temperature": 0.07,
            "learning_rate": 0.01,
            "batch_size": 32,
            "epochs": 15,
            "seed": spec.seed,
            "optimizer": "adam",
            "symmetric_loss": False,
        },
    }
    atomic_write_text(paths["pipeline_config"], fixed_json(config))
    atomic_write_text(root / "bundle.json", fixed_json({"spec": asdict(spec), "files": files}))

    return SyntheticBundle(
        root=root,
        **paths,
        modality_names=modality_names,
        visual=visual_paths,
        pairs=pair_paths,
    )
