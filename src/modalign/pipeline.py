"""End-to-end run: KB build, anchor localization, training, evaluation.

A run consumes a JSON config naming the input files and writes a
self-describing run directory: the rebuilt KB, the anchor-set file, one
adapter per modality, report JSONs (classification, retrieval, alignment
diagnostics before/after training), a machine-diffable summary, and a
manifest with input hashes. Nothing in the outputs depends on wall-clock
time, so identical configs reproduce identical bytes.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .centers import CenterSet, localize, prompts_from_matrix, save_center_set
from .diagnostics import alignment_diagnostics
from .errors import MalformedRecord, StageError, UnknownSample
from .evaluation import (
    Direction,
    ScoringMode,
    category_relevance,
    evaluate_classification,
    evaluate_retrieval,
)
from .kb import KnowledgeBase, Source, build, write_kb_dir
from .serialize import atomic_write_text, fixed_json, read_jsonl, sha256_file, sha256_text
from .training import (
    LinearAdapter,
    TrainConfig,
    resolve_pairs,
    save_adapter,
    train,
    train_config_from_dict,
)
from .ubem import read_ubem
from .vectors import EmbeddingMatrix, normalize_rows


@dataclass(frozen=True)
class ModalityInput:
    visual: Path
    pairs: Path


@dataclass(frozen=True)
class PipelineConfig:
    records: Path
    embeddings: Path
    prompts: Path
    labels: Path
    modalities: dict[str, ModalityInput]
    out_dir: Path
    k: int = 50
    retrieval_ks: tuple[int, ...] = (1, 5, 10, 20)
    train: TrainConfig = field(default_factory=TrainConfig)
    source_filter: Source | None = None
    dump_projection: bool = False

    def input_paths(self) -> dict[str, Path]:
        paths = {
            "records": self.records,
            "embeddings": self.embeddings,
            "prompts": self.prompts,
            "labels": self.labels,
        }
        for name, mod in self.modalities.items():
            paths[f"visual:{name}"] = mod.visual
            paths[f"pairs:{name}"] = mod.pairs
        return paths


def load_pipeline_config(path, out_dir=None) -> PipelineConfig:
    """Parse a pipeline config JSON; relative paths resolve against the file.

    A missing key or a value of the wrong type raises ValueError naming the
    file and the key.
    """
    path = Path(path)
    obj = json.loads(path.read_text(encoding="utf-8"))
    base = path.parent

    def resolve(p) -> Path:
        p = Path(p)
        return p if p.is_absolute() else base / p

    def required(mapping, key: str, where: str):
        if not isinstance(mapping, dict) or key not in mapping:
            raise ValueError(f"{path}: {where} has no key {key!r}")
        return mapping[key]

    modalities_obj = required(obj, "modalities", "config")
    if not isinstance(modalities_obj, dict):
        raise ValueError(f"{path}: 'modalities' must map names to inputs")
    modalities = {
        name: ModalityInput(
            resolve(required(entry, "visual", f"modality {name!r}")),
            resolve(required(entry, "pairs", f"modality {name!r}")),
        )
        for name, entry in modalities_obj.items()
    }
    paths = {
        key: resolve(required(obj, key, "config"))
        for key in ("records", "embeddings", "prompts", "labels")
    }
    resolved_out = out_dir or obj.get("out_dir")
    if resolved_out is None:
        raise ValueError("config must set out_dir or the caller must supply one")
    source_filter = obj.get("source_filter")
    try:
        return PipelineConfig(
            **paths,
            modalities=modalities,
            out_dir=Path(resolved_out),
            k=int(obj.get("k", 50)),
            retrieval_ks=tuple(obj.get("retrieval_ks", (1, 5, 10, 20))),
            train=train_config_from_dict(obj.get("train", {})),
            source_filter=Source(source_filter) if source_filter else None,
            dump_projection=bool(obj.get("dump_projection", False)),
        )
    except (TypeError, ValueError) as e:
        raise ValueError(f"{path}: {e}") from e


def _canonical_config(config: PipelineConfig) -> dict:
    return {
        "records": str(config.records),
        "embeddings": str(config.embeddings),
        "prompts": str(config.prompts),
        "labels": str(config.labels),
        "modalities": {
            name: {"visual": str(m.visual), "pairs": str(m.pairs)}
            for name, m in sorted(config.modalities.items())
        },
        "k": config.k,
        "retrieval_ks": list(config.retrieval_ks),
        "train": {
            "temperature": config.train.temperature,
            "learning_rate": config.train.learning_rate,
            "batch_size": config.train.batch_size,
            "epochs": config.train.epochs,
            "seed": config.train.seed,
            "optimizer": config.train.optimizer.value,
            "symmetric_loss": config.train.symmetric_loss,
        },
        "source_filter": config.source_filter.value if config.source_filter else None,
        "dump_projection": config.dump_projection,
    }


def load_labels(path) -> dict[str, str]:
    """Parse a labels JSONL ({"id": ..., "category": ...} per line)."""
    labels: dict[str, str] = {}
    for line_number, obj in read_jsonl(path):
        if not isinstance(obj, dict) or "id" not in obj or "category" not in obj:
            raise MalformedRecord(line_number, "expected fields 'id' and 'category'")
        sample_id = str(obj["id"])
        if sample_id in labels:
            raise MalformedRecord(line_number, f"duplicate id {sample_id!r}")
        labels[sample_id] = str(obj["category"])
    return labels


def load_pairs_file(path) -> list[tuple[str, int]]:
    """Parse a pairs JSONL ({"sample_id": ..., "visual_row": ...} per line)."""
    pairs: list[tuple[str, int]] = []
    seen: set[str] = set()
    for line_number, obj in read_jsonl(path):
        if not isinstance(obj, dict) or "sample_id" not in obj or "visual_row" not in obj:
            raise MalformedRecord(line_number, "expected fields 'sample_id' and 'visual_row'")
        sample_id = str(obj["sample_id"])
        if sample_id in seen:
            raise MalformedRecord(line_number, f"duplicate sample_id {sample_id!r}")
        seen.add(sample_id)
        try:
            pairs.append((sample_id, int(obj["visual_row"])))
        except (TypeError, ValueError):
            raise MalformedRecord(
                line_number, f"visual_row must be an integer, got {obj['visual_row']!r}"
            ) from None
    return pairs


def categories_for(ids: list[str], labels: dict[str, str]) -> list[str]:
    """The category of each id; UnknownSample if any id has no label."""
    missing = [i for i in ids if i not in labels]
    if missing:
        raise UnknownSample(f"no category label for sample(s) {missing[:3]} ...")
    return [labels[i] for i in ids]


def pca_2d(vectors: np.ndarray) -> np.ndarray:
    """Project rows onto their top two principal components."""
    x = np.asarray(vectors, dtype=np.float64)
    x = x - x.mean(axis=0, keepdims=True)
    _, _, vt = np.linalg.svd(x, full_matrices=False)
    components = vt[:2]
    # Fix the sign convention so the projection is reproducible.
    for i in range(components.shape[0]):
        j = np.argmax(np.abs(components[i]))
        if components[i, j] < 0:
            components[i] = -components[i]
    return x @ components.T


@dataclass
class PipelineResult:
    out_dir: Path
    kb: KnowledgeBase
    centers: CenterSet
    adapters: dict[str, LinearAdapter]
    summary: dict


@contextmanager
def _stage(name: str):
    """Re-raise any failure inside the block as StageError(name, cause)."""
    try:
        yield
    except Exception as e:
        raise StageError(name, e) from e


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Execute all stages in order; see the module docstring for outputs."""

    # -- validate: fail before writing anything -----------------------------
    with _stage("validate"):
        missing = [
            f"{name} ({path})"
            for name, path in sorted(config.input_paths().items())
            if not Path(path).is_file()
        ]
        if missing:
            raise FileNotFoundError("missing input file(s): " + ", ".join(missing))
        if not config.modalities:
            raise ValueError("pipeline needs at least one modality")
        labels = load_labels(config.labels)
        prompt_matrix = read_ubem(config.prompts)
        prompts = prompts_from_matrix(prompt_matrix)
        visual: dict[str, EmbeddingMatrix] = {}
        pair_rows: dict[str, list[tuple[str, int]]] = {}
        for name in sorted(config.modalities):
            visual[name] = read_ubem(config.modalities[name].visual)
            pair_rows[name] = load_pairs_file(config.modalities[name].pairs)
            if prompt_matrix.dim != visual[name].dim:
                raise ValueError(
                    f"modality {name!r} dim {visual[name].dim} != prompt dim {prompt_matrix.dim}"
                )

    out = Path(config.out_dir)
    reports_dir = out / "reports"
    adapters_dir = out / "adapters"
    names = sorted(config.modalities)

    with _stage("kb-build"):
        kb = build(config.records, config.embeddings)
        if kb.dim != prompt_matrix.dim:
            raise ValueError(f"KB dim {kb.dim} != prompt dim {prompt_matrix.dim}")
        write_kb_dir(kb, out / "kb")

    with _stage("centers"):
        centers = localize(kb, prompts, config.k, config.source_filter)
        save_center_set(out / "centers.cset", centers)

    adapters: dict[str, LinearAdapter] = {}
    losses: dict[str, list[float]] = {}
    for name in names:
        with _stage(f"train:{name}"):
            vectors, text_rows = resolve_pairs(pair_rows[name], visual[name], kb)
            adapters[name], losses[name] = train(
                vectors, text_rows, kb, config.train, modality=name
            )
            save_adapter(adapters_dir / f"{name}.adapter", adapters[name])

    # Each modality's categories and its pre- and post-training embeddings are
    # computed once, in its eval stage, and reused by every later stage.
    categories: dict[str, list[str]] = {}
    embedded: dict[str, dict[str, EmbeddingMatrix]] = {}
    prompt_means = {c: p[None, :] for c, p in centers.prompt_embeddings.items()}
    accuracy: dict[str, dict[str, dict[str, float]]] = {}
    for name in names:
        with _stage(f"eval:{name}"):
            ids = visual[name].ids
            categories[name] = categories_for(ids, labels)
            embedded[name] = {
                "pre": EmbeddingMatrix(normalize_rows(visual[name]), ids),
                "post": adapters[name].apply(visual[name]),
            }
            accuracy[name] = {}
            for phase, queries in embedded[name].items():
                accuracy[name][phase] = {}
                for mode, anchors in (
                    (ScoringMode.CENTER_MAX, centers),
                    (ScoringMode.PROMPT_MEAN, prompt_means),
                ):
                    report = evaluate_classification(queries, categories[name], anchors, mode)
                    accuracy[name][phase][mode.value] = report.top1_accuracy
                    atomic_write_text(
                        reports_dir / f"zeroshot_{name}_{phase}_{mode.value}.json",
                        fixed_json(report.to_report()),
                    )

    retrieval: dict[str, dict[str, dict[str, float]]] = {}
    for a in names:
        for b in names:
            if a == b:
                continue
            with _stage(f"retrieval:{a}->{b}"):
                relevance = category_relevance(
                    visual[a].ids, categories[a], visual[b].ids, categories[b]
                )
                pair_key = f"{a}_to_{b}"
                retrieval[pair_key] = {}
                for phase in ("pre", "post"):
                    report = evaluate_retrieval(
                        embedded[a][phase],
                        embedded[b][phase],
                        relevance,
                        list(config.retrieval_ks),
                        Direction.A_TO_B,
                    )
                    retrieval[pair_key][phase] = {
                        str(k): v for k, v in sorted(report.recall_at.items())
                    }
                    atomic_write_text(
                        reports_dir / f"retrieval_{pair_key}_{phase}.json",
                        fixed_json(report.to_report()),
                    )

    with _stage("diagnostics"):
        diag = {}
        for phase in ("pre", "post"):
            diag[phase] = alignment_diagnostics(
                {name: embedded[name][phase] for name in names}, categories
            )
            atomic_write_text(
                reports_dir / f"diagnostics_{phase}.json", fixed_json(diag[phase].to_report())
            )
        if config.dump_projection:
            for name in names:
                for phase, matrix in embedded[name].items():
                    coords = pca_2d(matrix.vectors)
                    lines = [f"{x:.6f},{y:.6f}" for x, y in coords]
                    atomic_write_text(
                        out / "projections" / f"{name}_{phase}.csv",
                        "\n".join(lines) + "\n",
                    )

    with _stage("summary"):
        summary = {
            "k": config.k,
            "modalities": names,
            "train_loss": {
                name: {"first_epoch": losses[name][0], "last_epoch": losses[name][-1]}
                for name in names
            },
            "zeroshot_top1": accuracy,
            "retrieval_recall": retrieval,
            "alignment": {phase: diag[phase].to_report() for phase in ("pre", "post")},
        }
        atomic_write_text(reports_dir / "summary.json", fixed_json(summary))

        canonical = _canonical_config(config)
        manifest = {
            "tool": "modalign",
            "version": __version__,
            "config_sha256": sha256_text(fixed_json(canonical)),
            "config": canonical,
            "inputs": {
                name: {"path": str(path), "sha256": sha256_file(path)}
                for name, path in sorted(config.input_paths().items())
            },
            "reports": sorted(p.name for p in reports_dir.glob("*.json")),
            "adapters": sorted(p.name for p in adapters_dir.glob("*.adapter")),
        }
        atomic_write_text(out / "manifest.json", fixed_json(manifest))

    return PipelineResult(out, kb, centers, adapters, summary)
