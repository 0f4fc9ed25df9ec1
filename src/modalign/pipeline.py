"""End-to-end run: KB build, anchor localization, training, evaluation.

A run consumes a JSON config naming the input files and writes a
self-describing run directory: the rebuilt KB, the anchor-set file, one
adapter per modality, report JSONs (classification, retrieval, alignment
diagnostics before/after training), a machine-diffable summary, and a
manifest with input hashes. Nothing in the outputs depends on wall-clock
time, so identical configs reproduce identical bytes.

Stages run in this order, and a failure in one raises StageError naming it:
validate, kb-build, centers, pairs, train:<modality>, eval:<modality>,
retrieval:<a>-><b>, diagnostics, summary. `pairs` is the knowledge base's
last use: it resolves every modality's pairs to visual and paired text rows,
and the KB is released after it, so no adapter trains while it is held.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from . import __version__
from .centers import (
    DEFAULT_K,
    CenterSet,
    group_rows,
    localize,
    prompts_from_matrix,
    save_center_set,
)
from .diagnostics import alignment_diagnostics
from .errors import MalformedRecord, StageError, UnknownSample
from .evaluation import (
    DEFAULT_RETRIEVAL_KS,
    ScoringMode,
    category_relevance,
    evaluate_classification,
    evaluate_retrieval,
)
from .kb import Source, build, write_kb_dir
from .serialize import (
    BOOLEAN,
    INTEGER,
    STRING,
    atomic_write_text,
    field_problem,
    fixed_json,
    is_int,
    read_json,
    read_jsonl_objects,
    sha256_file,
    sha256_text,
)
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
    k: int = DEFAULT_K
    retrieval_ks: tuple[int, ...] = DEFAULT_RETRIEVAL_KS
    train: TrainConfig = field(default_factory=TrainConfig)
    source_filter: Source | None = None
    dump_projection: bool = False

    def input_paths(self) -> dict[str, Path]:
        paths = {key: getattr(self, key) for key in _PATH_KEYS}
        for name, mod in self.modalities.items():
            paths[f"visual:{name}"] = mod.visual
            paths[f"pairs:{name}"] = mod.pairs
        return paths


def _is_ascending_positive_ints(value) -> bool:
    return (
        isinstance(value, list)
        and bool(value)
        and all(is_int(x) and x >= 1 for x in value)
        and value == sorted(value)
    )


_SOURCES = [s.value for s in Source]
_PATH_KEYS = ("records", "embeddings", "prompts", "labels")
# The pipeline config's field table; `out_dir` may come from the caller.
_CONFIG_FIELDS = {
    **dict.fromkeys(_PATH_KEYS + ("out_dir",), STRING),
    "modalities": (
        lambda v: isinstance(v, dict) and len(v) >= 2, "an object of two or more modalities"
    ),
    "k": (lambda v: is_int(v) and v >= 1, "a positive integer"),
    "retrieval_ks": (_is_ascending_positive_ints, "an ascending list of positive integers"),
    "train": (lambda v: isinstance(v, dict), "an object"),
    "source_filter": (lambda v: v is None or v in _SOURCES, f"null or one of {_SOURCES}"),
    "dump_projection": BOOLEAN,
}
_MODALITY_FIELDS = {"visual": STRING, "pairs": STRING}


def load_pipeline_config(path, out_dir=None) -> PipelineConfig:
    """Parse a pipeline config JSON; relative paths resolve against the file.

    Invalid JSON, an unknown or missing key, and a value of the wrong type
    raise ValueError naming the file (and the key); keys left out keep
    PipelineConfig's defaults."""
    path = Path(path)
    obj = read_json(path)
    problem = field_problem(obj, _CONFIG_FIELDS, _PATH_KEYS + ("modalities",), closed=True)
    if problem is not None:
        raise ValueError(f"{path}: config: {problem}")
    for name, entry in obj["modalities"].items():
        problem = field_problem(entry, _MODALITY_FIELDS, _MODALITY_FIELDS, closed=True)
        if problem is not None:
            raise ValueError(f"{path}: modality {name!r}: {problem}")
    base = path.parent  # `base / p` is `p` itself when `p` is absolute
    convert = {
        **dict.fromkeys(_PATH_KEYS, base.joinpath),
        "modalities": lambda m: {
            name: ModalityInput(base / e["visual"], base / e["pairs"]) for name, e in m.items()
        },
        "retrieval_ks": tuple,
        "train": train_config_from_dict,
        "source_filter": lambda v: v and Source(v),
    }
    out_dir = out_dir or obj.get("out_dir")
    if out_dir is None:
        raise ValueError(f"{path}: config must set out_dir or the caller must supply one")
    try:
        values = {key: convert.get(key, lambda v: v)(value) for key, value in obj.items()}
    except ValueError as e:  # a train config problem
        raise ValueError(f"{path}: {e}") from e
    return PipelineConfig(**{**values, "out_dir": Path(out_dir)})


def _json_items(items) -> dict:
    """`asdict`'s dict factory for JSON: paths as strings, enums as values."""
    return {
        key: str(v) if isinstance(v, Path) else v.value if isinstance(v, Enum) else v
        for key, v in items
    }


def _canonical_config(config: PipelineConfig) -> dict:
    """The config as the manifest hashes it: without `out_dir`, so a run's
    location never changes its hash, and with modalities sorted by name."""
    canonical = asdict(config, dict_factory=_json_items)
    del canonical["out_dir"]
    canonical["modalities"] = dict(sorted(canonical["modalities"].items()))
    return canonical


_LABEL_FIELDS = {"id": STRING, "category": STRING}
_PAIR_FIELDS = {"sample_id": STRING, "visual_row": INTEGER}
_RELEVANCE_FIELDS = {
    "query_id": STRING,
    "relevant": (
        lambda v: isinstance(v, list) and all(isinstance(g, str) for g in v),
        "a list of strings",
    ),
}


def load_labels(path) -> dict[str, str]:
    """Parse a labels JSONL ({"id": ..., "category": ...} per line): two JSON
    strings, each id at most once, or MalformedRecord naming file and line."""
    return {obj["id"]: obj["category"] for _, obj in read_jsonl_objects(path, _LABEL_FIELDS, "id")}


def load_pairs_file(path) -> list[tuple[str, int]]:
    """Parse a pairs JSONL ({"sample_id": ..., "visual_row": ...} per line).

    A `sample_id` that is not a JSON string, a `visual_row` that is not a
    JSON integer, a repeated `sample_id`, a negative `visual_row` and one
    already paired with another `sample_id` raise MalformedRecord naming the
    file and line.
    """
    row_owner: dict[int, str] = {}  # in line order
    for line_number, obj in read_jsonl_objects(path, _PAIR_FIELDS, "sample_id"):
        row = obj["visual_row"]
        if row < 0:
            raise MalformedRecord(line_number, f"'visual_row' must be >= 0, got {row}", path)
        if row in row_owner:
            raise MalformedRecord(
                line_number,
                f"visual_row {row} is already paired with sample_id {row_owner[row]!r}",
                path,
            )
        row_owner[row] = obj["sample_id"]
    return [(sample_id, row) for row, sample_id in row_owner.items()]


def load_relevance(path) -> dict[str, set[str]]:
    """Parse a relevance JSONL ({"query_id": ..., "relevant": [...]} per line):
    a JSON string and a list of them, each query_id at most once, or
    MalformedRecord naming the file and line."""
    return {
        obj["query_id"]: set(obj["relevant"])
        for _, obj in read_jsonl_objects(path, _RELEVANCE_FIELDS, "query_id")
    }


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
        if len(config.modalities) < 2:
            raise ValueError("pipeline needs at least two modalities")
        labels = load_labels(config.labels)
        prompt_matrix = read_ubem(config.prompts)
        if prompt_matrix.rows == 0:
            raise ValueError(f"{config.prompts}: prompt matrix has no rows")
        prompts = prompts_from_matrix(prompt_matrix, config.prompts)
        visual: dict[str, EmbeddingMatrix] = {}
        pair_rows: dict[str, list[tuple[str, int]]] = {}
        # Each modality's row categories, reused by every later stage.
        categories: dict[str, list[str]] = {}
        for name in sorted(config.modalities):
            visual[name] = read_ubem(config.modalities[name].visual)
            pair_rows[name] = load_pairs_file(config.modalities[name].pairs)
            if prompt_matrix.dim != visual[name].dim:
                raise ValueError(
                    f"modality {name!r} dim {visual[name].dim} != prompt dim {prompt_matrix.dim}"
                )
            categories[name] = categories_for(visual[name].ids, labels)
            unprompted = sorted(set(categories[name]).difference(prompts))
            if unprompted:
                raise ValueError(
                    f"{config.prompts}: no prompt for categories {unprompted} "
                    f"that label rows of modality {name!r}"
                )

    out = Path(config.out_dir)
    reports_dir = out / "reports"
    adapters_dir = out / "adapters"
    names = sorted(config.modalities)

    # The records and the normalized rows stream into kb/ as they are read;
    # the files are committed only when the whole stage succeeds, and the KB
    # reads its rows back from kb/embeddings.ubem.
    with _stage("kb-build"), write_kb_dir(out / "kb") as sink:
        kb = build(config.records, config.embeddings, sink)
        if kb.dim != prompt_matrix.dim:
            raise ValueError(f"KB dim {kb.dim} != prompt dim {prompt_matrix.dim}")

    with _stage("centers"):
        centers = localize(kb, prompts, config.k, config.source_filter)
        save_center_set(out / "centers.cset", centers)

    with _stage("pairs"):
        paired = {
            name: resolve_pairs(pair_rows[name], visual[name], kb, config.modalities[name].pairs)
            for name in names
        }
    del kb  # its last use: nothing holds the KB while adapters train

    adapters: dict[str, LinearAdapter] = {}
    losses: dict[str, list[float]] = {}
    for name in names:
        with _stage(f"train:{name}"):
            # Popped, so each modality's arrays are freed once its adapter is trained.
            adapters[name], losses[name] = train(*paired.pop(name), config.train, modality=name)
            save_adapter(adapters_dir / f"{name}.adapter", adapters[name])

    # Each modality's pre- and post-training embeddings are computed once, in
    # its eval stage, and reused by every later stage.
    embedded: dict[str, dict[str, EmbeddingMatrix]] = {}
    anchors = {
        ScoringMode.CENTER_MAX: centers.member_blocks(),
        ScoringMode.PROMPT_MEAN: group_rows(centers.prompts),
    }
    accuracy: dict[str, dict[str, dict[str, float]]] = {}
    for name in names:
        with _stage(f"eval:{name}"):
            embedded[name] = {
                "pre": EmbeddingMatrix(normalize_rows(visual[name]), visual[name].ids),
                "post": adapters[name].apply(visual[name]),
            }
            accuracy[name] = {}
            for phase, queries in embedded[name].items():
                accuracy[name][phase] = {}
                for mode, blocks in anchors.items():
                    report = evaluate_classification(queries, categories[name], blocks, mode)
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
                    shaped = evaluate_retrieval(
                        embedded[a][phase], embedded[b][phase], relevance, list(config.retrieval_ks)
                    ).to_report()
                    retrieval[pair_key][phase] = shaped["recall_at"]
                    atomic_write_text(
                        reports_dir / f"retrieval_{pair_key}_{phase}.json", fixed_json(shaped)
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

    return PipelineResult(out, centers, adapters, summary)
