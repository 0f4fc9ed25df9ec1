"""Independent check of a pipeline run's summary.json, in plain numpy.

It imports nothing from modalign. From the bundle's files and the run's
`centers.cset` and `adapters/*.adapter` it recomputes, for every modality
and phase, the center_max and prompt_mean top-1 counts and, for every
ordered modality pair, the recall@k counts with ties going to the lower
gallery row. Each count must match the fraction that summary.json reports.

The pipeline scores post-training queries with its in-memory float64
adapter, while the adapter file holds float32 weights, so the oracle's
scores can differ from the pipeline's by about 1e-7. A decision whose
margin is below `MARGIN` is therefore counted as ambiguous, and a reported
count is accepted when it lies between the count of sure hits and that
count plus the ambiguous ones. On the benchmark's bundles no decision falls
that close, so the counts are compared exactly.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

MARGIN = 1e-5

_HEADER = struct.Struct("<HHIQ")
_U32 = struct.Struct("<I")


def read_ubem_stream(f) -> tuple[np.ndarray, list[str] | None]:
    """One UBEM blob: b"UBEM", u16 version, u16 flags, u32 dim, u64 rows,
    rows*dim little-endian float32, then an optional label block."""
    if f.read(4) != b"UBEM":
        raise ValueError("not a UBEM blob")
    version, _, dim, rows = _HEADER.unpack(f.read(_HEADER.size))
    if version != 1:
        raise ValueError(f"UBEM version {version}")
    data = f.read(rows * dim * 4)
    if len(data) != rows * dim * 4:
        raise ValueError("truncated UBEM payload")
    vectors = np.frombuffer(data, dtype="<f4").reshape(rows, dim).astype(np.float64)
    labels = None
    if f.read(1) == b"\x01":
        labels = []
        for _ in range(rows):
            (n,) = _U32.unpack(f.read(_U32.size))
            labels.append(f.read(n).decode("utf-8"))
    return vectors, labels


def read_ubem(path) -> tuple[np.ndarray, list[str] | None]:
    with open(path, "rb") as f:
        return read_ubem_stream(f)


def read_header_and_blobs(path, count: int):
    """A center-set or adapter file: one JSON header line, then UBEM blobs."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        return header, [read_ubem_stream(f) for _ in range(count)]


def unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def top1_bounds(scores: np.ndarray, truth: np.ndarray) -> tuple[int, int, int]:
    """(exact, sure, ambiguous) top-1 hit counts over rows of `scores`.

    Argmax ties go to the lowest column, i.e. the first category by name.
    """
    pred = scores.argmax(axis=1)
    hit = pred == truth
    ordered = np.sort(scores, axis=1)
    if scores.shape[1] > 1:
        ambiguous = (ordered[:, -1] - ordered[:, -2]) < MARGIN
    else:
        ambiguous = np.zeros(len(hit), dtype=bool)
    return int(hit.sum()), int((hit & ~ambiguous).sum()), int(ambiguous.sum())


def recall_bounds(sims: np.ndarray, relevant: np.ndarray, ks: list[int]):
    """{k: (exact, sure, ambiguous)} recall@k hit counts.

    A query's rank is the number of non-relevant gallery rows ranked above
    its best relevant row: those scoring higher, plus those tying it at a
    lower row index.
    """
    rows = np.arange(sims.shape[1])
    masked = np.where(relevant, sims, -np.inf)
    best = masked.max(axis=1, keepdims=True)
    first = np.where(relevant & (sims == best), rows, sims.shape[1]).min(axis=1, keepdims=True)
    other = ~relevant
    rank = (other & (sims > best)).sum(axis=1) + (other & (sims == best) & (rows < first)).sum(axis=1)
    rank_lo = (other & (sims > best + MARGIN)).sum(axis=1)
    rank_hi = (other & (sims > best - MARGIN)).sum(axis=1)
    k_max = min(ks[-1], sims.shape[1])
    out = {}
    for k in ks:
        limit = min(k, k_max)
        sure = rank_hi < limit
        possible = rank_lo < limit
        out[k] = (int((rank < limit).sum()), int(sure.sum()), int((possible & ~sure).sum()))
    return out


def _compare(label: str, reported: float, n: int, bounds, errors: list[str]) -> None:
    exact, sure, ambiguous = bounds
    accepted = {f"{c / n:.6f}" for c in range(sure, sure + ambiguous + 1)}
    if f"{reported:.6f}" not in accepted:
        errors.append(f"{label}: summary {reported:.6f}, oracle {exact}/{n} = {exact / n:.6f}")


def check_run(config_path, run_dir) -> list[str]:
    """Mismatches between a run's summary.json and the oracle; [] when none."""
    config_path = Path(config_path)
    run_dir = Path(run_dir)
    base = config_path.parent
    config = json.loads(config_path.read_text(encoding="utf-8"))
    summary = json.loads((run_dir / "reports" / "summary.json").read_text(encoding="utf-8"))
    labels = {r["id"]: r["category"] for r in read_jsonl(base / config["labels"])}
    ks = list(config.get("retrieval_ks", [1, 5, 10, 20]))

    header, ((members, _), (prompts, prompt_labels)) = read_header_and_blobs(
        run_dir / "centers.cset", 2
    )
    categories = sorted(e["category"] for e in header["categories"])
    column = {c: i for i, c in enumerate(categories)}
    blocks, offset = {}, 0
    for entry in header["categories"]:
        size = len(entry["member_rows"])
        blocks[entry["category"]] = unit_rows(members[offset : offset + size])
        offset += size
    prompt_rows = {c: i for i, c in enumerate(prompt_labels)}
    prompt_means = unit_rows(unit_rows(prompts[[prompt_rows[c] for c in categories]]))

    errors: list[str] = []
    queries: dict[str, dict[str, np.ndarray]] = {}
    cats: dict[str, np.ndarray] = {}
    for name in sorted(config["modalities"]):
        visual, ids = read_ubem(base / config["modalities"][name]["visual"])
        _, ((weight, _), (bias, _)) = read_header_and_blobs(
            run_dir / "adapters" / f"{name}.adapter", 2
        )
        cats[name] = np.array([labels[i] for i in ids])
        queries[name] = {
            "pre": unit_rows(visual),
            "post": unit_rows(visual @ weight.T + bias[0]),
        }
        truth = np.array([column[c] for c in cats[name]])
        for phase, q in queries[name].items():
            center_max = np.stack(
                [np.clip(q @ blocks[c].T, -1.0, 1.0).max(axis=1) for c in categories], axis=1
            )
            prompt_mean = np.clip(q @ prompt_means.T, -1.0, 1.0)
            for mode, scores in (("center_max", center_max), ("prompt_mean", prompt_mean)):
                reported = summary["zeroshot_top1"][name][phase][mode]
                _compare(
                    f"zeroshot {name} {phase} {mode}", reported, len(truth),
                    top1_bounds(scores, truth), errors,
                )

    names = sorted(config["modalities"])
    for a in names:
        for b in names:
            if a == b:
                continue
            relevant = cats[a][:, None] == cats[b][None, :]
            for phase in ("pre", "post"):
                sims = np.clip(queries[a][phase] @ queries[b][phase].T, -1.0, 1.0)
                for k, bounds in recall_bounds(sims, relevant, ks).items():
                    key = f"{a}_to_{b}"
                    reported = summary["retrieval_recall"][key][phase][str(k)]
                    _compare(f"recall@{k} {key} {phase}", reported, len(relevant), bounds, errors)
    return errors
