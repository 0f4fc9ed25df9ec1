"""In-memory spans around the calls `run_pipeline` makes, and the per-layer
metrics derived from them.

The modalign modules import functions by name (`from .kb import build`), so
a call is only seen when the name is replaced where the caller looks it up.
`instrument` therefore rebinds every name in `BINDINGS` in the module that
calls through it, plus the few methods in `METHODS` on their classes. Each
original function gets exactly one wrapper, shared by all its bindings, so a
call is never timed twice.

A span's layer is the last part of the defining module's name
(`modalign.vectors.top_k` -> `vectors`), so spans group by the repository's
own module layout.
"""

from __future__ import annotations

import importlib
import inspect
import os
import statistics
from collections import defaultdict
from time import perf_counter

# Module-level bindings that run_pipeline reaches, per calling module.
BINDINGS = {
    "modalign.pipeline": (
        "run_pipeline", "build", "write_kb_dir", "localize", "save_center_set",
        "train", "save_adapter", "evaluate_classification", "evaluate_retrieval",
        "category_relevance", "alignment_diagnostics", "read_ubem", "normalize_rows",
        "atomic_write_text", "fixed_json", "sha256_file", "sha256_text",
    ),
    "modalign.kb": ("load_records", "read_ubem", "write_ubem", "atomic_write_text"),
    "modalign.centers": ("top_k", "write_ubem_stream", "atomic_write_bytes"),
    "modalign.training": (
        "info_nce_loss", "normalize_rows", "write_ubem_stream", "atomic_write_bytes",
    ),
    "modalign.evaluation": ("top_k", "normalize_rows", "normalize"),
    "modalign.diagnostics": ("normalize_rows",),
    "modalign.ubem": ("atomic_write_bytes",),
    "modalign.vectors": ("normalize_rows", "normalize"),
}
# Methods called on instances; replaced on the class itself.
METHODS = {
    "modalign.training": (("LinearAdapter", "apply"),),
    "modalign.optim": (("Adam", "step"), ("SGD", "step")),
}

MB = 1e6


def span_name(fn) -> str:
    """`layer.qualname`, e.g. `vectors.top_k` or `optim.Adam.step`."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Spans (name, start, end, parent) of one process, plus counters.

    Spans are appended in call order; `parent` is the index of the span that
    was open when the call began, or -1 at the top level.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack = [-1]

    def within(self, prefix: str) -> bool:
        """Is a span whose name starts with `prefix` open right now?"""
        return any(self.names[i].startswith(prefix) for i in self._stack[1:])

    def wrap(self, fn, count=None):
        """Time every call of `fn`.

        `count(tracer, arg, result)` runs after the span closes, so counting
        never inflates the measured time; `arg(name)` returns the call's
        argument for parameter `name`, however it was passed.
        """
        name = span_name(fn)
        signature = inspect.signature(fn) if count is not None else None

        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parent.append(self._stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if count is not None:
                count(self, lambda p: signature.bind(*args, **kwargs).arguments[p], result)
            return result

        traced.__wrapped__ = fn
        return traced

    def to_dict(self) -> dict:
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        return {
            "run_id": self.run_id,
            "names": table,
            "spans": {
                "name": [index[n] for n in self.names],
                "start": self.start,
                "end": self.end,
                "parent": self.parent,
            },
            "counters": dict(self.counters),
        }


def spans_from_dict(trace: dict) -> list[tuple[str, float, float, int]]:
    """(name, start, end, parent) tuples from `Tracer.to_dict` output."""
    s = trace["spans"]
    names = trace["names"]
    return [
        (names[n], t0, t1, p)
        for n, t0, t1, p in zip(s["name"], s["start"], s["end"], s["parent"])
    ]


# -- counters, run after each span closes -----------------------------------


def _rows(matrix) -> int:
    return int(getattr(matrix, "vectors", matrix).shape[0])


def _payload_bytes(matrix) -> int:
    v = getattr(matrix, "vectors", matrix)
    return int(v.shape[0]) * int(v.shape[1]) * 4


def _count_zeroshot(t, arg, result):
    queries, anchors = arg("queries"), arg("anchors")
    t.counters["evaluation.zeroshot_queries"] += queries.rows
    if hasattr(anchors, "centers"):
        anchor_rows = sum(c.size for c in anchors.centers.values())
    else:
        anchor_rows = sum(_rows(block) for block in anchors.values())
    t.counters["eval_distinct_rows"] += queries.rows + anchor_rows


def _count_retrieval(t, arg, result):
    queries, gallery = arg("queries"), arg("gallery")
    t.counters["evaluation.retrieval_queries"] += queries.rows
    t.counters["eval_distinct_rows"] += queries.rows + gallery.rows


def _count_normalized(rows):
    def count(t, arg, result):
        if t.within("evaluation."):
            t.counters["eval_rows_normalized"] += rows(result)
    return count


def _count_top_k(t, arg, result):
    if t.within("centers.localize"):
        t.counters["centers.rows_ranked"] += _rows(arg("keys"))


def _count_build(t, arg, result):
    t.counters["kb.records"] += result.size


def _count_ubem_read(t, arg, result):
    t.counters["ubem.read_bytes"] += _payload_bytes(result)


def _count_ubem_write(t, arg, result):
    t.counters["ubem.write_bytes"] += _payload_bytes(arg("matrix"))


def _count_write_text(t, arg, result):
    t.counters["serialize.bytes_written"] += len(arg("text").encode("utf-8"))


def _count_write_bytes(t, arg, result):
    t.counters["serialize.bytes_written"] += len(arg("data"))


def _count_hash_file(t, arg, result):
    t.counters["serialize.hash_bytes"] += os.path.getsize(arg("path"))


def _count_hash_text(t, arg, result):
    t.counters["serialize.hash_bytes"] += len(arg("text").encode("utf-8"))


COUNTS = {
    "evaluation.evaluate_classification": _count_zeroshot,
    "evaluation.evaluate_retrieval": _count_retrieval,
    "vectors.normalize_rows": _count_normalized(lambda r: r.shape[0]),
    "vectors.normalize": _count_normalized(lambda r: 1),
    "vectors.top_k": _count_top_k,
    "kb.build": _count_build,
    "ubem.read_ubem": _count_ubem_read,
    "ubem.write_ubem": _count_ubem_write,
    "ubem.write_ubem_stream": _count_ubem_write,
    "serialize.atomic_write_text": _count_write_text,
    "serialize.atomic_write_bytes": _count_write_bytes,
    "serialize.sha256_file": _count_hash_file,
    "serialize.sha256_text": _count_hash_text,
}


def instrument(tracer: Tracer) -> None:
    """Rebind every traced name; call before `modalign.cli` is imported.

    A name missing from its module raises, so a refactor that moves a call
    site is noticed, not silently left untimed.
    """
    wrappers: dict[int, object] = {}

    def wrapper_for(fn):
        if id(fn) not in wrappers:
            wrappers[id(fn)] = tracer.wrap(fn, COUNTS.get(span_name(fn)))
        return wrappers[id(fn)]

    originals = []
    for module_name, names in BINDINGS.items():
        module = importlib.import_module(module_name)
        originals.extend((module, name, getattr(module, name)) for name in names)
    for module_name, methods in METHODS.items():
        module = importlib.import_module(module_name)
        for cls_name, attr in methods:
            cls = getattr(module, cls_name)
            originals.append((cls, attr, cls.__dict__[attr]))
    for owner, name, fn in originals:
        setattr(owner, name, wrapper_for(fn))


# -- span arithmetic ------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    result = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result


def total_time(spans, names) -> float:
    """Summed duration of spans named in `names`, skipping any span nested in
    another span of the same set so no interval counts twice."""
    names = set(names)
    total = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        if name not in names:
            continue
        p = parent
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            total += end - start
    return total


def call_count(spans, names) -> int:
    names = set(names)
    return sum(1 for s in spans if s[0] in names)


def layer_self_times(spans) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for (name, *_), t in zip(spans, self_times(spans)):
        out[layer_of(name)] += t
    return dict(out)


# Per-layer metric -> span names whose (outermost) durations it sums.
TIME_METRICS = {
    "evaluation.zeroshot_s": ("evaluation.evaluate_classification",),
    "evaluation.retrieval_s": ("evaluation.evaluate_retrieval",),
    "vectors.normalize_rows_s": ("vectors.normalize_rows",),
    "vectors.top_k_s": ("vectors.top_k",),
    "training.train_s": ("training.train",),
    "contrastive.loss_s": ("contrastive.info_nce_loss",),
    "optim.step_s": ("optim.Adam.step", "optim.SGD.step"),
    "training.save_s": ("training.save_adapter",),
    "training.apply_s": ("training.LinearAdapter.apply",),
    "kb.parse_s": ("kb.load_records",),
    "kb.ingest_s": ("kb.build",),
    "kb.write_s": ("kb.write_kb_dir",),
    "ubem.read_s": ("ubem.read_ubem",),
    "ubem.write_s": ("ubem.write_ubem", "ubem.write_ubem_stream"),
    "centers.localize_s": ("centers.localize",),
    "centers.save_s": ("centers.save_center_set",),
    "serialize.write_s": ("serialize.atomic_write_text", "serialize.atomic_write_bytes"),
    "serialize.hash_s": ("serialize.sha256_file", "serialize.sha256_text"),
    "diagnostics.alignment_s": ("diagnostics.alignment_diagnostics",),
}
# Per-layer metric -> span names whose calls it counts.
CALL_METRICS = {
    "vectors.normalize_rows_calls": ("vectors.normalize_rows",),
    "vectors.top_k_calls": ("vectors.top_k",),
    "training.steps": ("optim.Adam.step", "optim.SGD.step"),
    "contrastive.calls": ("contrastive.info_nce_loss",),
    "training.apply_calls": ("training.LinearAdapter.apply",),
}
# Per-layer metric -> the span whose self time it sums.
SELF_METRICS = {
    "training.self_s": "training.train",
    "pipeline.self_s": "pipeline.run_pipeline",
}
COUNTER_METRICS = {
    "evaluation.zeroshot_queries": ("evaluation.zeroshot_queries", 1),
    "evaluation.retrieval_queries": ("evaluation.retrieval_queries", 1),
    "kb.records": ("kb.records", 1),
    "centers.rows_ranked": ("centers.rows_ranked", 1),
    "ubem.read_mb": ("ubem.read_bytes", MB),
    "ubem.write_mb": ("ubem.write_bytes", MB),
    "serialize.bytes_written": ("serialize.bytes_written", 1),
    "serialize.hash_mb": ("serialize.hash_bytes", MB),
}


def layer_metrics(trace: dict) -> dict[str, float]:
    """Every span- and counter-derived per-layer metric of one traced run."""
    spans = spans_from_dict(trace)
    counters = trace["counters"]
    out: dict[str, float] = {}
    for metric, names in TIME_METRICS.items():
        out[metric] = total_time(spans, names)
    for metric, names in CALL_METRICS.items():
        out[metric] = call_count(spans, names)
    selfs = self_times(spans)
    for metric, name in SELF_METRICS.items():
        out[metric] = sum(t for s, t in zip(spans, selfs) if s[0] == name)
    for metric, (key, scale) in COUNTER_METRICS.items():
        out[metric] = counters.get(key, 0) / scale
    distinct = counters.get("eval_distinct_rows", 0)
    out["vectors.renorm_ratio"] = (
        counters.get("eval_rows_normalized", 0) / distinct if distinct else 0.0
    )
    return out


def layer_shares(trace: dict) -> dict[str, float]:
    """Self time of each layer as a share of the run_pipeline span."""
    spans = spans_from_dict(trace)
    total = total_time(spans, ("pipeline.run_pipeline",))
    return {
        layer: t / total
        for layer, t in sorted(layer_self_times(spans).items())
        if total > 0
    }


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}
