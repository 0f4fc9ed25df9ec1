"""Command-line interface.

Verbs: kb build/stats, centers localize/sweep, train, gradcheck,
eval zeroshot/retrieval, synth generate, pipeline run, diagnostics.

Exit codes: 0 success, 1 usage error, 2 data/validation error,
3 numerical failure (a failed gradient check).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .centers import (
    DEFAULT_K,
    DEFAULT_PROMPT_TEMPLATE,
    group_rows,
    load_center_set,
    localize,
    prompts_from_matrix,
    save_center_set,
    sweep_k,
)
from .diagnostics import alignment_diagnostics
from .errors import ModalignError
from .evaluation import (
    DEFAULT_RETRIEVAL_KS,
    ScoringMode,
    category_relevance,
    evaluate_classification,
    evaluate_retrieval,
)
from .kb import Source, build, load_kb_dir, write_kb_dir
from .pipeline import (
    categories_for,
    load_labels,
    load_pairs_file,
    load_pipeline_config,
    load_relevance,
    run_pipeline,
)
from .serialize import atomic_write_text, fixed_json
from .synthetic import SyntheticSpec, generate_synthetic
from .training import (
    LinearAdapter,
    TrainConfig,
    gradient_check_arrays,
    load_train_config,
    resolve_pairs,
    save_adapter,
    train,
)
from .ubem import read_ubem
from .vectors import normalize_rows


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise _UsageError(message)


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}") from None


def _source(value: str | None) -> Source | None:
    return Source(value) if value else None


# --- command handlers --------------------------------------------------------


def cmd_kb_build(args) -> int:
    kb = build(args.records, args.embeddings)
    write_kb_dir(kb, args.out)
    print(f"built knowledge base: {kb.size} records, dim {kb.dim} -> {args.out}")
    return 0


def cmd_kb_stats(args) -> int:
    kb = load_kb_dir(args.kb)
    print(f"records: {kb.size}")
    print(f"dim: {kb.dim}")
    print(f"categories: {len(kb.category_index)}")
    print(f"paired samples: {len(kb.pair_index)}")
    print(f"{'category':<24} {'llm_category':>12} {'mllm_data':>10}")
    for category in kb.categories():
        llm = len(kb.category_rows(category, Source.LLM_CATEGORY))
        mllm = len(kb.category_rows(category, Source.MLLM_DATA))
        print(f"{category:<24} {llm:>12} {mllm:>10}")
    return 0


def cmd_centers_localize(args) -> int:
    kb = load_kb_dir(args.kb)
    prompts = prompts_from_matrix(read_ubem(args.prompts), args.prompts)
    center_set = localize(kb, prompts, args.k, _source(args.source), args.template)
    save_center_set(args.out, center_set)
    sizes = [c.size for c in center_set.centers.values()]
    print(
        f"localized {len(center_set.centers)} centers (k={args.k}, "
        f"members {min(sizes)}..{max(sizes)}) -> {args.out}"
    )
    return 0


def cmd_centers_sweep(args) -> int:
    kb = load_kb_dir(args.kb)
    prompts = prompts_from_matrix(read_ubem(args.prompts), args.prompts)
    ks = _parse_int_list(args.ks)
    sweeps = sweep_k(kb, prompts, ks, _source(args.source))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for k, center_set in sweeps.items():
        save_center_set(out / f"centers_k{k}.cset", center_set)
    print(f"wrote {len(sweeps)} center sets for k in {sorted(sweeps)} -> {out}")
    return 0


def cmd_train(args) -> int:
    kb = load_kb_dir(args.kb)
    visual = read_ubem(args.visual)
    config = load_train_config(args.config) if args.config else TrainConfig()
    vectors, texts = resolve_pairs(load_pairs_file(args.pairs), visual, kb)
    del kb  # its last use: nothing holds the KB while the adapter trains
    adapter, history = train(vectors, texts, config, modality=args.modality)
    save_adapter(args.out, adapter)
    print(
        f"trained adapter {args.modality!r} on {len(texts)} pairs: "
        f"epoch loss {history[0]:.6f} -> {history[-1]:.6f} ({config.epochs} epochs)"
    )
    return 0


def cmd_gradcheck(args) -> int:
    dim_out = args.dim if args.dim_out is None else args.dim_out
    sizes = {"--dim": (args.dim, 1), "--dim-out": (dim_out, 1), "--batch": (args.batch, 2)}
    for flag, (value, least) in sizes.items():
        if value < least:
            raise ValueError(f"{flag} must be >= {least}, got {value}")
    rng = np.random.default_rng(args.seed)
    adapter = LinearAdapter(
        rng.standard_normal((dim_out, args.dim)) / np.sqrt(args.dim),
        rng.standard_normal(dim_out) * 0.1,
    )
    visual = rng.standard_normal((args.batch, args.dim))
    texts = normalize_rows(rng.standard_normal((args.batch, dim_out)))
    config = TrainConfig(temperature=args.temperature, symmetric_loss=args.symmetric)
    report = gradient_check_arrays(adapter, visual, texts, config)
    status = "PASS" if report.passed else "FAIL"
    print(f"gradcheck {status}: max relative error {report.max_rel_error:.3e}")
    return 0 if report.passed else 3


def cmd_eval_zeroshot(args) -> int:
    mode = ScoringMode(args.mode)
    if args.prompts and mode == ScoringMode.CENTER_MAX:
        raise ValueError("--prompts applies to --mode prompt_mean only")
    centers = load_center_set(args.centers)
    queries = read_ubem(args.queries)
    if queries.rows == 0:
        raise ValueError(f"{args.queries}: query matrix has no rows")
    categories = categories_for(queries.ids, load_labels(args.labels))
    if mode == ScoringMode.CENTER_MAX:
        anchors = centers.member_blocks()
    else:
        prompts = read_ubem(args.prompts) if args.prompts else centers.prompts
        anchors = group_rows(prompts, args.prompts)
    report = evaluate_classification(queries, categories, anchors, mode)
    atomic_write_text(Path(args.report), fixed_json(report.to_report()))
    print(f"top-1 accuracy ({mode.value}): {report.top1_accuracy:.6f} -> {args.report}")
    return 0


def cmd_eval_retrieval(args) -> int:
    queries = read_ubem(args.queries)
    if queries.rows == 0:
        raise ValueError(f"{args.queries}: query matrix has no rows")
    gallery = read_ubem(args.gallery)
    ks = _parse_int_list(args.ks)
    if args.relevance:
        relevance = load_relevance(args.relevance)
    elif args.labels:
        labels = load_labels(args.labels)
        relevance = category_relevance(
            queries.ids,
            categories_for(queries.ids, labels),
            gallery.ids,
            categories_for(gallery.ids, labels),
        )
    else:
        raise ValueError("supply --relevance or --labels for relevance judgments")
    report = evaluate_retrieval(queries, gallery, relevance, ks)
    atomic_write_text(Path(args.report), fixed_json(report.to_report()))
    printable = ", ".join(f"R@{k}={v:.4f}" for k, v in sorted(report.recall_at.items()))
    print(f"retrieval: {printable} -> {args.report}")
    return 0


def cmd_synth_generate(args) -> int:
    spec = SyntheticSpec(**{f.name: getattr(args, f.name) for f in fields(SyntheticSpec)})
    bundle = generate_synthetic(spec, args.out)
    print(
        f"generated bundle: {spec.categories} classes x {spec.modalities} modalities "
        f"(dim {spec.dim}) -> {bundle.root}"
    )
    return 0


def cmd_pipeline_run(args) -> int:
    config = load_pipeline_config(args.config, args.out)
    result = run_pipeline(config)
    summary = result.summary
    print(f"pipeline complete -> {result.out_dir}")
    gap = summary["alignment"]
    print(
        f"modality gap: {gap['pre']['modality_gap']:.6f} -> "
        f"{gap['post']['modality_gap']:.6f}"
    )
    for name in summary["modalities"]:
        acc = summary["zeroshot_top1"][name]
        print(
            f"{name}: center-max top-1 {acc['pre']['center_max']:.4f} -> "
            f"{acc['post']['center_max']:.4f}"
        )
    return 0


def cmd_diagnostics(args) -> int:
    labels = load_labels(args.labels)
    embeddings = {}
    categories = {}
    for entry in args.embeddings:
        name, _, path = entry.partition("=")
        if not path:
            raise ValueError(f"--embeddings expects name=path, got {entry!r}")
        if name in embeddings:
            raise ValueError(f"--embeddings names modality {name!r} more than once")
        embeddings[name] = read_ubem(path)
        categories[name] = categories_for(embeddings[name].ids, labels)
    diag = alignment_diagnostics(embeddings, categories)
    atomic_write_text(Path(args.report), fixed_json(diag.to_report()))
    print(
        f"same-modal {diag.intra_class_same_modal_cosine:.6f}, "
        f"cross-modal {diag.intra_class_cross_modal_cosine:.6f}, "
        f"gap {diag.modality_gap:.6f} -> {args.report}"
    )
    return 0


# --- parser ------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="modalign", description=__doc__)
    parser.add_argument("--version", action="version", version=f"modalign {__version__}")
    top = parser.add_subparsers(dest="command", parser_class=_Parser)

    kb = top.add_parser("kb", help="knowledge-base commands")
    kb_sub = kb.add_subparsers(dest="subcommand", parser_class=_Parser)
    p = kb_sub.add_parser("build", help="validate records + embeddings into a KB directory")
    p.add_argument("--records", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_kb_build)
    p = kb_sub.add_parser("stats", help="print per-category/source record counts")
    p.add_argument("--kb", required=True)
    p.set_defaults(func=cmd_kb_stats)

    centers = top.add_parser("centers", help="anchor-set commands")
    centers_sub = centers.add_subparsers(dest="subcommand", parser_class=_Parser)
    p = centers_sub.add_parser("localize", help="select top-k prompt-similar descriptions per category")
    p.add_argument("--kb", required=True)
    p.add_argument("--prompts", required=True, help="UBEM with labels = category names")
    p.add_argument("--k", type=int, default=DEFAULT_K)
    p.add_argument("--source", choices=[s.value for s in Source], default=None)
    p.add_argument("--template", default=DEFAULT_PROMPT_TEMPLATE)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_centers_localize)
    p = centers_sub.add_parser("sweep", help="localize center sets for several k values")
    p.add_argument("--kb", required=True)
    p.add_argument("--prompts", required=True)
    p.add_argument("--ks", required=True, help="comma-separated k values")
    p.add_argument("--source", choices=[s.value for s in Source], default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_centers_sweep)

    p = top.add_parser("train", help="train one modality adapter")
    p.add_argument("--kb", required=True)
    p.add_argument("--pairs", required=True, help="JSONL of sample_id/visual_row pairs")
    p.add_argument("--visual", required=True, help="UBEM of raw backbone embeddings")
    p.add_argument("--modality", required=True)
    p.add_argument(
        "--config", default=None, help="training config JSON (a pipeline config's \"train\" object)"
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = top.add_parser("gradcheck", help="finite-difference check of the training gradients")
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--dim-out", type=int, default=None)
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--temperature", type=float, default=TrainConfig.temperature)
    p.add_argument("--symmetric", action="store_true")
    p.set_defaults(func=cmd_gradcheck)

    ev = top.add_parser("eval", help="evaluation commands")
    ev_sub = ev.add_subparsers(dest="subcommand", parser_class=_Parser)
    p = ev_sub.add_parser("zeroshot", help="zero-shot classification accuracy")
    p.add_argument("--centers", required=True)
    p.add_argument("--queries", required=True, help="UBEM with labels = sample ids")
    p.add_argument("--labels", required=True, help="JSONL of id/category labels")
    p.add_argument("--mode", choices=[m.value for m in ScoringMode], default="center_max")
    p.add_argument("--prompts", default=None, help="optional prompt-ensemble UBEM for prompt_mean")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_eval_zeroshot)
    p = ev_sub.add_parser("retrieval", help="recall@k retrieval evaluation")
    p.add_argument("--queries", required=True)
    p.add_argument("--gallery", required=True)
    p.add_argument("--relevance", default=None, help="JSONL of query_id/relevant lists")
    p.add_argument("--labels", default=None, help="JSONL id/category labels for class-level relevance")
    p.add_argument("--ks", default=",".join(map(str, DEFAULT_RETRIEVAL_KS)))
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_eval_retrieval)

    synth = top.add_parser("synth", help="synthetic benchmark data")
    synth_sub = synth.add_subparsers(dest="subcommand", parser_class=_Parser)
    p = synth_sub.add_parser("generate", help="write a synthetic bundle")
    p.add_argument("--out", required=True)
    for f in fields(SyntheticSpec):  # one flag per field; --samples sets samples_per_class
        flag = "samples" if f.name == "samples_per_class" else f.name.replace("_", "-")
        p.add_argument(f"--{flag}", type=type(f.default), default=f.default, dest=f.name)
    p.set_defaults(func=cmd_synth_generate)

    pipe = top.add_parser("pipeline", help="end-to-end orchestration")
    pipe_sub = pipe.add_subparsers(dest="subcommand", parser_class=_Parser)
    p = pipe_sub.add_parser("run", help="run all stages from a config JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override the config's out_dir")
    p.set_defaults(func=cmd_pipeline_run)

    p = top.add_parser("diagnostics", help="modality-gap diagnostics over embeddings")
    p.add_argument(
        "--embeddings",
        action="append",
        required=True,
        metavar="NAME=UBEM",
        help="repeatable; one labeled UBEM per modality",
    )
    p.add_argument("--labels", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_diagnostics)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ModalignError, ValueError, OSError) as e:  # a JSONDecodeError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
