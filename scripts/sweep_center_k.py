#!/usr/bin/env python3
"""Anchor-set size ablation: zero-shot accuracy as a function of k.

Builds a synthetic knowledge base with noisy per-class descriptions, then
sweeps the number of selected description embeddings per category and
reports anchor-max accuracy at each k, averaged over seeds. The comparison
baseline (k=1) is the single most prompt-similar description.
"""

import argparse
from pathlib import Path

import numpy as np

from modalign import (
    ScoringMode,
    SyntheticSpec,
    build,
    evaluate_classification,
    generate_synthetic,
    prompts_from_matrix,
    read_ubem,
    sweep_k,
)
from modalign.kb import Source
from modalign.pipeline import load_labels


def accuracy_by_k(spec, ks, workdir):
    bundle = generate_synthetic(spec, workdir)
    kb = build(bundle.records, bundle.kb_embeddings)
    prompts = prompts_from_matrix(read_ubem(bundle.prompts))
    sweeps = sweep_k(kb, prompts, ks, source_filter=Source.LLM_CATEGORY)
    queries = read_ubem(bundle.visual["mod0"])
    labels = load_labels(bundle.labels)
    categories = [labels[i] for i in queries.labels]
    return {
        k: evaluate_classification(
            queries, categories, cs.member_blocks(), ScoringMode.CENTER_MAX
        ).top1_accuracy
        for k, cs in sweeps.items()
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/k_sweep")
    ap.add_argument("--categories", type=int, default=20)
    ap.add_argument("--descriptions-per-class", type=int, default=200)
    ap.add_argument("--queries-per-class", type=int, default=30)
    ap.add_argument("--dim", type=int, default=16)
    ap.add_argument("--noise-sigma", type=float, default=0.4)
    ap.add_argument("--ks", default="1,10,25,50,100")
    ap.add_argument("--seeds", type=int, default=5)
    args = ap.parse_args()

    ks = [int(k) for k in args.ks.split(",")]
    per_seed = []
    for seed in range(args.seeds):
        spec = SyntheticSpec(
            categories=args.categories,
            modalities=1,
            samples_per_class=args.queries_per_class,
            dim=args.dim,
            class_separation=1.0,
            modality_offset=0.0,
            noise_sigma=args.noise_sigma,
            descriptions_per_class=args.descriptions_per_class,
            seed=seed,
        )
        per_seed.append(accuracy_by_k(spec, ks, Path(args.out) / f"seed{seed}"))
        row = "  ".join(f"k={k}: {per_seed[-1][k]:.4f}" for k in ks)
        print(f"seed {seed}:  {row}")

    print("\nmean over seeds:")
    print(f"{'k':>6} {'top-1 accuracy':>16}")
    for k in ks:
        mean = np.mean([accs[k] for accs in per_seed])
        print(f"{k:>6} {mean:>16.4f}")


if __name__ == "__main__":
    main()
