#!/usr/bin/env python3
"""Peak and current RSS after each `pipeline run` stage, on the benchmark's bundles.

For each workload, builds the bundle with `perfbench/run.py`'s own generator
under `OUT/<workload>-<seed>/bundle`, as `pipeline_digests.py` does but in a
child process, so that generating it does not count in this process's peak.
It then runs `run_pipeline` in this process into `OUT/<workload>-<seed>/out`
with `pipeline._stage` wrapped, and prints one line per finished stage:

    <workload>  <stage>  <ru_maxrss MB>  <current RSS MB>

MB is 1e6 bytes, as in perfbench's `peak_rss_mb`. Current RSS is read from
`/proc/self/statm` and printed as `-` where that file does not exist. The
workloads share one process, so `ru_maxrss` never falls from one workload
to the next: run one workload per process to find where each one peaks.

    python scripts/stage_rss.py --out /tmp/stages --workloads kb-large --seed 0
"""

import argparse
import multiprocessing
import os
import resource
import shutil
import sys
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from modalign import load_pipeline_config, pipeline, run_pipeline  # noqa: E402

sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOADS, make_bundle  # noqa: E402

MB = 1e6


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def current_mb() -> str:
    try:
        with open("/proc/self/statm") as f:
            pages = int(f.read().split()[1])
    except OSError:
        return "-"
    return f"{pages * os.sysconf('SC_PAGE_SIZE') / MB:.2f}"


def reporting_stage(workload: str, stage):
    """`stage` that prints the RSS line once its block has run."""

    @contextmanager
    def wrapped(name: str):
        with stage(name):
            yield
        print(f"{workload}  {name}  {peak_mb():.2f}  {current_mb()}", flush=True)

    return wrapped


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="directory for bundles and runs")
    ap.add_argument("--workloads", default=",".join(WORKLOADS), help="comma-separated")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    workloads = args.workloads.split(",")
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown:
        ap.error(f"unknown workloads {unknown}; choose from {sorted(WORKLOADS)}")
    stage = pipeline._stage
    for workload in workloads:
        case = Path(args.out).resolve() / f"{workload}-{args.seed}"
        shutil.rmtree(case, ignore_errors=True)
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            config = pool.apply(make_bundle, (workload, args.seed, case / "bundle"))
        pipeline._stage = reporting_stage(workload, stage)
        try:
            run_pipeline(load_pipeline_config(config, out_dir=case / "out"))
        finally:
            pipeline._stage = stage


if __name__ == "__main__":
    main()
