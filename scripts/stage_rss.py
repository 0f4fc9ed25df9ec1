#!/usr/bin/env python3
"""Peak and current RSS, wall time and minor page faults of each `pipeline run`
stage, on the benchmark's bundles.

Each workload runs in its own spawned child process, so no workload's peak
carries over to the next. That child builds the bundle with
`perfbench/run.py`'s own generator under `OUT/<workload>-<seed>/bundle`, as
`pipeline_digests.py` does but in a child process of its own, so that
generating it does not count in the pipeline's peak. It then runs
`run_pipeline` into `OUT/<workload>-<seed>/out` with `pipeline._stage`
wrapped, and prints one line per finished stage:

    <workload>  <stage>  <ru_maxrss MB>  <current RSS MB>  <wall s>  <minor faults>  <modules>

MB is 1e6 bytes, as in perfbench's `peak_rss_mb`. Current RSS is read from
`/proc/self/statm` and printed as `-` where that file does not exist. The
wall seconds and the minor page faults (the `ru_minflt` delta) are the
stage's own, so one run shows which stage's time or memory moved. The last
column lists, comma-separated, the modules the stage imported first (`-`
for none), each without the submodules it brought along: a stage whose RSS
step comes from importing a package shows that package beside the step.

    python scripts/stage_rss.py --out /tmp/stages --workloads kb-large --seed 0
"""

import argparse
import multiprocessing
import os
import resource
import shutil
import sys
import time
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


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def current_mb() -> str:
    try:
        with open("/proc/self/statm") as f:
            pages = int(f.read().split()[1])
    except OSError:
        return "-"
    return f"{pages * os.sysconf('SC_PAGE_SIZE') / MB:.2f}"


def new_modules(before: set[str]) -> str:
    """The modules first imported since `before` was taken, comma-separated
    (`-` for none), leaving out each one whose parent package is among them."""
    new = set(sys.modules) - before
    shown = sorted(m for m in new if m.rpartition(".")[0] not in new)
    return ",".join(shown) or "-"


def reporting_stage(workload: str, stage):
    """`stage` that prints the stage's line once its block has run."""

    @contextmanager
    def wrapped(name: str):
        modules, faults, start = set(sys.modules), minor_faults(), time.perf_counter()
        with stage(name):
            yield
        seconds, faults = time.perf_counter() - start, minor_faults() - faults
        print(
            f"{workload}  {name}  {peak_mb():.2f}  {current_mb()}  {seconds:.4f}  {faults}"
            f"  {new_modules(modules)}",
            flush=True,
        )

    return wrapped


def run_workload(workload: str, seed: int, case: Path) -> None:
    """Build the workload's bundle in a child process, then run the pipeline
    in this one, printing the line of each stage."""
    shutil.rmtree(case, ignore_errors=True)
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        config = pool.apply(make_bundle, (workload, seed, case / "bundle"))
    pipeline._stage = reporting_stage(workload, pipeline._stage)
    run_pipeline(load_pipeline_config(config, out_dir=case / "out"))


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
    for workload in workloads:
        case = Path(args.out).resolve() / f"{workload}-{args.seed}"
        child = multiprocessing.get_context("spawn").Process(
            target=run_workload, args=(workload, args.seed, case)
        )
        child.start()
        child.join()
        if child.exitcode:
            sys.exit(f"{workload}: the workload's process exited with code {child.exitcode}")


if __name__ == "__main__":
    main()
