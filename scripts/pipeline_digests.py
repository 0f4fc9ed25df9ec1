#!/usr/bin/env python3
"""SHA-256 of every bundle file and `pipeline run` output file on the benchmark's bundles.

For each workload and seed, builds the bundle with `perfbench/run.py`'s own
generator under `OUT/<workload>-<seed>/bundle`, runs `run_pipeline` in this
process into `OUT/<workload>-<seed>/out`, and prints one
`<sha256>  <workload>-<seed>/bundle/<file>` line per bundle file, then one
`<sha256>  <workload>-<seed>/<path>` line per output file. Each
`<workload>-<seed>` directory is emptied first.

The run manifest records the bundle's paths, so two checkouts compare byte
for byte when each runs this script with the same `--out`:

    python scripts/pipeline_digests.py --out /tmp/digests > a.txt  # checkout A
    python scripts/pipeline_digests.py --out /tmp/digests > b.txt  # checkout B
    diff a.txt b.txt

The script imports the `modalign` of its own checkout, and imports it before
`perfbench/run.py`, which limits the BLAS threads of whatever process imports
it before numpy is loaded: numpy, loaded first, keeps the thread count that
a `pipeline run` gets.
"""

import argparse
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from modalign import load_pipeline_config, run_pipeline  # noqa: E402
from modalign.serialize import sha256_file  # noqa: E402

sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOADS, make_bundle  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="directory for bundles and runs")
    ap.add_argument("--workloads", default=",".join(WORKLOADS), help="comma-separated")
    ap.add_argument("--seeds", default="0,1", help="comma-separated integers")
    args = ap.parse_args()

    workloads = args.workloads.split(",")
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown:
        ap.error(f"unknown workloads {unknown}; choose from {sorted(WORKLOADS)}")
    for workload in workloads:
        for seed in (int(s) for s in args.seeds.split(",")):
            case = Path(args.out).resolve() / f"{workload}-{seed}"
            shutil.rmtree(case, ignore_errors=True)
            config = make_bundle(workload, seed, case / "bundle")
            print_digests(case / "bundle", f"{case.name}/bundle/")
            out = case / "out"
            run_pipeline(load_pipeline_config(config, out_dir=out))
            print_digests(out, f"{case.name}/")


def print_digests(root: Path, prefix: str) -> None:
    """One `<sha256>  <prefix><path>` line per file under `root`, in path order."""
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        print(f"{sha256_file(path)}  {prefix}{path.relative_to(root).as_posix()}")


if __name__ == "__main__":
    main()
