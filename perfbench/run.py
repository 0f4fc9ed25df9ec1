#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of `modalign pipeline run`.

    python3 perfbench/run.py --workload eval-heavy --seed 0 --seconds 40 --trace 0

Run from anywhere; paths resolve against the checkout that holds this file.
The workload's bundle is generated from `--seed` with the checkout's own
`modalign.synthetic`, outside every timing. Each sample is a fresh child
process (child.py) importing modalign from the checkout's `src/`, started
by spawner.py; its wall time is taken around the process and its peak RSS
and CPU time come from `os.wait4` on that child alone. One child runs at a
time (a closed loop with one client), with BLAS threads left at their
default.

`--trace 0` repeats a cycle of a pipeline child, a set-up probe and a
reference.py run, and reports the end-to-end metrics of BENCHMARK.json at
reference speed; `--trace 1` alternates untraced and traced children and
reports the per-layer metrics. Every run's outputs are checked: reports/ must be byte-identical across the
runs of one invocation and summary.json must agree with oracle.py. The last
stdout line is one JSON object; details go to `.perfbench_out/` in the
checkout. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# Children get the environment as it was given, so their BLAS threads stay
# at the default. This process checks outputs between children with numpy;
# its own BLAS threads are limited to one, before numpy is first imported,
# so that none of them can still be spinning while the next child runs.
CHILD_ENV = dict(os.environ)
os.environ.update({var: "1" for var in THREAD_VARS})

import oracle  # noqa: E402
import tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PINS = HERE / "pins.json"
CHILD = [sys.executable, str(HERE / "child.py")]

DEFAULT_SEED = 0
# reference.py's median wall time on an idle 2-CPU x86-64 host (Python
# 3.11, numpy 2.4, OpenBLAS 0.3.31). End-to-end times are reported at this
# reference speed: raw time x REFERENCE_NOMINAL_S / reference.py's time in
# the same cycle. Changing it rescales every end-to-end time.
REFERENCE_NOMINAL_S = 0.6
IMPORT_REPEATS = 5
CHILD_TIMEOUT_S = 150

# SyntheticSpec arguments plus pipeline-config overrides. The README gives
# the reason for each size; `dominant` names the layers that should cover
# most of the traced run_pipeline time.
WORKLOADS = {
    "eval-heavy": {
        "spec": {"categories": 10, "samples_per_class": 32, "dim": 128,
                 "descriptions_per_class": 60},
        "train": {},
        "dominant": ("evaluation", "vectors"),
    },
    "train-long": {
        "spec": {"categories": 8, "samples_per_class": 16, "dim": 128},
        "train": {"epochs": 600, "batch_size": 128},
        "dominant": ("training", "contrastive", "optim"),
    },
    "kb-large": {
        "spec": {"categories": 8, "samples_per_class": 8, "dim": 256,
                 "descriptions_per_class": 6000},
        "train": {},
        "dominant": ("kb", "ubem", "centers", "serialize"),
    },
}


class BenchError(Exception):
    """The benchmark cannot run; no result is printed."""


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def tree_hashes(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): sha256_file(p)
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def make_bundle(workload: str, seed: int, dest: Path) -> Path:
    """Generate the workload's bundle; returns its pipeline config path."""
    sys.path.insert(0, str(SRC))
    import modalign
    from modalign.synthetic import SyntheticSpec, generate_synthetic

    if Path(modalign.__file__).resolve().parent != (SRC / "modalign").resolve():
        raise BenchError(f"imported modalign from {modalign.__file__}, not from {SRC}")
    spec = WORKLOADS[workload]
    bundle = generate_synthetic(SyntheticSpec(**spec["spec"], seed=seed), dest)
    config = json.loads(bundle.pipeline_config.read_text(encoding="utf-8"))
    config["train"].update(spec["train"])
    bundle.pipeline_config.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return bundle.pipeline_config


def check_pins(workload: str, bundle_dir: Path) -> None:
    """For the default seed, the bundle must hash to the pinned values."""
    actual = tree_hashes(bundle_dir)
    pinned = json.loads(PINS.read_text(encoding="utf-8")).get(workload)
    if actual != pinned:
        raise BenchError(
            f"bundle for {workload} (seed {DEFAULT_SEED}) differs from {PINS.name}; "
            f"modalign.synthetic changed what is measured. Actual hashes:\n"
            + json.dumps({workload: actual}, indent=2, sort_keys=True)
        )


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: CHILD_ENV[k] for k in THREAD_VARS if k in CHILD_ENV},
    }


def child_env() -> dict:
    env = dict(CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Spawner:
    """Client of spawner.py, which starts each child and reports its rusage."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=CHILD_ENV, cwd=ROOT,
        )

    def run(self, argv: list[str], log_path: Path) -> dict:
        """Run one child to its end: rc, wall_s, peak_rss_mb and cpu_s."""
        request = {"argv": argv, "env": child_env(), "log": str(log_path),
                   "timeout_s": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("spawner.py exited unexpectedly")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_meta(path: Path) -> dict:
    meta = json.loads(path.read_text(encoding="utf-8"))
    resolved = Path(meta["modalign_file"]).resolve().parent
    if resolved != (SRC / "modalign").resolve():
        raise BenchError(f"child imported modalign from {meta['modalign_file']}")
    return meta


def run_helper(spawner: Spawner, name: str, argv: list[str], work: Path) -> dict:
    """Run a child that must succeed: a probe or reference.py."""
    log_path = work / f"{name}.log"
    sample = spawner.run(argv, log_path)
    if sample["rc"] != 0:
        log = log_path.read_text(encoding="utf-8", errors="replace")
        raise BenchError(f"{name} exited {sample['rc']}:\n{log[-2000:]}")
    return sample


def probe(spawner: Spawner, kind: str, work: Path, *extra: str) -> tuple[float, str]:
    """Seconds reported by one fresh `setup` or `import` child, and the
    modalign file it imported."""
    meta_path = work / f"{kind}.json"
    run_helper(spawner, f"{kind} probe", CHILD + [kind, str(meta_path), *extra], work)
    meta = read_meta(meta_path)
    return meta["seconds"], meta["modalign_file"]


def reference(spawner: Spawner, work: Path) -> float:
    """Wall time of one reference.py process."""
    argv = [sys.executable, str(HERE / "reference.py")]
    return run_helper(spawner, "reference.py", argv, work)["wall_s"]


class Runner:
    """Runs and checks pipeline children for one workload invocation."""

    def __init__(self, spawner: Spawner, config: Path, work: Path):
        self.spawner = spawner
        self.config = config
        self.work = work
        self.reference_reports: dict[str, str] | None = None
        self.samples: dict[bool, list[dict]] = {False: [], True: []}
        self.failures: list[str] = []
        self.modalign_files: set[str] = set()
        self.first_trace: dict | None = None

    def run(self, traced: bool) -> None:
        index = len(self.samples[False]) + len(self.samples[True])
        run_dir = self.work / f"run-{index}"
        meta_path = self.work / f"run-{index}.json"
        log_path = self.work / f"run-{index}.log"
        cli = ["--", "pipeline", "run", "--config", str(self.config), "--out", str(run_dir)]
        mode = ["traced", str(meta_path), f"run-{index}"] if traced else ["pipeline", str(meta_path)]
        sample = self.spawner.run(CHILD + mode + cli, log_path)
        sample["ok"] = False
        try:
            errors = self._check(sample, meta_path, run_dir, traced)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
            meta_path.unlink(missing_ok=True)
        if errors:
            self.failures.append(f"run {index} ({'traced' if traced else 'untraced'}): " + "; ".join(errors))
            log_tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"perfbench: run {index} failed: {errors}\n{log_tail}", file=sys.stderr)
        else:
            sample["ok"] = True
            log_path.unlink()
        self.samples[traced].append(sample)

    def _check(self, sample: dict, meta_path: Path, run_dir: Path, traced: bool) -> list[str]:
        if sample["rc"] != 0:
            return [f"exit code {sample['rc']}"]
        try:
            meta = read_meta(meta_path)
        except (OSError, ValueError, KeyError, BenchError) as e:
            return [f"child metadata: {e}"]
        self.modalign_files.add(meta["modalign_file"])
        reports = tree_hashes(run_dir / "reports")
        if self.reference_reports is None:
            self.reference_reports = reports
        elif reports != self.reference_reports:
            return ["reports/ differ from the first run's"]
        try:
            errors = oracle.check_run(self.config, run_dir)
        except (OSError, ValueError, KeyError, IndexError) as e:
            errors = [f"oracle could not read the run: {e!r}"]
        if traced and not errors:
            sample["layers"] = tracer.layer_metrics(meta["trace"])
            sample["shares"] = tracer.layer_shares(meta["trace"])
            if self.first_trace is None:
                self.first_trace = meta["trace"]
        return errors


def measure_window(seconds: float, steps: list) -> None:
    """Call the steps in turn until the next one would end past `seconds`.

    Every step runs at least once. The next step's cost is predicted as the
    median of its earlier costs.
    """
    start = time.perf_counter()
    costs: list[list[float]] = [[] for _ in steps]
    index = 0
    while True:
        t0 = time.perf_counter()
        steps[index % len(steps)]()
        costs[index % len(steps)].append(time.perf_counter() - t0)
        index += 1
        if index < len(steps):
            continue
        expected = statistics.median(costs[index % len(steps)])
        if time.perf_counter() - start + expected > seconds:
            return


def summarize(values: list[float]) -> str:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return (
        f"median {statistics.median(values):.4f} (n={len(values)}, q1 {q[0]:.4f}, "
        f"q3 {q[2]:.4f}, min {min(values):.4f}, max {max(values):.4f})"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "modalign" / "__init__.py").is_file():
        print(f"perfbench: no modalign source tree under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be non-negative", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric_specs = declared["per_layer" if args.trace else "end_to_end"]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        with Spawner() as spawner:
            return run_workload(spawner, args, tag, work, metric_specs)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_workload(spawner: Spawner, args, tag: str, work: Path, metric_specs: list[dict]) -> int:
    load_before = os.getloadavg()
    config = make_bundle(args.workload, args.seed, work / "bundle")
    if args.seed == DEFAULT_SEED:
        check_pins(args.workload, work / "bundle")

    # Warm the bytecode cache so no sample pays for compiling modalign.
    probe(spawner, "import", work)
    runner = Runner(spawner, config, work)
    metrics: dict[str, float] = {}
    lines: list[str] = []
    if args.trace:
        imports = []
        for _ in range(IMPORT_REPEATS):
            seconds, file = probe(spawner, "import", work)
            imports.append(seconds)
            runner.modalign_files.add(file)
        measure_window(args.seconds, [lambda: runner.run(False), lambda: runner.run(True)])
        untraced = [s for s in runner.samples[False] if s["ok"]]
        traced = [s for s in runner.samples[True] if s["ok"]]
        if not untraced or not traced:
            raise BenchError("no successful traced and untraced run; see stderr")
        metrics.update(tracer.median_metrics([s["layers"] for s in traced]))
        metrics["cli.import_s"] = statistics.median(imports)
        metrics["pipeline.cpu_s"] = statistics.median(s["cpu_s"] for s in untraced)
        metrics["pipeline.tracing_overhead_s"] = (
            statistics.median(s["wall_s"] for s in traced)
            - statistics.median(s["wall_s"] for s in untraced)
        )
        shares = tracer.median_metrics([s["shares"] for s in traced])
        dominant = WORKLOADS[args.workload]["dominant"]
        lines.append(
            f"  dominant layers {'+'.join(dominant)}: "
            f"{sum(shares.get(d, 0.0) for d in dominant):.1%} of traced run_pipeline self time"
        )
        lines.append("  layer shares: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
        trace_path = OUT / f"trace-{tag}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "runs": [s["layers"] for s in traced],
            "first_run": runner.first_trace,
        }))
        lines.append(f"  trace: {trace_path}")
    else:
        def cycle():
            # A set-up probe and a reference run follow each pipeline child,
            # so all three sample the same stretch of host speed.
            runner.run(False)
            sample = runner.samples[False][-1]
            sample["setup_s"], file = probe(spawner, "setup", work, str(config))
            runner.modalign_files.add(file)
            sample["reference_s"] = reference(spawner, work)

        measure_window(args.seconds, [cycle])
        ok = [s for s in runner.samples[False] if s["ok"]] or runner.samples[False]
        scale = [REFERENCE_NOMINAL_S / s["reference_s"] for s in ok]
        metrics["pipeline_s"] = statistics.median(s["wall_s"] * k for s, k in zip(ok, scale))
        metrics["peak_rss_mb"] = statistics.median(s["peak_rss_mb"] for s in ok)
        metrics["setup_s"] = statistics.median(s["setup_s"] * k for s, k in zip(ok, scale))
        lines.append(f"  pipeline_s   {metrics['pipeline_s']:.4f} s at reference speed, n={len(ok)}")
        lines.append(f"  setup_s      {metrics['setup_s']:.4f} s at reference speed, n={len(ok)}")
        lines.append(f"  peak_rss_mb  {summarize([s['peak_rss_mb'] for s in ok])} MB")
        for key, label in (("wall_s", "raw pipeline wall"), ("setup_s", "raw setup wall   "),
                           ("reference_s", "reference.py wall")):
            lines.append(f"  {label} {summarize([s[key] for s in ok])} s")

    all_samples = runner.samples[False] + runner.samples[True]
    failed = sum(not s["ok"] for s in all_samples)
    lines.insert(0, f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
                    f"{len(all_samples)} pipeline runs, {failed} failed")
    lines.append(f"  error_rate   {failed / len(all_samples):.4f} ({failed}/{len(all_samples)} runs)")
    env = environment()
    env["loadavg_before"] = load_before
    env["loadavg_after"] = os.getloadavg()
    env["modalign_files"] = sorted(runner.modalign_files)
    lines.append("  env: " + json.dumps(env, sort_keys=True))

    missing = [m["name"] for m in metric_specs if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    result = {
        "correct": failed == 0,
        "attempted": len(all_samples),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in metric_specs
        },
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"result": result, "env": env, "failures": runner.failures,
         "samples": {"untraced": runner.samples[False],
                     "traced": [{k: v for k, v in s.items() if k != "layers"}
                                for s in runner.samples[True]]}},
        indent=1, sort_keys=True,
    ))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
