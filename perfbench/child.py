"""One measured child process; `run.py` starts a fresh one per sample.

    python child.py pipeline META -- <modalign.cli arguments>
    python child.py traced   META RUN_ID -- <modalign.cli arguments>
    python child.py setup    META CONFIG
    python child.py import   META

`pipeline` runs `modalign.cli` exactly as `python -m modalign.cli` does.
`traced` first rebinds the traced names (see tracer.py), then does the same.
`setup` times what a fresh interpreter does before the pipeline's first
stage: import modalign, parse the config and read the validate-stage inputs.
`import` times `import modalign.cli`. Each mode writes a JSON file META that
names the `modalign/__init__.py` the child imported, so the parent can check
that the tree under test was measured.
"""

from time import perf_counter

T0 = perf_counter()

import json  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402


def _write(meta_path: str, record: dict) -> None:
    record["modalign_file"] = sys.modules["modalign"].__file__
    with open(meta_path, "w", encoding="utf-8") as f:
        json.dump(record, f)


def _run_cli(argv: list[str]) -> int:
    sys.argv = ["modalign"] + argv
    try:
        runpy.run_module("modalign.cli", run_name="__main__", alter_sys=True)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    return 0


def _after_dashes(args: list[str]) -> list[str]:
    if "--" not in args:
        raise SystemExit("child.py: missing '--' before the modalign.cli arguments")
    return args[args.index("--") + 1 :]


def main(argv: list[str]) -> int:
    mode, meta = argv[0], argv[1]
    if mode == "pipeline":
        code = _run_cli(_after_dashes(argv))
        _write(meta, {})
        return code
    if mode == "traced":
        import tracer

        trace = tracer.Tracer(argv[2])
        tracer.instrument(trace)
        code = _run_cli(_after_dashes(argv))
        _write(meta, {"trace": trace.to_dict()})
        return code
    if mode == "setup":
        from modalign.pipeline import load_labels, load_pairs_file, load_pipeline_config
        from modalign.ubem import read_ubem

        config = load_pipeline_config(argv[2], out_dir="unused")
        load_labels(config.labels)
        read_ubem(config.prompts)
        for name in sorted(config.modalities):
            read_ubem(config.modalities[name].visual)
            load_pairs_file(config.modalities[name].pairs)
        _write(meta, {"seconds": perf_counter() - T0})
        return 0
    if mode == "import":
        import modalign.cli  # noqa: F401

        _write(meta, {"seconds": perf_counter() - T0})
        return 0
    raise SystemExit(f"child.py: unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
