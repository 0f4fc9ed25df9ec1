"""Every name a modalign module imports is used in that module, unless the
benchmark tracer (`perfbench/tracer.py`) rebinds it there: the tracer can only
time a call through a name the calling module holds."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "modalign").glob("*.py"))


def tracer_bindings() -> dict:
    spec = importlib.util.spec_from_file_location("_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.BINDINGS


def unused_imports(source: str) -> set[str]:
    """Names bound by import statements that the module never reads; a name
    listed in `__all__` counts as read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return imported - used


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_unused_import_is_bound_by_the_tracer(path):
    bound = set(tracer_bindings().get(f"modalign.{path.stem}", ()))
    assert unused_imports(path.read_text(encoding="utf-8")) <= bound


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom json import dumps, loads\nloads('1')\n") == {
        "os", "dumps",
    }


def test_the_tracer_finds_every_name_it_binds():
    # `instrument` raises on a listed name that its module no longer holds.
    # It rebinds names module-wide, so it runs in an interpreter of its own.
    paths = os.pathsep.join(str(ROOT / d) for d in ("src", "perfbench"))
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.instrument(tracer.Tracer('check'))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=paths), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
