"""The package imports only numpy, scipy and the standard library, and not
scipy.signal, whose import costs most of a process start."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "srptrack"
ALLOWED = {"numpy", "scipy"} | set(sys.stdlib_module_names)


def absolute_imports(path: Path) -> list[str]:
    """Top-level module names of every absolute import in one source file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


SOURCES = sorted(PACKAGE.rglob("*.py"))


def test_sources_found():
    assert PACKAGE / "__init__.py" in SOURCES and PACKAGE / "tensornet" / "layers.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_imports_are_numpy_scipy_or_stdlib(path):
    outside = sorted(set(absolute_imports(path)) - ALLOWED)
    assert not outside, f"{path.name} imports {outside}"


def test_package_import_leaves_out_scipy_signal():
    # a fresh interpreter: pytest and tests/oracles.py load scipy.signal themselves
    code = "import sys, srptrack, srptrack.cli; print(' '.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    loaded = [m for m in out.split() if m.startswith(("scipy.signal", "scipy.stats"))]
    assert "srptrack.cli" in out.split() and not loaded, f"importing srptrack loads {loaded}"
