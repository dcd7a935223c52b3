"""The package imports only numpy, scipy and the standard library, and SciPy
only to render rooms: the commands that render nothing start and run on
numpy alone, and rendering loads ``scipy.fft`` but not ``scipy.signal``, whose
import (with ``scipy.stats``) costs most of a process start."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from srptrack.roomsim import MicSignals

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "srptrack"
ALLOWED = {"numpy", "scipy"} | set(sys.stdlib_module_names)
# ends every script run_fresh runs: the SciPy modules it loaded, as JSON
PRINT_SCIPY = """
import json
print(json.dumps(sorted(m for m, module in sys.modules.items() if m.startswith("scipy") and module is not None)))
"""


def absolute_imports(path: Path) -> list[str]:
    """Top-level module names of every absolute import in one source file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def run_fresh(code: str, cwd) -> list[str]:
    """Run ``code`` in a fresh interpreter, which pytest and tests/oracles.py
    have not loaded SciPy into; returns the SciPy modules loaded at its end."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", code + PRINT_SCIPY], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


SOURCES = sorted(PACKAGE.rglob("*.py"))


def test_sources_found():
    assert PACKAGE / "__init__.py" in SOURCES and PACKAGE / "tensornet" / "layers.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_imports_are_numpy_scipy_or_stdlib(path):
    outside = sorted(set(absolute_imports(path)) - ALLOWED)
    assert not outside, f"{path.name} imports {outside}"


def test_cli_import_loads_no_scipy(tmp_path):
    assert run_fresh("import sys, srptrack, srptrack.cli", tmp_path) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["track", "--wav", "scene.wav", "--resolution", "4x8", "--out", "track.csv"],
        ["features", "--wav", "scene.wav", "--resolution", "4x8", "--out", "feat.srpm"],
        ["paramcount", "--model", "baseline-gcc"],
    ],
    ids=lambda argv: argv[0],
)
def test_command_runs_on_numpy_alone(tmp_path, argv):
    noise = np.random.default_rng(5).normal(scale=0.1, size=(12, 16000)).astype(np.float32)
    MicSignals(channels=noise, fs=16000).to_wav(tmp_path / "scene.wav")
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None  # from here on, importing SciPy raises ImportError\n"
        "from srptrack import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
    )
    assert run_fresh(code, tmp_path) == []


def test_synth_loads_scipy_fft_but_not_signal_or_stats(tmp_path):
    config = {
        "scene": {"duration": 1.0, "rir_t_max": 0.05, "t60_range": [0.2, 0.3]},
        "framing": {"K": 4096, "hop": 3072},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    code = (
        "import sys\n"
        "from srptrack import cli\n"
        "assert cli.main(['synth', '--config', 'config.json', '--out', 'scenes']) == 0\n"
    )
    loaded = run_fresh(code, tmp_path)
    assert "scipy.fft" in loaded
    assert not [m for m in loaded if m.startswith(("scipy.signal", "scipy.stats"))], loaded
