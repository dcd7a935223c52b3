"""perfbench's tracer wraps package functions and methods by dotted path; a
method moved into a base class no longer resolves and its metric silently
goes missing. Every target must resolve on the package as it stands."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("path", [path for path, _, _ in tracing.TARGETS])
def test_target_resolves(path):
    assert tracing._resolve(path) is not None, f"{path} is not defined where the tracer looks"
