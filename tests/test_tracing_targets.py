"""perfbench's tracer wraps package functions and methods by dotted path; a
method moved into a base class no longer resolves and its metric silently
goes missing. Every target must resolve on the package as it stands, and
the layer counts the tracer attaches to a model's forward must be the
model's own."""

import importlib.util
from pathlib import Path

import pytest

from srptrack.geometry import default_array
from srptrack.models import build_baseline_gcc, build_baseline_max, build_cross3d
from srptrack.tensornet import CausalConv1d, CausalConv3d, Sequential

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


def _conv_counts(model):
    """Convolutions in the model's ``Sequential`` chains, found among its
    attributes rather than by name."""
    chains = [v for value in vars(model).values()
              for v in (value if isinstance(value, (list, tuple)) else (value,)) if isinstance(v, Sequential)]
    layers = [layer for chain in chains for layer in chain.layers]
    return {"conv3d": sum(isinstance(layer, CausalConv3d) for layer in layers),
            "conv1d": sum(isinstance(layer, CausalConv1d) for layer in layers)}


@pytest.mark.parametrize("build,counts", [
    (lambda: build_cross3d(16, 32), {"conv3d": 9, "conv1d": 2}),
    (lambda: build_cross3d(4, 8), {"conv3d": 5, "conv1d": 2}),
    (build_baseline_max, {"conv3d": 0, "conv1d": 7}),
    (lambda: build_baseline_gcc(default_array(), 16000), {"conv3d": 0, "conv1d": 7}),
], ids=["cross3d-16x32", "cross3d-4x8", "baseline-max", "baseline-gcc"])
def test_model_children_match_the_layers(build, counts):
    model = build()
    assert _conv_counts(model) == counts
    assert tracing._model_children((model,), {}, None) == counts
