"""perfbench's tracer wraps package functions and methods by dotted path; a
method moved into a base class no longer resolves and its metric silently
goes missing. Every target must resolve on the package as it stands, and
the layer counts the tracer attaches to a model's forward must be the
model's own. perfbench's warm-up must run on the package as it stands too,
calling it the way the workloads do."""

import collections
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from srptrack.geometry import SphericalGrid, default_array, delay_table
from srptrack.models import build_baseline_gcc, build_baseline_max, build_cross3d, model_features
from srptrack.srpfeat import FramingConfig, compute_input_tensor
from srptrack.tensornet import CausalConv1d, CausalConv3d, Sequential

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """A perfbench module, executed from its file without importing perfbench."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")


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


def test_workload_warm_up_runs():
    array = default_array()
    _load("workloads")._warm_up(array, (4, 8), [build_cross3d(4, 8), build_baseline_gcc(array, 16000)])


def test_cross3d_features_from_is_its_model_input_when_all_voiced():
    array, framing = default_array(), FramingConfig()
    channels = np.random.default_rng(3).normal(size=(array.n_mics, framing.K + 2 * framing.hop))
    tensor = compute_input_tensor(channels, delay_table(array, SphericalGrid(4, 8)), framing,
                                  vad_mask=np.ones(3, dtype=bool))
    model = build_cross3d(4, 8)
    np.testing.assert_array_equal(model.features_from(tensor),
                                  model_features(model, tensor, channels, array, framing), strict=True)


def test_tracer_times_each_conv_rank_apart():
    """Both ranks run the one ``_CausalConv`` forward and backward, bound as
    each class's own attributes, so the tracer still gives each rank its spans:
    a taped Cross3D step (op 0) and a baseline forward (op 1)."""
    model, baseline = build_cross3d(4, 8), build_baseline_max()
    rng = np.random.default_rng(5)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tape = []
        out = model.forward(rng.normal(size=(3, 4, 4, 8)), tape)
        model.backward(np.ones_like(out), tape)
        tracer.mark(1)
        baseline.forward(rng.normal(size=(2, 4)))
    finally:
        tracer.uninstall()
    spans = [collections.Counter(s[0] for s in tracer.spans if s[4] == op) for op in (0, 1)]
    conv3d = 1 + 2 * model.depth
    assert spans[0]["tensornet.conv3d_fwd"] == spans[0]["tensornet.conv3d_bwd"] == conv3d == 5
    assert spans[0]["tensornet.conv1d_fwd"] == spans[0]["tensornet.conv1d_bwd"] == 2
    assert spans[1]["tensornet.conv1d_fwd"] == 7
    assert spans[1]["tensornet.conv3d_fwd"] == spans[1]["tensornet.conv1d_bwd"] == 0
