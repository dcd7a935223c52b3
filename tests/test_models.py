"""Tests for srptrack.models: architecture exactness, causality, training."""

import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srptrack.errors import FormatError, ShapeError
from srptrack.geometry import MicArray, SphericalGrid, default_array, delay_table
from srptrack.models import (
    MODEL_KINDS,
    Baseline1D,
    Checkpoint,
    Cross3D,
    TrainConfig,
    baseline_gcc_features,
    baseline_max_features,
    build_baseline_gcc,
    build_baseline_max,
    build_cross3d,
    forward_track,
    load_checkpoint,
    make_checkpoint,
    model_features,
    model_from_checkpoint,
    receptive_field_frames,
    receptive_field_seconds,
    save_checkpoint,
    train,
    training_phase,
)
from srptrack.scenegen import SceneConfig
from srptrack.srpfeat import FramingConfig, assemble_input, compute_input_tensor, default_lag_range
from srptrack.tensornet import Adam, CausalConv1d, CausalConv3d, MaxPoolAxis, PReLU, euclidean_distance_loss

from oracles import conv1d_loop_backward, conv1d_loop_forward, conv3d_im2col_backward, conv3d_im2col_forward


def train_on_fixed_batch(model, batch, steps: int, lr: float, stop_below: float | None = None):
    """Repeatedly fit one fixed batch of (features, target) pairs.

    Returns the per-step mean losses; stops early once the loss drops below
    ``stop_below``.
    """
    optimizer = Adam(model.parameters(), lr=lr)
    losses = []
    for _ in range(steps):
        optimizer.zero_grad()
        total = 0.0
        for feats, target in batch:
            out = model.forward(feats)
            loss, gout = euclidean_distance_loss(out, target.astype(out.dtype))
            model.backward(gout / len(batch))
            total += loss / len(batch)
        optimizer.step()
        losses.append(total)
        if stop_below is not None and total < stop_below:
            break
    return losses


def evaluate_loss(model, batch) -> float:
    """Mean loss over (features, target) pairs without touching gradients."""
    total = 0.0
    for feats, target in batch:
        out = model.forward(feats)
        loss, _ = euclidean_distance_loss(out, target.astype(out.dtype))
        total += loss / len(batch)
    return total


TABLE_COUNTS = {
    (4, 8): 526_372,
    (8, 16): 946_340,
    (16, 32): 1_693_988,
    (32, 64): 5_626_148,
    (64, 128): 21_354_788,
}


def _baseline_layout(in_channels):
    return [
        ("l0.w", (1024, in_channels, 5)), ("l0.b", (1024,)), ("l0_act.a", (1024,)),
        ("l1.w", (512, 1024, 5)), ("l1.b", (512,)), ("l1_act.a", (512,)),
        ("l2.w", (512, 512, 5)), ("l2.b", (512,)), ("l2_act.a", (512,)),
        ("l3.w", (512, 512, 5)), ("l3.b", (512,)), ("l3_act.a", (512,)),
        ("l4.w", (512, 512, 5)), ("l4.b", (512,)), ("l4_act.a", (512,)),
        ("l5.w", (128, 512, 5)), ("l5.b", (128,)), ("l5_act.a", ()),
        ("l6.w", (3, 128, 5)), ("l6.b", (3,)),
    ]


# kind -> (seed-0 builder, parameter names and shapes in order, SHA-256 of its checkpoint file)
PINNED_CHECKPOINTS = {
    "cross3d": (
        lambda: build_cross3d(4, 8, seed=0),
        [
            ("stem.w", (32, 3, 5, 5, 5)), ("stem.b", (32,)), ("stem_act.a", (32,)),
            ("branch_a0.w", (32, 32, 5, 3, 3)), ("branch_a0.b", (32,)), ("branch_a0_act.a", (32,)),
            ("branch_a1.w", (32, 32, 5, 3, 3)), ("branch_a1.b", (32,)), ("branch_a1_act.a", (32,)),
            ("branch_b0.w", (32, 32, 5, 3, 3)), ("branch_b0.b", (32,)), ("branch_b0_act.a", (32,)),
            ("branch_b1.w", (32, 32, 5, 3, 3)), ("branch_b1.b", (32,)), ("branch_b1_act.a", (32,)),
            ("mix.w", (128, 512, 5)), ("mix.b", (128,)), ("mix_act.a", ()),
            ("head.w", (3, 128, 5)), ("head.b", (3,)),
        ],
        "9104ac1209cb16aaa43163ca3078469e41416f5a75deb8b189662547924ad157",
    ),
    "baseline-max": (
        lambda: build_baseline_max(seed=0),
        _baseline_layout(2),
        "5bed3c76505bdd10cd31f71944ce6209f74cac578d840c4137d086d204be84ec",
    ),
    "baseline-gcc": (
        lambda: build_baseline_gcc(default_array(), 16000, seed=0),
        _baseline_layout(858),
        "cf75ef0822384e8dad9864b8a7d0fd0043aeb45bfe8636d178af0dd8ff263a6c",
    ),
}


class TestParameterCounts:
    @pytest.mark.parametrize("resolution,expected", sorted(TABLE_COUNTS.items()))
    def test_cross3d(self, resolution, expected):
        model = build_cross3d(*resolution)
        assert model.parameter_count() == expected

    def test_baseline_max(self):
        assert build_baseline_max().parameter_count() == 6_899_716

    def test_baseline_gcc(self):
        model = build_baseline_gcc(default_array(), 16000)
        assert model.in_channels == 858
        assert model.parameter_count() == 11_282_436

    def test_unsupported_resolution_rejected(self):
        with pytest.raises(ShapeError):
            build_cross3d(6, 12)
        with pytest.raises(ShapeError):
            build_cross3d(4, 1)


def measure_receptive_field(model, n_theta, n_phi, t):
    """Frames with a nonzero input gradient for the last output frame."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, t, n_theta, n_phi))
    model.forward(x)
    probe = np.zeros((3, t), dtype=model.dtype)
    probe[:, t - 1] = 1.0
    gin = model.backward(probe)
    frames = np.nonzero(np.abs(gin).sum(axis=(0, 2, 3)) > 0)[0]
    assert frames.max() == t - 1
    return t - frames.min()


class TestReceptiveField:
    @pytest.mark.parametrize(
        "resolution,depth,rf,seconds",
        [((4, 8), 2, 29, 5.63), ((8, 16), 3, 33, 6.40), ((16, 32), 4, 37, 7.17)],
    )
    def test_measured_equals_derived(self, resolution, depth, rf, seconds):
        model = build_cross3d(*resolution, seed=1)
        assert model.depth == depth
        assert receptive_field_frames(depth) == rf
        assert round(receptive_field_seconds(depth), 2) == seconds
        assert measure_receptive_field(model, *resolution, t=rf + 4) == rf

    def test_baseline_receptive_field(self):
        model = build_baseline_max(seed=1)
        rng = np.random.default_rng(0)
        t = 41
        x = rng.normal(size=(2, t))
        model.forward(x)
        probe = np.zeros((3, t), dtype=model.dtype)
        probe[:, t - 1] = 1.0
        gin = model.backward(probe)
        frames = np.nonzero(np.abs(gin).sum(axis=0) > 0)[0]
        assert t - frames.min() == 37


class TestForward:
    def test_output_shape_and_range(self):
        model = build_cross3d(4, 8, seed=2)
        x = np.random.default_rng(1).normal(size=(3, 10, 4, 8))
        out = model.forward(x)
        assert out.shape == (3, 10)
        assert np.all(out > -1.0) and np.all(out < 1.0)

    def test_full_model_causality_bitwise(self):
        model = build_cross3d(4, 8, seed=3)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 20, 4, 8)).astype(np.float32)
        base = model.forward(x).copy()
        cut = 12
        x2 = x.copy()
        x2[:, cut + 1 :] = rng.normal(size=(3, 20 - cut - 1, 4, 8))
        out2 = model.forward(x2)
        np.testing.assert_array_equal(out2[:, : cut + 1], base[:, : cut + 1])

    def test_deterministic_given_seed(self):
        x = np.random.default_rng(3).normal(size=(3, 8, 4, 8))
        out1 = build_cross3d(4, 8, seed=7).forward(x)
        out2 = build_cross3d(4, 8, seed=7).forward(x)
        np.testing.assert_array_equal(out1, out2)
        out3 = build_cross3d(4, 8, seed=8).forward(x)
        assert not np.array_equal(out1, out3)

    def test_forward_track_degenerate(self):
        class Stub:
            dtype = np.float64

            def forward(self, x):
                out = np.zeros((3, 4))
                out[:, 1] = [0.6, 0.0, 0.8]
                return out

        units, degenerate = forward_track(Stub(), None)
        np.testing.assert_array_equal(degenerate, [True, False, True, True])
        np.testing.assert_allclose(units[1], [0.6, 0.0, 0.8])
        np.testing.assert_array_equal(units[0], [0.0, 0.0, 1.0])

    def test_float32_matches_old_conv_layers(self, monkeypatch):
        """One forward and one backward pass of float32 Cross3D against the
        same model run through the old conv layers: outputs to 1e-4, every
        parameter gradient to 1e-4 of its own largest magnitude."""
        model = build_cross3d(16, 32, seed=9)
        rng = np.random.default_rng(10)
        for p in model.parameters():
            if p.name.endswith(".b"):
                p.value[:] = rng.normal(scale=0.1, size=p.value.shape)
        x = rng.normal(size=(3, 20, 16, 32)).astype(np.float32)
        probe = rng.normal(size=(3, 20)).astype(np.float32)

        def one_pass(before_backward=lambda: None):
            for p in model.parameters():
                p.zero_grad()
            out = model.forward(x).copy()
            before_backward()
            model.backward(probe)
            return out, [p.grad.copy() for p in model.parameters()]

        out, grads = one_pass()
        # An activation within float32 rounding of 0 can take the other PReLU
        # slope in one of the two passes (one element of branch_b2 here), and
        # so can a near-tie pick another pooled element; either changes the
        # gradient upstream far beyond rounding. The reference backward pass
        # reuses the first pass's choices.
        layers = [layer for seq in (model.stem, *model.branches, model.head) for layer in seq.layers]
        acts = [layer for layer in layers if isinstance(layer, PReLU)]
        pools = [layer for layer in layers if isinstance(layer, MaxPoolAxis)]
        signs, picks = [a._neg for a in acts], [p._argmax for p in pools]

        def same_choices():
            for act, sign in zip(acts, signs):
                act._neg = sign
            for pool, pick in zip(pools, picks):
                pool._argmax = pick

        def old_forward(oracle):
            def forward(layer, x):
                layer.old_input = x
                return oracle(layer, x)
            return forward

        def old_backward(oracle):
            def backward(layer, grad_out):
                gx, gw, gb = oracle(layer, layer.old_input, grad_out)
                layer.w.grad += gw
                layer.b.grad += gb
                return gx
            return backward

        monkeypatch.setattr(CausalConv3d, "forward", old_forward(
            lambda layer, x: conv3d_im2col_forward(layer.w.value, layer.b.value, x)))
        monkeypatch.setattr(CausalConv3d, "backward", old_backward(
            lambda layer, x, g: conv3d_im2col_backward(layer.w.value, x, g)))
        monkeypatch.setattr(CausalConv1d, "forward", old_forward(
            lambda layer, x: conv1d_loop_forward(layer.w.value, layer.b.value, x, layer.dilation)))
        monkeypatch.setattr(CausalConv1d, "backward", old_backward(
            lambda layer, x, g: conv1d_loop_backward(layer.w.value, x, g, layer.dilation)))
        ref, ref_grads = one_pass(same_choices)
        assert ref.dtype == out.dtype == np.float32
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-4)
        for p, got, want in zip(model.parameters(), grads, ref_grads):
            assert want.dtype == got.dtype == np.float32
            scale = np.abs(want).max()
            assert scale > 0, p.name
            assert np.abs(got - want).max() <= 1e-4 * scale, p.name

    def test_bad_input_shape(self):
        model = build_cross3d(4, 8)
        with pytest.raises(ShapeError):
            model.forward(np.zeros((3, 10, 8, 8)))


class TestEndToEndGradient:
    def test_tiny_cross3d_finite_differences(self):
        model = build_cross3d(4, 8, seed=4, dtype=np.float64)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 12, 4, 8))
        target = rng.normal(size=(3, 12))
        target /= np.linalg.norm(target, axis=0, keepdims=True)

        def objective():
            return euclidean_distance_loss(model.forward(x), target)[0]

        for p in model.parameters():
            p.zero_grad()
        out = model.forward(x)
        _, gout = euclidean_distance_loss(out, target)
        model.backward(gout)

        h = 1e-6
        rng_pick = np.random.default_rng(6)
        for p in model.parameters():
            flat = p.value.reshape(-1)
            grad = p.grad.reshape(-1)
            picks = rng_pick.choice(flat.size, size=min(12, flat.size), replace=False)
            for i in picks:
                keep = flat[i]
                flat[i] = keep + h
                jp = objective()
                flat[i] = keep - h
                jm = objective()
                flat[i] = keep
                fd = (jp - jm) / (2 * h)
                assert abs(fd - grad[i]) <= 1e-3 * max(abs(fd), abs(grad[i]), 1e-5), p.name


class TestBaselineFeatures:
    def test_max_features_from_tensor(self):
        grid = SphericalGrid(4, 8)
        maps = np.zeros((3,) + grid.shape)
        maps[:, 2, 5] = 1.0
        vad = np.array([True, False, True])
        tensor = assemble_input(maps, vad, grid)
        feats = baseline_max_features(tensor)
        assert feats.shape == (2, 3)
        np.testing.assert_array_equal(feats[:, 1], 0.0)
        assert feats[0, 0] == pytest.approx(grid.thetas[2] / np.pi)

    def test_gcc_features_shape_and_silence(self):
        array = default_array()
        cfg = FramingConfig(K=1024, hop=768)
        rng = np.random.default_rng(7)
        channels = rng.normal(size=(12, 4096))
        vad = np.array([True, True, False, True, True])
        feats = baseline_gcc_features(channels, array, cfg, vad_mask=vad)
        assert feats.shape == (858, 5)
        np.testing.assert_array_equal(feats[:, 2], 0.0)
        assert np.any(feats[:, 0] != 0.0)

    def test_model_features_picks_each_kinds_input(self):
        array = default_array()
        cfg = FramingConfig(K=1024, hop=768)
        grid = SphericalGrid(4, 8)
        rng = np.random.default_rng(8)
        channels = rng.normal(size=(12, 4096))
        vad = np.array([True, False, True, True, False])
        tensor = assemble_input(rng.random((5,) + grid.shape), vad, grid)
        np.testing.assert_array_equal(
            model_features(build_baseline_gcc(array, cfg.fs), tensor, channels, array, cfg),
            baseline_gcc_features(channels, array, cfg, vad_mask=vad))
        np.testing.assert_array_equal(
            model_features(build_baseline_max(), tensor, channels, array, cfg),
            baseline_max_features(tensor))
        assert model_features(build_cross3d(4, 8), tensor, channels, array, cfg) is tensor.data

    def test_float32_channels_as_stored(self):
        """Framing promotes float32 samples exactly, so features of channels as
        scenes and WAV files store them equal those of a float64 copy."""
        array = default_array()
        cfg = FramingConfig()
        channels = np.random.default_rng(9).normal(size=(12, 4 * cfg.fs)).astype(np.float32)
        table = delay_table(array, SphericalGrid(16, 32))
        stored = compute_input_tensor(channels, table, cfg)
        promoted = compute_input_tensor(channels.astype(float), table, cfg)
        for name in ("data", "vad", "argmax_doa"):
            np.testing.assert_array_equal(getattr(stored, name), getattr(promoted, name), strict=True)
        np.testing.assert_array_equal(
            baseline_gcc_features(channels, array, cfg, vad_mask=stored.vad),
            baseline_gcc_features(channels.astype(float), array, cfg, vad_mask=stored.vad), strict=True)


class TestCheckpoints:
    def test_save_load_forward_bitwise(self, tmp_path):
        model = build_cross3d(4, 8, seed=9)
        x = np.random.default_rng(8).normal(size=(3, 9, 4, 8))
        before = model.forward(x).copy()
        path = tmp_path / "model.sstc"
        save_checkpoint(path, make_checkpoint(model, step=17))
        ckpt = load_checkpoint(path)
        assert ckpt.step == 17
        rebuilt = model_from_checkpoint(ckpt)
        np.testing.assert_array_equal(rebuilt.forward(x), before)

    def test_file_layout(self, tmp_path):
        """Magic, version 1 and the header length, the JSON header, then float32 tensors in order."""
        ckpt = make_checkpoint(build_cross3d(2, 2, seed=1), step=3)
        path = tmp_path / "model.sstc"
        save_checkpoint(path, ckpt)
        directory, offset = [], 0
        for name, arr in ckpt.tensors.items():
            directory.append({"name": name, "shape": list(arr.shape), "offset": offset})
            offset += 4 * arr.size
        header = json.dumps({"kind": "cross3d", "spec": {"n_theta": 2, "n_phi": 2}, "step": 3,
                             "tensors": directory}).encode()
        payload = b"".join(arr.astype("<f4").tobytes() for arr in ckpt.tensors.values())
        assert path.read_bytes() == b"SSTC" + struct.pack("<2I", 1, len(header)) + header + payload

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_pinned_layout_and_bytes(self, tmp_path, kind):
        """Parameter names, shapes and order, and the bytes of a seed-0
        checkpoint: a refactor that reorders or re-draws weights breaks
        every checkpoint written before it."""
        build, layout, sha256 = PINNED_CHECKPOINTS[kind]
        model = build()
        assert [(p.name, p.value.shape) for p in model.parameters()] == layout
        path = tmp_path / "model.sstc"
        save_checkpoint(path, make_checkpoint(model))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256

    def test_mismatched_resolution_rejected(self, tmp_path):
        path = tmp_path / "model.sstc"
        save_checkpoint(path, make_checkpoint(build_cross3d(4, 8)))
        ckpt = load_checkpoint(path)
        ckpt.spec.update(n_phi=16)  # same layers, a wider head input
        with pytest.raises(FormatError, match="tensor mix.w has shape"):
            model_from_checkpoint(ckpt)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "model.sstc"
        save_checkpoint(path, make_checkpoint(build_baseline_max()))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.sstc"
        path.write_bytes(b"XXXX" + b"\x00" * 100)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda h: h.pop("tensors"),
            lambda h: h.pop("kind"),
            lambda h: h.pop("spec"),
            lambda h: h.pop("step"),
            lambda h: h.update(kind=3),
            lambda h: h.update(spec=[4, 8]),
            lambda h: h.update(step=-1),
            lambda h: h.update(step="7"),
            lambda h: h.update(tensors={"a": 1}),
            lambda h: h["tensors"].__setitem__(0, "w"),
            lambda h: h["tensors"][0].pop("name"),
            lambda h: h["tensors"][0].update(shape=[-1, 2]),
            lambda h: h["tensors"][0].update(shape=[1.5, 2]),
            lambda h: h["tensors"][0].update(shape=[True, 2]),
            lambda h: h["tensors"][0].update(shape=7),
            lambda h: h["tensors"][0].update(offset=-4),
            lambda h: h["tensors"][0].update(offset=2.0),
            lambda h: h["tensors"][0].update(shape=[0, 10**20]),
        ],
    )
    def test_malformed_header_rejected(self, tmp_path, corrupt):
        path = tmp_path / "model.sstc"
        save_checkpoint(path, make_checkpoint(build_baseline_max()))
        blob = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", blob, 8)
        header = json.loads(blob[12 : 12 + header_len])
        corrupt(header)
        text = json.dumps(header).encode()
        path.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + header_len :])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_header_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "model.sstc"
        text = b"[1, 2]"
        path.write_bytes(b"SSTC" + struct.pack("<2I", 1, len(text)) + text)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "kind, spec",
        [
            ("cross3d", {}),
            ("cross3d", {"n_theta": 4}),
            ("cross3d", {"n_theta": 4.0, "n_phi": 8}),
            ("cross3d", {"n_theta": "4", "n_phi": 8}),
            ("cross3d", {"n_theta": True, "n_phi": 8}),
            ("baseline-gcc", {}),
            ("baseline-gcc", {"in_channels": 0}),
            ("baseline-gcc", {"in_channels": [858]}),
            ("cross3d", {"n_theta": 2, "n_phi": 3}),
            ("cross3d", {"n_theta": 1, "n_phi": 8}),
            ("cross3d", {"n_theta": 8, "n_phi": 12}),
        ],
    )
    def test_bad_spec_rejected(self, kind, spec):
        with pytest.raises(FormatError, match=kind):
            model_from_checkpoint(Checkpoint(kind=kind, spec=spec, tensors={}, step=0))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_truncated_or_bit_flipped_checkpoint_raises_only_format_error(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("ckpt") / "model.sstc"
        save_checkpoint(path, make_checkpoint(build_cross3d(2, 2)))
        blob = bytearray(path.read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            # flips in the float payload just load other values
            (header_len,) = struct.unpack_from("<I", blob, 8)
            bit = data.draw(st.integers(0, 8 * (12 + header_len) - 1), label="bit")
            blob[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(blob))
        try:
            model_from_checkpoint(load_checkpoint(path))
        except FormatError:
            pass

    def test_gcc_checkpoint_must_fit_the_array(self):
        array = default_array()
        ckpt = make_checkpoint(build_baseline_gcc(array, 16000))
        assert model_from_checkpoint(ckpt, array=array, fs=16000).in_channels == 858
        toy = MicArray(positions=array.positions[:4])
        width = 6 * (2 * default_lag_range(toy, 16000) + 1)
        with pytest.raises(FormatError, match=f"858 input channels.* gives {width}"):
            model_from_checkpoint(ckpt, array=toy, fs=16000)
        width = 66 * (2 * default_lag_range(array, 48000) + 1)
        with pytest.raises(FormatError, match=f"858 input channels.* gives {width}"):
            model_from_checkpoint(ckpt, array=array, fs=48000)
        with pytest.raises(TypeError, match="needs fs"):
            model_from_checkpoint(ckpt, array=array)

    @staticmethod
    def _saved(tmp_path, kind):
        model = {
            "cross3d": lambda: build_cross3d(4, 8, seed=21),
            "baseline-max": lambda: build_baseline_max(seed=22),
            "baseline-gcc": lambda: build_baseline_gcc(default_array(), 16000, seed=23),
        }[kind]()
        path = tmp_path / "model.sstc"
        save_checkpoint(path, make_checkpoint(model))
        return load_checkpoint(path)

    @staticmethod
    def _forbid_random_draws(monkeypatch):
        def draw(*args, **kwargs):
            raise AssertionError("a checkpoint load drew a random initialisation")

        monkeypatch.setattr("srptrack.models.np.random.default_rng", draw)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_load_draws_no_random_weights(self, tmp_path, monkeypatch, kind):
        ckpt = self._saved(tmp_path, kind)
        self._forbid_random_draws(monkeypatch)
        model = model_from_checkpoint(ckpt)
        loaded = {p.name: p.value for p in model.parameters()}
        assert list(loaded) == list(ckpt.tensors)
        for name, arr in ckpt.tensors.items():
            assert loaded[name].dtype == arr.dtype
            np.testing.assert_array_equal(loaded[name], arr, strict=True)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("damage", ["missing", "misshapen"])
    def test_incomplete_tensors_rejected(self, tmp_path, monkeypatch, kind, damage):
        ckpt = self._saved(tmp_path, kind)
        self._forbid_random_draws(monkeypatch)
        name = list(ckpt.tensors)[-1]
        if damage == "missing":
            del ckpt.tensors[name]
        else:
            ckpt.tensors[name] = np.append(ckpt.tensors[name], np.float32(0.0))
        with pytest.raises(FormatError):
            model_from_checkpoint(ckpt)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_loaded_model_holds_no_gradients_until_backward(self, tmp_path, kind):
        ckpt = self._saved(tmp_path, kind)
        rng = np.random.default_rng(25)
        x = rng.normal(size={"cross3d": (3, 6, 4, 8), "baseline-max": (2, 6), "baseline-gcc": (858, 6)}[kind])
        model = model_from_checkpoint(ckpt)
        out = model.forward(x)
        assert not any("grad" in vars(p) for p in model.parameters())
        # backward fills the same gradients as zero slots allocated up front
        eager = model_from_checkpoint(ckpt)
        for p in eager.parameters():
            p.zero_grad()
        np.testing.assert_array_equal(eager.forward(x), out)
        g = rng.normal(size=out.shape).astype(out.dtype)
        np.testing.assert_array_equal(model.backward(g), eager.backward(g))
        for p, q in zip(model.parameters(), eager.parameters(), strict=True):
            np.testing.assert_array_equal(p.grad, q.grad, strict=True)

    @pytest.mark.parametrize(
        "kind, spec",
        [
            ("cross3d", {"n_theta": 4, "n_phi": 8, "junk": 1}),
            ("baseline-max", {"in_channels": 2, "junk": 1}),
            ("baseline-gcc", {"in_channels": 858, "junk": 1}),
            ("baseline-max", {"in_channels": 5}),
        ],
        ids=["cross3d-junk", "baseline-max-junk", "baseline-gcc-junk", "baseline-max-5-channels"],
    )
    def test_unknown_spec_keys_rejected(self, tmp_path, kind, spec):
        """Every key the model builds from fits, but the spec is not the model's."""
        ckpt = self._saved(tmp_path, kind)
        with pytest.raises(FormatError, match=f"checkpoint is {kind}"):
            model_from_checkpoint(Checkpoint(kind=kind, spec=spec, tensors=ckpt.tensors, step=0))

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_weight_rejected(self, tmp_path, value):
        ckpt = make_checkpoint(build_baseline_max())
        ckpt.tensors["l0.w"][0, 1, 2] = value
        path = tmp_path / "model.sstc"
        save_checkpoint(path, ckpt)
        with pytest.raises(FormatError, match="tensor l0.w holds a NaN or an infinity"):
            load_checkpoint(path)

    def test_load_keeps_one_copy_of_the_weights(self, tmp_path):
        """The model's weights are the arrays read from the file: the load
        peaks near the weight bytes, not at twice them."""
        import tracemalloc

        model = build_baseline_gcc(default_array(), 16000)
        weight_bytes = 4 * model.parameter_count()
        path = tmp_path / "model.sstc"
        save_checkpoint(path, make_checkpoint(model))
        del model
        tracemalloc.start()
        try:
            model_from_checkpoint(load_checkpoint(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * weight_bytes

    @pytest.mark.parametrize("build", [lambda: Cross3D(4, 8, None),
                                       lambda: Baseline1D("baseline-max", 2, None)], ids=["cross3d", "baseline-max"])
    def test_weights_without_rng_are_read_only(self, build):
        """A model built for a checkpoint holds no uninitialised memory, and
        writing to a weight before the load replaces it fails loudly."""
        weights = [p for p in build().parameters() if p.name.endswith(".w")]
        assert weights
        for p in weights:
            assert not p.value.any()
            with pytest.raises(ValueError, match="read-only"):
                p.value[...] = 1.0

    def test_baseline_round_trip(self, tmp_path):
        model = build_baseline_gcc(default_array(), 16000, seed=11)
        path = tmp_path / "model.sstc"
        save_checkpoint(path, make_checkpoint(model))
        rebuilt = model_from_checkpoint(load_checkpoint(path))
        x = np.random.default_rng(10).normal(size=(858, 6))
        np.testing.assert_array_equal(rebuilt.forward(x), model.forward(x))


class TestTraining:
    def test_phase_boundary(self):
        cfg = TrainConfig()
        assert training_phase(cfg, 20) == (5, 1e-4, 30.0)
        assert training_phase(cfg, 21) == (10, 1e-5, None)

    def test_fixed_batch_overfit_tiny(self):
        model = build_cross3d(4, 8, seed=12)
        rng = np.random.default_rng(13)
        feats = rng.normal(size=(3, 10, 4, 8))
        target = rng.normal(size=(3, 10))
        target /= np.linalg.norm(target, axis=0, keepdims=True)
        target *= 0.8  # keep inside tanh range
        losses = train_on_fixed_batch(model, [(feats, target)], steps=400, lr=1e-3, stop_below=0.05)
        assert losses[-1] < 0.05
        assert losses[-1] < losses[0]

    def test_train_micro_run_covers_both_phases(self):
        scene_cfg = SceneConfig(
            room_min=[4.0, 3.5, 2.8],
            room_max=[5.0, 4.5, 3.2],
            snr_range=(20.0, 30.0),
            t60_range=(0.2, 0.3),
            rir_t_max=0.1,
        )
        cfg = TrainConfig(
            epochs=2,
            trajectories_per_epoch=2,
            traj_seconds=1.2,
            phase1_epochs=1,
            phase1_batch=1,
            phase2_batch=1,
            seed=3,
        )
        model = build_cross3d(4, 8, seed=14)
        grid = SphericalGrid(4, 8)
        ckpt, losses = train(model, cfg, scene_cfg, default_array(), grid)
        assert len(losses) == 4  # 2 epochs x 2 batches of 1
        assert ckpt.step == 4
        assert all(np.isfinite(losses))

    def test_train_determinism(self):
        scene_cfg = SceneConfig(
            room_min=[4.0, 3.5, 2.8],
            room_max=[5.0, 4.5, 3.2],
            snr_range=(25.0, 30.0),
            t60_range=(0.2, 0.25),
            rir_t_max=0.08,
        )
        cfg = TrainConfig(
            epochs=1, trajectories_per_epoch=2, traj_seconds=1.2,
            phase1_epochs=1, phase1_batch=2, seed=5,
        )

        def run():
            model = build_cross3d(4, 8, seed=15)
            _, losses = train(model, cfg, scene_cfg, default_array(), SphericalGrid(4, 8))
            return losses, model.parameters()[0].value.copy()

        l1, w1 = run()
        l2, w2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(w1, w2)

    def test_evaluate_loss_runs(self):
        model = build_baseline_max(seed=16)
        rng = np.random.default_rng(17)
        batch = [(rng.normal(size=(2, 8)), rng.normal(size=(3, 8))) for _ in range(2)]
        loss = evaluate_loss(model, batch)
        assert np.isfinite(loss)
