"""Tests for srptrack.models: architecture exactness, causality, training."""

import json
import struct

import numpy as np
import pytest

from srptrack.errors import FormatError, ShapeError
from srptrack.geometry import MicArray, SphericalGrid, default_array
from srptrack.models import (
    Checkpoint,
    TrainConfig,
    baseline_gcc_features,
    baseline_max_features,
    build_baseline_gcc,
    build_baseline_max,
    build_cross3d,
    evaluate_loss,
    forward_track,
    load_checkpoint,
    load_into,
    make_checkpoint,
    model_from_checkpoint,
    receptive_field_frames,
    receptive_field_seconds,
    save_checkpoint,
    train,
    train_on_fixed_batch,
    training_phase,
)
from srptrack.scenegen import SceneConfig
from srptrack.srpfeat import FramingConfig, assemble_input, default_lag_range
from srptrack.tensornet import euclidean_distance_loss

TABLE_COUNTS = {
    (4, 8): 526_372,
    (8, 16): 946_340,
    (16, 32): 1_693_988,
    (32, 64): 5_626_148,
    (64, 128): 21_354_788,
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

        raw, units, degenerate = forward_track(Stub(), None)
        np.testing.assert_array_equal(degenerate, [True, False, True, True])
        np.testing.assert_allclose(units[:, 1], [0.6, 0.0, 0.8])
        np.testing.assert_array_equal(units[:, 0], [0.0, 0.0, 1.0])

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

    def test_mismatched_resolution_rejected(self, tmp_path):
        path = tmp_path / "model.sstc"
        save_checkpoint(path, make_checkpoint(build_cross3d(4, 8)))
        with pytest.raises(FormatError):
            load_into(build_cross3d(8, 16), load_checkpoint(path))

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
        ],
    )
    def test_bad_spec_rejected(self, kind, spec):
        with pytest.raises(FormatError):
            model_from_checkpoint(Checkpoint(kind=kind, spec=spec, tensors={}, step=0))

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
