"""Tests for srptrack.evaluate."""

import csv
import math

import numpy as np
import pytest
from scipy.io import wavfile

from srptrack import evaluate
from srptrack.errors import EmptySelection, FormatError, ImageGridTooLarge, ShapeError
from srptrack.evaluate import (
    ExperimentGrid,
    PLOT_CSV_HEADER,
    emit_plot_data,
    evaluate_models_on_scene,
    rmsae,
    run_grid,
    track_file,
    write_track_csv,
)
from srptrack.geometry import SphericalGrid, default_array, delay_table
from srptrack.models import (
    MODEL_KINDS,
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
    save_checkpoint,
)
from srptrack.roomsim import MicSignals, Room, render_moving_source
from srptrack.scenegen import (
    SceneConfig,
    clean_dry_signal,
    sample_rng,
    synthesize_trajectory_sample,
    synthetic_source,
)
from srptrack.srpfeat import EnergyVad, FramingConfig, compute_input_tensor

from oracles import angular_errors_per_frame, doa_to_unit_from_pair, unit_to_doa


class TestRmsae:
    def test_constant_error(self):
        err = np.full(10, math.radians(10.0))
        assert rmsae(err, np.ones(10, dtype=bool), include_silent=True) == pytest.approx(10.0)

    def test_zero_and_ninety(self):
        err = np.array([0.0, math.pi / 2])
        got = rmsae(err, np.ones(2, dtype=bool), include_silent=True)
        assert got == pytest.approx(math.sqrt(8100 / 2), abs=0.01)  # 63.64

    def test_all_silent_empty_selection(self):
        with pytest.raises(EmptySelection):
            rmsae(np.array([0.1, 0.2]), np.zeros(2, dtype=bool), include_silent=False)

    def test_voiced_selection(self):
        err = np.array([math.radians(10.0), math.radians(90.0)])
        mask = np.array([True, False])
        assert rmsae(err, mask, include_silent=False) == pytest.approx(10.0)
        assert rmsae(err, mask, include_silent=True) > 10.0


def _toy_scene_cfg():
    return SceneConfig(
        room_min=[4.0, 3.5, 2.8],
        room_max=[5.5, 4.5, 3.2],
        snr_range=(20.0, 30.0),
        t60_range=(0.2, 0.3),
        duration=2.0,
        rir_t_max=0.12,
    )


class TestRunGrid:
    def test_deterministic_and_shaped(self):
        grid = ExperimentGrid(
            t60s=(0.2,), snrs=(30.0,), resolutions=((4, 8),), trajectories_per_cell=2, master_seed=4
        )
        rows1 = run_grid(grid, _toy_scene_cfg(), default_array())
        rows2 = run_grid(grid, _toy_scene_cfg(), default_array())
        assert rows1 == rows2
        assert len(rows1) == 1  # srp-argmax only
        row = rows1[0]
        assert row["model"] == "srp-argmax"
        assert row["resolution"] == "4x8"
        assert row["n_traj"] == 2
        assert row["rmsae_all_deg"] >= 0.0

    def test_includes_models(self):
        grid = ExperimentGrid(
            t60s=(0.2,), snrs=(30.0,), resolutions=((4, 8),), trajectories_per_cell=1, master_seed=5
        )
        models = {(4, 8): {"cross3d": build_cross3d(4, 8, seed=0)}}
        rows = run_grid(grid, _toy_scene_cfg(), default_array(), checkpoints=models)
        assert sorted(r["model"] for r in rows) == ["cross3d", "srp-argmax"]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            ExperimentGrid(t60s=(), snrs=(30.0,), resolutions=((4, 8),))

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"trajectories_per_cell": 0}, "got 0 and"),
            ({"trajectories_per_cell": -2}, "got -2 and"),
            ({"t60s": (0.2, -0.1)}, r"got 50 and \(0\.2, -0\.1\)"),
            ({"t60s": (0.2, math.nan)}, r"got 50 and \(0\.2, nan\)"),
            ({"t60s": (math.inf,)}, r"got 50 and \(inf,\)"),
            ({"snrs": (math.nan,)}, r"and \(nan,\)$"),
            ({"snrs": (30.0, -math.inf)}, r"and \(30\.0, -inf\)$"),
            ({"resolutions": ((4, 8), (1, 8))}, "integer of at least 2 points"),
            ({"resolutions": ((4, 8.0),)}, "integer of at least 2 points"),
            ({"resolutions": ((True, 8),)}, "integer of at least 2 points"),
            ({"resolutions": ((4, 8, 2),)}, r"\(n_theta, n_phi\) pair, got \(4, 8, 2\)"),
            ({"resolutions": ("4x8",)}, "pair, got '4x8'"),
            ({"trajectories_per_cell": 1.5}, "got 1.5 and"),
            ({"trajectories_per_cell": True}, "got True and"),
            ({"t60s": (True,)}, r"got 50 and \(True,\)"),
            ({"snrs": ("30",)}, r"and \('30',\)$"),
            ({"master_seed": -1}, "master_seed must be a non-negative integer, got -1"),
            ({"master_seed": 2.0}, "master_seed must be a non-negative integer, got 2.0"),
            ({"master_seed": False}, "master_seed must be a non-negative integer, got False"),
            # a repeated value would evaluate one cell twice under one row label
            ({"t60s": (0.2, 0.4, 0.2)}, r"t60s repeats 0\.2"),
            ({"snrs": (30, 30.0)}, "snrs repeats 30"),
            ({"snrs": (0.0, -0.0)}, "snrs repeats -0.0"),
            ({"resolutions": ((4, 8), [4, 8])}, r"resolutions repeats \(4, 8\)"),
        ],
    )
    def test_bad_counts_and_t60s_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ExperimentGrid(**{"t60s": (0.2,), "snrs": (30.0,), "resolutions": ((4, 8),), **kwargs})

    @pytest.fixture
    def no_render(self, monkeypatch):
        def render(*args, **kwargs):
            raise AssertionError("a scene was rendered")
        monkeypatch.setattr(evaluate, "synthesize_trajectory_sample", render)

    def test_models_under_a_missing_resolution_rejected_before_rendering(self, no_render):
        grid = ExperimentGrid(t60s=(0.2,), snrs=(30.0,), resolutions=((4, 8),), trajectories_per_cell=1)
        models = {(4, 8): {"cross3d": build_cross3d(4, 8)}, (8, 16): {"cross3d": build_cross3d(8, 16)}}
        with pytest.raises(ValueError, match=r"resolution \(8, 16\), which the grid lacks"):
            run_grid(grid, _toy_scene_cfg(), default_array(), checkpoints=models)

    def test_cross3d_under_another_resolution_rejected_before_rendering(self, no_render):
        grid = ExperimentGrid(t60s=(0.2,), snrs=(30.0,), resolutions=((4, 8),), trajectories_per_cell=1)
        models = {(4, 8): {"baseline-max": build_baseline_max(), "wide": build_cross3d(8, 16)}}
        with pytest.raises(ShapeError, match="wide is a 8x16 cross3d model, filed under 4x8"):
            run_grid(grid, _toy_scene_cfg(), default_array(), checkpoints=models)

    def test_unrenderable_t60_rejected_before_rendering(self, no_render):
        grid = ExperimentGrid(t60s=(0.2, 30.0), snrs=(30.0,), resolutions=((4, 8),), trajectories_per_cell=1)
        with pytest.raises(ImageGridTooLarge, match=r"t_max 30.0 s needs \d+ grid images"):
            run_grid(grid, SceneConfig(duration=1.0), default_array())


class TestSceneErrors:
    def test_errors_match_per_frame_loop(self):
        framing = FramingConfig()
        signals, scene = synthesize_trajectory_sample(
            _toy_scene_cfg(), synthetic_source, sample_rng(6, 0), framing=framing
        )
        model = build_cross3d(4, 8, seed=1)
        errors, tensor = evaluate_models_on_scene(
            signals, scene, SphericalGrid(4, 8), framing, {"cross3d": model}
        )
        gt = scene.gt_units()
        srp_units = np.array([doa_to_unit_from_pair(t, p) for t, p in tensor.argmax_doa])
        np.testing.assert_allclose(errors["srp-argmax"], angular_errors_per_frame(srp_units, gt),
                                   rtol=0, atol=1e-12)
        units, _ = forward_track(model, model_features(model, tensor, signals.channels, scene.array, framing))
        np.testing.assert_allclose(errors["cross3d"], angular_errors_per_frame(units, gt),
                                   rtol=0, atol=1e-12)


class TestEmitPlotData:
    def test_header_and_round_trip(self, tmp_path):
        rows = [
            {
                "model": "srp-argmax",
                "resolution": "4x8",
                "t60_s": 0.2,
                "snr_db": 30.0,
                "rmsae_voiced_deg": 12.345678,
                "rmsae_all_deg": 23.456789,
                "n_traj": 5,
            }
        ]
        path = tmp_path / "plot.csv"
        emit_plot_data(rows, path)
        with open(path) as f:
            reader = csv.reader(f)
            header = next(reader)
            assert header == PLOT_CSV_HEADER
            assert ",".join(header) == "model,resolution,t60_s,snr_db,rmsae_voiced_deg,rmsae_all_deg,n_traj"
            row = next(reader)
        assert float(row[4]) == pytest.approx(12.345678, abs=1e-6)
        assert float(row[5]) == pytest.approx(23.456789, abs=1e-6)

    def test_row_count(self, tmp_path):
        rows = [
            {
                "model": m,
                "resolution": "4x8",
                "t60_s": t,
                "snr_db": 30.0,
                "rmsae_voiced_deg": 1.0,
                "rmsae_all_deg": 1.0,
                "n_traj": 1,
            }
            for m in ("a", "b")
            for t in (0.2, 0.9)
        ]
        path = tmp_path / "plot.csv"
        emit_plot_data(rows, path)
        assert len(path.read_text().strip().splitlines()) == 5


def _write_static_scene_wav(tmp_path, grid_res=(64, 128), duration=3.0, t60=0.0, seed=0, ij=None):
    """A static source at grid cell ``ij`` (default: a third of the way along each axis)."""
    framing = FramingConfig()
    array = default_array()
    grid = SphericalGrid(*grid_res)
    room = Room([6.0, 5.0, 3.0], t60)
    origin = np.array([3.0, 2.5, 1.2])
    ij = ij or (grid.n_theta // 3, grid.n_phi // 3)
    u = grid.unit_vectors()[ij]
    src = origin + 1.6 * u
    dry, mask = synthetic_source(duration, framing, sample_rng(seed, 0))
    dry = clean_dry_signal(dry, mask, framing)
    t = framing.n_frames(len(dry))
    points = np.tile(src, (t, 1))
    signals = render_moving_source(
        dry, points, origin + array.positions, room, 16000, hop=framing.hop,
        t_max=0.15 if t60 > 0 else None,
    )
    path = tmp_path / "scene.wav"
    signals.to_wav(path)
    true_doa = (grid.thetas[ij[0]], grid.phis[ij[1]])
    return path, array, grid, true_doa, ij


def _save_untrained(tmp_path, kind, array, grid):
    """A seeded, untrained checkpoint of ``kind`` for ``array`` and ``grid``."""
    model = {
        "cross3d": lambda: build_cross3d(grid.n_theta, grid.n_phi, seed=2),
        "baseline-max": lambda: build_baseline_max(seed=3),
        "baseline-gcc": lambda: build_baseline_gcc(array, FramingConfig().fs, seed=4),
    }[kind]()
    path = tmp_path / f"{kind}.sstc"
    save_checkpoint(path, make_checkpoint(model))
    return path


class TestTrackFile:
    def test_static_anechoic_median_within_one_cell(self, tmp_path):
        path, array, grid, true_doa, ij = _write_static_scene_wav(tmp_path)
        rows = track_file(path, array, grid=grid)
        voiced = [r for r in rows if r["vad"]]
        assert voiced
        az = np.median([r["azimuth_deg"] for r in voiced])
        el = np.median([r["elevation_deg"] for r in voiced])
        cell_az = 360.0 / grid.n_phi
        cell_el = 180.0 / (grid.n_theta - 1)
        assert abs(az - math.degrees(true_doa[1])) <= cell_az + 1e-6
        assert abs(el - math.degrees(true_doa[0])) <= cell_el + 1e-6

    # at (3, 13) of 16x32 the argmax angles do not survive a round trip
    # through unit vectors, so rows must come from the angles directly
    @pytest.mark.parametrize("grid_res,ij", [((8, 16), None), ((16, 32), (3, 13))], ids=["8x16", "16x32"])
    def test_matches_in_memory_pipeline_bitwise(self, tmp_path, grid_res, ij):
        path, array, grid, _, _ = _write_static_scene_wav(tmp_path, grid_res=grid_res, ij=ij)
        rows = track_file(path, array, grid=grid)
        # independent recomputation from the same WAV bytes
        signals = MicSignals.from_wav(path)
        framing = FramingConfig()
        vad = EnergyVad().mask(signals.channels.astype(float), framing)
        tensor = compute_input_tensor(
            signals.channels.astype(float), delay_table(array, grid), framing, vad_mask=vad
        )
        for i, row in enumerate(rows):
            theta, phi = tensor.argmax_doa[i]
            assert row["elevation_deg"] == math.degrees(theta)
            assert row["azimuth_deg"] == math.degrees(phi)
            assert row["vad"] == bool(vad[i])

    def test_vad_all_marks_every_frame_voiced(self, tmp_path):
        path, array, grid, _, _ = _write_static_scene_wav(tmp_path, grid_res=(8, 16))
        energy = track_file(path, array, grid=grid)
        every = track_file(path, array, grid=grid, vad_mode="all")
        assert not all(r["vad"] for r in energy)  # the energy VAD finds silent frames here
        assert len(every) == len(energy) and all(r["vad"] for r in every)
        for e, a in zip(energy, every):
            assert (a["azimuth_deg"], a["elevation_deg"]) == (e["azimuth_deg"], e["elevation_deg"])

    def test_unknown_vad_mode_rejected(self, tmp_path):
        path, array, grid, _, _ = _write_static_scene_wav(tmp_path, grid_res=(4, 8), duration=1.0)
        with pytest.raises(ValueError, match="unknown vad mode 'none'"):
            track_file(path, array, grid=grid, vad_mode="none")

    def test_unknown_vad_mode_rejected_before_reading(self, tmp_path):
        with pytest.raises(ValueError, match="unknown vad mode 'none'"):
            track_file(tmp_path / "missing.wav", default_array(), checkpoint_path=tmp_path / "missing.sstc",
                       vad_mode="none")

    def test_all_silent_wav(self, tmp_path):
        sig = MicSignals(channels=np.zeros((12, 32000), dtype=np.float32), fs=16000)
        path = tmp_path / "silent.wav"
        sig.to_wav(path)
        rows = track_file(path, default_array(), grid=SphericalGrid(4, 8))
        assert all(not r["vad"] for r in rows)
        # zero maps argmax at the pole: +z default direction
        assert all(r["elevation_deg"] == 0.0 for r in rows)

    @pytest.mark.parametrize("kind", [None, *MODEL_KINDS], ids=lambda kind: kind or "srp")
    def test_truncation_leaves_early_rows_unchanged(self, tmp_path, kind):
        path, array, grid, _, _ = _write_static_scene_wav(tmp_path, grid_res=(8, 16), duration=4.0)
        ckpt_path = None if kind is None else _save_untrained(tmp_path, kind, array, grid)
        rows_full = track_file(path, array, checkpoint_path=ckpt_path, grid=grid)
        sig = MicSignals.from_wav(path)
        cut = sig.channels[:, : sig.n_samples // 2]
        path2 = tmp_path / "cut.wav"
        MicSignals(channels=cut, fs=sig.fs).to_wav(path2)
        rows_cut = track_file(path2, array, checkpoint_path=ckpt_path, grid=grid)
        assert 0 < len(rows_cut) < len(rows_full)
        assert rows_full[: len(rows_cut)] == rows_cut

    def test_channel_mismatch_rejected(self, tmp_path):
        sig = MicSignals(channels=np.zeros((3, 32000), dtype=np.float32), fs=16000)
        path = tmp_path / "three.wav"
        sig.to_wav(path)
        with pytest.raises(FormatError):
            track_file(path, default_array())

    def test_uint8_digital_silence_is_silent(self, tmp_path):
        path = tmp_path / "silent_u8.wav"
        wavfile.write(path, 16000, np.full((32000, 12), 128, dtype=np.uint8))
        rows = track_file(path, default_array(), grid=SphericalGrid(4, 8))
        assert all(not r["vad"] for r in rows)
        assert all(r["elevation_deg"] == 0.0 for r in rows)

    def test_non_wav_file_rejected(self, tmp_path):
        path = tmp_path / "notes.wav"
        path.write_text("not audio")
        with pytest.raises(FormatError):
            track_file(path, default_array())

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_sample_rejected(self, tmp_path, value):
        channels = np.random.default_rng(46).normal(scale=0.1, size=(12, 48000)).astype(np.float32)
        channels[5, 20000] = value
        path = tmp_path / "bad.wav"
        MicSignals(channels=channels, fs=16000).to_wav(path)
        with pytest.raises(FormatError, match="channel 5, sample 20000"):
            track_file(path, default_array())

    def test_sample_rate_must_match_the_framing(self, tmp_path):
        path = tmp_path / "48k.wav"
        noise = np.random.default_rng(48).normal(scale=0.1, size=(12, 48000)).astype(np.float32)
        MicSignals(channels=noise, fs=48000).to_wav(path)
        with pytest.raises(FormatError, match="48000 Hz, the framing expects 16000 Hz"):
            track_file(path, default_array(), grid=SphericalGrid(4, 8), framing=FramingConfig())
        # without a framing, the default framing runs at the file's rate
        rows = track_file(path, default_array(), grid=SphericalGrid(4, 8))
        assert len(rows) == FramingConfig(fs=48000).n_frames(48000)
        assert rows[0]["time_s"] == pytest.approx(2048 / 48000)

    def test_with_untrained_checkpoint(self, tmp_path):
        path, array, grid, _, _ = _write_static_scene_wav(tmp_path, grid_res=(4, 8))
        ckpt_path = tmp_path / "m.sstc"
        save_checkpoint(ckpt_path, make_checkpoint(build_cross3d(4, 8, seed=1)))
        rows = track_file(path, array, checkpoint_path=ckpt_path)
        assert len(rows) == FramingConfig().n_frames(MicSignals.from_wav(path).n_samples)
        assert all(-180.0 <= r["azimuth_deg"] <= 180.0 for r in rows)

    def test_cross3d_checkpoint_on_another_grid_rejected(self, tmp_path):
        path, array, _, _, _ = _write_static_scene_wav(tmp_path, grid_res=(4, 8), duration=1.0)
        ckpt_path = tmp_path / "m.sstc"
        save_checkpoint(ckpt_path, make_checkpoint(build_cross3d(4, 8, seed=1)))
        message = r"m\.sstc is a 4x8 cross3d checkpoint, not on the requested grids 8x16"
        with pytest.raises(FormatError, match=message):
            track_file(path, array, checkpoint_path=ckpt_path, grid=SphericalGrid(8, 16))
        same = track_file(path, array, checkpoint_path=ckpt_path, grid=SphericalGrid(4, 8))
        assert same == track_file(path, array, checkpoint_path=ckpt_path)

    @pytest.mark.parametrize("vad_mode", ["energy", "all"])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_model_rows_match_per_frame_oracle(self, tmp_path, kind, vad_mode):
        path, array, grid, _, _ = _write_static_scene_wav(tmp_path, grid_res=(4, 8))
        ckpt_path = _save_untrained(tmp_path, kind, array, grid)
        rows = track_file(path, array, checkpoint_path=ckpt_path, grid=grid, vad_mode=vad_mode)
        model = model_from_checkpoint(load_checkpoint(ckpt_path))
        channels = MicSignals.from_wav(path).channels.astype(float)
        framing = FramingConfig()
        vad = EnergyVad().mask(channels, framing)
        if vad_mode == "all":
            vad = np.ones_like(vad)
        tensor = compute_input_tensor(channels, delay_table(array, grid), framing, vad_mask=vad)
        features = {
            "cross3d": lambda: model.features_from(tensor),
            "baseline-max": lambda: baseline_max_features(tensor),
            "baseline-gcc": lambda: baseline_gcc_features(channels, array, framing),
        }[kind]()
        features[:, ~vad] = 0.0
        units, degenerate = forward_track(model, features)
        assert len(rows) == len(units)
        for i, row in enumerate(rows):
            theta, phi = unit_to_doa(units[i])
            assert abs(row["elevation_deg"] - math.degrees(theta)) <= 1e-9
            assert abs(row["azimuth_deg"] - math.degrees(phi)) <= 1e-9
            assert type(row["azimuth_deg"]) is float and type(row["time_s"]) is float
            assert row["vad"] is bool(vad[i]) and row["degenerate"] is bool(degenerate[i])

    def test_track_csv_round_trip(self, tmp_path):
        rows = [
            {"time_s": 0.128, "azimuth_deg": -17.5, "elevation_deg": 88.25, "vad": True, "degenerate": False}
        ]
        path = tmp_path / "track.csv"
        write_track_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "time_s,azimuth_deg,elevation_deg,vad,degenerate"
        vals = lines[1].split(",")
        assert float(vals[1]) == pytest.approx(-17.5)
        assert vals[3] == "1" and vals[4] == "0"
