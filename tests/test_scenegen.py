"""Tests for srptrack.scenegen."""

import math

import numpy as np
import pytest

from srptrack.geometry import SphericalGrid, angular_error, delay_table, grid_argmax
from srptrack.roomsim import Room
from srptrack.scenegen import (
    SceneConfig,
    generate_trajectory,
    sample_rng,
    sample_scene,
    synthesize_trajectory_sample,
    synthetic_source,
    wav_corpus_provider,
)
from srptrack.srpfeat import EnergyVad, FramingConfig, compute_power_maps

from oracles import clean_dry_signal_per_frame, gt_units_from_angles


class TestSampleScene:
    def test_degenerate_ranges_deterministic(self):
        cfg = SceneConfig(
            room_min=[4.0, 4.0, 3.0],
            room_max=[4.0, 4.0, 3.0],
            snr_range=(10.0, 10.0),
            t60_range=(0.4, 0.4),
        )
        room, origin, snr, t60 = sample_scene(cfg, np.random.default_rng(0))
        np.testing.assert_array_equal(room.dims, [4.0, 4.0, 3.0])
        assert snr == 10.0 and t60 == 0.4

    def test_monte_carlo_ranges(self):
        cfg = SceneConfig()
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            room, origin, snr, t60 = sample_scene(cfg, rng)
            assert np.all(room.dims >= cfg.room_min) and np.all(room.dims <= cfg.room_max)
            assert cfg.snr_range[0] <= snr <= cfg.snr_range[1]
            assert cfg.t60_range[0] <= t60 <= cfg.t60_range[1]
            assert np.all(origin >= 0.1 * room.dims)
            assert origin[0] <= 0.9 * room.dims[0] and origin[1] <= 0.9 * room.dims[1]
            assert origin[2] <= 0.5 * room.dims[2]


class TestGenerateTrajectory:
    def _room(self):
        return Room.from_t60([5.0, 4.0, 3.0], 0.5)

    def test_zero_amplitude_is_straight_line(self):
        room = Room.from_t60([4.0, 4.0, 4.0], 0.5)

        class FixedRng:
            def __init__(self):
                self._uniform_calls = 0

            def uniform(self, lo, hi, size=None):
                self._uniform_calls += 1
                if self._uniform_calls == 1:
                    return np.array([1.0, 1.0, 1.0])  # p0
                if self._uniform_calls == 2:
                    return np.array([3.0, 1.0, 1.0])  # p_end
                if self._uniform_calls == 3:
                    return np.zeros(3)  # omega
                return np.zeros(3)  # amplitude

        traj = generate_trajectory(room, 3, FixedRng())
        np.testing.assert_allclose(traj.points, [[1, 1, 1], [2, 1, 1], [3, 1, 1]])

    def test_first_point_is_p0(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            traj = generate_trajectory(self._room(), 16, rng)
            np.testing.assert_array_equal(traj.points[0], traj.p0)

    def test_points_strictly_inside_10k(self):
        rng = np.random.default_rng(3)
        room = self._room()
        for _ in range(10_000):
            traj = generate_trajectory(room, 12, rng)
            assert np.all(traj.points > 0.0) and np.all(traj.points < room.dims)

    def test_oscillation_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            n = int(rng.integers(2, 40))
            traj = generate_trajectory(self._room(), n, rng)
            assert np.all(traj.omega * (n - 1) <= 4.0 * np.pi + 1e-12)


class TestSyntheticSource:
    def test_mask_matches_nonzero_rms(self):
        framing = FramingConfig()
        sig, mask = synthetic_source(10.0, 16000, np.random.default_rng(5), framing)
        t = framing.n_frames(len(sig))
        idx = np.arange(framing.K)[None, :] + framing.hop * np.arange(t)[:, None]
        rms = np.sqrt(np.mean(sig[idx] ** 2, axis=1))
        np.testing.assert_array_equal(mask, rms > 0)

    def test_has_on_and_off_segments(self):
        sig, mask = synthetic_source(5.0, 16000, np.random.default_rng(6))
        assert mask.any() and not mask.all()

    def test_band_limited_above_7khz(self):
        sig, _ = synthetic_source(10.0, 16000, np.random.default_rng(7))
        spectrum = np.abs(np.fft.rfft(sig)) ** 2
        freqs = np.fft.rfftfreq(len(sig), 1 / 16000)
        passband = spectrum[(freqs > 200) & (freqs < 3000)].mean()
        stopband = spectrum[freqs > 7000].mean()
        assert 10 * math.log10(passband / stopband) > 60.0

    def test_clean_dry_signal_matches_per_frame_loop(self):
        from srptrack.scenegen import clean_dry_signal

        framing = FramingConfig(K=64, hop=48, fs=1000)
        rng = np.random.default_rng(8)
        sig = rng.normal(size=64 + 48 * 9 + 20)  # a tail no frame covers
        for mask in (rng.random(10) < 0.5, np.zeros(10, dtype=bool), np.ones(10, dtype=bool)):
            np.testing.assert_array_equal(clean_dry_signal(sig, mask, framing),
                                          clean_dry_signal_per_frame(sig, mask, framing))
        with pytest.raises(ValueError):
            clean_dry_signal(sig, np.ones(11, dtype=bool), framing)

    def test_energy_vad_agrees_95_percent(self):
        framing = FramingConfig()
        agreements = []
        for seed in range(5):
            sig, mask = synthetic_source(20.0, 16000, np.random.default_rng(100 + seed), framing)
            est = EnergyVad().mask(sig[None, :], framing)
            agreements.append(np.mean(est == mask))
        assert np.mean(agreements) >= 0.95


class TestSynthesizeTrajectorySample:
    def _toy_cfg(self, **kw):
        defaults = dict(
            room_min=[4.0, 3.5, 2.8],
            room_max=[6.0, 5.0, 3.5],
            snr_range=(15.0, 30.0),
            t60_range=(0.2, 0.4),
            duration=3.0,
            rir_t_max=0.15,
        )
        defaults.update(kw)
        return SceneConfig(**defaults)

    def test_frame_count_20s(self):
        cfg = FramingConfig()
        assert cfg.n_frames(int(20.0 * 16000)) == 103

    def test_full_length_sample_has_103_ground_truth_doas(self):
        cfg = self._toy_cfg(duration=20.0, rir_t_max=0.08, t60_range=(0.2, 0.25))
        sig, scene = synthesize_trajectory_sample(cfg, synthetic_source, sample_rng(20, 0))
        assert scene.trajectory.n_points == 103
        assert scene.gt_doa.shape == (103, 2)
        assert scene.vad_mask.shape == (103,)
        assert sig.n_samples == 320000

    def test_shapes_and_determinism(self):
        cfg = self._toy_cfg()
        sig1, scene1 = synthesize_trajectory_sample(cfg, synthetic_source, sample_rng(9, 0))
        sig2, scene2 = synthesize_trajectory_sample(cfg, synthetic_source, sample_rng(9, 0))
        framing = FramingConfig()
        t = framing.n_frames(int(cfg.duration * cfg.fs))
        assert scene1.trajectory.n_points == t
        assert scene1.gt_doa.shape == (t, 2)
        assert sig1.channels.shape == (12, int(cfg.duration * cfg.fs))
        np.testing.assert_array_equal(sig1.channels, sig2.channels)
        np.testing.assert_array_equal(scene1.trajectory.points, scene2.trajectory.points)
        assert scene1.snr == scene2.snr

    def test_different_seeds_differ(self):
        cfg = self._toy_cfg()
        sig1, _ = synthesize_trajectory_sample(cfg, synthetic_source, sample_rng(9, 0))
        sig2, _ = synthesize_trajectory_sample(cfg, synthetic_source, sample_rng(9, 1))
        assert not np.array_equal(sig1.channels, sig2.channels)

    def test_gt_doa_matches_geometry(self):
        cfg = self._toy_cfg()
        _, scene = synthesize_trajectory_sample(cfg, synthetic_source, sample_rng(10, 0))
        rel = scene.trajectory.points - scene.array_origin
        units = scene.gt_units()
        for i in range(scene.trajectory.n_points):
            assert angular_error(rel[i], units[i]) < 1e-9

    def test_gt_units_match_broadcast_formula_bitwise(self):
        _, scene = synthesize_trajectory_sample(self._toy_cfg(), synthetic_source, sample_rng(10, 1))
        np.testing.assert_array_equal(scene.gt_units(), gt_units_from_angles(scene.gt_doa))

    def test_gt_doa_continuity(self):
        cfg = self._toy_cfg(duration=5.0)
        _, scene = synthesize_trajectory_sample(cfg, synthetic_source, sample_rng(11, 0))
        units = scene.gt_units()
        steps = [angular_error(units[i], units[i + 1]) for i in range(len(units) - 1)]
        assert max(steps) < math.pi / 4

    def test_static_anechoic_source_argmax(self):
        # anechoic, high SNR, static source at a grid direction: the SRP
        # argmax must sit on that grid point in every voiced frame
        cfg = self._toy_cfg(t60_range=(0.0, 0.0), snr_range=(30.0, 30.0), rir_t_max=None)
        grid = SphericalGrid(8, 16)
        rng = sample_rng(12, 0)
        sig, scene = synthesize_trajectory_sample(cfg, synthetic_source, rng)

        # rebuild a static scene at a grid direction by re-rendering manually
        from srptrack.geometry import default_array
        from srptrack.roomsim import render_moving_source
        from srptrack.scenegen import clean_dry_signal

        framing = FramingConfig()
        array = default_array()
        room = Room.from_t60([6.0, 5.0, 3.0], 0.0)
        origin = np.array([3.0, 2.5, 1.2])
        doa_ij = (3, 5)
        u = grid.unit_vectors()[doa_ij]
        src = origin + 1.5 * u
        assert room.contains(src)
        dry, mask = synthetic_source(cfg.duration, cfg.fs, sample_rng(12, 1), framing)
        dry = clean_dry_signal(dry, mask, framing)
        t = framing.n_frames(len(dry))
        points = np.tile(src, (t, 1))
        signals = render_moving_source(dry, points, origin + array.positions, room, cfg.fs, hop=framing.hop)
        table = delay_table(array, grid)
        maps = compute_power_maps(signals.channels.astype(float), table, framing)
        for i in range(t):
            if mask[i]:
                _, idx = grid_argmax(maps[i], grid)
                assert idx == doa_ij


class TestWavCorpusProvider:
    def test_reads_and_trims(self, tmp_path):
        from srptrack.roomsim import MicSignals

        rng = np.random.default_rng(13)
        for k in range(2):
            sig = MicSignals(channels=rng.normal(size=(1, 16000)).astype(np.float32) * 0.1, fs=16000)
            sig.to_wav(tmp_path / f"s{k}.wav")
        provider = wav_corpus_provider(tmp_path)
        dry, mask = provider(1.5, 16000, np.random.default_rng(0))
        assert len(dry) == 24000
        assert mask.shape == (FramingConfig().n_frames(24000),)

    def test_missing_dir_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            wav_corpus_provider(tmp_path / "empty")
