"""Tests for srptrack.scenegen."""

import itertools
import math
import signal

import numpy as np
import pytest

from srptrack import scenegen
from srptrack.errors import FormatError, ImageGridTooLarge
from srptrack.geometry import SphericalGrid, angular_error, default_array, delay_table
from srptrack.roomsim import MicSignals, Room, add_noise, render_moving_source
from srptrack.scenegen import (
    SceneConfig,
    clean_dry_signal,
    generate_trajectory,
    sample_rng,
    sample_scene,
    synthesize_trajectory_sample,
    synthetic_source,
    wav_corpus_provider,
)
from srptrack.srpfeat import EnergyVad, FramingConfig, compute_input_tensor, frame_signal

from oracles import (
    activity_mask_gather,
    add_noise_gather,
    clean_dry_signal_gather,
    clean_dry_signal_per_frame,
    frame_signal_per_frame,
    grid_argmax,
    gt_units_from_angles,
    input_tensor_per_frame,
    lowpass_taps_firwin,
    power_maps_windowed,
    synthetic_source_lfilter,
    unit_to_doa,
)


class TestSceneConfigChecks:
    @pytest.mark.parametrize("kwargs,match", [
        ({"duration": True}, "duration must be finite and positive, got True"),
        ({"rir_t_max": True}, "rir_t_max must be finite and positive, got True"),
        ({"snr_range": (True, 30)}, r"snr_range must be a finite, nonempty range, got \(True, 30\)"),
        ({"t60_range": (0.2, True)}, r"t60_range must be a finite, nonempty range, got \(0\.2, True\)"),
        ({"room_min": [True, 3, 2.5]}, r"room_min must hold finite numbers, got \[True, 3, 2\.5\]"),
        ({"room_max": [10.0, "8", 6.0]}, "room_max must hold finite numbers"),
    ], ids=["duration", "rir-t-max", "snr-range", "t60-range", "room-min", "room-max-string"])
    def test_bools_are_not_numbers(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            SceneConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [{"t60_range": (0.2, 30.0)}, {"t60_range": (0.0, 0.0), "rir_t_max": 30.0}],
                             ids=["t60", "rir-t-max"])
    def test_unrenderable_rir_rejected(self, kwargs):
        """The smallest room at the longest RIR is refused before any scene
        renders, with the error a render of it would raise."""
        with pytest.raises(ImageGridTooLarge, match=r"t_max 30.0 s needs \d+ grid images per parity block"):
            SceneConfig(**kwargs)

    def test_default_ranges_accepted(self):
        SceneConfig()  # 3x3x2.5 m at T60 1.3 s: 4.1 M images per parity block
        SceneConfig(t60_range=(0.0, 0.0))  # anechoic: no T60 bounds the RIR

    def test_numpy_numbers_accepted(self):
        cfg = SceneConfig(room_min=np.array([3, 3, 2], dtype=np.int64), snr_range=(np.float32(5.0), 30),
                          t60_range=(np.float64(0.2), 1.0), duration=np.int64(2), rir_t_max=np.float32(0.1))
        np.testing.assert_array_equal(cfg.room_min, [3.0, 3.0, 2.0])


class TestSampleScene:
    def test_degenerate_ranges_deterministic(self):
        cfg = SceneConfig(
            room_min=[4.0, 4.0, 3.0],
            room_max=[4.0, 4.0, 3.0],
            snr_range=(10.0, 10.0),
            t60_range=(0.4, 0.4),
        )
        room, origin, snr = sample_scene(cfg, np.random.default_rng(0))
        np.testing.assert_array_equal(room.dims, [4.0, 4.0, 3.0])
        assert snr == 10.0 and room.t60 == 0.4

    def test_monte_carlo_ranges(self):
        cfg = SceneConfig()
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            room, origin, snr = sample_scene(cfg, rng)
            assert np.all(room.dims >= cfg.room_min) and np.all(room.dims <= cfg.room_max)
            assert cfg.snr_range[0] <= snr <= cfg.snr_range[1]
            assert cfg.t60_range[0] <= room.t60 <= cfg.t60_range[1]
            assert np.all(origin >= 0.1 * room.dims)
            assert origin[0] <= 0.9 * room.dims[0] and origin[1] <= 0.9 * room.dims[1]
            assert origin[2] <= 0.5 * room.dims[2]


class RecordingRng:
    """A generator that keeps every ``uniform`` draw, in order: for
    ``generate_trajectory`` the start point, the end point, the sine
    frequencies and the amplitudes."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.draws = []

    def uniform(self, *args, **kwargs):
        self.draws.append(self._rng.uniform(*args, **kwargs))
        return self.draws[-1]


class TestGenerateTrajectory:
    def _room(self):
        return Room([5.0, 4.0, 3.0], 0.5)

    def test_zero_amplitude_is_straight_line(self):
        room = Room([4.0, 4.0, 4.0], 0.5)

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

        points = generate_trajectory(room, 3, FixedRng())
        np.testing.assert_allclose(points, [[1, 1, 1], [2, 1, 1], [3, 1, 1]])

    def test_first_point_is_p0(self):
        for seed in range(100):
            rng = RecordingRng(seed)
            points = generate_trajectory(self._room(), 16, rng)
            assert points.shape == (16, 3)
            np.testing.assert_array_equal(points[0], rng.draws[0])

    def test_points_strictly_inside_10k(self):
        rng = np.random.default_rng(3)
        room = self._room()
        for _ in range(10_000):
            points = generate_trajectory(room, 12, rng)
            assert np.all(points > 0.0) and np.all(points < room.dims)

    def test_oscillation_bound(self):
        sizes = np.random.default_rng(4).integers(2, 40, size=500)
        for seed, n in enumerate(sizes):
            rng = RecordingRng(seed)
            generate_trajectory(self._room(), int(n), rng)
            omega = rng.draws[2]
            assert omega.shape == (3,) and np.all(omega * (n - 1) <= 4.0 * np.pi + 1e-12)


class TestSyntheticSource:
    def test_mask_matches_nonzero_rms(self):
        framing = FramingConfig()
        sig, mask = synthetic_source(10.0, framing, np.random.default_rng(5))
        t = framing.n_frames(len(sig))
        idx = np.arange(framing.K)[None, :] + framing.hop * np.arange(t)[:, None]
        rms = np.sqrt(np.mean(sig[idx] ** 2, axis=1))
        np.testing.assert_array_equal(mask, rms > 0)

    def test_has_on_and_off_segments(self):
        sig, mask = synthetic_source(5.0, FramingConfig(), np.random.default_rng(6))
        assert mask.any() and not mask.all()

    def test_band_limited_above_7khz(self):
        sig, _ = synthetic_source(10.0, FramingConfig(), np.random.default_rng(7))
        spectrum = np.abs(np.fft.rfft(sig)) ** 2
        freqs = np.fft.rfftfreq(len(sig), 1 / 16000)
        passband = spectrum[(freqs > 200) & (freqs < 3000)].mean()
        stopband = spectrum[freqs > 7000].mean()
        assert 10 * math.log10(passband / stopband) > 60.0

    def test_clean_dry_signal_matches_per_frame_loop(self):
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
            sig, mask = synthetic_source(20.0, framing, np.random.default_rng(100 + seed))
            est = EnergyVad().mask(sig[None, :], framing)
            agreements.append(np.mean(est == mask))
        assert np.mean(agreements) >= 0.95


class TestSourceFilterMatchesFirwinLfilter:
    """The numpy lowpass against the scipy.signal design and filter it replaced."""

    @pytest.mark.parametrize("fs", [8000, 16000, 44100, 48000])
    def test_taps(self, fs):
        taps = scenegen._lowpass_taps(fs)
        assert taps.shape == (63,) and not taps.flags.writeable
        assert np.max(np.abs(taps - lowpass_taps_firwin(fs))) <= 1e-15

    def test_cutoff_above_nyquist_rejected(self):
        # firwin rejects this too
        with pytest.raises(ValueError, match="above 6800 Hz"):
            scenegen._lowpass_taps(6800)

    @pytest.mark.parametrize("duration,framing", [(20.0, FramingConfig()), (3.3, FramingConfig(K=1024, hop=512, fs=8000))])
    def test_synthetic_source(self, duration, framing):
        for seed in range(3):
            sig, mask = synthetic_source(duration, framing, np.random.default_rng(seed))
            ref, ref_mask = synthetic_source_lfilter(duration, framing, np.random.default_rng(seed))
            assert sig.shape == ref.shape
            assert np.max(np.abs(sig - ref)) <= 1e-15 * np.max(np.abs(ref))
            np.testing.assert_array_equal(mask, ref_mask)


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
        assert len(scene.trajectory) == 103
        assert scene.gt_doa.shape == (103, 2)
        assert scene.vad_mask.shape == (103,)
        assert sig.n_samples == 320000

    def test_shapes_and_determinism(self):
        cfg = self._toy_cfg()
        sig1, scene1 = synthesize_trajectory_sample(cfg, synthetic_source, sample_rng(9, 0))
        sig2, scene2 = synthesize_trajectory_sample(cfg, synthetic_source, sample_rng(9, 0))
        framing = FramingConfig()
        t = framing.n_frames(int(cfg.duration * framing.fs))
        assert len(scene1.trajectory) == t
        assert scene1.gt_doa.shape == (t, 2)
        assert sig1.channels.shape == (12, int(cfg.duration * framing.fs))
        np.testing.assert_array_equal(sig1.channels, sig2.channels)
        np.testing.assert_array_equal(scene1.trajectory, scene2.trajectory)
        assert scene1.snr == scene2.snr

    @pytest.mark.parametrize(
        "framing",
        [FramingConfig(K=2048, hop=1024), FramingConfig(K=2048, hop=1536, fs=8000)],
        ids=["K2048-hop1024", "8kHz"],
    )
    def test_follows_the_framing(self, framing):
        cfg = self._toy_cfg(duration=2.0)
        sig, scene = synthesize_trajectory_sample(cfg, synthetic_source, sample_rng(13, 0), framing=framing)
        n = int(cfg.duration * framing.fs)
        t = framing.n_frames(n)
        assert sig.fs == framing.fs and sig.n_samples == n
        assert scene.vad_mask.shape == scene.vad_energy_mask.shape == (t,)
        assert len(scene.trajectory) == t

    def test_different_seeds_differ(self):
        cfg = self._toy_cfg()
        sig1, _ = synthesize_trajectory_sample(cfg, synthetic_source, sample_rng(9, 0))
        sig2, _ = synthesize_trajectory_sample(cfg, synthetic_source, sample_rng(9, 1))
        assert not np.array_equal(sig1.channels, sig2.channels)

    def test_gt_doa_matches_geometry(self):
        cfg = self._toy_cfg()
        _, scene = synthesize_trajectory_sample(cfg, synthetic_source, sample_rng(10, 0))
        rel = scene.trajectory - scene.array_origin
        units = scene.gt_units()
        for i in range(len(scene.trajectory)):
            assert angular_error(rel[i], units[i]) < 1e-9

    def test_gt_doa_matches_per_point_oracle(self):
        _, scene = synthesize_trajectory_sample(self._toy_cfg(), synthetic_source, sample_rng(10, 2))
        rel = scene.trajectory - scene.array_origin
        expected = np.array([unit_to_doa(v) for v in rel])
        np.testing.assert_allclose(scene.gt_doa, expected, rtol=0, atol=1e-12)

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
        from srptrack.roomsim import render_moving_source

        framing = FramingConfig()
        array = default_array()
        room = Room([6.0, 5.0, 3.0], 0.0)
        origin = np.array([3.0, 2.5, 1.2])
        doa_ij = (3, 5)
        u = grid.unit_vectors()[doa_ij]
        src = origin + 1.5 * u
        assert np.all((src > 0) & (src < room.dims))
        dry, mask = synthetic_source(cfg.duration, framing, sample_rng(12, 1))
        dry = clean_dry_signal(dry, mask, framing)
        t = framing.n_frames(len(dry))
        points = np.tile(src, (t, 1))
        signals = render_moving_source(dry, points, origin + array.positions, room, framing.fs, hop=framing.hop)
        table = delay_table(array, grid)
        maps = power_maps_windowed(frame_signal(signals.channels.astype(float), framing), table, framing.fs)
        for i in range(t):
            if mask[i]:
                _, idx = grid_argmax(maps[i], grid)
                assert idx == doa_ij


class TestDoaConventionEndToEnd:
    """Render, features and argmax agree on which way a source lies. The true
    direction comes from the source position alone, and the estimate's unit
    vector from its angles by the textbook formula, so no package convention
    is shared with the check."""

    @pytest.mark.parametrize("signs", list(itertools.product((1, -1), repeat=3)), ids=str)
    def test_static_anechoic_source_in_each_octant(self, signs):
        framing = FramingConfig()
        array = default_array()
        grid = SphericalGrid(16, 32)
        centre = np.array([3.0, 2.5, 1.5])
        # off-grid directions, a different one in each octant
        i = int("".join("0" if s > 0 else "1" for s in signs), 2)
        u = np.array(signs) * [0.5 + 0.05 * i, 0.4 + 0.03 * i, 0.6 - 0.04 * i]
        u /= np.linalg.norm(u)
        dry = np.random.default_rng(48).normal(size=framing.K + 3 * framing.hop)
        sig = render_moving_source(dry, (centre + 1.5 * u)[None], centre + array.positions,
                                   Room([6.0, 5.0, 3.0], 0.0), framing.fs)
        voiced = np.ones(framing.n_frames(len(dry)), dtype=bool)
        theta, phi = compute_input_tensor(sig.channels, delay_table(array, grid), framing, voiced).argmax_doa.T
        est = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=1)
        err_deg = np.degrees(np.arccos(np.clip(est @ u, -1.0, 1.0)))
        # within one cell: the grid's steps are 12 degrees in elevation and
        # 11.25 in azimuth; measured, at most 7.1 degrees
        assert err_deg.max() < 360.0 / grid.n_phi


class TestWavCorpusProvider:
    def test_reads_and_trims(self, tmp_path):
        rng = np.random.default_rng(13)
        for k in range(2):
            sig = MicSignals(channels=rng.normal(size=(1, 16000)).astype(np.float32) * 0.1, fs=16000)
            sig.to_wav(tmp_path / f"s{k}.wav")
        provider = wav_corpus_provider(tmp_path)
        dry, mask = provider(1.5, FramingConfig(), np.random.default_rng(0))
        assert len(dry) == 24000
        assert mask.shape == (FramingConfig().n_frames(24000),)

    def test_mask_uses_the_framing(self, tmp_path):
        framing = FramingConfig(K=1024, hop=512, fs=8000)
        noise = np.random.default_rng(14).normal(size=(1, 8000)).astype(np.float32) * 0.1
        MicSignals(channels=noise, fs=8000).to_wav(tmp_path / "s.wav")
        dry, mask = wav_corpus_provider(tmp_path)(1.5, framing, np.random.default_rng(0))
        assert len(dry) == 12000
        assert mask.shape == (framing.n_frames(12000),)
        with pytest.raises(FormatError, match="sampled at 8000 Hz, the framing expects 16000"):
            wav_corpus_provider(tmp_path)(1.5, FramingConfig(), np.random.default_rng(0))

    def test_empty_wavs_rejected(self, tmp_path):
        MicSignals(channels=np.zeros((1, 0), dtype=np.float32), fs=16000).to_wav(tmp_path / "s.wav")

        def timeout(signum, frame):
            raise TimeoutError("the provider is still looping over empty files")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(5)
        try:
            with pytest.raises(FormatError, match="no samples"):
                wav_corpus_provider(tmp_path)(1.5, FramingConfig(), np.random.default_rng(0))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_non_finite_sample_rejected(self, tmp_path):
        noise = np.random.default_rng(15).normal(size=(1, 16000)).astype(np.float32) * 0.1
        noise[0, 1234] = np.nan
        MicSignals(channels=noise, fs=16000).to_wav(tmp_path / "s.wav")
        with pytest.raises(FormatError, match="non-finite value at channel 0, sample 1234"):
            wav_corpus_provider(tmp_path)(0.5, FramingConfig(), np.random.default_rng(0))

    def test_multichannel_file_rejected(self, tmp_path):
        noise = np.random.default_rng(16).normal(size=(2, 16000)).astype(np.float32) * 0.1
        MicSignals(channels=noise, fs=16000).to_wav(tmp_path / "s.wav")
        with pytest.raises(FormatError, match="2 channels, expected 1"):
            wav_corpus_provider(tmp_path)(0.5, FramingConfig(), np.random.default_rng(0))

    def test_missing_dir_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="no .wav files under"):
            wav_corpus_provider(tmp_path / "empty")


def _voiced_masks(t, rng):
    """A single voiced frame, every frame voiced, and a random mix."""
    single = np.zeros(t, dtype=bool)
    single[t // 2] = True
    return [single, np.ones(t, dtype=bool), rng.random(t) < 0.5]


class TestFrameViewsMatchIndexGathers:
    """Reading frames through ``FramingConfig.frames`` gives, bit for bit,
    what the (T, K) index gathers it replaced gave."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_add_noise(self, dtype):
        # the power is a float sum whose order follows the memory layout of
        # the voiced frames; random channel counts and lengths expose a
        # layout that differs from the gather's
        framing = FramingConfig()
        rng = np.random.default_rng(4)
        for _ in range(8):
            n_ch, n = int(rng.integers(1, 13)), int(rng.integers(4096, 16000 * 10))
            sig = MicSignals(channels=(rng.normal(size=(n_ch, n)) * 0.3).astype(dtype), fs=16000)
            for mask in _voiced_masks(framing.n_frames(n), rng):
                out = add_noise(sig, 12.0, mask, np.random.default_rng(1), framing)
                ref = add_noise_gather(sig, 12.0, mask, np.random.default_rng(1), framing)
                assert out.channels.dtype == dtype
                np.testing.assert_array_equal(out.channels, ref.channels)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_clean_dry_signal(self, dtype):
        framing = FramingConfig()
        rng = np.random.default_rng(2)
        sig = rng.normal(size=16000 * 3 + 100).astype(dtype)
        for mask in _voiced_masks(framing.n_frames(len(sig)), rng):
            out = clean_dry_signal(sig, mask, framing)
            assert out.dtype == dtype
            np.testing.assert_array_equal(out, clean_dry_signal_gather(sig, mask, framing))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_frame_signal(self, dtype):
        framing = FramingConfig()
        x = np.random.default_rng(3).normal(size=(12, 16000 * 2)).astype(dtype)
        np.testing.assert_array_equal(frame_signal(x, framing), frame_signal_per_frame(x, framing))

    @pytest.mark.parametrize("duration", [0.256, 5.0])  # one frame, then 25
    def test_synthetic_source_mask(self, duration):
        framing = FramingConfig()
        for seed in range(3):
            sig, mask = synthetic_source(duration, framing, np.random.default_rng(seed))
            np.testing.assert_array_equal(mask, activity_mask_gather(sig, framing))

    @pytest.mark.parametrize("seed", [21, 22])
    def test_scene_and_features(self, seed, monkeypatch):
        cfg = SceneConfig(room_min=[4.0, 3.5, 2.8], room_max=[6.0, 5.0, 3.5], snr_range=(15.0, 30.0),
                          t60_range=(0.2, 0.4), duration=3.0, rir_t_max=0.15)
        table = delay_table(default_array(), SphericalGrid(8, 16))

        def run(source):
            sig, scene = synthesize_trajectory_sample(cfg, source, sample_rng(seed, 0))
            return sig, scene, compute_input_tensor(sig.channels, table, FramingConfig())

        def source_gather(duration, framing, rng):
            sig, _ = synthetic_source(duration, framing, rng)
            return sig, activity_mask_gather(sig, framing)

        sig, scene, tensor = run(synthetic_source)
        monkeypatch.setattr(scenegen, "clean_dry_signal", clean_dry_signal_gather)
        monkeypatch.setattr(scenegen, "add_noise", add_noise_gather)
        ref_sig, ref_scene, _ = run(source_gather)
        np.testing.assert_array_equal(sig.channels, ref_sig.channels)
        np.testing.assert_array_equal(scene.vad_mask, ref_scene.vad_mask)
        np.testing.assert_array_equal(scene.vad_energy_mask, ref_scene.vad_energy_mask)
        # the streamed features against the per-frame oracle, on the gathered scene
        maps, vad, _ = input_tensor_per_frame(ref_sig.channels, table, FramingConfig())
        np.testing.assert_allclose(tensor.maps, maps, atol=1e-12, rtol=0)
        np.testing.assert_array_equal(tensor.vad, vad)
