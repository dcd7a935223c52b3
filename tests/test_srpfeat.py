"""Tests for srptrack.srpfeat."""

import itertools
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from srptrack.errors import FormatError, LagRangeTooSmall, TooShort
from srptrack.geometry import DelayTable, MicArray, SphericalGrid, delay_table
from srptrack.srpfeat import (
    EnergyVad,
    FramingConfig,
    assemble_input,
    compute_input_tensor,
    default_lag_range,
    frame_signal,
    gcc_set,
    load_features,
    normalize_map,
    save_features,
    srp_map,
)
from srptrack.srpfeat import _lag_basis

from oracles import (
    energy_vad_per_frame,
    gcc_features_windowed,
    gcc_phat,
    gcc_set_per_pair,
    grid_argmax,
    input_tensor_per_frame,
    normalize_map_single,
    plane_wave_frames,
    power_maps_windowed,
    srp_direct_pairwise,
    srp_direct_two_mic,
    srp_map_per_pair,
)


class TestFraming:
    def test_20s_gives_103_frames(self):
        cfg = FramingConfig()
        assert cfg.n_frames(320000) == 103

    def test_hop_is_192ms(self):
        assert FramingConfig().hop_seconds == pytest.approx(0.192)

    def test_exactly_one_window(self):
        cfg = FramingConfig()
        assert cfg.n_frames(cfg.K) == 1

    def test_too_short(self):
        with pytest.raises(TooShort):
            FramingConfig().n_frames(4095)

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"K": 4096.5}, "K must be a positive integer"),
            ({"K": 4096.0}, "K must be a positive integer"),
            ({"K": True, "hop": 1}, "K must be a positive integer"),
            ({"hop": True}, "hop must be a positive integer"),
            ({"hop": 0}, "hop must be a positive integer"),
            ({"fs": 0}, "fs must be a positive integer"),
            ({"fs": -16000}, "fs must be a positive integer"),
            ({"fs": 16000.0}, "fs must be a positive integer"),
            ({"hop": 4097}, r"hop must be in \(0, K\]"),
        ],
    )
    def test_bad_values_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            FramingConfig(**kwargs)

    def test_frames_are_windowed(self):
        cfg = FramingConfig(K=64, hop=32, fs=1000)
        sig = np.ones((1, 200))
        frames = frame_signal(sig, cfg)
        assert frames.shape == (1, 5, 64)
        np.testing.assert_allclose(frames[0, 0], np.hanning(64))

    def test_frame_offsets(self):
        cfg = FramingConfig(K=8, hop=4, fs=100)
        sig = np.arange(24, dtype=float)[None, :]
        frames = frame_signal(sig, cfg)
        window = np.hanning(8)
        np.testing.assert_allclose(frames[0, 2], sig[0, 8:16] * window)

    def test_frames_start_every_hop(self):
        # a trailing sample that no whole frame covers is left out
        frames = FramingConfig(K=4, hop=2, fs=1).frames(np.arange(9))
        np.testing.assert_array_equal(frames, [[0, 1, 2, 3], [2, 3, 4, 5], [4, 5, 6, 7]])

    def test_frames_are_a_read_only_view(self):
        x = np.random.default_rng(0).normal(size=(3, 200))
        frames = FramingConfig(K=64, hop=32, fs=1000).frames(x)
        assert frames.shape == (3, 5, 64)
        assert np.shares_memory(frames, x)
        with pytest.raises(ValueError, match="read-only"):
            frames[0, 0, 0] = 1.0
        np.testing.assert_array_equal(frames[1, 2], x[1, 64:128])

    def test_frames_too_short(self):
        with pytest.raises(TooShort):
            FramingConfig(K=64, hop=32, fs=1000).frames(np.zeros((2, 63)))

    def test_frames_of_exactly_one_window(self):
        x = np.arange(64.0)
        np.testing.assert_array_equal(FramingConfig(K=64, hop=32, fs=1000).frames(x), x[None, :])

    def test_frames_with_hop_equal_to_k_tile_the_signal(self):
        x = np.arange(2 * 200.0).reshape(2, 200)
        frames = FramingConfig(K=64, hop=64, fs=1000).frames(x)
        np.testing.assert_array_equal(frames, x[:, :192].reshape(2, 3, 64))


def _pair_gcc(frame_n, frame_m, lag_range):
    """GCC of the single pair (0, 1) through gcc_set."""
    return gcc_set(np.stack([frame_n, frame_m]), lag_range).pair_lags[0]


class TestGccPhat:
    def test_self_correlation_peaks_at_zero(self):
        rng = np.random.default_rng(3)
        frame = rng.normal(size=512)
        r = _pair_gcc(frame, frame, 10)
        assert np.argmax(r) == 10  # lag 0

    def test_delayed_peak_at_plus_d(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=512)
        delayed = np.roll(base, 5)  # x_n(t) = x_m(t - 5)
        r = _pair_gcc(delayed, base, 10)
        assert np.argmax(r) - 10 == 5

    def test_linear_shift_peaks_at_plus_d_over_the_lag_range(self):
        # x_0(t) = x_1(t - d), both cut from one longer signal, not rolled,
        # and Hann-windowed as the feature pass frames them: for every d the
        # default array's lag range holds, the pair (0, 1) peaks at lag +d
        from srptrack.geometry import default_array

        k, lag_range = 4096, default_lag_range(default_array(), 16000)
        s = np.random.default_rng(10).normal(size=k + 2 * lag_range)
        window = np.hanning(k)
        x1 = s[lag_range : lag_range + k]
        for d in range(-lag_range, lag_range + 1):
            x0 = s[lag_range - d : lag_range - d + k]  # x0[t] = s[t + L - d] = x1[t - d]
            r = _pair_gcc(x0 * window, x1 * window, lag_range)
            assert np.argmax(r) - lag_range == d

    def test_zero_frames_give_zero(self):
        r = _pair_gcc(np.zeros(256), np.zeros(256), 8)
        np.testing.assert_array_equal(r, 0.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=512)
        b = rng.normal(size=512)
        r1 = _pair_gcc(a, b, 6)
        r2 = _pair_gcc(123.4 * a, 0.002 * b, 6)
        np.testing.assert_allclose(r1, r2, atol=1e-6)

    def test_unit_magnitude_cross_power(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=256)
        b = rng.normal(size=256)
        r = _pair_gcc(a, b, 128)
        # lags 0..127 then -128..-1 rebuild the circular sequence, whose
        # spectrum is the whitened cross power
        full = np.concatenate([r[128:256], r[:128]])
        np.testing.assert_allclose(np.abs(np.fft.rfft(full)), 1.0, atol=1e-9)
        assert np.max(np.abs(r)) <= 1.0 + 1e-9

    def test_symmetry_r_nm_vs_r_mn(self):
        rng = np.random.default_rng(7)
        frames = rng.normal(size=(4, 512))
        for n, m in itertools.permutations(range(4), 2):
            r_nm = _pair_gcc(frames[n], frames[m], 8)
            r_mn = _pair_gcc(frames[m], frames[n], 8)
            np.testing.assert_allclose(r_nm, r_mn[::-1], atol=1e-12)

    def test_gcc_set_matches_pairwise_calls(self):
        rng = np.random.default_rng(8)
        frames = rng.normal(size=(3, 256))
        gset = gcc_set(frames, 5)
        for p, (n, m) in enumerate(itertools.combinations(range(3), 2)):
            np.testing.assert_allclose(gset.pair_lags[p], gcc_phat(frames[n], frames[m], 5), atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(n_mics=st.integers(2, 12), data=st.data(), d=st.integers(-6, 6), seed=st.integers(0, 2**32 - 1))
    def test_pair_peak_sits_at_the_delay(self, n_mics, data, d, seed):
        # channel a is channel b delayed by d (circularly): pair (n, m) = (a, b)
        # peaks at lag +d, and at -d when a is the later sensor of the pair
        a, b = data.draw(st.lists(st.integers(0, n_mics - 1), min_size=2, max_size=2, unique=True))
        frames = np.random.default_rng(seed).normal(size=(n_mics, 256))
        frames[a] = np.roll(frames[b], d)
        n, m = min(a, b), max(a, b)
        lag = d if (n, m) == (a, b) else -d
        p = list(itertools.combinations(range(n_mics), 2)).index((n, m))
        gset = gcc_set(frames, 6)
        assert np.argmax(gset.pair_lags[p]) - 6 == lag

    def test_gcc_set_matches_per_pair_path_bitwise(self):
        # the lags come from a DFT basis, not an irfft, so they agree to
        # rounding; the autoterms are computed as in the oracle
        frames = np.random.default_rng(9).normal(size=(12, 4096))
        pair_lags, auto_zero, _ = gcc_set_per_pair(frames, 6)
        gset = gcc_set(frames, 6)
        np.testing.assert_allclose(gset.pair_lags, pair_lags, atol=1e-12, rtol=0)
        np.testing.assert_array_equal(gset.auto_zero, auto_zero)


def _edge_frame(case: str) -> np.ndarray:
    """One Hann-windowed 12-channel, 4096-sample frame of a case where the
    per-pair PHAT floor matters, or may."""
    k, fs = 4096, 16000
    rng = np.random.default_rng(51)
    noise = rng.normal(size=(12, k))
    tone = np.sin(2 * np.pi * 500 * np.arange(k) / fs + rng.uniform(0, 2 * np.pi, (12, 1)))
    frame = {
        "silent": np.zeros((12, k)),
        "dead-channel": noise * (np.arange(12) != 4)[:, None],
        "quiet-channel": noise * np.where(np.arange(12) == 7, 1e-9, 1.0)[:, None],
        "dc-only": np.ones((12, k)),
        "tone-500hz": tone,
        "tone-plus-noise": tone + 1e-7 * noise,
    }[case]
    return frame * np.hanning(k)


class TestGccOracleEdgeCases:
    """gcc_set against the per-pair irfft oracle where the per-pair floor
    decides the result: a per-channel floor alone misses the DC and tone
    frames by about 1."""

    @staticmethod
    def _assert_matches_oracle(frames, lag_range):
        pair_lags, auto_zero, _ = gcc_set_per_pair(frames, lag_range)
        gset = gcc_set(frames, lag_range)
        np.testing.assert_allclose(gset.pair_lags, pair_lags, atol=1e-12, rtol=0)
        np.testing.assert_array_equal(gset.auto_zero, auto_zero)

    @pytest.mark.parametrize("case", ["silent", "dead-channel", "quiet-channel", "dc-only",
                                      "tone-500hz", "tone-plus-noise"])
    def test_matches_per_pair_oracle(self, case):
        self._assert_matches_oracle(_edge_frame(case), 6)

    @pytest.mark.parametrize("n_mics", [2, 3, 4])
    def test_toy_arrays_match_per_pair_oracle(self, n_mics):
        frames = np.random.default_rng(60 + n_mics).normal(size=(n_mics, 1024)) * np.hanning(1024)
        self._assert_matches_oracle(frames, 32)

    def test_lag_basis_is_cached_and_read_only(self):
        basis = _lag_basis(4096, 6)
        assert basis.shape == (2 * 2049, 13)
        assert _lag_basis(4096, 6) is basis
        with pytest.raises(ValueError, match="read-only"):
            basis[0, 0] = 1.0


def _toy_array(n_mics: int) -> MicArray:
    rng = np.random.default_rng(100 + n_mics)
    pos = rng.uniform(-0.06, 0.06, size=(n_mics, 3))
    return MicArray(positions=pos, name=f"toy{n_mics}")


class TestSrpMap:
    def test_zero_gcc_zero_map(self):
        arr = _toy_array(3)
        grid = SphericalGrid(4, 8)
        table = delay_table(arr, grid)
        frames = np.zeros((3, 512))
        pmap = srp_map(gcc_set(frames, 16), table, 16000)
        np.testing.assert_array_equal(pmap, 0.0)

    @pytest.mark.parametrize("n_mics", [2, 3, 4])
    def test_matches_direct_beamformer(self, n_mics):
        fs = 16000
        rng = np.random.default_rng(20 + n_mics)
        arr = _toy_array(n_mics)
        grid = SphericalGrid(6, 8)
        table = delay_table(arr, grid)
        u = grid.unit_vectors()[3, 2]
        dry = rng.normal(size=1024)
        frames = plane_wave_frames(dry, arr.positions, u, fs)
        pmap = srp_map(gcc_set(frames, 32), table, fs)
        direct = srp_direct_pairwise(frames, arr.positions, grid.unit_vectors(), fs)
        scaled = direct / 1024.0  # the DFT sum carries a factor of K
        err = np.max(np.abs(scaled - pmap)) / np.max(np.abs(scaled))
        assert err < 0.02

    def test_two_mic_matches_squared_beamformer(self):
        fs = 16000
        rng = np.random.default_rng(31)
        arr = _toy_array(2)
        grid = SphericalGrid(5, 6)
        table = delay_table(arr, grid)
        frames = plane_wave_frames(rng.normal(size=1024), arr.positions, grid.unit_vectors()[2, 4], fs)
        pmap = srp_map(gcc_set(frames, 32), table, fs)
        direct = srp_direct_two_mic(frames, arr.positions, grid.unit_vectors(), fs) / 1024.0
        err = np.max(np.abs(direct - pmap)) / np.max(np.abs(direct))
        assert err < 0.02

    def test_plane_wave_argmax_hits_grid_point(self):
        fs = 16000
        rng = np.random.default_rng(32)
        arr = _toy_array(4)
        grid = SphericalGrid(8, 16)
        table = delay_table(arr, grid)
        for (i, j) in [(2, 3), (4, 11), (6, 0)]:
            u = grid.unit_vectors()[i, j]
            frames = plane_wave_frames(rng.normal(size=4096), arr.positions, u, fs)
            pmap = srp_map(gcc_set(frames, 16), table, fs)
            _, idx = grid_argmax(pmap, grid)
            assert idx == (i, j)

    def test_argmax_scale_invariant(self):
        fs = 16000
        rng = np.random.default_rng(33)
        arr = _toy_array(3)
        grid = SphericalGrid(6, 12)
        table = delay_table(arr, grid)
        frames = rng.normal(size=(3, 1024))
        m1 = srp_map(gcc_set(frames, 16), table, fs)
        m2 = srp_map(gcc_set(frames * 57.0, 16), table, fs)
        assert grid_argmax(m1, grid)[1] == grid_argmax(m2, grid)[1]
        np.testing.assert_allclose(m1, m2, atol=1e-6)

    def test_lag_range_too_small(self):
        arr = MicArray(positions=np.array([[0.5, 0, 0], [-0.5, 0, 0]]), name="wide")
        grid = SphericalGrid(4, 8)
        table = delay_table(arr, grid)
        frames = np.random.default_rng(9).normal(size=(2, 512))
        with pytest.raises(LagRangeTooSmall):
            srp_map(gcc_set(frames, 4), table, 16000)

    def test_steering_follows_rate_and_lag_range_of_one_table(self):
        arr = _toy_array(3)
        table = delay_table(arr, SphericalGrid(6, 8))
        frames = np.random.default_rng(34).normal(size=(3, 1024))
        for fs, lag_range in [(16000, 16), (16000, 32), (48000, 32), (16000, 16)]:
            gset = gcc_set(frames, lag_range)
            pairs = list(itertools.combinations(range(3), 2))
            expected = srp_map_per_pair(gset.pair_lags, gset.auto_zero, pairs, lag_range, table.delays, fs)
            np.testing.assert_array_equal(srp_map(gset, table, fs), expected)

    def test_lag_range_too_small_raises_on_every_call(self):
        arr = MicArray(positions=np.array([[0.5, 0, 0], [-0.5, 0, 0]]), name="wide")
        table = delay_table(arr, SphericalGrid(4, 8))
        frames = np.random.default_rng(9).normal(size=(2, 512))
        for _ in range(2):
            with pytest.raises(LagRangeTooSmall):
                srp_map(gcc_set(frames, 4), table, 16000)
        srp_map(gcc_set(frames, default_lag_range(arr, 16000)), table, 16000)

    def test_default_lag_range_nao(self):
        from srptrack.geometry import default_array

        assert default_lag_range(default_array(), 16000) == 6

    def test_frames_shorter_than_the_lag_span_raise(self):
        from srptrack.geometry import default_array
        from srptrack.models import baseline_gcc_features

        square = MicArray(positions=np.array([[0, 0, 0], [2, 0, 0], [0, 2, 0], [2, 2, 0]], float), name="square")
        assert default_lag_range(square, 16000) == 132
        channels = np.random.default_rng(35).normal(size=(4, 2048))
        table = delay_table(square, SphericalGrid(4, 8))
        for k in (128, 263):
            cfg = FramingConfig(K=k, hop=64)
            with pytest.raises(TooShort, match=f"K={k} .*L=132"):
                compute_input_tensor(channels, table, cfg)
            with pytest.raises(TooShort, match=f"K={k} .*L=132"):
                baseline_gcc_features(channels, square, cfg)
        assert compute_input_tensor(channels, table, FramingConfig(K=264, hop=64)).n_frames == 28
        nao = default_array()
        tensor = compute_input_tensor(np.random.default_rng(36).normal(size=(12, 8192)),
                                      delay_table(nao, SphericalGrid(4, 8)), FramingConfig())
        assert tensor.n_frames == 2 and np.isfinite(tensor.maps).all()


class TestNormalizeMap:
    def test_simple_values(self):
        out = normalize_map(np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(out, [[-1.0, 0.0, 1.0]])

    def test_constant_map_all_zero(self):
        out = normalize_map(np.full((4, 8), 2.5))
        np.testing.assert_array_equal(out, 0.0)

    def test_peak_is_one_and_mean_zero(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            out = normalize_map(rng.normal(size=(4, 8)))
            assert np.max(np.abs(out)) == pytest.approx(1.0)
            assert abs(out.mean()) < 1e-6 * np.max(np.abs(out))

    def test_stack_matches_map_by_map_bitwise(self):
        maps = np.random.default_rng(15).normal(size=(7, 16, 32)) * np.arange(1, 8)[:, None, None]
        maps[3] = 2.5  # a constant map stays all zero inside a stack too
        expected = np.stack([normalize_map_single(m) for m in maps])
        np.testing.assert_array_equal(normalize_map(maps), expected)


class TestEnergyVad:
    def test_all_zero_frame_silent(self):
        cfg = FramingConfig(K=64, hop=32, fs=1000)
        sig = np.zeros((1, 256))
        assert not EnergyVad().mask(sig, cfg).any()

    def test_burst_detected(self):
        cfg = FramingConfig(K=64, hop=64, fs=1000)
        rng = np.random.default_rng(11)
        sig = np.zeros((1, 64 * 4))
        sig[0, 128:192] = rng.normal(size=64)
        mask = EnergyVad().mask(sig, cfg)
        assert mask[2]
        assert not mask[0] and not mask[1] and not mask[3]

    def test_causal_running_max(self):
        # the first frame is below the 1e-6 floor; later thresholds are
        # 0.05 x the running max so far (1, 1, 1, 2, 2)
        rms = np.array([5e-7, 1.0, 0.04, 0.06, 2.0, 0.09])
        mask = EnergyVad().mask_from_power(rms ** 2)
        np.testing.assert_array_equal(mask, [False, True, False, True, True, False])

    def test_input_tensor_vad_matches_the_detector(self):
        from srptrack.geometry import default_array

        cfg = FramingConfig(K=1024, hop=768)
        channels = np.random.default_rng(16).normal(size=(12, 1024 + 11 * 768))
        channels[:, 3 * 768 : 6 * 768] *= 1e-3  # quiet middle frames, so the mask has both values
        vad = EnergyVad().mask(channels, cfg)
        assert vad.any() and not vad.all()
        tensor = compute_input_tensor(channels, delay_table(default_array(), SphericalGrid(4, 8)), cfg)
        np.testing.assert_array_equal(tensor.vad, vad)

    @pytest.mark.parametrize("vad_given", [False, True], ids=["energy-vad", "given-mask"])
    def test_input_tensor_frames_once(self, monkeypatch, vad_given):
        # maps and energy VAD read one framing of the signal, with or without a mask
        from srptrack.geometry import default_array

        calls = []
        frames = FramingConfig.frames

        def counted(cfg, x):
            calls.append(cfg)
            return frames(cfg, x)

        monkeypatch.setattr(FramingConfig, "frames", counted)
        cfg = FramingConfig(K=1024, hop=768)
        channels = np.random.default_rng(17).normal(size=(12, 1024 + 4 * 768))
        vad = np.ones(5, dtype=bool) if vad_given else None
        compute_input_tensor(channels, delay_table(default_array(), SphericalGrid(4, 8)), cfg, vad_mask=vad)
        assert calls == [cfg]


class TestAssembleInput:
    def _maps(self, grid, peak_cells):
        maps = []
        for (i, j) in peak_cells:
            m = np.zeros(grid.shape)
            m[i, j] = 1.0
            m -= m.mean()
            m /= np.max(np.abs(m))
            maps.append(m)
        return np.stack(maps)

    def test_all_silent_all_zero(self):
        """Silent frames keep their maps; every model's input is zero there."""
        from srptrack.geometry import default_array
        from srptrack.models import Cross3D, build_baseline_gcc, build_baseline_max, model_features

        grid = SphericalGrid(4, 8)
        maps = self._maps(grid, [(1, 2), (2, 3)])
        tensor = assemble_input(maps, np.array([False, False]), grid)
        np.testing.assert_array_equal(tensor.maps, maps)
        array, cfg = default_array(), FramingConfig()
        channels = np.random.default_rng(11).normal(size=(12, cfg.K + cfg.hop))
        for model in (Cross3D(4, 8, None, np.float64), build_baseline_max(), build_baseline_gcc(array, cfg.fs)):
            np.testing.assert_array_equal(model_features(model, tensor, channels, array, cfg), 0.0)

    def test_argmax_channels(self):
        from srptrack.models import baseline_max_features

        grid = SphericalGrid(3, 4)
        # theta = pi/2 is row 1; phi = 0 is column 2
        maps = self._maps(grid, [(1, 2)])
        tensor = assemble_input(maps, np.array([True]), grid)
        coords = baseline_max_features(tensor)
        np.testing.assert_allclose(coords[0, 0], 0.5)
        np.testing.assert_allclose(coords[1, 0], 0.5)
        np.testing.assert_allclose(tensor.maps[0], maps[0])

    def test_channels_in_unit_range(self):
        from srptrack.models import Cross3D

        grid = SphericalGrid(8, 16)
        rng = np.random.default_rng(12)
        maps = rng.normal(size=(6,) + grid.shape)
        x = Cross3D(8, 16, None, np.float64).features_from(assemble_input(maps, np.ones(6, dtype=bool), grid))
        assert x[1].min() >= 0.0 and x[1].max() <= 1.0
        assert x[2].min() >= 0.0 and x[2].max() <= 1.0

    def test_tensor_shape_16x32(self):
        from srptrack.models import Cross3D

        grid = SphericalGrid(16, 32)
        maps = np.zeros((103,) + grid.shape)
        tensor = assemble_input(maps, np.ones(103, dtype=bool), grid)
        assert tensor.maps.shape == (103, 16, 32)
        assert Cross3D(16, 32, None).features_from(tensor).shape == (3, 103, 16, 32)


def _srpm(header, payload=b"", version=3):
    """A feature dump file with this JSON ``header`` and ``payload``."""
    text = json.dumps(header).encode()
    return b"SRPM" + struct.pack("<2I", version, len(text)) + text + payload


class TestFeatureDump:
    def test_round_trip(self, tmp_path):
        grid = SphericalGrid(4, 8)
        cfg = FramingConfig(K=1024, hop=320, fs=8000)
        rng = np.random.default_rng(13)
        maps = rng.normal(size=(5,) + grid.shape)
        vad = np.array([True, False, True, True, False])
        tensor = assemble_input(maps, vad, grid)
        path = tmp_path / "feat.srpm"
        save_features(path, tensor, grid, cfg)
        assert list(tmp_path.iterdir()) == [path]  # one self-describing file
        back, grid2, cfg2 = load_features(path)
        np.testing.assert_array_equal(back.maps, tensor.maps.astype(np.float32))
        np.testing.assert_array_equal(back.vad, vad)
        np.testing.assert_array_equal(back.argmax_doa, tensor.argmax_doa)
        np.testing.assert_array_equal(grid2.thetas, grid.thetas)
        np.testing.assert_array_equal(grid2.phis, grid.phis)
        assert cfg2 == cfg

    def test_truncated_rejected(self, tmp_path):
        grid = SphericalGrid(4, 8)
        cfg = FramingConfig()
        tensor = assemble_input(np.zeros((2,) + grid.shape), np.ones(2, dtype=bool), grid)
        path = tmp_path / "feat.srpm"
        save_features(path, tensor, grid, cfg)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(FormatError, match=re.escape(str(path))):
            load_features(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "feat.srpm"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(FormatError, match=re.escape(str(path))):
            load_features(path)

    def test_version_1_dump_rejected(self, tmp_path):
        path = tmp_path / "feat.srpm"
        path.write_bytes(b"SRPM" + struct.pack("<5I", 1, 3, 1, 2, 2) + bytes(4 * 12))
        with pytest.raises(FormatError, match=re.escape(f"{path}: unsupported feature dump version 1")):
            load_features(path)

    def test_version_2_dump_rejected(self, tmp_path):
        """Version 2 held the dense (3, T, n_theta, n_phi) input as ``data``."""
        path = tmp_path / "feat.srpm"
        header = {"grid": {"n_theta": 2, "n_phi": 2}, "framing": {"K": 4096, "hop": 3072, "fs": 16000},
                  "vad": [1], "argmax_doa": [[0.0, 0.0]],
                  "tensors": [{"name": "data", "shape": [3, 1, 2, 2], "offset": 0}]}
        path.write_bytes(_srpm(header, bytes(4 * 12), version=2))
        with pytest.raises(FormatError, match=re.escape(f"{path}: unsupported feature dump version 2")):
            load_features(path)

    @staticmethod
    def _dump(path, n_frames=1):
        grid = SphericalGrid(2, 2)
        tensor = assemble_input(np.zeros((n_frames,) + grid.shape), np.ones(n_frames, dtype=bool), grid)
        save_features(path, tensor, grid, FramingConfig())
        return path

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_data_rejected(self, tmp_path, value):
        grid = SphericalGrid(2, 2)
        tensor = assemble_input(np.zeros((3,) + grid.shape), np.ones(3, dtype=bool), grid)
        tensor.maps[1, 1, 0] = value
        path = tmp_path / "feat.srpm"
        save_features(path, tensor, grid, FramingConfig())
        with pytest.raises(FormatError, match=re.escape(f"{path}: feature dump tensor maps holds a NaN")):
            load_features(path)

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda h, p: _srpm(h, p)[:20], id="blob-shorter-than-header"),
            pytest.param(lambda h, p: _srpm({k: v for k, v in h.items() if k != "grid"}, p),
                         id="header-without-grid"),
            pytest.param(lambda h, p: _srpm(dict(h, vad=[1, 1, 1]), p), id="vad-too-long"),
            pytest.param(lambda h, p: _srpm(dict(h, argmax_doa=[]), p), id="argmax-too-short"),
            pytest.param(lambda h, p: _srpm(dict(h, grid={"n_theta": 4, "n_phi": 8}), p),
                         id="grid-shape-differs"),
            pytest.param(lambda h, p: _srpm(dict(h, framing={"K": 0}), p), id="bad-framing"),
            pytest.param(lambda h, p: _srpm(dict(h, framing=dict(h["framing"], K=4096.5)), p),
                         id="framing-float-K"),
            pytest.param(lambda h, p: _srpm(dict(h, framing=dict(h["framing"], hop=True)), p),
                         id="framing-bool-hop"),
            pytest.param(lambda h, p: _srpm(dict(h, framing=dict(h["framing"], fs=0)), p),
                         id="framing-zero-fs"),
            pytest.param(lambda h, p: _srpm(dict(h, framing=dict(h["framing"], fs=-16000)), p),
                         id="framing-negative-fs"),
            pytest.param(lambda h, p: _srpm([h], p), id="header-not-an-object"),
            pytest.param(lambda h, p: _srpm(dict(h, framing=dict(h["framing"], window="hann")), p),
                         id="framing-with-window"),
            pytest.param(lambda h, p: _srpm(dict(h, tensors=[dict(h["tensors"][0], name="data")]), p),
                         id="no-maps-tensor"),
            pytest.param(lambda h, p: _srpm(dict(h, tensors=[dict(h["tensors"][0], shape=[1, 2, 2, 1])]), p),
                         id="maps-not-3d"),
        ],
    )
    def test_malformed_dump_rejected(self, tmp_path, corrupt):
        path = self._dump(tmp_path / "feat.srpm")
        blob = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", blob, 8)
        path.write_bytes(corrupt(json.loads(blob[12 : 12 + header_len]), blob[12 + header_len :]))
        with pytest.raises(FormatError, match=re.escape(str(path))):
            load_features(path)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_truncated_or_bit_flipped_dump_raises_only_format_error(self, tmp_path_factory, data):
        path = self._dump(tmp_path_factory.mktemp("dump") / "feat.srpm", n_frames=2)
        blob = bytearray(path.read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
            blob[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(blob))
        try:
            load_features(path)
        except FormatError as exc:
            assert str(path) in str(exc)
        # a flip inside the float payload or a VAD digit loads as other values, which is fine


class TestComputePowerMaps:
    """The raw maps behind compute_input_tensor: one per frame, steered over
    the whole grid."""

    def test_frame_count_and_argmax_stability(self):
        fs = 16000
        rng = np.random.default_rng(14)
        arr = _toy_array(4)
        grid = SphericalGrid(8, 16)
        table = delay_table(arr, grid)
        u = grid.unit_vectors()[3, 5]
        cfg = FramingConfig(K=1024, hop=768, fs=fs)
        dry = rng.normal(size=4096)
        channels = plane_wave_frames(dry, arr.positions, u, fs)
        t = cfg.n_frames(4096)
        maps = compute_input_tensor(channels, table, cfg, vad_mask=np.ones(t, dtype=bool)).maps
        assert maps.shape == (t,) + grid.shape
        for pmap in maps:
            _, idx = grid_argmax(pmap, grid)
            assert idx == (3, 5)

    @settings(max_examples=60, deadline=None)
    @given(
        positions=st.lists(st.tuples(*[st.floats(-0.5, 0.5)] * 3), min_size=2, max_size=5),
        n_theta=st.integers(2, 12),
        n_phi=st.integers(2, 12),
        fs=st.integers(1000, 96000),
    )
    def test_default_lag_range_covers_every_delay_table(self, positions, n_theta, n_phi, fs):
        """|tau_n - tau_m| <= aperture / c and rint(x) <= ceil(x): the aperture's
        lag range holds every rounded delay of a table built by delay_table."""
        try:
            arr = MicArray(positions=np.array(positions))
        except ValueError:
            assume(False)  # coinciding sensors
        table = delay_table(arr, SphericalGrid(n_theta, n_phi))
        lag_range = default_lag_range(arr, fs)
        assert np.abs(np.rint(table.delays * fs)).max() <= lag_range
        k = 4 * lag_range + 2
        channels = np.random.default_rng(n_theta).normal(size=(arr.n_mics, k))
        tensor = compute_input_tensor(channels, table, FramingConfig(K=k, hop=k, fs=fs), vad_mask=[True])
        assert tensor.maps.shape == (1, n_theta, n_phi)

    def test_table_beyond_the_aperture_raises(self):
        arr = _toy_array(3)
        table = delay_table(arr, SphericalGrid(4, 8))
        wide = DelayTable(delays=3.0 * table.delays, array=arr, grid=table.grid)
        channels = np.random.default_rng(15).normal(size=(3, 1024))
        with pytest.raises(LagRangeTooSmall):
            compute_input_tensor(channels, wide, FramingConfig(K=512, hop=512))


class TestMatchesPerFramePath:
    """compute_input_tensor against the per-pair, per-frame irfft path it
    replaced: maps to 1e-12, VAD and argmax DOAs bit for bit."""

    def _assert_same(self, channels, table, cfg, vad_mask=None):
        tensor = compute_input_tensor(channels, table, cfg, vad_mask=vad_mask)
        maps, vad, argmax = input_tensor_per_frame(channels, table, cfg, vad_mask=vad_mask)
        np.testing.assert_allclose(tensor.maps, maps, atol=1e-12, rtol=0)
        np.testing.assert_array_equal(tensor.vad, vad)
        np.testing.assert_array_equal(tensor.argmax_doa, argmax)

    @pytest.mark.parametrize("resolution", [(16, 32), (64, 128)])
    def test_twelve_channels_bitwise(self, resolution):
        from srptrack.geometry import default_array

        cfg = FramingConfig()
        rng = np.random.default_rng(resolution[0])
        channels = rng.normal(size=(12, cfg.K + 9 * cfg.hop))
        channels[:, : 2 * cfg.hop] *= 1e-4  # quiet opening frames, for the energy VAD
        self._assert_same(channels, delay_table(default_array(), SphericalGrid(*resolution)), cfg)

    def test_repeat_call_is_bit_identical(self):
        from srptrack.geometry import default_array

        cfg = FramingConfig()
        channels = np.random.default_rng(70).normal(size=(12, cfg.K + 4 * cfg.hop))
        table = delay_table(default_array(), SphericalGrid(16, 32))
        first, second = (compute_input_tensor(channels, table, cfg) for _ in range(2))
        for name in ("maps", "vad", "argmax_doa"):
            np.testing.assert_array_equal(getattr(first, name), getattr(second, name))

    @pytest.mark.parametrize("n_mics", [2, 3, 4])
    def test_toy_arrays_bitwise(self, n_mics):
        cfg = FramingConfig(K=1024, hop=768)
        rng = np.random.default_rng(40 + n_mics)
        channels = rng.normal(size=(n_mics, 1024 + 5 * 768))
        vad_mask = rng.random(6) < 0.6
        self._assert_same(channels, delay_table(_toy_array(n_mics), SphericalGrid(6, 8)), cfg, vad_mask)

    @pytest.mark.parametrize("vad_given", [False, True], ids=["energy-vad", "given-mask"])
    def test_streamed_pass_matches_the_frame_array(self, vad_given):
        """The frame-by-frame pass against the windowed-array pass it
        replaced: maps to 1e-12, VAD and argmax DOAs bit for bit."""
        from srptrack.geometry import default_array

        cfg = FramingConfig()
        rng = np.random.default_rng(71)
        channels = rng.normal(size=(12, cfg.K + 7 * cfg.hop)).astype(np.float32)
        channels[:, 3 * cfg.hop : 6 * cfg.hop] *= 1e-4  # quiet middle frames, for the energy VAD
        table = delay_table(default_array(), SphericalGrid(16, 32))
        frames = frame_signal(channels, cfg)
        mask = rng.random(frames.shape[1]) < 0.7 if vad_given else None
        tensor = compute_input_tensor(channels, table, cfg, vad_mask=mask)
        if mask is None:
            mask = EnergyVad().mask_from_power(np.mean(frames ** 2, axis=(0, 2)))
            assert mask.any() and not mask.all()
            np.testing.assert_array_equal(mask, energy_vad_per_frame(channels, cfg))
        expected = assemble_input(normalize_map(power_maps_windowed(frames, table, cfg.fs)), mask, table.grid)
        np.testing.assert_allclose(tensor.maps, expected.maps, atol=1e-12, rtol=0)
        np.testing.assert_array_equal(tensor.vad, expected.vad)
        np.testing.assert_array_equal(tensor.argmax_doa, expected.argmax_doa)

    def test_gcc_features_match_the_frame_array(self):
        from srptrack.geometry import default_array
        from srptrack.models import baseline_gcc_features

        cfg = FramingConfig()
        array = default_array()
        channels = np.random.default_rng(72).normal(size=(12, cfg.K + 5 * cfg.hop)).astype(np.float32)
        expected = gcc_features_windowed(frame_signal(channels, cfg), default_lag_range(array, cfg.fs))
        np.testing.assert_array_equal(baseline_gcc_features(channels, array, cfg), expected)


class TestStreamingMemory:
    """The feature pass holds one frame at a time, never the whole
    (n_ch, T, K) float64 frame array: 40.5 MB for 20 s of 12 channels."""

    @pytest.mark.parametrize("features", ["input-tensor", "gcc-baseline"])
    def test_peak_far_below_the_frame_array(self, features):
        import tracemalloc

        from srptrack.geometry import default_array
        from srptrack.models import baseline_gcc_features

        cfg = FramingConfig()
        array = default_array()
        channels = np.random.default_rng(73).normal(size=(12, 20 * cfg.fs)).astype(np.float32)
        table = delay_table(array, SphericalGrid(16, 32))
        frame_array = channels.shape[0] * cfg.n_frames(channels.shape[1]) * cfg.K * 8
        tracemalloc.start()
        try:
            if features == "input-tensor":
                compute_input_tensor(channels, table, cfg)
            else:
                baseline_gcc_features(channels, array, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < frame_array / 4
