"""Tests for srptrack.srpfeat."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srptrack.errors import FormatError, LagRangeTooSmall, TooShort
from srptrack.geometry import MicArray, SphericalGrid, delay_table, grid_argmax
from srptrack.srpfeat import (
    EnergyVad,
    FramingConfig,
    assemble_input,
    compute_input_tensor,
    compute_power_maps,
    default_lag_range,
    frame_indices,
    frame_signal,
    gcc_set,
    load_features,
    normalize_map,
    save_features,
    srp_map,
)

from oracles import (
    gcc_phat,
    gcc_set_per_pair,
    input_tensor_per_frame,
    normalize_map_single,
    plane_wave_frames,
    srp_direct_pairwise,
    srp_direct_two_mic,
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

    def test_frame_indices(self):
        idx = frame_indices(3, 4, 2)
        np.testing.assert_array_equal(idx, [[0, 1, 2, 3], [2, 3, 4, 5], [4, 5, 6, 7]])


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
        frames = np.random.default_rng(9).normal(size=(12, 4096))
        pair_lags, auto_zero, _ = gcc_set_per_pair(frames, 6)
        gset = gcc_set(frames, 6)
        np.testing.assert_array_equal(gset.pair_lags, pair_lags)
        np.testing.assert_array_equal(gset.auto_zero, auto_zero)


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

    def test_default_lag_range_nao(self):
        from srptrack.geometry import default_array

        assert default_lag_range(default_array(), 16000) == 6


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
        vad = EnergyVad(abs_floor=0.0, rel_threshold=0.5)
        rms = np.array([1.0, 0.4, 0.6, 2.0, 0.9])
        mask = vad.mask_from_rms(rms)
        np.testing.assert_array_equal(mask, [True, False, True, True, False])


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
        grid = SphericalGrid(4, 8)
        maps = self._maps(grid, [(1, 2), (2, 3)])
        tensor = assemble_input(maps, np.array([False, False]), grid)
        np.testing.assert_array_equal(tensor.data, 0.0)

    def test_argmax_channels(self):
        grid = SphericalGrid(3, 4)
        # theta = pi/2 is row 1; phi = 0 is column 2
        maps = self._maps(grid, [(1, 2)])
        tensor = assemble_input(maps, np.array([True]), grid)
        np.testing.assert_allclose(tensor.data[1, 0], 0.5)
        np.testing.assert_allclose(tensor.data[2, 0], 0.5)
        np.testing.assert_allclose(tensor.data[0, 0], maps[0])

    def test_channels_in_unit_range(self):
        grid = SphericalGrid(8, 16)
        rng = np.random.default_rng(12)
        maps = rng.normal(size=(6,) + grid.shape)
        tensor = assemble_input(maps, np.ones(6, dtype=bool), grid)
        assert tensor.data[1].min() >= 0.0 and tensor.data[1].max() <= 1.0
        assert tensor.data[2].min() >= 0.0 and tensor.data[2].max() <= 1.0

    def test_tensor_shape_16x32(self):
        grid = SphericalGrid(16, 32)
        maps = np.zeros((103,) + grid.shape)
        tensor = assemble_input(maps, np.ones(103, dtype=bool), grid)
        assert tensor.data.shape == (3, 103, 16, 32)


class TestFeatureDump:
    def test_round_trip(self, tmp_path):
        grid = SphericalGrid(4, 8)
        cfg = FramingConfig()
        rng = np.random.default_rng(13)
        maps = rng.normal(size=(5,) + grid.shape).astype(np.float32).astype(float)
        vad = np.array([True, False, True, True, False])
        tensor = assemble_input(maps, vad, grid)
        path = tmp_path / "feat.srpm"
        save_features(path, tensor, grid, cfg)
        back, grid2, cfg2 = load_features(path)
        np.testing.assert_allclose(back.data, tensor.data, atol=1e-7)
        np.testing.assert_array_equal(back.vad, vad)
        assert grid2.shape == grid.shape
        assert cfg2 == cfg

    def test_truncated_rejected(self, tmp_path):
        grid = SphericalGrid(4, 8)
        cfg = FramingConfig()
        tensor = assemble_input(np.zeros((2,) + grid.shape), np.ones(2, dtype=bool), grid)
        path = tmp_path / "feat.srpm"
        save_features(path, tensor, grid, cfg)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(FormatError):
            load_features(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "feat.srpm"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(FormatError):
            load_features(path)

    @staticmethod
    def _dump(path, n_frames=1):
        grid = SphericalGrid(2, 2)
        tensor = assemble_input(np.zeros((n_frames,) + grid.shape), np.ones(n_frames, dtype=bool), grid)
        save_features(path, tensor, grid, FramingConfig())
        return path, path.with_suffix(path.suffix + ".json")

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda blob, side: (blob[:20], side), id="blob-shorter-than-header"),
            pytest.param(lambda blob, side: (blob, {k: v for k, v in side.items() if k != "grid"}),
                         id="sidecar-without-grid"),
            pytest.param(lambda blob, side: (blob, dict(side, vad=[1, 1, 1])), id="vad-too-long"),
            pytest.param(lambda blob, side: (blob, dict(side, argmax_doa=[])), id="argmax-too-short"),
            pytest.param(lambda blob, side: (blob, dict(side, grid={"n_theta": 4, "n_phi": 8})),
                         id="grid-shape-differs"),
            pytest.param(lambda blob, side: (blob, dict(side, framing={"K": 0})), id="bad-framing"),
            pytest.param(lambda blob, side: (blob, [side]), id="sidecar-not-an-object"),
        ],
    )
    def test_malformed_dump_rejected(self, tmp_path, corrupt):
        path, sidecar = self._dump(tmp_path / "feat.srpm")
        blob, side = corrupt(path.read_bytes(), json.loads(sidecar.read_text()))
        path.write_bytes(blob)
        sidecar.write_text(json.dumps(side))
        with pytest.raises(FormatError):
            load_features(path)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_truncated_or_bit_flipped_dump_raises_only_format_error(self, tmp_path_factory, data):
        path, _ = self._dump(tmp_path_factory.mktemp("dump") / "feat.srpm", n_frames=2)
        blob = bytearray(path.read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
            blob[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(blob))
        try:
            load_features(path)
        except FormatError:
            pass  # a flip inside the float payload loads as other values, which is fine


class TestComputePowerMaps:
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
        maps = compute_power_maps(channels, table, cfg)
        assert maps.shape == (cfg.n_frames(4096),) + grid.shape
        for pmap in maps:
            _, idx = grid_argmax(pmap, grid)
            assert idx == (3, 5)


class TestMatchesPerFramePath:
    """compute_input_tensor against the per-pair, per-frame path it replaced."""

    def _assert_same(self, channels, table, cfg, vad_mask=None):
        tensor = compute_input_tensor(channels, table, cfg, vad_mask=vad_mask)
        data, vad, argmax = input_tensor_per_frame(channels, table, cfg, vad_mask=vad_mask)
        np.testing.assert_array_equal(tensor.data, data)
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

    @pytest.mark.parametrize("n_mics", [2, 3, 4])
    def test_toy_arrays_bitwise(self, n_mics):
        cfg = FramingConfig(K=1024, hop=768)
        rng = np.random.default_rng(40 + n_mics)
        channels = rng.normal(size=(n_mics, 1024 + 5 * 768))
        vad_mask = rng.random(6) < 0.6
        self._assert_same(channels, delay_table(_toy_array(n_mics), SphericalGrid(6, 8)), cfg, vad_mask)
