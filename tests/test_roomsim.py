"""Tests for srptrack.roomsim."""

import math
import struct
import sys
import warnings

import numpy as np
import pytest
from scipy.io import wavfile

from srptrack import roomsim
from srptrack.errors import AllSilent, FormatError, ImageGridTooLarge, NonPhysicalT60Warning, OutOfRoom
from srptrack.geometry import default_array
from srptrack.roomsim import (
    MicSignals,
    Room,
    add_noise,
    image_counts,
    render_moving_source,
)
from srptrack.srpfeat import FramingConfig

from oracles import (
    convolve_segment_fftconvolve,
    grid_argmax,
    images_in_sphere,
    power_maps_windowed,
    render_moving_source_full_length,
    rirs_for_point_oversampled,
    schroeder_t60,
    wav_rows_scipy,
)

FS = 16000
C = 343.0


def single_rir(room, src, mic, t_max):
    """Taps of the RIR from ``src`` to the one microphone at ``mic``."""
    src, mic = np.asarray(src, dtype=float), np.asarray(mic, dtype=float)
    return roomsim._rirs_for_point(room, src, mic[None], FS, t_max)[0]


def assert_matches_oracle(rirs, ref):
    assert rirs.shape == ref.shape
    assert np.max(np.abs(rirs - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestBetaFromT60:
    def test_reference_room(self):
        # 6 x 5 x 3 m, t60 = 0.5 s: alpha = 0.161 * 90 / (126 * 0.5)
        beta = Room([6.0, 5.0, 3.0], 0.5).beta
        assert beta == pytest.approx(math.sqrt(1.0 - 0.23), abs=1e-4)

    def test_infinite_t60_clamps_below_one(self):
        beta = Room([6.0, 5.0, 3.0], 1e12).beta
        assert beta < 1.0
        assert beta > 0.999

    def test_doubling_t60_halves_alpha(self):
        dims = [4.0, 5.0, 2.5]
        alpha1 = 1.0 - Room(dims, 0.4).beta ** 2
        alpha2 = 1.0 - Room(dims, 0.8).beta ** 2
        assert alpha1 == pytest.approx(2.0 * alpha2, rel=1e-9)

    def test_non_physical_t60_warns(self):
        with pytest.warns(NonPhysicalT60Warning):
            beta = Room([3.0, 3.0, 2.5], 0.01).beta
        assert 0.0 <= beta < 1.0

    @pytest.mark.parametrize("t60", [math.nan, math.inf, -math.inf, -0.1])
    def test_bad_t60_rejected(self, t60):
        with pytest.raises(ValueError, match="t60 must be finite and nonnegative"):
            Room([6.0, 5.0, 3.0], t60)


class TestRirWindow:
    """Without a ``t_max`` a render covers the T60, and never less than the
    room's longest direct path plus the kernel tail."""

    DIMS = [6.0, 5.0, 3.0]

    def test_t60_shorter_than_the_direct_path_keeps_every_direct_peak(self):
        with pytest.warns(NonPhysicalT60Warning):
            room = Room(self.DIMS, 0.001)
        src = np.array([1.0, 1.0, 1.5])
        mics = np.array([3.0, 2.5, 1.0]) + default_array().positions
        dry = np.zeros(2000)
        dry[0] = 1.0
        rirs = render_moving_source(dry, src[None], mics, room, FS, hop=len(dry), dtype=np.float64).channels
        d = np.linalg.norm(mics - src, axis=1)  # 2.48-2.58 m, 7.2-7.5 ms
        peaks = np.argmax(np.abs(rirs), axis=1)
        assert np.all(np.abs(peaks - d / C * FS) <= 1.0)
        assert np.all(rirs[np.arange(len(mics)), peaks] > 0.5 / (4.0 * np.pi * d))

    def test_default_window(self):
        reach = float(np.linalg.norm(self.DIMS) / C + 2.0 * roomsim.SINC_HALF_WIDTH / FS)  # 29.4 ms
        # the anechoic window, bit for bit as before one rule served every room
        assert roomsim._default_t_max(Room(self.DIMS, 0.0), FS) == reach
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonPhysicalT60Warning)
            assert roomsim._default_t_max(Room(self.DIMS, 0.001), FS) == reach
            for t60 in (reach, 0.25, 1.3):
                assert roomsim._default_t_max(Room(self.DIMS, t60), FS) == t60


class TestImageCounts:
    def test_grid_size_formula(self):
        dims = np.array([6.0, 5.0, 3.0])
        t_max = 0.25
        counts = image_counts(dims, t_max)
        np.testing.assert_array_equal(counts, np.ceil(343.0 * t_max / (2 * dims)))
        grid_size = np.prod(2 * counts + 1)
        assert grid_size == (2 * counts[0] + 1) * (2 * counts[1] + 1) * (2 * counts[2] + 1)

    @staticmethod
    def deposits(monkeypatch):
        """Images deposited per ``np.bincount`` call, one call per microphone
        and parity block of ``_rirs_for_point``."""
        counts, bincount = [], np.bincount

        def counting(q, *args, **kwargs):
            counts.append(len(q))
            return bincount(q, *args, **kwargs)

        monkeypatch.setattr(np, "bincount", counting)
        return counts

    def test_images_grow_as_the_sphere_over_the_room(self, monkeypatch):
        """The cull keeps about (4/3) pi (c t_max)^3 / V images per microphone,
        from about 800 to 174,000 here. One point pair's count strays from it
        by up to about 1 % at t_max 0.05 s (lattice points in a small sphere),
        so 16 random pairs share the 1 % gate."""
        dims = np.array([3.0, 3.5, 2.5])
        pairs = np.random.default_rng(0).uniform(0.0, dims, size=(16, 2, 3))
        counts = self.deposits(monkeypatch)
        for t_max in (0.05, 0.1, 0.2, 0.3):
            counts.clear()
            for src, mic in pairs:
                single_rir(Room(dims, 0.4), src, mic, t_max)
            assert sum(counts) / len(pairs) == pytest.approx(images_in_sphere(dims, t_max), rel=0.01)

    def test_anechoic_room_keeps_one_image_per_mic(self, monkeypatch):
        mics = default_array().positions + np.array([2.0, 2.5, 1.5])
        counts = self.deposits(monkeypatch)
        roomsim._rirs_for_point(Room([6.0, 5.0, 3.0], 0.0), np.array([1.0, 1.0, 1.0]), mics, FS, 0.1)
        assert counts == [1] * len(mics)


class TestSimulateRir:
    """One source and one microphone: a one-row RIR set. Rendering rejects
    either of them outside the room."""

    def test_anechoic_single_pulse(self):
        room = Room(dims=np.array([6.0, 5.0, 3.0]), t60=0.0)
        src = np.array([2.0, 2.5, 1.5])
        mic = np.array([3.0, 2.5, 1.5])  # d = 1 m
        rir = single_rir(room, src, mic, t_max=0.02)
        assert rir.sum() == pytest.approx(1.0 / (4 * math.pi), rel=1e-2)
        center = np.sum(np.arange(len(rir)) * rir**2) / np.sum(rir**2)
        assert center == pytest.approx(FS / 343.0, abs=0.1)

    def test_direct_path_is_earliest_energy(self):
        room = Room([5.0, 4.0, 3.0], 0.4)
        rir = single_rir(room, [1.0, 2.0, 1.2], [3.0, 2.0, 1.5], t_max=0.4)
        direct = np.linalg.norm([2.0, 0.0, 0.3]) / 343.0 * FS
        nz = np.nonzero(np.abs(rir) > 1e-6 * np.max(np.abs(rir)))[0]
        assert nz[0] >= direct - 41
        assert nz[0] <= direct + 1
        assert np.all(np.isfinite(rir))

    def test_out_of_room(self):
        room = Room([4.0, 4.0, 3.0], 0.3)
        inside = [[1.0, 1.0, 1.0], [2.0, 3.0, 1.5]]
        for src, mics in [
            ([[5.0, 1.0, 1.0]], inside),
            (inside, [[1.0, -0.5, 1.0]]),
            ([[1.0, 1.0, 1.0], [np.nan, 1.0, 1.0]], inside),
            (inside, [[1.0, 1.0, 1.0], [1.0, 1.0, np.nan]]),
            ([[1.0, 4.0, 1.0]], inside),  # on a wall
            ([[1.0, 1.0, np.inf]], inside),
        ]:
            with pytest.raises(OutOfRoom):
                render_moving_source(np.zeros(4000), src, mics, room, FS, t_max=0.1, hop=2000)
        for src, mics in [([[1.0, 1.0]], inside), (inside, [[1.0, 1.0], [2.0, 2.0]])]:
            with pytest.raises(ValueError, match="must be 3-vectors"):
                render_moving_source(np.zeros(4000), src, mics, room, FS, t_max=0.1, hop=2000)

    @pytest.mark.parametrize("hop", [None, 1600])
    def test_empty_trajectory_rejected(self, hop):
        room = Room([4.0, 4.0, 3.0], 0.3)
        with pytest.raises(ValueError, match="traj_points"):
            render_moving_source(np.zeros(4000), np.zeros((0, 3)), [[1.0, 1.0, 1.0]], room, FS, t_max=0.1, hop=hop)

    @pytest.mark.parametrize("t60", [0.3, 0.6, 1.0])
    def test_schroeder_t60_tracks_request(self, t60):
        # Pure ISM with uniform Sabine-inverted walls reads 25-50% long on a
        # Schroeder T20 fit (slow axial image paths). No independent
        # image-method implementation has checked this envelope: the oracle
        # shares the simulator's reflection counts, which are wrong for the far
        # walls (see test_mirror_through_the_centre_keeps_the_rir). Assert the
        # measured envelope rather than the Sabine nominal.
        room = Room([6.0, 5.0, 3.0], t60)
        rir = single_rir(room, [2.0, 1.5, 1.4], [4.1, 3.2, 1.6], t_max=t60)
        measured = schroeder_t60(rir, FS)
        assert 1.0 * t60 < measured < 1.6 * t60

    def test_schroeder_t60_monotone_in_request(self):
        room_dims = [6.0, 5.0, 3.0]
        measured = []
        for t60 in (0.3, 0.6, 1.0):
            room = Room(room_dims, t60)
            rir = single_rir(room, [2.0, 1.5, 1.4], [4.1, 3.2, 1.6], t_max=t60)
            measured.append(schroeder_t60(rir, FS))
        assert measured[0] < measured[1] < measured[2]

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: an image's reflection count is taken as |n + p| + |n| where "
        "it is |n - p| + |n|, so each far wall's first-order reflection gets beta**3 and "
        "mirroring the room moves the RIR by about a tenth of its peak",
    )
    def test_mirror_through_the_centre_keeps_the_rir(self):
        # uniform walls make the room symmetric about its centre, so mirroring
        # the source and the mics through it must leave every RIR unchanged;
        # this shares no formula with the simulator or its oracle
        rng = np.random.default_rng(1)
        for _ in range(3):
            dims = rng.uniform([3.0, 3.0, 2.5], [7.0, 6.0, 3.5])
            room = Room(dims, 0.3)
            src = rng.uniform(0.2, 0.8, 3) * dims
            mics = rng.uniform(0.2, 0.8, (2, 3)) * dims
            rirs = roomsim._rirs_for_point(room, src, mics, FS, 0.3)
            mirrored = roomsim._rirs_for_point(room, dims - src, dims - mics, FS, 0.3)
            assert np.max(np.abs(mirrored - rirs)) <= 1e-12 * np.max(np.abs(rirs))


class TestRirsMatchOversampledOracle:
    """The polyphase kernel and the culled image loop against the old path."""

    @staticmethod
    def _rirs(room, src, mics, t_max):
        return roomsim._rirs_for_point(room, src, mics, FS, t_max)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_rooms(self, seed):
        rng = np.random.default_rng(300 + seed)
        dims = rng.uniform(3.0, 8.0, size=3)
        room = Room(dims, rng.uniform(0.1, 0.5))
        src = rng.uniform(0.1, 0.9, size=3) * dims
        mics = rng.uniform(0.1, 0.9, size=(5, 3)) * dims
        rirs = self._rirs(room, src, mics, room.t60)
        assert_matches_oracle(rirs, rirs_for_point_oversampled(room, src, mics, FS, room.t60, C))

    def test_default_array(self):
        room = Room([6.0, 5.0, 3.0], 0.4)
        mics = np.array([3.0, 2.5, 1.2]) + default_array().positions
        src = np.array([1.7, 3.1, 1.6])
        rirs = self._rirs(room, src, mics, 0.4)
        assert_matches_oracle(rirs, rirs_for_point_oversampled(room, src, mics, FS, 0.4, C))

    def test_anechoic_direct_path_only(self):
        room = Room(dims=np.array([6.0, 5.0, 3.0]), t60=0.0)
        mics = np.array([[3.0, 2.5, 1.5], [1.0, 4.0, 2.0], [5.5, 0.5, 0.5]])
        src = np.array([2.0, 2.0, 1.0])
        rirs = self._rirs(room, src, mics, 0.03)
        assert_matches_oracle(rirs, rirs_for_point_oversampled(room, src, mics, FS, 0.03, C))

    def test_simulate_rir_single_mic(self):
        room = Room([5.0, 4.0, 3.0], 0.3)
        src, mic = np.array([1.0, 2.0, 1.2]), np.array([3.0, 2.0, 1.5])
        rirs = self._rirs(room, src, mic[None, :], 0.3)
        assert_matches_oracle(rirs, rirs_for_point_oversampled(room, src, mic[None, :], FS, 0.3, C))

    def test_t_max_rounding_down_drops_late_deposits(self):
        # t_max * fs = 1600.4 gives 1600 taps, while images out to c * t_max
        # land on oversampled slots up to 16 * 1600.4 > 16 * 1600 + 1
        t_max = 1600.4 / FS
        room = Room([4.0, 3.5, 2.8], 0.3)
        src = np.array([1.1, 2.0, 1.3])
        mics = np.array([[2.5, 1.5, 1.4], [2.6, 1.5, 1.4]])
        rirs = self._rirs(room, src, mics, t_max)
        assert rirs.shape == (2, 1600)
        assert_matches_oracle(rirs, rirs_for_point_oversampled(room, src, mics, FS, t_max, C))


class TestThreadedRendering:
    """RIR sets computed on pool threads give the serial loop's output bit for bit."""

    POINTS = np.array([[1.5, 1.0, 1.4], [2.0, 1.6, 1.5], [2.5, 2.2, 1.6], [3.0, 2.8, 1.7], [3.5, 3.4, 1.8]])

    def _render(self, points):
        room = Room([6.0, 5.0, 3.0], 0.3)
        mics = np.array([3.0, 2.5, 1.2]) + default_array().positions
        dry = np.random.default_rng(45).normal(size=len(points) * 1600)
        # a t_max past T60 gives about 30k images per parity block, so even a
        # static source's single RIR set is large
        return render_moving_source(dry, points, mics, room, FS, t_max=0.5, hop=1600).channels

    def _threaded(self, monkeypatch, points):
        submitted = []

        class CountingPool(roomsim.ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                submitted.append(args)
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(roomsim, "ThreadPoolExecutor", CountingPool)
        monkeypatch.setattr(roomsim, "_worker_count", lambda: 4)  # more threads than cores
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            return self._render(points), submitted
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("static", [False, True])
    def test_pool_equals_serial(self, monkeypatch, static):
        points = np.tile(self.POINTS[0], (3, 1)) if static else self.POINTS
        monkeypatch.setattr(roomsim, "_worker_count", lambda: 1)
        serial = self._render(points)
        threaded, submitted = self._threaded(monkeypatch, points)
        # every RIR set goes to the pool: a static source is one set, the
        # moving one 5 sets
        assert len(submitted) == (1 if static else 5)
        assert threaded.dtype == np.float32
        np.testing.assert_array_equal(threaded, serial)

    def test_error_in_a_pool_thread_reaches_the_caller(self, monkeypatch):
        rirs_for_point = roomsim._rirs_for_point
        failure = RuntimeError("second RIR set")

        def failing(room, src, *args):
            if np.array_equal(src, self.POINTS[1]):
                raise failure
            return rirs_for_point(room, src, *args)

        monkeypatch.setattr(roomsim, "_rirs_for_point", failing)
        with pytest.raises(RuntimeError) as info:
            self._threaded(monkeypatch, self.POINTS)
        assert info.value is failure

    def test_oversized_image_grid_is_rejected_before_any_set(self, monkeypatch):
        def never(*args):
            raise AssertionError("an RIR set was started")

        monkeypatch.setattr(roomsim, "_rirs_for_point", never)
        mics = np.array([3.0, 2.5, 1.2]) + default_array().positions
        dry = np.zeros(len(self.POINTS) * 1600)
        with pytest.raises(ImageGridTooLarge, match=r"t_max 30.0 s needs \d+ grid images per parity block"):
            render_moving_source(dry, self.POINTS, mics, Room([6.0, 5.0, 3.0], 30.0), FS, hop=1600)
        # the largest default training draw stays well below the cap
        assert np.prod(2 * image_counts([3.0, 3.0, 2.5], 1.3) + 1) < roomsim.MAX_GRID_IMAGES / 8


class TestSegmentConvolutionMatchesFftconvolve:
    """_convolve_segment takes fftconvolve's steps, so it gives its bits."""

    @pytest.mark.parametrize(
        "n_samples,n_taps",
        # RIR lengths: T60 0.25 s (train), T60 0.7 s (eval), t_max 0.032 s (track)
        [(3136, 4000), (3122, 11200), (3136, 512), (1, 4000), (700, 1)],
        ids=["train", "eval", "track", "one-sample-segment", "one-tap"],
    )
    def test_bit_identical(self, n_samples, n_taps):
        rng = np.random.default_rng(n_samples + n_taps)
        segment = rng.normal(size=n_samples)
        rirs = rng.normal(size=(12, n_taps)) * np.exp(-np.arange(n_taps) / 800.0)
        wet = roomsim._convolve_segment(segment, rirs)
        assert wet.shape == (12, n_samples + n_taps - 1)
        assert np.array_equal(wet, convolve_segment_fftconvolve(segment, rirs))


class TestRenderMovingSource:
    def _room(self):
        return Room([5.0, 4.0, 3.0], 0.25)

    def test_static_equals_single_rir_convolution(self):
        room = self._room()
        rng = np.random.default_rng(40)
        dry = rng.normal(size=FS)  # 1 s
        point = np.array([2.0, 2.0, 1.5])
        mics = np.array([[3.0, 2.0, 1.4], [3.0, 2.1, 1.4]])
        out = render_moving_source(dry, np.tile(point, (5, 1)), mics, room, FS, t_max=0.25, hop=FS // 5,
                                   dtype=np.float64)
        rir0 = single_rir(room, point, mics[0], t_max=0.25)
        ref = np.convolve(dry, rir0)[: len(dry)]
        err = np.linalg.norm(out.channels[0] - ref) / np.linalg.norm(ref)
        assert err < 1e-6

    def test_impulse_at_segment_start_gives_that_rir(self):
        room = self._room()
        points = np.array([[1.5, 2.0, 1.5], [3.5, 1.0, 1.0], [2.0, 3.0, 2.0]])
        mic = np.array([[2.5, 2.0, 1.4]])
        hop = 2000
        dry = np.zeros(3 * hop)
        dry[hop] = 1.0  # impulse at the start of segment 1
        out = render_moving_source(dry, points, mic, room, FS, t_max=0.1, hop=hop, dtype=np.float64)
        rir1 = single_rir(room, points[1], mic[0], t_max=0.1)
        expected = np.zeros(len(dry))
        n = min(len(rir1), len(dry) - hop)
        expected[hop : hop + n] = rir1[:n]
        np.testing.assert_allclose(out.channels[0], expected, atol=1e-12)

    def test_superposition(self):
        room = self._room()
        rng = np.random.default_rng(41)
        points = np.array([[1.5, 2.0, 1.5], [3.5, 1.0, 1.0]])
        mic = np.array([[2.5, 2.0, 1.4]])
        a = rng.normal(size=8000)
        b = rng.normal(size=8000)
        kw = dict(t_max=0.1, hop=4000, dtype=np.float64)
        out_a = render_moving_source(a, points, mic, room, FS, **kw).channels
        out_b = render_moving_source(b, points, mic, room, FS, **kw).channels
        out_ab = render_moving_source(a + 2.0 * b, points, mic, room, FS, **kw).channels
        err = np.linalg.norm(out_ab - out_a - 2.0 * out_b) / np.linalg.norm(out_ab)
        assert err < 1e-9

    def test_trajectory_point_outside_rejected(self):
        room = self._room()
        with pytest.raises(OutOfRoom):
            render_moving_source(
                np.zeros(4000),
                np.array([[1.0, 1.0, 1.0], [6.0, 1.0, 1.0]]),
                np.array([[2.0, 2.0, 1.0]]),
                room,
                FS,
                t_max=0.1,
                hop=2000,
            )

    def test_srp_argmax_follows_anechoic_motion(self):
        # source jumps between two grid directions: the per-frame map argmax
        # must follow (skipping the single frame straddling the jump)
        from srptrack.geometry import SphericalGrid, default_array, delay_table
        from srptrack.srpfeat import FramingConfig, frame_signal

        framing = FramingConfig()
        array = default_array()
        grid = SphericalGrid(8, 16)
        room = Room(dims=np.array([6.0, 5.0, 3.0]), t60=0.0)
        origin = np.array([3.0, 2.5, 1.2])
        ij_a, ij_b = (3, 4), (3, 12)
        src_a = origin + 1.5 * grid.unit_vectors()[ij_a]
        src_b = origin + 1.5 * grid.unit_vectors()[ij_b]
        points = np.array([src_a] * 4 + [src_b] * 4)
        rng = np.random.default_rng(44)
        dry = rng.normal(size=framing.hop * 8 + framing.K)
        out = render_moving_source(
            dry[: framing.hop * 8], points, origin + array.positions, room, FS, hop=framing.hop
        )
        table = delay_table(array, grid)
        maps = power_maps_windowed(frame_signal(out.channels.astype(float), framing), table, framing.fs)
        observed = [grid_argmax(m, grid)[1] for m in maps]
        for i, idx in enumerate(observed):
            if i <= 2:
                assert idx == ij_a, f"frame {i}: {idx}"
            elif i >= 4:
                assert idx == ij_b, f"frame {i}: {idx}"


class TestOverlapAddMatchesFullLengthSum:
    """The streamed overlap-add, which keeps float64 sums only where a later
    segment still reaches, gives the bits of the full-length float64 sum."""

    HOP = 700
    P = np.array([[1.5, 1.0, 1.4], [2.0, 1.6, 1.5], [2.5, 2.2, 1.6], [3.0, 2.8, 1.7], [3.5, 3.4, 1.8]])
    TRAJECTORIES = {
        "moving": P[[0, 1, 2, 3, 4, 3, 2, 1]],
        "repeats-mid-trajectory": P[[0, 1, 1, 1, 2, 3, 3, 4]],
        "static": P[[0] * 8],
    }

    @staticmethod
    def _random_rirs(room, src, mic_positions, fs, t_max):
        """Decaying noise, a different set for each source point."""
        n_taps = int(round(t_max * fs))
        rng = np.random.default_rng(np.round(src * 10).astype(int).tolist())
        return rng.normal(size=(len(mic_positions), n_taps)) * np.exp(-np.arange(n_taps) / 900.0)

    def _dry(self, n):
        dry = np.random.default_rng(46).normal(size=n)
        # silent spans: their wet signal holds exact zeros of either sign
        dry[900:2400] = 0.0
        dry[-800:] = 0.0
        return dry

    def _assert_same_bits(self, dry, points, mics, room, t_max, hop, dtype):
        kw = dict(t_max=t_max, hop=hop, dtype=dtype)
        out = render_moving_source(dry, points, mics, room, FS, **kw).channels
        ref = render_moving_source_full_length(dry, points, mics, room, FS, **kw).channels
        assert out.dtype == ref.dtype == dtype
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_random_rirs(self, monkeypatch, dtype, workers):
        monkeypatch.setattr(roomsim, "_rirs_for_point", self._random_rirs)
        monkeypatch.setattr(roomsim, "_worker_count", lambda: workers)
        room = Room([6.0, 5.0, 3.0], 0.3)
        mics = np.array([[3.0, 2.5, 1.2], [3.1, 2.5, 1.2], [3.0, 2.6, 1.3]])
        # 4000 taps span more than five hops, 300 taps less than one, and a
        # one-tap set takes _convolve_segment's plain product
        for n_taps in (4000, 300, 1):
            for name, points in self.TRAJECTORIES.items():
                # the last segment 2200 samples long, then every segment 700
                for n in (8 * self.HOP + 1500, 8 * self.HOP):
                    try:
                        self._assert_same_bits(self._dry(n), points, mics, room, n_taps / FS, self.HOP, dtype)
                    except AssertionError as e:
                        raise AssertionError(f"{name}, {n_taps} taps, {n} samples") from e

    @pytest.mark.parametrize("workers", [1, 4])
    def test_image_source_rirs(self, monkeypatch, workers):
        monkeypatch.setattr(roomsim, "_worker_count", lambda: workers)
        mics = np.array([3.0, 2.5, 1.2]) + default_array().positions[:4]
        points = self.TRAJECTORIES["repeats-mid-trajectory"]
        dry = self._dry(8 * self.HOP + 1500)
        self._assert_same_bits(dry, points, mics, Room([6.0, 5.0, 3.0], 0.3), 0.2, self.HOP, np.float32)


class TestSynthesisMemory:
    """Rendering keeps its float64 sums to a window and add_noise works one
    channel (and one voiced frame) at a time, so a scene never needs a
    full-length float64 copy. A full-length float64 sum and its float32 cast
    alone come to 3x the float32 output; a full-length float64 noise draw
    and noisy sum to 4x more. Measured: the streamed pair peaks at 2.3x."""

    def test_peak_a_small_multiple_of_the_output(self, monkeypatch):
        import tracemalloc

        import scipy.fft  # noqa: F401  (render's first import is not the scene's memory)

        monkeypatch.setattr(roomsim, "_worker_count", lambda: 1)
        framing = FramingConfig()
        room = Room([6.0, 5.0, 3.0], 0.3)
        mics = np.array([3.0, 2.5, 1.2]) + default_array().positions
        n_points = 40
        points = np.linspace([1.5, 1.0, 1.4], [4.5, 4.0, 1.8], n_points)
        dry = np.random.default_rng(47).normal(size=8 * FS)
        output = mics.shape[0] * len(dry) * 4
        tracemalloc.start()
        try:
            # a short t_max keeps the RIR sets small beside the signals
            sig = render_moving_source(dry, points, mics, room, FS, t_max=0.05, hop=len(dry) // n_points)
            noisy = add_noise(sig, 20.0, np.ones(framing.n_frames(len(dry)), dtype=bool),
                              np.random.default_rng(0), framing)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert noisy.channels.dtype == np.float32
        assert peak < 3 * output


class TestAddNoise:
    def _sig(self, seed=42, n=FS * 4):
        rng = np.random.default_rng(seed)
        return MicSignals(channels=rng.normal(size=(2, n)).astype(np.float64), fs=FS)

    def _voiced(self, n=FS * 4):
        return np.ones(FramingConfig().n_frames(n), dtype=bool)

    def test_infinite_snr_identity(self):
        sig = self._sig()
        out = add_noise(sig, math.inf, self._voiced(), np.random.default_rng(0), FramingConfig())
        np.testing.assert_array_equal(out.channels, sig.channels)

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
    def test_nan_or_minus_infinite_snr_rejected(self, snr_db):
        with pytest.raises(ValueError, match="snr_db"):
            add_noise(self._sig(), snr_db, self._voiced(), np.random.default_rng(0), FramingConfig())

    def test_measured_snr_close(self):
        sig = self._sig(n=FS * 20)
        t = (FS * 20 - 4096) // 3072 + 1
        mask = np.ones(t, dtype=bool)
        rng = np.random.default_rng(1)
        out = add_noise(sig, 10.0, mask, rng, FramingConfig())
        noise = out.channels - sig.channels
        idx = np.arange(4096)[None, :] + 3072 * np.arange(t)[:, None]
        p_sig = np.mean(sig.channels[:, idx][:, mask] ** 2)
        p_noise = np.mean(noise[:, idx][:, mask] ** 2)
        measured = 10.0 * math.log10(p_sig / p_noise)
        assert measured == pytest.approx(10.0, abs=0.3)

    def test_deterministic_given_seed(self):
        sig = self._sig()
        out1 = add_noise(sig, 5.0, self._voiced(), np.random.default_rng(7), FramingConfig())
        out2 = add_noise(sig, 5.0, self._voiced(), np.random.default_rng(7), FramingConfig())
        np.testing.assert_array_equal(out1.channels, out2.channels)

    def test_all_silent_rejected(self):
        with pytest.raises(AllSilent):
            add_noise(self._sig(), 10.0, ~self._voiced(), np.random.default_rng(0), FramingConfig())

    @pytest.mark.parametrize("n_mask", [53, 106])
    @pytest.mark.parametrize("snr_db", [10.0, math.inf])
    def test_mask_of_another_length_rejected(self, n_mask, snr_db):
        sig = self._sig(n=FS * 20)  # 103 frames
        with pytest.raises(ValueError, match=rf"\({n_mask},\), the signal has 103 frames"):
            add_noise(sig, snr_db, np.ones(n_mask, dtype=bool), np.random.default_rng(0), FramingConfig())


# the last 12 bytes of a WAVE_FORMAT_EXTENSIBLE sub-format GUID; its first 4 are the format tag
GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def riff_chunk(name: bytes, payload: bytes) -> bytes:
    """One chunk: its id, its size, its payload and a pad byte after an odd payload."""
    return name + struct.pack("<I", len(payload)) + payload + b"\0" * (len(payload) % 2)


def write_wav_by_hand(path, data: bytes, *, channels=1, bits=16, tag=1, width=None, align=None,
                      extensible=False, before_data=b"", after_data=b"", form=b"RIFF", fs=FS):
    """A WAV file built with struct: the ``fmt `` chunk, the ``before_data``
    chunks, the data chunk holding ``data``, then ``after_data``. ``width``
    is the bytes per sample (by default the fewest that hold ``bits``) and
    ``align`` the block align (by default ``channels * width``)."""
    width = width or -(-bits // 8)
    align = channels * width if align is None else align
    fmt = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, channels, fs, fs * align, align, bits)
    if extensible:
        fmt += struct.pack("<HHII", 22, bits, 0, tag) + GUID_TAIL
    body = b"WAVE" + riff_chunk(b"fmt ", fmt) + before_data + riff_chunk(b"data", data) + after_data
    path.write_bytes(form + struct.pack("<I", len(body)) + body)
    return path


def pcm24_bytes(values) -> bytes:
    return b"".join(int(v).to_bytes(3, "little", signed=True) for v in np.ravel(values))


class TestWavRoundTrip:
    def test_float32_bit_exact(self, tmp_path):
        rng = np.random.default_rng(43)
        sig = MicSignals(channels=rng.normal(size=(3, 1000)).astype(np.float32), fs=FS)
        path = tmp_path / "sig.wav"
        sig.to_wav(path)
        back = MicSignals.from_wav(path)
        assert back.fs == FS
        np.testing.assert_array_equal(back.channels, sig.channels)

    def test_uint8_centred_on_128(self, tmp_path):
        path = tmp_path / "u8.wav"
        wavfile.write(path, FS, np.array([[0, 128], [255, 64]], dtype=np.uint8))
        back = MicSignals.from_wav(path)
        np.testing.assert_array_equal(back.channels, [[-1.0, 127 / 128], [0.0, -0.5]])

    def test_int16_full_scale(self, tmp_path):
        path = tmp_path / "i16.wav"
        wavfile.write(path, FS, np.array([-32768, 0, 16384], dtype=np.int16))
        np.testing.assert_array_equal(MicSignals.from_wav(path).channels, [[-1.0, 0.0, 0.5]])

    @pytest.mark.parametrize("dtype,offset,scale", [(np.float32, 0, 1), (np.int16, 0, 2**15),
                                                    (np.int32, 0, 2**31), (np.uint8, 128, 128)])
    def test_channels_are_row_major(self, tmp_path, dtype, offset, scale):
        # the file interleaves its 12 channels; each must come back as one contiguous row
        path = tmp_path / "rows.wav"
        rows = np.arange(12 * 5).reshape(12, 5) + offset
        wavfile.write(path, FS, rows.T.astype(dtype))
        channels = MicSignals.from_wav(path).channels
        assert channels.dtype == np.float32 and channels.flags.c_contiguous
        np.testing.assert_array_equal(channels, (rows - offset) / scale)

    @pytest.mark.parametrize(
        "blob",
        [b"", b"hello, this is not a wav file", b"RIFF\x24\x00\x00\x00WAVEfmt \x10\x00"],
        ids=["empty", "text", "truncated-header"],
    )
    def test_unreadable_file_rejected(self, tmp_path, blob):
        path = tmp_path / "bad.wav"
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            MicSignals.from_wav(path)

    def test_cut_on_a_frame_boundary_rejected(self, tmp_path):
        path = tmp_path / "full.wav"
        MicSignals(channels=np.zeros((12, 2 * FS), dtype=np.float32), fs=FS).to_wav(path)
        blob = path.read_bytes()
        header = len(blob) - 12 * 4 * 2 * FS
        cut = tmp_path / "cut.wav"
        cut.write_bytes(blob[: header + 12 * 4 * FS])  # one second of whole sample frames
        with pytest.raises(FormatError, match="Reached EOF prematurely"):
            MicSignals.from_wav(cut)

    def test_unknown_chunk_skipped_without_a_warning(self, tmp_path):
        rng = np.random.default_rng(47)
        sig = MicSignals(channels=rng.normal(size=(2, 500)).astype(np.float32), fs=FS)
        path = tmp_path / "extra.wav"
        sig.to_wav(path)
        blob = bytearray(path.read_bytes())
        blob += b"zzzz" + (4).to_bytes(4, "little") + b"\0\1\2\3"
        blob[4:8] = (len(blob) - 8).to_bytes(4, "little")  # RIFF size covers the new chunk
        path.write_bytes(bytes(blob))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = MicSignals.from_wav(path)
        np.testing.assert_array_equal(back.channels, sig.channels)

    def test_24bit_pcm_is_left_justified(self, tmp_path):
        # read as the int32 v * 2**8, then scaled by 2**-31
        frames = np.array([[-2**23, 0], [1, 2**23 - 1], [-1, 2**22]])
        path = write_wav_by_hand(tmp_path / "i24.wav", pcm24_bytes(frames), channels=2, bits=24)
        channels = MicSignals.from_wav(path).channels
        assert channels.dtype == np.float32
        np.testing.assert_array_equal(channels, frames.T / 2**23)

    @pytest.mark.parametrize("tag,bits,dtype,scale", [(1, 16, "<i2", 2**15), (1, 32, "<i4", 2**31),
                                                      (3, 32, "<f4", 1), (3, 64, "<f8", 1)],
                             ids=["pcm16", "pcm32", "float32", "float64"])
    def test_extensible_format(self, tmp_path, tag, bits, dtype, scale):
        rows = np.array([[-3, 0, 5], [7, -128, 64]])
        path = write_wav_by_hand(tmp_path / "ext.wav", rows.T.astype(dtype).tobytes(), channels=2,
                                 bits=bits, tag=tag, extensible=True)
        np.testing.assert_array_equal(MicSignals.from_wav(path).channels, rows / scale)

    def test_float64_rounded_to_float32(self, tmp_path):
        values = np.array([0.1, 1 / 3, -2.5e-8, 1e10, -0.7])
        path = write_wav_by_hand(tmp_path / "f64.wav", values.astype("<f8").tobytes(), bits=64, tag=3)
        channels = MicSignals.from_wav(path).channels
        assert channels.dtype == np.float32
        np.testing.assert_array_equal(channels, [values.astype(np.float32)])

    def test_list_chunk_before_data_skipped(self, tmp_path):
        rows = np.array([[0.5, -0.25], [1.0, 0.125]], dtype=np.float32)
        info = riff_chunk(b"LIST", b"INFO" + riff_chunk(b"ISFT", b"srptrack\0"))
        path = write_wav_by_hand(tmp_path / "list.wav", rows.T.tobytes(), channels=2, bits=32, tag=3,
                                 before_data=info)
        np.testing.assert_array_equal(MicSignals.from_wav(path).channels, rows)

    def test_odd_length_chunk_and_its_pad_byte_skipped(self, tmp_path):
        rows = np.array([[-32768, 16384, 1]])
        junk = riff_chunk(b"JUNK", b"abc")
        assert len(junk) == 12  # 8 bytes of header, 3 of payload, 1 pad byte
        path = write_wav_by_hand(tmp_path / "odd.wav", rows.T.astype("<i2").tobytes(), before_data=junk)
        np.testing.assert_array_equal(MicSignals.from_wav(path).channels, rows / 2**15)

    def test_int64_samples_rejected(self, tmp_path):
        path = tmp_path / "i64.wav"
        wavfile.write(path, FS, np.zeros((100, 2), dtype=np.int64))
        with pytest.raises(FormatError, match="int64"):
            MicSignals.from_wav(path)

    @pytest.mark.parametrize("form", [b"RIFX", b"RF64"], ids=["rifx", "rf64"])
    def test_other_containers_rejected(self, tmp_path, form):
        path = write_wav_by_hand(tmp_path / "form.wav", b"\0\0", form=form)
        with pytest.raises(FormatError, match=f"{form.decode()} files are not supported"):
            MicSignals.from_wav(path)

    @pytest.mark.parametrize(
        "fmt,data,match",
        [
            (dict(tag=6, bits=8), b"\0" * 4, "format tag 0x0006 with 8-bit samples"),
            (dict(tag=3, bits=16), b"\0" * 4, "format tag 0x0003 with 16-bit samples in 2 bytes"),
            (dict(tag=3, bits=32, width=8), b"\0" * 16, "format tag 0x0003 with 32-bit samples in 8 bytes"),
            (dict(bits=64), b"\0" * 16, r"8-byte PCM samples \(int64\)"),
            (dict(bits=40, width=5), b"\0" * 10, r"5-byte PCM samples \(int40\)"),
            (dict(bits=16, width=1), b"\0" * 4, "16-bit samples in 1 bytes"),
            (dict(bits=8, width=2), b"\0" * 4, "8-bit samples in 2 bytes"),
            (dict(bits=0, width=2), b"\0" * 4, "0-bit samples"),
            (dict(channels=0), b"\0" * 4, "0 channels at 16000 Hz"),
            (dict(fs=0), b"\0" * 4, "1 channels at 0 Hz"),
            (dict(channels=2, align=3), b"\0" * 6, "block align of 3 bytes"),
            (dict(align=0), b"\0" * 4, "block align of 0 bytes"),
        ],
        ids=["alaw", "float16", "float32-in-8", "pcm64", "pcm40", "pcm16-in-1", "pcm8-in-2", "pcm0",
             "no-channels", "zero-rate", "align-3-for-2", "align-0"],
    )
    def test_unsupported_encoding_rejected(self, tmp_path, fmt, data, match):
        path = write_wav_by_hand(tmp_path / "enc.wav", data, **fmt)
        with pytest.raises(FormatError, match=match):
            MicSignals.from_wav(path)

    def test_unknown_extensible_subformat_rejected(self, tmp_path):
        path = write_wav_by_hand(tmp_path / "ext.wav", b"\0" * 4, bits=16, extensible=True)
        blob = bytearray(path.read_bytes())
        blob[blob.index(GUID_TAIL)] ^= 1  # not the PCM GUID any more
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="format tag 0xfffe"):
            MicSignals.from_wav(path)

    def test_data_before_fmt_rejected(self, tmp_path):
        body = b"WAVE" + riff_chunk(b"data", b"\0" * 4) + riff_chunk(b"fmt ", struct.pack("<HHIIHH", 1, 1, FS, 2 * FS, 2, 16))
        path = tmp_path / "late.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(FormatError, match="no 'fmt ' chunk before the data chunk"):
            MicSignals.from_wav(path)

    def test_to_wav_writes_the_bytes_scipy_writes(self, tmp_path):
        # float64 rows are rounded to float32, as they were before
        channels = np.random.default_rng(49).normal(size=(3, 1001))
        MicSignals(channels=channels, fs=FS).to_wav(tmp_path / "ours.wav")
        wavfile.write(tmp_path / "scipy.wav", FS, channels.T.astype(np.float32))
        assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fs, rows = wav_rows_scipy(tmp_path / "ours.wav")
        assert fs == FS
        np.testing.assert_array_equal(rows, channels.astype(np.float32))
        np.testing.assert_array_equal(MicSignals.from_wav(tmp_path / "ours.wav").channels, rows)


def _random_samples(rng, n_frames, channels, tag, width):
    """Sample bytes of every value a format can hold: random bytes for PCM,
    normal floats (no NaN) for IEEE float."""
    if tag == 3:
        return rng.normal(scale=0.5, size=n_frames * channels).astype(f"<f{width}").tobytes()
    return rng.integers(0, 256, size=n_frames * channels * width, dtype=np.uint8).tobytes()


# name: the fmt chunk's keywords for write_wav_by_hand
ORACLE_FORMATS = {
    "pcm8": dict(bits=8),
    "pcm16": dict(bits=16),
    "pcm24": dict(bits=24),
    "pcm32": dict(bits=32),
    "pcm12-in-2": dict(bits=12, width=2),
    "pcm20-in-3": dict(bits=20, width=3),
    "pcm20-in-4": dict(bits=20, width=4),
    "float32": dict(tag=3, bits=32),
    "float64": dict(tag=3, bits=64),
    "extensible-pcm8": dict(bits=8, extensible=True),
    "extensible-pcm16": dict(bits=16, extensible=True),
    "extensible-pcm24": dict(bits=24, extensible=True),
    "extensible-pcm32": dict(bits=32, extensible=True),
    "extensible-float32": dict(tag=3, bits=32, extensible=True),
    "extensible-float64": dict(tag=3, bits=64, extensible=True),
}


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("name", list(ORACLE_FORMATS))
def test_wav_rows_match_scipy_reader(tmp_path, name, channels):
    """Every format SciPy reads comes back with the bits of scipy.io.wavfile
    plus the scaling the package applied to its output."""
    fmt = ORACLE_FORMATS[name]
    width = fmt.get("width") or fmt["bits"] // 8
    rng = np.random.default_rng(sorted(ORACLE_FORMATS).index(name) + 100 * channels)
    data = _random_samples(rng, 257, channels, fmt.get("tag", 1), width)
    path = write_wav_by_hand(tmp_path / f"{name}.wav", data, channels=channels, **fmt)
    fs, expected = wav_rows_scipy(path)
    got = MicSignals.from_wav(path)
    assert got.fs == fs == FS and got.channels.dtype == np.float32 and got.channels.flags.c_contiguous
    assert got.channels.shape == expected.shape == (channels, 257)
    np.testing.assert_array_equal(got.channels.view(np.uint32), expected.view(np.uint32))


@pytest.mark.parametrize(
    "layout",
    [
        dict(before_data=riff_chunk(b"JUNK", b"x" * 7) + riff_chunk(b"fact", struct.pack("<I", 257))),
        dict(before_data=riff_chunk(b"bext", b"odd")),
        dict(after_data=riff_chunk(b"LIST", b"INFO")),
    ],
    ids=["junk-odd-and-fact", "unknown-odd", "list-after-data"],
)
def test_skipped_chunks_match_scipy_reader(tmp_path, layout):
    data = np.random.default_rng(51).integers(0, 256, size=257 * 2 * 2, dtype=np.uint8).tobytes()
    path = write_wav_by_hand(tmp_path / "chunks.wav", data, channels=2, **layout)
    with warnings.catch_warnings():
        # SciPy warns about a chunk it does not know; the rows are what is compared
        warnings.simplefilter("ignore")
        _, expected = wav_rows_scipy(path)
    np.testing.assert_array_equal(MicSignals.from_wav(path).channels.view(np.uint32), expected.view(np.uint32))


class TestReadRecording:
    def test_first_non_finite_sample_named(self, tmp_path):
        # the report names the lowest channel holding a bad sample, then its first one
        channels = np.zeros((12, FS), dtype=np.float32)
        channels[7, 100] = np.nan
        channels[3, 9000] = np.inf
        channels[3, 12000] = -np.inf
        MicSignals(channels=channels, fs=FS).to_wav(tmp_path / "bad.wav")
        with pytest.raises(FormatError, match=r"bad\.wav has a non-finite value at channel 3, sample 9000$"):
            roomsim.read_recording(tmp_path / "bad.wav", 12)
