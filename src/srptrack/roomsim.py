"""Shoebox-room impulse responses and moving-source rendering.

RIRs are synthesized with the image source method: every mirror image of the
source deposits an attenuated, distance-delayed pulse shaped by an 81-tap
Hann-windowed sinc. Deposits land on a 16x oversampled time grid, so
fractional delays are quantized to 1/16 sample. The kernel is applied in
polyphase form: each of the 16 deposit phases is an output-rate signal
convolved with its own 81-tap slice of the oversampled kernel, which gives
the oversampled convolution's output samples without computing the others.

Image coordinates and gains are computed once per wall parity, and images
too far from the array centre to reach any microphone within ``t_max`` are
dropped before the per-microphone pass. Within one parity block the
microphones are split into contiguous groups, one per usable core; every
group writes only its own microphones' rows, so the result is the same for
any number of threads.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import fft as sp_fft
from scipy.io import wavfile
from scipy.signal import fftconvolve

from .errors import AllSilent, NonPhysicalT60Warning, OutOfRoom
from .geometry import SPEED_OF_SOUND, as_vec3
from .srpfeat import frame_indices

SINC_HALF_WIDTH = 40  # taps each side at the output rate (81-tap kernel)
OVERSAMPLE = 16

_MAX_BETA = 1.0 - 1e-9


@dataclass(frozen=True, eq=False)
class Room:
    """Shoebox room with a uniform wall reflection magnitude."""

    dims: np.ndarray  # (3,) metres
    t60: float
    beta: float

    def __post_init__(self):
        dims = as_vec3(self.dims)
        if np.any(dims <= 0):
            raise ValueError("room dimensions must be positive")
        if self.t60 < 0:
            raise ValueError("t60 must be nonnegative")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("beta must lie in [0, 1)")
        object.__setattr__(self, "dims", dims)

    @classmethod
    def from_t60(cls, dims, t60: float) -> "Room":
        dims = as_vec3(dims)
        beta = 0.0 if t60 == 0.0 else beta_from_t60(dims, t60)
        return cls(dims=dims, t60=float(t60), beta=beta)

    def contains(self, point) -> bool:
        p = as_vec3(point)
        return bool(np.all(p > 0) and np.all(p < self.dims))


@dataclass(frozen=True, eq=False)
class Rir:
    taps: np.ndarray
    fs: float
    source_pos: np.ndarray
    mic_pos: np.ndarray


@dataclass(frozen=True, eq=False)
class MicSignals:
    """Multichannel time series, one row per microphone."""

    channels: np.ndarray  # (n_mics, n_samples)
    fs: int

    def __post_init__(self):
        ch = np.atleast_2d(np.asarray(self.channels))
        object.__setattr__(self, "channels", ch)

    @property
    def n_samples(self) -> int:
        return self.channels.shape[1]

    def to_wav(self, path) -> None:
        wavfile.write(path, int(self.fs), self.channels.T.astype(np.float32))

    @classmethod
    def from_wav(cls, path) -> "MicSignals":
        fs, data = wavfile.read(path)
        if data.ndim == 1:
            data = data[:, None]
        if data.dtype == np.int16:
            data = data.astype(np.float32) / 32768.0
        elif data.dtype == np.int32:
            data = data.astype(np.float32) / 2147483648.0
        return cls(channels=data.T.astype(np.float32), fs=int(fs))


def beta_from_t60(dims, t60: float) -> float:
    """Uniform wall reflection magnitude from a Sabine inversion."""
    dims = as_vec3(dims)
    if t60 <= 0:
        raise ValueError("t60 must be positive")
    volume = float(np.prod(dims))
    surface = 2.0 * (dims[0] * dims[1] + dims[0] * dims[2] + dims[1] * dims[2])
    alpha = 0.161 * volume / (surface * t60)
    if alpha >= 1.0:
        warnings.warn(
            f"t60={t60} s is not achievable in this room (alpha={alpha:.3f} clamped)",
            NonPhysicalT60Warning,
        )
    alpha = min(max(alpha, 0.0), 0.9999)
    return min(math.sqrt(1.0 - alpha), _MAX_BETA)


def image_counts(dims, t_max: float, c: float = SPEED_OF_SOUND) -> np.ndarray:
    """Mirrored-room repetitions per axis needed to cover ``t_max``."""
    dims = as_vec3(dims)
    return np.ceil(c * t_max / (2.0 * dims)).astype(int)


def _sinc_kernel_up() -> np.ndarray:
    """Hann-windowed sinc on the oversampled grid."""
    half = SINC_HALF_WIDTH * OVERSAMPLE
    i = np.arange(-half, half + 1)
    window = 0.5 * (1.0 + np.cos(np.pi * i / half))
    return window * np.sinc(i / OVERSAMPLE)


_KERNEL_UP = _sinc_kernel_up()


def _polyphase_kernel() -> np.ndarray:
    """Sub-kernel per oversampling phase: row r, column k + 40 is ``_KERNEL_UP[16 k + 640 - r]``."""
    half = SINC_HALF_WIDTH * OVERSAMPLE
    k = np.arange(-SINC_HALF_WIDTH, SINC_HALF_WIDTH + 1)
    idx = OVERSAMPLE * k[None, :] + half - np.arange(OVERSAMPLE)[:, None]
    valid = (idx >= 0) & (idx < len(_KERNEL_UP))
    return np.where(valid, _KERNEL_UP[np.clip(idx, 0, len(_KERNEL_UP) - 1)], 0.0)


_KERNEL_PHASES = _polyphase_kernel()

# Images per parity block below which the block runs on the calling thread
# alone. On 2 cores (6x5x3 m room, default array), splitting a block lost
# time up to 15k images, was mixed at 17k, and saved 13-25 % from 20k on.
_MIN_SPLIT_WORK = 20_000


def _worker_count() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _MicGroups:
    """Contiguous microphone groups, one per usable core.

    ``run(fn, work)`` calls ``fn(lo, hi)`` for every group: pool threads take
    all groups but the last, which the calling thread runs. Each call must
    write only the rows of its own microphones, so the result does not depend
    on how the microphones are split.
    """

    def __init__(self, n_mics: int):
        n_groups = max(1, min(_worker_count(), n_mics))
        self._bounds = np.linspace(0, n_mics, n_groups + 1).round().astype(int)
        self._pool = ThreadPoolExecutor(n_groups - 1) if n_groups > 1 else None

    def run(self, fn, work: int) -> None:
        if self._pool is None or work < _MIN_SPLIT_WORK:
            fn(self._bounds[0], self._bounds[-1])
            return
        futures = [self._pool.submit(fn, lo, hi) for lo, hi in zip(self._bounds[:-2], self._bounds[1:-1])]
        try:
            fn(self._bounds[-2], self._bounds[-1])
        finally:
            wait(futures)
        for future in futures:
            future.result()

    def __enter__(self) -> "_MicGroups":
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown()


@lru_cache(maxsize=8)
def _kernel_spectra(n_fft: int) -> np.ndarray:
    spectra = sp_fft.rfft(_KERNEL_PHASES, n=n_fft, axis=1)
    spectra.flags.writeable = False
    return spectra


def _deposit_to_rirs(hist: np.ndarray, n_taps: int) -> np.ndarray:
    """Apply the sinc kernel to oversampled impulse deposits, at the output rate.

    ``hist`` holds ``OVERSAMPLE * (n_taps + 1)`` deposits per microphone.
    Output tap n is the oversampled convolution read at ``16 n + 640``, so
    deposit ``16 i + r`` reaches it only through ``_KERNEL_UP[16 (n - i) + 640
    - r]``: each phase r is an output-rate signal convolved with an 81-tap
    sub-kernel, and the 16 results are summed in the frequency domain.
    """
    n_mics = hist.shape[0]
    n_fft = sp_fft.next_fast_len(n_taps + 2 * SINC_HALF_WIDTH + 1, real=True)
    spectra = _kernel_spectra(n_fft)
    out = np.empty((n_mics, n_taps))
    for m in range(n_mics):
        phases = hist[m].reshape(n_taps + 1, OVERSAMPLE).T
        spectrum = (sp_fft.rfft(phases, n=n_fft, axis=1) * spectra).sum(axis=0)
        out[m] = sp_fft.irfft(spectrum, n=n_fft)[SINC_HALF_WIDTH : SINC_HALF_WIDTH + n_taps]
    return out


def _rirs_for_point(
    room: Room,
    src: np.ndarray,
    mic_positions: np.ndarray,
    fs: float,
    t_max: float,
    c: float,
    groups: _MicGroups,
) -> np.ndarray:
    """Image-source RIRs from one source point to every microphone."""
    n_mics = mic_positions.shape[0]
    n_taps = int(round(t_max * fs))
    n_up = n_taps * OVERSAMPLE + 1
    # t_max * fs rounds to n_taps, so an image within max_dist lands at most
    # half a sample past tap n_taps: every slot it reaches is a column here.
    # Slots from n_up on are past the last tap and are cleared after deposits.
    hist = np.zeros((n_mics, (n_taps + 1) * OVERSAMPLE))
    max_dist = c * t_max

    if room.beta == 0.0:
        # fully absorbing walls: only the direct path survives
        d = np.linalg.norm(mic_positions - src, axis=1)
        q = np.rint(d / c * fs * OVERSAMPLE).astype(int)
        keep = q < n_up
        np.add.at(hist, (np.arange(n_mics)[keep], q[keep]), 1.0 / (4.0 * np.pi * d[keep]))
        return _deposit_to_rirs(hist, n_taps)

    counts = image_counts(room.dims, t_max, c)
    grids = [np.arange(-n, n + 1) for n in counts]
    # per axis and wall-parity: image coordinate and reflection count
    coords = [[(1 - 2 * p) * src[a] + 2 * grids[a] * room.dims[a] for p in (0, 1)] for a in range(3)]
    expos = [[np.abs(grids[a] + p) + np.abs(grids[a]) for p in (0, 1)] for a in range(3)]
    log_beta = math.log(room.beta)
    # an image farther than this from the array centre is beyond max_dist of
    # every microphone; the slack keeps rounding from dropping one that is not
    centre = mic_positions.mean(axis=0)
    reach = max_dist + np.linalg.norm(mic_positions - centre, axis=1).max() + 1e-6

    for px in (0, 1):
        for py in (0, 1):
            for pz in (0, 1):
                x, y, z = coords[0][px], coords[1][py], coords[2][pz]
                near = (
                    ((x - centre[0]) ** 2)[:, None, None]
                    + ((y - centre[1]) ** 2)[None, :, None]
                    + ((z - centre[2]) ** 2)[None, None, :]
                ) <= reach**2
                ix, iy, iz = np.nonzero(near)
                xs, ys, zs = x[ix], y[iy], z[iz]
                gain = np.exp(log_beta * (expos[0][px][ix] + expos[1][py][iy] + expos[2][pz][iz]))

                def deposit(lo, hi):
                    for m in range(lo, hi):
                        d = np.sqrt(
                            (xs - mic_positions[m, 0]) ** 2
                            + (ys - mic_positions[m, 1]) ** 2
                            + (zs - mic_positions[m, 2]) ** 2
                        )
                        keep = d <= max_dist
                        dk = d[keep]
                        amp = gain[keep] / (4.0 * np.pi * np.maximum(dk, 1e-9))
                        q = np.rint(dk / c * fs * OVERSAMPLE).astype(int)
                        hist[m] += np.bincount(q, weights=amp, minlength=hist.shape[1])

                groups.run(deposit, len(xs))
    hist[:, n_up:] = 0.0
    return _deposit_to_rirs(hist, n_taps)


def simulate_rir(
    room: Room, src, mic, fs: float, t_max: float, c: float = SPEED_OF_SOUND
) -> Rir:
    """Image-source impulse response between one source and one microphone."""
    src = as_vec3(src)
    mic = as_vec3(mic)
    if not room.contains(src):
        raise OutOfRoom(f"source {src} outside room {room.dims}")
    if not room.contains(mic):
        raise OutOfRoom(f"microphone {mic} outside room {room.dims}")
    taps = _rirs_for_point(room, src, mic[None, :], fs, t_max, c, _MicGroups(1))[0]
    return Rir(taps=taps, fs=fs, source_pos=src, mic_pos=mic)


def render_moving_source(
    dry: np.ndarray,
    traj_points: np.ndarray,
    mic_positions: np.ndarray,
    room: Room,
    fs: int,
    t_max: float | None = None,
    hop: int | None = None,
    c: float = SPEED_OF_SOUND,
    dtype=np.float32,
) -> MicSignals:
    """Propagate a dry signal along a trajectory to every microphone.

    The dry signal is split into one contiguous segment per trajectory point;
    each segment is convolved with that point's RIR set and the results are
    overlap-added at the segments' original offsets.
    """
    dry = np.asarray(dry, dtype=float)
    traj_points = np.atleast_2d(np.asarray(traj_points, dtype=float))
    mic_positions = np.atleast_2d(np.asarray(mic_positions, dtype=float))
    n_points = traj_points.shape[0]
    for p in traj_points:
        if not room.contains(p):
            raise OutOfRoom(f"trajectory point {p} outside room {room.dims}")
    for m in mic_positions:
        if not room.contains(m):
            raise OutOfRoom(f"microphone {m} outside room {room.dims}")
    if t_max is None:
        t_max = _default_t_max(room, fs, c)
    if hop is None:
        hop = int(math.ceil(len(dry) / n_points))
    if hop * (n_points - 1) >= len(dry):
        raise ValueError(f"dry signal too short for {n_points} segments of hop {hop}")

    n_mics = mic_positions.shape[0]
    out = np.zeros((n_mics, len(dry)), dtype=float)
    with _MicGroups(n_mics) as groups:
        # group identical consecutive points (static sources collapse to one RIR set)
        start = 0
        while start < n_points:
            stop = start + 1
            while stop < n_points and np.array_equal(traj_points[stop], traj_points[start]):
                stop += 1
            seg_lo = start * hop
            seg_hi = stop * hop if stop < n_points else len(dry)
            segment = dry[seg_lo:seg_hi]
            if segment.size:
                rirs = _rirs_for_point(room, traj_points[start], mic_positions, fs, t_max, c, groups)
                wet = fftconvolve(segment[None, :], rirs, axes=1)
                hi = min(seg_lo + wet.shape[1], len(dry))
                out[:, seg_lo:hi] += wet[:, : hi - seg_lo]
            start = stop
    return MicSignals(channels=out.astype(dtype), fs=fs)


def _default_t_max(room: Room, fs: float, c: float) -> float:
    if room.t60 > 0:
        return room.t60
    # anechoic: cover the longest direct path plus the kernel tail
    return float(np.linalg.norm(room.dims) / c + 2.0 * SINC_HALF_WIDTH / fs)


def add_noise(
    sig: MicSignals,
    snr_db: float,
    vad_mask: np.ndarray,
    rng: np.random.Generator,
    window_len: int = 4096,
    hop: int = 3072,
) -> MicSignals:
    """Add white Gaussian noise at an SNR measured over the non-silent frames."""
    if math.isinf(snr_db):
        return MicSignals(channels=sig.channels.copy(), fs=sig.fs)
    vad_mask = np.asarray(vad_mask, dtype=bool)
    if not vad_mask.any():
        raise AllSilent("cannot set an SNR with every frame silent")
    frames = sig.channels[:, frame_indices(len(vad_mask), window_len, hop)]  # (n_ch, T, K)
    p_sig = float(np.mean(frames[:, vad_mask] ** 2))
    sigma = math.sqrt(p_sig * 10.0 ** (-snr_db / 10.0))
    noise = rng.normal(0.0, sigma, size=sig.channels.shape)
    return MicSignals(channels=(sig.channels + noise).astype(sig.channels.dtype), fs=sig.fs)
