"""Shoebox-room impulse responses and moving-source rendering.

RIRs are synthesized with the image source method: every mirror image of the
source deposits an attenuated, distance-delayed pulse shaped by an 81-tap
Hann-windowed sinc. Deposits land on a 16x oversampled time grid, so
fractional delays are quantized to 1/16 sample. The kernel is applied in
polyphase form: each of the 16 deposit phases is an output-rate signal
convolved with its own 81-tap slice of the oversampled kernel, which gives
the oversampled convolution's output samples without computing the others.

Every room, anechoic ones included, runs the same image pass. An image's
gain is beta to the power of its wall reflections, a product of per-axis
factors tabulated once per wall parity; images with a zero gain, or too far
from the array centre to reach any microphone within ``t_max``, are dropped
before the per-microphone pass. A moving source needs one RIR set per
trajectory point, and these sets are independent: one thread pool maps them
over all usable cores (a static source is one set on one worker thread),
while the calling thread convolves the segments and overlap-adds them in
trajectory order, so the result is the same for any number of threads. A
segment is convolved with its RIR set by real FFTs of ``scipy.fft``, in the
steps SciPy's ``fftconvolve`` takes, so the package does not import SciPy's
signal module (which loads ``scipy.stats`` and costs most of a process start).
"""

from __future__ import annotations

import itertools
import math
import os
import struct
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import fft as sp_fft
from scipy.io import wavfile

from .errors import AllSilent, FormatError, ImageGridTooLarge, NonPhysicalT60Warning, OutOfRoom
from .geometry import SPEED_OF_SOUND, as_vec3
from .srpfeat import FramingConfig

SINC_HALF_WIDTH = 40  # taps each side at the output rate (81-tap kernel)
OVERSAMPLE = 16

_MAX_BETA = 1.0 - 1e-9
# images per parity block; a block's cull mask takes one byte each (64 MiB at
# the cap), every image within reach tens of bytes of float64 and index
# temporaries, and the largest default draw, 3x3x2.5 m at T60 1.3 s, needs 4.1 M
MAX_GRID_IMAGES = 2**26


@dataclass(frozen=True, eq=False)
class Room:
    """Shoebox room with uniform walls, given by its size and T60. The wall
    reflection magnitude ``beta`` is 0 at T60 0 (anechoic), else sqrt(1 - alpha)
    for the absorption alpha of a Sabine inversion, clamped below 1."""

    dims: np.ndarray  # (3,) metres
    t60: float
    beta: float = field(init=False)

    def __post_init__(self):
        dims = as_vec3(self.dims)
        if np.any(dims <= 0):
            raise ValueError("room dimensions must be positive")
        t60 = float(self.t60)
        if not (math.isfinite(t60) and t60 >= 0):
            raise ValueError(f"t60 must be finite and nonnegative, got {self.t60}")
        beta = 0.0
        if t60 > 0:
            volume = float(np.prod(dims))
            surface = 2.0 * (dims[0] * dims[1] + dims[0] * dims[2] + dims[1] * dims[2])
            alpha = 0.161 * volume / (surface * t60)
            if alpha >= 1.0:
                warnings.warn(f"t60={t60} s is not achievable in this room (alpha={alpha:.3f} clamped)",
                              NonPhysicalT60Warning)
            beta = min(math.sqrt(1.0 - min(alpha, 0.9999)), _MAX_BETA)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "t60", t60)
        object.__setattr__(self, "beta", beta)


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
        """Read a WAV file; PCM samples are scaled to [-1, 1). A data chunk
        shorter than its header says is an error, not a shorter signal."""
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("error", "Reached EOF prematurely", wavfile.WavFileWarning)
                fs, data = wavfile.read(path)
        except (ValueError, struct.error, wavfile.WavFileWarning) as exc:
            raise FormatError(f"{path} is not a readable WAV file: {exc}") from exc
        if data.ndim == 1:
            data = data[:, None]
        if data.dtype == np.uint8:
            data = (data.astype(np.float32) - 128.0) / 128.0
        elif data.dtype == np.int16:
            data = data.astype(np.float32) / 32768.0
        elif data.dtype == np.int32:
            data = data.astype(np.float32) / 2147483648.0
        elif data.dtype.kind != "f":
            raise FormatError(f"{path} holds {data.dtype} samples; expected uint8, int16, int32 or float")
        # one C-contiguous row per channel: astype alone keeps the file's interleaved layout
        return cls(channels=np.ascontiguousarray(data.T, dtype=np.float32), fs=int(fs))


def read_recording(wav_path, n_channels: int, framing: FramingConfig | None = None):
    """Read a WAV of ``n_channels`` channels. Returns the signals and
    ``framing``, or without one the default framing at the file's rate.

    Raises FormatError for another channel count, a file with no samples, a
    non-finite sample, or a file rate other than ``framing.fs``.
    """
    signals = MicSignals.from_wav(wav_path)
    if signals.channels.shape[0] != n_channels:
        raise FormatError(f"{wav_path} has {signals.channels.shape[0]} channels, expected {n_channels}")
    if signals.n_samples == 0:
        raise FormatError(f"{wav_path} holds no samples")
    if not np.isfinite(signals.channels).all():
        channel, sample = np.argwhere(~np.isfinite(signals.channels))[0]
        raise FormatError(f"{wav_path} has a non-finite value at channel {channel}, sample {sample}")
    if framing is None:
        framing = FramingConfig(fs=signals.fs)
    elif framing.fs != signals.fs:
        raise FormatError(f"{wav_path} is sampled at {signals.fs} Hz, the framing expects {framing.fs} Hz")
    return signals, framing


def image_counts(dims, t_max: float) -> np.ndarray:
    """Mirrored-room repetitions per axis needed to cover ``t_max``."""
    dims = as_vec3(dims)
    return np.ceil(SPEED_OF_SOUND * t_max / (2.0 * dims)).astype(int)


def _polyphase_kernel() -> np.ndarray:
    """Sub-kernel per oversampling phase: row r, column k + 40 is the
    Hann-windowed sinc at oversampled offset ``16 k - r`` (0 past its ends)."""
    half = SINC_HALF_WIDTH * OVERSAMPLE
    k = np.arange(-SINC_HALF_WIDTH, SINC_HALF_WIDTH + 1)
    i = OVERSAMPLE * k[None, :] - np.arange(OVERSAMPLE)[:, None]
    window = 0.5 * (1.0 + np.cos(np.pi * i / half))
    return np.where(np.abs(i) <= half, window * np.sinc(i / OVERSAMPLE), 0.0)


_KERNEL_PHASES = _polyphase_kernel()

def _worker_count() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@lru_cache(maxsize=8)
def _kernel_spectra(n_fft: int) -> np.ndarray:
    spectra = sp_fft.rfft(_KERNEL_PHASES, n=n_fft, axis=1)
    spectra.flags.writeable = False
    return spectra


def _deposit_to_rirs(hist: np.ndarray, n_taps: int) -> np.ndarray:
    """Apply the sinc kernel to oversampled impulse deposits, at the output rate.

    ``hist`` holds ``OVERSAMPLE * (n_taps + 1)`` deposits per microphone.
    Output tap n is the oversampled convolution read at ``16 n + 640``, so
    deposit ``16 i + r`` reaches it only through the kernel at oversampled
    offset ``16 (n - i) - r``: each phase r is an output-rate signal convolved
    with an 81-tap sub-kernel, and the 16 results are summed in the frequency
    domain.
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
) -> np.ndarray:
    """Image-source RIRs from one source point to every microphone."""
    n_mics = mic_positions.shape[0]
    n_taps = int(round(t_max * fs))
    n_up = n_taps * OVERSAMPLE + 1
    # t_max * fs rounds to n_taps, so an image within max_dist lands at most
    # half a sample past tap n_taps: every slot it reaches is a column here.
    # Slots from n_up on are past the last tap and are cleared after deposits.
    hist = np.zeros((n_mics, (n_taps + 1) * OVERSAMPLE))
    max_dist = SPEED_OF_SOUND * t_max

    counts = image_counts(room.dims, t_max)
    # per axis and wall parity: the coordinates and gains beta ** reflections
    # of the images with a nonzero gain (0 ** 0 == 1, so an anechoic room
    # keeps its direct image and nothing else)
    axes = []
    for a, n in enumerate(np.arange(-c, c + 1) for c in counts):
        gains = [room.beta ** (np.abs(n + p) + np.abs(n)) for p in (0, 1)]
        axes.append([((1 - 2 * p) * src[a] + 2 * n[g > 0] * room.dims[a], g[g > 0]) for p, g in enumerate(gains)])
    # an image farther than this from the array centre is beyond max_dist of
    # every microphone; the slack keeps rounding from dropping one that is not
    centre = mic_positions.mean(axis=0)
    reach = max_dist + np.linalg.norm(mic_positions - centre, axis=1).max() + 1e-6

    for (x, gx), (y, gy), (z, gz) in itertools.product(*axes):
        # z moves to the right-hand side, so only the mask has the image grid's size
        dxy = ((x - centre[0]) ** 2)[:, None] + ((y - centre[1]) ** 2)[None, :]
        near = dxy[:, :, None] <= (reach**2 - (z - centre[2]) ** 2)[None, None, :]
        ix, iy, iz = np.nonzero(near)
        if not len(ix):
            continue
        xs, ys, zs = x[ix], y[iy], z[iz]
        gain = gx[ix] * gy[iy] * gz[iz]
        for m in range(n_mics):
            d = np.sqrt(
                (xs - mic_positions[m, 0]) ** 2
                + (ys - mic_positions[m, 1]) ** 2
                + (zs - mic_positions[m, 2]) ** 2
            )
            keep = d <= max_dist
            dk = d[keep]
            amp = gain[keep] / (4.0 * np.pi * np.maximum(dk, 1e-9))
            q = np.rint(dk / SPEED_OF_SOUND * fs * OVERSAMPLE).astype(int)
            hist[m] += np.bincount(q, weights=amp, minlength=hist.shape[1])
    hist[:, n_up:] = 0.0
    return _deposit_to_rirs(hist, n_taps)


def render_moving_source(
    dry: np.ndarray,
    traj_points: np.ndarray,
    mic_positions: np.ndarray,
    room: Room,
    fs: int,
    t_max: float | None = None,
    hop: int | None = None,
    dtype=np.float32,
) -> MicSignals:
    """Propagate a dry signal along a trajectory to every microphone.

    The dry signal is split into one contiguous segment per trajectory point;
    each segment is convolved with that point's RIR set (``_convolve_segment``,
    bit-identical to ``fftconvolve``) and the results are overlap-added at the
    segments' original offsets.
    """
    dry = np.asarray(dry, dtype=float)
    traj_points = np.atleast_2d(np.asarray(traj_points, dtype=float))
    mic_positions = np.atleast_2d(np.asarray(mic_positions, dtype=float))
    n_points = traj_points.shape[0]
    if n_points == 0:
        raise ValueError("traj_points is empty: a trajectory needs at least one point")
    for what, points in (("trajectory point", traj_points), ("microphone", mic_positions)):
        if points.shape[1] != 3:
            raise ValueError(f"{what}s must be 3-vectors, got shape {points.shape}")
        inside = np.all((points > 0) & (points < room.dims), axis=1)  # False for NaN
        if not inside.all():
            raise OutOfRoom(f"{what} {points[~inside][0]} outside room {room.dims}")
    if t_max is None:
        t_max = _default_t_max(room, fs)
    grid_images = int(np.prod(2 * image_counts(room.dims, t_max) + 1))
    if grid_images > MAX_GRID_IMAGES:
        raise ImageGridTooLarge(f"room {room.dims} m at t_max {t_max} s needs {grid_images} grid images"
                                f" per parity block, more than {MAX_GRID_IMAGES}")
    if hop is None:
        hop = int(math.ceil(len(dry) / n_points))
    if hop * (n_points - 1) >= len(dry):
        raise ValueError(f"dry signal too short for {n_points} segments of hop {hop}")

    # identical consecutive points share one RIR set (a static source has one)
    starts = np.flatnonzero(np.r_[True, np.any(traj_points[1:] != traj_points[:-1], axis=1)]).tolist()
    runs = list(zip(starts, starts[1:] + [n_points]))

    def rirs(run):
        return _rirs_for_point(room, traj_points[run[0]], mic_positions, fs, t_max)

    # pool threads compute the RIR sets and map yields them in trajectory
    # order, so the calling thread overlap-adds the same sums for any pool size
    pool = ThreadPoolExecutor(min(_worker_count(), len(runs)))
    try:
        out = np.zeros((mic_positions.shape[0], len(dry)))
        for (start, stop), rir_set in zip(runs, pool.map(rirs, runs)):
            seg_lo = start * hop
            seg_hi = stop * hop if stop < n_points else len(dry)
            wet = _convolve_segment(dry[seg_lo:seg_hi], rir_set)
            hi = min(seg_lo + wet.shape[1], len(dry))
            out[:, seg_lo:hi] += wet[:, : hi - seg_lo]
    finally:
        pool.shutdown(cancel_futures=True)
    return MicSignals(channels=out.astype(dtype), fs=fs)


def _convolve_segment(segment: np.ndarray, rirs: np.ndarray) -> np.ndarray:
    """Full linear convolution of one dry segment with each row of ``rirs``:
    (n_mics, n_taps) in, (n_mics, len(segment) + n_taps - 1) out. These are
    the steps of SciPy's ``fftconvolve(segment[None], rirs, axes=1)``,
    so the result has the same bits: a length-1 operand is a plain product,
    otherwise both are zero-padded to the next fast real FFT length,
    multiplied in the frequency domain and cropped."""
    if len(segment) == 1 or rirs.shape[1] == 1:
        return segment[None] * rirs
    n = len(segment) + rirs.shape[1] - 1
    shape = [sp_fft.next_fast_len(n, real=True)]
    spectrum = sp_fft.rfftn(segment[None], shape, axes=[1]) * sp_fft.rfftn(rirs, shape, axes=[1])
    return sp_fft.irfftn(spectrum, shape, axes=[1])[:, :n]


def _default_t_max(room: Room, fs: float) -> float:
    if room.t60 > 0:
        return room.t60
    # anechoic: cover the longest direct path plus the kernel tail
    return float(np.linalg.norm(room.dims) / SPEED_OF_SOUND + 2.0 * SINC_HALF_WIDTH / fs)


def add_noise(
    sig: MicSignals,
    snr_db: float,
    vad_mask: np.ndarray,
    rng: np.random.Generator,
    framing: FramingConfig,
) -> MicSignals:
    """Add white Gaussian noise at an SNR measured over the non-silent
    analysis frames of ``framing`` (unwindowed). An SNR of +inf adds none."""
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise ValueError(f"snr_db must be a number or +inf, got {snr_db}")
    vad_mask = np.asarray(vad_mask, dtype=bool)
    frames = framing.frames(sig.channels).transpose(1, 2, 0)  # (T, K, n_ch)
    if vad_mask.shape != frames.shape[:1]:
        raise ValueError(f"vad mask has shape {vad_mask.shape}, the signal has {len(frames)} frames")
    if snr_db == math.inf:
        return MicSignals(channels=sig.channels.copy(), fs=sig.fs)
    if not vad_mask.any():
        raise AllSilent("cannot set an SNR with every frame silent")
    # compress copies the voiced frames in C order, channels fastest; the float
    # sum runs in memory order, so this layout fixes the calibrated SNR's bits
    p_sig = float(np.mean(frames.compress(vad_mask, axis=0) ** 2))
    sigma = math.sqrt(p_sig * 10.0 ** (-snr_db / 10.0))
    noise = rng.normal(0.0, sigma, size=sig.channels.shape)
    return MicSignals(channels=(sig.channels + noise).astype(sig.channels.dtype), fs=sig.fs)
