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
steps SciPy's ``fftconvolve`` takes.

Rendering is the only user of SciPy in the package: the three functions that
call ``scipy.fft`` import it themselves, and WAV files are read and written
with numpy and ``struct``. So a process that renders nothing, such as
``srptrack track``, ``features`` or ``paramcount``, never loads SciPy.
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

_WAVE_PCM, _WAVE_FLOAT, _WAVE_EXTENSIBLE = 1, 3, 0xFFFE
# a WAVE_FORMAT_EXTENSIBLE sub-format GUID is a format tag in 4 bytes, then these 12
_WAVE_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


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
        """Write 32-bit float samples, with the chunks ``scipy.io.wavfile.write``
        gives them: ``fmt `` with an empty extension, ``fact``, then ``data``."""
        data = np.ascontiguousarray(self.channels.T, dtype="<f4")
        n_frames, n_ch = data.shape
        fs = int(self.fs)
        fmt = struct.pack("<HHIIHHH", _WAVE_FLOAT, n_ch, fs, 4 * n_ch * fs, 4 * n_ch, 32, 0)
        head = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"fact" + struct.pack("<II", 4, n_frames)
                + b"data" + struct.pack("<I", data.nbytes))
        if len(head) + data.nbytes > 0xFFFFFFFF:
            raise FormatError(f"{n_frames} frames of {n_ch} channels do not fit in a RIFF file")
        with open(path, "wb") as f:
            f.write(b"RIFF" + struct.pack("<I", len(head) + data.nbytes) + head)
            data.tofile(f)

    @classmethod
    def from_wav(cls, path) -> "MicSignals":
        """Read a RIFF WAV file of PCM samples in 1 to 4 bytes or of 32 or 64-bit
        IEEE floats, WAVE_FORMAT_EXTENSIBLE included. PCM is read as a
        left-justified integer (24-bit as int32, 8-bit unsigned around 128)
        and scaled to [-1, 1); floats are rounded to float32. Chunks other
        than ``fmt `` and ``data`` are skipped. Anything else is a
        FormatError: a path that cannot be opened, another container (RIFX
        and RF64 included), another encoding or sample size, no ``fmt ``
        chunk before ``data``, zero channels or a zero rate, a block align
        that is not a whole sample per channel, or a data chunk shorter
        than its header says."""
        try:
            f = open(path, "rb")
        except OSError as exc:
            raise FormatError(f"cannot read {path}: {exc.strerror or exc}") from exc
        with f:
            def bad(why: str) -> FormatError:
                return FormatError(f"{path} is not a readable WAV file: {why}")

            form = f.read(12)
            if form[:4] in (b"RIFX", b"RF64"):
                raise bad(f"{form[:4].decode()} files are not supported")
            if len(form) < 12 or form[:4] != b"RIFF" or form[8:] != b"WAVE":
                raise bad("no RIFF/WAVE header")
            fmt = None
            while True:
                head = f.read(8)
                if len(head) < 8:
                    raise bad("no data chunk")
                chunk, size = head[:4], struct.unpack("<I", head[4:])[0]
                if chunk == b"data":
                    break
                if chunk == b"fmt ":
                    fmt = f.read(size)
                else:
                    f.seek(size, 1)
                f.seek(size % 2, 1)  # the pad byte after an odd-sized chunk
            if fmt is None:
                raise bad("no 'fmt ' chunk before the data chunk")
            if len(fmt) < 16:
                raise bad(f"a 'fmt ' chunk of {len(fmt)} bytes, fewer than 16")
            tag, n_ch, fs, _, align, bits = struct.unpack_from("<HHIIHH", fmt)
            if tag == _WAVE_EXTENSIBLE and fmt[28:40] == _WAVE_GUID_TAIL:
                tag = struct.unpack_from("<I", fmt, 24)[0]
            if n_ch == 0 or fs == 0:
                raise bad(f"{n_ch} channels at {fs} Hz")
            width, rest = divmod(align, n_ch)
            if rest or not width:
                raise bad(f"a block align of {align} bytes is not one whole sample for each of {n_ch} channels")
            if tag == _WAVE_PCM and width > 4:
                raise bad(f"{width}-byte PCM samples (int{8 * width}) are not supported; the most is 4 bytes")
            pcm = tag == _WAVE_PCM and 0 < bits <= 8 * width and (bits <= 8) == (width == 1)
            if not (pcm or (tag == _WAVE_FLOAT and bits == 8 * width and bits in (32, 64))):
                raise bad(f"format tag {tag:#06x} with {bits}-bit samples in {width} bytes is not supported;"
                          f" expected PCM (1) in 1 to 4 bytes or IEEE float (3) in 4 or 8 bytes")
            n = size // align * n_ch  # the samples of the whole frames
            available = os.fstat(f.fileno()).st_size - f.tell()
            if available < size:
                raise bad(f"Reached EOF prematurely: the data chunk holds {available} of its {size} bytes")
            if width == 3:  # 24-bit PCM, left-justified in an int32 whose low byte is 0
                wide = np.zeros((n, 4), np.uint8)
                wide[:, 1:] = np.fromfile(f, np.uint8, 3 * n).reshape(n, 3)
                samples = wide.view("<i4")
            else:
                samples = np.fromfile(f, f"<f{width}" if not pcm else "u1" if width == 1 else f"<i{width}", n)
        # one C-contiguous row per channel, converted and transposed in one copy
        rows = np.ascontiguousarray(samples.reshape(-1, n_ch).T, dtype=np.float32)
        if pcm:
            if width == 1:
                rows -= 128.0
            rows /= 2.0 ** (8 * samples.itemsize - 1)
        return cls(channels=rows, fs=fs)


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


def check_image_grid(dims, t_max: float) -> None:
    """Raise ImageGridTooLarge if a room of ``dims`` needs more than
    ``MAX_GRID_IMAGES`` grid images per parity block to cover ``t_max``."""
    grid_images = int(np.prod(2 * image_counts(dims, t_max) + 1))
    if grid_images > MAX_GRID_IMAGES:
        raise ImageGridTooLarge(f"room {as_vec3(dims)} m at t_max {t_max} s needs {grid_images} grid images"
                                f" per parity block, more than {MAX_GRID_IMAGES}")


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
    from scipy import fft as sp_fft

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
    from scipy import fft as sp_fft

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
    segments' original offsets. Only the samples that a later segment's wet
    signal can still reach keep float64 sums; each segment's own span is cast
    into the ``dtype`` output as soon as it is complete, so the result has
    the bits of a full-length float64 sum cast once.
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
    check_image_grid(room.dims, t_max)
    if hop is None:
        hop = int(math.ceil(len(dry) / n_points))
    if hop * (n_points - 1) >= len(dry):
        raise ValueError(f"dry signal too short for {n_points} segments of hop {hop}")

    # identical consecutive points share one RIR set (a static source has one)
    starts = np.flatnonzero(np.r_[True, np.any(traj_points[1:] != traj_points[:-1], axis=1)]).tolist()
    runs = list(zip(starts, starts[1:] + [n_points]))

    def rirs(run):
        return _rirs_for_point(room, traj_points[run[0]], mic_positions, fs, t_max)

    out = np.empty((mic_positions.shape[0], len(dry)), dtype)
    # float64 sums of the earlier wet tails over the samples from this
    # segment's start on; no later segment reaches a sample before it
    pending = np.zeros((mic_positions.shape[0], 0))
    # pool threads compute the RIR sets and map yields them in trajectory
    # order, so the calling thread overlap-adds the same sums for any pool size
    pool = ThreadPoolExecutor(min(_worker_count(), len(runs)))
    try:
        for (start, stop), rir_set in zip(runs, pool.map(rirs, runs)):
            seg_lo = start * hop
            seg_hi = stop * hop if stop < n_points else len(dry)
            wet = _convolve_segment(dry[seg_lo:seg_hi], rir_set)[:, : len(dry) - seg_lo]
            # each sample sums 0.0, then its wet values in trajectory order:
            # x + 0.0 turns a lone -0.0 into 0.0 as that sum does
            wet[:, : pending.shape[1]] += pending
            wet[:, pending.shape[1] :] += 0.0
            out[:, seg_lo:seg_hi] = wet[:, : seg_hi - seg_lo]
            pending = wet[:, seg_hi - seg_lo :].copy()
    finally:
        pool.shutdown(cancel_futures=True)
    return MicSignals(channels=out, fs=fs)


def _convolve_segment(segment: np.ndarray, rirs: np.ndarray) -> np.ndarray:
    """Full linear convolution of one dry segment with each row of ``rirs``:
    (n_mics, n_taps) in, (n_mics, len(segment) + n_taps - 1) out. These are
    the steps of SciPy's ``fftconvolve(segment[None], rirs, axes=1)``,
    so the result has the same bits: a length-1 operand is a plain product,
    otherwise both are zero-padded to the next fast real FFT length,
    multiplied in the frequency domain and cropped."""
    from scipy import fft as sp_fft

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


def _voiced_power(frames: np.ndarray, vad_mask: np.ndarray) -> float:
    """Mean square of the voiced frames of a (T, K, n_ch) frame view.

    The frames are copied in C order, channels fastest: the float sum runs in
    memory order, so this layout fixes the calibrated SNR's bits. They are
    copied one at a time, where ``compress`` would first copy every frame of
    the view."""
    voiced = np.empty((np.count_nonzero(vad_mask),) + frames.shape[1:], frames.dtype)
    for row, t in zip(voiced, np.flatnonzero(vad_mask)):
        row[:] = frames[t]
    return float(np.mean(np.square(voiced, out=voiced)))


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
    sigma = math.sqrt(_voiced_power(frames, vad_mask) * 10.0 ** (-snr_db / 10.0))
    # one channel's noise at a time: row draws in channel order take the
    # generator's values in the order one (n_ch, n) draw does
    out = np.empty_like(sig.channels)
    for row, channel in zip(out, sig.channels):
        row[:] = channel + rng.normal(0.0, sigma, size=channel.shape)
    return MicSignals(channels=out, fs=sig.fs)
