"""Framing, GCC-PHAT, SRP-PHAT power maps and the per-frame features.

A power map is the steered response power evaluated on a spherical grid,
computed from the pairwise generalized cross-correlations with phase-transform
weighting. Fractional steering delays are approximated to the nearest sample;
no interpolation is performed. Maps are plain arrays: one frame gives an
``(n_theta, n_phi)`` map, a signal a ``(T, n_theta, n_phi)`` stack.
``InputTensor`` keeps a signal's normalized maps, VAD mask and argmax DOAs.

The feature pass streams: ``windowed_frames`` walks the zero-copy frame view
of ``FramingConfig.frames`` and windows one ``(n_ch, K)`` frame at a time into
a single reused buffer, so no ``(n_ch, T, K)`` array is built.
``compute_input_tensor`` takes each frame's GCC set and SRP map from that
loop, plus the frame's windowed mean square for the energy VAD when no mask
is given; the GCC baseline's features and ``EnergyVad.mask`` walk the same
loop, so the detector alone gives the feature pass's mask bit for bit.

The GCC-PHAT kernel whitens each channel's spectrum once and forms each
pair's whitened product. The PHAT floor stays per pair: it is relative to
the pair's largest cross magnitude, and it is re-applied exactly to the pairs
whose per-channel magnitude bounds allow it to bite (silent, dead or
narrowband channels). Only the 2L + 1 lags in use are computed, by one
product of the cross-spectra, viewed as real, against a cached real DFT
basis; no inverse FFT runs. A ``GccSet`` keeps only those lags and the
autoterms: ``srp_map`` reads L from the width of its ``pair_lags``.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import artifact
from .errors import FormatError, LagRangeTooSmall, TooShort
from .geometry import SPEED_OF_SOUND, DelayTable, MicArray, SphericalGrid

_FEATURE_MAGIC = b"SRPM"
_FEATURE_VERSION = 3

# relative floor for the PHAT denominator, keeps silent frames finite
_PHAT_EPS_REL = 1e-12


@dataclass(frozen=True)
class FramingConfig:
    """Hann-windowed analysis frames: length ``K`` samples, hop ``hop``."""

    K: int = 4096
    hop: int = 3072
    fs: int = 16000

    def __post_init__(self):
        for name in ("K", "hop", "fs"):
            value = getattr(self, name)
            if not artifact.is_count(value) or value == 0:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.hop > self.K:
            raise ValueError(f"hop must be in (0, K], got hop={self.hop} K={self.K}")

    @property
    def hop_seconds(self) -> float:
        return self.hop / self.fs

    def n_frames(self, n_samples: int) -> int:
        if n_samples < self.K:
            raise TooShort(f"signal of {n_samples} samples is shorter than one window (K={self.K})")
        return (n_samples - self.K) // self.hop + 1

    def frame_times(self, n_frames: int) -> np.ndarray:
        """Centre time in seconds of each frame."""
        return (np.arange(n_frames) * self.hop + self.K / 2) / self.fs

    def frames(self, x: np.ndarray) -> np.ndarray:
        """Unwindowed frames of an (..., n_samples) signal as a read-only
        (..., T, K) view of its samples; frame t starts at sample t * hop."""
        self.n_frames(np.shape(x)[-1])  # TooShort below one window
        return sliding_window_view(x, self.K, axis=-1)[..., :: self.hop, :]


def frame_signal(channels: np.ndarray, cfg: FramingConfig) -> np.ndarray:
    """Split (n_ch, n_samples) into Hann-windowed frames (n_ch, T, K), the
    whole array at once; the package itself walks ``windowed_frames``."""
    return cfg.frames(np.atleast_2d(channels)) * np.hanning(cfg.K)


def windowed_frames(channels: np.ndarray, cfg: FramingConfig):
    """Yield the Hann-windowed frames of (n_ch, n_samples) one at a time, in
    order, each as the same float64 (n_ch, K) buffer refilled in place: a
    caller takes what it needs from a frame before asking for the next."""
    view = cfg.frames(np.atleast_2d(channels))
    window = np.hanning(cfg.K)
    frame = np.empty((view.shape[0], cfg.K))
    for t in range(view.shape[1]):
        np.multiply(view[:, t], window, out=frame)
        yield frame


class EnergyVad:
    """Energy-threshold voice activity detector over analysis frames.

    A frame is speech when its Hann-windowed RMS (pooled over channels)
    exceeds both an absolute floor and a fraction of the running maximum
    frame RMS. Windowing matches what the spectral pipeline actually sees, so
    signal hugging a frame edge does not count as activity. The running
    maximum only looks backwards, so the mask is causal.
    """

    ABS_FLOOR = 1e-6
    REL_THRESHOLD = 0.05

    def mask_from_power(self, power: np.ndarray) -> np.ndarray:
        """Per-frame speech mask from each frame's windowed mean square (T,)."""
        rms = np.sqrt(power)
        running_max = np.maximum.accumulate(rms)
        return rms > np.maximum(self.ABS_FLOOR, self.REL_THRESHOLD * running_max)

    def mask(self, channels: np.ndarray, cfg: FramingConfig) -> np.ndarray:
        """Per-frame speech mask for a (n_ch, n_samples) signal, from the
        frames and mean squares ``compute_input_tensor`` takes."""
        power = [np.mean(frame ** 2) for frame in windowed_frames(channels, cfg)]
        return self.mask_from_power(np.array(power))


@dataclass(frozen=True, eq=False)
class GccSet:
    """All-pairs GCC-PHAT of one frame. ``pair_lags[p]`` covers lags -L..+L
    of the p-th pair (n, m), n < m, in ``np.triu_indices(n_mics, k=1)``
    order; with x_n(t) = x_m(t - d) its peak sits at lag +d, and
    ``R_mn(tau) = R_nm(-tau)``. L is not stored: ``pair_lags`` has 2L + 1
    columns. ``auto_zero[n]`` is the n == m term at lag 0."""

    pair_lags: np.ndarray  # (n_pairs, 2L + 1)
    auto_zero: np.ndarray  # (n_mics,)


def default_lag_range(array: MicArray, fs: float) -> int:
    """Lags needed to cover the array aperture at sample rate ``fs``."""
    return int(np.ceil(array.aperture * fs / SPEED_OF_SOUND))


@functools.lru_cache(maxsize=None)
def _lag_basis(k: int, lag_range: int) -> np.ndarray:
    """Read-only (2 * (k // 2 + 1), 2 * lag_range + 1) real DFT basis: a
    half spectrum viewed as interleaved real and imaginary parts, times this
    basis, gives lags -lag_range..+lag_range of its length-``k`` inverse
    ``irfft``. As in ``irfft``, the imaginary parts of the DC and Nyquist
    bins are ignored. TooShort when ``k`` is below 2 * lag_range: a lag
    beyond +-k/2 would wrap around the length-``k`` circular correlation
    onto another lag of the range. At 2 * lag_range == k only +k/2 and -k/2
    share a circular lag, which is the same lag read twice."""
    if 2 * lag_range > k:
        raise TooShort(f"frames of K={k} samples are too short for the array's lags -L..L with L={lag_range}:"
                       f" K must be at least 2L = {2 * lag_range}")
    bins = np.arange(k // 2 + 1)[:, None]
    lags = np.arange(-lag_range, lag_range + 1)[None, :]
    # reduce b * t modulo k first, so the angles stay accurate for large bins
    angle = 2.0 * np.pi * ((bins * lags) % k) / k
    weight = np.where((bins == 0) | (2 * bins == k), 1.0, 2.0) / k
    basis = np.empty((bins.size, 2, lags.size))
    basis[:, 0] = weight * np.cos(angle)
    basis[:, 1] = -weight * np.sin(angle)
    basis[0, 1] = 0.0
    if k % 2 == 0:
        basis[-1, 1] = 0.0
    basis = basis.reshape(2 * bins.size, lags.size)
    basis.setflags(write=False)
    return basis


def gcc_set(frames: np.ndarray, lag_range: int) -> GccSet:
    """GCC-PHAT for all sensor pairs of one multichannel frame (n_mics, K)."""
    frames = np.asarray(frames, dtype=float)
    n_mics, k = frames.shape
    spectra = np.fft.rfft(frames, axis=-1)
    mag = np.abs(spectra)
    white = spectra / np.where(mag > 0.0, mag, 1.0)
    conj = np.conj(white)
    n, m = np.triu_indices(n_mics, k=1)
    cross = np.empty((n.size, spectra.shape[1]), dtype=complex)
    start = 0
    for i in range(n_mics - 1):
        # whitened X_i * conj(X_m) for m > i: a broadcast, no gathered copies
        stop = start + n_mics - 1 - i
        np.multiply(white[i], conj[i + 1:], out=cross[start:stop])
        start = stop
    # The pair floor max(|X_n X_m|) * eps can only bite where |X_n X_m| drops
    # below it, which the per-channel extremes bound; such pairs get the
    # exact floor: the whitened product times min(1, |X_n X_m| / floor).
    tiny = np.finfo(float).tiny
    lo, hi = mag.min(axis=-1), mag.max(axis=-1)
    bite = np.flatnonzero(lo[n] * lo[m] < np.maximum(hi[n] * hi[m] * _PHAT_EPS_REL, tiny))
    if bite.size:
        pair_mag = mag[n[bite]] * mag[m[bite]]
        floor = np.maximum(pair_mag.max(axis=-1, keepdims=True) * _PHAT_EPS_REL, tiny)
        cross[bite] *= np.minimum(1.0, pair_mag / floor)
    pair_lags = cross.view(float) @ _lag_basis(k, lag_range)
    # autoterm: PHAT of |X_n|^2 is flat, so R_nn(0) is 1 unless the frame is silent
    auto_mag = mag ** 2
    auto_floor = np.maximum(auto_mag.max(axis=-1, keepdims=True) * _PHAT_EPS_REL, tiny)
    auto_zero = np.mean(auto_mag / np.maximum(auto_mag, auto_floor), axis=-1)
    return GccSet(pair_lags=pair_lags, auto_zero=auto_zero)


# per delay table, {(fs, lag_range): steering index}; an entry goes with its table
_STEERING = weakref.WeakKeyDictionary()


def _steering_index(delays: DelayTable, fs: float, lag_range: int) -> np.ndarray:
    """Flat positions in a (n_pairs, 2 * lag_range + 1) ``pair_lags`` of each
    pair's nearest-sample lag at every grid point, (n_pairs, n_theta, n_phi).
    Built once per delay table, rate and lag range."""
    per_table = _STEERING.setdefault(delays, {})
    index = per_table.get((fs, lag_range))
    if index is None:
        n_mics = delays.delays.shape[0]
        lags = np.rint(delays.delays[np.triu_indices(n_mics, k=1)] * fs).astype(int)
        max_lag = int(np.max(np.abs(lags)))
        if max_lag > lag_range:
            raise LagRangeTooSmall(
                f"delay table needs lags up to {max_lag}, GCC set stores +-{lag_range}"
            )
        # row p, column lag_range + lag
        index = lags + (lag_range + (2 * lag_range + 1) * np.arange(len(lags)))[:, None, None]
        index.setflags(write=False)
        per_table[(fs, lag_range)] = index
    return index


def srp_map(gcc: GccSet, delays: DelayTable, fs: float) -> np.ndarray:
    """Steered response power over the grid, (n_theta, n_phi), from
    nearest-sample GCC values.

    Evaluates the double sum over all sensor pairs, autoterms included.
    """
    lag_range = (gcc.pair_lags.shape[1] - 1) // 2
    steered = np.take(gcc.pair_lags, _steering_index(delays, fs, lag_range))
    # R_mn(-l) == R_nm(l), so each unordered pair contributes twice its value
    return (2.0 * steered).sum(axis=0, initial=float(np.sum(gcc.auto_zero)))


def normalize_map(maps: np.ndarray) -> np.ndarray:
    """Zero-mean each map of a (..., n_theta, n_phi) stack and scale its
    largest magnitude to 1; constant maps become all zero."""
    v = maps - maps.mean(axis=(-2, -1), keepdims=True)
    peak = np.max(np.abs(v), axis=(-2, -1), keepdims=True)
    return v / np.where(peak > 0.0, peak, 1.0)


@dataclass(frozen=True, eq=False)
class InputTensor:
    """The features of T frames, each kept once: normalized maps, VAD mask and
    argmax DOAs. Silent frames keep their maps; ``models.model_features``
    zeroes them in a model's input."""

    maps: np.ndarray  # (T, n_theta, n_phi) float64, normalized
    vad: np.ndarray  # (T,) bool
    argmax_doa: np.ndarray  # (T, 2) theta, phi of each frame's map maximum

    @property
    def n_frames(self) -> int:
        return self.maps.shape[0]


def assemble_input(maps: np.ndarray, vad: np.ndarray, grid: SphericalGrid) -> InputTensor:
    """T normalized maps on ``grid`` with their VAD mask and argmax DOAs."""
    maps = np.asarray(maps, dtype=float)
    t = maps.shape[0]
    if maps.shape[1:] != grid.shape:
        raise ValueError(f"map shape {maps.shape[1:]} != grid shape {grid.shape}")
    vad = np.asarray(vad, dtype=bool)
    if vad.shape != (t,):
        raise ValueError("vad mask length must match the number of maps")
    # ties break to the lowest row-major index: argmax takes the first maximum;
    # a pole is one direction, so a maximum on the first or last row has azimuth 0
    i, j = np.divmod(maps.reshape(t, grid.n_theta * grid.n_phi).argmax(axis=1), grid.n_phi)
    phi = np.where((i == 0) | (i == grid.n_theta - 1), 0.0, grid.phis[j])
    argmax = np.stack([grid.thetas[i], phi], axis=1)
    return InputTensor(maps=maps, vad=vad, argmax_doa=argmax)


def compute_input_tensor(
    channels: np.ndarray,
    delays: DelayTable,
    cfg: FramingConfig,
    vad_mask: np.ndarray | None = None,
) -> InputTensor:
    """Full feature pipeline: frame -> GCC -> map, frame by frame, then
    normalize, then each map's argmax.

    ``vad_mask`` takes priority (e.g. the oracle mask of a simulated scene);
    otherwise the energy detector runs on the same frames as the maps.
    """
    lag_range = default_lag_range(delays.array, cfg.fs)
    maps, power = [], []
    for frame in windowed_frames(channels, cfg):
        maps.append(srp_map(gcc_set(frame, lag_range), delays, cfg.fs))
        if vad_mask is None:
            power.append(np.mean(frame ** 2))
    if vad_mask is None:
        vad_mask = EnergyVad().mask_from_power(np.array(power))
    return assemble_input(normalize_map(np.stack(maps)), vad_mask, delays.grid)


def save_features(path, tensor: InputTensor, grid: SphericalGrid, cfg: FramingConfig) -> None:
    """Write the feature dump, one SRPM file: the grid, framing, VAD mask and
    argmax DOAs in its header, every frame's map, silent ones too, as float32 ``maps``."""
    meta = {
        "grid": {"n_theta": grid.n_theta, "n_phi": grid.n_phi},
        "framing": {"K": cfg.K, "hop": cfg.hop, "fs": cfg.fs},
        "vad": tensor.vad.astype(int).tolist(),
        "argmax_doa": tensor.argmax_doa.tolist(),
    }
    artifact.write(path, _FEATURE_MAGIC, _FEATURE_VERSION, meta, {"maps": tensor.maps})


def load_features(path) -> tuple[InputTensor, SphericalGrid, FramingConfig]:
    meta, tensors = artifact.read(path, _FEATURE_MAGIC, _FEATURE_VERSION, "feature dump")
    maps = tensors.get("maps")
    if list(tensors) != ["maps"] or maps.ndim != 3:
        raise FormatError(f"{path}: feature dump tensors {list(tensors)}"
                          f" are not one (T, n_theta, n_phi) 'maps'")
    t, n_theta, n_phi = maps.shape
    try:
        same_grid = meta["grid"] == {"n_theta": n_theta, "n_phi": n_phi}
        grid = SphericalGrid(n_theta, n_phi)
        cfg = FramingConfig(**meta["framing"])
        vad = np.array(meta["vad"], dtype=bool)
        argmax = np.array(meta["argmax_doa"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: bad feature dump header: {exc!r}") from exc
    if not same_grid or vad.shape != (t,) or argmax.shape != (t, 2):
        raise FormatError(f"{path}: header grid {meta['grid']}, vad {vad.shape} and argmax {argmax.shape}"
                          f" do not match the dump's {t} frames on {n_theta}x{n_phi}")
    return InputTensor(maps=maps.astype(float), vad=vad, argmax_doa=argmax), grid, cfg
