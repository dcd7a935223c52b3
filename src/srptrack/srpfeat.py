"""Framing, GCC-PHAT, SRP-PHAT power maps and network input assembly.

A power map is the steered response power evaluated on a spherical grid,
computed from the pairwise generalized cross-correlations with phase-transform
weighting. Fractional steering delays are approximated to the nearest sample;
no interpolation is performed. Maps are plain arrays: one frame gives an
``(n_theta, n_phi)`` map, a signal a ``(T, n_theta, n_phi)`` stack.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, LagRangeTooSmall, TooShort
from .geometry import DelayTable, MicArray, SphericalGrid

_FEATURE_MAGIC = b"SRPM"
_FEATURE_VERSION = 1

# relative floor for the PHAT denominator, keeps silent frames finite
_PHAT_EPS_REL = 1e-12


@dataclass(frozen=True)
class FramingConfig:
    """Hann-windowed analysis frames: length ``K`` samples, hop ``hop``."""

    K: int = 4096
    hop: int = 3072
    fs: int = 16000
    window: str = "hann"

    def __post_init__(self):
        if not 0 < self.hop <= self.K:
            raise ValueError(f"hop must be in (0, K], got hop={self.hop} K={self.K}")
        if self.window != "hann":
            raise ValueError(f"only the hann window is supported, got {self.window!r}")

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


def frame_indices(n_frames: int, length: int, hop: int) -> np.ndarray:
    """(n_frames, length) sample indices of frames starting every ``hop`` samples."""
    return np.arange(length)[None, :] + hop * np.arange(n_frames)[:, None]


def frame_signal(channels: np.ndarray, cfg: FramingConfig) -> np.ndarray:
    """Split (n_ch, n_samples) into Hann-windowed frames (n_ch, T, K)."""
    channels = np.atleast_2d(np.asarray(channels))
    idx = frame_indices(cfg.n_frames(channels.shape[-1]), cfg.K, cfg.hop)
    return channels[:, idx] * np.hanning(cfg.K)


class EnergyVad:
    """Energy-threshold voice activity detector over analysis frames.

    A frame is speech when its Hann-windowed RMS (pooled over channels)
    exceeds both an absolute floor and a fraction of the running maximum
    frame RMS. Windowing matches what the spectral pipeline actually sees, so
    signal hugging a frame edge does not count as activity. The running
    maximum only looks backwards, so the mask is causal.
    """

    def __init__(self, abs_floor: float = 1e-6, rel_threshold: float = 0.05):
        self.abs_floor = abs_floor
        self.rel_threshold = rel_threshold

    def mask_from_rms(self, rms: np.ndarray) -> np.ndarray:
        running_max = np.maximum.accumulate(rms)
        return rms > np.maximum(self.abs_floor, self.rel_threshold * running_max)

    def mask(self, channels: np.ndarray, cfg: FramingConfig) -> np.ndarray:
        """Per-frame speech mask for a (n_ch, n_samples) signal."""
        rms = np.sqrt(np.mean(frame_signal(channels, cfg) ** 2, axis=(0, 2)))
        return self.mask_from_rms(rms)


@dataclass(frozen=True, eq=False)
class GccSet:
    """All-pairs GCC-PHAT of one frame. ``pair_lags[p]`` covers lags -L..+L
    of the p-th pair (n, m), n < m, in ``np.triu_indices(n_mics, k=1)``
    order; with x_n(t) = x_m(t - d) its peak sits at lag +d, and
    ``R_mn(tau) = R_nm(-tau)``. ``auto_zero[n]`` is the n == m term at lag 0."""

    pair_lags: np.ndarray  # (n_pairs, 2 * lag_range + 1)
    auto_zero: np.ndarray  # (n_mics,)
    lag_range: int


def default_lag_range(array: MicArray, fs: float, c: float = 343.0) -> int:
    """Lags needed to cover the array aperture at sample rate ``fs``."""
    return int(np.ceil(array.aperture * fs / c))


def gcc_set(frames: np.ndarray, lag_range: int) -> GccSet:
    """GCC-PHAT for all sensor pairs of one multichannel frame (n_mics, K)."""
    frames = np.asarray(frames, dtype=float)
    n_mics, k = frames.shape
    spectra = np.fft.rfft(frames, axis=-1)
    n, m = np.triu_indices(n_mics, k=1)
    cross = spectra[n] * np.conj(spectra[m])
    mag = np.abs(cross)
    floor = np.maximum(mag.max(axis=-1, keepdims=True) * _PHAT_EPS_REL, np.finfo(float).tiny)
    r = np.fft.irfft(cross / np.maximum(mag, floor), n=k, axis=-1)
    pair_lags = np.concatenate([r[:, -lag_range:], r[:, : lag_range + 1]], axis=-1)
    # autoterm: PHAT of |X_n|^2 is flat, so R_nn(0) is 1 unless the frame is silent
    auto_mag = np.abs(spectra) ** 2
    auto_floor = np.maximum(auto_mag.max(axis=-1, keepdims=True) * _PHAT_EPS_REL, np.finfo(float).tiny)
    auto_zero = np.mean(auto_mag / np.maximum(auto_mag, auto_floor), axis=-1)
    return GccSet(pair_lags=pair_lags, auto_zero=auto_zero, lag_range=lag_range)


def srp_map(gcc: GccSet, delays: DelayTable, fs: float) -> np.ndarray:
    """Steered response power over the grid, (n_theta, n_phi), from
    nearest-sample GCC values.

    Evaluates the double sum over all sensor pairs, autoterms included.
    """
    n_pairs, width = gcc.pair_lags.shape
    lags = np.rint(delays.delays[np.triu_indices(len(gcc.auto_zero), k=1)] * fs).astype(int)
    max_lag = int(np.max(np.abs(lags)))
    if max_lag > gcc.lag_range:
        raise LagRangeTooSmall(
            f"delay table needs lags up to {max_lag}, GCC set stores +-{gcc.lag_range}"
        )
    # flat positions in pair_lags: row p, column lag_range + lag
    steered = np.take(gcc.pair_lags, lags + (gcc.lag_range + width * np.arange(n_pairs))[:, None, None])
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
    """Network input: channel 0 holds the normalized maps, channels 1-2 the
    per-frame map-argmax elevation/azimuth scaled to [0, 1]. Silent frames are
    all-zero in every channel."""

    data: np.ndarray  # (3, T, n_theta, n_phi)
    vad: np.ndarray  # (T,) bool
    argmax_doa: np.ndarray  # (T, 2) theta, phi of each frame's map maximum

    @property
    def n_frames(self) -> int:
        return self.data.shape[1]


def assemble_input(maps: np.ndarray, vad: np.ndarray, grid: SphericalGrid) -> InputTensor:
    """Stack T normalized maps into the 3-channel network input tensor."""
    maps = np.asarray(maps, dtype=float)
    t = maps.shape[0]
    if maps.shape[1:] != grid.shape:
        raise ValueError(f"map shape {maps.shape[1:]} != grid shape {grid.shape}")
    vad = np.asarray(vad, dtype=bool)
    if vad.shape != (t,):
        raise ValueError("vad mask length must match the number of maps")
    # ties break to the lowest row-major index, as in grid_argmax
    i, j = np.divmod(maps.reshape(t, grid.n_theta * grid.n_phi).argmax(axis=1), grid.n_phi)
    argmax = np.stack([grid.thetas[i], grid.phis[j]], axis=1)
    data = np.zeros((3, t) + grid.shape)
    data[0, vad] = maps[vad]
    data[1, vad] = (argmax[vad, 0] / np.pi)[:, None, None]
    data[2, vad] = ((argmax[vad, 1] + np.pi) / (2.0 * np.pi))[:, None, None]
    return InputTensor(data=data, vad=vad, argmax_doa=argmax)


def compute_power_maps(
    channels: np.ndarray,
    delays: DelayTable,
    cfg: FramingConfig,
    lag_range: int | None = None,
) -> np.ndarray:
    """Raw SRP-PHAT maps (T, n_theta, n_phi) of every analysis frame of a
    multichannel signal."""
    if lag_range is None:
        lag_range = max(default_lag_range(delays.array, cfg.fs, delays.c), delays.max_abs_lag(cfg.fs))
    frames = frame_signal(channels, cfg)  # (n_ch, T, K)
    return np.stack([srp_map(gcc_set(frames[:, i], lag_range), delays, cfg.fs)
                     for i in range(frames.shape[1])])


def compute_input_tensor(
    channels: np.ndarray,
    delays: DelayTable,
    cfg: FramingConfig,
    vad_mask: np.ndarray | None = None,
    vad: EnergyVad | None = None,
) -> InputTensor:
    """Full feature pipeline: frames -> GCC -> maps -> normalize -> tensor.

    ``vad_mask`` takes priority (e.g. the oracle mask of a simulated scene);
    otherwise the energy detector runs on the signal itself.
    """
    maps = normalize_map(compute_power_maps(channels, delays, cfg))
    if vad_mask is None:
        vad_mask = (vad or EnergyVad()).mask(channels, cfg)
    return assemble_input(maps, vad_mask, delays.grid)


def save_features(path, tensor: InputTensor, grid: SphericalGrid, cfg: FramingConfig) -> None:
    """Write the feature dump: SRPM header + row-major float32, JSON sidecar."""
    path = Path(path)
    c, t, nt, npx = tensor.data.shape
    with open(path, "wb") as f:
        f.write(_FEATURE_MAGIC)
        f.write(struct.pack("<5I", _FEATURE_VERSION, c, t, nt, npx))
        f.write(tensor.data.astype("<f4").tobytes())
    sidecar = {
        "grid": {"n_theta": grid.n_theta, "n_phi": grid.n_phi},
        "framing": {"K": cfg.K, "hop": cfg.hop, "fs": cfg.fs, "window": cfg.window},
        "vad": tensor.vad.astype(int).tolist(),
        "argmax_doa": tensor.argmax_doa.tolist(),
    }
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def load_features(path) -> tuple[InputTensor, SphericalGrid, FramingConfig]:
    path = Path(path)
    blob = path.read_bytes()
    if blob[:4] != _FEATURE_MAGIC:
        raise FormatError("not a feature dump (bad magic)")
    if len(blob) < 24:
        raise FormatError(f"feature dump truncated inside its 24-byte header: {len(blob)} bytes")
    version, c, t, nt, npx = struct.unpack_from("<5I", blob, 4)
    if version != _FEATURE_VERSION:
        raise FormatError(f"unsupported feature dump version {version}")
    expected = 24 + 4 * c * t * nt * npx
    if len(blob) != expected:
        raise FormatError(f"feature dump truncated: {len(blob)} bytes, expected {expected}")
    data = np.frombuffer(blob, dtype="<f4", offset=24).reshape(c, t, nt, npx).astype(float)
    try:
        sidecar = json.loads(path.with_suffix(path.suffix + ".json").read_text())
        grid = SphericalGrid(**sidecar["grid"])
        cfg = FramingConfig(**sidecar["framing"])
        vad = np.array(sidecar["vad"], dtype=bool)
        argmax = np.array(sidecar["argmax_doa"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad feature sidecar: {exc!r}") from exc
    if c != 3 or grid.shape != (nt, npx) or vad.shape != (t,) or argmax.shape != (t, 2):
        raise FormatError(f"sidecar grid {grid.shape}, vad {vad.shape} and argmax {argmax.shape}"
                          f" do not match the dump's {c} channels of {t} frames on {nt}x{npx}")
    return InputTensor(data=data, vad=vad, argmax_doa=argmax), grid, cfg
