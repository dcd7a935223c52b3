"""Random acoustic-scene sampling, trajectory generation and scene synthesis.

Scenes are drawn on the fly: room size, reverberation time, SNR and array
placement come from uniform distributions; the source follows a line between
two random points plus a bounded random sinusoid per axis. A trajectory is
just its (L, 3) points, one per analysis frame; the draws that shaped it are
not kept. Every sample is a pure function of (config, seed, source signal),
so the training stream behaves like an infinite dataset while staying
reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import artifact
from .errors import FormatError
from .geometry import SPEED_OF_SOUND, MicArray, as_vec3, default_array, sphere_to_unit, unit_to_sphere
from .roomsim import MicSignals, Room, add_noise, check_image_grid, read_recording, render_moving_source
from .srpfeat import EnergyVad, FramingConfig

_WALL_CLEARANCE = 1e-3  # m, keeps sampled endpoints strictly inside
_WALL_MARGIN_FRACTION = 0.1  # of each room dimension, kept clear around the array
_AMP_SAFETY = 0.999
MIN_SYNTHETIC_FS = 6800  # Hz; the synthetic source's 3400 Hz lowpass needs a rate above it


@dataclass(frozen=True, eq=False)
class SceneConfig:
    """Sampling ranges for random scenes (uniform over every range)."""

    room_min: np.ndarray = field(default_factory=lambda: np.array([3.0, 3.0, 2.5]))
    room_max: np.ndarray = field(default_factory=lambda: np.array([10.0, 8.0, 6.0]))
    snr_range: tuple[float, float] = (5.0, 30.0)
    t60_range: tuple[float, float] = (0.2, 1.3)
    duration: float = 20.0
    rir_t_max: float | None = None  # None: full T60, at least the room's direct paths

    def __post_init__(self):
        for name in ("room_min", "room_max"):
            value = getattr(self, name)
            if not all(map(artifact.is_finite_number, np.asarray(value, dtype=object).ravel())):
                raise ValueError(f"{name} must hold finite numbers, got {value!r}")
        rmin = as_vec3(self.room_min)
        rmax = as_vec3(self.room_max)
        if np.any(rmin <= 0) or np.any(rmin > rmax):
            raise ValueError("room_min must be positive and <= room_max componentwise")
        for name, (lo, hi) in (("snr_range", self.snr_range), ("t60_range", self.t60_range)):
            if not (artifact.is_finite_number(lo) and artifact.is_finite_number(hi) and lo <= hi):
                raise ValueError(f"{name} must be a finite, nonempty range, got {(lo, hi)}")
        if self.t60_range[0] < 0:
            raise ValueError(f"t60_range must be nonnegative, got {self.t60_range}")
        if not (artifact.is_finite_number(self.duration) and self.duration > 0):
            raise ValueError(f"duration must be finite and positive, got {self.duration}")
        t_max = self.rir_t_max
        if t_max is not None and not (artifact.is_finite_number(t_max) and t_max > 0):
            raise ValueError(f"rir_t_max must be finite and positive, got {t_max}")
        reach = float(np.linalg.norm(rmax)) / SPEED_OF_SOUND  # a shorter RIR can miss a direct path
        if t_max is not None and t_max < reach:
            raise ValueError(f"rir_t_max {t_max} s is shorter than sound takes across a {rmax.tolist()} m room,"
                             f" {reach:.4f} s")
        # the smallest room at the longest RIR has the most images; an
        # anechoic room's RIR ends with its direct paths
        t_max = self.t60_range[1] if t_max is None else t_max
        if t_max > 0:
            check_image_grid(rmin, t_max)
        object.__setattr__(self, "room_min", rmin)
        object.__setattr__(self, "room_max", rmax)
        object.__setattr__(self, "snr_range", tuple(self.snr_range))
        object.__setattr__(self, "t60_range", tuple(self.t60_range))


@dataclass(frozen=True, eq=False)
class AcousticScene:
    """One synthesized scene with its ground truth.

    ``vad_mask`` is the exact activity mask of the dry source and drives
    synthesis (cleaning, noise power, map zeroing). ``vad_energy_mask`` is
    the default energy detector run on the cleaned dry signal; evaluation
    gates on it, since a frame whose windowed content is vanishingly small is
    oracle-active but carries no usable directional information.
    """

    room: Room
    array: MicArray
    array_origin: np.ndarray
    trajectory: np.ndarray  # (L, 3) source positions, one per analysis frame
    snr: float
    vad_mask: np.ndarray  # (L,) bool, from the dry source
    gt_doa: np.ndarray  # (L, 2) theta, phi in the array frame
    vad_energy_mask: np.ndarray  # (L,) bool, the energy detector on the cleaned dry source

    def gt_units(self) -> np.ndarray:
        """(L, 3) ground-truth unit vectors."""
        return sphere_to_unit(self.gt_doa[:, 0], self.gt_doa[:, 1])

    def metadata(self) -> dict:
        return {
            "room_dims_m": self.room.dims.tolist(),
            "t60_s": self.room.t60,
            "beta": self.room.beta,
            "snr_db": self.snr,
            "array_origin_m": self.array_origin.tolist(),
            "array_name": self.array.name,
            "trajectory_points_m": self.trajectory.tolist(),
            "vad_mask": self.vad_mask.astype(int).tolist(),
            "vad_energy_mask": self.vad_energy_mask.astype(int).tolist(),
            "gt_doa_deg": np.degrees(self.gt_doa).tolist(),
        }


def sample_scene(cfg: SceneConfig, rng: np.random.Generator) -> tuple[Room, np.ndarray, float]:
    """Draw (room, array origin, snr) from the configured ranges.

    The array origin keeps the wall margin on every axis and sits in the
    lower half of the room vertically.
    """
    dims = rng.uniform(cfg.room_min, cfg.room_max)
    t60 = float(rng.uniform(*cfg.t60_range))
    snr = float(rng.uniform(*cfg.snr_range))
    m = _WALL_MARGIN_FRACTION
    lo = m * dims
    hi = np.array([(1.0 - m) * dims[0], (1.0 - m) * dims[1], 0.5 * dims[2]])
    origin = rng.uniform(lo, hi)
    return Room(dims, t60), origin, snr


def generate_trajectory(room: Room, n_points: int, rng: np.random.Generator) -> np.ndarray:
    """Line-plus-sine source path with every point strictly inside the room,
    as its (n_points, 3) positions; the first is the line's start.

    Per axis the sine frequency allows at most two full oscillations over the
    trajectory and the amplitude is capped by the straight line's distance to
    the nearest wall, so the path cannot leave the room.
    """
    if n_points < 2:
        raise ValueError("a trajectory needs at least 2 points")
    dims = room.dims
    p0 = rng.uniform(_WALL_CLEARANCE, dims - _WALL_CLEARANCE)
    p_end = rng.uniform(_WALL_CLEARANCE, dims - _WALL_CLEARANCE)
    omega = rng.uniform(0.0, 4.0 * np.pi / (n_points - 1), size=3)
    i = np.arange(n_points)[:, None]
    line = p0 + i / (n_points - 1) * (p_end - p0)  # (L, 3)
    head_room = np.minimum(line, dims - line).min(axis=0)  # nearest wall per axis
    amplitude = rng.uniform(0.0, _AMP_SAFETY * head_room)
    return line + amplitude * np.sin(omega * i)


def _lowpass_taps(fs: int) -> np.ndarray:
    """63-tap Kaiser (beta 9) lowpass at 3400 Hz with unit DC gain, built as
    SciPy's ``firwin(63, 3400.0, fs=fs, window=("kaiser", 9.0))`` builds
    it: a windowed sinc scaled so its taps sum to 1."""
    if fs <= MIN_SYNTHETIC_FS:
        raise ValueError(f"the 3400 Hz source lowpass needs fs above {MIN_SYNTHETIC_FS} Hz, got {fs}")
    cutoff = 3400.0 / (0.5 * fs)
    m = np.arange(63) - 31.0
    taps = cutoff * np.sinc(cutoff * m) * np.kaiser(63, 9.0)
    taps /= taps.sum()
    taps.flags.writeable = False
    return taps


def synthetic_source(
    duration: float, framing: FramingConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Speech-like dry signal at ``framing.fs``: amplitude-modulated
    band-limited noise bursts.

    On segments last 0.3-2 s, pauses 0.1-1 s. The bursts pass a causal
    63-tap FIR lowpass (``_lowpass_taps``) by ``np.convolve`` cut to the
    signal's length, the computation ``lfilter`` does for an FIR filter.
    Returns the signal and the per-analysis-frame activity mask actually
    realized (frames whose RMS is exactly zero are marked silent).
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    fs = framing.fs
    n = int(round(duration * fs))
    gate = np.zeros(n)
    pos = 0
    active = True
    while pos < n:
        seg = rng.uniform(0.3, 2.0) if active else rng.uniform(0.1, 1.0)
        stop = min(n, pos + int(seg * fs))
        if active:
            gate[pos:stop] = 1.0
        pos = stop
        active = not active
    noise = rng.normal(size=n)
    # slow random envelope, roughly syllabic
    n_knots = max(2, int(duration * 4))
    knots = rng.uniform(0.3, 1.0, size=n_knots)
    envelope = np.interp(np.arange(n), np.linspace(0, n - 1, n_knots), knots)
    raw = noise * gate * envelope
    # confine the spectrum well below Nyquist (>60 dB down above 7 kHz)
    sig = np.convolve(_lowpass_taps(fs), raw)[:n]
    peak = np.max(np.abs(sig))
    if peak > 0:
        sig = 0.5 * sig / peak
    return sig, np.mean(framing.frames(sig) ** 2, axis=1) > 0.0


def clean_dry_signal(sig: np.ndarray, vad_mask: np.ndarray, framing: FramingConfig) -> np.ndarray:
    """Zero every sample not covered by at least one voiced frame."""
    vad_mask = np.asarray(vad_mask, dtype=bool)
    covered = framing.frames(np.arange(len(sig)))  # (T, K) sample indices
    if vad_mask.shape != covered.shape[:1]:
        raise ValueError(f"vad mask has shape {vad_mask.shape}, the signal has {len(covered)} frames")
    keep = covered[vad_mask]
    out = np.zeros_like(sig)
    out[keep] = sig[keep]
    return out


def wav_corpus_provider(directory):
    """Source provider reading mono WAVs from a directory, concatenated and
    trimmed to the requested duration; activity comes from the energy VAD.
    Each file is read with ``read_recording``, so an empty, multichannel or
    non-finite file, or one at another rate than the framing, is a
    FormatError, as is a directory that is missing or holds no WAVs.

    A source provider is called as ``provider(duration, framing, rng)`` and
    returns the dry signal at ``framing.fs`` with its per-frame activity mask.
    """
    paths = sorted(Path(directory).glob("*.wav"))
    if not paths:
        raise FormatError(f"no .wav files under {directory}")

    def provider(duration: float, framing: FramingConfig, rng: np.random.Generator):
        n = int(round(duration * framing.fs))
        order = rng.permutation(len(paths))
        chunks = []
        while sum(map(len, chunks)) < n:
            sig, _ = read_recording(paths[order[len(chunks) % len(paths)]], 1, framing)
            chunks.append(sig.channels[0])
        dry = np.concatenate(chunks)[:n]
        return dry, EnergyVad().mask(dry[None, :], framing)

    return provider


def synthesize_trajectory_sample(
    cfg: SceneConfig,
    source_provider,
    rng: np.random.Generator,
    array: MicArray | None = None,
    framing: FramingConfig | None = None,
) -> tuple[MicSignals, AcousticScene]:
    """Full scene synthesis: sample a scene, clean the dry source, render the
    moving source through the room and add noise at the sampled SNR. The
    sample rate and the analysis frames come from ``framing``."""
    array = array or default_array()
    framing = framing or FramingConfig()
    dry, vad_mask = source_provider(cfg.duration, framing, rng)
    dry = np.asarray(dry, dtype=float)
    vad_mask = np.asarray(vad_mask, dtype=bool)
    dry = clean_dry_signal(dry, vad_mask, framing)

    room, origin, snr = sample_scene(cfg, rng)
    traj = generate_trajectory(room, len(vad_mask), rng)

    mic_positions = origin + array.positions
    signals = render_moving_source(
        dry, traj, mic_positions, room, framing.fs, t_max=cfg.rir_t_max, hop=framing.hop
    )
    signals = add_noise(signals, snr, vad_mask, rng, framing)

    gt = np.stack(unit_to_sphere(traj - origin), axis=1)
    scene = AcousticScene(
        room=room,
        array=array,
        array_origin=origin,
        trajectory=traj,
        snr=snr,
        vad_mask=vad_mask,
        gt_doa=gt,
        vad_energy_mask=EnergyVad().mask(dry[None, :], framing),
    )
    return signals, scene


def sample_rng(master_seed: int, index: int) -> np.random.Generator:
    """Deterministic per-sample generator, independent of evaluation order."""
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(index,)))


def write_scene_metadata(path, scene: AcousticScene, framing: FramingConfig) -> None:
    meta = scene.metadata()
    meta["frame_timestamps_s"] = framing.frame_times(len(scene.trajectory)).tolist()
    Path(path).write_text(json.dumps(meta, indent=2) + "\n")
