"""Random acoustic-scene sampling, trajectory generation and scene synthesis.

Scenes are drawn on the fly: room size, reverberation time, SNR and array
placement come from uniform distributions; the source follows a line between
two random points plus a bounded random sinusoid per axis. Every sample is a
pure function of (config, seed, source signal), so the training stream behaves
like an infinite dataset while staying reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.signal import firwin, lfilter

from .geometry import MicArray, as_vec3, default_array, sphere_to_unit, unit_to_doa
from .roomsim import MicSignals, Room, add_noise, render_moving_source
from .srpfeat import EnergyVad, FramingConfig, frame_indices

_WALL_CLEARANCE = 1e-3  # m, keeps sampled endpoints strictly inside
_AMP_SAFETY = 0.999


@dataclass(frozen=True, eq=False)
class SceneConfig:
    """Sampling ranges for random scenes (uniform over every range)."""

    room_min: np.ndarray = field(default_factory=lambda: np.array([3.0, 3.0, 2.5]))
    room_max: np.ndarray = field(default_factory=lambda: np.array([10.0, 8.0, 6.0]))
    snr_range: tuple[float, float] = (5.0, 30.0)
    t60_range: tuple[float, float] = (0.2, 1.3)
    fs: int = 16000
    duration: float = 20.0
    wall_margin_fraction: float = 0.1
    rir_t_max: float | None = None  # None: full T60

    def __post_init__(self):
        rmin = as_vec3(self.room_min)
        rmax = as_vec3(self.room_max)
        if np.any(rmin > rmax):
            raise ValueError("room_min must be <= room_max componentwise")
        if self.snr_range[0] > self.snr_range[1] or self.t60_range[0] > self.t60_range[1]:
            raise ValueError("ranges must be nonempty")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        object.__setattr__(self, "room_min", rmin)
        object.__setattr__(self, "room_max", rmax)

    @classmethod
    def from_dict(cls, obj: dict) -> "SceneConfig":
        kwargs = dict(obj)
        for key in ("room_min", "room_max"):
            if key in kwargs:
                kwargs[key] = np.asarray(kwargs[key], dtype=float)
        for key in ("snr_range", "t60_range"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """L source positions: straight line p0 -> p_end plus a per-axis sinusoid."""

    points: np.ndarray  # (L, 3)
    p0: np.ndarray
    p_end: np.ndarray
    amplitude: np.ndarray  # (3,)
    omega: np.ndarray  # (3,) radians per point index

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


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
    trajectory: Trajectory
    snr: float
    vad_mask: np.ndarray  # (L,) bool, from the dry source
    gt_doa: np.ndarray  # (L, 2) theta, phi in the array frame
    vad_energy_mask: np.ndarray | None = None

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
            "trajectory_points_m": self.trajectory.points.tolist(),
            "vad_mask": self.vad_mask.astype(int).tolist(),
            "vad_energy_mask": None if self.vad_energy_mask is None
            else self.vad_energy_mask.astype(int).tolist(),
            "gt_doa_deg": np.degrees(self.gt_doa).tolist(),
        }


def sample_scene(cfg: SceneConfig, rng: np.random.Generator) -> tuple[Room, np.ndarray, float, float]:
    """Draw (room, array origin, snr, t60) from the configured ranges.

    The array origin keeps the wall margin on every axis and sits in the
    lower half of the room vertically.
    """
    dims = rng.uniform(cfg.room_min, cfg.room_max)
    t60 = float(rng.uniform(*cfg.t60_range))
    snr = float(rng.uniform(*cfg.snr_range))
    m = cfg.wall_margin_fraction
    lo = m * dims
    hi = np.array([(1.0 - m) * dims[0], (1.0 - m) * dims[1], 0.5 * dims[2]])
    origin = rng.uniform(lo, hi)
    return Room.from_t60(dims, t60), origin, snr, t60


def generate_trajectory(room: Room, n_points: int, rng: np.random.Generator) -> Trajectory:
    """Line-plus-sine source path with every point strictly inside the room.

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
    points = line + amplitude * np.sin(omega * i)
    return Trajectory(points=points, p0=p0, p_end=p_end, amplitude=amplitude, omega=omega)


def synthetic_source(
    duration: float, fs: int, rng: np.random.Generator, framing: FramingConfig | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Speech-like dry signal: amplitude-modulated band-limited noise bursts.

    On segments last 0.3-2 s, pauses 0.1-1 s. Returns the signal and the
    per-analysis-frame activity mask actually realized (frames whose RMS is
    exactly zero are marked silent).
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    framing = framing or FramingConfig(fs=fs)
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
    taps = firwin(63, 3400.0, fs=fs, window=("kaiser", 9.0))
    sig = lfilter(taps, 1.0, raw)
    peak = np.max(np.abs(sig))
    if peak > 0:
        sig = 0.5 * sig / peak
    idx = frame_indices(framing.n_frames(n), framing.K, framing.hop)
    return sig, np.mean(sig[idx] ** 2, axis=1) > 0.0


def clean_dry_signal(sig: np.ndarray, vad_mask: np.ndarray, framing: FramingConfig) -> np.ndarray:
    """Zero every sample not covered by at least one voiced frame."""
    vad_mask = np.asarray(vad_mask, dtype=bool)
    n_frames = framing.n_frames(len(sig))
    if vad_mask.shape != (n_frames,):
        raise ValueError(f"vad mask has shape {vad_mask.shape}, the signal has {n_frames} frames")
    keep = np.zeros(len(sig), dtype=bool)
    keep[frame_indices(len(vad_mask), framing.K, framing.hop)[vad_mask]] = True
    out = sig.copy()
    out[~keep] = 0.0
    return out


def wav_corpus_provider(directory):
    """Source provider reading mono WAVs from a directory, concatenated and
    trimmed to the requested duration; activity comes from the energy VAD."""
    paths = sorted(Path(directory).glob("*.wav"))
    if not paths:
        raise FileNotFoundError(f"no .wav files under {directory}")

    def provider(duration: float, fs: int, rng: np.random.Generator):
        n = int(round(duration * fs))
        order = rng.permutation(len(paths))
        chunks = []
        total = 0
        k = 0
        while total < n:
            sig = MicSignals.from_wav(paths[order[k % len(paths)]])
            if sig.fs != fs:
                raise ValueError(f"{paths[order[k % len(paths)]]} is {sig.fs} Hz, expected {fs}")
            chunks.append(sig.channels[0])
            total += sig.channels.shape[1]
            k += 1
        dry = np.concatenate(chunks)[:n]
        framing = FramingConfig(fs=fs)
        mask = EnergyVad().mask(dry[None, :], framing)
        return dry, mask

    return provider


def synthesize_trajectory_sample(
    cfg: SceneConfig,
    source_provider,
    rng: np.random.Generator,
    array: MicArray | None = None,
    framing: FramingConfig | None = None,
) -> tuple[MicSignals, AcousticScene]:
    """Full scene synthesis: sample a scene, clean the dry source, render the
    moving source through the room and add noise at the sampled SNR."""
    array = array or default_array()
    framing = framing or FramingConfig(fs=cfg.fs)
    dry, vad_mask = source_provider(cfg.duration, cfg.fs, rng)
    dry = np.asarray(dry, dtype=float)
    vad_mask = np.asarray(vad_mask, dtype=bool)
    dry = clean_dry_signal(dry, vad_mask, framing)

    room, origin, snr, _ = sample_scene(cfg, rng)
    traj = generate_trajectory(room, len(vad_mask), rng)

    mic_positions = origin + array.positions
    signals = render_moving_source(
        dry, traj.points, mic_positions, room, cfg.fs, t_max=cfg.rir_t_max, hop=framing.hop
    )
    signals = add_noise(signals, snr, vad_mask, rng, window_len=framing.K, hop=framing.hop)

    rel = traj.points - origin
    gt = np.array([[d.theta, d.phi] for d in map(unit_to_doa, rel)])
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
    meta["frame_timestamps_s"] = framing.frame_times(scene.trajectory.n_points).tolist()
    Path(path).write_text(json.dumps(meta, indent=2) + "\n")
