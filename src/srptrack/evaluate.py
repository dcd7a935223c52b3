"""RMSAE metrics, experiment grids over (T60, SNR, resolution), file tracking.

Angular errors are kept in radians internally and reported in degrees in all
user-facing output. RMSAE pools frames across every trajectory of a cell.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptySelection, FormatError
from .geometry import MicArray, SphericalGrid, angular_error, delay_table, sphere_to_unit, unit_to_doa
from .models import baseline_gcc_features, forward_track, load_checkpoint, model_from_checkpoint
from .roomsim import MicSignals
from .scenegen import SceneConfig, sample_rng, synthesize_trajectory_sample, synthetic_source
from .srpfeat import EnergyVad, FramingConfig, compute_input_tensor

PLOT_CSV_HEADER = ["model", "resolution", "t60_s", "snr_db", "rmsae_voiced_deg", "rmsae_all_deg", "n_traj"]
TRACK_CSV_HEADER = ["time_s", "azimuth_deg", "elevation_deg", "vad", "degenerate"]


def rmsae(errors_rad: np.ndarray, mask: np.ndarray, include_silent: bool) -> float:
    """Root mean squared angular error in degrees over the selected frames."""
    errors_rad = np.asarray(errors_rad, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if errors_rad.shape != mask.shape:
        raise ValueError("errors and mask must have the same shape")
    selected = errors_rad if include_silent else errors_rad[mask]
    if selected.size == 0:
        raise EmptySelection("no frames selected for RMSAE")
    return float(np.degrees(math.sqrt(float(np.mean(selected**2)))))


@dataclass(frozen=True, eq=False)
class EvalResult:
    errors_rad: np.ndarray
    vad: np.ndarray
    metadata: dict

    @property
    def rmsae_voiced(self) -> float:
        return rmsae(self.errors_rad, self.vad, include_silent=False)

    @property
    def rmsae_all(self) -> float:
        return rmsae(self.errors_rad, self.vad, include_silent=True)


@dataclass(frozen=True)
class ExperimentGrid:
    t60s: tuple
    snrs: tuple
    resolutions: tuple  # (n_theta, n_phi) pairs
    trajectories_per_cell: int = 50
    master_seed: int = 0

    def __post_init__(self):
        if not (self.t60s and self.snrs and self.resolutions):
            raise ValueError("grid axes must be nonempty")


def _model_errors(model, tensor, signals, scene, array, framing) -> np.ndarray:
    if getattr(model, "kind", None) == "baseline-gcc":
        feats = baseline_gcc_features(
            signals.channels.astype(float), array, framing, vad_mask=scene.vad_mask
        )
    else:
        feats = model.features_from(tensor)
    _, units, _ = forward_track(model, feats)
    return angular_error(units.T, scene.gt_units())


def evaluate_models_on_scene(signals, scene, grid, framing, models: dict):
    """Per-frame angular errors for the SRP argmax and each named model."""
    delays = delay_table(scene.array, grid)
    tensor = compute_input_tensor(
        signals.channels.astype(float), delays, framing, vad_mask=scene.vad_mask
    )
    out = {"srp-argmax": angular_error(sphere_to_unit(*tensor.argmax_doa.T), scene.gt_units())}
    for name, model in models.items():
        out[name] = _model_errors(model, tensor, signals, scene, scene.array, framing)
    return out, tensor


def run_grid(
    grid: ExperimentGrid,
    scene_cfg: SceneConfig,
    array: MicArray,
    checkpoints: dict | None = None,
    framing: FramingConfig | None = None,
    source_provider=synthetic_source,
) -> list[dict]:
    """Evaluate the SRP argmax and optional models over every grid cell.

    ``checkpoints`` maps a resolution pair to {model name: model}. Returns one
    row per (model, resolution, t60, snr) with frame errors pooled across the
    cell's trajectories.
    """
    framing = framing or FramingConfig(fs=scene_cfg.fs)
    checkpoints = checkpoints or {}
    rows = []
    cell_index = 0
    for resolution in grid.resolutions:
        sph = SphericalGrid(*resolution)
        models = checkpoints.get(tuple(resolution), {})
        for t60 in grid.t60s:
            for snr in grid.snrs:
                cfg = replace(scene_cfg, t60_range=(t60, t60), snr_range=(snr, snr))
                pooled: dict[str, list] = {}
                vads: list = []
                for k in range(grid.trajectories_per_cell):
                    rng = sample_rng(grid.master_seed, cell_index * grid.trajectories_per_cell + k)
                    signals, scene = synthesize_trajectory_sample(
                        cfg, source_provider, rng, array=array, framing=framing
                    )
                    errors, _ = evaluate_models_on_scene(signals, scene, sph, framing, models)
                    for name, err in errors.items():
                        pooled.setdefault(name, []).append(err)
                    # voiced gating: the energy detector, not the raw oracle
                    # mask, so frames with no usable windowed content count
                    # as silent
                    vads.append(scene.vad_energy_mask)
                vad = np.concatenate(vads)
                for name, errs in sorted(pooled.items()):
                    err = np.concatenate(errs)
                    rows.append(
                        {
                            "model": name,
                            "resolution": f"{resolution[0]}x{resolution[1]}",
                            "t60_s": t60,
                            "snr_db": snr,
                            "rmsae_voiced_deg": rmsae(err, vad, include_silent=False),
                            "rmsae_all_deg": rmsae(err, vad, include_silent=True),
                            "n_traj": grid.trajectories_per_cell,
                        }
                    )
                cell_index += 1
    return rows


def emit_plot_data(rows: list[dict], path) -> None:
    """Sweep CSV: one row per (model, resolution, t60, snr) cell."""
    rows = sorted(rows, key=lambda r: (r["model"], r["resolution"], r["t60_s"], r["snr_db"]))
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(PLOT_CSV_HEADER)
        for r in rows:
            writer.writerow(
                [
                    r["model"],
                    r["resolution"],
                    f"{r['t60_s']:.6f}",
                    f"{r['snr_db']:.6f}",
                    f"{r['rmsae_voiced_deg']:.6f}",
                    f"{r['rmsae_all_deg']:.6f}",
                    r["n_traj"],
                ]
            )


def track_file(
    wav_path,
    array: MicArray,
    checkpoint_path=None,
    grid: SphericalGrid | None = None,
    framing: FramingConfig | None = None,
    vad_mode: str = "energy",
) -> list[dict]:
    """Frame-by-frame DOA estimates for a multichannel recording.

    With a checkpoint the model tracks; without one the SRP argmax is
    reported. Every frame only uses past context (causal convolutions, causal
    VAD), so rows for early frames never change when the file is truncated
    later.
    """
    signals = MicSignals.from_wav(wav_path)
    if signals.channels.shape[0] != array.n_mics:
        raise FormatError(
            f"{wav_path} has {signals.channels.shape[0]} channels, array has {array.n_mics}"
        )
    bad = np.argwhere(~np.isfinite(signals.channels))
    if len(bad):
        channel, sample = bad[0]
        raise FormatError(f"{wav_path} has a non-finite value at channel {channel}, sample {sample}")
    framing = framing or FramingConfig(fs=signals.fs)
    model = None
    if checkpoint_path is not None:
        model = model_from_checkpoint(load_checkpoint(checkpoint_path), array=array, fs=signals.fs)
        if model.kind == "cross3d":
            grid = SphericalGrid(model.spec["n_theta"], model.spec["n_phi"])
    if grid is None:
        grid = SphericalGrid(16, 32)

    channels = signals.channels.astype(float)
    if vad_mode == "energy":
        vad_mask = EnergyVad().mask(channels, framing)
    elif vad_mode == "all":
        vad_mask = np.ones(framing.n_frames(channels.shape[1]), dtype=bool)
    else:
        raise ValueError(f"unknown vad mode {vad_mode!r}")

    delays = delay_table(array, grid)
    tensor = compute_input_tensor(channels, delays, framing, vad_mask=vad_mask)
    if model is None:
        units = sphere_to_unit(*tensor.argmax_doa.T).T
        degenerate = np.zeros(tensor.n_frames, dtype=bool)
    else:
        if model.kind == "baseline-gcc":
            feats = baseline_gcc_features(channels, array, framing, vad_mask=vad_mask)
        else:
            feats = model.features_from(tensor)
        _, units, degenerate = forward_track(model, feats)

    times = framing.frame_times(tensor.n_frames)
    rows = []
    for i in range(tensor.n_frames):
        doa = unit_to_doa(units[:, i])
        rows.append(
            {
                "time_s": float(times[i]),
                "azimuth_deg": math.degrees(doa.phi),
                "elevation_deg": math.degrees(doa.theta),
                "vad": bool(vad_mask[i]),
                "degenerate": bool(degenerate[i]),
            }
        )
    return rows


def write_track_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(TRACK_CSV_HEADER)
        for r in rows:
            writer.writerow(
                [
                    f"{r['time_s']:.6f}",
                    f"{r['azimuth_deg']:.6f}",
                    f"{r['elevation_deg']:.6f}",
                    int(r["vad"]),
                    int(r["degenerate"]),
                ]
            )
