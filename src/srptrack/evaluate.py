"""RMSAE metrics, experiment grids over (T60, SNR, resolution), file tracking.

``load_models`` fits checkpoint files to a run's grids, for the eval sweep and
file tracking alike. ``track_signal`` is the one path from a multichannel
signal to per-model tracks (features, then each model's input, then unit
vectors); scene evaluation and file tracking both call it. Angular errors are
kept in radians internally and reported in degrees in all user-facing output.
RMSAE pools frames across every trajectory of a cell.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import artifact
from .errors import EmptySelection, FormatError, ShapeError
from .geometry import (
    DEFAULT_GRID,
    MicArray,
    SphericalGrid,
    angular_error,
    delay_table,
    sphere_to_unit,
    unit_to_sphere,
)
from .models import forward_track, load_checkpoint, model_features, model_from_checkpoint
from .roomsim import read_recording
from .scenegen import SceneConfig, sample_rng, synthesize_trajectory_sample, synthetic_source
from .srpfeat import FramingConfig, InputTensor, compute_input_tensor

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
        finite = all(artifact.is_finite_number(v) for v in (*self.t60s, *self.snrs))
        count = artifact.is_count(self.trajectories_per_cell) and self.trajectories_per_cell >= 1
        if not count or not finite or min(self.t60s) < 0:
            raise ValueError(f"need an integer trajectories_per_cell >= 1, finite T60s >= 0 and finite SNRs,"
                             f" got {self.trajectories_per_cell} and {self.t60s} and {self.snrs}")
        if not artifact.is_count(self.master_seed):
            raise ValueError(f"master_seed must be a non-negative integer, got {self.master_seed!r}")
        for resolution in self.resolutions:
            if not isinstance(resolution, (tuple, list)) or len(resolution) != 2:
                raise ValueError(f"each resolution must be an (n_theta, n_phi) pair, got {resolution!r}")
            SphericalGrid(*resolution)  # raises ValueError for a count that is not an integer >= 2
        # a repeated value would evaluate one cell twice under one row label
        for axis, values in (("t60s", self.t60s), ("snrs", self.snrs),
                             ("resolutions", [tuple(r) for r in self.resolutions])):
            repeats = [v for i, v in enumerate(values) if v in values[:i]]
            if repeats:
                raise ValueError(f"{axis} repeats {repeats[0]!r}")


def load_models(paths, array: MicArray, fs: int, grids=None) -> dict:
    """Checkpoint files' models fitted to a run, ``{(n_theta, n_phi): {row name:
    model}}``, rows named ``kind:stem``. The grids are ``grids``, else the
    Cross3D checkpoints' own, else DEFAULT_GRID; each baseline runs on every
    grid (baseline-max reads the map maximum), a Cross3D model on its own.
    FormatError, naming the file, for a checkpoint that describes no model for
    ``array`` at ``fs`` or lies off ``grids``, or two giving one row on one grid.
    """
    grids = [tuple(g) for g in grids] if grids else None
    cross3d, baselines = {}, {}
    named = {}  # (grid, or None for a baseline, row name) -> checkpoint path
    for path in paths:
        ckpt = load_checkpoint(path)  # which names the file in its own errors
        try:
            model = model_from_checkpoint(ckpt, array=array, fs=fs)
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from exc
        name = f"{model.kind}:{Path(path).stem}"
        shape = (model.n_theta, model.n_phi) if model.kind == "cross3d" else None
        if (shape, name) in named:
            raise FormatError(f"{named[shape, name]} and {path} would both give the rows of {name}")
        named[shape, name] = path
        if shape is None:
            baselines[name] = model
        elif grids and shape not in grids:
            wanted = " ".join(f"{t}x{p}" for t, p in grids)
            raise FormatError(f"{path} is a {shape[0]}x{shape[1]} cross3d checkpoint,"
                              f" not on the requested grids {wanted}")
        else:
            cross3d.setdefault(shape, {})[name] = model
    return {shape: {**baselines, **cross3d.get(shape, {})} for shape in grids or cross3d or [DEFAULT_GRID]}


def track_signal(channels: np.ndarray, array: MicArray, grid: SphericalGrid, framing: FramingConfig,
                 vad_mask: np.ndarray | None, models: dict) -> tuple[InputTensor, dict]:
    """Input tensor of a (n_mics, n_samples) signal and each named model's
    track, ``{name: (units (T, 3), degenerate (T,))}``.

    ``vad_mask`` of None runs the energy VAD on the signal's own frames.
    """
    tensor = compute_input_tensor(channels, delay_table(array, grid), framing, vad_mask=vad_mask)
    tracks = {name: forward_track(model, model_features(model, tensor, channels, array, framing))
              for name, model in models.items()}
    return tensor, tracks


def evaluate_models_on_scene(signals, scene, grid, framing, models: dict):
    """Per-frame angular errors for the SRP argmax and each named model."""
    tensor, tracks = track_signal(signals.channels, scene.array, grid, framing,
                                  scene.vad_mask, models)
    gt = scene.gt_units()
    out = {"srp-argmax": angular_error(sphere_to_unit(*tensor.argmax_doa.T), gt)}
    out.update((name, angular_error(units, gt)) for name, (units, _) in tracks.items())
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
    framing = framing or FramingConfig()
    checkpoints = checkpoints or {}
    # every model is checked before the first scene is rendered
    resolutions = [tuple(r) for r in grid.resolutions]
    for resolution, models in checkpoints.items():
        if tuple(resolution) not in resolutions:
            raise ValueError(f"models filed under resolution {resolution!r}, which the grid lacks")
        for name, model in models.items():
            if model.kind == "cross3d" and (model.n_theta, model.n_phi) != tuple(resolution):
                raise ShapeError(f"{name} is a {model.n_theta}x{model.n_phi} cross3d model,"
                                 f" filed under {resolution[0]}x{resolution[1]}")
    # so is every cell's scene config, which refuses a T60 no room can render
    cells = list(itertools.product(grid.resolutions, grid.t60s, grid.snrs))
    cfgs = [replace(scene_cfg, t60_range=(t60, t60), snr_range=(snr, snr)) for _, t60, snr in cells]
    rows = []
    for cell_index, ((resolution, t60, snr), cfg) in enumerate(zip(cells, cfgs)):
        sph = SphericalGrid(*resolution)
        models = checkpoints.get(tuple(resolution), {})
        pooled: dict[str, list] = {}
        vads: list = []
        for k in range(grid.trajectories_per_cell):
            rng = sample_rng(grid.master_seed, cell_index * grid.trajectories_per_cell + k)
            signals, scene = synthesize_trajectory_sample(cfg, source_provider, rng, array=array,
                                                          framing=framing)
            errors, _ = evaluate_models_on_scene(signals, scene, sph, framing, models)
            for name, err in errors.items():
                pooled.setdefault(name, []).append(err)
            # voiced gating: the energy detector, not the raw oracle mask, so
            # frames with no usable windowed content count as silent
            vads.append(scene.vad_energy_mask)
        vad = np.concatenate(vads)
        for name, errs in sorted(pooled.items()):
            err = np.concatenate(errs)
            rows.append({"model": name, "resolution": f"{resolution[0]}x{resolution[1]}", "t60_s": t60,
                         "snr_db": snr, "rmsae_voiced_deg": rmsae(err, vad, include_silent=False),
                         "rmsae_all_deg": rmsae(err, vad, include_silent=True),
                         "n_traj": grid.trajectories_per_cell})
    return rows


def emit_plot_data(rows: list[dict], path) -> None:
    """Sweep CSV: one row per (model, resolution, t60, snr) cell."""
    rows = sorted(rows, key=lambda r: (r["model"], r["resolution"], r["t60_s"], r["snr_db"]))
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(PLOT_CSV_HEADER)
        writer.writerows([r["model"], r["resolution"], *(f"{r[key]:.6f}" for key in PLOT_CSV_HEADER[2:6]),
                          r["n_traj"]] for r in rows)


def track_file(
    wav_path,
    array: MicArray,
    checkpoint_path=None,
    grid: SphericalGrid | None = None,
    framing: FramingConfig | None = None,
    vad_mode: str = "energy",
) -> list[dict]:
    """Frame-by-frame DOA estimates for a multichannel recording.

    With a checkpoint the model tracks, without one the SRP argmax is
    reported; ``load_models`` picks the grid from ``grid`` and the checkpoint.
    Every frame uses only past context (causal convolutions, causal VAD), so
    rows for early frames never change when the file is truncated later.
    Without ``framing`` the default framing runs at the file's rate.
    """
    if vad_mode not in ("energy", "all"):
        raise ValueError(f"unknown vad mode {vad_mode!r}")
    signals, framing = read_recording(wav_path, array.n_mics, framing)
    ((shape, models),) = load_models([] if checkpoint_path is None else [checkpoint_path], array, framing.fs,
                                     None if grid is None else [grid.shape]).items()

    # None: the energy VAD runs on the frames the maps are computed from
    vad_mask = None if vad_mode == "energy" else np.ones(framing.n_frames(signals.n_samples), dtype=bool)
    tensor, tracks = track_signal(signals.channels, array, SphericalGrid(*shape), framing, vad_mask, models)
    if tracks:
        ((units, degenerate),) = tracks.values()
        theta, phi = unit_to_sphere(units)
    else:
        theta, phi = tensor.argmax_doa.T
        degenerate = np.zeros(tensor.n_frames, dtype=bool)

    # one row per frame, keyed in CSV column order; tolist() gives Python scalars
    columns = (framing.frame_times(tensor.n_frames), np.degrees(phi), np.degrees(theta), tensor.vad,
               degenerate)
    return [dict(zip(TRACK_CSV_HEADER, row)) for row in zip(*(c.tolist() for c in columns))]


def write_track_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(TRACK_CSV_HEADER)
        writer.writerows([*(f"{r[key]:.6f}" for key in TRACK_CSV_HEADER[:3]), int(r["vad"]),
                          int(r["degenerate"])] for r in rows)
