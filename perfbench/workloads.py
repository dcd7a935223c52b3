"""The benchmark's workloads: train-cross3d, track-wav and eval-reverb.

Each is a closed loop with one client: the next operation starts when the
previous one has returned, until the run's seconds are used up. Inputs come
from a fixed pool of items whose outputs, made when the benchmark was defined,
are stored in ``goldens/<workload>.json``; the run seed picks and orders the
items, so every operation is checked against a stored output.

Room and T60 are fixed per workload. Image-source cost grows steeply as the
room shrinks (a 3 m room costs about 20 times a 10 m one at T60 0.7 s) and
linearly with T60 (1.7 to 2.9 s per training sample over T60 0.2 to 0.3 s),
so drawing them would make the cost of a run depend on its seed. The seed
still varies the source signal and path, the array placement and the noise.
"""

from __future__ import annotations

import itertools
import math
import statistics
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from srptrack import evaluate, geometry, models, scenegen, srpfeat
from srptrack.scenegen import SceneConfig

# Output tolerances. Float64 paths (SRP argmax DOAs and their RMSAE) repeat
# to rounding; float32 model paths may differ with BLAS summation order, far
# below a grid step (11 degrees at 16x32) or a wrong model.
SRP_DOA_TOL_DEG = 1e-6
MODEL_DOA_TOL_DEG = 1e-2
SRP_RMSAE_TOL_DEG = 1e-6
MODEL_RMSAE_TOL_DEG = 1e-2
# Weights perturbed by 1e-7 (float32 rounding) move the training losses by up
# to 2e-4 after a few Adam steps; skipping one step moves them by 15-45 %.
LOSS_RTOL = 1e-2


@dataclass
class Record:
    """One operation: key, wall time, seconds of audio it covered, and its
    JSON-serializable output or the error it raised."""

    key: str
    wall_s: float
    audio_s: float
    out: object = None
    error: str | None = None


class _Stop(Exception):
    """Raised from the training log callback to end the closed loop."""


def _no_mark(_op: int) -> None:
    pass


def pool_order(seed: int, pool) -> list:
    """The pool's items in the order that run seed ``seed`` visits them."""
    return [pool[i] for i in np.random.default_rng(seed).permutation(len(pool))]


def _timed_op(key: str, audio_s: float, call) -> Record:
    """Run one operation; an exception it raises becomes its error."""
    t0 = time.perf_counter()
    try:
        out = call()
    except Exception as exc:
        return Record(key, time.perf_counter() - t0, audio_s, None, repr(exc))
    return Record(key, time.perf_counter() - t0, audio_s, out)


def _loop_done(records, n_ops, start: float, seconds: float) -> bool:
    """A replay stops after ``n_ops`` operations, a timed run once ``seconds`` passed."""
    if n_ops is not None:
        return len(records) >= n_ops
    return time.perf_counter() - start >= seconds


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _fixed_room(dims) -> dict:
    d = np.asarray(dims, dtype=float)
    return {"room_min": d, "room_max": d}


def _warm_up(array, resolution, loaded) -> None:
    """First calls into FFT and BLAS, on two frames of silence."""
    framing = srpfeat.FramingConfig()
    delays = geometry.delay_table(array, geometry.SphericalGrid(*resolution))
    channels = np.zeros((array.n_mics, framing.K + framing.hop))
    tensor = srpfeat.compute_input_tensor(channels, delays, framing)
    for model in loaded:
        if model.kind == "baseline-gcc":
            model.forward(models.baseline_gcc_features(channels, array, framing))
        else:
            model.forward(model.features_from(tensor))


def _save_models(directory: Path, resolution, array, seeds) -> None:
    """Seeded random-init Cross3D and GCC-baseline checkpoints."""
    cross3d = models.build_cross3d(*resolution, seed=seeds[0])
    gcc = models.build_baseline_gcc(array, 16000, seed=seeds[1])
    for model in (cross3d, gcc):
        models.save_checkpoint(directory / f"{model.kind}.sstc", models.make_checkpoint(model))


def _load_model(path):
    return models.model_from_checkpoint(models.load_checkpoint(path))


def _angles_deg(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Great-circle angles between rows of (azimuth, elevation) in degrees."""

    def units(rows):
        ph, th = np.radians(rows[:, 0]), np.radians(rows[:, 1])
        return np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=1)

    u, v = units(a), units(b)
    return np.degrees(np.arctan2(np.linalg.norm(np.cross(u, v), axis=1), np.sum(u * v, axis=1)))


class Workload:
    """Common parts; subclasses are frozen dataclasses of their parameters."""

    name = ""
    round_ops = 1  # operations that together run every code path of the workload once

    def params(self) -> dict:
        return asdict(self)

    def items(self, seed: int) -> list:
        """The pool items a run with this seed uses, in order."""
        raise NotImplementedError

    def golden_runs(self) -> list[tuple[list, int]]:
        """(items, operations) per run that together cover every pool item."""
        raise NotImplementedError

    def rtf(self, records: list[Record]) -> float:
        """Median over operations of wall seconds per second of audio."""
        return _median([r.wall_s / r.audio_s for r in records])


@dataclass(frozen=True)
class TrainCross3D(Workload):
    """``models.train`` on Cross3D with phase-1 curriculum settings.

    One operation is one training batch: synthesis, features, forward and
    backward for each sample, then one Adam step. The run seed picks one
    training episode (model init and sample stream) from the pool.
    """

    name = "train-cross3d"
    scenes_per_op = property(lambda self: self.batch)
    resolution: tuple = (16, 32)
    batch: int = 1
    lr: float = 1e-4
    snr_db: float = 30.0
    traj_seconds: float = 10.0
    t60: float = 0.25
    room_m: tuple = (6.0, 5.0, 3.0)
    pool: tuple = (0, 1, 2, 3)
    max_batches: int = 24

    def items(self, seed):
        return pool_order(seed, self.pool)[:1]

    def golden_runs(self):
        return [([episode], self.max_batches) for episode in self.pool]

    def setup(self, directory: Path, items) -> None:
        model = models.build_cross3d(*self.resolution, seed=items[0])
        models.save_checkpoint(directory / "cross3d.sstc", models.make_checkpoint(model))

    def prepare(self, directory: Path) -> dict:
        array = geometry.default_array()
        model = _load_model(directory / "cross3d.sstc")
        _warm_up(array, self.resolution, [model])
        return {"array": array, "model": model}

    def run(self, ctx, items, seconds, n_ops=None, mark=_no_mark) -> list[Record]:
        episode = items[0]
        cfg = models.TrainConfig(
            epochs=1, phase1_epochs=1, trajectories_per_epoch=self.batch * self.max_batches,
            traj_seconds=self.traj_seconds, phase1_snr=self.snr_db, phase1_batch=self.batch,
            phase1_lr=self.lr, seed=episode,
        )
        scene_cfg = SceneConfig(**_fixed_room(self.room_m), t60_range=(self.t60, self.t60))
        grid = geometry.SphericalGrid(*self.resolution)
        audio_s = self.batch * self.traj_seconds
        records: list[Record] = []
        start = last = time.perf_counter()

        def log(_epoch, _batch, loss):
            nonlocal last
            now = time.perf_counter()
            records.append(Record(f"{episode}/{len(records)}", now - last, audio_s, loss))
            last = now
            if len(records) >= self.max_batches or _loop_done(records, n_ops, start, seconds):
                raise _Stop
            mark(len(records))

        mark(0)
        try:
            models.train(ctx["model"], cfg, scene_cfg, ctx["array"], grid,
                         source_provider=scenegen.synthetic_source, log=log)
        except _Stop:
            pass
        except Exception as exc:  # the failed batch is the run's last operation
            records.append(Record(f"{episode}/{len(records)}", time.perf_counter() - last,
                                  audio_s, None, repr(exc)))
        return records

    def check(self, rec: Record, want) -> list[str]:
        if not math.isfinite(rec.out):
            return [f"{rec.key}: loss {rec.out}"]
        if abs(rec.out - want) > LOSS_RTOL * abs(want):
            return [f"{rec.key}: loss {rec.out!r}, golden {want!r}"]
        return []

    def detail(self, records) -> dict:
        samples = self.batch * len(records)
        return {"train.samples_per_s": (samples / sum(r.wall_s for r in records), "1/s")}


@dataclass(frozen=True)
class TrackWav(Workload):
    """``evaluate.track_file`` on 20 s, 12-channel WAVs, three ways per file.

    One operation is one ``track_file`` call; the loop stops only after whole
    files, so every run has the same mix of the three kinds. The WAVs are
    synthesized during setup (short RIRs keep that cheap; tracking cost does
    not depend on the content), and both checkpoints are seeded random-init
    weights.
    """

    name = "track-wav"
    scenes_per_op = 0
    round_ops = property(lambda self: len(self.kinds))
    resolution: tuple = (16, 32)
    wav_seconds: float = 20.0
    files_per_run: int = 1
    pool: tuple = tuple(range(8))
    scene_seed: int = 7
    room_m: tuple = (6.0, 5.0, 3.0)
    t60: float = 0.3
    rir_t_max: float = 0.032
    snr_db: float = 20.0
    model_seeds: tuple = (1, 2)
    kinds: tuple = ("srp", "cross3d", "baseline-gcc")

    def items(self, seed):
        return pool_order(seed, self.pool)[: self.files_per_run]

    def golden_runs(self):
        return [(list(self.pool), len(self.pool) * len(self.kinds))]

    def setup(self, directory: Path, items) -> None:
        array = geometry.default_array()
        cfg = SceneConfig(
            **_fixed_room(self.room_m), t60_range=(self.t60, self.t60),
            snr_range=(self.snr_db, self.snr_db), duration=self.wav_seconds,
            rir_t_max=self.rir_t_max,
        )
        for item in items:
            rng = scenegen.sample_rng(self.scene_seed, item)
            signals, _ = scenegen.synthesize_trajectory_sample(
                cfg, scenegen.synthetic_source, rng, array=array)
            signals.to_wav(directory / f"{item}.wav")
        _save_models(directory, self.resolution, array, self.model_seeds)

    def prepare(self, directory: Path) -> dict:
        array = geometry.default_array()
        ckpts = {"srp": None, "cross3d": directory / "cross3d.sstc",
                 "baseline-gcc": directory / "baseline-gcc.sstc"}
        _warm_up(array, self.resolution, [_load_model(p) for p in ckpts.values() if p])
        wavs = {int(p.stem): p for p in directory.glob("*.wav")}
        return {"array": array, "ckpts": ckpts, "wavs": wavs}

    def run(self, ctx, items, seconds, n_ops=None, mark=_no_mark) -> list[Record]:
        records: list[Record] = []
        start = time.perf_counter()
        for path in itertools.cycle([ctx["wavs"][i] for i in items]):
            for kind in self.kinds:
                mark(len(records))
                rec = _timed_op(f"{path.stem}/{kind}", self.wav_seconds, lambda: evaluate.track_file(
                    path, ctx["array"], checkpoint_path=ctx["ckpts"][kind]))
                if rec.error is None:
                    rec.out = [[r["azimuth_deg"], r["elevation_deg"], int(r["vad"]), int(r["degenerate"])]
                               for r in rec.out]
                records.append(rec)
            if _loop_done(records, n_ops, start, seconds):
                return records

    def rtf(self, records: list[Record]) -> float:
        """Median over files of the three kinds' wall time per second of audio."""
        k = len(self.kinds)
        files = [records[i:i + k] for i in range(0, len(records), k)]
        return _median([sum(r.wall_s for r in f) / f[0].audio_s for f in files])

    def check(self, rec: Record, want) -> list[str]:
        got, want = np.asarray(rec.out, dtype=float), np.asarray(want, dtype=float)
        if got.shape != want.shape:
            return [f"{rec.key}: {len(got)} rows, golden has {len(want)}"]
        problems = []
        az, el = got[:, 0], got[:, 1]
        if not np.all(np.isfinite(got)) or np.any(np.abs(az) > 180) or np.any((el < 0) | (el > 180)):
            problems.append(f"{rec.key}: DOA not finite or out of range")
        if not np.array_equal(got[:, 2:], want[:, 2:]):
            problems.append(f"{rec.key}: vad/degenerate flags differ from golden")
        tol = SRP_DOA_TOL_DEG if rec.key.endswith("/srp") else MODEL_DOA_TOL_DEG
        worst = float(np.nanmax(_angles_deg(got, want), initial=0.0))
        if not worst <= tol:
            problems.append(f"{rec.key}: DOA off golden by {worst:.3g} deg (tolerance {tol})")
        return problems

    def detail(self, records) -> dict:
        return {f"track.rtf.{kind}": (_median(
            [r.wall_s / r.audio_s for r in records if r.key.endswith("/" + kind)]), "s/s")
            for kind in self.kinds}


@dataclass(frozen=True)
class EvalReverb(Workload):
    """``evaluate.run_grid`` on one reverberant cell, one trajectory per call.

    The cell evaluates the SRP argmax plus Cross3D and GCC-baseline
    checkpoints, as ``srptrack eval --checkpoint`` would. The run seed orders
    the pool of trajectory seeds.
    """

    name = "eval-reverb"
    scenes_per_op = 1
    resolution: tuple = (16, 32)
    t60: float = 0.7
    snr_db: float = 20.0
    traj_seconds: float = 8.0
    room_m: tuple = (6.0, 5.0, 3.0)
    pool: tuple = tuple(range(6))
    model_seeds: tuple = (1, 2)

    def items(self, seed):
        return pool_order(seed, self.pool)

    def golden_runs(self):
        return [(list(self.pool), len(self.pool))]

    def setup(self, directory: Path, items) -> None:
        _save_models(directory, self.resolution, geometry.default_array(), self.model_seeds)

    def prepare(self, directory: Path) -> dict:
        array = geometry.default_array()
        loaded = {}
        for kind in ("cross3d", "baseline-gcc"):
            path = directory / f"{kind}.sstc"
            loaded[f"{kind}:{path.stem}"] = _load_model(path)
        _warm_up(array, self.resolution, loaded.values())
        return {"array": array, "models": loaded}

    def run(self, ctx, items, seconds, n_ops=None, mark=_no_mark) -> list[Record]:
        scene_cfg = SceneConfig(**_fixed_room(self.room_m), duration=self.traj_seconds)
        res = tuple(self.resolution)
        records: list[Record] = []
        start = time.perf_counter()
        for item in itertools.cycle(items):
            mark(len(records))
            grid = evaluate.ExperimentGrid(
                t60s=(self.t60,), snrs=(self.snr_db,), resolutions=(res,),
                trajectories_per_cell=1, master_seed=item,
            )
            rec = _timed_op(str(item), self.traj_seconds, lambda: evaluate.run_grid(
                grid, scene_cfg, ctx["array"], {res: ctx["models"]},
                source_provider=scenegen.synthetic_source))
            if rec.error is None:
                rec.out = {r["model"]: [r["rmsae_voiced_deg"], r["rmsae_all_deg"]] for r in rec.out}
            records.append(rec)
            if _loop_done(records, n_ops, start, seconds):
                return records

    def check(self, rec: Record, want) -> list[str]:
        if sorted(rec.out) != sorted(want):
            return [f"{rec.key}: models {sorted(rec.out)}, golden has {sorted(want)}"]
        problems = []
        for model, values in rec.out.items():
            tol = SRP_RMSAE_TOL_DEG if model == "srp-argmax" else MODEL_RMSAE_TOL_DEG
            for got, ref in zip(values, want[model]):
                if not abs(got - ref) <= tol:
                    problems.append(f"{rec.key}: {model} RMSAE {got!r}, golden {ref!r}")
        return problems

    def detail(self, records) -> dict:
        return {
            "eval.traj_per_s": (len(records) / sum(r.wall_s for r in records), "1/s"),
            # the run's first trajectory, so the value does not depend on how
            # many trajectories fit in the run
            "eval.rmsae_voiced_deg": (
                records[0].out["srp-argmax"][0] if records[0].out else 0.0, "deg"),
        }


WORKLOADS = {w.name: w for w in (TrainCross3D(), TrackWav(), EvalReverb())}
