"""Command-line interface.

Subcommands: synth, features, train, eval, track, paramcount. Every command
takes --seed and --config; the config is a JSON file with optional "scene",
"framing" and "train" sections whose keys match the corresponding config
dataclasses. The sample rate is the "framing" section's "fs"; any other
section or key is rejected. eval and track fit their checkpoints to the run
through ``evaluate.load_models``: one grid rule, and every checkpoint error
names its file. ``run`` is the ``srptrack`` command: it reports a
``SrpTrackError`` in one stderr line with exit status ERROR_EXIT, where
``main`` raises it, and each warning in one stderr line too.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import warnings
from pathlib import Path
from typing import NamedTuple

from .errors import FormatError, ImageGridTooLarge, SrpTrackError
from .evaluate import ExperimentGrid, emit_plot_data, load_models, run_grid, track_file, write_track_csv
from .geometry import DEFAULT_GRID, MicArray, SphericalGrid, default_array, delay_table
from .models import (
    MODEL_KINDS,
    TrainConfig,
    build_baseline_gcc,
    build_baseline_max,
    build_cross3d,
    save_checkpoint,
    train,
)
from .roomsim import read_recording
from .scenegen import (
    MIN_SYNTHETIC_FS,
    SceneConfig,
    sample_rng,
    synthesize_trajectory_sample,
    synthetic_source,
    wav_corpus_provider,
    write_scene_metadata,
)
from .srpfeat import FramingConfig, compute_input_tensor, save_features

_SECTIONS = {"scene": SceneConfig, "framing": FramingConfig, "train": TrainConfig}


class _Config(NamedTuple):
    scene: SceneConfig
    framing: FramingConfig
    train: TrainConfig
    # None without a framing section, so that a recording is framed at its own rate
    file_framing: FramingConfig | None


def _load_config(path, seed: int) -> _Config:
    """Every section's config, from the file or the defaults; the training
    seed defaults to ``seed``. FormatError for a file that cannot be read, bad
    JSON, an unknown section or key, or a value the section's config rejects."""
    cfg = {}
    if path is not None:
        try:
            cfg = json.loads(Path(path).read_text())
        except OSError as exc:
            raise FormatError(f"cannot read {path}: {exc.strerror or exc}") from exc
        except ValueError as exc:
            raise FormatError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise FormatError(f"{path}: the top level must be an object")
    for name, section in cfg.items():
        if name not in _SECTIONS:
            raise FormatError(f"{path}: unknown section {name!r}")
        if not isinstance(section, dict):
            raise FormatError(f"{path}: section {name!r} must be an object")
        known = {f.name for f in dataclasses.fields(_SECTIONS[name])}
        for key in section:
            if key not in known:
                raise FormatError(f"{path}: unknown key {key!r} in section {name!r}")
    built = {}
    for name, config in _SECTIONS.items():
        section = {"seed": seed} if name == "train" else {}
        section.update(cfg.get(name, {}))
        try:
            built[name] = config(**section)
        except (TypeError, ValueError, ImageGridTooLarge) as exc:
            raise FormatError(f"{path}: bad value in section {name!r}: {exc}") from exc
    return _Config(**built, file_framing=built["framing"] if cfg.get("framing") else None)


def _resolution(text: str) -> tuple[int, int]:
    try:
        n_theta, n_phi = (int(v) for v in text.lower().split("x"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected RxC like 16x32, got {text!r}") from exc
    if min(n_theta, n_phi) < 2:
        raise argparse.ArgumentTypeError(f"expected at least 2 points per axis, got {text!r}")
    return n_theta, n_phi


def _positive_int(text: str) -> int:
    value = int(text)  # argparse reports the ValueError of a non-integer
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)  # argparse reports the ValueError of a non-number
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    value = int(text)  # argparse reports the ValueError of a non-integer
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _t60(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative T60 in seconds, got {text!r}")
    return value


class _Distinct(argparse.Action):
    """Store a list option's values, refusing a value given twice: a repeated
    grid value would evaluate one cell twice under one row label."""

    def __call__(self, parser, namespace, values, option_string=None):
        for i, value in enumerate(values):
            if value in values[:i]:
                raise argparse.ArgumentError(self, f"{value!r} is given twice")
        setattr(namespace, self.dest, values)


def _source_provider(args, fs: int):
    """The dry sources of ``--corpus``, else the synthetic source, which
    needs ``fs`` above MIN_SYNTHETIC_FS."""
    if getattr(args, "corpus", None):
        return wav_corpus_provider(args.corpus)
    if fs <= MIN_SYNTHETIC_FS:
        raise FormatError(f"the synthetic source needs a framing fs above {MIN_SYNTHETIC_FS} Hz,"
                          f" got {fs}; give dry source WAVs at {fs} Hz with --corpus")
    return synthetic_source


def _new_model(args, cfg: _Config, array: MicArray):
    """An untrained model of kind ``--model``, seeded with the training seed,
    which is ``--seed`` unless the config's "train" section sets one."""
    seed = cfg.train.seed
    if args.model == "cross3d":
        return build_cross3d(*args.resolution, seed=seed)
    if args.model == "baseline-max":
        return build_baseline_max(seed=seed)
    return build_baseline_gcc(array, cfg.framing.fs, seed=seed)


def cmd_synth(args, cfg: _Config, array: MicArray) -> int:
    provider = _source_provider(args, cfg.framing.fs)
    out = Path(args.out)
    for k in range(args.count):
        rng = sample_rng(args.seed, k)
        signals, scene = synthesize_trajectory_sample(
            cfg.scene, provider, rng, array=array, framing=cfg.framing
        )
        out.mkdir(parents=True, exist_ok=True)  # only once a scene exists to write
        signals.to_wav(out / f"scene_{k:04d}.wav")
        write_scene_metadata(out / f"scene_{k:04d}.json", scene, cfg.framing)
    print(f"wrote {args.count} scene(s) to {out}")
    return 0


def cmd_features(args, cfg: _Config, array: MicArray) -> int:
    grid = SphericalGrid(*args.resolution)
    signals, framing = read_recording(args.wav, array.n_mics, cfg.file_framing)
    tensor = compute_input_tensor(signals.channels, delay_table(array, grid), framing)
    save_features(args.out, tensor, grid, framing)
    print(f"wrote {tensor.maps.shape} maps to {args.out}")
    return 0


def cmd_train(args, cfg: _Config, array: MicArray) -> int:
    provider = _source_provider(args, cfg.framing.fs)
    grid = SphericalGrid(*args.resolution)
    model = _new_model(args, cfg, array)

    def log(epoch, batch, loss):
        print(f"epoch {epoch} batch {batch}: loss {loss:.6f}", flush=True)

    ckpt, losses = train(
        model, cfg.train, cfg.scene, array, grid,
        framing=cfg.framing, source_provider=provider, log=log,
    )
    save_checkpoint(args.out, ckpt)
    print(f"saved checkpoint ({len(losses)} batches) to {args.out}")
    return 0


def cmd_eval(args, cfg: _Config, array: MicArray) -> int:
    provider = _source_provider(args, cfg.framing.fs)
    checkpoints = load_models(args.checkpoint or [], array, cfg.framing.fs, args.resolution)
    grid = ExperimentGrid(t60s=tuple(args.t60), snrs=tuple(args.snr), resolutions=tuple(checkpoints),
                          trajectories_per_cell=args.trajectories, master_seed=args.seed)
    rows = run_grid(grid, cfg.scene, array, checkpoints, framing=cfg.framing, source_provider=provider)
    emit_plot_data(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_track(args, cfg: _Config, array: MicArray) -> int:
    grid = SphericalGrid(*args.resolution) if args.resolution else None
    rows = track_file(
        args.wav, array, checkpoint_path=args.checkpoint, grid=grid,
        framing=cfg.file_framing, vad_mode=args.vad,
    )
    write_track_csv(rows, args.out)
    print(f"wrote {len(rows)} frames to {args.out}")
    return 0


def cmd_paramcount(args, cfg: _Config, array: MicArray) -> int:
    print(_new_model(args, cfg, array).parameter_count())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="srptrack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--array", type=str, default=None, help="array geometry JSON")

    p = sub.add_parser("synth", help="synthesize random scenes to WAV + metadata")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=_positive_int, default=1)
    p.add_argument("--corpus", type=str, default=None, help="directory of dry source WAVs")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("features", help="dump the SRP-PHAT maps, VAD and argmax DOAs of a WAV")
    common(p)
    p.add_argument("--wav", required=True)
    p.add_argument("--resolution", type=_resolution, default=DEFAULT_GRID)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="train a tracker on synthesized scenes")
    common(p)
    p.add_argument("--model", choices=MODEL_KINDS, default="cross3d")
    p.add_argument("--resolution", type=_resolution, default=DEFAULT_GRID)
    p.add_argument("--corpus", type=str, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="RMSAE sweep over T60/SNR/resolution cells")
    common(p)
    p.add_argument("--t60", type=_t60, nargs="+", required=True, action=_Distinct)
    p.add_argument("--snr", type=_finite_float, nargs="+", required=True, action=_Distinct)
    p.add_argument("--resolution", type=_resolution, nargs="+", default=None, action=_Distinct)
    p.add_argument("--trajectories", type=_positive_int, default=50)
    p.add_argument("--checkpoint", type=str, nargs="*", default=None)
    p.add_argument("--corpus", type=str, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("track", help="per-frame DOA estimates for a recording")
    common(p)
    p.add_argument("--wav", required=True)
    p.add_argument("--checkpoint", type=str, default=None)
    p.add_argument("--resolution", type=_resolution, default=None)
    p.add_argument("--vad", choices=["energy", "all"], default="energy")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("paramcount", help="trainable parameter total for a model")
    common(p)
    p.add_argument("--resolution", type=_resolution, default=DEFAULT_GRID)
    p.add_argument("--model", choices=MODEL_KINDS, required=True)
    p.set_defaults(func=cmd_paramcount)
    return parser


# exit status of a command stopped by one of the package's errors; argparse
# exits with 2 on a usage error
ERROR_EXIT = 1


def main(argv=None) -> int:
    """Run one command; the package's errors propagate to the caller."""
    args = build_parser().parse_args(argv)
    cfg = _load_config(args.config, args.seed)  # a bad config is reported before a bad array
    array = MicArray.from_json(args.array) if args.array else default_array()
    return args.func(args, cfg, array)


def run(argv=None) -> int:
    """The ``srptrack`` command: ``main``, with a ``SrpTrackError`` reported as
    one line, ``srptrack: error: <message>``, on stderr and exit status
    ERROR_EXIT instead of a traceback, and a warning as ``srptrack: warning: <message>``."""
    def say(kind: str, message) -> None:
        print(f"srptrack: {kind}:", " ".join(str(message).splitlines()), file=sys.stderr)

    try:
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_, **__: say("warning", message)
            return main(argv)
    except SrpTrackError as exc:
        say("error", exc)
        return ERROR_EXIT


if __name__ == "__main__":
    sys.exit(run())
