"""Tests for the srptrack command-line interface."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from srptrack import cli, evaluate
from srptrack.cli import ERROR_EXIT, build_parser, main, run
from srptrack.errors import FormatError
from srptrack.geometry import MicArray
from srptrack.models import (
    Checkpoint,
    build_baseline_gcc,
    build_baseline_max,
    build_cross3d,
    load_checkpoint,
    make_checkpoint,
    save_checkpoint,
)
from srptrack.roomsim import MicSignals

TOY_CONFIG = {
    "scene": {
        "room_min": [4.0, 3.5, 2.8],
        "room_max": [5.0, 4.5, 3.2],
        "snr_range": [20.0, 30.0],
        "t60_range": [0.2, 0.3],
        "duration": 1.5,
        "rir_t_max": 0.1,
    },
    "framing": {"K": 4096, "hop": 3072, "fs": 16000},
    "train": {
        "epochs": 1,
        "trajectories_per_epoch": 1,
        "traj_seconds": 1.2,
        "phase1_epochs": 1,
        "phase1_batch": 1,
        "phase2_batch": 1,
    },
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TOY_CONFIG))
    return str(path)


class TestParamcount:
    @pytest.mark.parametrize(
        "args,expected",
        [
            (["--resolution", "4x8", "--model", "cross3d"], "526372"),
            (["--resolution", "16x32", "--model", "cross3d"], "1693988"),
            (["--resolution", "64x128", "--model", "cross3d"], "21354788"),
            (["--model", "baseline-max"], "6899716"),
            (["--model", "baseline-gcc"], "11282436"),
        ],
    )
    def test_table_values(self, capsys, args, expected):
        assert main(["paramcount", *args]) == 0
        assert capsys.readouterr().out.strip() == expected

    def test_gcc_baseline_sized_at_the_config_rate(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"framing": {"fs": 48000}}))
        assert main(["paramcount", "--model", "baseline-gcc", "--config", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "18716676"

    @pytest.mark.parametrize("kind", ["cross3d", "baseline-max", "baseline-gcc"])
    def test_every_kind_checks_the_array(self, tmp_path, kind):
        array = tmp_path / "array.json"
        array.write_text('{"name": "no positions"}')
        with pytest.raises(FormatError):
            main(["paramcount", "--model", kind, "--resolution", "4x8", "--array", str(array)])


class TestSynthFeaturesTrack:
    def test_synth_writes_wav_and_metadata(self, tmp_path, config_path):
        out = tmp_path / "scenes"
        assert main(["synth", "--config", config_path, "--seed", "1", "--out", str(out), "--count", "2"]) == 0
        wavs = sorted(out.glob("*.wav"))
        metas = sorted(out.glob("*.json"))
        assert len(wavs) == 2 and len(metas) == 2
        meta = json.loads(metas[0].read_text())
        for key in ("room_dims_m", "t60_s", "beta", "snr_db", "array_origin_m",
                    "trajectory_points_m", "vad_mask", "gt_doa_deg", "frame_timestamps_s"):
            assert key in meta
        sig = MicSignals.from_wav(wavs[0])
        assert sig.channels.shape[0] == 12

    def test_synth_deterministic(self, tmp_path, config_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            main(["synth", "--config", config_path, "--seed", "3", "--out", str(out), "--count", "1"])
        b1 = (out1 / "scene_0000.wav").read_bytes()
        b2 = (out2 / "scene_0000.wav").read_bytes()
        assert b1 == b2

    def test_features_and_track(self, tmp_path, config_path):
        out = tmp_path / "scenes"
        main(["synth", "--config", config_path, "--seed", "2", "--out", str(out), "--count", "1"])
        wav = str(out / "scene_0000.wav")

        feat = tmp_path / "feat.srpm"
        assert main(["features", "--wav", wav, "--resolution", "4x8", "--out", str(feat)]) == 0
        from srptrack.srpfeat import load_features

        tensor, grid, cfg = load_features(feat)
        assert tensor.maps.shape[1:] == (4, 8)
        assert grid.shape == (4, 8)

        track = tmp_path / "track.csv"
        assert main(["track", "--wav", wav, "--resolution", "8x16", "--out", str(track)]) == 0
        lines = track.read_text().strip().splitlines()
        assert lines[0] == "time_s,azimuth_deg,elevation_deg,vad,degenerate"
        assert len(lines) == 1 + tensor.n_frames

        assert main(["track", "--wav", wav, "--resolution", "4x8", "--vad", "all", "--out", str(track)]) == 0
        rows = track.read_text().strip().splitlines()[1:]
        assert len(rows) == tensor.n_frames
        assert all(row.split(",")[3] == "1" for row in rows)

    def test_track_rejects_bad_inputs(self, tmp_path):
        wav = tmp_path / "scene.wav"
        MicSignals(channels=np.zeros((12, 16000), dtype=np.float32), fs=16000).to_wav(wav)
        array = tmp_path / "array.json"
        array.write_text('{"name": "no positions"}')
        out = str(tmp_path / "track.csv")
        with pytest.raises(FormatError):
            main(["track", "--wav", str(wav), "--array", str(array), "--out", out])
        not_wav = tmp_path / "notes.wav"
        not_wav.write_text("not audio")
        with pytest.raises(FormatError):
            main(["track", "--wav", str(not_wav), "--out", out])
        three = tmp_path / "three.wav"
        MicSignals(channels=np.zeros((3, 16000), dtype=np.float32), fs=16000).to_wav(three)
        with pytest.raises(FormatError, match="3 channels, expected 12"):
            main(["features", "--wav", str(three), "--out", str(tmp_path / "f.srpm")])

    def test_48khz_wav_framed_at_its_own_rate(self, tmp_path):
        from srptrack.srpfeat import FramingConfig, load_features

        wav = tmp_path / "48k.wav"
        noise = np.random.default_rng(48).normal(scale=0.1, size=(12, 48000)).astype(np.float32)
        MicSignals(channels=noise, fs=48000).to_wav(wav)
        feat = tmp_path / "feat.srpm"
        assert main(["features", "--wav", str(wav), "--resolution", "4x8", "--out", str(feat)]) == 0
        tensor, _, cfg = load_features(feat)
        assert cfg == FramingConfig(fs=48000)
        assert tensor.n_frames == cfg.n_frames(48000)

    @pytest.mark.parametrize("command", ["features", "track"])
    def test_48khz_wav_against_a_16khz_framing(self, tmp_path, config_path, command):
        wav = tmp_path / "48k.wav"
        MicSignals(channels=np.zeros((12, 48000), dtype=np.float32), fs=48000).to_wav(wav)
        with pytest.raises(FormatError, match="48000 Hz, the framing expects 16000 Hz"):
            main([command, "--config", config_path, "--wav", str(wav), "--out", str(tmp_path / "out")])


NON_DEFAULT_FRAMING = {**TOY_CONFIG, "framing": {"K": 2048, "hop": 1024}}


class TestNonDefaultFraming:
    @pytest.fixture
    def framing_config(self, tmp_path):
        path = tmp_path / "framing.json"
        path.write_text(json.dumps(NON_DEFAULT_FRAMING))
        return str(path)

    def test_synth(self, tmp_path, framing_config):
        out = tmp_path / "scenes"
        assert main(["synth", "--config", framing_config, "--out", str(out)]) == 0
        meta = json.loads((out / "scene_0000.json").read_text())
        assert len(meta["vad_mask"]) == (24000 - 2048) // 1024 + 1
        assert meta["frame_timestamps_s"][1] == pytest.approx((1024 + 1024) / 16000)

    def test_train_and_eval(self, tmp_path, framing_config):
        ckpt = tmp_path / "model.sstc"
        assert main(["train", "--config", framing_config, "--model", "baseline-gcc", "--out", str(ckpt)]) == 0
        csv_out = tmp_path / "eval.csv"
        assert main([
            "eval", "--config", framing_config, "--t60", "0.2", "--snr", "30", "--resolution", "4x8",
            "--trajectories", "1", "--checkpoint", str(ckpt), "--out", str(csv_out),
        ]) == 0
        assert len(csv_out.read_text().strip().splitlines()) == 3


class TestConfigFiles:
    @pytest.mark.parametrize(
        "text,match",
        [
            ("{not json", "not valid JSON"),
            ("[1, 2]", "top level must be an object"),
            ('{"scene": {"fs": 16000}}', "unknown key 'fs' in section 'scene'"),
            ('{"scene": {"wall_margin_fraction": 0.2}}', "unknown key 'wall_margin_fraction' in section 'scene'"),
            ('{"framing": {"K": 2048, "hop_ms": 64}}', "unknown key 'hop_ms' in section 'framing'"),
            ('{"train": {"epoch": 1}}', "unknown key 'epoch' in section 'train'"),
            ('{"framing": {"window": "hann"}}', "unknown key 'window' in section 'framing'"),
            ('{"sceen": {}}', "unknown section 'sceen'"),
            ('{"scene": [4.0, 3.5, 2.8]}', "section 'scene' must be an object"),
            ('{"framing": {"K": "big"}}', "bad value in section 'framing'"),
            ('{"scene": {"room_min": [1, 2]}}', "bad value in section 'scene': expected a 3-vector"),
            ('{"train": {"epochs": 0}}', "bad value in section 'train'"),
            ('{"framing": {"K": 4096.5, "hop": 3072}}', "bad value in section 'framing': K must be"),
            ('{"framing": {"hop": 3072.0}}', "bad value in section 'framing': hop must be"),
            ('{"framing": {"hop": true}}', "bad value in section 'framing': hop must be"),
            ('{"framing": {"K": true, "hop": 1}}', "bad value in section 'framing': K must be"),
            ('{"framing": {"fs": 0}}', "bad value in section 'framing': fs must be"),
            ('{"framing": {"fs": -16000}}', "bad value in section 'framing': fs must be"),
            ('{"framing": {"fs": 16000.5}}', "bad value in section 'framing': fs must be"),
            ('{"scene": {"snr_range": [NaN, NaN]}}', "bad value in section 'scene': snr_range must be"),
            ('{"scene": {"snr_range": [5.0, Infinity]}}', "bad value in section 'scene': snr_range must be"),
            ('{"scene": {"t60_range": [-Infinity, 0.5]}}', "bad value in section 'scene': t60_range must be"),
            ('{"scene": {"t60_range": [-0.1, 0.5]}}', "bad value in section 'scene': t60_range must be"),
            ('{"scene": {"snr_range": [5.0]}}', "bad value in section 'scene'"),
            ('{"scene": {"room_max": [NaN, 8.0, 6.0]}}', "bad value in section 'scene'"),
            ('{"scene": {"duration": NaN}}', "bad value in section 'scene': duration must be"),
            ('{"scene": {"duration": 0}}', "bad value in section 'scene': duration must be"),
            ('{"scene": {"duration": null}}', "bad value in section 'scene'"),
            ('{"scene": {"room_min": [0.0, 3.0, 2.5]}}', "bad value in section 'scene': room_min must be positive"),
            ('{"scene": {"rir_t_max": Infinity}}', "bad value in section 'scene': rir_t_max must be"),
            ('{"scene": {"rir_t_max": -0.1}}', "bad value in section 'scene': rir_t_max must be"),
            ('{"train": {"epochs": 2.5}}', "bad value in section 'train': epochs must be"),
            ('{"train": {"phase1_batch": true}}', "bad value in section 'train': phase1_batch must be"),
            ('{"train": {"trajectories_per_epoch": -5}}', "bad value in section 'train': trajectories_per_epoch"),
            ('{"train": {"phase1_epochs": -1}}', "bad value in section 'train': phase1_epochs must be"),
            ('{"train": {"phase1_epochs": 1.0}}', "bad value in section 'train': phase1_epochs must be"),
            ('{"train": {"phase1_lr": "x"}}', "bad value in section 'train': phase1_lr must be"),
            ('{"train": {"phase2_lr": 0}}', "bad value in section 'train': phase2_lr must be"),
            ('{"train": {"phase2_lr": Infinity}}', "bad value in section 'train': phase2_lr must be"),
            ('{"train": {"traj_seconds": -1.0}}', "bad value in section 'train': traj_seconds must be"),
            ('{"train": {"traj_seconds": false}}', "bad value in section 'train': traj_seconds must be"),
            ('{"train": {"phase1_snr": NaN}}', "bad value in section 'train': phase1_snr must be"),
            ('{"train": {"phase1_snr": null}}', "bad value in section 'train': phase1_snr must be"),
            ('{"train": {"seed": -1}}', "bad value in section 'train': seed must be"),
            ('{"train": {"seed": 1.5}}', "bad value in section 'train': seed must be"),
            ('{"scene": {"duration": true}}', "bad value in section 'scene': duration must be"),
            ('{"scene": {"room_min": [true, 3, 2.5]}}', "bad value in section 'scene': room_min must hold"),
            ('{"scene": {"t60_range": [0.2, 30.0]}}', r"bad value in section 'scene': room .* t_max 30\.0 s needs"),
            ('{"scene": {"rir_t_max": 0.03}}', r"bad value in section 'scene': rir_t_max 0\.03 s is shorter"),
        ],
        ids=["bad-json", "top-level-list", "scene-fs", "scene-wall-margin", "framing-key", "train-key",
             "framing-window", "unknown-section", "section-list", "framing-type", "scene-vector",
             "train-epochs", "framing-float-K", "framing-float-hop", "framing-bool-hop", "framing-bool-K",
             "framing-zero-fs", "framing-negative-fs", "framing-float-fs", "scene-nan-snr", "scene-inf-snr",
             "scene-inf-t60", "scene-negative-t60", "scene-snr-not-a-pair", "scene-nan-room",
             "scene-nan-duration", "scene-zero-duration", "scene-null-duration", "scene-zero-room",
             "scene-inf-rir-t-max", "scene-negative-rir-t-max", "train-float-epochs", "train-bool-batch",
             "train-negative-trajectories", "train-negative-phase1", "train-float-phase1", "train-string-lr",
             "train-zero-lr", "train-inf-lr", "train-negative-seconds", "train-bool-seconds", "train-nan-snr",
             "train-null-snr", "train-negative-seed", "train-float-seed", "scene-bool-duration",
             "scene-bool-room", "scene-unrenderable-t60", "scene-rir-t-max-short-of-the-room"],
    )
    def test_bad_config_rejected(self, tmp_path, text, match):
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(FormatError, match=match):
            main(["synth", "--config", str(path), "--out", str(tmp_path / "scenes")])

    @pytest.mark.parametrize(
        "command",
        [
            ["synth"],
            ["features", "--wav", "missing.wav"],
            ["train"],
            ["eval", "--t60", "0.2", "--snr", "30"],
            ["track", "--wav", "missing.wav"],
            ["paramcount", "--model", "cross3d"],
        ],
        ids=lambda c: c[0],
    )
    def test_every_command_checks_its_config(self, tmp_path, command):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**TOY_CONFIG, "scene": {**TOY_CONFIG["scene"], "fs": 48000}}))
        out = [] if command[0] == "paramcount" else ["--out", str(tmp_path / "out")]
        with pytest.raises(FormatError, match="'fs' in section 'scene'"):
            main([*command, "--config", str(path), *out])


class TestCountArguments:
    @pytest.mark.parametrize(
        "command",
        [
            ["synth", "--count", "0"],
            ["synth", "--count", "-1"],
            ["synth", "--count", "2.5"],
            ["eval", "--t60", "0.2", "--snr", "30", "--trajectories", "0"],
            ["eval", "--t60", "0.2", "--snr", "30", "--trajectories", "-3"],
        ],
        ids=["count-zero", "count-negative", "count-float", "trajectories-zero", "trajectories-negative"],
    )
    def test_counts_must_be_positive(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*command, "--out", str(out)])
        assert exc.value.code == 2 and command[-2] in capsys.readouterr().err
        assert not out.exists()


class TestSeedArgument:
    @pytest.mark.parametrize(
        "command",
        [["synth"], ["train"], ["eval", "--t60", "0.2", "--snr", "30"], ["paramcount", "--model", "cross3d"]],
        ids=lambda c: c[0],
    )
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*command, "--seed", "-1", *([] if command[0] == "paramcount" else ["--out", str(out)])])
        assert exc.value.code == 2 and "argument --seed" in capsys.readouterr().err
        assert not out.exists()

    def test_config_train_seed_seeds_the_weights_too(self, tmp_path):
        """One seed per training run: a config's train seed replaces --seed for
        the initial weights as well as for the samples."""
        seeded = tmp_path / "seeded.json"
        seeded.write_text(json.dumps({**TOY_CONFIG, "train": {**TOY_CONFIG["train"], "seed": 7}}))
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps(TOY_CONFIG))
        tensors = []
        for config, seed in ((seeded, "3"), (plain, "7")):
            ckpt = tmp_path / f"{config.stem}.sstc"
            main(["train", "--config", str(config), "--seed", seed, "--resolution", "4x8", "--out", str(ckpt)])
            tensors.append(load_checkpoint(ckpt).tensors)
        assert list(tensors[0]) == list(tensors[1])
        for name in tensors[0]:
            np.testing.assert_array_equal(tensors[0][name], tensors[1][name], strict=True)


LOW_RATE_CONFIG = {**TOY_CONFIG, "framing": {"fs": 6000, "K": 512, "hop": 256}}


class TestSyntheticSourceRate:
    @pytest.mark.parametrize(
        "command",
        [["synth"], ["train", "--resolution", "4x8"], ["eval", "--t60", "0.2", "--snr", "30", "--trajectories", "1"]],
        ids=lambda c: c[0],
    )
    def test_synthetic_source_needs_fs_above_6800(self, tmp_path, command):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(LOW_RATE_CONFIG))
        out = tmp_path / "out"
        with pytest.raises(FormatError, match="synthetic source needs a framing fs above 6800 Hz, got 6000.*--corpus"):
            main([*command, "--config", str(path), "--out", str(out)])
        assert not out.exists()

    def test_corpus_at_6khz(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(LOW_RATE_CONFIG))
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        noise = np.random.default_rng(60).normal(scale=0.1, size=(1, 6000)).astype(np.float32)
        for k in range(2):
            MicSignals(channels=noise, fs=6000).to_wav(corpus / f"dry_{k}.wav")
        out = tmp_path / "scenes"
        assert main(["synth", "--config", str(path), "--corpus", str(corpus), "--out", str(out)]) == 0
        assert MicSignals.from_wav(out / "scene_0000.wav").fs == 6000
        meta = json.loads((out / "scene_0000.json").read_text())
        assert len(meta["vad_mask"]) == (9000 - 512) // 256 + 1


class TestSceneArguments:
    @pytest.mark.parametrize("flag,value", [("--t60", "-1"), ("--t60", "nan"), ("--t60", "inf"),
                                            ("--snr", "nan"), ("--snr", "-inf"),
                                            ("--resolution", "1x8"), ("--resolution", "0x0")])
    def test_non_finite_or_negative_is_a_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        args = {"--t60": "0.2", "--snr": "30", flag: value}
        with pytest.raises(SystemExit) as exc:
            main(["eval", *(v for item in args.items() for v in item), "--out", str(out)])
        assert exc.value.code == 2 and f"argument {flag}" in capsys.readouterr().err
        assert not out.exists()


class TestRepeatedEvalValues:
    @pytest.mark.parametrize("flag,values", [("--t60", ["0.2", "0.2"]), ("--snr", ["30", "30.0"]),
                                             ("--resolution", ["4x8", "2x4", "4X8"])],
                             ids=["t60", "snr", "resolution"])
    def test_repeat_is_a_usage_error(self, tmp_path, capsys, monkeypatch, flag, values):
        from srptrack import evaluate

        def render(*args, **kwargs):
            raise AssertionError("a scene was rendered")

        monkeypatch.setattr(evaluate, "synthesize_trajectory_sample", render)
        out = tmp_path / "out.csv"
        args = {"--t60": ["0.2"], "--snr": ["30"], "--trajectories": ["1"], flag: values}
        with pytest.raises(SystemExit) as exc:
            main(["eval", *(v for key, vals in args.items() for v in (key, *vals)), "--out", str(out)])
        assert exc.value.code == 2 and f"argument {flag}: " in capsys.readouterr().err
        assert not out.exists()


class TestTrainEval:
    def test_train_then_eval_and_track(self, tmp_path, config_path):
        ckpt = tmp_path / "model.sstc"
        assert main([
            "train", "--config", config_path, "--seed", "4", "--model", "cross3d",
            "--resolution", "4x8", "--out", str(ckpt),
        ]) == 0
        assert ckpt.exists()

        csv_out = tmp_path / "eval.csv"
        assert main([
            "eval", "--config", config_path, "--seed", "5", "--t60", "0.2", "--snr", "30",
            "--trajectories", "1", "--checkpoint", str(ckpt), "--out", str(csv_out),
        ]) == 0
        lines = csv_out.read_text().strip().splitlines()
        assert lines[0] == "model,resolution,t60_s,snr_db,rmsae_voiced_deg,rmsae_all_deg,n_traj"
        assert len(lines) == 3  # srp-argmax + the checkpoint

        out = tmp_path / "scenes"
        main(["synth", "--config", config_path, "--seed", "2", "--out", str(out), "--count", "1"])
        track = tmp_path / "track.csv"
        assert main([
            "track", "--wav", str(out / "scene_0000.wav"), "--checkpoint", str(ckpt),
            "--out", str(track),
        ]) == 0
        assert len(track.read_text().strip().splitlines()) > 1

    def test_eval_rejects_cross3d_checkpoint_off_the_requested_grids(self, tmp_path, config_path):
        from srptrack.models import build_cross3d, load_checkpoint, make_checkpoint, save_checkpoint

        ckpt = tmp_path / "small.sstc"
        save_checkpoint(ckpt, make_checkpoint(build_cross3d(4, 8)))
        args = ["eval", "--config", config_path, "--t60", "0.2", "--snr", "30", "--trajectories", "1",
                "--checkpoint", str(ckpt), "--out", str(tmp_path / "eval.csv")]
        message = r"small\.sstc is a 4x8 cross3d checkpoint, not on the requested grids 8x16 2x4"
        with pytest.raises(FormatError, match=message):
            main([*args, "--resolution", "8x16", "2x4"])
        assert not (tmp_path / "eval.csv").exists()
        assert main([*args, "--resolution", "4x8"]) == 0
        assert len((tmp_path / "eval.csv").read_text().strip().splitlines()) == 3

    def test_eval_runs_a_baseline_at_every_resolution(self, tmp_path, config_path):
        from srptrack.models import build_baseline_max, make_checkpoint, save_checkpoint

        ckpt = tmp_path / "max.sstc"
        save_checkpoint(ckpt, make_checkpoint(build_baseline_max()))
        csv_out = tmp_path / "eval.csv"
        assert main(["eval", "--config", config_path, "--t60", "0.2", "--snr", "30", "--trajectories", "1",
                     "--resolution", "4x8", "2x4", "--checkpoint", str(ckpt), "--out", str(csv_out)]) == 0
        rows = [line.split(",")[:2] for line in csv_out.read_text().strip().splitlines()[1:]]
        assert sorted(rows) == [["baseline-max:max", "2x4"], ["baseline-max:max", "4x8"],
                                ["srp-argmax", "2x4"], ["srp-argmax", "4x8"]]

    def test_eval_refuses_two_checkpoints_with_one_row_name(self, tmp_path, config_path, monkeypatch):
        import re

        from srptrack import evaluate
        from srptrack.models import build_baseline_max, build_cross3d, make_checkpoint, save_checkpoint

        a, b, c = (tmp_path / d / "m.sstc" for d in "abc")
        for path, model in ((a, build_baseline_max(seed=1)), (b, build_baseline_max(seed=2)),
                            (c, build_cross3d(4, 8))):
            path.parent.mkdir()
            save_checkpoint(path, make_checkpoint(model))

        def render(*args, **kwargs):
            raise AssertionError("a scene was rendered")

        monkeypatch.setattr(evaluate, "synthesize_trajectory_sample", render)
        out = tmp_path / "eval.csv"
        args = ["eval", "--config", config_path, "--t60", "0.2", "--snr", "30", "--trajectories", "1",
                "--out", str(out), "--checkpoint"]
        for first, second, name in ((a, b, "baseline-max:m"), (c, c, "cross3d:m")):
            with pytest.raises(FormatError, match=re.escape(f"{first} and {second} would both give the rows of {name}")):
                main([*args, str(first), str(second)])
        assert not out.exists()

    def test_eval_takes_one_cross3d_name_at_two_resolutions(self, tmp_path, config_path):
        """Rows carry the resolution, so same-named Cross3D checkpoints of two grids do not clash."""
        from srptrack.models import build_cross3d, load_checkpoint, make_checkpoint, save_checkpoint

        paths = [tmp_path / d / "m.sstc" for d in ("small", "large")]
        for path, res in zip(paths, ((2, 4), (4, 8))):
            path.parent.mkdir()
            save_checkpoint(path, make_checkpoint(build_cross3d(*res)))
        out = tmp_path / "eval.csv"
        assert main(["eval", "--config", config_path, "--t60", "0.2", "--snr", "30", "--trajectories", "1",
                     "--checkpoint", *map(str, paths), "--out", str(out)]) == 0
        rows = [line.split(",")[:2] for line in out.read_text().strip().splitlines()[1:]]
        assert sorted(rows) == [["cross3d:m", "2x4"], ["cross3d:m", "4x8"], ["srp-argmax", "2x4"],
                                ["srp-argmax", "4x8"]]

    def test_eval_deterministic(self, tmp_path, config_path):
        outs = []
        for name in ("e1.csv", "e2.csv"):
            path = tmp_path / name
            main([
                "eval", "--config", config_path, "--seed", "9", "--t60", "0.2", "--snr", "30",
                "--resolution", "4x8", "--trajectories", "1", "--out", str(path),
            ])
            outs.append(path.read_text())
        assert outs[0] == outs[1]


class _Stop(Exception):
    """Raised by a stand-in once it has recorded the run it was handed."""


# checkpoint -> the grid a run picks with no --resolution, 4x8 and 8x16; a
# string is the FormatError's message
_GRID_RULE = {
    None: {None: (16, 32), "4x8": (4, 8), "8x16": (8, 16)},
    "baseline-max": {None: (16, 32), "4x8": (4, 8), "8x16": (8, 16)},
    "cross3d-4x8": {None: (4, 8), "4x8": (4, 8),
                    "8x16": "m.sstc is a 4x8 cross3d checkpoint, not on the requested grids 8x16"},
}
_GRID_CASES = [(ckpt, res) for ckpt, row in _GRID_RULE.items() for res in row]


class TestOneGridRule:
    """eval and track pick the same grid, and the same models on it, for every
    checkpoint and requested grid, and refuse the same Cross3D checkpoint off
    that grid with the same message. Nothing is rendered or tracked: a
    stand-in records what the command would run and stops it."""

    @pytest.mark.parametrize("checkpoint, requested", _GRID_CASES,
                             ids=[f"{c or 'none'}-{r or 'none'}" for c, r in _GRID_CASES])
    def test_eval_and_track_agree(self, tmp_path, monkeypatch, checkpoint, requested):
        monkeypatch.chdir(tmp_path)
        MicSignals(channels=np.zeros((12, 16000), dtype=np.float32), fs=16000).to_wav("good.wav")
        args = ["--out", "out.csv"] + (["--resolution", requested] if requested else [])
        if checkpoint:
            save_checkpoint("m.sstc", make_checkpoint(build_baseline_max() if checkpoint == "baseline-max"
                                                      else build_cross3d(4, 8)))
            args += ["--checkpoint", "m.sstc"]
        seen = {}

        def record(command, grids, models):
            seen[command] = (grids, {shape: sorted(named) for shape, named in models.items()})
            raise _Stop

        monkeypatch.setattr(cli, "run_grid", lambda grid, _scene, _array, models, **_: record(
            "eval", [tuple(r) for r in grid.resolutions], models))
        monkeypatch.setattr(evaluate, "track_signal", lambda _x, _array, grid, _framing, _vad, models: record(
            "track", [grid.shape], {grid.shape: models}))
        outcomes = []
        for command in (["eval", "--t60", "0", "--snr", "30", "--trajectories", "1"],
                        ["track", "--wav", "good.wav"]):
            with pytest.raises((_Stop, FormatError)) as caught:
                main([*command, *args])
            outcomes.append(str(caught.value) if caught.type is FormatError else seen[command[0]])
        want = _GRID_RULE[checkpoint][requested]
        names = {None: [], "baseline-max": ["baseline-max:m"], "cross3d-4x8": ["cross3d:m"]}[checkpoint]
        assert outcomes == 2 * [want if isinstance(want, str) else ([want], {want: names})]
        assert not (tmp_path / "out.csv").exists()


# each makes, from a good Cross3D 2x2 checkpoint, one that parses but
# describes no model for the default array at 16 kHz
_NO_MODEL = {
    "unknown-kind": lambda good: Checkpoint(kind="foo", spec={}, tensors={}, step=0),
    "cross3d-spec-without-n_phi": lambda good: dataclasses.replace(good, spec={"n_theta": 2}),
    "junk-spec-key": lambda good: dataclasses.replace(good, spec={**good.spec, "junk": 1}),
    "cross3d-2x3": lambda good: dataclasses.replace(good, spec={"n_theta": 2, "n_phi": 3}),
    "gcc-for-3-mics": lambda good: make_checkpoint(build_baseline_gcc(
        MicArray(np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.1, 0.0]])), 16000)),
    "tensor-missing": lambda good: dataclasses.replace(
        good, tensors={name: t for name, t in good.tensors.items() if name != "stem.w"}),
    "tensor-shape": lambda good: dataclasses.replace(
        good, tensors={**good.tensors, "stem.b": np.zeros(good.tensors["stem.b"].size + 1, np.float32)}),
}


class TestCheckpointErrorsNameTheFile:
    """A checkpoint that no model fits is reported by eval (after a good
    checkpoint) and by track in one line that starts with its path."""

    @pytest.mark.parametrize("command", ["eval", "track"])
    @pytest.mark.parametrize("row", list(_NO_MODEL))
    def test_one_line_starts_with_the_path(self, tmp_path, capsys, monkeypatch, row, command):
        monkeypatch.chdir(tmp_path)
        MicSignals(channels=np.zeros((12, 16000), dtype=np.float32), fs=16000).to_wav("good.wav")
        good = make_checkpoint(build_cross3d(2, 2))
        save_checkpoint("good.sstc", good)
        save_checkpoint("bad.sstc", _NO_MODEL[row](good))
        argv = {"eval": ["eval", "--t60", "0", "--snr", "30", "--trajectories", "1",
                         "--checkpoint", "good.sstc", "bad.sstc"],
                "track": ["track", "--wav", "good.wav", "--checkpoint", "bad.sstc"]}[command]
        assert run([*argv, "--out", "out.csv"]) == ERROR_EXIT == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("srptrack: error: bad.sstc: "), lines
        assert not (tmp_path / "out.csv").exists()


class TestMissingPaths:
    @pytest.mark.parametrize(
        "case", ["config", "array", "wav", "checkpoint", "corpus-missing", "corpus-empty"]
    )
    def test_missing_path_is_a_format_error(self, tmp_path, case):
        wav = tmp_path / "scene.wav"
        MicSignals(channels=np.zeros((12, 16000), dtype=np.float32), fs=16000).to_wav(wav)
        (tmp_path / "empty").mkdir()
        missing = tmp_path / "missing"
        out = str(tmp_path / "out")
        argv, named = {
            "config": (["synth", "--config", f"{missing}.json", "--out", out], "missing.json: No such file"),
            "array": (["paramcount", "--model", "cross3d", "--array", f"{missing}.json"], "missing.json: No such file"),
            "wav": (["track", "--wav", f"{missing}.wav", "--out", out], "missing.wav: No such file"),
            "checkpoint": (["track", "--wav", str(wav), "--checkpoint", f"{missing}.sstc", "--out", out],
                           "checkpoint .*missing.sstc: No such file"),
            "corpus-missing": (["synth", "--corpus", str(missing), "--out", out], "no .wav files under .*missing$"),
            "corpus-empty": (["synth", "--corpus", str(tmp_path / "empty"), "--out", out], "no .wav files under .*empty$"),
        }[case]
        with pytest.raises(FormatError, match=named):
            main(argv)
        assert not (tmp_path / "out").exists()


# Each command's arguments apart from the bad input; {dir} is the test's
# directory, which holds good.wav, bad.wav, bad.sstc, badcorpus/bad.wav and
# long-t60.json, and no file named missing*. A repeated option takes its last value.
_COMMANDS = {
    "synth": ["synth", "--out", "{dir}/out"],
    "features": ["features", "--wav", "{dir}/good.wav", "--out", "{dir}/out"],
    "train": ["train", "--resolution", "4x8", "--out", "{dir}/out"],
    "eval": ["eval", "--t60", "0", "--snr", "30", "--resolution", "2x4", "--trajectories", "1", "--out", "{dir}/out"],
    "track": ["track", "--wav", "{dir}/good.wav", "--out", "{dir}/out"],
    "paramcount": ["paramcount", "--model", "cross3d"],
}
_RENDERING = ("synth", "train", "eval")
# bad input -> its arguments, a part of the error line, the commands that take it
_BAD_INPUTS = {
    "missing-config": (["--config", "{dir}/missing.json"], "missing.json: No such file", tuple(_COMMANDS)),
    "missing-array": (["--array", "{dir}/missing.json"], "missing.json: No such file", tuple(_COMMANDS)),
    "missing-wav": (["--wav", "{dir}/missing.wav"], "missing.wav: No such file", ("features", "track")),
    "missing-corpus": (["--corpus", "{dir}/missing"], "no .wav files under", _RENDERING),
    "missing-checkpoint": (["--checkpoint", "{dir}/missing.sstc"], "missing.sstc: No such file", ("eval", "track")),
    "malformed-wav": (["--wav", "{dir}/bad.wav"], "bad.wav is not a readable WAV file", ("features", "track")),
    "malformed-corpus-wav": (["--corpus", "{dir}/badcorpus"], "bad.wav is not a readable WAV file", _RENDERING),
    "malformed-checkpoint": (["--checkpoint", "{dir}/bad.sstc"], "bad.sstc: not a checkpoint", ("eval", "track")),
    "unrenderable-t60-config": (["--config", "{dir}/long-t60.json"], "grid images per parity block", _RENDERING),
    "unrenderable-t60": (["--t60", "0.2", "30"], "grid images per parity block", ("eval",)),
}
_ERROR_CASES = [(command, bad) for bad, (*_, commands) in _BAD_INPUTS.items() for command in commands]


class TestErrorTable:
    """Every command, given a missing file, a malformed WAV, a malformed
    checkpoint or an unrenderable T60 wherever it takes one, prints one line
    ``srptrack: error: ...`` on stderr, no traceback, and exits ERROR_EXIT.
    Run in-process through ``run``; TestOneLineErrors runs a few as processes."""

    def test_every_command_takes_part(self):
        commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert set(_COMMANDS) == set(commands.choices)

    @pytest.mark.parametrize("command, bad", _ERROR_CASES, ids=[f"{c}-{b}" for c, b in _ERROR_CASES])
    def test_one_line_and_exit_status(self, tmp_path, capsys, command, bad):
        MicSignals(channels=np.zeros((12, 16000), dtype=np.float32), fs=16000).to_wav(tmp_path / "good.wav")
        (tmp_path / "badcorpus").mkdir()
        for path in (tmp_path / "bad.wav", tmp_path / "badcorpus" / "bad.wav"):
            path.write_bytes(b"RIFF\x04\x00\x00\x00WAVE")
        (tmp_path / "bad.sstc").write_bytes(b"not a checkpoint")
        (tmp_path / "long-t60.json").write_text(json.dumps({"scene": {"t60_range": [0.2, 30.0]}}))
        args, named, _ = _BAD_INPUTS[bad]
        code = run([a.format(dir=tmp_path) for a in _COMMANDS[command] + args])
        err = capsys.readouterr().err
        assert code == ERROR_EXIT == 1
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("srptrack: error: ") and named in lines[0], err
        # nothing written, not even synth's output directory
        assert not (tmp_path / "out").exists()


class TestOneLineErrors:
    """The ``srptrack`` command, run as a process, reports the package's own
    errors in one stderr line with exit status ERROR_EXIT, and usage errors
    with argparse's 2; ``main`` still raises, as the tests above expect."""

    @staticmethod
    def run_cli(args, cwd):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        return subprocess.run([sys.executable, "-m", "srptrack.cli", *args], env=env, cwd=cwd,
                              capture_output=True, text=True, timeout=300)

    @pytest.mark.parametrize("args, named", [
        (["eval", "--t60", "0.2", "30", "--snr", "30", "--out", "out.csv"], "grid images per parity block"),
        (["track", "--wav", "missing.wav", "--out", "out.csv"], "missing.wav: No such file"),
        (["eval", "--t60", "0", "--snr", "30", "--checkpoint", "good.sstc", "bad.sstc", "--out", "out.csv"],
         "bad.sstc: not a checkpoint"),
    ], ids=["unrenderable-t60", "missing-wav", "malformed-checkpoint"])
    def test_package_error_is_one_line(self, tmp_path, args, named):
        save_checkpoint(tmp_path / "good.sstc", make_checkpoint(build_cross3d(2, 2)))
        (tmp_path / "bad.sstc").write_bytes(b"not a checkpoint")
        done = self.run_cli(args, tmp_path)
        lines = done.stderr.splitlines()
        assert done.returncode == ERROR_EXIT != 2
        assert len(lines) == 1 and lines[0].startswith("srptrack: error: ") and named in lines[0], done.stderr
        assert not (tmp_path / "out.csv").exists()

    def test_usage_error_keeps_argparse_status(self, tmp_path):
        done = self.run_cli(["paramcount", "--model", "cross3d", "--seed", "-1"], tmp_path)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr and "--seed" in done.stderr.splitlines()[-1]

    def test_warning_is_one_line(self, tmp_path):
        # a process of its own: the suite turns the package's warnings into errors
        (tmp_path / "room.json").write_text(json.dumps(
            {"scene": {"duration": 2.0, "room_min": [6, 5, 3], "room_max": [6, 5, 3]}}))
        done = self.run_cli(["eval", "--t60", "0.05", "--snr", "30", "--trajectories", "1", "--resolution", "4x8",
                             "--config", "room.json", "--out", "out.csv"], tmp_path)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "out.csv").exists()
        lines = done.stderr.splitlines()
        assert lines and all(line.startswith("srptrack: warning: t60=0.05 s is not achievable") for line in lines), \
            done.stderr
