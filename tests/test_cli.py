"""Tests for the srptrack command-line interface."""

import json

import numpy as np
import pytest

from srptrack.cli import main
from srptrack.errors import FormatError
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
        assert tensor.data.shape[0] == 3
        assert grid.shape == (4, 8)

        track = tmp_path / "track.csv"
        assert main(["track", "--wav", wav, "--resolution", "8x16", "--out", str(track)]) == 0
        lines = track.read_text().strip().splitlines()
        assert lines[0] == "time_s,azimuth_deg,elevation_deg,vad,degenerate"
        assert len(lines) == 1 + tensor.data.shape[1]


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
