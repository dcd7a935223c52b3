"""Fast checks of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import compare  # noqa: E402
import run  # noqa: E402
from make_goldens import golden_outputs  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, EvalReverb, TrackWav, TrainCross3D  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "train-cross3d": TrainCross3D(resolution=(4, 8), batch=1, traj_seconds=1.0,
                                  t60=0.15, pool=(0, 1), max_batches=2),
    "track-wav": TrackWav(resolution=(4, 8), wav_seconds=2.0, files_per_run=1, pool=(0, 1)),
    "eval-reverb": EvalReverb(resolution=(4, 8), t60=0.2, traj_seconds=1.0, pool=(0, 1)),
}


@pytest.fixture(scope="module")
def goldens(tmp_path_factory):
    return {name: golden_outputs(wl, tmp_path_factory.mktemp(name)) for name, wl in TINY.items()}


def _records(name, tmp_path):
    wl = TINY[name]
    items = wl.items(0)
    wl.setup(tmp_path, items)
    return wl, wl.run(wl.prepare(tmp_path), items, seconds=0.0)


def test_benchmark_json_matches_the_code():
    from tracing import DERIVED_METRICS, SPAN_METRICS

    layers = [(n, u, b) for n, u, b, *_ in SPAN_METRICS + DERIVED_METRICS]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == layers
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for name, wl in WORKLOADS.items():
        stored = json.loads((HERE / "goldens" / f"{name}.json").read_text())
        assert stored["params"] == json.loads(json.dumps(wl.params())), name
        assert run.load_goldens(wl) == stored["outputs"]


def test_heldout_seed_uses_other_items():
    for wl in WORKLOADS.values():
        default, heldout = wl.items(run.DEFAULT_SEED), wl.items(run.HELDOUT_SEED)
        n = 3 if wl.name == "eval-reverb" else len(default)  # eval runs reach 2-3 items
        assert not set(default[:n]) & set(heldout[:n]), wl.name


@pytest.mark.parametrize("name", sorted(TINY))
def test_golden_check_passes_and_catches_wrong_outputs(name, goldens, tmp_path):
    wl, records = _records(name, tmp_path)
    assert records and run.check_records(wl, records, goldens[name]) == {}
    rec = records[0]
    if name == "track-wav":
        bad = [[az + 5.0, el, v, d] for az, el, v, d in rec.out]  # a wrong DOA
    elif name == "eval-reverb":
        bad = {m: [v[0] + 0.5, v[1]] for m, v in rec.out.items()}  # a wrong RMSAE
    else:
        bad = rec.out * 1.1  # a loss off by 10%, as a skipped Adam step would leave it
    wrong = dataclasses.replace(rec, out=bad)
    assert run.check_records(wl, [wrong], goldens[name])
    assert run.check_records(wl, [dataclasses.replace(rec, key="nope")], goldens[name])


def test_model_doa_tolerance_allows_rounding_but_not_grid_errors(goldens, tmp_path):
    wl, records = _records("track-wav", tmp_path)
    by_kind = {r.key.split("/")[1]: r for r in records}
    nudged = dataclasses.replace(by_kind["cross3d"], out=[
        [az + 1e-4, el, v, d] for az, el, v, d in by_kind["cross3d"].out])
    assert run.check_records(wl, [nudged], goldens["track-wav"]) == {}
    nudged_srp = dataclasses.replace(by_kind["srp"], out=[
        [az + 1e-3, el, v, d] for az, el, v, d in by_kind["srp"].out])
    assert run.check_records(wl, [nudged_srp], goldens["track-wav"])


@pytest.mark.parametrize("name", sorted(TINY))
def test_measure_traced_and_untraced(name, goldens):
    wl = TINY[name]
    result, prov = run.measure(wl, 0, 0.0, False, goldens[name], 1)
    assert result["correct"] and result["failed"] == 0, prov["problems"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(prov["setup_s_repeats"]) == run.SETUP_REPEATS

    result, prov = run.measure(wl, 0, 0.0, True, goldens[name], 1)
    assert result["correct"] and result["failed"] == 0, prov["problems"]
    assert result["attempted"] == 2 * prov["ops"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    value = {k: m["value"] for k, m in result["metrics"].items()}
    assert value["srpfeat.srp_calls"] == value["srpfeat.frames"] > 0
    if name == "track-wav":
        assert value["srpfeat.gcc_per_frame"] == 2.0
        assert value["roomsim.rir_sets"] == 0 and value["models.load_s"] > 0
    else:
        assert value["roomsim.rir_sets"] > 0 and value["roomsim.image_evals"] > 0
    if name == "train-cross3d":
        assert value["srpfeat.gcc_per_frame"] == 1.0
        assert value["tensornet.conv3d_bwd_s"] > 0 and value["tensornet.adam_s"] > 0


def _traced_problems(name, tmp_path, targets=TARGETS, unpatch=None):
    wl = TINY[name]
    items = wl.items(0)
    tmp_path.mkdir(exist_ok=True)
    wl.setup(tmp_path, items)
    ctx = wl.prepare(tmp_path)
    tracer = Tracer()
    tracer.install(targets)
    try:
        if unpatch:  # put one binding back, as a missed binding would leave it
            module, attr = unpatch
            restore = next(o for m, a, o in tracer._patches if m is module and a == attr)
            setattr(module, attr, restore)
        records = wl.run(ctx, items, 0.0, mark=tracer.mark)
    finally:
        tracer.uninstall()
    return tracer, tracer.self_check({i: wl.scenes_per_op for i in range(len(records))})


def test_self_check_passes_and_catches_missed_bindings(tmp_path):
    from srptrack import evaluate, scenegen

    _, problems = _traced_problems("track-wav", tmp_path / "a")
    assert problems == []
    _, problems = _traced_problems("track-wav", tmp_path / "b",
                                   unpatch=(evaluate, "compute_input_tensor"))
    assert any("GCC sets" in p for _, p in problems)
    _, problems = _traced_problems("eval-reverb", tmp_path / "c",
                                   unpatch=(scenegen, "render_moving_source"))
    assert any("roomsim.render" in p for _, p in problems)


def test_deleted_function_is_reported_absent(tmp_path):
    # as if a refactor had deleted gcc_set
    targets = [("srpfeat.gcc_set_deleted", *t[1:]) if t[0] == "srpfeat.gcc_set" else t
               for t in TARGETS]
    targets.append(("no_such_module.function", "srpfeat.ghost", None))
    tracer, problems = _traced_problems("track-wav", tmp_path, targets=targets)
    assert {"srpfeat.gcc", "srpfeat.ghost"} <= tracer.absent and problems == []
    metrics = tracer.metrics(1.0, 1.0)
    assert "srpfeat.gcc_calls" not in metrics and "srpfeat.gcc_per_frame" not in metrics
    assert "srpfeat.srp_calls" in metrics


def _write_set(directory: Path, workload: str, rtfs: list[float]) -> Path:
    directory.mkdir()
    for seed, rtf in enumerate(rtfs):
        prov = {"provenance": {"workload": workload, "trace": 0,
                               "workload_metrics": {"failed_ratio": {"value": 0.0, "unit": "ratio"}}}}
        result = {"correct": True, "attempted": 3, "failed": 0, "metrics": {
            "setup_s": {"value": 1.0, "unit": "s"}, "peak_rss_mb": {"value": 500.0, "unit": "MB"},
            "rtf": {"value": rtf, "unit": "s/s"}}}
        (directory / f"{workload}-s{seed}-t0.out").write_text(
            "noise\n" + json.dumps(prov) + "\n" + json.dumps(result) + "\n")
    return directory


def test_compare_flags_regressions_and_wide_spreads(tmp_path):
    base = compare.load_set(_write_set(tmp_path / "base", "eval-reverb", [1.0, 1.01, 0.99, 1.0, 1.02]))
    same = compare.load_set(_write_set(tmp_path / "same", "eval-reverb", [1.0, 1.0, 1.01, 0.99, 1.0]))
    slow = compare.load_set(_write_set(tmp_path / "slow", "eval-reverb", [1.3, 1.31, 1.29, 1.3, 1.3]))
    wide = compare.load_set(_write_set(tmp_path / "wide", "eval-reverb", [0.5, 1.0, 1.5, 0.7, 1.2]))
    assert compare.stats([1.0, 2.0, 3.0, 4.0]) == (2.5, 1.25, 3.75)
    (row,) = compare.report(base, same)
    assert "REGRESSION" not in row and "unresolved" not in row
    (row,) = compare.report(base, slow)
    assert "rtf" in row and "REGRESSION" in row
    (row,) = compare.report(base, wide)
    assert "unresolved" in row
    (row,) = compare.report(wide)
    assert row.startswith("eval-reverb (n=5)") and "unresolved" in row


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(SPEC["command"] + ["--workload", "track-wav", "--seed", "0",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0 and "correct" not in done.stdout
