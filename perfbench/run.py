"""srptrack benchmark: one workload, one closed loop, one result line.

    python3 perfbench/run.py --workload {train-cross3d,track-wav,eval-reverb} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; ``srptrack`` is imported from the
checkout's ``src`` directory. Set-up (imports, model and checkpoint
construction, input synthesis) runs in a child process, SETUP_REPEATS times;
after each, this process loads what the child wrote and warms up. ``setup_s``
is the median of those repeats. The timed loop then runs here, so the peak
RSS reported is that of the timed phase, taken when its first round (one
training batch, one file tracked three ways, one eval trajectory) is done.

Stdout ends with two JSON lines: provenance plus the workload's own named
metrics, then the result. With ``--trace 0`` the result holds the end-to-end
metrics; with ``--trace 1`` the loop runs untraced, then again over the same
operations with spans around every wrapped call. The two passes must give the
same outputs bit for bit, and the result holds the per-layer metrics,
including the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"

BLAS_THREADS = 2
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
# DEFAULT_SEED is the seed to develop against; a claimed gain must also hold
# on HELDOUT_SEED, whose pool items differ from the default's in every workload
DEFAULT_SEED = 0
HELDOUT_SEED = 17


def pin_blas_threads() -> int:
    """Fix the BLAS thread count before numpy loads; never above the usable CPUs."""
    n = max(1, min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(wl, seed, seconds, trace, items, blas_threads) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        library = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        library = "unknown"
    return {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": _commit(), "src_sha256": _src_digest(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": {"library": library, "threads": blas_threads},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "params": wl.params(), "items": items,
    }


def load_goldens(wl) -> dict:
    """Stored outputs for this workload, or {} when they were made with other
    parameters (then every operation fails its check)."""
    path = HERE / "goldens" / f"{wl.name}.json"
    stored = json.loads(path.read_text())
    if stored["params"] != json.loads(json.dumps(wl.params())):
        print(f"{path.name}: made with other workload parameters", file=sys.stderr)
        return {}
    return stored["outputs"]


def check_records(wl, records, goldens) -> dict[int, list[str]]:
    """Problems per operation index: errors and differences from the goldens."""
    failed = {}
    for i, rec in enumerate(records):
        if rec.error is not None:
            problems = [f"{rec.key}: {rec.error}"]
        elif rec.key not in goldens:
            problems = [f"{rec.key}: no golden output"]
        else:
            problems = wl.check(rec, goldens[rec.key])
        if problems:
            failed[i] = problems
    return failed


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _same_outputs(a, b) -> bool:
    # json renders floats with repr, which round-trips, so equal text is equal bits
    return a.key == b.key and json.dumps(a.out) == json.dumps(b.out)


def set_up(wl, items, work: Path):
    """Run set-up SETUP_REPEATS times; returns (seconds per repeat, last
    directory, context prepared from it)."""
    times, ctx, directory = [], None, None
    for r in range(SETUP_REPEATS):
        if directory is not None:
            shutil.rmtree(directory)
        directory = work / f"setup{r}"
        directory.mkdir()
        ctx = None  # let the previous repeat's models go before loading new ones
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-into", str(directory),
             "--workload", wl.name, "--items", json.dumps(items),
             "--params", json.dumps(wl.params())],
            check=True, timeout=SETUP_TIMEOUT_S,
        )
        ctx = wl.prepare(directory)
        times.append(time.perf_counter() - t0)
    return times, directory, ctx


def _traced_pass(wl, directory: Path, items, seconds: float, records):
    """Replay the untraced pass's operations with spans on.

    Returns (records, problems per operation index, layer metrics, absent spans).
    """
    from tracing import Tracer

    ctx = wl.prepare(directory)  # fresh state: training changes the model
    tracer = Tracer()
    tracer.install()
    try:
        traced = wl.run(ctx, items, seconds, n_ops=len(records), mark=tracer.mark)
    finally:
        tracer.uninstall()
    failed = {}
    for i in range(max(len(records), len(traced))):
        if i >= len(records) or i >= len(traced) or not _same_outputs(records[i], traced[i]):
            failed[i] = [f"op {i}: traced output differs from untraced"]
    ok = {i: wl.scenes_per_op for i, rec in enumerate(traced) if rec.error is None}
    for op, problem in tracer.self_check(ok):
        failed.setdefault(op, []).append(problem)
    metrics = tracer.metrics(sum(r.wall_s for r in traced), sum(r.wall_s for r in records))
    return traced, failed, metrics, sorted(tracer.absent)


def measure(wl, seed: int, seconds: float, trace: bool, goldens: dict, blas_threads: int):
    """Set up, run the closed loop (twice when tracing) and check the outputs.

    Returns (result dict, provenance dict).
    """
    items = wl.items(seed)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK_ROOT))
    try:
        setup_times, directory, ctx = set_up(wl, items, work)
        # peak RSS once every code path ran: later rounds only add heap
        # growth, which would make the figure depend on how many rounds fit
        rss_after_round = []

        def mark(op):
            if op == wl.round_ops:
                rss_after_round.append(_peak_rss_mb())

        records = wl.run(ctx, items, seconds, mark=mark)
        peak_rss_mb = rss_after_round[0] if rss_after_round else _peak_rss_mb()
        e2e = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "rtf": {"value": wl.rtf(records), "unit": "s/s"},
        }
        metrics, absent, attempted = e2e, [], len(records)
        failures = [check_records(wl, records, goldens)]
        if trace:
            ctx = None  # release the untraced pass's models before loading fresh ones
            traced, traced_failed, metrics, absent = _traced_pass(
                wl, directory, items, seconds, records)
            attempted += len(traced)
            failures.append(traced_failed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    n_failed = sum(len(f) for f in failures)
    named = {k: {"value": v, "unit": u} for k, (v, u) in wl.detail(records).items()}
    named["failed_ratio"] = {"value": n_failed / attempted, "unit": "ratio"}
    prov = provenance(wl, seed, seconds, int(trace), items, blas_threads)
    prov.update(
        setup_s_repeats=setup_times, ops=len(records),
        ops_wall_s=[r.wall_s for r in records], end_to_end=e2e, workload_metrics=named,
        absent=absent, problems=[p for f in failures for ps in f.values() for p in ps][:20],
    )
    result = {"correct": n_failed == 0, "attempted": attempted, "failed": n_failed,
              "metrics": metrics}
    return result, prov


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the set-up child process
    parser.add_argument("--setup-into", help=argparse.SUPPRESS)
    parser.add_argument("--items", help=argparse.SUPPRESS)
    parser.add_argument("--params", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    blas_threads = pin_blas_threads()
    if not (SRC / "srptrack" / "__init__.py").is_file():
        print(f"error: no srptrack sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    if args.setup_into:
        params = {k: tuple(v) if isinstance(v, list) else v
                  for k, v in json.loads(args.params).items()}
        type(wl)(**params).setup(Path(args.setup_into), json.loads(args.items))
        return 0

    result, prov = measure(wl, args.seed, args.seconds, bool(args.trace), load_goldens(wl),
                           blas_threads)
    for problem in prov["problems"]:
        print(problem, file=sys.stderr)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
