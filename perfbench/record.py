"""Run the benchmark once per seed and workload, keeping each run's stdout.

    python3 perfbench/record.py OUT_DIR [--workloads a,b] [--seeds 0-9]
                                [--seconds S] [--trace 0|1]

Writes OUT_DIR/<workload>-s<seed>-t<trace>.out, one file per run, for
compare.py. Seconds default to BENCHMARK.json's run_seconds. Run it from the
root of the checkout being measured.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 900


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-9"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            out = args.out_dir / f"{workload}-s{seed}-t{args.trace}.out"
            out.write_text(done.stdout)
            last = done.stdout.strip().splitlines()[-1:] or [f"exit {done.returncode}"]
            print(f"{out.name}: {last[0]}", flush=True)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
