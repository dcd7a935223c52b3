"""Summarize one set of benchmark results, or compare a new set against a base.

    python3 perfbench/compare.py BASE_DIR [NEW_DIR]

A set is a directory of files, each holding the stdout of one run.py run
(record.py writes them). Only --trace 0 runs are read. For each workload one
row lists, for every end-to-end metric of BENCHMARK.json and then the
workload's own named metrics, the median and quartiles [q1, q3] over the
set's runs. With two sets a metric is flagged REGRESSION when NEW's median is
worse than BASE's by more than the metric's bound, and "unresolved" when the
spread (q3 - q1) / median of either set is wider than the bound, unless every
NEW run reads better than every BASE run. A metric that must repeat exactly
(the eval RMSAE, the failure ratio) is flagged CHANGED when its median moves.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# workload-named metrics: direction, and bound (None: the bound of "rtf";
# 0.0: a value that must repeat exactly on the same seeds)
NAMED = {
    "train.samples_per_s": ("higher", None),
    "track.rtf.srp": ("lower", None),
    "track.rtf.cross3d": ("lower", None),
    "track.rtf.baseline-gcc": ("lower", None),
    "eval.traj_per_s": ("higher", None),
    "eval.rmsae_voiced_deg": ("lower", 0.0),
    "failed_ratio": ("lower", 0.0),
}


def load_set(directory) -> dict[str, dict[str, list[float]]]:
    """{workload: {metric: [value per run]}} from a directory of run outputs."""
    runs: dict[str, dict[str, list[float]]] = {}
    for path in sorted(Path(directory).iterdir()):
        lines = [ln for ln in path.read_text().splitlines() if ln.startswith("{")]
        try:
            prov = json.loads(lines[-2])["provenance"]
            result = json.loads(lines[-1])
        except (IndexError, KeyError, json.JSONDecodeError):
            print(f"skipping {path}: no result", file=sys.stderr)
            continue
        if prov["trace"]:
            continue
        metrics = runs.setdefault(prov["workload"], {})
        for name, m in {**result["metrics"], **prov["workload_metrics"]}.items():
            metrics.setdefault(name, []).append(m["value"])
    return runs


def stats(values: list[float]) -> tuple[float, float, float]:
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values: list[float]) -> float:
    med, q1, q3 = stats(values)
    return (q3 - q1) / abs(med) if med else 0.0


def _bounds() -> dict[str, tuple[str, float]]:
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    for name, (better, bound) in NAMED.items():
        bounds[name] = (better, bounds["rtf"][1] if bound is None else bound)
    return bounds


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    """"REGRESSION", "unresolved", "CHANGED" or "" for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    b_med, n_med = stats(base)[0], stats(new)[0]
    if bound == 0.0:
        return "CHANGED" if n_med != b_med else ""
    if sign * (n_med - b_med) > bound * abs(b_med):
        return "REGRESSION"
    all_better = max(sign * v for v in new) < min(sign * v for v in base)
    if max(spread(base), spread(new)) > bound and not all_better:
        return "unresolved"
    return ""


def _cell(values):
    med, q1, q3 = stats(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def report(base, new=None) -> list[str]:
    bounds = _bounds()
    rows = []
    for workload in sorted(base):
        cells = []
        for name, values in base[workload].items():
            better, bound = bounds.get(name, ("lower", 0.0))
            if new is None:
                flag = " unresolved" if bound and spread(values) > bound else ""
                cells.append(f"{name} {_cell(values)} spread {spread(values):.1%}{flag}")
                continue
            other = new.get(workload, {}).get(name)
            if not other:
                cells.append(f"{name} missing in NEW")
                continue
            change = stats(other)[0] / stats(values)[0] - 1.0 if stats(values)[0] else 0.0
            flag = verdict(values, other, better, bound)
            cells.append(f"{name} {_cell(values)} -> {_cell(other)} ({change:+.1%}) {flag}".rstrip())
        rows.append(f"{workload} (n={len(next(iter(base[workload].values())))}) | "
                    + " | ".join(cells))
    return rows


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load_set(d) for d in argv]
    rows = report(*sets)
    print("\n".join(rows))
    return 1 if any("REGRESSION" in r or "CHANGED" in r for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
