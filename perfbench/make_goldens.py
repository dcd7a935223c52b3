"""Write goldens/<workload>.json: the outputs of every pool item at this commit.

    python3 perfbench/make_goldens.py [WORKLOAD ...]

The benchmark checks each operation against these stored outputs, so make
them only from a commit whose outputs are trusted, and say so in the change
that replaces them.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import run


def golden_outputs(wl, work: Path) -> dict:
    """Outputs keyed as the benchmark's operations are; raises on any failure."""
    outputs = {}
    for k, (items, n_ops) in enumerate(wl.golden_runs()):
        directory = work / f"golden{k}"
        directory.mkdir()
        wl.setup(directory, items)
        for rec in wl.run(wl.prepare(directory), items, math.inf, n_ops=n_ops):
            if rec.error is not None:
                raise RuntimeError(f"{wl.name} {rec.key}: {rec.error}")
            outputs[rec.key] = rec.out
    return outputs


def main(names) -> int:
    blas_threads = run.pin_blas_threads()
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    for name in names or sorted(WORKLOADS):
        wl = WORKLOADS[name]
        run.WORK_ROOT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as work:
            outputs = golden_outputs(wl, Path(work))
        header = {
            "commit": run._commit(), "src_sha256": run._src_digest(),
            "blas_threads": blas_threads, "params": wl.params(),
        }
        # one output per line keeps diffs of this file readable
        lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in outputs.items()]
        text = json.dumps(header, indent=1)[:-2] + ',\n "outputs": {\n' + ",\n".join(lines) + "\n}}\n"
        path = run.HERE / "goldens" / f"{name}.json"
        path.write_text(text)
        print(f"wrote {len(outputs)} outputs to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
