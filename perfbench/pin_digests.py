"""Record the input digests that run.py checks generated datasets against.

    python3 perfbench/pin_digests.py

Generates every workload's dataset for seeds 0..SEEDS-1 with `sepal synth`
and writes their digests to digests.json.  Re-pin only when a change to
the workloads or to `sepal synth` is meant to change the benchmark's
inputs; the benchmark then measures a different workload than before.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS

SEEDS = 32


def main() -> None:
    run.WORK_ROOT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="pin-", dir=run.WORK_ROOT)
    pinned = {}
    try:
        for name, workload in WORKLOADS.items():
            pinned[name] = {}
            for seed in range(SEEDS):
                seed_dir = Path(work) / f"{name}-{seed}"
                bench = run.Bench(workload, seed, seed_dir)
                code, _, _ = bench.launch(
                    workload.synth_argv(str(bench.data), seed))
                if code != 0:
                    raise SystemExit(f"sepal synth failed for {name} {seed}")
                pinned[name][str(seed)] = run.input_digest(bench.data)
                shutil.rmtree(seed_dir)
            print(f"{name}: pinned seeds 0..{SEEDS - 1}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True)
                           + "\n")


if __name__ == "__main__":
    main()
