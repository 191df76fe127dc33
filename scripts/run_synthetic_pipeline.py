#!/usr/bin/env python3
"""Generate a synthetic dataset and drive every pipeline stage over it.

The run leaves a fully populated work directory behind (lockfiles,
checkpoints, metrics, figure data), so this doubles as a smoke test and
as a template for wiring up real datasets.

Example:
    python scripts/run_synthetic_pipeline.py --out /tmp/demo --seed 3

Each stage runs as its own `python -m sepal.cli` process, and the peaks
file (default <out>/peaks.tsv) gets one TSV row per stage: its name,
exit code, wall seconds and peak RSS in MB (the child's ru_maxrss from
os.wait4).  This script never imports sepal, and so never numpy: a child
started from a parent holding numpy would report the parent's pages as
its own peak.  sepal must be importable by the children (installed, or
on PYTHONPATH).
"""

import argparse
import os
import sys
import time
from pathlib import Path


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True,
                    help="directory for the dataset and all stage outputs")
    ap.add_argument("--rows", type=int, default=20)
    ap.add_argument("--cols", type=int, default=20)
    ap.add_argument("--d-emb", type=int, default=16)
    ap.add_argument("--genes", type=int, default=64)
    ap.add_argument("--smooth", type=int, default=16)
    ap.add_argument("--slides", type=int, default=3)
    ap.add_argument("--zero-fraction", type=float, default=0.05)
    ap.add_argument("--geometry", choices=("square_grid", "hex_array"),
                    default="square_grid")
    ap.add_argument("--counts", action="store_true",
                    help="generate integer counts so the count filters and "
                         "normalization have real work to do")
    ap.add_argument("--select", type=int, default=32,
                    help="genes kept by the autocorrelation ranking")
    ap.add_argument("--preset", choices=("stnet-like", "visium-like"),
                    default=None,
                    help="architecture preset for graphs and training")
    ap.add_argument("--hops", type=int, default=1)
    ap.add_argument("--aggregation", choices=("sum", "concat"),
                    default="concat")
    ap.add_argument("--stage2-epochs", type=int, default=100)
    ap.add_argument("--patience", type=int, default=25)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--peaks", type=Path, default=None,
                    help="TSV of each stage's exit code, wall seconds and "
                         "peak RSS (default: <out>/peaks.tsv)")
    return ap.parse_args()


def run_child(argv):
    """Run `python -m sepal.cli argv`; its exit code, wall seconds and
    peak RSS in MB."""
    cmd = [sys.executable, "-m", "sepal.cli", *argv]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, cmd, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0


def main():
    args = parse_args()
    data = args.out / "data"
    work = args.out / "run"
    manifest = str(data / "manifest.toml")
    peaks = args.peaks or args.out / "peaks.tsv"

    synth = ["synth", "--out", str(data),
             "--rows", str(args.rows), "--cols", str(args.cols),
             "--d-emb", str(args.d_emb), "--genes", str(args.genes),
             "--smooth", str(args.smooth), "--slides", str(args.slides),
             "--zero-fraction", str(args.zero_fraction),
             "--geometry", args.geometry, "--seed", str(args.seed)]
    if args.counts:
        synth.append("--counts")
    base = ["--manifest", manifest, "--out", str(work)]
    graph_flags = (["--preset", args.preset] if args.preset
                   else ["--hops", str(args.hops),
                         "--aggregation", args.aggregation])
    # a small correction net that trains well at desk scale
    stage2_flags = (["--preset", args.preset] if args.preset
                    else ["--pooling", "global_mean", "--hidden", "64",
                          "--post-mlp", "32", "--lr", "1e-3"])
    stages = [
        ("synth", synth),
        ("preprocess", ["preprocess", *base]),
        ("denoise", ["denoise", *base]),
        ("select", ["select", *base, "--n-genes", str(args.select)]),
        ("build-graphs", ["build-graphs", *base, *graph_flags]),
        ("train1", ["train", *base, "--stage", "1"]),
        ("train2", ["train", *base, "--stage", "2",
                    "--epochs", str(args.stage2_epochs),
                    "--patience", str(args.patience),
                    "--seed", str(args.seed), *stage2_flags]),
        ("eval", ["eval", *base]),
        ("figures", ["figures", *base]),
    ]
    peaks.parent.mkdir(parents=True, exist_ok=True)
    rows = ["stage\texit\twall_s\tpeak_mb\n"]
    for name, argv in stages:
        code, wall, peak = run_child(argv)
        rows.append(f"{name}\t{code}\t{wall:.3f}\t{peak:.1f}\n")
        peaks.write_text("".join(rows))
        if code != 0:
            print(f"stage {name} failed with exit code {code}",
                  file=sys.stderr)
            return code

    print()
    print((work / "eval" / "metrics.tsv").read_text(), end="")
    print(f"\nartifacts under {work}; per-stage peaks in {peaks}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
