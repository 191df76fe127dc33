#!/usr/bin/env python3
"""Generate a synthetic dataset and drive every pipeline stage over it.

The run leaves a fully populated work directory behind (lockfiles,
checkpoints, metrics, figure data), so this doubles as a smoke test and
as a template for wiring up real datasets.

Example:
    python scripts/run_synthetic_pipeline.py --out /tmp/demo --seed 3
"""

import argparse
import sys
from pathlib import Path

from sepal.cli import main as sepal


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
    return ap.parse_args()


def main():
    args = parse_args()
    data = args.out / "data"
    work = args.out / "run"
    manifest = str(data / "manifest.toml")

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
        synth,
        ["preprocess", *base],
        ["denoise", *base],
        ["select", *base, "--n-genes", str(args.select)],
        ["build-graphs", *base, *graph_flags],
        ["train", *base, "--stage", "1"],
        ["train", *base, "--stage", "2",
         "--epochs", str(args.stage2_epochs),
         "--patience", str(args.patience), "--seed", str(args.seed),
         *stage2_flags],
        ["eval", *base],
        ["figures", *base],
    ]
    for argv in stages:
        code = sepal(argv)
        if code != 0:
            print(f"stage {argv[0]} failed with exit code {code}",
                  file=sys.stderr)
            return code

    print()
    print((work / "eval" / "metrics.tsv").read_text(), end="")
    print(f"\nartifacts under {work}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
