"""The benchmark's workloads: a synthetic dataset plus CLI command sequences.

Every workload is three slides (train, val, test) from `sepal synth`,
generated from the benchmark's --seed.  The set-up commands run before
timing starts; the timed commands are what pipeline_s measures.  See
NOTES.md for why each workload exists and which layers it stresses.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 3
N_SLIDES = 3
# stage 2 must stop on --max-steps, never on early stopping
NO_EARLY_STOP = ("--epochs", "100000", "--patience", "100000")


@dataclass(frozen=True)
class Step:
    """One CLI command: a metric name and the arguments after `sepal`."""

    name: str
    args: tuple[str, ...]


def _step(name: str, command: str, *rest: str) -> Step:
    return Step(name, (command, *rest))


PREPARE = (_step("preprocess", "preprocess"), _step("denoise", "denoise"))


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    cols: int
    synth_args: tuple[str, ...]  # beyond --out/--rows/--cols/--seed
    n_smooth: int                # planted genes select must recover
    needs_graphs: bool           # every (slide, centre) graph is needed
    setup: tuple[Step, ...]
    timed: tuple[Step, ...]

    def synth_argv(self, out: str, seed: int) -> list[str]:
        return ["synth", "--out", out, "--rows", str(self.rows),
                "--cols", str(self.cols), "--slides", str(N_SLIDES),
                "--seed", str(seed), *self.synth_args]

    @property
    def graphs_needed(self) -> int:
        return N_SLIDES * self.rows * self.cols if self.needs_graphs else 0


WORKLOADS = {w.name: w for w in (
    Workload(
        name="st-pipeline",
        rows=20, cols=20,
        synth_args=("--genes", "64", "--smooth", "16", "--counts",
                    "--zero-fraction", "0.05", "--d-emb", "16",
                    "--geometry", "square_grid"),
        n_smooth=16,
        needs_graphs=True,
        setup=(),
        timed=(*PREPARE,
               _step("select", "select", "--n-genes", "32"),
               _step("build_graphs", "build-graphs",
                     "--preset", "stnet-like"),
               _step("train1", "train", "--stage", "1"),
               _step("train2", "train", "--stage", "2",
                     "--preset", "stnet-like", "--max-steps", "30",
                     *NO_EARLY_STOP),
               _step("eval", "eval"),
               _step("figures", "figures")),
    ),
    Workload(
        name="visium-train",
        rows=16, cols=16,
        synth_args=("--genes", "64", "--smooth", "16",
                    "--zero-fraction", "0.05", "--d-emb", "32",
                    "--geometry", "hex_array"),
        n_smooth=16,
        needs_graphs=True,
        setup=(*PREPARE, _step("select", "select", "--n-genes", "32")),
        timed=(_step("build_graphs", "build-graphs",
                     "--preset", "visium-like"),
               _step("train1", "train", "--stage", "1"),
               # the preset's batch of 256 takes stage 2 to a 5.4 GB peak
               # here; 64 keeps 12 steps of four full batches per epoch
               _step("train2", "train", "--stage", "2",
                     "--preset", "visium-like", "--batch", "64",
                     "--max-steps", "12",
                     *NO_EARLY_STOP),
               _step("eval", "eval")),
    ),
    Workload(
        name="prep-wide",
        rows=28, cols=28,
        synth_args=("--genes", "256", "--smooth", "64", "--counts",
                    "--zero-fraction", "0.10", "--d-emb", "16",
                    "--geometry", "hex_array"),
        n_smooth=64,
        needs_graphs=False,
        setup=(),
        timed=(*PREPARE,
               _step("select", "select", "--n-genes", "64"),
               _step("train1", "train", "--stage", "1"),
               _step("eval", "eval")),
    ),
)}
