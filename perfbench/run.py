"""Benchmark the sepal CLI end to end, one process per command.

    python3 perfbench/run.py --workload st-pipeline --seed 3 --seconds 20 \
        --trace 0

Run from anywhere inside a checkout; the package is taken from the
checkout's `src/`.  With --trace 0 the timed command sequence is repeated
for about --seconds and the end-to-end metrics are medians over the
repetitions.  With --trace 1 the sequence runs once plainly (per-command
times) and once under the span wrappers of tracer.py (per-layer numbers);
the ratio of the two is the tracing overhead.  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.  Working files go
to `.perfbench_work/` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from time import perf_counter

import numpy as np

from workloads import DEFAULT_SEED, WORKLOADS, Step, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAUNCH = HERE / "launch.py"
DIGESTS = HERE / "digests.json"
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_REPS = 3
MIN_REPS = 3  # a median that one slow repetition cannot move
# one BLAS thread; a fixed string hash seed, because with random hashing
# the cyclic GC runs at other points and stage-2 peak RSS varies by 25%
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
STAGE_DIRS = {"preprocess": "preprocess", "denoise": "denoise",
              "select": "select", "build-graphs": "graphs",
              "train": "train", "eval": "eval", "figures": "figures"}
# outputs that must be byte-identical between repetitions, when produced
DETERMINISM_FILES = ("train/stage1.ckpt", "train/stage2.ckpt",
                     "eval/metrics.tsv")
CLI_STEPS = ("preprocess", "denoise", "select", "build_graphs", "train1",
             "train2", "eval", "figures")


class SetupFailed(Exception):
    pass


class Checks:
    """Timed commands and output checks, counted against attempts."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok


class Bench:
    def __init__(self, workload: Workload, seed: int, work: Path):
        self.w = workload
        self.seed = seed
        self.work = work
        self.data = work / "data"
        self.run = work / "run"
        self.logs = work / "logs"
        self.logs.mkdir(parents=True)
        self.env = {**os.environ, **PINNED_ENV}
        self.checks = Checks()
        self.n_launched = 0

    # -- commands ---------------------------------------------------------

    def launch(self, argv: list[str], trace: Path | None = None
               ) -> tuple[int, float, float]:
        """Run one sepal command; returns (exit code, seconds, peak MB)."""
        self.n_launched += 1
        log = self.logs / f"{self.n_launched:04d}.log"
        cmd = [sys.executable, str(LAUNCH)]
        if trace is not None:
            cmd += ["--trace", str(trace)]
        cmd += ["--", *argv]
        with open(log, "wb") as fh:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=fh,
                                    stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            print(f"`sepal {' '.join(argv)}` exited {proc.returncode}:\n"
                  f"{log.read_text(errors='replace')[-2000:]}",
                  file=sys.stderr)
        return proc.returncode, seconds, usage.ru_maxrss / 1024.0

    def step_argv(self, step: Step) -> list[str]:
        command, *rest = step.args
        return [command, "--manifest", str(self.data / "manifest.toml"),
                "--out", str(self.run), *rest]

    def setup(self, trace_dir: Path | None = None
              ) -> tuple[float, dict[str, tuple]]:
        """Generate the dataset and run the set-up commands from scratch.

        Returns the total seconds and per-command (seconds, peak MB).
        """
        shutil.rmtree(self.data, ignore_errors=True)
        shutil.rmtree(self.run, ignore_errors=True)
        steps = {}
        t0 = perf_counter()
        code, sec, rss = self.launch(
            self.w.synth_argv(str(self.data), self.seed),
            _trace_file(trace_dir, "setup-synth"))
        if code != 0:
            raise SetupFailed("sepal synth failed")
        steps["synth"] = (sec, rss)
        for step in self.w.setup:
            code, sec, rss = self.launch(
                self.step_argv(step),
                _trace_file(trace_dir, f"setup-{step.name}"))
            if code != 0:
                raise SetupFailed(f"set-up command {step.name} failed")
            steps[step.name] = (sec, rss)
        return perf_counter() - t0, steps

    def sequence(self, trace_dir: Path | None = None) -> dict | None:
        """One timed repetition; None if a command failed."""
        for step in self.w.timed:
            shutil.rmtree(self.run / STAGE_DIRS[step.args[0]],
                          ignore_errors=True)
        steps = {}
        t0 = perf_counter()
        for step in self.w.timed:
            code, sec, rss = self.launch(self.step_argv(step),
                                         _trace_file(trace_dir, step.name))
            if not self.checks.check(code == 0,
                                     f"{step.name} exited {code}"):
                return None
            steps[step.name] = (sec, rss)
        return {"seconds": perf_counter() - t0, "steps": steps,
                "peak_mb": max(rss for _, rss in steps.values()),
                "files": self.output_hashes()}

    # -- output checks ----------------------------------------------------

    def output_hashes(self) -> dict[str, str]:
        return {rel: hashlib.sha256((self.run / rel).read_bytes()).hexdigest()
                for rel in DETERMINISM_FILES if (self.run / rel).is_file()}

    def check_selection(self) -> None:
        """select/genes.tsv must keep every planted smooth gene."""
        header = _rows(next(self.data.glob("*_expr.tsv")))[0]
        planted = [g for g in header[1:] if g.startswith("smooth")]
        if not self.checks.check(len(planted) == self.w.n_smooth,
                                 f"{len(planted)} planted genes in the "
                                 f"input, expected {self.w.n_smooth}"):
            return
        try:
            rows = _table(self.run / "select" / "genes.tsv")
            chosen = {r["gene_id"] for r in rows if r["selected"] == "1"}
        except (OSError, KeyError, ValueError) as exc:
            self.checks.check(False, f"select/genes.tsv unreadable: {exc}")
            return
        missed = sorted(set(planted) - chosen)
        self.checks.check(not missed,
                          f"select missed planted genes {missed[:5]}")

    def read_metrics(self) -> dict[str, float] | None:
        """eval/metrics.tsv as floats; None if it does not parse finite."""
        try:
            rows = _table(self.run / "eval" / "metrics.tsv")
            values = {r["metric"]: float(r["value"]) for r in rows}
        except (OSError, KeyError, ValueError) as exc:
            self.checks.check(False, f"eval/metrics.tsv unreadable: {exc}")
            return None
        ok = all(math.isfinite(v) for v in values.values()) \
            and {"mse", "pcc_gene"} <= values.keys()
        return values if self.checks.check(
            ok, f"eval/metrics.tsv not finite or incomplete: {values}") \
            else None

    def check_rep(self, rep: dict, first: dict | None) -> None:
        if any(s.name == "select" for s in self.w.timed):
            self.check_selection()
        rep["metrics"] = self.read_metrics()
        if first is not None:
            for rel, digest in first["files"].items():
                self.checks.check(rep["files"].get(rel) == digest,
                                  f"{rel} differs between repetitions")

    # -- inputs -----------------------------------------------------------

    def check_inputs(self) -> None:
        """Refuse to run on inputs other than the pinned ones."""
        digest = input_digest(self.data)
        pinned = json.loads(DIGESTS.read_text()).get(self.w.name, {})
        want = pinned.get(str(self.seed))
        if want is None:
            print(f"no pinned input digest for seed {self.seed}",
                  file=sys.stderr)
        elif digest != want:
            raise SetupFailed(
                f"generated inputs changed: digest {digest} for seed "
                f"{self.seed}, pinned {want}; `sepal synth` no longer makes "
                f"the {self.w.name} workload")


def _trace_file(trace_dir: Path | None, name: str) -> Path | None:
    return None if trace_dir is None else trace_dir / f"{name}.json"


def _rows(path: Path) -> list[list[str]]:
    """Header and data rows of a sepal TSV, without the comment lines."""
    with open(path, encoding="utf-8") as fh:
        return [ln.rstrip("\n").split("\t") for ln in fh
                if ln.strip() and not ln.startswith("#")]


def _table(path: Path) -> list[dict[str, str]]:
    header, *rows = _rows(path)
    return [dict(zip(header, row)) for row in rows]


def input_digest(data: Path) -> str:
    """sha256 over the generated arrays: expression, embeddings, coordinates.

    Numeric columns are hashed as float64 values, so the digest pins the
    numbers and ids, not the text formatting of the files.
    """
    h = hashlib.sha256()
    for kind in ("expr", "emb", "coords"):
        for path in sorted(data.glob(f"*_{kind}.tsv")):
            h.update(f"{kind}:{path.name}\n".encode())
            for column in zip(*_rows(path)):
                h.update(column[0].encode() + b"\n")
                try:
                    h.update(np.array(column[1:], dtype=np.float64).tobytes())
                except ValueError:
                    h.update("\t".join(column[1:]).encode())
    return h.hexdigest()


def environment() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), **PINNED_ENV}


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setups: list[float], reps: list[dict]) -> dict:
    quality = reps[0]["metrics"] or {}
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "pipeline_s": _metric(statistics.median(
            r["seconds"] for r in reps), "s"),
        "peak_rss_mb": _metric(statistics.median(
            r["peak_mb"] for r in reps), "MB"),
        "test_mse": _metric(quality.get("mse"), "mse"),
    }


def merge_traces(trace_dir: Path) -> dict:
    spans: dict[str, list] = {}
    counts: dict[str, float] = {}
    missing: set[str] = set()
    rss_slopes = []
    for path in sorted(trace_dir.glob("*.json")):
        t = json.loads(path.read_text())
        for name, rec in t["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += rec[i]
        for key, n in t["counts"].items():
            counts[key] = counts.get(key, 0) + n
        missing.update(t["missing"])
        rss = t["stage2_rss_mb"]
        if len(rss) >= 2:
            rss_slopes.append((rss[-1] - rss[0]) / (len(rss) - 1))
    return {"spans": spans, "counts": counts, "missing": missing,
            "rss_mb_per_step": max(rss_slopes, default=0.0)}


def per_layer(trace: dict, plain: dict, quality: dict | None,
              overhead: float, graphs_needed: int) -> dict:
    spans, counts, missing = trace["spans"], trace["counts"], trace["missing"]

    def when(layers, value_fn):
        if missing.intersection(layers):
            return None
        return value_fn()

    def secs(layer, name=None):
        return when([layer], lambda: spans.get(name or layer,
                                               [0, 0.0, 0.0])[1])

    def calls(layer):
        return when([layer], lambda: spans.get(layer, [0, 0.0, 0.0])[0])

    def count(key, *layers):
        return when(layers, lambda: counts.get(key, 0))

    out = {}
    for name in CLI_STEPS:
        sec, rss = plain.get(name, (0.0, 0.0))
        out[f"cli.{name}_s"] = _metric(sec, "s")
        out[f"cli.{name}_rss_mb"] = _metric(rss, "MB")
    built = calls("graphs.khop")
    stage2_s = secs("train.stage2")
    stage2_steps = count("train.stage2_steps", "train.adam", "train.stage2")
    layer_values = [
        ("graphs.khop_s", secs("graphs.khop"), "s"),
        ("graphs.assemble_s", secs("graphs.assemble"), "s"),
        ("graphs.built", built, "count"),
        ("graphs.nodes", count("graphs.nodes", "graphs.khop"), "count"),
        ("graphs.rebuild_ratio",
         None if built is None else built / graphs_needed
         if graphs_needed else 0.0, "ratio"),
        ("spatial.adjacency_s", secs("spatial.adjacency"), "s"),
        ("spatial.adjacency_calls", calls("spatial.adjacency"), "count"),
        ("spatial.morans_s", secs("spatial.morans"), "s"),
        ("nn.forward_s", secs("nn.forward"), "s"),
        ("nn.backward_s", secs("nn.backward"), "s"),
        ("nn.linear_s", secs("nn.linear"), "s"),
        ("nn.conv_s", secs("nn.conv"), "s"),
        ("nn.readout_s", secs("nn.readout"), "s"),
        ("nn.propmat_s", secs("nn.propmat"), "s"),
        ("nn.batch_s", secs("nn.batch"), "s"),
        ("nn.nodes_forwarded", count("nn.nodes_forwarded", "nn.forward"),
         "count"),
        ("train.stage1_s", secs("train.stage1"), "s"),
        ("train.stage1_steps",
         count("train.stage1_steps", "train.adam", "train.stage1"), "count"),
        ("train.stage2_s", stage2_s, "s"),
        ("train.stage2_steps", stage2_steps, "count"),
        ("train.stage2_steps_per_s",
         None if None in (stage2_s, stage2_steps) else
         stage2_steps / stage2_s if stage2_s else 0.0, "1/s"),
        ("train.val_s", secs("train.predict", "train.val"), "s"),
        ("train.adam_s", secs("train.adam"), "s"),
        ("train.rss_mb_per_step",
         when(["train.adam", "train.stage2"],
              lambda: trace["rss_mb_per_step"]), "MB/step"),
        ("denoise.rings_s", secs("denoise.rings"), "s"),
        ("denoise.impute_s", secs("denoise.impute"), "s"),
        ("denoise.cells_imputed",
         count("denoise.cells_imputed", "denoise.slide"), "count"),
        ("denoise.cells_fallback",
         count("denoise.cells_fallback", "denoise.slide"), "count"),
        ("ingest.read_s", secs("ingest.read"), "s"),
        ("ingest.write_s", secs("ingest.write"), "s"),
        ("ingest.read_mb", when(["ingest.read"], lambda: counts.get(
            "ingest.read_bytes", 0) / 2**20), "MB"),
        ("ingest.write_mb", when(["ingest.write"], lambda: counts.get(
            "ingest.write_bytes", 0) / 2**20), "MB"),
        ("ingest.calls", when(["ingest.read", "ingest.write"], lambda:
                              calls("ingest.read") + calls("ingest.write")),
         "count"),
        ("core.align_s", secs("core.align"), "s"),
        ("core.align_calls", calls("core.align"), "count"),
        ("core.validate_s", secs("core.validate"), "s"),
        ("preprocess.filter_s", secs("preprocess.filter"), "s"),
        ("preprocess.normalize_s", secs("preprocess.normalize"), "s"),
        ("metrics.evaluate_s", secs("metrics.evaluate"), "s"),
        ("metrics.evaluate_calls", calls("metrics.evaluate"), "count"),
        ("metrics.figures_s", secs("metrics.figures"), "s"),
        ("metrics.pcc_gene", (quality or {}).get("pcc_gene"), "pcc"),
        ("synth.generate_s", secs("synth.generate"), "s"),
        ("synth.write_s", secs("synth.write"), "s"),
        ("trace.overhead_ratio", overhead, "ratio"),
    ]
    for name, value, unit in layer_values:
        if value is None:
            print(f"layer metric {name} is missing: a function it wraps is "
                  f"gone or changed shape", file=sys.stderr)
        out[name] = _metric(value, unit)
    return out


def self_time_table(trace: dict) -> str:
    rows = sorted(trace["spans"].items(), key=lambda kv: -kv[1][2])
    lines = [f"{'span':<22}{'calls':>9}{'total_s':>10}{'self_s':>10}"]
    lines += [f"{name:<22}{rec[0]:>9}{rec[1]:>10.3f}{rec[2]:>10.3f}"
              for name, rec in rows]
    return "\n".join(lines)


def measure(bench: Bench, seconds: float) -> tuple[dict, dict]:
    setups = [bench.setup()[0]]
    bench.check_inputs()
    setups += [bench.setup()[0] for _ in range(SETUP_REPS - 1)]
    if any(s.name == "select" for s in bench.w.setup):
        bench.check_selection()
    reps: list[dict] = []
    t0 = perf_counter()
    while True:
        rep = bench.sequence()
        if rep is None:
            break
        bench.check_rep(rep, reps[0] if reps else None)
        reps.append(rep)
        elapsed = perf_counter() - t0
        if len(reps) >= MIN_REPS and elapsed * (1 + 1 / len(reps)) > seconds:
            break
    if not reps:
        raise SetupFailed("no repetition of the timed commands completed")
    info = {"setup_s_all": setups,
            "pipeline_s_all": [r["seconds"] for r in reps],
            "steps": [r["steps"] for r in reps]}
    return end_to_end(setups, reps), info


def measure_traced(bench: Bench) -> tuple[dict, dict]:
    _, plain_setup = bench.setup()
    bench.check_inputs()
    if any(s.name == "select" for s in bench.w.setup):
        bench.check_selection()
    plain = bench.sequence()
    if plain is None:
        raise SetupFailed("the untraced repetition failed")
    bench.check_rep(plain, None)
    trace_dir = bench.work / "trace"
    trace_dir.mkdir()
    bench.setup(trace_dir)
    traced = bench.sequence(trace_dir)
    if traced is None:
        raise SetupFailed("the traced repetition failed")
    bench.check_rep(traced, plain)
    trace = merge_traces(trace_dir)
    print(self_time_table(trace), file=sys.stderr)
    overhead = traced["seconds"] / plain["seconds"]
    steps = {**plain_setup, **plain["steps"]}
    info = {"pipeline_s_plain": plain["seconds"],
            "pipeline_s_traced": traced["seconds"],
            "self_s": {k: v[2] for k, v in trace["spans"].items()}}
    return per_layer(trace, steps, plain["metrics"], overhead,
                     bench.w.graphs_needed), info


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sepal" / "cli.py").is_file():
        print(f"run: no sepal sources at {SRC}; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    try:
        bench = Bench(workload, args.seed, work)
        print(json.dumps({"workload": workload.name, "seed": args.seed,
                          "env": environment()}))
        if args.trace:
            metrics, info = measure_traced(bench)
        else:
            metrics, info = measure(bench, args.seconds)
    except SetupFailed as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(info))
    checks = bench.checks
    print(json.dumps({"correct": not checks.failures,
                      "attempted": checks.attempted,
                      "failed": len(checks.failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
