import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_synthetic_pipeline_script_runs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # each stage runs in its own process, with a row in the peaks table
    peaks = tmp_path / "stage_peaks.tsv"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_synthetic_pipeline.py"),
         "--out", str(tmp_path), "--rows", "6", "--cols", "6",
         "--d-emb", "8", "--genes", "10", "--smooth", "4", "--select", "6",
         "--stage2-epochs", "3", "--seed", "1", "--peaks", str(peaks)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "run" / "eval" / "metrics.tsv").exists()
    header, *rows = [line.split("\t")
                     for line in peaks.read_text().splitlines()]
    assert header == ["stage", "exit", "wall_s", "peak_mb"]
    assert [r[0] for r in rows] == [
        "synth", "preprocess", "denoise", "select", "build-graphs",
        "train1", "train2", "eval", "figures"]
    for stage, code, wall, peak in rows:
        assert code == "0", stage
        assert float(wall) > 0 and float(peak) > 0, stage
