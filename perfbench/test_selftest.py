"""Desk-size self-test of the benchmark; no timing gates.

    python3 -m pytest perfbench

Every workload's command sequences run on a 10x10 lattice, traced and
untraced, and must pass all output checks and report every metric that
BENCHMARK.json declares.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

import run
import tracer
from workloads import DEFAULT_SEED, WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())
# lattice side per workload; prep-wide needs more spots for select to
# recover all of its 64 planted genes
DESK = {"st-pipeline": 10, "visium-train": 10, "prep-wide": 16}
# seeds without a pinned digest, so the shrunk inputs are accepted
DESK_SEED = 1000
sys.path.insert(0, str(run.SRC))  # for the in-process tracer test


def desk(name: str):
    return dataclasses.replace(WORKLOADS[name], rows=DESK[name],
                               cols=DESK[name])


def names(kind: str) -> set[str]:
    return {m["name"] for m in SPEC[kind]}


def test_benchmark_json_lists_every_workload():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


def test_end_to_end_run(tmp_path):
    bench = run.Bench(desk("st-pipeline"), DESK_SEED, tmp_path)
    metrics, info = run.measure(bench, seconds=0)
    assert bench.checks.failures == []
    assert len(info["pipeline_s_all"]) == run.MIN_REPS
    assert set(metrics) == names("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run(name, tmp_path):
    bench = run.Bench(desk(name), DESK_SEED, tmp_path)
    metrics, info = run.measure_traced(bench)
    assert bench.checks.failures == []
    assert set(metrics) == names("per_layer")
    assert all(m["value"] is not None for m in metrics.values())
    uses_graphs = WORKLOADS[name].needs_graphs
    assert (metrics["graphs.khop_s"]["value"] > 0) == uses_graphs
    assert (metrics["nn.forward_s"]["value"] > 0) == uses_graphs
    if uses_graphs:
        assert metrics["graphs.rebuild_ratio"]["value"] == 2.0


def test_changed_inputs_are_refused(tmp_path, monkeypatch):
    pinned = tmp_path / "digests.json"
    pinned.write_text(json.dumps({"prep-wide": {str(DESK_SEED): "0" * 64}}))
    monkeypatch.setattr(run, "DIGESTS", pinned)
    bench = run.Bench(desk("prep-wide"), DESK_SEED, tmp_path / "work")
    bench.setup()
    with pytest.raises(run.SetupFailed, match="inputs changed"):
        bench.check_inputs()


def test_pinned_default_seed_digests():
    pinned = json.loads(run.DIGESTS.read_text())
    assert all(str(DEFAULT_SEED) in pinned[name] for name in WORKLOADS)


def test_missing_layer_is_reported_not_zero(tmp_path, monkeypatch):
    monkeypatch.setattr(tracer, "LAYERS", {
        "graphs.khop": [("graphs", "no_such_function")]})
    t = tracer.Tracer()
    t.install()
    t.dump(tmp_path / "trace.json")
    merged = run.merge_traces(tmp_path)
    metrics = run.per_layer(merged, {}, {"pcc_gene": 0.5}, 1.0,
                            graphs_needed=1)
    assert metrics["graphs.khop_s"]["value"] is None
    assert metrics["graphs.built"]["value"] is None
    assert metrics["graphs.rebuild_ratio"]["value"] is None
    assert metrics["nn.forward_s"]["value"] == 0.0
