import dataclasses
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sepal import graphs, ingest
from sepal.cli import STAGE2_DEFAULTS, main
from sepal.core import ExpressionMatrix, ImputationMask
from sepal.nn import ModelSpec
from sepal.train import TrainConfig


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny full pipeline run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    out = root / "run"
    assert run("synth", "--out", str(data), "--rows", "6", "--cols", "6",
               "--d-emb", "8", "--genes", "10", "--smooth", "4",
               "--slides", "3", "--zero-fraction", "0.05",
               "--seed", "1") == 0
    manifest = str(data / "manifest.toml")
    base = ("--manifest", manifest, "--out", str(out))
    assert run("preprocess", *base) == 0
    assert run("denoise", *base) == 0
    assert run("select", *base, "--n-genes", "6") == 0
    assert run("build-graphs", *base, "--hops", "1",
               "--aggregation", "concat") == 0
    assert run("train", *base, "--stage", "1") == 0
    assert run("train", *base, "--stage", "2", "--epochs", "4",
               "--patience", "4", "--hidden", "16", "--lr", "0.01") == 0
    assert run("eval", *base) == 0
    assert run("figures", *base) == 0
    return {"data": data, "out": out, "manifest": manifest}


class TestPipelineOutputs:
    def test_layout(self, pipeline):
        out = pipeline["out"]
        for rel in ("preprocess/synth00_log1p.npz",
                    "preprocess/filter_log.tsv",
                    "denoise/synth00_denoised.npz",
                    "denoise/synth00_mask.npz",
                    "denoise/report.tsv",
                    "select/genes.tsv",
                    "select/synth02_selected.npz",
                    "select/synth02_mask.npz",
                    "graphs/summary.tsv",
                    "graphs/meta.tsv",
                    "train/stage1.ckpt",
                    "train/stage1_history.tsv",
                    "train/stage2.ckpt",
                    "train/stage2_history.tsv",
                    "eval/metrics.tsv",
                    "eval/per_gene.tsv",
                    "eval/per_patch.tsv",
                    "eval/per_slide.tsv",
                    "eval/synth02_per_gene.tsv",
                    "eval/predictions/synth02_pred.npz",
                    "figures/pcc_hist.csv"):
            assert (out / rel).exists(), rel

    def test_no_text_matrices_between_stages(self, pipeline):
        # matrices, masks and predictions are archives; only the reports
        # and lockfiles of these directories are TSV tables
        out = pipeline["out"]
        tables = {"preprocess": {"filter_log.tsv", "config.tsv"},
                  "denoise": {"report.tsv", "config.tsv"},
                  "select": {"genes.tsv", "config.tsv"},
                  "eval/predictions": set()}
        for stage, want in tables.items():
            files = [p for p in (out / stage).iterdir() if p.is_file()]
            assert {p.name for p in files if p.suffix == ".tsv"} == want
            assert {p.suffix for p in files} <= {".tsv", ".npz"}

    def test_every_stage_writes_a_lockfile(self, pipeline):
        out = pipeline["out"]
        for rel in ("preprocess/config.tsv", "denoise/config.tsv",
                    "select/config.tsv", "graphs/config.tsv",
                    "train/stage1_config.tsv", "train/stage2_config.tsv",
                    "eval/config.tsv", "figures/config.tsv"):
            comments, header, rows = ingest.read_table(out / rel)
            assert comments["kind"] == "config"
            keys = {r[0] for r in rows}
            assert {"command", "version"} <= keys

    def test_selected_panel_size(self, pipeline):
        m = ingest.read_matrix(
            pipeline["out"] / "select" / "synth00_selected.npz", "denoised",
            "select")
        assert len(m.gene_ids) == 6
        assert m.stage == "denoised"

    def test_graphs_meta(self, pipeline):
        _, _, rows = ingest.read_table(
            pipeline["out"] / "graphs" / "meta.tsv")
        meta = {r[0]: r[1] for r in rows}
        assert meta["hops"] == "1"
        assert meta["aggregation"] == "concat"
        assert meta["feature_width"] == "16"

    def test_stage2_starts_at_stage1_val(self, pipeline):
        out = pipeline["out"]
        _, _, h1 = ingest.read_table(out / "train" / "stage1_history.tsv")
        _, _, h2 = ingest.read_table(out / "train" / "stage2_history.tsv")
        best_stage1 = min(float(r[2]) for r in h1 if r[2])
        initial_stage2 = float(h2[0][2])
        assert initial_stage2 == best_stage1

    def test_metrics_table_is_complete(self, pipeline):
        _, _, rows = ingest.read_table(
            pipeline["out"] / "eval" / "metrics.tsv")
        metrics = {r[0] for r in rows}
        assert {"mse", "mae", "pcc_gene", "pcc_patch", "r2_gene",
                "r2_patch", "n_excluded_genes", "n_excluded_patches",
                "n_masked"} <= metrics

    def test_denoise_report_pools_the_slides(self, pipeline):
        _, _, rows = ingest.read_table(
            pipeline["out"] / "denoise" / "report.tsv")
        *slides, pooled = rows
        assert [r[0] for r in slides] == ["synth00", "synth01", "synth02"]
        assert pooled[0] == "*"
        for c in (1, 2, 3, 4, 6):
            assert int(pooled[c]) == sum(int(r[c]) for r in slides)
        assert float(pooled[5]) == int(pooled[3]) / int(pooled[1])

    def test_mask_cells_imputed_by_denoiser(self, pipeline):
        mask = ingest.read_mask(
            pipeline["out"] / "denoise" / "synth00_mask.npz", "denoise")
        assert mask.values.any()

    def test_rerun_is_idempotent(self, pipeline):
        out = pipeline["out"]
        target = out / "select" / "genes.tsv"
        before = target.read_bytes()
        assert run("select", "--manifest", pipeline["manifest"],
                   "--out", str(out), "--n-genes", "6") == 0
        assert target.read_bytes() == before


class TestExitCodes:
    def test_missing_manifest_is_io_failure(self, tmp_path):
        assert run("preprocess", "--manifest",
                   str(tmp_path / "nope.toml"),
                   "--out", str(tmp_path / "run")) == 2

    def test_bad_flag_is_validation_failure(self, tmp_path):
        assert run("train", "--manifest", "x", "--out", "y",
                   "--stage", "3") == 1

    @pytest.mark.parametrize("flag", [("--noise-sd", "0.2"),
                                      ("--field-amplitude", "0"),
                                      ("--n-select", "4")],
                             ids=lambda f: f[0])
    def test_synth_takes_no_fixed_setting_flag(self, tmp_path, flag):
        # every caller used one noise level, field and panel size
        assert run("synth", "--out", str(tmp_path / "d"), *flag) == 1
        assert not (tmp_path / "d").exists()

    def test_unknown_command(self):
        assert run("frobnicate") == 1

    def test_threads_flag_rejected(self, tmp_path, pipeline):
        assert run("preprocess", "--manifest", pipeline["manifest"],
                   "--out", str(tmp_path / "r"), "--threads", "1") == 1

    def test_stage1_rejects_stage2_flags(self, pipeline, tmp_path, capsys):
        rc = run("train", "--manifest", pipeline["manifest"],
                 "--out", str(tmp_path / "r"), "--stage", "1",
                 "--lr", "0.01")
        assert rc == 1
        assert "--lr" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_eval_rejects_stage2_on_another_head(self, pipeline, tmp_path,
                                                 capsys):
        out = tmp_path / "stale"
        import shutil
        for stage in ("select", "train"):
            shutil.copytree(pipeline["out"] / stage, out / stage)
        ckpt = out / "train" / "stage1.ckpt"
        meta, tensors = ingest.read_checkpoint(ckpt)
        tensors["head.W"] = tensors["head.W"] + 1.0
        ingest.write_checkpoint(ckpt, meta, tensors)
        rc = run("eval", "--manifest", pipeline["manifest"],
                 "--out", str(out))
        assert rc == 1
        assert "train --stage 2" in capsys.readouterr().err
        assert not (out / "eval").exists()

    def test_eval_rejects_stage2_on_another_train_mean(self, pipeline,
                                                       tmp_path, capsys):
        out = tmp_path / "stale"
        copy_stages(pipeline, out, ("select", "train"))
        ckpt = out / "train" / "stage1.ckpt"
        meta, tensors = ingest.read_checkpoint(ckpt)
        tensors["train_mean"] = tensors["train_mean"] + 1.0
        ingest.write_checkpoint(ckpt, meta, tensors)
        rc = run("eval", "--manifest", pipeline["manifest"],
                 "--out", str(out))
        assert rc == 1
        assert "train --stage 2" in capsys.readouterr().err
        assert not (out / "eval").exists()

    def test_eval_rejects_text_checkpoint(self, pipeline, tmp_path, capsys):
        out = tmp_path / "old"
        copy_stages(pipeline, out, ("select", "train"))
        ckpt = out / "train" / "stage1.ckpt"
        ckpt.write_text("SEPALCKPT1\nmeta\tformat_version\t1\n"
                        "meta\tstage\t1\n")
        rc = run("eval", "--manifest", pipeline["manifest"],
                 "--out", str(out))
        assert rc == 1
        err = capsys.readouterr().err
        assert str(ckpt) in err and "sepal train" in err
        assert not (out / "eval").exists()

    def test_untagged_matrix_is_refused(self, pipeline, tmp_path, capsys):
        out = tmp_path / "untagged"
        copy_stages(pipeline, out, ("denoise",))
        for path in (out / "denoise").glob("*_denoised.npz"):
            meta, arrays = ingest.read_checkpoint(path)
            del meta["stage"]
            ingest.write_checkpoint(path, meta, arrays)
        rc = run("select", "--manifest", pipeline["manifest"],
                 "--out", str(out))
        assert rc == 1
        assert "sepal denoise" in capsys.readouterr().err
        assert not (out / "select").exists()

    def test_broken_manifest_names_file(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.toml"
        manifest.write_text('name = "unterminated\n')
        rc = run("preprocess", "--manifest", str(manifest),
                 "--out", str(tmp_path / "run"))
        assert rc == 1
        assert f"error: {manifest}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_auto_radius_manifest_names_the_lattices(self, pipeline,
                                                     tmp_path, capsys):
        import shutil
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        manifest = data / "manifest.toml"
        text = manifest.read_text()
        manifest.write_text(text.replace('geometry = "square_grid"',
                                         'geometry = "auto_radius"'))
        for command in ("preprocess", "denoise", "figures"):
            assert run(command, "--manifest", str(manifest),
                       "--out", str(tmp_path / "run")) == 1
            err = capsys.readouterr().err
            assert "'auto_radius'" in err
            assert "hex_array or square_grid" in err

    def test_non_utf8_dataset_file(self, pipeline, tmp_path, capsys):
        import shutil
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        manifest = data / "manifest.toml"
        emb = Path(ingest.read_manifest(manifest).slides[0].emb_path)
        emb.write_bytes(b"#note=\xff\n" + emb.read_bytes())
        rc = run("preprocess", "--manifest", str(manifest),
                 "--out", str(tmp_path / "run"))
        assert rc == 1
        assert f"error: {emb}: " in capsys.readouterr().err

    def test_text_era_run_directory_names_select(self, pipeline, tmp_path,
                                                 capsys):
        # select once wrote its matrices as TSV tables, never as archives
        out = tmp_path / "old"
        for path in (pipeline["out"] / "select").glob("*_selected.npz"):
            m = ingest.read_matrix(path, "denoised", "select")
            ingest.write_expression(
                out / "select" / f"{m.slide_id}_selected.tsv", m)
        assert len(list((out / "select").glob("*_selected.tsv"))) == 3
        rc = run("train", "--manifest", pipeline["manifest"],
                 "--out", str(out), "--stage", "1")
        assert rc == 1
        assert "sepal select" in capsys.readouterr().err
        assert not (out / "train").exists()

    @pytest.mark.parametrize("keep", [0.0, 0.1, 0.5, 0.99])
    def test_truncated_archive_names_file_and_producer(self, pipeline,
                                                       tmp_path, capsys,
                                                       keep):
        for name in ("denoise/synth01_denoised.npz",
                     "preprocess/synth01_spots.npz"):
            out = tmp_path / name.split("/")[0]
            copy_stages(pipeline, out, ("denoise",))
            path = out / name
            data = path.read_bytes()
            path.write_bytes(data[:int(len(data) * keep)])
            rc = run("select", "--manifest", pipeline["manifest"],
                     "--out", str(out))
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path} ")
            assert f"sepal {name.split('/')[0]}" in err
            assert not (out / "select").exists()

    def test_spots_archive_without_vectors_names_preprocess(
            self, pipeline, tmp_path, capsys):
        out = tmp_path / "novectors"
        copy_stages(pipeline, out, ("select", "train"))
        path = out / "preprocess" / "synth02_spots.npz"
        meta, arrays = ingest.read_checkpoint(path)
        del arrays["vectors"]
        ingest.write_checkpoint(path, meta, arrays)
        rc = run("eval", "--manifest", pipeline["manifest"],
                 "--out", str(out))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} is not a spots archive")
        assert "sepal preprocess" in err
        assert not (out / "eval").exists()

    @pytest.mark.parametrize("line", ["#slide=synth00\n", ""],
                             ids=["another", "none"])
    def test_per_gene_table_of_another_slide_names_eval(
            self, pipeline, tmp_path, capsys, line):
        out = tmp_path / "swapped"
        copy_stages(pipeline, out, ("select", "eval", "figures"))
        path = out / "eval" / "synth02_per_gene.tsv"
        text = path.read_text()
        assert "#slide=synth02\n" in text
        path.write_text(text.replace("#slide=synth02\n", line))

        def figures():
            return {p: p.read_bytes() for p in (out / "figures").rglob("*")
                    if p.is_file()}

        before = figures()
        rc = run("figures", "--manifest", pipeline["manifest"],
                 "--out", str(out))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} ") and "sepal eval" in err
        assert figures() == before

    def test_mask_where_a_matrix_belongs(self, pipeline, tmp_path, capsys):
        import shutil
        out = tmp_path / "swapped"
        copy_stages(pipeline, out, ("select", "train"))
        path = out / "select" / "synth02_selected.npz"
        shutil.copyfile(out / "select" / "synth02_mask.npz", path)
        rc = run("eval", "--manifest", pipeline["manifest"],
                 "--out", str(out))
        assert rc == 1
        assert f"error: {path} is not a matrix archive" in (
            capsys.readouterr().err)
        assert not (out / "eval").exists()

    def test_select_missing_mask_leaves_select_unchanged(self, pipeline,
                                                         tmp_path, capsys):
        out = tmp_path / "nomask"
        copy_stages(pipeline, out, ("denoise",))
        (out / "denoise" / "synth01_mask.npz").unlink()
        rc = run("select", "--manifest", pipeline["manifest"],
                 "--out", str(out))
        assert rc == 1
        assert "sepal denoise" in capsys.readouterr().err
        assert not (out / "select").exists()

    @pytest.mark.parametrize("command,inputs,name", [
        ("denoise", ("preprocess", "denoise"), "preprocess/synth01_log1p.npz"),
        ("select", ("denoise", "select"), "denoise/synth01_denoised.npz"),
        ("select", ("denoise", "select"), "denoise/synth01_mask.npz"),
        ("eval", ("select", "train", "eval"), "select/synth02_selected.npz"),
        ("eval", ("select", "train", "eval"), "select/synth02_mask.npz"),
        ("figures", ("select", "eval", "figures"),
         "eval/predictions/synth02_pred.npz"),
        ("denoise", ("preprocess", "denoise"), "preprocess/synth01_spots.npz"),
        ("train --stage 1", ("select", "train"),
         "preprocess/synth01_spots.npz"),
        ("eval", ("select", "train", "eval"), "preprocess/synth02_spots.npz"),
    ], ids=["log1p", "denoised", "denoise-mask", "selected", "select-mask",
            "pred", "spots-denoise", "spots-train1", "spots-eval"])
    def test_archive_of_another_slide_names_file_and_producer(
            self, pipeline, tmp_path, capsys, command, inputs, name):
        import shutil
        out = tmp_path / "swapped"
        copy_stages(pipeline, out, inputs)
        path = out / name
        source = path.with_name("synth00_" + path.name.split("_", 1)[1])
        if source.exists():
            shutil.copyfile(source, path)
        else:
            # synth00 is no test slide and has no prediction: relabel
            meta, arrays = ingest.read_checkpoint(path)
            ingest.write_checkpoint(path, {**meta, "slide": "synth00"},
                                    arrays)
        stage_dir = out / inputs[-1]
        before = {p: p.read_bytes() for p in stage_dir.rglob("*")
                  if p.is_file()}
        rc = run(*command.split(), "--manifest", pipeline["manifest"],
                 "--out", str(out))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} ")
        assert f"sepal {name.split('/')[0]}" in err
        assert {p: p.read_bytes() for p in stage_dir.rglob("*")
                if p.is_file()} == before

    @pytest.mark.parametrize("key,value", [
        ("seed", "x"), ("in_width", "1.5"), ("hops", "two"), ("hops", "0"),
        ("aggregation", "mean")])
    def test_bad_stage2_meta_names_checkpoint(self, pipeline, tmp_path,
                                              capsys, key, value):
        out = tmp_path / "meta"
        copy_stages(pipeline, out, ("select", "train"))
        ckpt = out / "train" / "stage2.ckpt"
        meta, arrays = ingest.read_checkpoint(ckpt)
        ingest.write_checkpoint(ckpt, {**meta, key: value}, arrays)
        rc = run("eval", "--manifest", pipeline["manifest"],
                 "--out", str(out))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: ") and "sepal train" in err
        assert not (out / "eval").exists()

    def test_denoise_failing_on_a_later_slide_changes_nothing(
            self, pipeline, tmp_path, capsys):
        # centring would rewrite the first two slides' outputs, had they
        # gone to denoise/ as each was done
        out = tmp_path / "cut"
        copy_stages(pipeline, out, ("preprocess", "denoise"))
        before = {p.name: p.read_bytes() for p in (out / "denoise").iterdir()}
        path = out / "preprocess" / "synth02_log1p.npz"
        path.write_bytes(path.read_bytes()[:200])
        rc = run("denoise", "--manifest", pipeline["manifest"],
                 "--out", str(out), "--center-slides")
        assert rc == 1
        assert "sepal preprocess" in capsys.readouterr().err
        assert {p.name: p.read_bytes()
                for p in (out / "denoise").iterdir()} == before
        assert sorted(p.name for p in out.iterdir()) == [
            "denoise", "preprocess"]

    @staticmethod
    def _fail_second_matrix_write(monkeypatch):
        """Make the second write_matrix run out of disk space."""
        calls = []

        def failing(path, matrix, write=ingest.write_matrix):
            calls.append(path)
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, "No space left on device", path)
            write(path, matrix)
        monkeypatch.setattr(ingest, "write_matrix", failing)

    def test_preprocess_failing_on_a_later_write_changes_nothing(
            self, pipeline, tmp_path, monkeypatch, capsys):
        # a re-run over a re-generated dataset would rewrite the first
        # slide's output beside the old run's others
        out, data = tmp_path / "cut", tmp_path / "data"
        copy_stages(pipeline, out, ("preprocess",))
        before = {p.name: p.read_bytes()
                  for p in (out / "preprocess").iterdir()}
        assert run("synth", "--out", str(data), "--rows", "6", "--cols",
                   "6", "--d-emb", "8", "--genes", "10", "--smooth", "4",
                   "--slides", "3", "--seed", "2") == 0
        self._fail_second_matrix_write(monkeypatch)
        rc = run("preprocess", "--manifest", str(data / "manifest.toml"),
                 "--out", str(out))
        assert rc == 2
        assert "No space left on device" in capsys.readouterr().err
        assert {p.name: p.read_bytes()
                for p in (out / "preprocess").iterdir()} == before
        assert sorted(p.name for p in out.iterdir()) == ["preprocess"]

    def test_select_failing_on_a_later_write_changes_nothing(
            self, pipeline, tmp_path, monkeypatch, capsys):
        # another panel size would rewrite the first slide's outputs
        out = tmp_path / "cut"
        copy_stages(pipeline, out, ("denoise", "select"))
        before = {p.name: p.read_bytes() for p in (out / "select").iterdir()}
        self._fail_second_matrix_write(monkeypatch)
        rc = run("select", "--manifest", pipeline["manifest"],
                 "--out", str(out), "--n-genes", "5")
        assert rc == 2
        assert "No space left on device" in capsys.readouterr().err
        assert {p.name: p.read_bytes()
                for p in (out / "select").iterdir()} == before
        assert sorted(p.name for p in out.iterdir()) == [
            "denoise", "preprocess", "select"]

    @pytest.mark.parametrize("command", ["preprocess", "denoise", "select"])
    def test_rerun_on_fewer_slides_leaves_no_stale_file(
            self, pipeline, tmp_path, command):
        # the pipeline ran on three slides: none of the third slide's
        # outputs may stay beside a two-slide run's
        stages = ("preprocess", "denoise", "select")
        out, fresh, data = (tmp_path / "rerun", tmp_path / "fresh",
                            tmp_path / "data")
        copy_stages(pipeline, out, stages)
        assert run("synth", "--out", str(data), "--rows", "6", "--cols", "6",
                   "--d-emb", "8", "--genes", "10", "--smooth", "4",
                   "--slides", "2", "--zero-fraction", "0.05",
                   "--seed", "1") == 0
        for target in (out, fresh):
            for stage in stages[:stages.index(command) + 1]:
                assert run(stage, "--manifest", str(data / "manifest.toml"),
                           "--out", str(target)) == 0
        assert sorted(p.name for p in (out / command).iterdir()) == sorted(
            p.name for p in (fresh / command).iterdir())
        assert sorted(p.name for p in out.iterdir()) == sorted(stages)

    @pytest.mark.parametrize("command", ["eval", "figures"])
    def test_rerun_on_fewer_test_slides_leaves_no_stale_file(
            self, tmp_path, command):
        # four slides hold two test slides, synth02 and synth03: none of
        # synth03's outputs may stay beside a three-slide run's
        stages = ("preprocess", "denoise", "select", "train", "eval",
                  "figures")
        stages = stages[:stages.index(command) + 1]
        out, fresh = tmp_path / "rerun", tmp_path / "fresh"
        for slides, targets in ((4, (out,)), (3, (out, fresh))):
            data = tmp_path / f"data{slides}"
            assert run("synth", "--out", str(data), "--rows", "6", "--cols",
                       "6", "--d-emb", "8", "--genes", "10", "--smooth", "4",
                       "--slides", str(slides), "--zero-fraction", "0.05",
                       "--seed", "1") == 0
            for target in targets:
                for stage in stages:
                    assert run(stage, "--manifest",
                               str(data / "manifest.toml"), "--out",
                               str(target),
                               *(("--stage", "1") if stage == "train"
                                 else ())) == 0
        assert sorted(p.relative_to(out) for p in (out / command).rglob("*")
                      ) == sorted(p.relative_to(fresh)
                                  for p in (fresh / command).rglob("*"))

    def test_figures_reads_every_slide_before_writing(self, pipeline,
                                                      tmp_path, capsys):
        out = tmp_path / "nopred"
        copy_stages(pipeline, out, ("select", "eval"))
        (out / "eval" / "predictions" / "synth02_pred.npz").unlink()
        rc = run("figures", "--manifest", pipeline["manifest"],
                 "--out", str(out))
        assert rc == 1
        assert "sepal eval" in capsys.readouterr().err
        assert not (out / "figures").exists()

    def test_model_on_another_gene_panel(self, pipeline, tmp_path, capsys):
        out = tmp_path / "repanel"
        copy_stages(pipeline, out, ("denoise", "select", "graphs", "train"))
        base = ("--manifest", pipeline["manifest"], "--out", str(out))
        assert run("select", *base, "--n-genes", "5") == 0
        capsys.readouterr()
        for argv in (("train", "--stage", "2", "--epochs", "1"), ("eval",)):
            assert run(argv[0], *base, *argv[1:]) == 1
            assert "checkpoint gene panel does not match select outputs" \
                in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [
        [("aggregation", "concat"), ("feature_width", "16")],
        [("aggregation", "concat"), ("hops", "zero")],
        [("aggregation", "mean"), ("hops", "1")],
        [("aggregation", "concat"), ("hops", "0")],
    ], ids=["no-hops", "hops-zero", "aggregation-mean", "hops-0"])
    def test_bad_graphs_meta_names_build_graphs(self, pipeline, tmp_path,
                                                capsys, rows):
        out = tmp_path / "meta"
        copy_stages(pipeline, out, ("select", "graphs", "train"))
        path = out / "graphs" / "meta.tsv"
        ingest.write_table(path, "graphs_meta", ("key", "value"), rows)
        rc = run("train", "--manifest", pipeline["manifest"],
                 "--out", str(out), "--stage", "2", "--epochs", "1")
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} ")
        assert "sepal build-graphs" in err

    @pytest.mark.parametrize("key", ["train_mean", "head.b"])
    def test_short_model_array_names_checkpoint(self, pipeline, tmp_path,
                                                capsys, key):
        out = tmp_path / "short"
        copy_stages(pipeline, out, ("select", "graphs", "train"))
        # without stage2.ckpt, eval predicts from the stage-1 model alone
        (out / "train" / "stage2.ckpt").unlink()
        ckpt = out / "train" / "stage1.ckpt"
        meta, tensors = ingest.read_checkpoint(ckpt)
        tensors[key] = tensors[key][:-1]
        ingest.write_checkpoint(ckpt, meta, tensors)
        base = ("--manifest", pipeline["manifest"], "--out", str(out))
        for argv in (("eval",), ("train", "--stage", "2", "--epochs", "1")):
            assert run(argv[0], *base, *argv[1:]) == 1
            err = capsys.readouterr().err
            assert f"error: {ckpt}: " in err and "sepal train" in err
        assert not (out / "eval").exists()

    def test_head_on_other_embedding_width_names_checkpoint(
            self, pipeline, tmp_path, capsys):
        out = tmp_path / "narrow"
        copy_stages(pipeline, out, ("select", "graphs", "train"))
        (out / "train" / "stage2.ckpt").unlink()
        ckpt = out / "train" / "stage1.ckpt"
        meta, tensors = ingest.read_checkpoint(ckpt)
        tensors["head.W"] = tensors["head.W"][:, :-1]
        ingest.write_checkpoint(ckpt, meta, tensors)
        base = ("--manifest", pipeline["manifest"], "--out", str(out))
        for argv in (("eval",), ("train", "--stage", "2", "--epochs", "1")):
            assert run(argv[0], *base, *argv[1:]) == 1
            err = capsys.readouterr().err
            assert f"error: {ckpt}: " in err and "sepal train" in err
            assert "7 embedding columns" in err
        assert not (out / "eval").exists()
        assert not (out / "train" / "stage2.ckpt").exists()

    def test_stage1_refuses_val_slide_on_another_panel(self, pipeline,
                                                       tmp_path, capsys):
        out = tmp_path / "repanel"
        copy_stages(pipeline, out, ("select",))
        path = out / "select" / "synth01_selected.npz"  # the val slide
        m = ingest.read_matrix(path, "denoised", "select")
        ingest.write_matrix(path, m.subset_genes(m.gene_ids[::-1]))
        rc = run("train", "--manifest", pipeline["manifest"],
                 "--out", str(out), "--stage", "1")
        assert rc == 1
        assert "'synth01'" in capsys.readouterr().err
        assert not (out / "train").exists()

    def test_preprocess_refuses_mixed_input_stages(self, pipeline, tmp_path,
                                                   capsys):
        import shutil
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        manifest = data / "manifest.toml"
        # a log1p dataset whose second slide holds raw counts
        path = Path(ingest.read_manifest(manifest).slides[1].expr_path)
        m = ingest.read_expression(path)
        assert m.stage == "log1p"
        ingest.write_expression(path, ExpressionMatrix(
            m.slide_id, m.gene_ids, m.spot_ids, np.rint(10 * m.values),
            "raw_counts"))
        rc = run("preprocess", "--manifest", str(manifest),
                 "--out", str(tmp_path / "run"))
        assert rc == 1
        assert "'synth01'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_unknown_stage_tag_names_the_file(self, pipeline, tmp_path,
                                              capsys):
        import shutil
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        path = data / "synth01_expr.tsv"
        path.write_text(path.read_text().replace("#stage=log1p",
                                                 "#stage=tpm"))
        rc = run("preprocess", "--manifest", str(data / "manifest.toml"),
                 "--out", str(tmp_path / "run"))
        assert rc == 1
        err = capsys.readouterr().err
        assert "synth01_expr.tsv" in err and "raw_counts" in err
        assert not (tmp_path / "run").exists()

    def test_denoised_dataset_names_the_slide_and_file(self, pipeline,
                                                       tmp_path, capsys):
        import shutil
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        for path in data.glob("*_expr.tsv"):
            path.write_text(path.read_text().replace("#stage=log1p",
                                                     "#stage=denoised"))
        rc = run("preprocess", "--manifest", str(data / "manifest.toml"),
                 "--out", str(tmp_path / "run"))
        assert rc == 1
        err = capsys.readouterr().err
        assert "synth00_expr.tsv" in err and "'synth00'" in err
        assert "denoised" in err and "raw_counts or log1p" in err
        assert not (tmp_path / "run").exists()

    def test_select_names_the_first_slide_and_denoise(self, pipeline,
                                                       tmp_path, capsys):
        out = tmp_path / "repanel"
        copy_stages(pipeline, out, ("denoise",))
        path = out / "denoise" / "synth01_denoised.npz"
        m = ingest.read_matrix(path, "denoised", "denoise")
        ingest.write_matrix(path, m.subset_genes(m.gene_ids[::-1]))
        rc = run("select", "--manifest", pipeline["manifest"],
                 "--out", str(out), "--n-genes", "6")
        assert rc == 1
        err = capsys.readouterr().err
        assert "'synth01'" in err and "'synth00'" in err
        assert "sepal denoise" in err
        assert not (out / "select").exists()

    def test_eval_refuses_reordered_mask(self, pipeline, tmp_path, capsys):
        out = tmp_path / "reordered"
        copy_stages(pipeline, out, ("select", "train"))
        path = out / "select" / "synth02_mask.npz"
        mask = ingest.read_mask(path, "select")
        ingest.write_mask(path, ImputationMask(
            mask.slide_id, mask.gene_ids, mask.spot_ids[::-1],
            mask.values[::-1]))
        rc = run("eval", "--manifest", pipeline["manifest"],
                 "--out", str(out))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} ") and "sepal select" in err
        assert not (out / "eval").exists()

    @pytest.mark.parametrize("command,inputs,names", [
        ("select", ("denoise",),
         ("denoise/synth01_denoised.npz", "denoise/synth01_mask.npz")),
        ("figures", ("select", "eval"),
         ("select/synth02_selected.npz", "select/synth02_mask.npz",
          "eval/predictions/synth02_pred.npz")),
        ("build-graphs", ("select",), ("select/synth01_selected.npz",)),
        ("train --stage 2", ("select", "graphs", "train"),
         ("select/synth01_selected.npz",)),
        ("eval", ("select", "train"),
         ("select/synth02_selected.npz", "select/synth02_mask.npz")),
    ])
    def test_rows_out_of_canonical_order_name_preprocess(
            self, pipeline, tmp_path, capsys, command, inputs, names):
        # matrix, mask and predictions agree with each other, in reverse
        # spot order: only the coordinates can tell
        out = tmp_path / "reversed"
        copy_stages(pipeline, out, inputs)
        for name in names:
            path, producer = out / name, name.split("/")[0]
            if name.endswith("_mask.npz"):
                mask = ingest.read_mask(path, producer)
                ingest.write_mask(path, ImputationMask(
                    mask.slide_id, mask.gene_ids, mask.spot_ids[::-1],
                    mask.values[::-1]))
            else:
                m = ingest.read_matrix(path, "denoised", producer)
                ingest.write_matrix(path, ExpressionMatrix(
                    m.slide_id, m.gene_ids, m.spot_ids[::-1],
                    m.values[::-1], m.stage))

        def files():
            return {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}

        before = files()
        rc = run(*command.split(), "--manifest", pipeline["manifest"],
                 "--out", str(out))
        assert rc == 1
        err = capsys.readouterr().err
        assert "canonical spot order" in err and "sepal preprocess" in err
        assert files() == before

    def test_select_before_denoise(self, pipeline, tmp_path, capsys):
        rc = run("select", "--manifest", pipeline["manifest"],
                 "--out", str(tmp_path / "fresh"))
        assert rc == 1
        assert "sepal denoise" in capsys.readouterr().err

    def test_select_on_raw_counts_input(self, pipeline, tmp_path, capsys):
        # a counts-stage file sitting where the denoiser output belongs;
        # masks and a wide enough panel are there too, so only the stage
        # tag can fail
        out = tmp_path / "bad"
        den = out / "denoise"
        den.mkdir(parents=True)
        rng = np.random.default_rng(0)
        from sepal.core import ExpressionMatrix, ImputationMask
        genes = tuple(f"g{i}" for i in range(12))
        spot_ids = tuple(f"spot_r{r}_c{c}" for r in range(6)
                         for c in range(6))
        for entry_id in ("synth00", "synth01", "synth02"):
            m = ExpressionMatrix(
                entry_id, genes, spot_ids,
                rng.integers(0, 5, size=(36, 12)).astype(float),
                "raw_counts")
            ingest.write_matrix(den / f"{entry_id}_denoised.npz", m)
            ingest.write_mask(den / f"{entry_id}_mask.npz", ImputationMask(
                entry_id, genes, spot_ids, np.zeros((36, 12), dtype=bool)))
        assert run("select", "--manifest", pipeline["manifest"],
                   "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "stage tag 'raw_counts'" in err and "sepal denoise" in err

    def test_stage2_without_stage1(self, pipeline, tmp_path, capsys):
        out = pipeline["out"]
        fresh = tmp_path / "no_stage1"
        # reuse select and graphs outputs, but no train directory
        import shutil
        for stage in ("preprocess", "denoise", "select", "graphs"):
            shutil.copytree(out / stage, fresh / stage)
        rc = run("train", "--manifest", pipeline["manifest"],
                 "--out", str(fresh), "--stage", "2")
        assert rc == 1
        assert "train --stage 1" in capsys.readouterr().err

    def test_slide_id_that_leaves_its_directory(self, pipeline, tmp_path,
                                                capsys):
        import shutil
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        manifest = data / "manifest.toml"
        manifest.write_text(manifest.read_text().replace(
            "[slide.synth00]", '[slide."../../up"]'))
        # every file of the slide agrees with its manifest key
        for name in ("coords", "expr", "emb"):
            path = data / f"synth00_{name}.tsv"
            path.write_text(path.read_text().replace(
                "#slide=synth00\n", "#slide=../../up\n").replace(
                "\tsynth00\t", "\t../../up\t"))
        out = tmp_path / "a" / "run"
        rc = run("preprocess", "--manifest", str(manifest), "--out", str(out))
        assert rc == 1
        assert f"error: {manifest}: slide id '../../up'" in (
            capsys.readouterr().err)
        assert not list(tmp_path.rglob("up_log1p*"))

    def test_gene_id_that_leaves_its_directory(self, pipeline, tmp_path,
                                               capsys):
        import shutil
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        path = data / "synth02_expr.tsv"
        lines = path.read_text().splitlines(keepends=True)
        header = next(k for k, ln in enumerate(lines)
                      if ln.startswith("spot_id\t"))
        cells = lines[header].split("\t")
        cells[1] = "../../../escaped"
        lines[header] = "\t".join(cells)
        path.write_text("".join(lines))
        rc = run("preprocess", "--manifest", str(data / "manifest.toml"),
                 "--out", str(tmp_path / "run"))
        assert rc == 1
        assert f"error: {path}: gene id '../../../escaped'" in (
            capsys.readouterr().err)
        assert not (tmp_path / "run").exists()

    def test_stage2_without_graph_layers(self, pipeline, tmp_path, capsys):
        out = tmp_path / "r"
        copy_stages(pipeline, out, ("select", "graphs", "train"))
        (out / "train" / "stage2.ckpt").unlink()
        rc = run("train", "--manifest", pipeline["manifest"],
                 "--out", str(out), "--stage", "2", "--hidden", "none")
        assert rc == 1
        assert "--hidden" in capsys.readouterr().err
        assert not (out / "train" / "stage2.ckpt").exists()

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_stage2_refuses_non_finite_lr(self, pipeline, tmp_path, capsys,
                                          lr):
        out = tmp_path / "r"
        copy_stages(pipeline, out, ("select", "graphs", "train"))
        (out / "train" / "stage2.ckpt").unlink()
        rc = run("train", "--manifest", pipeline["manifest"],
                 "--out", str(out), "--stage", "2", "--lr", lr,
                 "--max-steps", "1")
        assert rc == 1
        assert "learning rate" in capsys.readouterr().err
        assert not (out / "train" / "stage2.ckpt").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--lr", "nan", "learning rate"),
        ("--batch", "0", "batch size"),
        ("--sag-ratio", "1.5", "sag_ratio"),
    ])
    def test_stage2_flags_checked_before_any_graph_is_built(
            self, pipeline, tmp_path, capsys, monkeypatch, flag, value,
            message):
        out = tmp_path / "r"
        copy_stages(pipeline, out, ("select", "graphs", "train"))
        (out / "train" / "stage2.ckpt").unlink()
        builds = []

        def counting(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        build = graphs.build_spot_graphs
        monkeypatch.setattr(graphs, "build_spot_graphs", counting)
        rc = run("train", "--manifest", pipeline["manifest"],
                 "--out", str(out), "--stage", "2", flag, value)
        assert rc == 1
        assert message in capsys.readouterr().err
        assert builds == []
        assert not (out / "train" / "stage2.ckpt").exists()

    def test_sag_ratio_refused_with_global_mean(self, pipeline, tmp_path,
                                                capsys):
        out = tmp_path / "r"
        copy_stages(pipeline, out, ("select", "graphs", "train"))
        (out / "train" / "stage2.ckpt").unlink()
        rc = run("train", "--manifest", pipeline["manifest"],
                 "--out", str(out), "--stage", "2", "--epochs", "1",
                 "--pooling", "global_mean", "--sag-ratio", "0.3")
        assert rc == 1
        err = capsys.readouterr().err
        assert "--sag-ratio" in err and "--pooling global_mean" in err
        assert not (out / "train" / "stage2.ckpt").exists()

    def test_eval_without_test_split(self, tmp_path):
        data = tmp_path / "d"
        out = tmp_path / "r"
        assert run("synth", "--out", str(data), "--rows", "4", "--cols",
                   "4", "--d-emb", "4", "--genes", "4", "--smooth", "0",
                   "--slides", "2", "--seed", "0") == 0
        base = ("--manifest", str(data / "manifest.toml"),
                "--out", str(out))
        assert run("preprocess", *base) == 0
        assert run("denoise", *base) == 0
        assert run("select", *base, "--n-genes", "2") == 0
        assert run("train", *base, "--stage", "1") == 0
        assert run("eval", *base) == 1


class TestFlags:
    def test_stage1_lockfile_records_ridge_strength(self, pipeline):
        _, _, rows = ingest.read_table(
            pipeline["out"] / "train" / "stage1_config.tsv")
        lock = {r[0]: r[1] for r in rows}
        assert float(lock["alpha"]) >= 0.0
        assert float(lock["lambda"]) >= 0.0
        assert "lr" not in lock and "seed" not in lock

    def test_preset_resolves_graph_settings(self, pipeline, tmp_path):
        out = tmp_path / "preset_run"
        import shutil
        for stage in ("preprocess", "denoise", "select"):
            shutil.copytree(pipeline["out"] / stage, out / stage)
        assert run("build-graphs", "--manifest", pipeline["manifest"],
                   "--out", str(out), "--preset", "visium-like") == 0
        _, _, rows = ingest.read_table(out / "graphs" / "meta.tsv")
        meta = {r[0]: r[1] for r in rows}
        assert meta["hops"] == "3"
        assert meta["aggregation"] == "concat"

    def test_flag_overrides_preset(self, pipeline, tmp_path):
        out = tmp_path / "override_run"
        import shutil
        for stage in ("preprocess", "denoise", "select"):
            shutil.copytree(pipeline["out"] / stage, out / stage)
        assert run("build-graphs", "--manifest", pipeline["manifest"],
                   "--out", str(out), "--preset", "visium-like",
                   "--hops", "1") == 0
        _, _, rows = ingest.read_table(out / "graphs" / "meta.tsv")
        meta = {r[0]: r[1] for r in rows}
        assert meta["hops"] == "1"
        assert meta["aggregation"] == "concat"

    def test_stage2_preset_architecture_recorded(self, pipeline, tmp_path):
        out = tmp_path / "arch_run"
        import shutil
        for stage in ("preprocess", "denoise", "select", "graphs",
                      "train"):
            shutil.copytree(pipeline["out"] / stage, out / stage)
        assert run("train", "--manifest", pipeline["manifest"],
                   "--out", str(out), "--stage", "2",
                   "--preset", "stnet-like", "--epochs", "1",
                   "--patience", "1") == 0
        _, _, rows = ingest.read_table(out / "train" / "stage2_config.tsv")
        lock = {r[0]: r[1] for r in rows}
        assert lock["operator"] == "graphconv"
        assert lock["pre_mlp"] == ""
        # last width is always rewritten to the gene-panel size
        assert lock["hidden"] == "6"
        assert lock["post_mlp"] == ""
        assert lock["lr"] == "0.0001"

    @pytest.mark.parametrize("pooling, flags, ratio", [
        ("sag_mean", ("--sag-ratio", "0.25"), "0.25"),
        ("global_mean", (), None)], ids=["sag_mean", "global_mean"])
    def test_sag_ratio_recorded_only_for_sag_mean(self, pipeline, tmp_path,
                                                  pooling, flags, ratio):
        from sepal import train
        out = tmp_path / "r"
        copy_stages(pipeline, out, ("select", "graphs", "train"))
        base = ("--manifest", pipeline["manifest"], "--out", str(out))
        assert run("train", *base, "--stage", "2", "--epochs", "1",
                   "--patience", "1", "--hidden", "16",
                   "--pooling", pooling, *flags) == 0
        _, _, rows = ingest.read_table(out / "train" / "stage2_config.tsv")
        lock = {r[0]: r[1] for r in rows}
        ckpt = out / "train" / "stage2.ckpt"
        meta, _ = ingest.read_checkpoint(ckpt)
        assert lock.get("sag_ratio") == meta.get("sag_ratio") == ratio
        default = {f.name: f.default
                   for f in dataclasses.fields(ModelSpec)}["sag_ratio"]
        spec = train.load_model(ckpt).state.spec
        assert spec.pooling == pooling
        assert spec.sag_ratio == (default if ratio is None else float(ratio))
        assert run("eval", *base) == 0

    def test_stage2_defaults_are_the_field_defaults(self):
        defaults = {f.name: f.default for cls in (ModelSpec, TrainConfig)
                    for f in dataclasses.fields(cls)}
        field = {"pre_mlp": "pre_widths", "hidden": "gnn_widths",
                 "post_mlp": "post_widths", "lr": "learning_rate",
                 "batch": "batch_size", "epochs": "max_epochs"}
        for key, value in STAGE2_DEFAULTS.items():
            assert value == defaults[field.get(key, key)], key

    def test_center_slides(self, tmp_path):
        data = tmp_path / "d"
        out = tmp_path / "r"
        assert run("synth", "--out", str(data), "--rows", "5", "--cols",
                   "5", "--d-emb", "4", "--genes", "4", "--smooth", "2",
                   "--slides", "1", "--seed", "2") == 0
        base = ("--manifest", str(data / "manifest.toml"),
                "--out", str(out))
        assert run("preprocess", *base) == 0
        assert run("denoise", *base, "--center-slides") == 0
        m = ingest.read_matrix(out / "denoise" / "synth00_denoised.npz",
                               "denoised", "denoise")
        np.testing.assert_allclose(m.values.mean(axis=0), 0.0, atol=1e-12)

    def test_eval_falls_back_to_stage1_model(self, tmp_path):
        data = tmp_path / "d"
        out = tmp_path / "r"
        assert run("synth", "--out", str(data), "--rows", "5", "--cols",
                   "5", "--d-emb", "4", "--genes", "4", "--smooth", "2",
                   "--slides", "3", "--seed", "3") == 0
        base = ("--manifest", str(data / "manifest.toml"),
                "--out", str(out))
        assert run("preprocess", *base) == 0
        assert run("denoise", *base) == 0
        assert run("select", *base, "--n-genes", "3") == 0
        assert run("train", *base, "--stage", "1") == 0
        assert run("eval", *base) == 0
        _, _, rows = ingest.read_table(out / "eval" / "config.tsv")
        assert ("model", "stage1") in [tuple(r[:2]) for r in rows]


def copy_stages(pipeline, out, stages):
    """The pipeline's stage directories, copied under out; every command
    after preprocess reads its spots archives, so preprocess/ comes too."""
    import shutil
    for stage in dict.fromkeys(("preprocess", *stages)):
        shutil.copytree(pipeline["out"] / stage, out / stage)


class TestStageWork:
    def test_preprocess_reads_each_input_file_once(self, pipeline, tmp_path,
                                                   monkeypatch):
        from collections import Counter
        reads = Counter()
        for name in ("read_coordinates", "read_expression",
                     "read_embeddings"):
            def counting(path, read=getattr(ingest, name)):
                reads[path] += 1
                return read(path)
            monkeypatch.setattr(ingest, name, counting)
        assert run("preprocess", "--manifest", pipeline["manifest"],
                   "--out", str(tmp_path / "r")) == 0
        # three files of each of the three slides
        assert len(reads) == 9 and set(reads.values()) == {1}

    def test_build_graphs_assembles_no_features(self, pipeline, tmp_path,
                                                monkeypatch):
        from sepal import graphs

        def refuse(*args, **kwargs):
            raise AssertionError("build-graphs assembled node features")

        monkeypatch.setattr(graphs, "assemble_graph", refuse)
        monkeypatch.setattr(graphs, "build_spot_graphs", refuse)
        out = tmp_path / "r"
        copy_stages(pipeline, out, ("preprocess", "denoise", "select"))
        assert run("build-graphs", "--manifest", pipeline["manifest"],
                   "--out", str(out), "--hops", "1",
                   "--aggregation", "concat") == 0
        for name in ("summary.tsv", "meta.tsv"):
            assert (out / "graphs" / name).read_bytes() == \
                (pipeline["out"] / "graphs" / name).read_bytes()

    def test_train_and_eval_build_each_graph_once(self, pipeline, tmp_path,
                                                  monkeypatch):
        from collections import Counter
        built = Counter()

        def counting(adjacency, center, *args, **kwargs):
            built[(adjacency.slide_id, center)] += 1
            return khop(adjacency, center, *args, **kwargs)

        khop = graphs.khop_subgraph
        monkeypatch.setattr(graphs, "khop_subgraph", counting)
        out = tmp_path / "r"
        copy_stages(pipeline, out, ("select", "graphs", "train"))
        base = ("--manifest", pipeline["manifest"], "--out", str(out))
        assert run("train", *base, "--stage", "2", "--epochs", "1",
                   "--patience", "1", "--hidden", "16") == 0
        assert run("eval", *base) == 0
        # stage 2 builds the train and val slides' graphs and eval the
        # test slide's: every spot of every slide, once
        slides = ingest.read_manifest(pipeline["manifest"]).slides
        assert built == Counter(
            (e.slide_id, i) for e in slides
            for i in range(len(ingest.read_coordinates(e.coords_path))))

    def test_train_mean_pools_the_train_slide_only(self, pipeline,
                                                   tmp_path):
        out = tmp_path / "mean"
        copy_stages(pipeline, out, ("select",))
        base = ("--manifest", pipeline["manifest"], "--out", str(out))
        ckpt = out / "train" / "stage1.ckpt"
        m = ingest.read_matrix(out / "select" / "synth00_selected.npz",
                               "denoised", "select")
        want = (m.values.sum(axis=0) / m.n_spots).tobytes()
        assert run("train", *base, "--stage", "1") == 0
        assert ingest.read_checkpoint(ckpt)[1]["train_mean"].tobytes() \
            == want
        # moving the val and test slides leaves the mean where it was
        for sid in ("synth01", "synth02"):
            path = out / "select" / f"{sid}_selected.npz"
            m = ingest.read_matrix(path, "denoised", "select")
            ingest.write_matrix(path, ExpressionMatrix(
                m.slide_id, m.gene_ids, m.spot_ids, m.values + 5.0, m.stage))
        assert run("train", *base, "--stage", "1") == 0
        assert ingest.read_checkpoint(ckpt)[1]["train_mean"].tobytes() \
            == want

    def test_no_stage_after_preprocess_opens_a_dataset_file(
            self, pipeline, tmp_path, monkeypatch):
        def files(root):
            # a history's wall times differ from run to run
            return {p.relative_to(root): p.read_bytes()
                    for p in root.rglob("*")
                    if p.is_file() and not p.name.endswith("_history.tsv")}

        # the stage-1 model's eval, with the dataset's files readable
        ref, out = tmp_path / "ref", tmp_path / "r"
        copy_stages(pipeline, ref, ("select", "train"))
        (ref / "train" / "stage2.ckpt").unlink()
        base = ("--manifest", pipeline["manifest"])
        assert run("eval", *base, "--out", str(ref)) == 0

        def refuse(path, *args, **kwargs):
            raise AssertionError(f"{path} read after preprocess")

        for name in ("read_coordinates", "read_embeddings",
                     "read_expression"):
            monkeypatch.setattr(ingest, name, refuse)
        copy_stages(pipeline, out, ())
        base += ("--out", str(out))
        for argv in (("denoise",), ("select", "--n-genes", "6"),
                     ("build-graphs", "--hops", "1", "--aggregation",
                      "concat"),
                     ("train", "--stage", "1"),
                     ("train", "--stage", "2", "--epochs", "4",
                      "--patience", "4", "--hidden", "16", "--lr", "0.01"),
                     ("eval",), ("figures",)):
            assert run(argv[0], *base, *argv[1:]) == 0, argv
        assert files(out) == files(pipeline["out"])
        (out / "train" / "stage2.ckpt").unlink()
        assert run("eval", *base) == 0
        assert files(out / "eval") == files(ref / "eval")

    def test_dataset_files_swapped_after_preprocess_change_nothing(
            self, pipeline, tmp_path):
        import shutil
        data, out = tmp_path / "data", tmp_path / "r"
        shutil.copytree(pipeline["data"], data)
        copy_stages(pipeline, out, ("select", "train"))
        base = ("--manifest", str(data / "manifest.toml"), "--out", str(out))

        def eval_and_figures():
            for command in ("eval", "figures"):
                assert run(command, *base) == 0
            return {p.relative_to(out): p.read_bytes()
                    for stage in ("eval", "figures")
                    for p in (out / stage).rglob("*") if p.is_file()}

        before = eval_and_figures()
        for kind in ("emb", "coords"):
            shutil.copyfile(data / f"synth00_{kind}.tsv",
                            data / f"synth02_{kind}.tsv")
        assert eval_and_figures() == before


    def test_each_command_reads_only_the_slides_it_uses(
            self, pipeline, tmp_path, monkeypatch):
        from collections import Counter
        reads = Counter()
        for name in ("read_matrix", "read_mask"):
            def counting(path, *args, _read=getattr(ingest, name),
                         _name=name, **kw):
                reads[(_name, Path(path).name)] += 1
                return _read(path, *args, **kw)
            monkeypatch.setattr(ingest, name, counting)
        manifest = ingest.read_manifest(pipeline["manifest"])
        fit = [e.slide_id for e in manifest.slides
               if e.split in ("train", "val")]
        test = [e.slide_id for e in manifest.slides if e.split == "test"]
        assert fit and test
        out = tmp_path / "r"
        copy_stages(pipeline, out, ("select", "graphs", "train", "eval"))
        base = ("--manifest", pipeline["manifest"], "--out", str(out))

        # training: the train and val matrices once each, never a mask
        fit_reads = {("read_matrix", f"{s}_selected.npz"): 1
                     for s in fit}
        assert run("train", *base, "--stage", "1") == 0
        assert dict(reads) == fit_reads
        reads.clear()
        assert run("train", *base, "--stage", "2", "--epochs", "1",
                   "--patience", "1", "--hidden", "16") == 0
        assert dict(reads) == fit_reads
        reads.clear()

        # eval and figures: the test slides' matrices and masks only
        test_reads = {}
        for s in test:
            test_reads[("read_matrix", f"{s}_selected.npz")] = 1
            test_reads[("read_mask", f"{s}_mask.npz")] = 1
        assert run("eval", *base) == 0
        assert dict(reads) == test_reads
        reads.clear()
        assert run("figures", *base) == 0
        assert dict(reads) == {
            **test_reads,
            **{("read_matrix", f"{s}_pred.npz"): 1 for s in test}}

    def test_figures_draws_what_eval_scored(self, pipeline, tmp_path,
                                            monkeypatch):
        from sepal import metrics

        def refuse(*args, **kwargs):
            raise AssertionError("figures scored the predictions again")

        out = tmp_path / "r"
        copy_stages(pipeline, out, ("select", "eval"))
        manifest = ingest.read_manifest(pipeline["manifest"])
        (entry,) = [e for e in manifest.slides if e.split == "test"]
        sid = entry.slide_id
        pred = ingest.read_matrix(
            out / "eval" / "predictions" / f"{sid}_pred.npz", "denoised",
            "eval")
        truth = ingest.read_matrix(out / "select" / f"{sid}_selected.npz",
                                   "denoised", "select")
        mask = ingest.read_mask(out / "select" / f"{sid}_mask.npz", "select")
        spots = ingest.read_coordinates(entry.coords_path).subset(
            truth.spot_ids)
        rep = metrics.evaluate(pred.values, truth.values, mask.values,
                               truth.gene_ids, truth.spot_ids)
        ref = tmp_path / "ref"
        want = metrics.emit_figures(rep.gene_ids, rep.per_gene_pcc,
                                    pred.values, truth.values, mask.values,
                                    spots, manifest.geometry, ref / sid)
        # one test slide: its scores are the pooled scores
        want.append(metrics.write_pcc_histogram(
            ref / "pcc_hist.csv", rep.gene_ids, rep.per_gene_pcc))

        monkeypatch.setattr(metrics, "evaluate", refuse)
        assert run("figures", "--manifest", pipeline["manifest"],
                   "--out", str(out)) == 0
        got = sorted(p.relative_to(out / "figures")
                     for p in (out / "figures").rglob("*")
                     if p.is_file() and p.name != "config.tsv")
        assert got == sorted(p.relative_to(ref) for p in want)
        for rel in got:
            assert (out / "figures" / rel).read_bytes() == \
                (ref / rel).read_bytes(), rel

    def test_figures_computes_spot_spacing_once_per_slide(
            self, pipeline, tmp_path, monkeypatch):
        from sepal import spatial
        calls = []

        real = spatial.min_pixel_spacing

        def counting(spots, geometry):
            calls.append(len(spots))
            return real(spots, geometry)

        monkeypatch.setattr(spatial, "min_pixel_spacing", counting)
        out = tmp_path / "r"
        copy_stages(pipeline, out, ("select", "eval"))
        assert run("figures", "--manifest", pipeline["manifest"],
                   "--out", str(out)) == 0
        assert len(list((out / "figures").rglob("*.ppm"))) == 8
        assert calls == [36]  # the one 6x6 test slide

    def test_figures_without_eval_tables(self, pipeline, tmp_path, capsys):
        out = tmp_path / "r"
        copy_stages(pipeline, out, ("select", "eval"))
        (out / "eval" / "synth02_per_gene.tsv").unlink()
        assert run("figures", "--manifest", pipeline["manifest"],
                   "--out", str(out)) == 1
        assert "sepal eval" in capsys.readouterr().err



class TestPrepMemory:
    """The prep commands hold the data they read once, plus one slide's
    working set: traced in process on 2 and on 6 slides of 400 spots x
    400 genes, the peaks of denoise and select stay where they were, and
    that of preprocess grows by the raw values of the 4 slides added."""

    ROWS, GENES = 20, 400
    SLIDE_VALUES = ROWS * ROWS * GENES * 8  # one slide's float64 counts

    @pytest.fixture(scope="class")
    def peaks(self, tmp_path_factory):
        import tracemalloc
        root = tmp_path_factory.mktemp("prep_memory")
        peaks = {}
        for n in (2, 6):
            data, out = root / f"data{n}", root / f"run{n}"
            assert run("synth", "--out", str(data), "--rows", str(self.ROWS),
                       "--cols", str(self.ROWS), "--genes", str(self.GENES),
                       "--smooth", "4", "--slides", str(n), "--counts",
                       "--zero-fraction", "0.05", "--d-emb", "4") == 0
            base = ("--manifest", str(data / "manifest.toml"),
                    "--out", str(out))
            tracemalloc.start()
            try:
                for command in (("preprocess",), ("denoise",),
                                ("select", "--n-genes", "4")):
                    tracemalloc.reset_peak()
                    held = tracemalloc.get_traced_memory()[0]
                    assert run(*command, *base) == 0
                    peaks[command[0], n] = (
                        tracemalloc.get_traced_memory()[1] - held)
            finally:
                tracemalloc.stop()
        return peaks

    @pytest.mark.parametrize("command", ["denoise", "select"])
    def test_peak_does_not_grow_with_slides(self, peaks, command):
        growth = peaks[command, 6] - peaks[command, 2]
        assert growth < 0.5 * self.SLIDE_VALUES, (peaks, command)

    def test_preprocess_peak_grows_by_the_raw_values(self, peaks):
        growth = peaks["preprocess", 6] - peaks["preprocess", 2]
        # the slack covers each slide's spot and gene id strings
        assert growth < 1.1 * 4 * self.SLIDE_VALUES, peaks

    @pytest.mark.parametrize("n", [2, 6])
    def test_preprocess_makes_each_slide_in_one_block(self, peaks, n):
        # beyond the raw values, one kept block that CPM and log overwrite
        # in place, and the scratch of its checks and its write
        working = peaks["preprocess", n] - n * self.SLIDE_VALUES
        assert working < 1.75 * self.SLIDE_VALUES, peaks


_COMMANDS_PROBE = """
import sys
from sepal.cli import main

data, out = sys.argv[1], sys.argv[2]
base = ["--manifest", data + "/manifest.toml", "--out", out]
for argv in (["synth", "--out", data, "--rows", "6", "--cols", "6",
              "--d-emb", "4", "--genes", "6", "--smooth", "3"],
             ["preprocess", *base], ["denoise", *base],
             ["select", *base, "--n-genes", "3"], ["build-graphs", *base],
             ["train", *base, "--stage", "1"], ["eval", *base],
             ["figures", *base],
             ["train", *base, "--stage", "2", "--epochs", "1",
              "--hidden", "4"],
             ["eval", *base]):
    assert main(argv) == 0, argv
    print("probe:", argv[0], "scipy" in sys.modules,
          "scipy.sparse" in sys.modules, file=sys.stderr)
"""


# which src/sepal/*.py files run in one process: a module's code is
# compiled from source (compile) or read from bytecode, and then run (exec)
_RUNS_PROBE = """
import json, os, sys

package = os.path.join(sys.argv[1], "sepal")
ran = set()


def record(event, args):
    if event == "exec":
        path = getattr(args[0], "co_filename", "")
    elif event == "compile":
        path = args[1]
    else:
        return
    if isinstance(path, str) and os.path.dirname(path) == package:
        ran.add(os.path.basename(path)[:-3].replace("__init__", "sepal"))


sys.addaudithook(record)
if sys.argv[2:]:
    from sepal.cli import main
    assert main(sys.argv[2:]) == 0, sys.argv
else:
    import sepal.cli
print(json.dumps({"ran": sorted(ran), "numpy.ma": "numpy.ma" in sys.modules}))
"""

SRC = Path(__file__).resolve().parent.parent / "src"


def _python(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


class TestStartup:
    """No command loads scipy: each starts at numpy's cost, the graph
    network included.  Each command runs only the library modules it
    uses; the others are registered lazily and never run."""

    def test_cli_import_loads_no_scipy(self):
        proc = _python(
            "-c", "import sys, sepal.cli; "
                  "print(sorted(m for m in sys.modules "
                  "if m.partition('.')[0] == 'scipy'))")
        assert proc.stdout.strip() == "[]"

    def test_no_command_loads_scipy(self, tmp_path):
        proc = _python("-c", _COMMANDS_PROBE, str(tmp_path / "data"),
                       str(tmp_path / "run"))
        lines = [line for line in proc.stderr.splitlines()
                 if line.startswith("probe: ")]
        # the last two are stage-2 training and the eval of its model
        assert lines == [f"probe: {c} False False" for c in (
            "synth", "preprocess", "denoise", "select", "build-graphs",
            "train", "eval", "figures", "train", "eval")]

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """The modules each command runs, each in a process of its own."""
        root = tmp_path_factory.mktemp("startup")
        data, out = str(root / "data"), str(root / "run")
        base = ["--manifest", data + "/manifest.toml", "--out", out]
        commands = {
            "import": [],
            "synth": ["synth", "--out", data, "--rows", "6", "--cols", "6",
                      "--d-emb", "4", "--genes", "6", "--smooth", "3"],
            "preprocess": ["preprocess", *base],
            "denoise": ["denoise", *base],
            "select": ["select", *base, "--n-genes", "3"],
            "build-graphs": ["build-graphs", *base],
            "train 1": ["train", *base, "--stage", "1"],
            "eval 1": ["eval", *base],
            "figures": ["figures", *base],
            "train 2": ["train", *base, "--stage", "2", "--epochs", "1",
                        "--hidden", "4"],
            "eval 2": ["eval", *base],
        }
        out = {}
        for label, argv in commands.items():
            proc = _python("-c", _RUNS_PROBE, str(SRC), *argv)
            # the probe's line comes after the command's own output
            out[label] = json.loads(proc.stdout.splitlines()[-1])
        return out

    def test_cli_import_runs_four_modules(self, runs):
        assert runs["import"]["ran"] == ["cli", "core", "ingest", "sepal"]

    def test_preprocess_runs_only_preprocess_besides(self, runs):
        assert runs["preprocess"]["ran"] == [
            "cli", "core", "ingest", "preprocess", "sepal"]

    def test_stage1_runs_no_graph_code(self, runs):
        for label in ("train 1", "eval 1"):
            assert not {"graphs", "nn"} & set(runs[label]["ran"]), label
        # the probe does see lazy modules run
        for label in ("train 2", "eval 2"):
            assert {"graphs", "nn"} <= set(runs[label]["ran"]), label

    def test_every_command_runs_its_modules(self, runs):
        # besides the package, cli, core and ingest, which every command
        # runs; stage 1 and its eval run no graph or network code
        also = {
            "import": [],
            "synth": ["spatial", "synth"],
            "preprocess": ["preprocess"],
            "denoise": ["denoise", "spatial"],
            "select": ["spatial"],
            "build-graphs": ["graphs", "spatial"],
            "train 1": ["preprocess", "train"],
            "eval 1": ["metrics", "train"],
            "figures": ["metrics", "spatial"],
            "train 2": ["graphs", "nn", "spatial", "train"],
            "eval 2": ["graphs", "metrics", "nn", "spatial", "train"],
        }
        assert {label: r["ran"] for label, r in runs.items()} == {
            label: sorted(["cli", "core", "ingest", "sepal", *modules])
            for label, modules in also.items()}

    def test_no_command_imports_numpy_ma(self, runs):
        assert [label for label, r in runs.items() if r["numpy.ma"]] == []


class TestDeterminism:
    def _run_all(self, data, out):
        manifest = str(data / "manifest.toml")
        assert run("synth", "--out", str(data), "--rows", "6", "--cols",
                   "6", "--d-emb", "8", "--genes", "8", "--smooth", "3",
                   "--slides", "3", "--zero-fraction", "0.05",
                   "--seed", "7") == 0
        base = ("--manifest", manifest, "--out", str(out))
        assert run("preprocess", *base) == 0
        assert run("denoise", *base) == 0
        assert run("select", *base, "--n-genes", "4") == 0
        assert run("build-graphs", *base, "--hops", "1",
                   "--aggregation", "sum") == 0
        assert run("train", *base, "--stage", "1") == 0
        assert run("train", *base, "--stage", "2", "--epochs", "3",
                   "--patience", "3", "--hidden", "8", "--seed", "5") == 0
        assert run("eval", *base) == 0
        assert run("figures", *base) == 0

    def test_two_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        self._run_all(a / "data", a / "run")
        self._run_all(b / "data", b / "run")
        targets = ["run/eval/metrics.tsv", "run/train/stage1.ckpt",
                   "run/train/stage2.ckpt", "run/figures/pcc_hist.csv"]
        heatmaps = sorted(
            p.relative_to(a) for p in (a / "run" / "figures").rglob("*.ppm"))
        assert heatmaps
        targets += [str(p) for p in heatmaps]
        for rel in targets:
            fa, fb = a / rel, b / rel
            assert fa.read_bytes() == fb.read_bytes(), rel
