import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sepal import ingest
from sepal.cli import STAGE2_DEFAULTS, main
from sepal.core import ImputationMask
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
        out = tmp_path / "cut"
        copy_stages(pipeline, out, ("denoise",))
        path = out / "denoise" / "synth01_denoised.npz"
        data = path.read_bytes()
        path.write_bytes(data[:int(len(data) * keep)])
        rc = run("select", "--manifest", pipeline["manifest"],
                 "--out", str(out))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} ") and "sepal denoise" in err
        assert not (out / "select").exists()

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

    def test_select_reads_every_mask_before_writing(self, pipeline,
                                                    tmp_path, capsys):
        out = tmp_path / "nomask"
        copy_stages(pipeline, out, ("denoise",))
        (out / "denoise" / "synth01_mask.npz").unlink()
        rc = run("select", "--manifest", pipeline["manifest"],
                 "--out", str(out))
        assert rc == 1
        assert "sepal denoise" in capsys.readouterr().err
        assert not (out / "select").exists()

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
        ingest.write_expression(
            path, m.with_values(np.rint(10 * m.values), "raw_counts"))
        rc = run("preprocess", "--manifest", str(manifest),
                 "--out", str(tmp_path / "run"))
        assert rc == 1
        assert "'synth01'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

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
        assert err.startswith("error: ") and "synth02" in err
        assert not (out / "eval").exists()

    def test_select_before_denoise(self, pipeline, tmp_path, capsys):
        rc = run("select", "--manifest", pipeline["manifest"],
                 "--out", str(tmp_path / "fresh"))
        assert rc == 1
        assert "sepal denoise" in capsys.readouterr().err

    def test_select_on_raw_counts_input(self, pipeline, tmp_path):
        # a counts-stage file sitting where the denoiser output belongs
        out = tmp_path / "bad"
        den = out / "denoise"
        den.mkdir(parents=True)
        rng = np.random.default_rng(0)
        from sepal.core import ExpressionMatrix
        for entry_id in ("synth00", "synth01", "synth02"):
            m = ExpressionMatrix(
                entry_id, ("g0",),
                tuple(f"spot_r{r}_c{c}" for r in range(6)
                      for c in range(6)),
                rng.integers(0, 5, size=(36, 1)).astype(float),
                "raw_counts")
            ingest.write_matrix(den / f"{entry_id}_denoised.npz", m)
        assert run("select", "--manifest", pipeline["manifest"],
                   "--out", str(out)) == 1

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
    import shutil
    for stage in stages:
        shutil.copytree(pipeline["out"] / stage, out / stage)


class TestStageWork:
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
            ingest.write_matrix(path, m.with_values(m.values + 5.0, m.stage))
        assert run("train", *base, "--stage", "1") == 0
        assert ingest.read_checkpoint(ckpt)[1]["train_mean"].tobytes() \
            == want

    def test_stage2_and_eval_read_each_slide_once(self, pipeline, tmp_path,
                                                  monkeypatch):
        from collections import Counter
        reads = Counter()
        for name in ("read_coordinates", "read_embeddings"):
            def counting(path, *args, _read=getattr(ingest, name), **kw):
                reads[str(path)] += 1
                return _read(path, *args, **kw)
            monkeypatch.setattr(ingest, name, counting)
        out = tmp_path / "r"
        copy_stages(pipeline, out, ("preprocess", "denoise", "select",
                                    "graphs", "train"))
        base = ("--manifest", pipeline["manifest"], "--out", str(out))
        assert run("train", *base, "--stage", "2", "--epochs", "1",
                   "--patience", "1", "--hidden", "16") == 0
        # the train and val slides: coordinates and embeddings once each
        assert len(reads) == 4 and set(reads.values()) == {1}
        reads.clear()
        assert run("eval", *base) == 0
        assert len(reads) == 2 and set(reads.values()) == {1}


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
        by_id = {s.spot_id: s
                 for s in ingest.read_coordinates(entry.coords_path)}
        spots = [by_id[s] for s in truth.spot_ids]
        rep = metrics.evaluate(pred.values, truth.values, mask.values,
                               truth.gene_ids, truth.spot_ids)
        ref = tmp_path / "ref"
        want = metrics.emit_figures(rep.gene_ids, rep.per_gene_pcc,
                                    pred.values, truth.values, mask.values,
                                    spots, ref / sid)
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
        from sepal import metrics, spatial
        calls = []

        def counting(spots):
            calls.append(len(spots))
            return spatial.min_pixel_spacing(spots)

        monkeypatch.setattr(metrics, "min_pixel_spacing", counting,
                            raising=False)
        monkeypatch.setattr(ingest, "min_pixel_spacing", counting)
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
              "--hidden", "4"]):
    assert main(argv) == 0, argv
    print("probe:", argv[0], "scipy" in sys.modules,
          "scipy.sparse" in sys.modules, file=sys.stderr)
"""


class TestStartup:
    """Only the graph network loads scipy.sparse; every other command
    starts at numpy's cost."""

    def _python(self, *argv):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc

    def test_cli_import_loads_no_scipy(self):
        proc = self._python(
            "-c", "import sys, sepal.cli; "
                  "print(sorted(m for m in sys.modules "
                  "if m.partition('.')[0] == 'scipy'))")
        assert proc.stdout.strip() == "[]"

    def test_commands_without_the_network_load_no_scipy(self, tmp_path):
        proc = self._python("-c", _COMMANDS_PROBE, str(tmp_path / "data"),
                            str(tmp_path / "run"))
        lines = [line for line in proc.stderr.splitlines()
                 if line.startswith("probe: ")]
        assert lines[:-1] == [f"probe: {c} False False" for c in (
            "synth", "preprocess", "denoise", "select", "build-graphs",
            "train", "eval", "figures")]
        # the probe does see scipy once the network has run
        assert lines[-1] == "probe: train True True"


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
