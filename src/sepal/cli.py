"""Command line front end for the pipeline.

Each subcommand is a thin wrapper over one library module and writes its
outputs into a stage directory under the run directory given by --out:

    preprocess/   filtered, normalized, log-space expression
    denoise/      imputed expression plus the imputation masks
    select/       autocorrelation ranking and the reduced gene panel
    graphs/       neighborhood summary and graph-construction settings
    train/        model checkpoints and training histories; a checkpoint is
                  one numpy archive holding the gene panel, train mean,
                  head and, for stage 2, the graph correction
    eval/         metric tables (pooled and per test slide) and predictions
    figures/      correlation histogram and example heatmaps

Every matrix, mask and prediction passed between stages is one numpy
archive (.npz; see ingest); reports and lockfiles are TSV tables.

Each command reads only the slides it uses (train: the train and val
matrices; eval, figures: the test matrices and masks), and eval is the
only scorer: figures draws from the tables and predictions eval wrote.

Every run writes the fully resolved configuration to a config.tsv next
to its outputs, so a run can be reproduced from the lockfile alone.
Exit codes: 0 success, 1 validation failure, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, ingest, metrics, preprocess, spatial, synth
from . import denoise as denoise_mod
from . import graphs as graphs_mod
from . import train as train_mod
from .core import (
    EmptySplit,
    ExpressionMatrix,
    GeneSetMismatch,
    ImputationMask,
    IoFailure,
    PipelineError,
    SpotSetMismatch,
    StageOrderViolation,
    ValidationError,
    WidthMismatch,
    align_slide,
    assert_mask_matches,
    validate_dataset,
)
from .graphs import AGGREGATIONS
from .nn import GraphBatch, ModelSpec, OPERATORS, POOLINGS
from .train import TrainConfig

PRESETS = {
    "stnet-like": {
        "hops": 1, "aggregation": "sum", "operator": "graphconv",
        "pre_mlp": (), "hidden": (256,), "post_mlp": (),
        "lr": 1e-4, "batch": 256,
    },
    "visium-like": {
        "hops": 3, "aggregation": "concat", "operator": "gcn",
        "pre_mlp": (512,), "hidden": (256, 128), "post_mlp": (256,),
        "lr": 1e-5, "batch": 256,
    },
}

# fallbacks for the flags only `train --stage 2` reads; stage 1 rejects them
STAGE2_DEFAULTS = {
    "operator": "graphconv", "pooling": "sag_mean", "sag_ratio": 0.5,
    "pre_mlp": (), "hidden": (256,), "post_mlp": (),
    "lr": 1e-4, "batch": 256, "epochs": 500, "patience": 20,
    "max_steps": None, "seed": 0,
}


class _Parser(argparse.ArgumentParser):
    """Argument errors are validation failures, not I/O failures."""

    def error(self, message):
        raise ValidationError(message)


def _widths(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text in ("", "none"):
        return ()
    try:
        out = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValidationError(f"bad width list {text!r}") from None
    if any(w < 1 for w in out):
        raise ValidationError(f"widths must be positive, got {text!r}")
    return out


def _fmt_widths(widths) -> str:
    return ",".join(str(w) for w in widths)


def _from_preset(args, key, fallback):
    """Explicit flag wins, then the preset, then the fallback."""
    value = getattr(args, key)
    if value is not None:
        return value
    if args.preset is not None and key in PRESETS[args.preset]:
        return PRESETS[args.preset][key]
    return fallback


def _write_lock(outdir: Path, command: str, pairs: dict,
                name: str = "config.tsv") -> None:
    rows = [("command", command), ("version", __version__)]
    rows += sorted(pairs.items())
    ingest.write_table(outdir / name, "config", ("key", "value"), rows)


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise StageOrderViolation(
            f"missing {path}; run `sepal {producer}` first")
    return path


def _spots_for(entry, spot_ids) -> list:
    """Coordinate records reordered to a matrix's row order."""
    by_id = {s.spot_id: s for s in ingest.read_coordinates(entry.coords_path)}
    missing = [sid for sid in spot_ids if sid not in by_id]
    if missing:
        raise SpotSetMismatch(
            f"spot {missing[0]!r} of slide {entry.slide_id!r} has no "
            f"coordinates")
    return [by_id[sid] for sid in spot_ids]


def _read_stage_matrix(path: Path, want_stage: str, producer: str
                       ) -> ExpressionMatrix:
    return ingest.read_matrix(_require(path, producer), want_stage, producer)


def _selected(out: Path, entry, panel=None) -> ExpressionMatrix:
    """The slide's select output, checked against a gene panel if given."""
    m = _read_stage_matrix(
        Path(out) / "select" / f"{entry.slide_id}_selected.npz",
        "denoised", "select")
    if panel is not None and m.gene_ids != tuple(panel):
        raise ValidationError(
            "checkpoint gene panel does not match select outputs")
    return m


def _selected_mask(out: Path, entry) -> ImputationMask:
    return ingest.read_mask(_require(
        Path(out) / "select" / f"{entry.slide_id}_mask.npz", "select"),
        "select")


def _test_entries(manifest) -> list:
    entries = [e for e in manifest.slides if e.split == "test"]
    if not entries:
        raise EmptySplit("no test-split slides in the manifest")
    return entries


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> None:
    cfg = synth.SynthConfig(
        grid_rows=args.rows, grid_cols=args.cols, d_emb=args.d_emb,
        n_genes=args.genes, n_smooth=args.smooth, noise_sd=args.noise_sd,
        zero_fraction=args.zero_fraction,
        field_amplitude=args.field_amplitude, geometry=args.geometry,
        n_slides=args.slides, n_select=args.n_select, counts=args.counts,
        seed=args.seed)
    dataset = synth.generate_dataset(cfg)
    out = Path(args.out)
    manifest_path = synth.write_dataset(dataset, out)
    _write_lock(out, "synth", {
        "rows": cfg.grid_rows, "cols": cfg.grid_cols, "d_emb": cfg.d_emb,
        "genes": cfg.n_genes, "smooth": cfg.n_smooth,
        "noise_sd": cfg.noise_sd, "zero_fraction": cfg.zero_fraction,
        "field_amplitude": cfg.field_amplitude, "geometry": cfg.geometry,
        "slides": cfg.n_slides,
        "n_select": "" if cfg.n_select is None else cfg.n_select,
        "counts": cfg.counts, "seed": cfg.seed,
    })
    print(manifest_path)


def cmd_preprocess(args) -> None:
    manifest = ingest.read_manifest(args.manifest)
    matrices = [s.expression for s in validate_dataset(
        manifest, ingest.load_dataset(manifest))]

    stage = matrices[0].stage
    if stage not in ("raw_counts", "log1p"):
        raise StageOrderViolation(
            f"preprocess expects raw_counts or log1p input, got {stage!r}")
    for m in matrices[1:]:
        if m.stage != stage:
            raise StageOrderViolation(
                f"slide {m.slide_id!r} holds {m.stage} values, slide "
                f"{matrices[0].slide_id!r} {stage}; every slide must be at "
                f"one stage")
    log_rows = []
    if stage == "raw_counts":
        matrices, count_log = preprocess.filter_by_counts(
            matrices, (manifest.count_min_spot, manifest.count_max_spot),
            (manifest.count_min_gene, manifest.count_max_gene))
        log_rows += [(kind, slide, item, total, "")
                     for kind, slide, item, total in count_log]
    kept, sparsity_log = preprocess.filter_by_sparsity(
        matrices, manifest.eps_total, manifest.eps_wsi)
    log_rows += [("gene_sparsity", scope, gene, pct, threshold)
                 for gene, scope, pct, threshold in sparsity_log]
    matrices = [m.subset_genes(kept) for m in matrices]
    if stage == "raw_counts":
        matrices = [preprocess.log_transform(preprocess.tpm_normalize(m))
                    for m in matrices]

    outdir = Path(args.out) / "preprocess"
    for m in matrices:
        ingest.write_matrix(outdir / f"{m.slide_id}_log1p.npz", m)
    ingest.write_table(outdir / "filter_log.tsv", "filter_log",
                       ("kind", "scope", "item_id", "value", "threshold"),
                       log_rows)
    _write_lock(outdir, "preprocess", {
        "manifest": str(args.manifest),
        "input_stage": stage,
        "eps_total": manifest.eps_total,
        "eps_wsi": manifest.eps_wsi,
        "count_min_spot": manifest.count_min_spot,
        "count_max_spot": manifest.count_max_spot,
        "count_min_gene": manifest.count_min_gene,
        "count_max_gene": manifest.count_max_gene,
    })
    print(f"preprocess: {len(matrices)} slides, {len(kept)} genes kept")


def cmd_denoise(args) -> None:
    manifest = ingest.read_manifest(args.manifest)
    pre = Path(args.out) / "preprocess"
    denoised, masks, reports = [], [], []
    for entry in manifest.slides:
        m = _read_stage_matrix(pre / f"{entry.slide_id}_log1p.npz",
                               "log1p", "preprocess")
        d, mask, report = denoise_mod.denoise_slide(
            m, _spots_for(entry, m.spot_ids))
        denoised.append(d)
        masks.append(mask)
        reports.append(report)
    if args.center_slides:
        denoised = preprocess.center_per_slide(denoised)

    outdir = Path(args.out) / "denoise"
    for m, mask in zip(denoised, masks):
        ingest.write_matrix(outdir / f"{m.slide_id}_denoised.npz", m)
        ingest.write_mask(outdir / f"{m.slide_id}_mask.npz", mask)
    rows = [(r.slide_id, r.n_cells, r.n_zero, r.n_imputed, r.n_fallback,
             r.imputed_fraction, len(r.genes_nothing_to_impute))
            for r in reports]
    cells = sum(r.n_cells for r in reports)
    imputed = sum(r.n_imputed for r in reports)
    pooled = imputed / cells if cells else 0.0
    rows.append(("*", cells, sum(r.n_zero for r in reports), imputed,
                 sum(r.n_fallback for r in reports), pooled,
                 sum(len(r.genes_nothing_to_impute) for r in reports)))
    ingest.write_table(outdir / "report.tsv", "denoise_report",
                       ("slide_id", "n_cells", "n_zero", "n_imputed",
                        "n_fallback", "imputed_fraction", "n_empty_genes"),
                       rows)
    _write_lock(outdir, "denoise", {
        "manifest": str(args.manifest),
        "center_slides": args.center_slides,
    })
    print(f"denoise: imputed fraction {pooled:.4f} over "
          f"{len(denoised)} slides")


def cmd_select(args) -> None:
    manifest = ingest.read_manifest(args.manifest)
    den = Path(args.out) / "denoise"
    matrices, masks, adjacencies = [], [], []
    for entry in manifest.slides:
        m = _read_stage_matrix(den / f"{entry.slide_id}_denoised.npz",
                               "denoised", "denoise")
        matrices.append(m)
        masks.append(ingest.read_mask(
            _require(den / f"{entry.slide_id}_mask.npz", "denoise"),
            "denoise"))
        adjacencies.append(spatial.build_adjacency(
            _spots_for(entry, m.spot_ids), manifest.geometry))
    n_genes = args.n_genes if args.n_genes is not None \
        else manifest.n_genes_select
    selected, scores = spatial.select_genes(matrices, adjacencies, n_genes)

    outdir = Path(args.out) / "select"
    for m in matrices:
        ingest.write_matrix(outdir / f"{m.slide_id}_selected.npz",
                            m.subset_genes(selected))
    for entry, mask in zip(manifest.slides, masks):
        ingest.write_mask(outdir / f"{entry.slide_id}_mask.npz",
                          mask.subset_genes(selected))
    ingest.write_table(outdir / "genes.tsv", "gene_scores",
                       ("gene_id", "mean_score", "selected"),
                       [(s.gene_id, s.mean_score, s.selected)
                        for s in scores])
    _write_lock(outdir, "select", {
        "manifest": str(args.manifest),
        "n_genes": n_genes,
        "geometry": manifest.geometry,
    })
    print(f"select: kept {len(selected)} of {len(scores)} genes")


def _read_slide(entry, matrix: ExpressionMatrix,
                mask: ImputationMask | None = None):
    """The slide's coordinates and embeddings, aligned to the matrix (and
    mask): everything a stage needs from the slide, each file read once."""
    spots = ingest.read_coordinates(entry.coords_path)
    emb = ingest.read_embeddings(entry.emb_path)
    return align_slide(spots, matrix, emb, mask)


def _check_head_width(ckpt: Path, model, slide) -> None:
    """The head takes embeddings of the width it was fitted on."""
    width = model.head_weight.shape[1]
    if slide.embeddings.d_emb != width:
        raise WidthMismatch(
            f"{ckpt}: the head takes {width} embedding columns, slide "
            f"{slide.slide_id!r} has {slide.embeddings.d_emb}; run "
            f"`sepal train` again")


def cmd_build_graphs(args) -> None:
    manifest = ingest.read_manifest(args.manifest)
    hops = _from_preset(args, "hops", 1)
    aggregation = _from_preset(args, "aggregation", "sum")
    if hops < 1:
        raise ValidationError("hops must be positive")

    rows = []
    width = None
    for entry in manifest.slides:
        slide = _read_slide(entry, _selected(args.out, entry))
        width = graphs_mod.feature_width(slide.embeddings.d_emb, aggregation)
        adjacency = spatial.build_adjacency(slide.spots, manifest.geometry)
        for spot, sub in zip(slide.spots,
                             graphs_mod.slide_subgraphs(adjacency, hops)):
            rows.append((entry.slide_id, spot.spot_id,
                         len(sub.nodes), sub.edges.shape[0]))

    outdir = Path(args.out) / "graphs"
    ingest.write_table(outdir / "summary.tsv", "graph_summary",
                       ("slide_id", "spot_id", "n_nodes", "n_edges"), rows)
    ingest.write_table(outdir / "meta.tsv", "graphs_meta",
                       ("key", "value"),
                       [("aggregation", aggregation),
                        ("feature_width", width),
                        ("hops", hops)])
    _write_lock(outdir, "build-graphs", {
        "manifest": str(args.manifest),
        "hops": hops,
        "aggregation": aggregation,
        "preset": args.preset or "",
    })
    print(f"build-graphs: {len(rows)} graphs, hops={hops}, "
          f"aggregation={aggregation}")


def _graphs_meta(out: Path) -> dict:
    path = _require(Path(out) / "graphs" / "meta.tsv", "build-graphs")
    _, _, rows = ingest.read_table(path)
    return {r[0]: r[1] for r in rows}


def _gather(manifest, split, read):
    """read(entry) for every slide of the split, in manifest order, stacked
    field by field: graph batches into one union, arrays with vstack.
    None when the split has no slides; training needs a train split."""
    parts = [read(e) for e in manifest.slides if e.split == split]
    if not parts:
        if split == "train":
            raise EmptySplit("no train-split slides in the manifest")
        return None
    return tuple(GraphBatch.from_graphs(field)
                 if isinstance(field[0], GraphBatch) else np.vstack(field)
                 for field in zip(*parts))


def _write_history(path, history) -> None:
    ingest.write_table(path, "history",
                       ("epoch", "train_mse", "val_mse", "wall_seconds"),
                       [(r.epoch, r.train_mse, r.val_mse, r.wall_seconds)
                        for r in history])


def cmd_train(args) -> None:
    if args.stage == 1:
        given = [f"--{k.replace('_', '-')}"
                 for k in ("preset", *STAGE2_DEFAULTS)
                 if getattr(args, k) is not None]
        if given:
            raise ValidationError(
                f"`train --stage 1` takes no {', '.join(given)}; "
                f"stage-2 settings go to `train --stage 2`")
    manifest = ingest.read_manifest(args.manifest)
    out = Path(args.out)
    train_dir = out / "train"
    stage1_path = train_dir / "stage1.ckpt"
    gene_ids = None
    if args.stage == 2:
        stage1 = train_mod.load_model(_require(stage1_path, "train --stage 1"))
        gene_ids = stage1.gene_ids
    # both stages fit on the train and val slides and never read a mask
    matrices = {e.slide_id: _selected(out, e, gene_ids)
                for e in manifest.slides if e.split in ("train", "val")}

    if args.stage == 1:
        train = [matrices[e.slide_id] for e in manifest.slides
                 if e.split == "train"]
        mean = preprocess.compute_train_mean(train)
        gene_ids = train[0].gene_ids
        for m in matrices.values():
            if m.gene_ids != gene_ids:
                raise GeneSetMismatch(
                    f"slide {m.slide_id!r} gene panel differs from "
                    f"{train[0].slide_id!r}; run `sepal select` again")

        def read(entry):
            m = matrices[entry.slide_id]
            table = ingest.read_embeddings(entry.emb_path)
            return (table.vectors[table.rows_for(m.spot_ids)],
                    m.values - mean[None, :])

        x_train, y_train = _gather(manifest, "train", read)
        x_val, y_val = _gather(manifest, "val", read) or (None, None)
        result = train_mod.stage1_train(x_train, y_train, x_val, y_val)
        train_mod.save_model(
            stage1_path,
            train_mod.TrainedModel(gene_ids, mean, result.weight,
                                   result.bias))
        _write_history(train_dir / "stage1_history.tsv", result.history)
        _write_lock(train_dir, "train", {
            "manifest": str(args.manifest), "stage": 1,
            "alpha": result.alpha, "lambda": result.ridge_lambda,
        }, name="stage1_config.tsv")
        val_txt = ("none" if result.best_val_mse is None
                   else f"{result.best_val_mse:.6f}")
        print(f"train stage 1: ridge alpha {result.alpha:g}, "
              f"val MSE {val_txt}")
        return

    # stage 2
    def opt(key):
        return _from_preset(args, key, STAGE2_DEFAULTS[key])

    pooling = opt("pooling")
    if args.sag_ratio is not None and pooling != "sag_mean":
        raise ValidationError(
            f"--sag-ratio does nothing with --pooling {pooling}")
    hidden = list(opt("hidden"))
    post = list(opt("post_mlp"))
    if not hidden:
        raise ValidationError("--hidden needs at least one graph-layer width")
    meta = _graphs_meta(out)
    hops = int(meta["hops"])
    aggregation = meta["aggregation"]

    def read(entry):
        slide = _read_slide(entry, matrices[entry.slide_id])
        _check_head_width(stage1_path, stage1, slide)
        adjacency = spatial.build_adjacency(slide.spots, manifest.geometry)
        return (graphs_mod.build_spot_graphs(slide, adjacency, hops,
                                             aggregation),
                train_mod.linear_prediction(slide.embeddings.vectors,
                                            stage1.head_weight,
                                            stage1.head_bias),
                slide.expression.values - stage1.train_mean[None, :])

    train = _gather(manifest, "train", read)
    val = _gather(manifest, "val", read) or (None, None, None)

    in_width = train[0].features.shape[1]
    n_genes = len(gene_ids)
    # the network's last layer always maps onto the gene panel
    if post:
        post[-1] = n_genes
    else:
        hidden[-1] = n_genes
    # the ratio is a sag_mean setting; other poolings keep the field default
    sag = {"sag_ratio": opt("sag_ratio")} if pooling == "sag_mean" else {}
    spec = ModelSpec(
        in_width=in_width, n_genes=n_genes, pre_widths=opt("pre_mlp"),
        operator=opt("operator"), gnn_widths=tuple(hidden),
        pooling=pooling, post_widths=tuple(post), **sag)
    cfg = TrainConfig(learning_rate=opt("lr"), batch_size=opt("batch"),
                      max_epochs=opt("epochs"), patience=opt("patience"),
                      seed=opt("seed"), max_steps=opt("max_steps"))
    result = train_mod.stage2_train(*train, *val, spec, cfg)
    train_mod.save_model(train_dir / "stage2.ckpt", replace(
        stage1, state=result.state, hops=hops, aggregation=aggregation))
    _write_history(train_dir / "stage2_history.tsv", result.history)
    _write_lock(train_dir, "train", {
        "manifest": str(args.manifest), "stage": 2,
        "hops": hops, "aggregation": aggregation,
        "operator": spec.operator,
        "pre_mlp": _fmt_widths(spec.pre_widths),
        "hidden": _fmt_widths(spec.gnn_widths),
        "post_mlp": _fmt_widths(spec.post_widths),
        "pooling": spec.pooling, **sag,
        "preset": args.preset or "",
        "lr": cfg.learning_rate, "batch": cfg.batch_size,
        "epochs": cfg.max_epochs, "patience": cfg.patience,
        "seed": cfg.seed,
        "max_steps": "" if cfg.max_steps is None else cfg.max_steps,
    }, name="stage2_config.tsv")
    initial = result.initial_val_mse
    best = result.best_val_mse
    print("train stage 2: "
          f"{result.n_steps} steps, initial val MSE "
          f"{'none' if initial is None else f'{initial:.6f}'}, best "
          f"{'none' if best is None else f'{best:.6f}'}")


def _load_model(train_dir: Path):
    stage1_path = _require(train_dir / "stage1.ckpt", "train --stage 1")
    stage1 = train_mod.load_model(stage1_path)
    stage2_path = train_dir / "stage2.ckpt"
    if not stage2_path.exists():
        return stage1
    model = train_mod.load_model(stage2_path)
    # stage 2 embeds the stage-1 model it was trained on; a newer one voids it
    if not (model.gene_ids == stage1.gene_ids
            and all(np.array_equal(getattr(model, k), getattr(stage1, k))
                    for k in ("train_mean", "head_weight", "head_bias"))):
        raise StageOrderViolation(
            f"{stage2_path} was trained on another gene panel, train mean "
            f"or head than {stage1_path}; run `sepal train --stage 2` again")
    return model


def _test_predictions(manifest, out: Path, model):
    """Per-test-slide (slide_id, pred, truth matrix, mask)."""
    results = []
    for entry in _test_entries(manifest):
        slide = _read_slide(entry, _selected(out, entry, model.gene_ids),
                            _selected_mask(out, entry))
        # a stage-2 model carries the stage-1 head, checked in _load_model
        _check_head_width(out / "train" / "stage1.ckpt", model, slide)
        if model.state is not None:
            adjacency = spatial.build_adjacency(slide.spots,
                                                manifest.geometry)
            gs = graphs_mod.build_spot_graphs(slide, adjacency, model.hops,
                                              model.aggregation)
        else:
            gs = None
        pred = train_mod.predict_expression(model, slide.embeddings.vectors,
                                            gs)
        results.append((entry.slide_id, pred, slide.expression, slide.mask))
    return results


def cmd_eval(args) -> None:
    manifest = ingest.read_manifest(args.manifest)
    out = Path(args.out)
    model = _load_model(out / "train")
    gene_ids = model.gene_ids
    results = _test_predictions(manifest, out, model)

    eval_dir = out / "eval"
    pred_dir = eval_dir / "predictions"

    per_slide_rows = []
    preds, truths, masks, spot_ids = [], [], [], []
    for slide_id, pred, m, mask in results:
        # truth in delta-free space: the denoised matrix itself
        ingest.write_matrix(
            pred_dir / f"{slide_id}_pred.npz",
            ExpressionMatrix(slide_id, gene_ids, m.spot_ids, pred,
                             "denoised"))
        rep = metrics.evaluate(pred, m.values, mask.values, gene_ids,
                               m.spot_ids)
        metrics.write_per_gene_table(eval_dir / f"{slide_id}_per_gene.tsv",
                                     rep)
        per_slide_rows.append((slide_id, *metrics.summary_row(rep)))
        preds.append(pred)
        truths.append(m.values)
        masks.append(mask.values)
        spot_ids.extend(f"{slide_id}:{sid}" for sid in m.spot_ids)

    pooled = metrics.evaluate(np.vstack(preds), np.vstack(truths),
                              np.vstack(masks), gene_ids, spot_ids)
    metrics.write_metrics_table(eval_dir / "metrics.tsv", pooled)
    metrics.write_per_gene_table(eval_dir / "per_gene.tsv", pooled)
    metrics.write_per_patch_table(eval_dir / "per_patch.tsv", pooled)
    ingest.write_table(eval_dir / "per_slide.tsv", "per_slide",
                       ("slide_id", *metrics.SUMMARY_FIELDS), per_slide_rows)
    _write_lock(eval_dir, "eval", {
        "manifest": str(args.manifest),
        "model": "stage2" if model.state is not None else "stage1",
    })
    print(f"eval: MSE {pooled.mse:.6f}, MAE {pooled.mae:.6f}, "
          f"PCC-Gene {pooled.pcc_gene:.4f}")


def cmd_figures(args) -> None:
    # draws from eval's per-gene tables and predictions; scores nothing
    manifest = ingest.read_manifest(args.manifest)
    out = Path(args.out)
    eval_dir = out / "eval"
    gene_ids, pooled = metrics.read_per_gene_pccs(
        _require(eval_dir / "per_gene.tsv", "eval"))
    # every input is read and checked before the first figure is written
    slides = []
    for entry in _test_entries(manifest):
        sid = entry.slide_id
        pred = _read_stage_matrix(
            eval_dir / "predictions" / f"{sid}_pred.npz", "denoised", "eval")
        m = _selected(out, entry)
        mask = _selected_mask(out, entry)
        table = metrics.read_per_gene_pccs(
            _require(eval_dir / f"{sid}_per_gene.tsv", "eval"))
        # eval wrote the predictions and tables on the checkpoint's panel
        if (pred.spot_ids != m.spot_ids
                or not pred.gene_ids == table[0] == gene_ids == m.gene_ids):
            raise ValidationError(f"predictions for {sid!r} are not aligned")
        assert_mask_matches(m, mask)
        slides.append((sid, *table, pred.values, m.values, mask.values,
                       _spots_for(entry, m.spot_ids)))
    fig_dir = out / "figures"
    written = [metrics.write_pcc_histogram(fig_dir / "pcc_hist.csv",
                                           gene_ids, pooled)]
    for sid, *inputs in slides:
        written += metrics.emit_figures(*inputs, fig_dir / sid)
    _write_lock(fig_dir, "figures", {"manifest": str(args.manifest)})
    print(f"figures: wrote {len(written)} files under {fig_dir}")


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="sepal", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--manifest", required=True,
                       help="dataset manifest path")
        p.add_argument("--out", required=True, help="run directory")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--rows", type=int, default=20)
    p.add_argument("--cols", type=int, default=20)
    p.add_argument("--d-emb", type=int, default=16)
    p.add_argument("--genes", type=int, default=32)
    p.add_argument("--smooth", type=int, default=8)
    p.add_argument("--noise-sd", type=float, default=0.1)
    p.add_argument("--zero-fraction", type=float, default=0.0)
    p.add_argument("--field-amplitude", type=float, default=0.5)
    p.add_argument("--geometry", choices=("square_grid", "hex_array"),
                   default="square_grid")
    p.add_argument("--slides", type=int, default=3)
    p.add_argument("--n-select", type=int, default=None)
    p.add_argument("--counts", action="store_true",
                   help="emit raw counts instead of log-space values")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="filter, normalize, log-transform")
    common(p)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("denoise", help="impute zeros in every gene map")
    common(p)
    p.add_argument("--center-slides", action="store_true",
                   help="subtract each slide's per-gene mean afterwards")
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("select", help="rank genes by spatial "
                                      "autocorrelation and keep the top n")
    common(p)
    p.add_argument("--n-genes", type=int, default=None,
                   help="override the manifest's n_genes_select")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("build-graphs", help="assemble per-spot neighborhood "
                                            "graphs")
    common(p)
    p.add_argument("--hops", type=int, default=None)
    p.add_argument("--aggregation", choices=AGGREGATIONS, default=None)
    p.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p.set_defaults(func=cmd_build_graphs)

    p = sub.add_parser("train", help="fit the linear head (stage 1) or the "
                                     "graph correction (stage 2)")
    common(p)
    p.add_argument("--stage", type=int, choices=(1, 2), required=True)
    # stage-2 settings; None falls back to the preset, then STAGE2_DEFAULTS
    p.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p.add_argument("--operator", choices=OPERATORS, default=None)
    p.add_argument("--pooling", choices=POOLINGS, default=None)
    p.add_argument("--sag-ratio", type=float, default=None)
    p.add_argument("--pre-mlp", type=_widths, default=None,
                   help="comma-separated widths, empty for none")
    p.add_argument("--hidden", type=_widths, default=None,
                   help="graph-layer widths; with no post-MLP the last "
                        "is replaced by the gene count")
    p.add_argument("--post-mlp", type=_widths, default=None,
                   help="widths after pooling; the last is replaced by the "
                        "gene count")
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--patience", type=int, default=None)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="masked metrics on the test split")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("figures", help="correlation histogram and heatmaps")
    common(p)
    p.set_defaults(func=cmd_figures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
    except IoFailure as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
