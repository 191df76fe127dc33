"""Masked regression metrics and figure-data emission.

Cells flagged by the imputation mask were filled in during preprocessing,
so every statistic here is computed over unmasked cells only.  Gene-wise
statistics pool all evaluation spots; patch-wise statistics run across the
gene dimension within each spot.  Items whose truth side has no variance
(or fewer than two usable cells) carry no defined statistic: they are
reported as missing and counted, never silently zeroed.

Figure helpers take (gene_ids, pccs) as `evaluate` or a per-gene table
gives them, so drawing figures never scores again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (
    AllGenesExcluded,
    AllMasked,
    AllPatchesExcluded,
    MalformedRow,
    ShapeMismatch,
    SpotTable,
    ValidationError,
)
from . import ingest, spatial

HIST_BIN_WIDTH = 0.05


@dataclass(frozen=True)
class MetricsReport:
    mse: float
    mae: float
    pcc_gene: float
    pcc_patch: float
    r2_gene: float
    r2_patch: float
    gene_ids: tuple[str, ...]
    spot_ids: tuple[str, ...]
    per_gene_pcc: tuple
    per_gene_r2: tuple
    per_patch_pcc: tuple
    per_patch_r2: tuple
    n_excluded_genes: int
    n_excluded_patches: int
    n_masked: int


def _as_matrix(name, arr) -> np.ndarray:
    out = np.asarray(arr, dtype=float)
    if out.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-d, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValidationError(f"{name} contains non-finite values")
    return out


def _pcc(truth: np.ndarray, pred: np.ndarray):
    zt = truth - truth.mean()
    zp = pred - pred.mean()
    ss_t = float(zt @ zt)
    ss_p = float(zp @ zp)
    if ss_t == 0.0 or ss_p == 0.0:
        return None
    r = float(zt @ zp) / math.sqrt(ss_t * ss_p)
    return min(1.0, max(-1.0, r))


def _r2(truth: np.ndarray, pred: np.ndarray):
    zt = truth - truth.mean()
    ss_tot = float(zt @ zt)
    if ss_tot == 0.0:
        return None
    ss_res = float(((pred - truth) ** 2).sum())
    return 1.0 - ss_res / ss_tot


def _stat_pair(truth: np.ndarray, pred: np.ndarray):
    """(pcc, r2) over one item's usable cells; None where undefined."""
    if truth.size < 2:
        return None, None
    return _pcc(truth, pred), _r2(truth, pred)


def _mean_defined(values, error):
    defined = [v for v in values if v is not None]
    if not defined:
        raise error
    return float(np.mean(defined))


def masked_mse_mae(pred, truth, mask) -> tuple[float, float]:
    pred, truth, keep = _aligned(pred, truth, mask)
    diff = pred[keep] - truth[keep]
    if diff.size == 0:
        raise AllMasked("every cell is masked")
    return float(np.mean(diff ** 2)), float(np.mean(np.abs(diff)))


def _aligned(pred, truth, mask):
    pred = _as_matrix("pred", pred)
    truth = _as_matrix("truth", truth)
    keep = ~np.asarray(mask, dtype=bool)
    if pred.shape != truth.shape or keep.shape != truth.shape:
        raise ShapeMismatch(
            f"shape mismatch: pred {pred.shape}, truth {truth.shape}, "
            f"mask {keep.shape}")
    return pred, truth, keep


def _column_stats(pred, truth, keep):
    """(pccs, r2s) of each column over its unmasked cells."""
    pairs = [_stat_pair(truth[keep[:, j], j], pred[keep[:, j], j])
             for j in range(truth.shape[1])]
    return [p for p, _ in pairs], [r for _, r in pairs]


def evaluate(pred, truth, mask, gene_ids: Sequence[str] | None = None,
             spot_ids: Sequence[str] | None = None) -> MetricsReport:
    """Compute all masked metrics for one evaluation split.

    pred/truth are [n_spots, n_genes]; mask is True where the truth value
    was imputed and must be ignored.
    """
    pred, truth, keep = _aligned(pred, truth, mask)
    n_spots, n_genes = truth.shape
    gene_ids = (tuple(f"g{j}" for j in range(n_genes))
                if gene_ids is None else tuple(gene_ids))
    spot_ids = (tuple(f"s{i}" for i in range(n_spots))
                if spot_ids is None else tuple(spot_ids))
    if len(gene_ids) != n_genes or len(spot_ids) != n_spots:
        raise ShapeMismatch("gene_ids/spot_ids do not match matrix shape")

    mse, mae = masked_mse_mae(pred, truth, ~keep)
    gene_pcc, gene_r2 = _column_stats(pred, truth, keep)
    # a patch is a spot: its statistics run across the genes
    patch_pcc, patch_r2 = _column_stats(pred.T, truth.T, keep.T)

    return MetricsReport(
        mse=mse,
        mae=mae,
        pcc_gene=_mean_defined(
            gene_pcc, AllGenesExcluded("no gene has a defined correlation")),
        pcc_patch=_mean_defined(
            patch_pcc, AllPatchesExcluded(
                "no patch has a defined correlation")),
        r2_gene=_mean_defined(
            gene_r2, AllGenesExcluded("no gene has truth variance")),
        r2_patch=_mean_defined(
            patch_r2, AllPatchesExcluded("no patch has truth variance")),
        gene_ids=gene_ids,
        spot_ids=spot_ids,
        per_gene_pcc=tuple(gene_pcc),
        per_gene_r2=tuple(gene_r2),
        per_patch_pcc=tuple(patch_pcc),
        per_patch_r2=tuple(patch_r2),
        n_excluded_genes=sum(1 for v in gene_r2 if v is None),
        n_excluded_patches=sum(1 for v in patch_r2 if v is None),
        n_masked=int((~keep).sum()),
    )


# ---------------------------------------------------------------------------
# report tables


# the summary statistics, in the order metrics.tsv and per_slide.tsv use
SUMMARY_FIELDS = ("mse", "mae", "pcc_gene", "pcc_patch", "r2_gene",
                  "r2_patch", "n_excluded_genes", "n_excluded_patches",
                  "n_masked")


def summary_row(report: MetricsReport) -> tuple:
    """The report's SUMMARY_FIELDS values, in that order."""
    return tuple(getattr(report, f) for f in SUMMARY_FIELDS)


def write_metrics_table(path, report: MetricsReport) -> None:
    ingest.write_table(path, "metrics", ("metric", "value"),
                       zip(SUMMARY_FIELDS, summary_row(report)))


def write_per_gene_table(path, report: MetricsReport) -> None:
    rows = [(g, report.per_gene_pcc[j], report.per_gene_r2[j])
            for j, g in enumerate(report.gene_ids)]
    ingest.write_table(path, "per_gene", ("gene_id", "pcc", "r2"), rows)


def read_per_gene_pccs(path) -> tuple[tuple[str, ...], tuple]:
    """(gene_ids, pccs) of a per-gene table, None for an empty cell; the
    PCCs were written with repr, so they read back to the same floats."""
    comments, header, rows = ingest.read_table(path)
    if comments.get("kind") != "per_gene" or header[:2] != ["gene_id", "pcc"]:
        raise MalformedRow(f"{path} is not a per-gene table")
    try:
        pccs = tuple(float(r[1]) if r[1] else None for r in rows)
    except (IndexError, ValueError):
        raise MalformedRow(f"{path}: a pcc cell is not a number") from None
    if any(v is not None and not -1.0 <= v <= 1.0 for v in pccs):
        raise MalformedRow(f"{path}: a pcc lies outside [-1, 1]")
    return tuple(r[0] for r in rows), pccs


def write_per_patch_table(path, report: MetricsReport) -> None:
    rows = [(s, report.per_patch_pcc[i], report.per_patch_r2[i])
            for i, s in enumerate(report.spot_ids)]
    ingest.write_table(path, "per_patch", ("spot_id", "pcc", "r2"), rows)


# ---------------------------------------------------------------------------
# figures


def pcc_histogram(gene_ids: Sequence[str], pccs: Sequence
                  ) -> list[tuple[float, float, int]]:
    """(bin_left, bin_right, count) rows with 0.05-wide bins over [-1, 1].

    Counts cover genes with a defined correlation (not None); the closing
    bin is right-inclusive so PCC = 1 lands in [0.95, 1.0].
    """
    n_bins = int(round(2.0 / HIST_BIN_WIDTH))
    edges = -1.0 + HIST_BIN_WIDTH * np.arange(n_bins + 1)
    counts = [0] * n_bins
    for _, v in zip(gene_ids, pccs, strict=True):
        if v is None:
            continue
        idx = min(int((v + 1.0) / HIST_BIN_WIDTH), n_bins - 1)
        counts[idx] += 1
    return [(float(edges[i]), float(edges[i + 1]), counts[i])
            for i in range(n_bins)]


def _ranked_genes(gene_ids: Sequence[str], pccs: Sequence) -> list[str]:
    """Defined-PCC gene ids, best correlation first, ties by gene id."""
    scored = [(g, v) for g, v in zip(gene_ids, pccs, strict=True)
              if v is not None]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return [g for g, _ in scored]


def write_pcc_histogram(path, gene_ids: Sequence[str], pccs: Sequence
                        ) -> Path:
    """Write the per-gene correlation histogram as a CSV; returns path."""
    path = Path(path)
    with ingest._open_write(path) as fh:
        fh.write("bin_left,bin_right,count\n")
        for left, right, count in pcc_histogram(gene_ids, pccs):
            fh.write(f"{ingest.fmt_float(left)},"
                     f"{ingest.fmt_float(right)},{count}\n")
    return path


def emit_figures(gene_ids: Sequence[str], pccs: Sequence, pred, truth, mask,
                 spots: SpotTable, geometry: str, outdir) -> list[Path]:
    """Write the histogram of pccs (pred vs truth per gene, None where
    undefined) and truth/prediction heatmaps of the two best and two worst
    genes; masked truth cells are drawn as missing.  The spots lie on the
    geometry's lattice.  Returns the paths.
    """
    outdir = Path(outdir)
    pred = _as_matrix("pred", pred)
    truth = _as_matrix("truth", truth)
    masked = np.asarray(mask, dtype=bool)
    if len(spots) != truth.shape[0]:
        raise ShapeMismatch("spots do not match matrix rows")

    written = [write_pcc_histogram(outdir / "pcc_hist.csv", gene_ids, pccs)]

    ranked = _ranked_genes(gene_ids, pccs)
    chosen = dict.fromkeys(ranked[:2] + ranked[-2:])
    index = {g: j for j, g in enumerate(gene_ids)}
    # every heatmap of the slide shares one spacing
    spacing = (spatial.min_pixel_spacing(spots, geometry) if len(spots) > 1
               else None)
    for gene in chosen:
        j = index[gene]
        for role, values, missing in (
                ("truth", truth[:, j], masked[:, j]),
                ("pred", pred[:, j], None)):
            ppm, csv = ingest.write_heatmap(
                outdir / f"{gene}_{role}.ppm", spots, values, spacing,
                missing)
            written.extend([ppm, csv])
    return written
