"""Masked regression metrics and figure-data emission.

Cells flagged by the imputation mask were filled in during preprocessing,
so every statistic here is computed over unmasked cells only.  Gene-wise
statistics pool all evaluation spots; patch-wise statistics run across the
gene dimension within each spot.  Items whose truth side has no variance
(or fewer than two usable cells) carry no defined statistic: they are
reported as missing and counted, never silently zeroed.  A column has no
variance when its spread is within the rounding of its own mean, judged
against its largest magnitude (MEAN_ROUNDING), so a constant column is
excluded whether or not its mean came out exact; a prediction column
without variance, by the same rule, leaves its item without a PCC.

Figure helpers take (gene_ids, pccs) as `evaluate` or a per-gene table
gives them, so drawing figures never scores again.
"""

from __future__ import annotations

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
# a column of n cells, truth or prediction, has no variance when the root
# mean square of its centred cells is within n * MEAN_ROUNDING of its
# largest magnitude: the mean of n values summed in turn can miss by
# (n - 1) * eps / 2 of that, so a constant column's centred cells can be
# so far from zero
MEAN_ROUNDING = float(np.finfo(np.float64).eps)


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


def _centred(x, keep, n):
    """x less its column means over the kept cells; zero elsewhere."""
    mean = np.sum(x, axis=0, where=keep) / n
    return np.subtract(x, mean, out=np.zeros_like(x), where=keep)


def _varies(x, keep, n, ss):
    """Whether each column of x, whose kept cells' centred values square
    to ss, spreads further than rounding its mean could leave of a
    constant (MEAN_ROUNDING)."""
    scale = np.max(np.abs(x), axis=0, where=keep, initial=0.0)
    return np.sqrt(ss / n) > MEAN_ROUNDING * n * scale


def _column_stats(pred, truth, keep):
    """(pccs, r2s) of every column over its unmasked cells, NaN where
    undefined.  A column without truth variance has neither; one cell is
    its own mean, so that covers columns of fewer than two cells.  A
    column without prediction variance, by the same rule, has no PCC."""
    # a fully masked column's mean is never read: none of its cells is kept
    n = np.maximum(keep.sum(axis=0), 1)
    z_t = _centred(truth, keep, n)
    z_p = _centred(pred, keep, n)
    ss_t = np.sum(z_t * z_t, axis=0)
    ss_p = np.sum(z_p * z_p, axis=0)
    cross = np.sum(z_t * z_p, axis=0)
    del z_t, z_p
    res = np.sum((pred - truth) ** 2, axis=0, where=keep)
    scored = _varies(truth, keep, n, ss_t)
    pccs = np.clip(np.divide(cross, np.sqrt(ss_t * ss_p),
                             out=np.full(ss_t.shape, np.nan),
                             where=scored & _varies(pred, keep, n, ss_p)),
                   -1.0, 1.0)
    r2s = 1.0 - np.divide(res, ss_t, out=np.full(ss_t.shape, np.nan),
                          where=scored)
    return pccs, r2s


def _mean_defined(values, error):
    defined = values[~np.isnan(values)]
    if not defined.size:
        raise error
    return float(np.mean(defined))


def _optional(values) -> tuple:
    """The values as floats, None where NaN (undefined)."""
    return tuple(np.where(np.isnan(values), None, values).tolist())


def evaluate(pred, truth, mask, gene_ids: Sequence[str] | None = None,
             spot_ids: Sequence[str] | None = None) -> MetricsReport:
    """Compute all masked metrics for one evaluation split.

    pred/truth are [n_spots, n_genes]; mask is True where the truth value
    was imputed and must be ignored.
    """
    pred = _as_matrix("pred", pred)
    truth = _as_matrix("truth", truth)
    keep = ~np.asarray(mask, dtype=bool)
    if pred.shape != truth.shape or keep.shape != truth.shape:
        raise ShapeMismatch(
            f"shape mismatch: pred {pred.shape}, truth {truth.shape}, "
            f"mask {keep.shape}")
    n_spots, n_genes = truth.shape
    gene_ids = (tuple(f"g{j}" for j in range(n_genes))
                if gene_ids is None else tuple(gene_ids))
    spot_ids = (tuple(f"s{i}" for i in range(n_spots))
                if spot_ids is None else tuple(spot_ids))
    if len(gene_ids) != n_genes or len(spot_ids) != n_spots:
        raise ShapeMismatch("gene_ids/spot_ids do not match matrix shape")

    diff = pred[keep] - truth[keep]
    if diff.size == 0:
        raise AllMasked("every cell is masked")
    mse, mae = float(np.mean(diff ** 2)), float(np.mean(np.abs(diff)))
    del diff
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
        per_gene_pcc=_optional(gene_pcc),
        per_gene_r2=_optional(gene_r2),
        per_patch_pcc=_optional(patch_pcc),
        per_patch_r2=_optional(patch_r2),
        n_excluded_genes=int(np.isnan(gene_r2).sum()),
        n_excluded_patches=int(np.isnan(patch_r2).sum()),
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


def write_per_gene_table(path, report: MetricsReport, slide_id=None) -> None:
    ingest.write_table(path, "per_gene", ("gene_id", "pcc", "r2"),
                       zip(report.gene_ids, report.per_gene_pcc,
                           report.per_gene_r2), slide_id)


def read_per_gene_pccs(path, slide_id=None) -> tuple[tuple[str, ...], tuple]:
    """(gene_ids, pccs) of slide_id's per-gene table (None: the pooled one),
    None for an empty cell; repr wrote the PCCs, so they read back exactly."""
    comments, header, rows = ingest.read_table(path)
    if comments.get("kind") != "per_gene" or header[:2] != ["gene_id", "pcc"]:
        raise MalformedRow(f"{path} is not a per-gene table")
    ingest.expect_slide(path, comments.get("slide"), slide_id, "eval")
    try:
        pccs = tuple(float(r[1]) if r[1] else None for r in rows)
    except (IndexError, ValueError):
        raise MalformedRow(f"{path}: a pcc cell is not a number") from None
    if any(v is not None and not -1.0 <= v <= 1.0 for v in pccs):
        raise MalformedRow(f"{path}: a pcc lies outside [-1, 1]")
    return tuple(r[0] for r in rows), pccs


def write_per_patch_table(path, report: MetricsReport) -> None:
    ingest.write_table(path, "per_patch", ("spot_id", "pcc", "r2"),
                       zip(report.spot_ids, report.per_patch_pcc,
                           report.per_patch_r2))


# ---------------------------------------------------------------------------
# figures


def pcc_histogram(gene_ids: Sequence[str], pccs: Sequence
                  ) -> list[tuple[float, float, int]]:
    """(bin_left, bin_right, count) rows with 0.05-wide bins over [-1, 1].

    Counts cover genes with a defined correlation (not None); the closing
    bin is right-inclusive so PCC = 1 lands in [0.95, 1.0].
    """
    if len(gene_ids) != len(pccs):
        raise ValueError(f"{len(gene_ids)} gene ids for {len(pccs)} pccs")
    n_bins = int(round(2.0 / HIST_BIN_WIDTH))
    edges = -1.0 + HIST_BIN_WIDTH * np.arange(n_bins + 1)
    v = np.array(pccs, dtype=float)  # None reads as NaN
    v = v[~np.isnan(v)]
    # truncation, as int() does: every v + 1 is at least 0
    idx = np.minimum(((v + 1.0) / HIST_BIN_WIDTH).astype(np.int64),
                     n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins)
    return list(zip(edges[:-1].tolist(), edges[1:].tolist(),
                    counts.tolist()))


def _ranked_genes(gene_ids: Sequence[str], pccs: Sequence) -> list[int]:
    """Columns of the defined-PCC genes, best correlation first, ties by
    gene id."""
    v = np.array(pccs, dtype=float)  # None reads as NaN
    defined = np.flatnonzero(~np.isnan(v))
    order = np.lexsort((np.array(gene_ids, dtype=str)[defined],
                        -v[defined]))
    return defined[order].tolist()


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
    # every heatmap of the slide shares one spacing
    spacing = (spatial.min_pixel_spacing(spots, geometry) if len(spots) > 1
               else None)
    for j in dict.fromkeys(ranked[:2] + ranked[-2:]):
        gene = gene_ids[j]
        for role, values, missing in (
                ("truth", truth[:, j], masked[:, j]),
                ("pred", pred[:, j], None)):
            ppm, csv = ingest.write_heatmap(
                outdir / f"{gene}_{role}.ppm", spots, values, spacing,
                missing)
            written.extend([ppm, csv])
    return written
