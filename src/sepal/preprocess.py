"""Count filtering, normalization, and the train-split gene mean.

The preprocessing chain runs in a fixed order on raw count matrices:

  1. filter_by_counts      drop spots, then genes, whose total counts fall
                           outside configured [min, max] ranges
  2. filter_by_sparsity    drop genes expressed in too few spots, judged
                           both pooled over all slides and per slide
  3. tpm_normalize         counts scaled to one million per spot
  4. log_transform         log2(x + 1)
  5. center_per_slide      optional per-slide gene mean removal

Log-space input skips steps 1, 3 and 4.  Gene totals and sparsity are
judged over the pooled spot population of all slides; spot totals are
judged within each slide.

The work goes in three passes, so that a dataset is held once:

  statistics   per slide: each spot's total, then over the spots kept
               each gene's total, then over the cells kept each gene's
               detection count; no matrix is copied whole
  decisions    filter_dataset pools the statistics into the kept rows of
               each slide and the kept genes, and the filter log
  output       slide by slide, kept_log1p takes the kept spots x kept
               genes as one fresh array, CPM and log overwrite it in
               place, and it is wrapped once as the log1p matrix; the
               caller writes the slide and lets it go

Training supervises each gene's difference from its train-split mean, see
compute_train_mean.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import (
    AllGenesRemoved,
    AllSpotsRemoved,
    DatasetManifest,
    EmptySplit,
    ExpressionMatrix,
    GeneSetMismatch,
    ValidationError,
    common_genes,
    handed_over,
    rows_of,
)


def _kept_rows(values: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
    """values' rows at rows, or values itself when every row is kept."""
    if rows is None or len(rows) == len(values):
        return values
    return values[rows]


def filter_by_counts(
    matrices: Sequence[ExpressionMatrix],
    spot_range: tuple[float, float],
    gene_range: tuple[float, float],
) -> tuple[list[np.ndarray], np.ndarray, list[tuple[str, str, str, float]]]:
    """Decide which spots of each slide, then which genes pooled, have
    total counts inside the inclusive (min, max) spot_range and gene_range.

    Returns (rows, columns, removed): each slide's kept rows and the kept
    gene columns, as ascending index arrays, and a removal log of (kind,
    slide_id, item_id, total_counts) rows, spots first, in input order.
    Gene totals are summed over the kept spots, pooled across slides; a
    slide's kept rows are the only copy made, one slide at a time.  Raises
    AllSpotsRemoved / AllGenesRemoved when a slide or the panel empties
    out.
    """
    if not matrices:
        raise ValidationError("no matrices to filter")
    genes = common_genes(matrices)
    removed: list[tuple[str, str, str, float]] = []

    rows = []
    for m in matrices:
        if m.stage != "raw_counts":
            raise ValidationError(
                f"count filter expects raw_counts, got {m.stage!r}")
        totals = m.values.sum(axis=1)
        keep = (totals >= spot_range[0]) & (totals <= spot_range[1])
        for i in np.nonzero(~keep)[0]:
            removed.append(("spot", m.slide_id, m.spot_ids[i],
                            float(totals[i])))
        if not keep.any():
            raise AllSpotsRemoved(
                f"count filter removed every spot of {m.slide_id!r}")
        rows.append(np.flatnonzero(keep))

    gene_totals = np.zeros(len(genes), dtype=np.float64)
    for m, kept in zip(matrices, rows):
        gene_totals += _kept_rows(m.values, kept).sum(axis=0)
    keep_genes = ((gene_totals >= gene_range[0])
                  & (gene_totals <= gene_range[1]))
    for j in np.nonzero(~keep_genes)[0]:
        removed.append(("gene", "*", genes[j], float(gene_totals[j])))
    if not keep_genes.any():
        raise AllGenesRemoved("count filter removed every gene")
    return rows, np.flatnonzero(keep_genes), removed


def filter_by_sparsity(
    matrices: Sequence[ExpressionMatrix],
    eps_total: float,
    eps_wsi: float,
    rows: Sequence[np.ndarray] | None = None,
    columns: np.ndarray | None = None,
) -> tuple[list[str], list[tuple[str, str, float, float]]]:
    """Keep genes detected in at least eps_total percent of all spots
    pooled, and at least eps_wsi percent of the spots of every slide.

    Detection means a strictly positive value.  Given a count filter's
    decisions, only the cells it kept count: each slide's rows, and the
    gene columns, the only genes judged.  Returns (kept gene ids in panel
    order, removal log of (gene_id, failed_scope, pct, threshold)).
    Raises ValidationError when either percentage lies outside [0, 100].
    """
    if not matrices:
        raise ValidationError("no matrices to filter")
    for name, v in (("eps_total", eps_total), ("eps_wsi", eps_wsi)):
        if not 0.0 <= v <= 100.0:
            raise ValidationError(f"{name} must lie in [0, 100], got {v}")
    genes = common_genes(matrices)
    if columns is not None:
        genes = tuple(genes[j] for j in columns.tolist())

    n_total = 0
    pos_total = np.zeros(len(genes), dtype=np.float64)
    per_slide_pct: list[tuple[str, np.ndarray]] = []
    for k, m in enumerate(matrices):
        detected = _kept_rows(m.values > 0, None if rows is None else rows[k])
        pos = detected.sum(axis=0)
        if columns is not None:
            pos = pos[columns]
        pos = pos.astype(np.float64)
        n_total += len(detected)
        pos_total += pos
        per_slide_pct.append((m.slide_id, 100.0 * pos / len(detected)))
    total_pct = 100.0 * pos_total / n_total

    kept: list[str] = []
    removed: list[tuple[str, str, float, float]] = []
    for j, g in enumerate(genes):
        if total_pct[j] < eps_total:
            removed.append((g, "total", float(total_pct[j]), eps_total))
            continue
        low = [(sid, pct[j]) for sid, pct in per_slide_pct
               if pct[j] < eps_wsi]
        if low:
            sid, pct = min(low, key=lambda t: (t[1], t[0]))
            removed.append((g, sid, float(pct), eps_wsi))
            continue
        kept.append(g)
    if not kept:
        raise AllGenesRemoved("sparsity filter removed every gene")
    return kept, removed


def filter_dataset(matrices: Sequence[ExpressionMatrix],
                   manifest: DatasetManifest
                   ) -> tuple[list[np.ndarray | None], list[str], list[tuple]]:
    """The count filter, on raw counts, then the sparsity filter, at the
    manifest's thresholds.

    Returns (rows, gene_ids, log): each slide's kept rows (None for every
    slide of log-space input, which no count filter sees), the kept gene
    ids in panel order, and the rows of preprocess/filter_log.tsv, as
    (kind, scope, item_id, value, threshold).
    """
    log: list[tuple] = []
    rows, columns = None, None
    if matrices and matrices[0].stage == "raw_counts":
        rows, columns, count_log = filter_by_counts(
            matrices, (manifest.count_min_spot, manifest.count_max_spot),
            (manifest.count_min_gene, manifest.count_max_gene))
        log += [(kind, slide, item, total, "")
                for kind, slide, item, total in count_log]
    kept, sparsity_log = filter_by_sparsity(
        matrices, manifest.eps_total, manifest.eps_wsi, rows, columns)
    log += [("gene_sparsity", scope, gene, pct, threshold)
            for gene, scope, pct, threshold in sparsity_log]
    return rows or [None] * len(matrices), kept, log


def kept_log1p(matrix: ExpressionMatrix, rows: np.ndarray | None,
               gene_ids: Sequence[str]) -> ExpressionMatrix:
    """One slide's output: log-space input at the kept genes, or raw
    counts at the kept rows and genes, taken as one block that CPM and
    log2(x + 1) then overwrite."""
    if rows is None:
        return matrix.subset_genes(gene_ids)
    cols = rows_of(matrix.gene_ids, gene_ids, lambda missing: (
        GeneSetMismatch(f"genes {missing[:5]} absent from {matrix.slide_id}")))
    block = matrix.values[np.ix_(rows, cols)]
    return ExpressionMatrix(
        matrix.slide_id, gene_ids,
        [matrix.spot_ids[i] for i in rows.tolist()],
        handed_over(log_transform(tpm_normalize(block))), "log1p")


def tpm_normalize(counts: np.ndarray) -> np.ndarray:
    """Scale each spot row of counts, in place, to counts-per-million, and
    return counts.  A spot with zero total stays all-zero rather than
    dividing by zero."""
    totals = counts.sum(axis=1, keepdims=True)
    counts /= np.where(totals > 0, totals, 1.0)
    counts *= 1e6
    return counts


def log_transform(values: np.ndarray) -> np.ndarray:
    """Elementwise log2(x + 1), in place; returns values."""
    values += 1.0
    return np.log2(values, out=values)


def center_per_slide(m: ExpressionMatrix) -> ExpressionMatrix:
    """Subtract the slide's own per-gene mean.  Centered log1p values can
    go negative, so the result is tagged "denoised" whatever the input."""
    centered = m.values - m.values.mean(axis=0, keepdims=True)
    return ExpressionMatrix(m.slide_id, m.gene_ids, m.spot_ids,
                            handed_over(centered), "denoised")


def compute_train_mean(train: Sequence[ExpressionMatrix]) -> np.ndarray:
    """Per-gene mean over every spot of the train-split matrices, pooled."""
    if not train:
        raise EmptySplit("no train-split matrices")
    total = np.zeros(len(common_genes(train)), dtype=np.float64)
    n = 0
    for m in train:
        total += m.values.sum(axis=0)
        n += m.n_spots
    return total / n
