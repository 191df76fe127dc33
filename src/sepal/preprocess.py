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
judged within each slide.  Training supervises each gene's difference from
its train-split mean, see compute_train_mean.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import (
    AllGenesRemoved,
    AllSpotsRemoved,
    EmptyTrainSplit,
    ExpressionMatrix,
    GeneSetMismatch,
    ValidationError,
)


def _common_genes(matrices: Sequence[ExpressionMatrix]) -> tuple[str, ...]:
    genes = matrices[0].gene_ids
    for m in matrices[1:]:
        if m.gene_ids != genes:
            raise GeneSetMismatch(
                f"slide {m.slide_id!r} gene panel differs from "
                f"{matrices[0].slide_id!r}")
    return genes


def filter_by_counts(
    matrices: Sequence[ExpressionMatrix],
    spot_range: tuple[float, float],
    gene_range: tuple[float, float],
) -> tuple[list[ExpressionMatrix], list[tuple[str, str, str, float]]]:
    """Drop spots per slide, then genes pooled, whose total counts fall
    outside the inclusive (min, max) spot_range or gene_range.

    Returns the filtered matrices (stage "filtered") and a removal log of
    (kind, slide_id, item_id, total_counts) rows, spots first, in input
    order.  Gene totals are computed after spot removal, pooled across
    slides.  Raises AllSpotsRemoved / AllGenesRemoved when a slide or the
    panel empties out.
    """
    if not matrices:
        raise ValidationError("no matrices to filter")
    genes = _common_genes(matrices)
    removed: list[tuple[str, str, str, float]] = []

    kept_spots: list[ExpressionMatrix] = []
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
        kept_spots.append(m.subset_spots(np.nonzero(keep)[0]))

    gene_totals = np.zeros(len(genes), dtype=np.float64)
    for m in kept_spots:
        gene_totals += m.values.sum(axis=0)
    keep_genes = ((gene_totals >= gene_range[0])
                  & (gene_totals <= gene_range[1]))
    for j in np.nonzero(~keep_genes)[0]:
        removed.append(("gene", "*", genes[j], float(gene_totals[j])))
    if not keep_genes.any():
        raise AllGenesRemoved("count filter removed every gene")
    kept_ids = [g for g, k in zip(genes, keep_genes) if k]

    out = []
    for m in kept_spots:
        sub = m.subset_genes(kept_ids)
        out.append(sub.with_values(sub.values, "filtered"))
    return out, removed


def filter_by_sparsity(
    matrices: Sequence[ExpressionMatrix],
    eps_total: float,
    eps_wsi: float,
) -> tuple[list[str], list[tuple[str, str, float, float]]]:
    """Keep genes detected in at least eps_total percent of all spots
    pooled, and at least eps_wsi percent of the spots of every slide.

    Detection means a strictly positive value.  Returns (kept gene ids in
    panel order, removal log of (gene_id, failed_scope, pct, threshold)).
    Raises ValidationError when either percentage lies outside [0, 100].
    """
    if not matrices:
        raise ValidationError("no matrices to filter")
    for name, v in (("eps_total", eps_total), ("eps_wsi", eps_wsi)):
        if not 0.0 <= v <= 100.0:
            raise ValidationError(f"{name} must lie in [0, 100], got {v}")
    genes = _common_genes(matrices)

    n_total = sum(m.n_spots for m in matrices)
    pos_total = np.zeros(len(genes), dtype=np.float64)
    per_slide_pct: list[tuple[str, np.ndarray]] = []
    for m in matrices:
        pos = (m.values > 0).sum(axis=0).astype(np.float64)
        pos_total += pos
        per_slide_pct.append((m.slide_id, 100.0 * pos / m.n_spots))
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


def tpm_normalize(matrix: ExpressionMatrix) -> ExpressionMatrix:
    """Scale each spot to counts-per-million.

    Each spot row is scaled so its counts sum to 1e6.  Spots with zero
    total stay all-zero rather than dividing by zero.
    """
    if matrix.stage not in ("raw_counts", "filtered"):
        raise ValidationError(
            f"tpm expects count data, got stage {matrix.stage!r}")
    totals = matrix.values.sum(axis=1, keepdims=True)
    safe = np.where(totals > 0, totals, 1.0)
    out = matrix.values / safe * 1e6
    return matrix.with_values(out, "tpm")


def log_transform(matrix: ExpressionMatrix) -> ExpressionMatrix:
    """Elementwise log2(x + 1) on a tpm matrix."""
    if matrix.stage != "tpm":
        raise ValidationError(
            f"log transform expects tpm, got stage {matrix.stage!r}")
    return matrix.with_values(np.log2(matrix.values + 1.0), "log1p")


def center_per_slide(matrices: Sequence[ExpressionMatrix]
                     ) -> list[ExpressionMatrix]:
    """Subtract each slide's own per-gene mean.  Output stays at the
    input stage tag only if already "denoised"; centered log1p values can
    go negative so the result is tagged "denoised"."""
    out = []
    for m in matrices:
        centered = m.values - m.values.mean(axis=0, keepdims=True)
        out.append(ExpressionMatrix(m.slide_id, m.gene_ids, m.spot_ids,
                                    centered, "denoised"))
    return out


def compute_train_mean(train: Sequence[ExpressionMatrix]) -> np.ndarray:
    """Per-gene mean over every spot of the train-split matrices, pooled."""
    if not train:
        raise EmptyTrainSplit("no train-split matrices")
    genes = _common_genes(train)
    total = np.zeros(len(genes), dtype=np.float64)
    n = 0
    for m in train:
        total += m.values.sum(axis=0)
        n += m.n_spots
    return total / n
