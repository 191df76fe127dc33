"""Median-based imputation of dropout zeros in log-space expression maps.

Spatial transcriptomics counts suffer pepper noise: zeros recorded where
transcripts were present but not captured.  The filler works per slide and
per gene.  Around every spot, the other spots are grouped into rings by
their rounded pairwise pixel distance, nearest first, keeping at most the
seven closest distinct distances.  A zero cell is replaced by the median of
the nonzero original values found in the smallest set of cumulative rings
that contains at least one nonzero; if all seven rings are blank the
replacement is the median of the gene map's nonzero entries.  A gene map
with no nonzero entries anywhere is left untouched and reported.

All medians read the original map, so earlier replacements never feed
later ones, and the result does not depend on spot visit order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DegenerateCoordinates,
    ExpressionMatrix,
    ImputationMask,
    ShapeMismatch,
    SpotRecord,
    ValidationError,
)
from .spatial import DISTANCE_DECIMALS, pixel_distance_rows

MAX_RINGS = 7


@dataclass(frozen=True)
class RadialNeighborhood:
    """Per-spot ring structure over one slide.

    ring_members[i][k] holds the indices of the spots in spot i's k-th
    ring (k ascending by distance, at most MAX_RINGS rings).
    """

    n_spots: int
    ring_members: tuple[tuple[np.ndarray, ...], ...]
    ring_distances: tuple[tuple[float, ...], ...]


def build_radial_neighborhoods(spots: Sequence[SpotRecord],
                               max_rings: int = MAX_RINGS
                               ) -> RadialNeighborhood:
    """Group every spot's neighbors into rings of equal rounded distance."""
    spots = list(spots)
    if len(spots) < 2:
        raise DegenerateCoordinates(
            f"rings need at least 2 spots, got {len(spots)}")
    members_all: list[tuple[np.ndarray, ...]] = []
    dists_all: list[tuple[float, ...]] = []
    for row in pixel_distance_rows(spots):
        row = np.round(row, DISTANCE_DECIMALS)
        # ties resolve by index; the spot itself is at 0.0, so it sorts
        # first and is dropped, and a second 0.0 is a coincident spot
        order = np.argsort(row, kind="stable")
        if row[order[1]] == 0.0:
            a, b = (spots[k].spot_id for k in order[:2])
            raise DegenerateCoordinates(
                f"{spots[0].slide_id!r}: spots {a!r} and {b!r} share a "
                f"pixel position")
        order = order[1:]
        d = row[order]
        # d is sorted: a ring starts wherever its distance changes
        starts = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
        bounds = np.append(starts, d.size)[:max_rings + 1]
        members_all.append(tuple(order[a:b].copy()
                                 for a, b in zip(bounds[:-1], bounds[1:])))
        dists_all.append(tuple(float(x) for x in d[bounds[:-1]]))
    return RadialNeighborhood(len(spots), tuple(members_all), tuple(dists_all))


@dataclass(frozen=True)
class GeneImputation:
    """Outcome of filling one gene map."""

    values: np.ndarray
    flags: np.ndarray
    n_zero: int
    n_imputed: int
    n_fallback: int
    nothing_to_impute: bool


def impute_gene_map(values: np.ndarray, rings: RadialNeighborhood
                    ) -> GeneImputation:
    """Fill the zeros of one gene map from its nonzero neighborhood."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (rings.n_spots,):
        raise ShapeMismatch(
            f"gene map has {values.shape}, rings cover {rings.n_spots} spots")
    zero_idx = np.nonzero(values == 0.0)[0]
    nonzero = values[values != 0.0]
    out = values.copy()
    flags = np.zeros(rings.n_spots, dtype=np.bool_)

    if nonzero.size == 0:
        return GeneImputation(out, flags, int(zero_idx.size), 0, 0,
                              nothing_to_impute=zero_idx.size > 0)

    fallback = float(np.median(nonzero))
    n_fallback = 0
    for i in zero_idx:
        collected: list[float] = []
        filled = False
        for members in rings.ring_members[i]:
            ring_vals = values[members]
            collected.extend(ring_vals[ring_vals != 0.0])
            if collected:
                out[i] = float(np.median(collected))
                filled = True
                break
        if not filled:
            out[i] = fallback
            n_fallback += 1
        flags[i] = True
    return GeneImputation(out, flags, int(zero_idx.size),
                          int(zero_idx.size), n_fallback,
                          nothing_to_impute=False)


@dataclass(frozen=True)
class SlideImputationReport:
    slide_id: str
    n_cells: int
    n_zero: int
    n_imputed: int
    n_fallback: int
    genes_nothing_to_impute: tuple[str, ...]

    @property
    def imputed_fraction(self) -> float:
        return self.n_imputed / self.n_cells if self.n_cells else 0.0


def denoise_slide(matrix: ExpressionMatrix, spots: Sequence[SpotRecord]
                  ) -> tuple[ExpressionMatrix, ImputationMask,
                             SlideImputationReport]:
    """Fill every gene map of one slide.  Expects log-space input."""
    if matrix.stage != "log1p":
        raise ValidationError(
            f"denoiser expects log1p input, got stage {matrix.stage!r}")
    spots = list(spots)
    if tuple(s.spot_id for s in spots) != matrix.spot_ids:
        raise ShapeMismatch(
            f"coordinates not aligned with matrix for {matrix.slide_id!r}")
    rings = build_radial_neighborhoods(spots)

    out = np.empty_like(matrix.values)
    flags = np.zeros(matrix.values.shape, dtype=np.bool_)
    n_zero = n_imputed = n_fallback = 0
    empty_genes: list[str] = []
    for j, gene in enumerate(matrix.gene_ids):
        r = impute_gene_map(matrix.values[:, j], rings)
        out[:, j] = r.values
        flags[:, j] = r.flags
        n_zero += r.n_zero
        n_imputed += r.n_imputed
        n_fallback += r.n_fallback
        if r.nothing_to_impute:
            empty_genes.append(gene)

    denoised = ExpressionMatrix(matrix.slide_id, matrix.gene_ids,
                                matrix.spot_ids, out, "denoised")
    mask = ImputationMask(matrix.slide_id, matrix.gene_ids, matrix.spot_ids,
                          flags)
    report = SlideImputationReport(
        slide_id=matrix.slide_id,
        n_cells=int(matrix.values.size),
        n_zero=n_zero,
        n_imputed=n_imputed,
        n_fallback=n_fallback,
        genes_nothing_to_impute=tuple(empty_genes),
    )
    return denoised, mask, report

