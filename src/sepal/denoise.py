"""Median-based imputation of dropout zeros in log-space expression maps.

Spatial transcriptomics counts suffer pepper noise: zeros recorded where
transcripts were present but not captured.  The filler takes one slide's
whole [spots, genes] block in one pass over its spots.  Around every spot,
the other spots are grouped into rings by their rounded pairwise pixel
distance, nearest first, keeping at most the seven closest distinct
distances.  At a spot, each zero cell is replaced by the median of its
gene's nonzero original values in the smallest set of cumulative rings
that holds at least one; the rings grow only for the genes still unfilled.
If all seven rings are blank the replacement is the median of the gene
map's nonzero entries.  A gene map with no nonzero entries anywhere is
left untouched and reported.

All medians read the original map, so earlier replacements never feed
later ones, and the result does not depend on spot visit order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DegenerateCoordinates,
    ExpressionMatrix,
    ImputationMask,
    ShapeMismatch,
    SpotTable,
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


def build_radial_neighborhoods(spots: SpotTable,
                               max_rings: int = MAX_RINGS
                               ) -> RadialNeighborhood:
    """Group every spot's neighbors into rings of equal rounded distance."""
    if len(spots) < 2:
        raise DegenerateCoordinates(
            f"rings need at least 2 spots, got {len(spots)}")
    members_all: list[tuple[np.ndarray, ...]] = []
    for row in pixel_distance_rows(spots):
        row = np.round(row, DISTANCE_DECIMALS)
        # ties resolve by index; the spot itself is at 0.0, so it sorts
        # first and is dropped, and a second 0.0 is a coincident spot
        order = np.argsort(row, kind="stable")
        if row[order[1]] == 0.0:
            a, b = (spots.spot_ids[k] for k in order[:2])
            raise DegenerateCoordinates(
                f"{spots.slide_id!r}: spots {a!r} and {b!r} share a "
                f"pixel position")
        order = order[1:]
        d = row[order]
        # d is sorted: a ring starts wherever its distance changes
        starts = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
        bounds = np.append(starts, d.size)[:max_rings + 1]
        members_all.append(tuple(order[a:b].copy()
                                 for a, b in zip(bounds[:-1], bounds[1:])))
    return RadialNeighborhood(len(spots), tuple(members_all))


def _column_medians(block: np.ndarray) -> np.ndarray:
    """np.median of each column's non-NaN entries (every column holds one),
    bit for bit: an odd count's (x + x) / 2 is x for x below 8.9e307."""
    block = np.sort(block, axis=0)  # NaNs sort last
    n = block.shape[0] - np.isnan(block).sum(axis=0)
    cols = np.arange(block.shape[1])
    return (block[(n - 1) // 2, cols] + block[n // 2, cols]) / 2


def impute_gene_map(values: np.ndarray, rings: RadialNeighborhood
                    ) -> tuple[np.ndarray, int]:
    """Fill the zeros of a slide's [n_spots, n_genes] block, spot by spot.

    Returns the filled block and the number of cells that took their
    gene's slide-wide median.  Genes with no nonzero cell stay zero.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != rings.n_spots:
        raise ShapeMismatch(f"gene maps have {values.shape}, rings cover "
                            f"{rings.n_spots} spots")
    zero = values == 0.0
    # the nonzero originals, NaN in zero cells: every median reads these
    known = np.where(zero, np.nan, values)
    has_value = ~zero.all(axis=0)
    fallback = np.zeros(values.shape[1])
    fallback[has_value] = _column_medians(known[:, has_value])
    unfilled = zero & has_value
    filled = values.copy()
    n_fallback = 0
    for i in np.flatnonzero(unfilled.any(axis=1)):
        todo = np.flatnonzero(unfilled[i])
        members = rings.ring_members[i]
        near = known[np.concatenate(members)[:, None], todo]
        end = 0
        for ring in members:
            end += ring.size
            seen = ~np.isnan(near[:end]).all(axis=0)
            if seen.any():
                filled[i, todo[seen]] = _column_medians(near[:end, seen])
                todo, near = todo[~seen], near[:, ~seen]
                if not todo.size:
                    break
        filled[i, todo] = fallback[todo]
        n_fallback += todo.size
    return filled, n_fallback


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


def denoise_slide(matrix: ExpressionMatrix, spots: SpotTable
                  ) -> tuple[ExpressionMatrix, ImputationMask,
                             SlideImputationReport]:
    """Fill every gene map of one slide.  Expects log-space input."""
    if matrix.stage != "log1p":
        raise ValidationError(
            f"denoiser expects log1p input, got stage {matrix.stage!r}")
    if spots.spot_ids != matrix.spot_ids:
        raise ShapeMismatch(
            f"coordinates not aligned with matrix for {matrix.slide_id!r}")
    rings = build_radial_neighborhoods(spots)
    filled, n_fallback = impute_gene_map(matrix.values, rings)
    zero = matrix.values == 0.0
    empty = zero.all(axis=0)
    flags = zero & ~empty

    denoised = ExpressionMatrix(matrix.slide_id, matrix.gene_ids,
                                matrix.spot_ids, filled, "denoised")
    mask = ImputationMask(matrix.slide_id, matrix.gene_ids, matrix.spot_ids,
                          flags)
    report = SlideImputationReport(
        slide_id=matrix.slide_id,
        n_cells=int(matrix.values.size),
        n_zero=int(zero.sum()),
        n_imputed=int(flags.sum()),
        n_fallback=n_fallback,
        genes_nothing_to_impute=tuple(
            g for g, e in zip(matrix.gene_ids, empty) if e),
    )
    return denoised, mask, report

