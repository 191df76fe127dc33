"""Median-based imputation of dropout zeros in log-space expression maps.

Spatial transcriptomics counts suffer pepper noise: zeros recorded where
transcripts were present but not captured.  Around every spot, the other
spots are grouped into rings by their lattice norm, the squared distance
on an exact lattice in lattice units: dc^2 + 3 dr^2 on hex_array and
dc^2 + dr^2 on square_grid for an array offset (dr, dc).  A spot's rings
are its seven nearest norm classes that hold a spot, so they come from
array positions alone and do not split when pixel positions are
registered, scaled or rounded.  Each zero cell is replaced by the median
of its gene's nonzero original values in the smallest set of cumulative
rings that holds at least one.  If all seven rings are blank the
replacement is the median of the gene map's nonzero entries.  A gene map
with no nonzero entries anywhere is left untouched and reported.

One template of array offsets, sorted by (norm, dr, dc), gives every
spot's rings through one lattice lookup; a spot whose seventh ring might
lie past the template makes the template grow, so the rings are exact.
The filler then takes a slide's zero cells one ring at a time, in blocks
of whole spots holding about IMPUTE_CELLS cells, so its scratch memory
does not grow with the slide.  All medians read the original map, so
earlier replacements never feed later ones, and the result does not
depend on spot order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .core import (
    DegenerateCoordinates,
    ExpressionMatrix,
    ImputationMask,
    ShapeMismatch,
    SpotTable,
    ValidationError,
    handed_over,
)
from .spatial import check_distinct_pixels, lattice_lookup

MAX_RINGS = 7
# (row weight, column weight) of each geometry's lattice norm
NORM_WEIGHTS = {"hex_array": (3, 1), "square_grid": (1, 1)}
# the norm of an interior spot's seventh ring: the first template's reach
FIRST_REACH = {"hex_array": 52, "square_grid": 10}
# zero cells gathered per pass; with at most ~100 ring members a pass
# holds a few MB of scratch
IMPUTE_CELLS = 2048


@dataclass(frozen=True)
class RadialNeighborhood:
    """Per-spot ring structure over one slide.

    members[i] lists spot i's ring members ring by ring, nearest ring
    first and by spot index within a ring, padded with -1.  Spot i's first
    k + 1 rings end at column ring_ends[i, k]; a ring the spot lacks ends
    where its last ring does.
    """

    n_spots: int
    members: np.ndarray    # [n_spots, width] int64
    ring_ends: np.ndarray  # [n_spots, max_rings] int64


def _template(geometry: str, reach: int) -> tuple[np.ndarray, np.ndarray]:
    """Every nonzero offset of lattice norm <= reach and its norm, sorted
    by (norm, dr, dc); so every norm class up to reach is whole."""
    wr, wc = NORM_WEIGHTS[geometry]
    hr, hc = isqrt(reach // wr), isqrt(reach // wc)
    dr, dc = np.meshgrid(np.arange(-hr, hr + 1), np.arange(-hc, hc + 1),
                         indexing="ij")
    dr, dc = dr.ravel(), dc.ravel()
    norm = wr * dr * dr + wc * dc * dc
    keep = (norm > 0) & (norm <= reach)
    dr, dc, norm = dr[keep], dc[keep], norm[keep]
    order = np.lexsort((dc, dr, norm))
    return np.column_stack((dr, dc))[order], norm[order]


def build_radial_neighborhoods(spots: SpotTable, geometry: str,
                               max_rings: int = MAX_RINGS
                               ) -> RadialNeighborhood:
    """Group every spot's neighbours into rings of equal lattice norm."""
    n = len(spots)
    if n < 2:
        raise DegenerateCoordinates(f"rings need at least 2 spots, got {n}")
    if geometry not in NORM_WEIGHTS:
        raise ValidationError(f"unknown geometry {geometry!r}")
    check_distinct_pixels(spots)
    wr, wc = NORM_WEIGHTS[geometry]
    span_r, span_c = np.ptp(spots.array, axis=0).tolist()
    # past this reach the template holds every other spot of the slide
    cover = wr * span_r * span_r + wc * span_c * span_c
    reach = FIRST_REACH[geometry]
    todo = np.arange(n)
    parts = []
    while todo.size:
        reach = min(reach, cover)
        offsets, norms = _template(geometry, reach)
        nb = lattice_lookup(spots, offsets, todo)
        present = nb >= 0
        starts = np.flatnonzero(np.r_[True, norms[1:] != norms[:-1]])
        cls = np.cumsum(np.r_[False, norms[1:] != norms[:-1]])
        # rank[s, c]: how many of the classes up to c hold one of s's spots
        rank = np.cumsum(np.logical_or.reduceat(present, starts, axis=1),
                         axis=1)
        done = (rank[:, -1] >= max_rings) | (reach == cover)
        nb, present, rank = nb[done], present[done], rank[done]
        ring = np.where(present, rank[:, cls], max_rings + 1)
        keep = ring <= max_rings
        width = int(keep.sum(axis=1).max(initial=0))
        members = np.full((len(nb), width), -1, dtype=np.int64)
        rows, cols = np.nonzero(keep)
        members[rows, np.cumsum(keep, axis=1)[rows, cols] - 1] = nb[rows, cols]
        ring_ends = np.empty((len(nb), max_rings), dtype=np.int64)
        for k in range(max_rings):
            ring_ends[:, k] = (ring <= k + 1).sum(axis=1)
        parts.append((todo[done], members, ring_ends))
        todo = todo[~done]
        reach *= 4
    width = max(m.shape[1] for _, m, _ in parts)
    members = np.full((n, width), -1, dtype=np.int64)
    ring_ends = np.zeros((n, max_rings), dtype=np.int64)
    for idx, m, e in parts:
        members[idx, :m.shape[1]] = m
        ring_ends[idx] = e
    return RadialNeighborhood(n, members, ring_ends)


def _row_medians(block: np.ndarray) -> np.ndarray:
    """np.median of each row's non-NaN entries (every row holds one), bit
    for bit: an odd count's (x + x) / 2 is x for x below 8.9e307."""
    block = np.sort(block, axis=1)  # NaNs sort last
    n = block.shape[1] - np.isnan(block).sum(axis=1)
    rows = np.arange(block.shape[0])
    return (block[rows, (n - 1) // 2] + block[rows, n // 2]) / 2


def _cell_blocks(unfilled: np.ndarray):
    """(spot, gene) index arrays of the unfilled cells, in runs of whole
    spots holding about IMPUTE_CELLS cells each."""
    per_spot = np.cumsum(unfilled.sum(axis=1))
    total = int(per_spot[-1]) if per_spot.size else 0
    # nondecreasing; a repeated bound makes an empty run, which yields
    # nothing
    bounds = np.r_[0, np.searchsorted(
        per_spot, np.arange(IMPUTE_CELLS, total, IMPUTE_CELLS)) + 1,
        len(unfilled)].tolist()
    for a, b in zip(bounds[:-1], bounds[1:]):
        spot, gene = np.nonzero(unfilled[a:b])
        if spot.size:
            yield spot + a, gene


def impute_gene_map(values: np.ndarray, rings: RadialNeighborhood
                    ) -> tuple[np.ndarray, int]:
    """Fill the zeros of a slide's [n_spots, n_genes] block, ring by ring.

    Returns the filled block and the number of cells that took their
    gene's slide-wide median.  Genes with no nonzero cell stay zero.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != rings.n_spots:
        raise ShapeMismatch(f"gene maps have {values.shape}, rings cover "
                            f"{rings.n_spots} spots")
    zero = values == 0.0
    has_value = ~zero.all(axis=0)
    # each gene's slide-wide median, worked out once a cell needs it
    fallback = np.zeros(values.shape[1])
    worked_out = np.zeros(values.shape[1], dtype=bool)
    has_ring = np.diff(rings.ring_ends, axis=1, prepend=0) > 0
    filled = values.copy()
    n_fallback = 0
    for spot, gene in _cell_blocks(zero & has_value):
        for k in range(rings.ring_ends.shape[1]):
            # a spot without ring k has no rings past it either
            here = np.flatnonzero(has_ring[spot, k])
            if not here.size:
                break
            end = rings.ring_ends[spot[here], k]
            width = int(end.max())
            # every median reads the nonzero originals: the zeros and the
            # slots past a spot's ring k are NaN
            near = values[rings.members[spot[here], :width],
                          gene[here, None]]
            near[(near == 0.0) | (np.arange(width) >= end[:, None])] = np.nan
            seen = ~np.isnan(near).all(axis=1)
            done = here[seen]
            filled[spot[done], gene[done]] = _row_medians(near[seen])
            left = np.ones(spot.size, dtype=bool)
            left[done] = False
            spot, gene = spot[left], gene[left]
        needed = np.zeros(values.shape[1], dtype=bool)
        needed[gene] = True
        new = np.flatnonzero(needed & ~worked_out)
        if new.size:
            block = values[:, new]
            block[block == 0.0] = np.nan
            fallback[new] = _row_medians(block.T)
            worked_out[new] = True
        filled[spot, gene] = fallback[gene]
        n_fallback += spot.size
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


def denoise_slide(matrix: ExpressionMatrix, spots: SpotTable, geometry: str
                  ) -> tuple[ExpressionMatrix, ImputationMask,
                             SlideImputationReport]:
    """Fill every gene map of one slide, whose spots lie on the geometry's
    lattice.  Expects log-space input."""
    if matrix.stage != "log1p":
        raise ValidationError(
            f"denoiser expects log1p input, got stage {matrix.stage!r}")
    if spots.spot_ids != matrix.spot_ids:
        raise ShapeMismatch(
            f"coordinates not aligned with matrix for {matrix.slide_id!r}")
    rings = build_radial_neighborhoods(spots, geometry)
    filled, n_fallback = impute_gene_map(matrix.values, rings)
    zero = matrix.values == 0.0
    empty = zero.all(axis=0)
    flags = zero & ~empty

    denoised = ExpressionMatrix(matrix.slide_id, matrix.gene_ids,
                                matrix.spot_ids, handed_over(filled),
                                "denoised")
    mask = ImputationMask(matrix.slide_id, matrix.gene_ids, matrix.spot_ids,
                          handed_over(flags))
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

