"""Spot lattices, adjacency and spatial autocorrelation.

Each function here takes one slide's SpotTable, whose array positions are
distinct and whose rows are in canonical order; a spot's row in the table
is its node id.  Every neighbourhood comes from the array lattice:
lattice_lookup turns a list of (drow, dcol) offsets into each spot's
neighbour at each offset through one dense grid index of the array
positions, so T offsets cost O(n T) and no stage compares every pair of
spots.  Two geometries are supported:

  hex_array     neighbors at array offsets (0, +-2), (+-1, +-1); the
                column axis advances in steps of two so interior spots
                have six neighbors
  square_grid   neighbors at offsets (0, +-1), (+-1, 0)

Adjacency is binary and symmetric, stored as a deduplicated (i, j) edge
list with i < j.  Pixel positions enter in two places only:
check_distinct_pixels refuses two spots that share a pixel position to
DISTANCE_DECIMALS places, by sorting the rounded positions, and
min_pixel_spacing, the spacing heatmaps draw their discs at, is the
shortest pixel length over the slide's adjacency edges.

Autocorrelation per gene map x over N spots with weight sum W:

    I = (N / W) * sum_ij w_ij (x_i - mean) (x_j - mean) / sum_i (x_i - mean)^2

With binary symmetric weights W is twice the edge count, so the score
reduces to an edge-list sum.  A constant map has no defined score and
yields None rather than a number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import (
    DegenerateCoordinates,
    EmptyAdjacency,
    ExpressionMatrix,
    ShapeMismatch,
    SpotTable,
    TooFewGenes,
    ValidationError,
    common_genes,
)

DISTANCE_DECIMALS = 6
# the grid index holds one cell per array position in the slide's window;
# a window past this many cells (and 64 per spot) is not a spot lattice
MAX_GRID_CELLS = 1 << 22

# the forward half of each geometry's neighbour offsets: a neighbour at
# one of them comes later in canonical order
_NEIGHBOR_OFFSETS = {
    "hex_array": ((0, 2), (1, -1), (1, 1)),
    "square_grid": ((0, 1), (1, 0)),
}


@dataclass(frozen=True)
class Adjacency:
    """Symmetric binary neighbor structure over one slide's spots."""

    slide_id: str
    n_spots: int
    edges: np.ndarray  # [m, 2] int64, i < j, deduplicated and sorted

    def __post_init__(self) -> None:
        e = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        if e.size:
            if (e[:, 0] >= e[:, 1]).any():
                raise ValidationError("edges must satisfy i < j")
            if e.min() < 0 or e.max() >= self.n_spots:
                raise ValidationError("edge endpoint out of range")
        e = e[np.lexsort((e[:, 1], e[:, 0]))]
        if len(e) > 1:
            e = e[np.r_[True, (e[1:] != e[:-1]).any(axis=1)]]
        e.flags.writeable = False
        object.__setattr__(self, "edges", e)

    @property
    def n_edges(self) -> int:
        return int(self.edges.shape[0])

    def neighbor_lists(self) -> list[list[int]]:
        """Sorted neighbor list per node."""
        lists: list[list[int]] = [[] for _ in range(self.n_spots)]
        for i, j in self.edges.tolist():
            lists[i].append(j)
            lists[j].append(i)
        for nb in lists:
            nb.sort()
        return lists


def lattice_lookup(spots: SpotTable, offsets, centres=None) -> np.ndarray:
    """[len(centres), T] index of the spot at each centre's array position
    plus each of the T (drow, dcol) offsets, -1 where no spot sits; the
    centres are spot indices, every spot by default."""
    offsets = np.asarray(offsets, dtype=np.int64).reshape(-1, 2)
    n = len(spots)
    centres = np.arange(n) if centres is None else np.asarray(centres)
    pad = np.abs(offsets).max(axis=0).tolist() if offsets.size else [0, 0]
    (r0, c0), (r1, c1) = (spots.array.min(axis=0).tolist(),
                          spots.array.max(axis=0).tolist())
    shape = (r1 - r0 + 1 + 2 * pad[0], c1 - c0 + 1 + 2 * pad[1])
    if shape[0] * shape[1] > max(MAX_GRID_CELLS, 64 * n):
        raise DegenerateCoordinates(
            f"{spots.slide_id!r}: array positions span {shape[0]} x "
            f"{shape[1]} cells, too sparse for a spot lattice")
    grid = np.full(shape, -1, dtype=np.int64)
    rows = spots.array[:, 0] - (r0 - pad[0])
    cols = spots.array[:, 1] - (c0 - pad[1])
    grid[rows, cols] = np.arange(n)
    return grid[rows[centres, None] + offsets[:, 0],
                cols[centres, None] + offsets[:, 1]]


def check_distinct_pixels(spots: SpotTable) -> None:
    """Raise naming two spots whose pixel positions agree to
    DISTANCE_DECIMALS places."""
    px = np.round(spots.pixel, DISTANCE_DECIMALS)
    order = np.lexsort((px[:, 1], px[:, 0]))
    px = px[order]
    same = np.flatnonzero((px[1:] == px[:-1]).all(axis=1))
    if same.size:
        a, b = (spots.spot_ids[k]
                for k in sorted(order[same[0]:same[0] + 2].tolist()))
        raise DegenerateCoordinates(
            f"{spots.slide_id!r}: spots {a!r} and {b!r} share a pixel "
            f"position")


def _neighbor_pairs(spots: SpotTable, geometry: str
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) with i < j for every pair of neighbours under geometry."""
    if geometry not in _NEIGHBOR_OFFSETS:
        raise ValidationError(f"unknown geometry {geometry!r}")
    nb = lattice_lookup(spots, _NEIGHBOR_OFFSETS[geometry])
    i, k = np.nonzero(nb >= 0)
    return i, nb[i, k]


def min_pixel_spacing(spots: SpotTable, geometry: str) -> float:
    """Shortest pixel length over the slide's adjacency edges, which on a
    lattice is the distance between nearest spots.  Raises when two spots
    share a pixel position, or when no two spots are neighbours."""
    if len(spots) < 2:
        raise DegenerateCoordinates(
            f"pixel spacing needs at least 2 spots, got {len(spots)}")
    check_distinct_pixels(spots)
    i, j = _neighbor_pairs(spots, geometry)
    if not i.size:
        raise EmptyAdjacency(
            f"{spots.slide_id!r}: no two spots are {geometry} neighbours, "
            f"so the slide has no spot spacing")
    d = spots.pixel[i] - spots.pixel[j]
    return float(np.hypot(d[:, 0], d[:, 1]).min())


def build_adjacency(spots: SpotTable, geometry: str) -> Adjacency:
    """Connect spots under the named geometry; a spot's row in the table
    is its node id."""
    n = len(spots)
    if n < 2:
        raise DegenerateCoordinates(
            f"adjacency needs at least 2 spots, got {n}")
    return Adjacency(spots.slide_id, n,
                     np.column_stack(_neighbor_pairs(spots, geometry)))


def morans_i(values: np.ndarray, adjacency: Adjacency) -> float | None:
    """Autocorrelation score of one gene map, or None on a constant map."""
    scores = morans_i_many(values.reshape(-1, 1), adjacency)
    return scores[0]


# elements in each [n_edges, columns] array morans_i_many forms per block
# of gene columns, and the fewest columns that caps a block at: numpy sums
# a one-column array pairwise, not row by row as it sums wider ones, and
# evening out the blocks keeps each at least half that wide
MORANS_BLOCK = 1 << 18
MORANS_MIN_COLUMNS = 16


def morans_i_many(values: np.ndarray, adjacency: Adjacency
                  ) -> list[float | None]:
    """Column-wise autocorrelation over a [n_spots, n_genes] matrix, taken
    over blocks of columns.  Every block has the same width, or is the
    whole matrix: the last one overlaps the one before rather than
    narrowing, so each column's sums are those of the whole matrix."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != adjacency.n_spots:
        raise ShapeMismatch(
            f"expected [{adjacency.n_spots}, n_genes] values, "
            f"got {values.shape}")
    if adjacency.n_edges == 0:
        raise EmptyAdjacency(
            f"{adjacency.slide_id!r}: no edges, score undefined")
    n = adjacency.n_spots
    m = adjacency.n_edges
    n_genes = values.shape[1]
    # the fewest blocks of at most cap columns, evened out
    cap = max(MORANS_MIN_COLUMNS, MORANS_BLOCK // m)
    n_blocks = max(1, -(-n_genes // cap))
    width = max(1, -(-n_genes // n_blocks))
    z = values - values.mean(axis=0, keepdims=True)
    ss = np.empty(n_genes)
    cross = np.empty(n_genes)
    for stop in range(width, n_genes + width, width):
        block = slice(min(stop, n_genes) - width, min(stop, n_genes))
        zb = z[:, block]
        ss[block] = (zb * zb).sum(axis=0)
        cross[block] = (zb[adjacency.edges[:, 0]]
                        * zb[adjacency.edges[:, 1]]).sum(axis=0)
    out: list[float | None] = []
    for j in range(n_genes):
        if ss[j] == 0.0:
            out.append(None)
        else:
            out.append(float(n * cross[j] / (m * ss[j])))
    return out


@dataclass(frozen=True)
class GeneScore:
    """Per-gene selection record: mean slide score and the verdict."""

    gene_id: str
    mean_score: float | None
    selected: bool


def select_genes(slides: Iterable[tuple[ExpressionMatrix, Adjacency]],
                 n_genes: int) -> tuple[list[str], list[GeneScore]]:
    """Rank genes by mean autocorrelation over slides and keep the top n.

    slides yields each slide's (matrix, adjacency); a slide is scored as
    it is drawn and not held, so slides read one at a time are held one
    at a time.  A gene's mean skips slides where its map is constant;
    genes constant on every slide rank below all scored genes.  Ties and
    the unscored tail order lexicographically by gene id.  Returns
    (selected ids in rank order, per-gene records in panel order).
    """
    first = genes = None
    per_slide: list[list[float | None]] = []
    for m, adj in slides:
        if first is None:
            # the first slide's id and panel, not its values
            first = m.subset_spots([])
            if n_genes > len(m.gene_ids):
                raise TooFewGenes(f"cannot select {n_genes} genes from a "
                                  f"panel of {len(m.gene_ids)}")
            if n_genes < 1:
                raise ValidationError("must select at least one gene")
        genes = common_genes((first, m), "; run `sepal denoise` again")
        if m.n_spots != adj.n_spots:
            raise ShapeMismatch(
                f"adjacency for {adj.slide_id!r} covers {adj.n_spots} spots, "
                f"matrix has {m.n_spots}")
        per_slide.append(morans_i_many(m.values, adj))
    if genes is None:
        raise ValidationError("no slides to select genes from")

    means: list[float | None] = []
    for j in range(len(genes)):
        defined = [scores[j] for scores in per_slide
                   if scores[j] is not None]
        means.append(float(np.mean(defined)) if defined else None)

    scored = [(g, means[j]) for j, g in enumerate(genes)]
    ranked = sorted(
        (t for t in scored if t[1] is not None),
        key=lambda t: (-t[1], t[0]))
    unscored = sorted(t[0] for t in scored if t[1] is None)
    order = [g for g, _ in ranked] + unscored
    chosen = set(order[:n_genes])

    records = [GeneScore(
        gene_id=g,
        mean_score=means[j],
        selected=g in chosen,
    ) for j, g in enumerate(genes)]
    return order[:n_genes], records
