"""Spot pixel distances, adjacency and spatial autocorrelation.

Each function here takes one slide's SpotTable, whose array positions are
distinct and whose rows are in canonical order; a spot's row in the table
is its node id.  Adjacency is binary and symmetric, stored as a
deduplicated (i, j) edge list with i < j.  Three geometries are supported:

  hex_array     neighbors at array offsets (0, +-2), (+-1, +-1); the
                column axis advances in steps of two so interior spots
                have six neighbors
  square_grid   neighbors at offsets (0, +-1), (+-1, 0)
  auto_radius   neighbors within 1.3 times the minimum pairwise pixel
                distance

Pixel distances are computed here and nowhere else: pixel_distance_rows
yields the exact distances from one spot to every spot, one row at a time,
so memory stays linear in the spot count, and min_pixel_spacing rejects
spots that share a pixel position (distance 0 at DISTANCE_DECIMALS).

Autocorrelation per gene map x over N spots with weight sum W:

    I = (N / W) * sum_ij w_ij (x_i - mean) (x_j - mean) / sum_i (x_i - mean)^2

With binary symmetric weights W is twice the edge count, so the score
reduces to an edge-list sum.  A constant map has no defined score and
yields None rather than a number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import (
    DegenerateCoordinates,
    EmptyAdjacency,
    ExpressionMatrix,
    GeneSetMismatch,
    ShapeMismatch,
    SpotTable,
    TooFewGenes,
    ValidationError,
)

AUTO_RADIUS_FACTOR = 1.3
DISTANCE_DECIMALS = 6

_HEX_OFFSETS = ((0, 2), (1, 1), (1, -1))
_SQUARE_OFFSETS = ((0, 1), (1, 0))


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
        e = np.unique(e, axis=0)
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


def pixel_distance_rows(spots: SpotTable) -> Iterator[np.ndarray]:
    """Yield, for each spot in order, a fresh array of its exact pixel
    distance to every spot (0.0 at its own index)."""
    xs, ys = np.ascontiguousarray(spots.pixel.T)
    for x, y in zip(xs, ys):
        yield np.hypot(x - xs, y - ys)


def min_pixel_spacing(spots: SpotTable) -> float:
    """Smallest pixel distance between two distinct spots.  Raises when
    two spots share a pixel position to DISTANCE_DECIMALS places."""
    if len(spots) < 2:
        raise DegenerateCoordinates(
            f"pixel spacing needs at least 2 spots, got {len(spots)}")
    dmin, pair = np.inf, None
    for i, row in enumerate(pixel_distance_rows(spots)):
        row[i] = np.inf
        j = int(row.argmin())
        if row[j] < dmin:
            dmin, pair = float(row[j]), (i, j)
    if np.round(dmin, DISTANCE_DECIMALS) == 0.0:
        a, b = (spots.spot_ids[k] for k in pair)
        raise DegenerateCoordinates(
            f"{spots.slide_id!r}: spots {a!r} and {b!r} share a pixel "
            f"position")
    return dmin


def build_adjacency(spots: SpotTable, geometry: str) -> Adjacency:
    """Connect spots under the named geometry; a spot's row in the table
    is its node id."""
    n = len(spots)
    if n < 2:
        raise DegenerateCoordinates(
            f"adjacency needs at least 2 spots, got {n}")

    if geometry in ("hex_array", "square_grid"):
        offsets = _HEX_OFFSETS if geometry == "hex_array" else _SQUARE_OFFSETS
        positions = spots.array.tolist()
        by_pos = {(r, c): i for i, (r, c) in enumerate(positions)}
        pairs = []
        for i, (r, c) in enumerate(positions):
            for dr, dc in offsets:
                j = by_pos.get((r + dr, c + dc))
                if j is not None:
                    pairs.append((i, j) if i < j else (j, i))
        return Adjacency(spots.slide_id, n, pairs)

    if geometry == "auto_radius":
        cutoff = AUTO_RADIUS_FACTOR * min_pixel_spacing(spots)
        later = [np.flatnonzero(row[i + 1:] <= cutoff) + i + 1
                 for i, row in enumerate(pixel_distance_rows(spots))]
        firsts = np.repeat(np.arange(n), [len(js) for js in later])
        return Adjacency(spots.slide_id, n,
                         np.column_stack((firsts, np.concatenate(later))))

    raise ValidationError(f"unknown geometry {geometry!r}")


def morans_i(values: np.ndarray, adjacency: Adjacency) -> float | None:
    """Autocorrelation score of one gene map, or None on a constant map."""
    scores = morans_i_many(values.reshape(-1, 1), adjacency)
    return scores[0]


def morans_i_many(values: np.ndarray, adjacency: Adjacency
                  ) -> list[float | None]:
    """Column-wise autocorrelation over a [n_spots, n_genes] matrix."""
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
    z = values - values.mean(axis=0, keepdims=True)
    ss = (z * z).sum(axis=0)
    cross = (z[adjacency.edges[:, 0], :] * z[adjacency.edges[:, 1], :]).sum(axis=0)
    out: list[float | None] = []
    for j in range(values.shape[1]):
        if ss[j] == 0.0:
            out.append(None)
        else:
            out.append(float(n * cross[j] / (m * ss[j])))
    return out


@dataclass(frozen=True)
class GeneScore:
    """Per-gene selection record: slide scores, their mean, and the verdict."""

    gene_id: str
    per_slide: tuple[float | None, ...]
    mean_score: float | None
    selected: bool


def select_genes(matrices: Sequence[ExpressionMatrix],
                 adjacencies: Sequence[Adjacency],
                 n_genes: int) -> tuple[list[str], list[GeneScore]]:
    """Rank genes by mean autocorrelation over slides and keep the top n.

    A gene's mean skips slides where its map is constant; genes constant
    on every slide rank below all scored genes.  Ties and the unscored
    tail order lexicographically by gene id.  Returns (selected ids in
    rank order, per-gene records in panel order).
    """
    if not matrices or len(matrices) != len(adjacencies):
        raise ValidationError("need one adjacency per matrix")
    genes = matrices[0].gene_ids
    for m in matrices[1:]:
        if m.gene_ids != genes:
            raise GeneSetMismatch(
                f"slide {m.slide_id!r} gene panel differs")
    if n_genes > len(genes):
        raise TooFewGenes(
            f"cannot select {n_genes} genes from a panel of {len(genes)}")
    if n_genes < 1:
        raise ValidationError("must select at least one gene")

    per_slide: list[list[float | None]] = []
    for m, adj in zip(matrices, adjacencies):
        if m.n_spots != adj.n_spots:
            raise ShapeMismatch(
                f"adjacency for {adj.slide_id!r} covers {adj.n_spots} spots, "
                f"matrix has {m.n_spots}")
        per_slide.append(morans_i_many(m.values, adj))

    means: list[float | None] = []
    for j in range(len(genes)):
        defined = [per_slide[k][j] for k in range(len(matrices))
                   if per_slide[k][j] is not None]
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
        per_slide=tuple(per_slide[k][j] for k in range(len(matrices))),
        mean_score=means[j],
        selected=g in chosen,
    ) for j, g in enumerate(genes)]
    return order[:n_genes], records
