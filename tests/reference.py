"""Reference implementations that the fast paths in sepal are checked
against: the straightforward versions they replaced.

khop_subgraph scans the slide's whole edge list for the induced edges,
assemble_graph encodes every node's offset on its own and returns one
SpotGraph per center, from_graphs packs a list of such graphs into a
GraphBatch one graph at a time, and the two readouts take (start, end)
row slices and build their pooling matrices and top-k choices graph by
graph.
auto_radius_edges, radial_neighborhoods and heatmap_spacing each build
the dense n x n pixel-distance matrix, as the auto_radius adjacency, the
denoiser's rings and the heatmap writer did.
read_value_table parses and checks every cell of a value table on its
own, as ingest did before it parsed a row at a time.
impute_gene_map fills one gene map one zero cell at a time, and
denoise_slide runs it gene by gene, as the denoiser did before it took a
slide's whole block in one pass over its spots.
"""

from dataclasses import dataclass
from math import ceil
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from sepal.core import (
    DegenerateCoordinates,
    ExpressionMatrix,
    ImputationMask,
    MalformedRow,
    ShapeMismatch,
    SpotRecord,
    ValidationError,
    WidthMismatch,
)
from sepal.denoise import (
    RadialNeighborhood,
    SlideImputationReport,
    build_radial_neighborhoods,
)
from sepal.ingest import _parse_float, _parse_tsv
from sepal.graphs import Subgraph, positional_encoding
from sepal.nn import GraphBatch, gather_rows, gcn_conv, mul, propagate, tanh


@dataclass(frozen=True)
class SpotGraph:
    """One local graph with its node features."""

    slide_id: str
    center_spot_id: str
    nodes: np.ndarray
    hops: np.ndarray
    edges: np.ndarray
    features: np.ndarray


def khop_subgraph(adjacency, center, hops):
    neighbor_lists = adjacency.neighbor_lists()
    hop_of = {center: 0}
    order = [center]
    frontier = [center]
    for h in range(1, hops + 1):
        nxt = set()
        for u in frontier:
            for v in neighbor_lists[u]:
                v = int(v)
                if v not in hop_of:
                    nxt.add(v)
        frontier = sorted(nxt)
        for v in frontier:
            hop_of[v] = h
        order.extend(frontier)
        if not frontier:
            break

    local = {g: k for k, g in enumerate(order)}
    edges = []
    for i, j in adjacency.edges:
        i, j = int(i), int(j)
        if i in local and j in local:
            a, b = local[i], local[j]
            edges.append((a, b) if a < b else (b, a))
    edges.sort()
    return Subgraph(
        center=center,
        nodes=np.array(order, dtype=np.int64),
        hops=np.array([hop_of[g] for g in order], dtype=np.int64),
        edges=np.array(edges, dtype=np.int64).reshape(-1, 2),
    )


def assemble_graph(slide_spots, embeddings, subgraph, aggregation):
    d = embeddings.d_emb
    center = slide_spots[subgraph.center]
    feats = np.empty((len(subgraph.nodes),
                      d if aggregation == "sum" else 2 * d))
    for k, g in enumerate(subgraph.nodes):
        s = slide_spots[int(g)]
        pe = positional_encoding(s.array_row - center.array_row,
                                 s.array_col - center.array_col, d)
        emb = embeddings.vectors[int(g)]
        feats[k] = emb + pe if aggregation == "sum" else np.concatenate(
            [emb, pe])
    return SpotGraph(
        slide_id=center.slide_id,
        center_spot_id=center.spot_id,
        nodes=subgraph.nodes,
        hops=subgraph.hops,
        edges=subgraph.edges,
        features=feats,
    )


def spot_graphs(slide, adjacency, hops, aggregation):
    """One SpotGraph per spot of the slide, in spot order."""
    return [assemble_graph(slide.spots, slide.embeddings,
                           khop_subgraph(adjacency, i, hops), aggregation)
            for i in range(len(slide.spots))]


def from_graphs(graphs):
    """Disjoint union of objects with features and local edges."""
    if not graphs:
        raise ValidationError("empty graph batch")
    feats, edges, sizes = [], [], []
    offset = 0
    for g in graphs:
        n = g.features.shape[0]
        feats.append(g.features)
        if g.edges.size:
            edges.append(g.edges + offset)
        sizes.append(n)
        offset += n
    all_edges = (np.concatenate(edges, axis=0) if edges
                 else np.zeros((0, 2), dtype=np.int64))
    return GraphBatch(np.concatenate(feats, axis=0), all_edges,
                      np.array(sizes, dtype=np.int64))


def global_mean_readout(h, slices):
    rows, cols, vals = [], [], []
    for g, (s, e) in enumerate(slices):
        if e <= s:
            raise ValidationError(f"empty graph {g} in batch")
        for k in range(s, e):
            rows.append(g)
            cols.append(k)
            vals.append(1.0 / (e - s))
    pool = sp.coo_matrix((vals, (rows, cols)),
                         shape=(len(slices), h.data.shape[0])).tocsr()
    return propagate(pool, h)


def sag_mean_readout(h, score_prop, score_w, ratio, slices):
    score = gcn_conv(h, score_prop, score_w)
    kept = []
    counts = []
    for s, e in slices:
        n = e - s
        if n <= 0:
            raise ValidationError("empty graph in batch")
        k = ceil(ratio * n)
        order = np.argsort(-score.data[s:e, 0], kind="stable")
        chosen = np.sort(order[:k]) + s
        kept.extend(int(c) for c in chosen)
        counts.append(k)

    rows_idx = np.array(kept, dtype=np.int64)
    gated = mul(gather_rows(h, rows_idx), tanh(gather_rows(score, rows_idx)))

    rows, cols, vals = [], [], []
    pos = 0
    for g, k in enumerate(counts):
        for _ in range(k):
            rows.append(g)
            cols.append(pos)
            vals.append(1.0 / k)
            pos += 1
    pool = sp.coo_matrix((vals, (rows, cols)),
                         shape=(len(counts), rows_idx.size)).tocsr()
    return propagate(pool, gated)


def pixel_distances(spots):
    xs = np.array([s.pixel_x for s in spots], dtype=np.float64)
    ys = np.array([s.pixel_y for s in spots], dtype=np.float64)
    return np.hypot(xs[:, None] - xs[None, :], ys[:, None] - ys[None, :])


def auto_radius_edges(spots, factor=1.3):
    dist = pixel_distances(spots)
    np.fill_diagonal(dist, np.inf)
    dmin = float(dist.min())
    if dmin <= 0.0:
        raise DegenerateCoordinates("two spots share a pixel position")
    ii, jj = np.nonzero(dist <= factor * dmin)
    pairs = {(int(a), int(b)) for a, b in zip(ii, jj) if a < b}
    return np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)


def radial_neighborhoods(spots, max_rings=7, decimals=6):
    """(ring members, ring distances) per spot."""
    n = len(spots)
    if n < 2:
        raise DegenerateCoordinates("radial rings need at least 2 spots")
    dist = np.round(pixel_distances(spots), decimals)
    off_diag = dist + np.diag(np.full(n, np.inf))
    if (off_diag == 0.0).any():
        raise DegenerateCoordinates("two spots share a pixel position")
    members_all, dists_all = [], []
    for i in range(n):
        row = off_diag[i]
        order = np.argsort(row, kind="stable")
        rings, ring_d = [], []
        current = None
        for j in order:
            d = row[j]
            if not np.isfinite(d):
                break
            if current is None or d != current:
                if len(rings) == max_rings:
                    break
                current = float(d)
                rings.append([])
                ring_d.append(current)
            rings[-1].append(int(j))
        members_all.append(tuple(np.array(r, dtype=np.int64) for r in rings))
        dists_all.append(tuple(ring_d))
    return tuple(members_all), tuple(dists_all)


def heatmap_spacing(spots):
    diff = pixel_distances(spots)
    np.fill_diagonal(diff, np.inf)
    dmin = float(diff.min())
    if dmin <= 0.0:
        raise ValidationError("two spots share a pixel position")
    return dmin


def read_value_table(path, kind):
    comments, header, rows = _parse_tsv(path)
    rows = list(rows)
    if not header or header[0] != "spot_id":
        raise MalformedRow(f"{path}: first column must be spot_id")
    col_ids = header[1:]
    n_cols = len(col_ids)
    spot_ids = []
    values = np.empty((len(rows), n_cols), dtype=np.float64)
    for r, (line_no, fields) in enumerate(rows):
        if len(fields) != n_cols + 1:
            if kind == "embeddings":
                raise WidthMismatch(
                    f"{path}:{line_no}: {len(fields) - 1} values under a "
                    f"{n_cols}-wide header")
            raise MalformedRow(
                f"{path}:{line_no}: expected {n_cols + 1} columns, "
                f"got {len(fields)}")
        spot_ids.append(fields[0])
        for c, text in enumerate(fields[1:]):
            values[r, c] = _parse_float(text, path, line_no)
    return comments, col_ids, spot_ids, values


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

