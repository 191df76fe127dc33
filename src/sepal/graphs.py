"""Per-spot local graphs: k-hop neighborhoods with positional features.

Each training example is the subgraph induced by the spots within m hops
of a center spot.  Nodes are ordered center first, then hop 1 ascending by
spot index, then hop 2, and so on, which fixes node ids for batching and
serialization; a spot index is the spot's row in the slide's SpotTable.
Node features combine the spot's patch embedding with a sinusoidal
encoding of its array offset from the center, read from the table:

    pe[2i]     = sin(p / 10000^(4i / d))      i in [0, d/4)
    pe[2i + 1] = cos(p / 10000^(4i / d))

with p = rel_col over the first half of the vector and p = rel_row over
the second half.  The two are either summed (width d_emb) or concatenated
(width 2 d_emb).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import nn
from .core import (
    AGGREGATIONS,
    EmbeddingTable,
    ShapeMismatch,
    SpotTable,
    ValidationError,
    WidthNotDivisible,
)

if TYPE_CHECKING:
    from .spatial import Adjacency


@dataclass(frozen=True)
class Subgraph:
    """Node set and induced edges of one k-hop neighborhood."""

    nodes: np.ndarray   # global spot indices, center first
    edges: np.ndarray   # [m, 2] local indices, i < j, sorted


def khop_subgraph(adjacency: Adjacency, center: int, hops: int,
                  neighbor_lists: Sequence[Sequence[int]]) -> Subgraph:
    """Breadth-first expansion to the given hop count, with induced edges.

    The induced edges come from the slide's neighbor lists, as
    adjacency.neighbor_lists() gives them, of the nodes reached, so the
    cost follows the subgraph's size, not the slide's.
    """
    if not 0 <= center < adjacency.n_spots:
        raise ValidationError(f"center {center} out of range")
    if hops < 1:
        raise ValidationError(f"hop count must be >= 1, got {hops}")

    local = {center: 0}   # global spot index -> local node id
    order = [center]
    frontier = [center]
    for _ in range(hops):
        reached: set[int] = set()
        for u in frontier:
            reached.update(neighbor_lists[u])
        frontier = sorted(reached.difference(local))
        if not frontier:
            break
        for v in frontier:
            local[v] = len(order)
            order.append(v)

    edges = []
    for a, u in enumerate(order):
        for v in neighbor_lists[u]:
            b = local.get(v)
            if b is not None and a < b:
                edges.append((a, b))
    edges.sort()
    return Subgraph(
        nodes=np.array(order, dtype=np.int64),
        edges=np.array(edges, dtype=np.int64).reshape(-1, 2),
    )


def slide_subgraphs(adjacency: Adjacency, hops: int) -> list[Subgraph]:
    """One k-hop subgraph per spot, in spot order."""
    lists = adjacency.neighbor_lists()
    return [khop_subgraph(adjacency, i, hops, lists)
            for i in range(adjacency.n_spots)]


def positional_encoding(rel_row: float, rel_col: float, d_emb: int
                        ) -> np.ndarray:
    """Sinusoidal encoding of an array offset; d_emb must divide by 4."""
    if d_emb < 4 or d_emb % 4 != 0:
        raise WidthNotDivisible(
            f"positional encoding width must be a positive multiple of 4, "
            f"got {d_emb}")
    half = d_emb // 2
    q = half // 2
    out = np.empty(d_emb, dtype=np.float64)
    freqs = 10000.0 ** (4.0 * np.arange(q) / d_emb)
    for offset, p in ((0, rel_col), (half, rel_row)):
        angles = p / freqs
        out[offset + 0:offset + half:2] = np.sin(angles)
        out[offset + 1:offset + half:2] = np.cos(angles)
    return out


def feature_width(d_emb: int, aggregation: str) -> int:
    """Node feature width for an embedding width and aggregation mode:
    d_emb for sum, 2 d_emb for concat.  d_emb must divide by 4."""
    if aggregation not in AGGREGATIONS:
        raise ValidationError(f"unknown aggregation {aggregation!r}")
    if d_emb < 4 or d_emb % 4:
        raise WidthNotDivisible(
            f"node features need d_emb divisible by 4 under either "
            f"aggregation, got {d_emb}")
    return d_emb if aggregation == "sum" else 2 * d_emb


def _offset_encodings(offsets: np.ndarray, d_emb: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Encode each distinct (rel_row, rel_col) row of offsets once: the
    table of encodings and, per input row, its row in that table."""
    # the distinct rows in sorted order, as np.unique(axis=0) lists them
    order = np.lexsort(offsets.T[::-1])
    ranked = offsets[order]
    first = np.ones(len(ranked), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    index = np.empty(len(ranked), dtype=np.int64)
    index[order] = np.cumsum(first) - 1
    table = np.array([positional_encoding(int(r), int(c), d_emb)
                      for r, c in ranked[first]])
    return table, index


def assemble_graph(slide_spots: SpotTable,
                   embeddings: EmbeddingTable,
                   subgraphs: Sequence[Subgraph],
                   aggregation: str) -> nn.GraphBatch:
    """Pack subgraphs of one slide, in order, as one batch whose node
    features are each node's embedding plus the positional encoding of its
    offset from its graph's center, summed or concatenated per the
    aggregation mode.  The batch holds the slide's embeddings and a table
    with each distinct offset encoded once, and per node a row of each;
    the features are gathered from them, in float64 rounded to float32,
    the dtype the graph network then computes in, only for the graphs a
    forward runs.  Subgraphs of the same size and local edges share one
    shape, whose propagation blocks are built once.
    """
    d = embeddings.d_emb
    feature_width(d, aggregation)  # rejects the mode or an odd width
    if embeddings.vectors.shape[0] != len(slide_spots):
        raise ShapeMismatch("embeddings not aligned with spots")

    sizes = np.array([len(sub.nodes) for sub in subgraphs], dtype=np.int64)
    nodes = np.concatenate([sub.nodes for sub in subgraphs])
    centers = np.repeat([sub.nodes[0] for sub in subgraphs], sizes)
    pos = slide_spots.array
    table, index = _offset_encodings(pos[nodes] - pos[centers], d)
    return nn.GraphBatch.pack(
        nn.NodeTable(embeddings.vectors, table, aggregation,
                     np.dtype(np.float32)),
        sizes, [sub.edges for sub in subgraphs], nodes, index)


def build_spot_graphs(spots: SpotTable, embeddings: EmbeddingTable,
                      adjacency: Adjacency, hops: int, aggregation: str
                      ) -> nn.GraphBatch:
    """Every spot's local graph, in canonical spot order, as one batch."""
    if adjacency.n_spots != len(spots):
        raise ShapeMismatch(
            f"adjacency covers {adjacency.n_spots} spots, slide has "
            f"{len(spots)}")
    return assemble_graph(spots, embeddings,
                          slide_subgraphs(adjacency, hops), aggregation)
