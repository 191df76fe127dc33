"""Reference implementations that the fast paths in sepal are checked
against: the straightforward versions they replaced.

khop_subgraph scans the slide's whole edge list for the induced edges,
assemble_graph encodes every node's offset on its own and returns one
SpotGraph per center, from_graphs packs a list of such graphs into a
GraphBatch one graph at a time, packed_assemble_graph packs a slide's
graphs as one [n_nodes, width] feature matrix, as assemble_graph did
before a batch held rows into its embedding and encoding tables, and the
two readouts take (start, end)
row slices and build their pooling matrices and top-k choices graph by
graph.
adj_matrix and gcn_matrix build a batch's propagation matrices as scipy
CSR matrices, and propagate multiplies by one, as the network did before
it held one dense block per graph.  BlockDiagonal holds one dense [m, m]
block per graph of a batch, m its largest graph, built by
block_adj_matrix and block_gcn_matrix, and its product pads every graph
to m rows, as the network did before graphs of one shape shared a block.
matmul and transpose are the engine's composite dense ops: linear chains
them and add, and gcn_conv and graph_conv build on them, as the network
did before every dense product became one linear op.  elu keeps
expm1(min(x, 0)) on the tape for its slope, as the engine did before it
became one op over one output array.  sub and mean_all are the
engine's subtraction and whole-array mean, and mse chains them with mul,
as the loss was before it became one op; the tests use mean_all to reduce
an output against a fixed upstream gradient.
spatial_forward runs the network on allocating_elu, allocating_propagate,
allocating_gcn_conv, allocating_graph_conv and
allocating_sag_mean_readout: every op writes a new output array and the
tape keeps every value, as the engine did before an op wrote over an
input that no other op reads and let go of values no backward reads.
build_radial_neighborhoods groups every spot's neighbours into rings of
equal pixel distance, rounded to six decimals, read off the dense n x n
pixel-distance matrix, as the denoiser did before its rings came from
lattice norms; on a lattice with exact pixels the two agree member for
member.  heatmap_spacing is the smallest off-diagonal entry of that
matrix, as the heatmap writer took it before its spacing came from the
adjacency edges.  morans_i_many multiplies every edge's two rows of the
whole centred matrix at once, as spatial did before it took blocks of
gene columns.  lattice_edges finds each spot's neighbours through a
dict of array positions, as build_adjacency did before one lattice
lookup served every spot.
read_value_table parses and checks every cell of a value table on its
own, as ingest did before it parsed a row at a time.
write_expression formats every cell of an expression table on its own,
counts through int and str, as ingest did before one %d format wrote a
row of counts.
impute_by_spot fills a slide's block one spot at a time, growing each
spot's rings for the genes still unfilled, as the denoiser did before it
took the zero cells one ring at a time.  impute_gene_map fills one gene
map one zero cell at a time, and denoise_slide runs it gene by gene, as
the denoiser did before it took a slide's whole block at once.
canonical_order sorts a list of SpotRecord, one per spot, as every reader
of a slide's spots did before they became one SpotTable.
read_coordinates parses a coordinates table one row at a time, as ingest
did before it parsed blocks of rows.
offset_encodings and shape_groups find distinct offsets and shapes with
np.unique, as graphs and GraphBatch did before they sorted or counted
them themselves.
color_ramp interpolates the heatmap ramp entry by entry, and
write_heatmap stamps one spot's disc at a time, as ingest did before it
stamped every disc at once.
check_values runs each of a matrix's value checks over the whole
matrix, as ExpressionMatrix did before it took blocks of rows.
filter_by_counts and filter_by_sparsity filter lists of matrices, each
step returning new matrices, and preprocess_chain runs them, the gene
subset, CPM and log over a dataset's matrices, as preprocess did before
its filters decided from per-slide statistics and each slide's output was
made once.
neighbor_mean adds each edge's two rows in a Python loop over the edges,
as synth did before one scatter-add took them all.
column_stats scores each column's PCC and R² over its unmasked cells one
column at a time, a column being flat by the rule of metrics
(MEAN_ROUNDING), and masked_mse_mae compacts the unmasked cells, as
metrics.evaluate did before it scored every column in whole arrays;
pcc_histogram bins one gene at a time, as metrics did before one
bincount took them all.
spot_subset, subset_genes, mask_subset_genes, rows_for and align_slide
each build their own id-to-row dict, as SpotTable.subset,
ExpressionMatrix.subset_genes, ImputationMask.subset_genes,
EmbeddingTable.rows_for and align_slide did before one core.rows_of
served them all.
"""

import math
from dataclasses import dataclass
from math import ceil
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable

import numpy as np
import scipy.sparse as sp

from helpers import pack_rows
from sepal.core import (
    AllGenesRemoved,
    AllSpotsRemoved,
    DegenerateCoordinates,
    EmbeddingTable,
    EmptySlide,
    ExpressionMatrix,
    GeneSetMismatch,
    ImputationMask,
    MalformedRow,
    MissingEmbedding,
    NegativeValue,
    NonFiniteValue,
    ShapeMismatch,
    Slide,
    SpotSetMismatch,
    SpotTable,
    ValidationError,
    WidthMismatch,
)
from sepal.denoise import SlideImputationReport, _row_medians
from sepal import ingest
from sepal.ingest import (
    COORD_COLUMNS,
    FORMAT_VERSION,
    _parse_float,
    _parse_int,
    _parse_tsv,
    fmt_float,
)
from sepal.graphs import (
    Subgraph,
    _offset_encodings,
    feature_width,
    positional_encoding,
)
from sepal.metrics import MEAN_ROUNDING
from sepal.train import ADAM_BETA1, ADAM_BETA2, ADAM_EPS
from sepal.nn import _check_sizes


class Tensor:
    """An ndarray plus the backward closure that fills its parents' grads."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, parents: tuple["Tensor", ...] = (),
                 requires_grad: bool = True):
        data = np.asarray(data)
        # float32 and float64 are kept as given; anything else is float64
        self.data = (data if data.dtype in (np.float32, np.float64)
                     else data.astype(np.float64))
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents = parents

    @property
    def shape(self):
        return self.data.shape

    def add_grad(self, g: np.ndarray) -> None:
        """Accumulate g, cast to this tensor's dtype.  The first gradient
        is stored as it is and later ones make a new array, so an array
        that is also another tensor's grad is never written to."""
        g = np.asarray(g).astype(self.data.dtype, copy=False)
        self.grad = g if self.grad is None else self.grad + g

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


def constant(data) -> Tensor:
    """A tensor that never needs a gradient."""
    return Tensor(data, requires_grad=False)


def _op(data, parents: tuple[Tensor, ...], backward) -> Tensor:
    """An op's output; it records parents and closure only if one of the
    parents needs a gradient, and is a constant otherwise."""
    if not any(p.requires_grad for p in parents):
        return constant(data)
    out = Tensor(data, parents)
    out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b, broadcast."""
    def backward(out):
        if a.requires_grad:
            a.add_grad(_unbroadcast(out.grad, a.data.shape))
        if b.requires_grad:
            b.add_grad(_unbroadcast(out.grad, b.data.shape))
    return _op(a.data + b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def backward(out):
        if a.requires_grad:
            a.add_grad(_unbroadcast(out.grad * b.data, a.data.shape))
        if b.requires_grad:
            b.add_grad(_unbroadcast(out.grad * a.data, b.data.shape))
    return _op(a.data * b.data, (a, b), backward)


def cast(a: Tensor, dtype) -> Tensor:
    """a in another float dtype; its gradient comes back in a's dtype."""
    if a.data.dtype == dtype:
        return a

    def backward(out):
        a.add_grad(out.grad)
    return _op(a.data.astype(dtype), (a,), backward)


def gather_rows(a: Tensor, rows: np.ndarray) -> Tensor:
    rows = np.asarray(rows, dtype=np.int64)

    def backward(out):
        g = np.zeros_like(a.data)
        np.add.at(g, rows, out.grad)
        a.add_grad(g)
    return _op(a.data[rows], (a,), backward)


def tanh(a: Tensor) -> Tensor:
    def backward(out):
        # sech(x)^2 = 4e / (1 + e)^2 with e = exp(-2|x|), from the input:
        # 1 - tanh(x)^2 is 0 once tanh rounds to 1 (|x| > ~9 in float32)
        e = np.exp(-2.0 * np.abs(a.data))
        a.add_grad(out.grad * (4.0 * e / ((1.0 + e) * (1.0 + e))))
    return _op(np.tanh(a.data), (a,), backward)


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss.  It consumes the tape: each
    node drops its closure and parents once its closure has run."""
    if loss.data.size != 1:
        raise ShapeMismatch("backward starts from a scalar")
    topo = _topological_order(loss)
    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if node._backward is not None:
            node._backward(node)
        node._backward = None
        node._parents = ()


def _topological_order(loss: Tensor) -> list[Tensor]:
    """Every tensor the loss depends on, each after all of its parents."""
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return topo


def segment_mean(h: Tensor, sizes: np.ndarray) -> Tensor:
    """Row g averages the sizes[g] rows that follow graph g - 1's.  It adds
    w * h_r, w = 1 / sizes[g] in h's dtype, one in-graph position at a
    time for all graphs at once: the order, and so the bits, of a
    pooling matrix's sparse product."""
    w = (1.0 / sizes).astype(h.data.dtype)
    firsts = np.cumsum(sizes) - sizes
    out = np.zeros((sizes.size, h.data.shape[1]), h.data.dtype)
    for k in range(int(sizes.max(initial=0))):
        g = np.flatnonzero(sizes > k)
        out[g] += w[g, None] * h.data[firsts[g] + k]
    graph = np.repeat(np.arange(sizes.size), sizes)

    def backward(out_t):
        h.add_grad(w[graph, None] * out_t.grad[graph])
    return _op(out, (h,), backward)


@dataclass(frozen=True)
class SpotGraph:
    """One local graph with its node features."""

    slide_id: str
    center_spot_id: str
    nodes: np.ndarray
    edges: np.ndarray
    features: np.ndarray


@dataclass(frozen=True)
class SpotRecord:
    """One measured spot: identity, pixel position, and array position."""

    spot_id: str
    slide_id: str
    pixel_x: float
    pixel_y: float
    array_row: int
    array_col: int


def canonical_order(spots: Iterable[SpotRecord]) -> list[SpotRecord]:
    """Sort spots by (array_row, array_col, spot_id), the order used
    everywhere a slide's spots are enumerated."""
    return sorted(spots, key=lambda s: (s.array_row, s.array_col, s.spot_id))


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
        nodes=np.array(order, dtype=np.int64),
        edges=np.array(edges, dtype=np.int64).reshape(-1, 2),
    )


def assemble_graph(slide_spots, embeddings, subgraph, aggregation):
    d = embeddings.d_emb
    center = int(subgraph.nodes[0])
    center_row, center_col = slide_spots.array[center].tolist()
    feats = np.empty((len(subgraph.nodes),
                      d if aggregation == "sum" else 2 * d))
    for k, g in enumerate(subgraph.nodes):
        row, col = slide_spots.array[int(g)].tolist()
        pe = positional_encoding(row - center_row, col - center_col, d)
        emb = embeddings.vectors[int(g)]
        feats[k] = emb + pe if aggregation == "sum" else np.concatenate(
            [emb, pe])
    # computed in float64, stored as float32, like the batched assembly
    return SpotGraph(
        slide_id=slide_spots.slide_id,
        center_spot_id=slide_spots.spot_ids[center],
        nodes=subgraph.nodes,
        edges=subgraph.edges,
        features=feats.astype(np.float32),
    )


def spot_graphs(slide, adjacency, hops, aggregation):
    """One SpotGraph per spot of the slide, in spot order."""
    return [assemble_graph(slide.spots, slide.embeddings,
                           khop_subgraph(adjacency, i, hops), aggregation)
            for i in range(len(slide.spots))]


def packed_assemble_graph(slide_spots, embeddings, subgraphs, aggregation,
                          dtype=np.float32):
    """Subgraphs of one slide packed as one batch of their feature
    matrix, every node's row computed in float64 and written into dtype,
    as assemble_graph did before a batch held rows into its tables."""
    d = embeddings.d_emb
    width = feature_width(d, aggregation)
    sizes = np.array([len(sub.nodes) for sub in subgraphs], dtype=np.int64)
    nodes = np.concatenate([sub.nodes for sub in subgraphs])
    centers = np.repeat([sub.nodes[0] for sub in subgraphs], sizes)
    pos = slide_spots.array
    table, index = _offset_encodings(pos[nodes] - pos[centers], d)
    feats = np.empty((nodes.size, width), dtype=dtype)
    if aggregation == "sum":
        np.add(embeddings.vectors[nodes], table[index], out=feats,
               casting="same_kind")
    else:
        feats[:, :d] = embeddings.vectors[nodes]
        feats[:, d:] = table[index]
    return pack_rows(feats, sizes, [sub.edges for sub in subgraphs])


def from_graphs(graphs):
    """Disjoint union of objects with features and local edges."""
    if not graphs:
        raise ValidationError("empty graph batch")
    return pack_rows(np.concatenate([g.features for g in graphs]),
                     [g.features.shape[0] for g in graphs],
                     [g.edges for g in graphs])


def adj_matrix(n_nodes, edges, dtype=np.float64):
    """Symmetric binary adjacency (no self loops)."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    return sp.coo_matrix((np.ones(rows.size, dtype=dtype), (rows, cols)),
                         shape=(n_nodes, n_nodes)).tocsr()


def gcn_matrix(n_nodes, edges, dtype=np.float64):
    """Symmetrically normalized adjacency with self loops, normalized in
    float64 and then rounded to dtype."""
    a = adj_matrix(n_nodes, edges) + sp.eye(n_nodes, format="csr")
    deg = np.asarray(a.sum(axis=1)).ravel()
    d = sp.diags(1.0 / np.sqrt(deg))
    return (d @ a @ d).tocsr().astype(dtype, copy=False)


def propagate(matrix, h):
    """Multiply by a constant sparse matrix: out = S h, grad = S^T g."""
    if matrix.shape[1] != h.data.shape[0]:
        raise ShapeMismatch(
            f"propagation {matrix.shape} against features {h.data.shape}")

    def backward(out):
        h.add_grad(matrix.T.tocsr() @ out.grad)
    return _op(matrix @ h.data, (h,), backward)


# graphs per pass of BlockDiagonal's product: bounds its zero-padded copy
# of the rows to 32 * m rows, whatever the batch size
PRODUCT_GROUP = 32


@dataclass(frozen=True)
class BlockDiagonal:
    """A constant [n, n] matrix over a batch of graphs, one dense [m, m]
    block per graph, m the largest graph's node count.

    Graph g owns sizes[g] consecutive rows, and its local node k is row k
    of blocks[g]; the rows and columns of a block past sizes[g] are zero.
    """

    blocks: np.ndarray  # [n_graphs, m, m]
    sizes: np.ndarray   # [n_graphs] node counts

    @property
    def shape(self) -> tuple[int, int]:
        n = int(self.sizes.sum())
        return n, n

    @property
    def T(self) -> "BlockDiagonal":
        return BlockDiagonal(self.blocks.transpose(0, 2, 1), self.sizes)

    def __matmul__(self, h: np.ndarray) -> np.ndarray:
        """self @ h for h [n, d]: each group of graphs' rows is scattered
        into a zero-padded [graphs, m, d] array, multiplied by its blocks
        in one batched matmul, and gathered back."""
        n_graphs, m, _ = self.blocks.shape
        firsts = np.concatenate([[0], np.cumsum(self.sizes)])
        # row r of graph g sits at g * m + (r - firsts[g]) once padded
        slots = (np.arange(firsts[-1])
                 + np.repeat(np.arange(n_graphs) * m - firsts[:-1],
                             self.sizes))
        out = np.empty(h.shape, np.result_type(self.blocks, h))
        for g0 in range(0, n_graphs, PRODUCT_GROUP):
            g1 = min(g0 + PRODUCT_GROUP, n_graphs)
            rows = slice(firsts[g0], firsts[g1])
            local = slots[rows] - g0 * m
            padded = np.zeros(((g1 - g0) * m, h.shape[1]), out.dtype)
            padded[local] = h[rows]
            product = np.matmul(self.blocks[g0:g1],
                                padded.reshape(g1 - g0, m, -1))
            out[rows] = product.reshape(-1, h.shape[1])[local]
        return out


def _entries(n_nodes: int, edges: np.ndarray, sizes, self_loops: bool
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """The entries of a symmetric adjacency, one per edge and direction,
    plus one per node if self_loops: their rows, their columns and their
    cells in the flattened [n_graphs, m, m] blocks; then the graph sizes
    (None is one graph of n_nodes) and m."""
    sizes = (_check_sizes(sizes, n_nodes) if sizes is not None
             else np.array([n_nodes] if n_nodes else [], dtype=np.int64))
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and not 0 <= edges.min() <= edges.max() < n_nodes:
        raise ValidationError(f"edge endpoint outside {n_nodes} nodes")
    rows = [edges[:, 0], edges[:, 1]]
    cols = [edges[:, 1], edges[:, 0]]
    if self_loops:
        rows.append(np.arange(n_nodes))
        cols.append(np.arange(n_nodes))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    graph = np.repeat(np.arange(sizes.size), sizes)
    if (graph[rows] != graph[cols]).any():
        raise ValidationError("an edge joins two graphs of the batch")
    local = np.arange(n_nodes) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    m = int(sizes.max(initial=0))
    cells = (graph[rows] * m + local[rows]) * m + local[cols]
    return rows, cols, cells, sizes, m


def block_adj_matrix(n_nodes: int, edges: np.ndarray, dtype=np.float64,
                     sizes=None) -> BlockDiagonal:
    """Symmetric adjacency without self loops; an edge listed twice counts
    twice.  sizes splits the nodes into graphs, and edges stay inside
    one; without it the nodes are one graph."""
    _, _, cells, sizes, m = _entries(n_nodes, edges, sizes,
                                     self_loops=False)
    counts = np.bincount(cells, minlength=sizes.size * m * m)
    return BlockDiagonal(counts.reshape(sizes.size, m, m).astype(dtype),
                         sizes)


def block_gcn_matrix(n_nodes: int, edges: np.ndarray, dtype=np.float64,
                     sizes=None) -> BlockDiagonal:
    """Symmetrically normalized adjacency with self loops, per graph as in
    block_adj_matrix.  Entry (i, j) is (d_i a_ij) d_j with d = deg^{-1/2},
    taken in float64 and then rounded to dtype."""
    rows, cols, cells, sizes, m = _entries(n_nodes, edges, sizes,
                                            self_loops=True)
    a = np.bincount(cells, minlength=sizes.size * m * m)[cells]
    inv_sqrt = 1.0 / np.sqrt(
        np.bincount(rows, minlength=n_nodes).astype(np.float64))
    blocks = np.zeros(sizes.size * m * m, dtype)
    # a cell listed more than once gets the same value each time
    blocks[cells] = (inv_sqrt[rows] * a) * inv_sqrt[cols]
    return BlockDiagonal(blocks.reshape(sizes.size, m, m), sizes)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 \
            or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatch(
            f"matmul {a.data.shape} @ {b.data.shape}")

    def backward(out):
        if a.requires_grad:
            a.add_grad(out.grad @ b.data.T)
        if b.requires_grad:
            b.add_grad(a.data.T @ out.grad)
    return _op(a.data @ b.data, (a, b), backward)


def transpose(a: Tensor) -> Tensor:
    def backward(out):
        a.add_grad(out.grad.T)
    return _op(a.data.T, (a,), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def backward(out):
        if a.requires_grad:
            a.add_grad(_unbroadcast(out.grad, a.data.shape))
        if b.requires_grad:
            b.add_grad(_unbroadcast(-out.grad, b.data.shape))
    return _op(a.data - b.data, (a, b), backward)


def mean_all(a: Tensor) -> Tensor:
    def backward(out):
        a.add_grad(np.full_like(a.data, float(out.grad) / a.data.size))
    return _op(a.data.mean(), (a,), backward)


def mse(pred, target):
    d = sub(pred, target)
    return mean_all(mul(d, d))


def linear(h, weight, bias=None):
    """h [n, in] times weight [out, in] transposed, plus bias [out]."""
    out = matmul(h, transpose(weight))
    return out if bias is None else add(out, bias)


def gcn_conv(h, prop, weight):
    """prop h weight^T, with the propagation taken on the narrower of h
    and h weight^T."""
    if weight.data.shape[0] < weight.data.shape[1]:
        return allocating_propagate(prop, matmul(h, transpose(weight)))
    return matmul(allocating_propagate(prop, h), transpose(weight))


def graph_conv(h, adj, w_self, w_neigh, bias):
    own = matmul(h, transpose(w_self))
    return add(add(own, gcn_conv(h, adj, w_neigh)), bias)


def elu(a):
    neg = np.expm1(np.minimum(a.data, 0.0))

    def backward(out):
        a.add_grad(out.grad * (neg + 1.0))
    return _op(np.maximum(a.data, neg), (a,), backward)


def allocating_propagate(prop, h):
    """Multiply by a constant block-diagonal matrix: out = S h,
    grad = S^T g.  Each shape's rows are gathered into a [graphs, k, d]
    array and multiplied by its block in one broadcast matmul."""
    n_rows = sum(rows.size for _, rows in prop)
    if n_rows != h.data.shape[0]:
        raise ShapeMismatch(
            f"propagation over {n_rows} rows against features "
            f"{h.data.shape}")

    def product(x: np.ndarray, transposed: bool) -> np.ndarray:
        out = np.empty_like(x)
        for block, rows in prop:
            out[rows] = np.matmul(block.T if transposed else block, x[rows])
        return out

    def backward(out):
        h.add_grad(product(out.grad, transposed=True))
    return _op(product(h.data, transposed=False), (h,), backward)


def allocating_elu(a):
    # expm1(min(x, 0)) is 0 where x > 0 and >= x elsewhere, so the ELU is
    # max(x, it), built in one buffer (np.where costs several times
    # np.maximum); where x < 0 the output is that expm1 itself, so the
    # slope exp(min(x, 0)) is min(output, 0) + 1 and nothing else is kept
    out = np.minimum(a.data, 0.0)
    np.expm1(out, out=out)
    np.maximum(a.data, out, out=out)

    def backward(out_t):
        a.add_grad(out_t.grad * (np.minimum(out_t.data, 0.0) + 1.0))
    return _op(out, (a,), backward)


def allocating_gcn_conv(h, prop, weight):
    """prop h weight^T, with the propagation taken on the narrower of h
    and h weight^T."""
    if weight.data.shape[0] < weight.data.shape[1]:
        return allocating_propagate(prop, linear(h, weight))
    return linear(allocating_propagate(prop, h), weight)


def allocating_graph_conv(h, adj, w_self, w_neigh, bias):
    """(h w_self^T + adj h w_neigh^T) + bias, summed in that order."""
    own = linear(h, w_self)
    return add(add(own, allocating_gcn_conv(h, adj, w_neigh)), bias)


def allocating_sag_mean_readout(h, score_prop, score_w, ratio, sizes):
    """Gated top-k mean per graph.

    Scores come from a one-channel gcn over the same node features; the
    top ceil(ratio * n) rows per graph (stable order, ties keep the lower
    index) are gated by tanh(score) and averaged.
    """
    if score_w.data.shape != (1, h.data.shape[1]):
        raise ShapeMismatch(
            f"score weight {score_w.data.shape} for features "
            f"{h.data.shape}")
    sizes = _check_sizes(sizes, h.data.shape[0])
    score = allocating_gcn_conv(h, score_prop, score_w)  # [n, 1]

    rows = np.arange(sizes.sum())
    graph = np.repeat(np.arange(sizes.size), sizes)
    # rank every graph's rows by descending score, lower row on ties
    ranked = np.lexsort((rows, -score.data[:, 0], graph))
    counts = np.ceil(ratio * sizes).astype(np.int64)
    rank = rows - np.repeat(np.cumsum(sizes) - sizes, sizes)
    top = rank < np.repeat(counts, sizes)
    kept = ranked[top]
    rows_idx = kept[np.lexsort((kept, graph[top]))]
    gated = mul(gather_rows(h, rows_idx), tanh(gather_rows(score, rows_idx)))
    return segment_mean(gated, counts)


def spatial_forward(state, batch):
    """Run the correction network over a batch; returns [n_graphs, n_genes]
    in the dtype of the batch's features."""
    spec = state.spec
    if batch.features.shape[1] != spec.in_width:
        raise ShapeMismatch(
            f"batch features {batch.features.shape} for in_width "
            f"{spec.in_width}")
    h = constant(batch.features)
    p = {k: cast(t, h.data.dtype) for k, t in state.params.items()}
    for i in range(len(spec.pre_widths)):
        h = allocating_elu(linear(h, p[f"pre.{i}.W"], p[f"pre.{i}.b"]))

    if spec.operator == "gcn":
        for i in range(len(spec.gnn_widths)):
            h = allocating_elu(allocating_gcn_conv(
                h, batch.propagation("gcn"), p[f"gnn.{i}.W"]))
    else:
        for i in range(len(spec.gnn_widths)):
            h = allocating_elu(allocating_graph_conv(
                h, batch.propagation("adj"), p[f"gnn.{i}.W1"],
                p[f"gnn.{i}.W2"], p[f"gnn.{i}.b"]))

    if spec.pooling == "sag_mean":
        r = allocating_sag_mean_readout(
            h, batch.propagation("gcn"), p["pool.score.W"], spec.sag_ratio,
            batch.sizes)
    else:
        r = segment_mean(h, _check_sizes(batch.sizes, h.data.shape[0]))

    n_post = len(spec.post_widths)
    for i in range(n_post):
        r = linear(r, p[f"post.{i}.W"], p[f"post.{i}.b"])
        if i < n_post - 1:
            r = allocating_elu(r)
    return r


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


def tape_state(spec, arrays):
    """A model for spatial_forward: spec, and each parameter array as a
    trainable float64 tensor of its own."""
    return SimpleNamespace(spec=spec, params={
        k: Tensor(np.array(a, dtype=np.float64)) for k, a in arrays.items()})


class Adam:
    """Bias-corrected Adam over a list of parameter tensors."""

    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * (g * g)
            m_hat = self.m[i] / (1.0 - b1 ** self.t)
            v_hat = self.v[i] / (1.0 - b2 ** self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def pixel_distances(spots):
    xs, ys = spots.pixel.T
    return np.hypot(xs[:, None] - xs[None, :], ys[:, None] - ys[None, :])


def build_radial_neighborhoods(spots, max_rings=7, decimals=6):
    """Per spot, its rings nearest first: a tuple of index arrays, each
    the spots at one rounded pixel distance, in index order."""
    if len(spots) < 2:
        raise DegenerateCoordinates("radial rings need at least 2 spots")
    members_all = []
    for row in np.round(pixel_distances(spots), decimals):
        # the spot itself is at 0.0 and sorts first; a second 0.0 is a
        # coincident spot
        order = np.argsort(row, kind="stable")
        if row[order[1]] == 0.0:
            raise DegenerateCoordinates("two spots share a pixel position")
        order = order[1:]
        d = row[order]
        starts = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
        bounds = np.append(starts, d.size)[:max_rings + 1]
        members_all.append(tuple(order[a:b].copy()
                                 for a, b in zip(bounds[:-1], bounds[1:])))
    return tuple(members_all)


def lattice_edges(spots, geometry):
    """Every neighbour pair (i, j), i < j, found spot by spot through a
    dict from array position to spot index."""
    offsets = {"hex_array": ((0, 2), (1, 1), (1, -1)),
               "square_grid": ((0, 1), (1, 0))}[geometry]
    positions = spots.array.tolist()
    by_pos = {(r, c): i for i, (r, c) in enumerate(positions)}
    pairs = []
    for i, (r, c) in enumerate(positions):
        for dr, dc in offsets:
            j = by_pos.get((r + dr, c + dc))
            if j is not None:
                pairs.append((i, j) if i < j else (j, i))
    return np.unique(np.array(pairs, dtype=np.int64).reshape(-1, 2), axis=0)


def heatmap_spacing(spots):
    diff = pixel_distances(spots)
    np.fill_diagonal(diff, np.inf)
    dmin = float(diff.min())
    if dmin <= 0.0:
        raise ValidationError("two spots share a pixel position")
    return dmin


def morans_i_many(values, adjacency):
    """Column-wise autocorrelation from whole [n_edges, n_genes] products,
    as spatial did before it took blocks of columns."""
    values = np.asarray(values, dtype=np.float64)
    n, m = adjacency.n_spots, adjacency.n_edges
    z = values - values.mean(axis=0, keepdims=True)
    ss = (z * z).sum(axis=0)
    cross = (z[adjacency.edges[:, 0], :]
             * z[adjacency.edges[:, 1], :]).sum(axis=0)
    return [None if ss[j] == 0.0 else float(n * cross[j] / (m * ss[j]))
            for j in range(values.shape[1])]


def read_value_table(path, kind):
    comments, header, rows = _parse_tsv(path)
    if not header or header[0] != "spot_id":
        raise MalformedRow(f"{path}: first column must be spot_id")
    col_ids = header[1:]
    n_cols = len(col_ids)
    spot_ids, values = [], []
    for line_no, line in rows:
        fields = line.split("\t")
        if len(fields) != n_cols + 1:
            if kind == "embeddings":
                raise WidthMismatch(
                    f"{path}:{line_no}: {len(fields) - 1} values under a "
                    f"{n_cols}-wide header")
            raise MalformedRow(
                f"{path}:{line_no}: expected {n_cols + 1} columns, "
                f"got {len(fields)}")
        spot_ids.append(fields[0])
        values.append([_parse_float(text, path, line_no)
                       for text in fields[1:]])
    return (comments, col_ids, spot_ids,
            np.array(values, dtype=np.float64).reshape(len(values), n_cols))


def write_expression(path, matrix):
    integral = matrix.stage == "raw_counts"
    with ingest._open_write(path) as fh:
        fh.write(f"#format_version={FORMAT_VERSION}\n#kind=expression\n")
        fh.write(f"#stage={matrix.stage}\n#slide={matrix.slide_id}\n")
        fh.write("spot_id\t" + "\t".join(matrix.gene_ids) + "\n")
        for sid, row in zip(matrix.spot_ids, matrix.values):
            cells = (map(str, map(int, row.tolist())) if integral
                     else map(repr, row.tolist()))
            fh.write(sid + "\t" + "\t".join(cells) + "\n")


@dataclass(frozen=True)
class GeneImputation:
    """Outcome of filling one gene map."""

    values: np.ndarray
    flags: np.ndarray
    n_zero: int
    n_imputed: int
    n_fallback: int
    nothing_to_impute: bool


def impute_by_spot(values: np.ndarray, ring_members
                   ) -> tuple[np.ndarray, int]:
    """Fill the zeros of a slide's [n_spots, n_genes] block spot by spot,
    growing a spot's rings only for its genes still unfilled.  Returns the
    filled block and the number of cells that took the slide-wide
    median."""
    values = np.asarray(values, dtype=np.float64)
    zero = values == 0.0
    known = np.where(zero, np.nan, values)
    has_value = ~zero.all(axis=0)
    fallback = np.zeros(values.shape[1])
    fallback[has_value] = _row_medians(known[:, has_value].T)
    unfilled = zero & has_value
    filled = values.copy()
    n_fallback = 0
    for i in np.flatnonzero(unfilled.any(axis=1)):
        todo = np.flatnonzero(unfilled[i])
        members = ring_members[i]
        near = known[np.concatenate(members)[:, None], todo]
        end = 0
        for ring in members:
            end += ring.size
            seen = ~np.isnan(near[:end]).all(axis=0)
            if seen.any():
                filled[i, todo[seen]] = _row_medians(near[:end, seen].T)
                todo, near = todo[~seen], near[:, ~seen]
                if not todo.size:
                    break
        filled[i, todo] = fallback[todo]
        n_fallback += todo.size
    return filled, n_fallback


def impute_gene_map(values: np.ndarray, ring_members) -> GeneImputation:
    """Fill the zeros of one gene map from its nonzero neighborhood."""
    values = np.asarray(values, dtype=np.float64)
    n = len(ring_members)
    if values.shape != (n,):
        raise ShapeMismatch(
            f"gene map has {values.shape}, rings cover {n} spots")
    zero_idx = np.nonzero(values == 0.0)[0]
    nonzero = values[values != 0.0]
    out = values.copy()
    flags = np.zeros(n, dtype=np.bool_)

    if nonzero.size == 0:
        return GeneImputation(out, flags, int(zero_idx.size), 0, 0,
                              nothing_to_impute=zero_idx.size > 0)

    fallback = float(np.median(nonzero))
    n_fallback = 0
    for i in zero_idx:
        collected: list[float] = []
        filled = False
        for members in ring_members[i]:
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



def read_coordinates(path) -> SpotTable:
    _, header, rows = _parse_tsv(path)
    rows = ((line_no, line.split("\t")) for line_no, line in rows)
    if tuple(header) != COORD_COLUMNS:
        raise MalformedRow(
            f"{path}: header must be {' '.join(COORD_COLUMNS)}")
    spot_ids: list[str] = []
    slide_ids: set[str] = set()
    pixel: list[float] = []
    array: list[int] = []
    for line_no, fields in rows:
        if len(fields) != 6:
            raise MalformedRow(
                f"{path}:{line_no}: expected 6 columns, got {len(fields)}")
        spot_ids.append(fields[0])
        slide_ids.add(fields[1])
        pixel += (_parse_float(t, path, line_no) for t in fields[2:4])
        array += (_parse_int(t, path, line_no) for t in fields[4:6])
    if not spot_ids:
        raise EmptySlide(f"{path}: no spots")
    if len(slide_ids) > 1:
        raise MalformedRow(
            f"{path}: mixed slide ids {sorted(slide_ids)[:3]}")
    try:
        return SpotTable(slide_ids.pop(), spot_ids,
                         np.array(pixel).reshape(-1, 2),
                         np.array(array, dtype=np.int64).reshape(-1, 2))
    except ValidationError as e:
        raise type(e)(f"{path}: {e}") from None


def offset_encodings(offsets, d_emb):
    distinct, index = np.unique(offsets, axis=0, return_inverse=True)
    table = np.array([positional_encoding(int(r), int(c), d_emb)
                      for r, c in distinct])
    return table, index.reshape(-1)


def shape_groups(batch):
    firsts = np.cumsum(batch.sizes) - batch.sizes
    groups = []
    for t in np.unique(batch.topology).tolist():
        shape = batch.shapes[t]
        rows = firsts[batch.topology == t, None] + np.arange(shape.size)
        groups.append((shape, rows))
    return groups


def color_ramp() -> np.ndarray:
    anchors = ingest._VIRIDIS_ANCHORS
    out = np.empty((256, 3), dtype=np.uint8)
    n_seg = len(anchors) - 1
    for i in range(256):
        t = i / 255.0 * n_seg
        k = min(int(t), n_seg - 1)
        frac = t - k
        lo = anchors[k]
        hi = anchors[k + 1]
        for c in range(3):
            out[i, c] = int(round(lo[c] + (hi[c] - lo[c]) * frac))
    return out


def write_heatmap(ppm_path, spots, values, spacing, missing=None):
    ppm_path = Path(ppm_path)
    csv_path = ppm_path.with_suffix(".csv")
    n = len(spots)
    values = np.asarray(values, dtype=np.float64)
    if missing is None:
        missing = np.zeros(n, dtype=np.bool_)
    else:
        missing = np.asarray(missing, dtype=np.bool_)

    xs, ys = np.ascontiguousarray(spots.pixel.T)
    if n > 1:
        scale = 2.0 * ingest._DISC_TARGET_PX / spacing
    else:
        scale = 1.0
    extent = max(float(xs.max() - xs.min()), float(ys.max() - ys.min()), 1.0)
    if extent * scale > ingest._MAX_IMAGE_DIM:
        scale = ingest._MAX_IMAGE_DIM / extent
    if n > 1:
        radius = max(1, int(round(spacing * scale / 2.0)))
    else:
        radius = ingest._DISC_TARGET_PX
    margin = radius + 2

    width = int(math.ceil((xs.max() - xs.min()) * scale)) + 2 * margin + 1
    height = int(math.ceil((ys.max() - ys.min()) * scale)) + 2 * margin + 1
    img = np.full((height, width, 3), 255, dtype=np.uint8)

    present = ~missing
    if present.any():
        vmin = float(values[present].min())
        vmax = float(values[present].max())
    else:
        vmin = vmax = 0.0
    span = vmax - vmin
    ramp = color_ramp()

    dy = np.arange(-radius, radius + 1)
    dx = np.arange(-radius, radius + 1)
    disc = (dy[:, None] ** 2 + dx[None, :] ** 2) <= radius ** 2

    for i in range(n):
        cx = margin + int(round((xs[i] - xs.min()) * scale))
        cy = margin + int(round((ys[i] - ys.min()) * scale))
        if missing[i]:
            rgb = np.array(ingest._MISSING_RGB, dtype=np.uint8)
        else:
            t = 0.5 if span == 0.0 else (values[i] - vmin) / span
            idx = min(255, max(0, int(round(t * 255.0))))
            rgb = ramp[idx]
        y0, y1 = cy - radius, cy + radius + 1
        x0, x1 = cx - radius, cx + radius + 1
        tile = img[y0:y1, x0:x1]
        tile[disc] = rgb

    with open(ppm_path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(img.tobytes())

    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"#format_version={FORMAT_VERSION}\n#kind=heatmap_grid\n")
        fh.write("spot_id,array_row,array_col,pixel_x,pixel_y,value\n")
        for i, (sid, (r, c), (x, y)) in enumerate(zip(
                spots.spot_ids, spots.array.tolist(), spots.pixel.tolist())):
            val = "" if missing[i] else fmt_float(values[i])
            fh.write(f"{sid},{r},{c},{fmt_float(x)},{fmt_float(y)},{val}\n")
    return ppm_path, csv_path


def check_values(v, stage, slide_id):
    """An expression matrix's value checks, each over the whole matrix."""
    if not np.all(np.isfinite(v)):
        raise NonFiniteValue(f"non-finite expression value in {slide_id}")
    if stage == "raw_counts":
        if np.any(v < 0):
            raise NegativeValue(f"negative count in {slide_id}")
        if np.any(v != np.rint(v)):
            raise ValidationError(f"non-integral count in {slide_id}")
    elif stage == "log1p":
        if np.any(v < 0):
            raise NegativeValue(
                f"negative value in {stage} matrix for {slide_id}")


def filter_by_counts(matrices, spot_range, gene_range):
    """(matrices at the kept spots and genes, still raw_counts, and the
    removal log): spots per slide first, then genes by their totals over
    the kept spots, pooled."""
    removed = []
    kept_spots = []
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
    genes = matrices[0].gene_ids
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
    return [m.subset_genes(kept_ids) for m in kept_spots], removed


def filter_by_sparsity(matrices, eps_total, eps_wsi):
    """(kept gene ids, removal log) by detection over every cell of the
    matrices: eps_total percent of all spots pooled, eps_wsi of each
    slide's."""
    genes = matrices[0].gene_ids
    n_total = sum(m.n_spots for m in matrices)
    pos_total = np.zeros(len(genes), dtype=np.float64)
    per_slide_pct = []
    for m in matrices:
        pos = (m.values > 0).sum(axis=0).astype(np.float64)
        pos_total += pos
        per_slide_pct.append((m.slide_id, 100.0 * pos / m.n_spots))
    total_pct = 100.0 * pos_total / n_total
    kept, removed = [], []
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


def preprocess_chain(matrices, manifest):
    """(log1p matrices, filter_log.tsv rows) of one dataset, each step
    over the whole list: the count filter on raw counts, the sparsity
    filter, the gene subset, then CPM and log2(x + 1)."""
    log_rows = []
    counts = matrices[0].stage == "raw_counts"
    if counts:
        matrices, count_log = filter_by_counts(
            matrices, (manifest.count_min_spot, manifest.count_max_spot),
            (manifest.count_min_gene, manifest.count_max_gene))
        log_rows += [(kind, slide, item, total, "")
                     for kind, slide, item, total in count_log]
    kept, sparsity_log = filter_by_sparsity(
        matrices, manifest.eps_total, manifest.eps_wsi)
    log_rows += [("gene_sparsity", scope, gene, pct, threshold)
                 for gene, scope, pct, threshold in sparsity_log]
    matrices = [m.subset_genes(kept) for m in matrices]
    if counts:
        out = []
        for m in matrices:
            totals = m.values.sum(axis=1, keepdims=True)
            tpm = m.values / np.where(totals > 0, totals, 1.0) * 1e6
            out.append(ExpressionMatrix(m.slide_id, m.gene_ids, m.spot_ids,
                                        np.log2(tpm + 1.0), "log1p"))
        matrices = out
    return matrices, log_rows


def neighbor_mean(emb, adjacency):
    total = emb.copy()
    count = np.ones(emb.shape[0])
    for i, j in adjacency.edges:
        total[i] += emb[j]
        total[j] += emb[i]
        count[i] += 1
        count[j] += 1
    return total / count[:, None]


def _flat(x, ss):
    """Whether x, whose centred values square to ss, spreads no further
    than rounding its mean could leave of a constant."""
    n = x.size
    return math.sqrt(ss / n) <= MEAN_ROUNDING * n * float(np.abs(x).max())


def _pcc(truth, pred):
    zt = truth - truth.mean()
    zp = pred - pred.mean()
    ss_t = float(zt @ zt)
    ss_p = float(zp @ zp)
    if _flat(truth, ss_t) or _flat(pred, ss_p):
        return None
    r = float(zt @ zp) / math.sqrt(ss_t * ss_p)
    return min(1.0, max(-1.0, r))


def _r2(truth, pred):
    zt = truth - truth.mean()
    ss_tot = float(zt @ zt)
    if _flat(truth, ss_tot):
        return None
    ss_res = float(((pred - truth) ** 2).sum())
    return 1.0 - ss_res / ss_tot


def column_stats(pred, truth, keep):
    """(pccs, r2s) of each column over its unmasked cells, one column at a
    time; None where undefined."""
    pairs = []
    for j in range(truth.shape[1]):
        t, p = truth[keep[:, j], j], pred[keep[:, j], j]
        pairs.append((None, None) if t.size < 2 else (_pcc(t, p), _r2(t, p)))
    return [p for p, _ in pairs], [r for _, r in pairs]


def masked_mse_mae(pred, truth, keep):
    diff = pred[keep] - truth[keep]
    return float(np.mean(diff ** 2)), float(np.mean(np.abs(diff)))


def pcc_histogram(gene_ids, pccs, width):
    n_bins = int(round(2.0 / width))
    edges = -1.0 + width * np.arange(n_bins + 1)
    counts = [0] * n_bins
    for _, v in zip(gene_ids, pccs, strict=True):
        if v is None:
            continue
        idx = min(int((v + 1.0) / width), n_bins - 1)
        counts[idx] += 1
    return [(float(edges[i]), float(edges[i + 1]), counts[i])
            for i in range(n_bins)]


def spot_subset(table: SpotTable, spot_ids) -> SpotTable:
    """The named spots of table, in canonical order."""
    index = {s: i for i, s in enumerate(table.spot_ids)}
    for sid in spot_ids:
        if sid not in index:
            raise SpotSetMismatch(
                f"spot {sid!r} of slide {table.slide_id!r} has no "
                f"coordinates")
    rows = np.sort(np.array([index[s] for s in spot_ids], dtype=np.int64))
    return SpotTable(table.slide_id,
                     [table.spot_ids[i] for i in rows.tolist()],
                     table.pixel[rows], table.array[rows])


def subset_genes(matrix: ExpressionMatrix, gene_ids) -> ExpressionMatrix:
    index = {g: i for i, g in enumerate(matrix.gene_ids)}
    missing = [g for g in gene_ids if g not in index]
    if missing:
        raise GeneSetMismatch(
            f"genes {missing[:5]} absent from {matrix.slide_id}")
    cols = np.array([index[g] for g in gene_ids], dtype=np.int64)
    return ExpressionMatrix(matrix.slide_id, tuple(gene_ids),
                            matrix.spot_ids, matrix.values[:, cols],
                            matrix.stage)


def mask_subset_genes(mask: ImputationMask, gene_ids) -> ImputationMask:
    index = {g: i for i, g in enumerate(mask.gene_ids)}
    missing = [g for g in gene_ids if g not in index]
    if missing:
        raise GeneSetMismatch(
            f"genes {missing[:5]} absent from {mask.slide_id}")
    cols = np.array([index[g] for g in gene_ids], dtype=np.int64)
    return ImputationMask(mask.slide_id, tuple(gene_ids), mask.spot_ids,
                          mask.values[:, cols])


def rows_for(table: EmbeddingTable, spot_ids) -> np.ndarray:
    index = {s: i for i, s in enumerate(table.spot_ids)}
    missing = [s for s in spot_ids if s not in index]
    if missing:
        raise MissingEmbedding(
            f"spot {missing[0]!r} in {table.slide_id} has no embedding row")
    return np.array([index[s] for s in spot_ids], dtype=np.int64)


def align_slide(spots: SpotTable, expression: ExpressionMatrix,
                embeddings: EmbeddingTable) -> Slide:
    if spots.spot_ids != expression.spot_ids:
        spots = spot_subset(spots, expression.spot_ids)
    if embeddings.spot_ids != spots.spot_ids:
        embeddings = EmbeddingTable(
            embeddings.slide_id, spots.spot_ids,
            embeddings.vectors[rows_for(embeddings, spots.spot_ids), :])
    if spots.spot_ids != expression.spot_ids:
        expr_index = {s: i for i, s in enumerate(expression.spot_ids)}
        expression = expression.subset_spots(np.array(
            [expr_index[s] for s in spots.spot_ids], dtype=np.int64))
    return Slide(spots, expression, embeddings)
