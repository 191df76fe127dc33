"""The graph correction network as a stack of layers, each with its own
backward.

Each layer function returns its output and a backward closure over
exactly the arrays that backward reads, and nothing else: a layer's
arrays live as long as its closure.  spatial_forward appends the
closures, with the keys of the parameters each layer uses, to a tape
when training passes a list; prediction passes none, and each closure is
dropped as soon as its layer returns.  backward(tape, grad) pops them in
reverse: a closure takes the gradient of its output and whether its
input needs one (the first layer's input is the batch's features, which
need none), and returns its input's gradient and its parameters'.  A
layer's arrays are freed as soon as its backward has run, and as each
backward runs once, after those of every layer that reads its output,
it may write over what it keeps.

What each layer keeps, and what it writes over:

  linear       its input and weight; the product, with the bias added
               in place, is its own
  elu          its output, from which the slope comes; it is written
               over its input, the pre-activation, which no layer keeps,
               and its backward writes the input's gradient over it
  gcn_conv     a narrowing layer propagates its product in place and
               keeps its input, and its backward writes S^T g over the
               g it is handed; a widening one keeps the propagated
               input, which the product after it reads
  graph_conv   what its two products keep (its input, and the
               propagated input where the neighbour product widens);
               both sums are written over the first product's buffer,
               and its backward takes everything it reads of g before
               the neighbour product's backward writes over g
  readouts     row indices and weights; SAG also keeps its input, the
               gathered scores and their tanh gates, and gates the
               gathered rows in place, which no backward reads

So at backward's entry a layer that narrows holds one array of its rows,
its ELU output, and one that propagates its input also keeps the
propagated input.

Every layer computes in the dtype of its input, and the gradients it
hands back have that dtype too.  spatial_forward runs in the dtype of its
batch's features: graphs assembled from a slide gather float32 features,
so stage 2 computes in float32, while the parameters (and the optimizer
state) stay float64; spatial_forward hands the layers each parameter in
the batch's dtype, and backward casts each parameter's gradient to
float64 once.  The same code run on a float64 batch computes in float64,
as the gradient checks do.

A batch is a disjoint union of small local graphs, so its propagation
matrix is block-diagonal.  A spot lies in many local graphs, so a batch
holds, per node, a row into a table of embeddings and a row into a table
of offset encodings, and gathers the feature rows of the graphs it runs
only when spatial_forward reads them.  Local graphs on a spot lattice
mostly share a few shapes (a node count and its local edges), so a batch
holds a shape id per graph and the distinct shapes, each with dense adj
and gcn blocks built once when the graphs are packed.  A product
multiplies each shape's graphs, gathered into a [graphs, k, d] array at
the shape's exact size k, by its one [k, k] block in a broadcast matmul;
nothing is padded.  Its cost grows with k^2 per graph, not with the
graph's edge count: the price of needing numpy alone.

Model layers:

  gcn_conv     H' = A_hat H W^T with A_hat = D~^{-1/2} (A + I) D~^{-1/2}
  graph_conv   h'_i = W1 h_i + W2 sum_{j in N(i)} h_j + b
  sag_mean     gate nodes by a one-channel gcn score, keep the top
               ceil(ratio * n) per graph, mean the kept rows
  global_mean  mean over all of a graph's rows

The top-k selection inside SAG pooling is treated as a constant during
backpropagation: gradients flow through the kept rows and the gate values
but not through the ranking itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import sqrt
from typing import Callable, Sequence

import numpy as np

from .core import (
    OPERATORS,
    POOLINGS,
    ShapeMismatch,
    ValidationError,
)

# a layer's backward: given its output's gradient and whether its input
# needs one, its input's gradient (or None) and its parameters' gradients
Backward = Callable[[np.ndarray, bool],
                    tuple[np.ndarray | None, tuple[np.ndarray, ...]]]
Layer = tuple[np.ndarray, Backward]

# a batch's block-diagonal propagation matrix: per shape in the batch, its
# [k, k] block and the [graphs, k] batch rows of its graphs
Propagation = Sequence[tuple[np.ndarray, np.ndarray]]


def propagate(prop: Propagation, x: np.ndarray, transposed: bool = False,
              out: np.ndarray | None = None) -> np.ndarray:
    """S x, or S^T x if transposed, for a constant block-diagonal S.  Each
    shape's rows are gathered into a [graphs, k, d] array and multiplied
    by its block in one broadcast matmul.  out may be x itself: every
    shape's rows are gathered before its product is written back, and no
    two shapes share a row."""
    n_rows = sum(rows.size for _, rows in prop)
    if n_rows != x.shape[0]:
        raise ShapeMismatch(
            f"propagation over {n_rows} rows against features {x.shape}")
    out = np.empty_like(x) if out is None else out
    for block, rows in prop:
        out[rows] = np.matmul(block.T if transposed else block, x[rows])
    return out


# elements per pass of elu's scratch array; a scratch as large as a
# prediction chunk's activation, allocated and freed on every call, makes
# the allocator hand its pages back and fault them in again each time
ELU_BLOCK = 1 << 16


def elu(x: np.ndarray) -> Layer:
    """ELU, written over x, a pre-activation no layer keeps; the backward
    reads only the output."""
    # expm1(min(x, 0)) is 0 where x > 0 and >= x elsewhere, so the ELU is
    # max(x, it) (np.where costs several times np.maximum), taken a block
    # of rows at a time; where x < 0 the output is that expm1 itself, so
    # the slope exp(min(x, 0)) is min(output, 0) + 1 and nothing else is
    # kept
    y = np.atleast_1d(x)
    step = max(1, ELU_BLOCK // max(1, int(np.prod(y.shape[1:]))))
    for i in range(0, len(y), step):
        neg = np.minimum(y[i:i + step], 0.0)
        np.expm1(neg, out=neg)
        np.maximum(y[i:i + step], neg, out=y[i:i + step])

    def backward(g, need_input):
        # the slope, then the input's gradient, over the output: a
        # backward runs once, and no other layer reads the output by then
        np.minimum(x, 0.0, out=x)
        np.add(x, 1.0, out=x)
        return np.multiply(x, g, out=x), ()
    return x, backward


# ---------------------------------------------------------------------------
# propagation matrices

def _edge_counts(n_nodes: int, edges: np.ndarray) -> np.ndarray:
    """One graph's symmetric [n_nodes, n_nodes] edge counts in float64,
    without self loops unless listed; an edge listed twice counts twice."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and not 0 <= edges.min() <= edges.max() < n_nodes:
        raise ValidationError(f"edge endpoint outside {n_nodes} nodes")
    counts = np.bincount(edges[:, 0] * n_nodes + edges[:, 1],
                         minlength=n_nodes * n_nodes)
    counts = counts.reshape(n_nodes, n_nodes)
    return (counts + counts.T).astype(np.float64)


def adj_matrix(n_nodes: int, edges: np.ndarray, dtype=np.float64
               ) -> np.ndarray:
    """One graph's symmetric adjacency without self loops."""
    return _edge_counts(n_nodes, edges).astype(dtype)


def gcn_matrix(n_nodes: int, edges: np.ndarray, dtype=np.float64
               ) -> np.ndarray:
    """One graph's symmetrically normalized adjacency with self loops.
    Entry (i, j) is (d_i a_ij) d_j with d = deg^{-1/2}, taken in float64
    and then rounded to dtype."""
    a = _edge_counts(n_nodes, edges) + np.eye(n_nodes)
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    return (inv_sqrt[:, None] * a * inv_sqrt).astype(dtype)


# ---------------------------------------------------------------------------
# layers

def linear(h: np.ndarray, weight: np.ndarray,
           bias: np.ndarray | None = None) -> Layer:
    """h [n, in] times weight [out, in] transposed, plus bias [out] if
    one is given, added in place to the product."""
    if h.ndim != 2 or weight.ndim != 2 or h.shape[1] != weight.shape[1]:
        raise ShapeMismatch(f"linear {h.shape} with weight {weight.shape}")
    out = h @ weight.T
    with_bias = bias is not None
    if with_bias:
        if bias.shape != (weight.shape[0],):
            raise ShapeMismatch(
                f"bias {bias.shape} for weight {weight.shape}")
        out += bias

    def backward(g, need_input):
        # the expressions, and so the bits, of h @ weight^T as a matmul of
        # h by a transposed weight, plus a broadcast add of the bias
        grads = ((h.T @ g).T,) + ((g.sum(axis=0),) if with_bias else ())
        return (g @ weight if need_input else None), grads
    return out, backward


def gcn_conv(h: np.ndarray, prop: Propagation, weight: np.ndarray) -> Layer:
    """prop h weight^T, with the propagation taken on the narrower of h
    and h weight^T.  Where that is the output, the backward writes S^T g
    over the g it is handed, so the caller must not read g after it."""
    if weight.shape[0] < weight.shape[1]:
        out, product_backward = linear(h, weight)
        propagate(prop, out, out=out)

        def backward(g, need_input):
            g_prop = propagate(prop, g, transposed=True, out=g)
            return product_backward(g_prop, need_input)
        return out, backward
    # the product reads the propagated h, so its backward keeps it
    out, product_backward = linear(propagate(prop, h), weight)

    def backward(g, need_input):
        g_prop, grads = product_backward(g, need_input)
        return (propagate(prop, g_prop, transposed=True) if need_input
                else None), grads
    return out, backward


def graph_conv(h: np.ndarray, adj: Propagation, w_self: np.ndarray,
               w_neigh: np.ndarray, bias: np.ndarray) -> Layer:
    """(h w_self^T + adj h w_neigh^T) + bias, summed in that order over
    the first product's buffer."""
    out, own_backward = linear(h, w_self)
    neigh, neigh_backward = gcn_conv(h, adj, w_neigh)
    out += neigh
    out += bias

    def backward(g, need_input):
        g_own, (g_self,) = own_backward(g, need_input)
        g_bias = g.sum(axis=0)
        # the neighbour product's backward may write over g
        g_neigh, (g_neigh_w,) = neigh_backward(g, need_input)
        # the own product's gradient first, then the neighbours'
        return (g_own + g_neigh if need_input else None), (
            g_self, g_neigh_w, g_bias)
    return out, backward


def _check_sizes(sizes, n_rows: int) -> np.ndarray:
    """Per-graph row counts, each positive, that together cover n_rows."""
    sizes = np.asarray(sizes, dtype=np.int64).reshape(-1)
    empty = np.flatnonzero(sizes <= 0)
    if empty.size:
        raise ValidationError(f"empty graph {empty[0]} in batch")
    if sizes.sum() != n_rows:
        raise ShapeMismatch(
            f"graph sizes cover {sizes.sum()} rows, features have {n_rows}")
    return sizes


def _segment_mean(h: np.ndarray, sizes: np.ndarray) -> Layer:
    """Row g averages the sizes[g] rows that follow graph g - 1's.  It adds
    w * h_r, w = 1 / sizes[g] in h's dtype, one in-graph position at a
    time for all graphs at once: the order, and so the bits, of a
    pooling matrix's sparse product.  The backward reads no values."""
    w = (1.0 / sizes).astype(h.dtype)
    firsts = np.cumsum(sizes) - sizes
    out = np.zeros((sizes.size, h.shape[1]), h.dtype)
    for k in range(int(sizes.max(initial=0))):
        g = np.flatnonzero(sizes > k)
        out[g] += w[g, None] * h[firsts[g] + k]
    graph = np.repeat(np.arange(sizes.size), sizes)

    def backward(g, need_input):
        return w[graph, None] * g[graph], ()
    return out, backward


def global_mean_readout(h: np.ndarray, sizes) -> Layer:
    return _segment_mean(h, _check_sizes(sizes, h.shape[0]))


def sag_mean_readout(h: np.ndarray, score_prop: Propagation,
                     score_w: np.ndarray, ratio: float, sizes) -> Layer:
    """Gated top-k mean per graph.

    Scores come from a one-channel gcn over the same node features; the
    top ceil(ratio * n) rows per graph (stable order, ties keep the lower
    index) are gated by tanh(score) and averaged.
    """
    if score_w.shape != (1, h.shape[1]):
        raise ShapeMismatch(
            f"score weight {score_w.shape} for features {h.shape}")
    sizes = _check_sizes(sizes, h.shape[0])
    score, score_backward = gcn_conv(h, score_prop, score_w)  # [n, 1]

    rows = np.arange(sizes.sum())
    graph = np.repeat(np.arange(sizes.size), sizes)
    # rank every graph's rows by descending score, lower row on ties
    ranked = np.lexsort((rows, -score[:, 0], graph))
    counts = np.ceil(ratio * sizes).astype(np.int64)
    rank = rows - np.repeat(np.cumsum(sizes) - sizes, sizes)
    top = rank < np.repeat(counts, sizes)
    # graphs own consecutive rows, so the kept rows in row order are in
    # graph order too
    keep = np.zeros(rows.size, dtype=bool)
    keep[ranked[top]] = True
    kept = np.flatnonzero(keep)
    kept_score = score[kept]
    gate = np.tanh(kept_score)
    gated = h[kept]
    gated *= gate
    out, mean_backward = _segment_mean(gated, counts)

    def backward(g, need_input):
        # the expressions, and so the bits, of a row gather, a tanh and a
        # broadcast product: the gate's gradient sums over the channels
        # only where there are several (a sum of one -0.0 is +0.0), and
        # each gather's gradient is scattered into zeros: the kept rows
        # are unique, so it is assigned, and adding 0.0 turns -0.0 into
        # +0.0 as a scatter-add into zeros does
        g_gated, _ = mean_backward(g, True)
        g_gate = g_gated * h[kept]
        if g_gate.shape[1] != 1:
            g_gate = g_gate.sum(axis=1, keepdims=True)
        # sech(x)^2 = 4e / (1 + e)^2 with e = exp(-2|x|), from the input:
        # 1 - tanh(x)^2 is 0 once tanh rounds to 1 (|x| > ~9 in float32)
        e = np.exp(-2.0 * np.abs(kept_score))
        g_score = np.zeros((h.shape[0], 1), kept_score.dtype)
        g_score[kept] = g_gate * (4.0 * e / ((1.0 + e) * (1.0 + e)))
        g_score += 0.0
        g_h, grads = score_backward(g_score, need_input)
        if need_input:
            # the gathered rows' gradient first, then the score's
            g_rows = np.zeros_like(h)
            g_rows[kept] = g_gated * gate
            g_rows += 0.0
            g_h = g_rows + g_h
        return g_h, grads
    return out, backward


# ---------------------------------------------------------------------------
# the spatial correction model

@dataclass(frozen=True)
class ModelSpec:
    """Architecture of the spatial correction network."""

    in_width: int
    n_genes: int
    pre_widths: tuple[int, ...] = ()
    operator: str = "graphconv"
    gnn_widths: tuple[int, ...] = (256,)
    pooling: str = "sag_mean"
    sag_ratio: float = 0.5
    post_widths: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "pre_widths", tuple(self.pre_widths))
        object.__setattr__(self, "gnn_widths", tuple(self.gnn_widths))
        object.__setattr__(self, "post_widths", tuple(self.post_widths))
        if self.operator not in OPERATORS:
            raise ValidationError(f"unknown operator {self.operator!r}")
        if self.pooling not in POOLINGS:
            raise ValidationError(f"unknown pooling {self.pooling!r}")
        if not 0.0 < self.sag_ratio <= 1.0:
            raise ValidationError(
                f"sag_ratio must lie in (0, 1], got {self.sag_ratio}")
        if self.in_width < 1 or self.n_genes < 1:
            raise ValidationError("widths must be positive")
        if not self.gnn_widths:
            raise ValidationError("at least one graph layer is required")
        for w in (*self.pre_widths, *self.gnn_widths, *self.post_widths):
            if w < 1:
                raise ValidationError(f"layer width {w} must be positive")
        out = self.post_widths[-1] if self.post_widths else self.gnn_widths[-1]
        if out != self.n_genes:
            raise ShapeMismatch(
                f"model emits {out} channels but {self.n_genes} genes are "
                f"expected")


@dataclass
class ModelState:
    """Float64 parameter arrays for one ModelSpec, keyed by layer path."""

    spec: ModelSpec
    params: dict[str, np.ndarray]
    seed: int

    def clone_arrays(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for k in self.params:
            self.params[k] = np.array(arrays[k], dtype=np.float64, copy=True)


def glorot(rng: np.random.Generator, n_out: int, n_in: int) -> np.ndarray:
    lim = sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-lim, lim, size=(n_out, n_in))


def param_shapes(spec: ModelSpec) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape, keyed by layer path, in init order: a
    weight is [out, in] and a bias [out]."""
    shapes: dict[str, tuple[int, ...]] = {}
    width = spec.in_width
    for i, w in enumerate(spec.pre_widths):
        shapes[f"pre.{i}.W"], shapes[f"pre.{i}.b"] = (w, width), (w,)
        width = w
    for i, w in enumerate(spec.gnn_widths):
        if spec.operator == "gcn":
            shapes[f"gnn.{i}.W"] = (w, width)
        else:
            shapes[f"gnn.{i}.W1"] = shapes[f"gnn.{i}.W2"] = (w, width)
            shapes[f"gnn.{i}.b"] = (w,)
        width = w
    if spec.pooling == "sag_mean":
        shapes["pool.score.W"] = (1, width)
    for i, w in enumerate(spec.post_widths):
        shapes[f"post.{i}.W"], shapes[f"post.{i}.b"] = (w, width), (w,)
        width = w
    return shapes


def init_model_state(spec: ModelSpec, seed: int) -> ModelState:
    """Seeded init: glorot-uniform weights, zero biases, and a zeroed
    final layer so the correction starts exactly at zero."""
    rng = np.random.default_rng(seed)
    last = (f"post.{len(spec.post_widths) - 1}." if spec.post_widths
            else f"gnn.{len(spec.gnn_widths) - 1}.")
    params: dict[str, np.ndarray] = {}
    for key, shape in param_shapes(spec).items():
        data = glorot(rng, *shape) if len(shape) == 2 else np.zeros(shape)
        if key.startswith(last):
            data[:] = 0.0
        params[key] = data
    return ModelState(spec=spec, params=params, seed=seed)


def _runs(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The indices start, ..., start + count - 1 of every run, in order."""
    firsts = np.cumsum(counts) - counts
    return (np.arange(counts.sum(), dtype=np.int64)
            + np.repeat(starts - firsts, counts))


@dataclass(frozen=True)
class Shape:
    """One local-graph topology: a node count and the local edges between
    those nodes, with the adj and gcn blocks built from them once."""

    size: int
    edges: np.ndarray  # [n_edges, 2] local node ids
    adj: np.ndarray    # [size, size]
    gcn: np.ndarray    # [size, size]

    @property
    def key(self) -> tuple[int, bytes]:
        return self.size, self.edges.tobytes()


@dataclass(frozen=True)
class NodeTable:
    """The rows a batch's node features are gathered from.  A node's
    feature row is a row of embeddings and a row of encodings, added or
    side by side per the aggregation ("sum" or "concat"), taken in the
    tables' dtype and rounded once to dtype, the dtype the network
    computes in."""

    embeddings: np.ndarray  # [n_rows, d]
    encodings: np.ndarray   # [n_offsets, d] for sum, any width for concat
    aggregation: str
    dtype: np.dtype

    @classmethod
    def join(cls, tables: Sequence["NodeTable"]) -> "NodeTable":
        """One table holding each table's rows after the previous ones'."""
        first = tables[0]
        return cls(np.concatenate([t.embeddings for t in tables]),
                   np.concatenate([t.encodings for t in tables]),
                   first.aggregation, first.dtype)

    @property
    def width(self) -> int:
        d = self.embeddings.shape[1]
        return d if self.aggregation == "sum" else d + self.encodings.shape[1]

    def gather(self, nodes: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """The [nodes, width] feature rows of the given table rows."""
        out = np.empty((nodes.size, self.width), self.dtype)
        if self.aggregation == "sum":
            np.add(self.embeddings[nodes], self.encodings[offsets], out=out,
                   casting="same_kind")
        else:
            d = self.embeddings.shape[1]
            out[:, :d] = self.embeddings[nodes]
            out[:, d:] = self.encodings[offsets]
        return out


@dataclass(frozen=True)
class GraphBatch:
    """Disjoint union of local graphs for one forward pass.

    Graph g owns sizes[g] consecutive node rows and has the topology
    shapes[topology[g]].  Node i holds no features of its own, only row
    nodes[i] of the table's embeddings and row offsets[i] of its
    encodings, so a spot in many graphs is stored once; features gathers
    the rows when the network runs.  The table's dtype is the dtype
    spatial_forward computes in, and the shapes' blocks have it too.
    take and from_graphs reuse the shapes they are given, so only pack
    builds blocks.
    """

    table: NodeTable
    nodes: np.ndarray      # [n_nodes] rows of table.embeddings
    offsets: np.ndarray    # [n_nodes] rows of table.encodings
    sizes: np.ndarray      # [n_graphs] node counts
    topology: np.ndarray   # [n_graphs] rows of shapes
    shapes: tuple[Shape, ...]

    @classmethod
    def pack(cls, table: NodeTable, sizes, edges: Sequence[np.ndarray],
             nodes, offsets) -> "GraphBatch":
        """The batch of graphs where graph g owns sizes[g] consecutive
        node rows and edges[g] lists its edges by local node id; node i
        is row nodes[i] of the table's embeddings and row offsets[i] of
        its encodings.  Graphs of one size whose local edges are listed
        alike share one shape, whose blocks are built once, in the
        table's dtype; the build rejects an endpoint outside its graph."""
        nodes = np.asarray(nodes, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        if nodes.shape != offsets.shape:
            raise ShapeMismatch(
                f"{nodes.shape} node rows with {offsets.shape} offsets")
        sizes = _check_sizes(sizes, nodes.size)
        if len(edges) != sizes.size:
            raise ShapeMismatch(
                f"{len(edges)} edge lists for {sizes.size} graphs")
        # a shape is keyed on its size and its local edges' bytes
        index: dict[tuple[int, bytes], int] = {}
        topology = np.empty(sizes.size, dtype=np.int64)
        for g, (k, local) in enumerate(zip(sizes.tolist(), edges)):
            local = np.asarray(local, dtype=np.int64).reshape(-1, 2)
            topology[g] = index.setdefault((k, local.tobytes()), len(index))
        shapes = []
        for k, data in index:
            e = np.frombuffer(data, np.int64).reshape(-1, 2)
            shapes.append(Shape(k, e, adj_matrix(k, e, table.dtype),
                                gcn_matrix(k, e, table.dtype)))
        return cls(table, nodes, offsets, sizes, topology, tuple(shapes))

    @property
    def n_nodes(self) -> int:
        return int(self.nodes.size)

    @property
    def n_graphs(self) -> int:
        return int(self.sizes.shape[0])

    @property
    def width(self) -> int:
        return self.table.width

    @property
    def dtype(self) -> np.dtype:
        return self.table.dtype

    @property
    def features(self) -> np.ndarray:
        """The [n_nodes, width] feature rows, gathered anew on each read."""
        return self.table.gather(self.nodes, self.offsets)

    @cached_property
    def _groups(self) -> list[tuple[Shape, np.ndarray]]:
        """Each shape that graphs of the batch have, with the [graphs,
        size] batch rows of those graphs, in batch order."""
        firsts = np.cumsum(self.sizes) - self.sizes
        groups = []
        present = np.bincount(self.topology, minlength=len(self.shapes))
        for t in np.flatnonzero(present).tolist():
            shape = self.shapes[t]
            rows = firsts[self.topology == t, None] + np.arange(shape.size)
            groups.append((shape, rows))
        return groups

    def propagation(self, kind: str) -> Propagation:
        """The batch's "adj" or "gcn" matrix, one block per shape."""
        return [(getattr(shape, kind), rows) for shape, rows in self._groups]

    def take(self, idx) -> "GraphBatch":
        """The graphs at idx, in that order, as a new batch over the same
        table and shapes; only index arrays are copied."""
        idx = np.asarray(idx, dtype=np.int64).reshape(-1)
        firsts = np.cumsum(self.sizes) - self.sizes
        sizes = self.sizes[idx]
        rows = _runs(firsts[idx], sizes)
        return GraphBatch(self.table, self.nodes[rows], self.offsets[rows],
                          sizes, self.topology[idx], self.shapes)

    @classmethod
    def from_graphs(cls, batches: Sequence["GraphBatch"]) -> "GraphBatch":
        """Disjoint union of batches, their graphs in order, over one table
        holding their tables' rows and one table of their distinct
        shapes; a single batch is returned as it is."""
        if not batches:
            raise ValidationError("empty graph batch")
        if len(batches) == 1:
            return batches[0]
        index: dict = {}  # shape key -> (row of the union's table, shape)
        for b in batches:
            for s in b.shapes:
                index.setdefault(s.key, (len(index), s))
        topology = [np.array([index[s.key][0] for s in b.shapes],
                             dtype=np.int64)[b.topology] for b in batches]
        # each batch's index arrays shift past the rows of the tables
        # before its own
        tables = [b.table for b in batches]
        row_shift = np.cumsum([0] + [t.embeddings.shape[0]
                                     for t in tables[:-1]])
        offset_shift = np.cumsum([0] + [t.encodings.shape[0]
                                        for t in tables[:-1]])
        return cls(NodeTable.join(tables),
                   np.concatenate([b.nodes + s
                                   for b, s in zip(batches, row_shift)]),
                   np.concatenate([b.offsets + s
                                   for b, s in zip(batches, offset_shift)]),
                   np.concatenate([b.sizes for b in batches]),
                   np.concatenate(topology),
                   tuple(s for _, s in index.values()))


def spatial_forward(state: ModelState, batch: GraphBatch,
                    tape: list | None = None) -> np.ndarray:
    """Run the correction network over a batch; returns [n_graphs, n_genes]
    in the dtype of the batch's features.  Each layer's backward, with
    the keys of its parameters, is appended to tape if one is given, and
    dropped at once if not."""
    spec = state.spec
    if batch.width != spec.in_width:
        raise ShapeMismatch(
            f"batch features {(batch.n_nodes, batch.width)} for in_width "
            f"{spec.in_width}")
    dtype = batch.dtype
    p = {k: v.astype(dtype, copy=False) for k, v in state.params.items()}

    def record(layer: Layer, *keys: str) -> np.ndarray:
        out, layer_backward = layer
        if tape is not None:
            tape.append((keys, layer_backward))
        return out

    h = batch.features
    for i in range(len(spec.pre_widths)):
        w, b = f"pre.{i}.W", f"pre.{i}.b"
        h = record(elu(record(linear(h, p[w], p[b]), w, b)))

    for i in range(len(spec.gnn_widths)):
        if spec.operator == "gcn":
            w = f"gnn.{i}.W"
            h = record(gcn_conv(h, batch.propagation("gcn"), p[w]), w)
        else:
            keys = (f"gnn.{i}.W1", f"gnn.{i}.W2", f"gnn.{i}.b")
            h = record(graph_conv(h, batch.propagation("adj"),
                                  *(p[k] for k in keys)), *keys)
        h = record(elu(h))

    if spec.pooling == "sag_mean":
        w = "pool.score.W"
        r = record(sag_mean_readout(h, batch.propagation("gcn"), p[w],
                                    spec.sag_ratio, batch.sizes), w)
    else:
        r = record(global_mean_readout(h, batch.sizes))

    n_post = len(spec.post_widths)
    for i in range(n_post):
        w, b = f"post.{i}.W", f"post.{i}.b"
        r = record(linear(r, p[w], p[b]), w, b)
        if i < n_post - 1:
            r = record(elu(r))
    return r


def backward(tape: list, grad: np.ndarray) -> dict[str, np.ndarray]:
    """Pop the tape's layers in reverse, from grad, the gradient of
    spatial_forward's output in its dtype.  Each layer's arrays are freed
    as soon as its backward has run, and the first layer computes no
    gradient for the features.  Returns every parameter's gradient, cast
    to float64 once the sweep is done, keyed like ModelState.params."""
    grads: dict[str, np.ndarray] = {}
    while tape:
        keys, layer_backward = tape.pop()
        grad, layer_grads = layer_backward(grad, bool(tape))
        grads.update(zip(keys, layer_grads))
    return {k: g.astype(np.float64, copy=False) for k, g in grads.items()}
