"""A small reverse-mode autodiff engine and the graph network built on it.

Tensors wrap float32 or float64 ndarrays and record the backward closure
of the operation that produced them; backward() runs the closures in reverse
topological order.  A closure is passed its output tensor rather than
capturing it, so a tape has no reference cycle and refcounting frees it.
backward() consumes the tape: once a node's closure has run, the node
drops its closure and parents, so each activation is freed during the
sweep as soon as no gradient still needs it, and only the tensors the
caller holds outlive it, with their grads.  A second backward() from the
same loss raises NoRecordedForward.
The tape keeps only values that some backward reads.  linear keeps its
input and weight, mul both operands, tanh its input and elu its output
(its slope comes from the output); add, propagate and the segment mean
read only shapes.  A caller marks an input spent when no other op reads
it: elu and propagate then write their output over its buffer, add
writes its sum over a spent first operand's buffer, and every spent
input lets go of its values and keeps only its shape and dtype.  So the
network's pre-activations, its products and sums inside graph_conv, a
propagated gcn product and SAG's gated rows cost no memory past their
consumer.  A layer that narrows holds one array of its rows, its ELU
output; one that propagates its input also keeps the propagated input,
which the product after it reads.
Only tensors that need a gradient are recorded: a bare Tensor is a
trainable leaf, a constant() is not, and an op's output keeps its
parents and closure only when one of its inputs needs a gradient.  A
forward over constants alone (prediction) therefore records no tape.
The op set is exactly what the model needs: one dense op (linear, the
product by a transposed weight, with or without a bias), broadcast
add/mul, gather, ELU, tanh, the MSE loss, a dtype cast, a per-graph
segment mean (the readouts) and multiplication by a constant
block-diagonal matrix (the graph propagation step, which never needs a
gradient of its own).

Every op computes in the dtype of its inputs, and a gradient always has
the dtype of the tensor it belongs to.  spatial_forward runs in the dtype
of its batch's features: graphs assembled from a slide hold float32
features, so stage 2 computes in float32, while the parameters (and the
optimizer state) stay float64 and enter the forward through cast(), whose
backward hands them a float64 gradient.  The same code run on a float64
batch computes in float64, as the gradient checks do.

A batch is a disjoint union of small local graphs, so its propagation
matrix is block-diagonal.  Local graphs on a spot lattice mostly share a
few shapes (a node count and its local edges), so a batch holds a shape
id per graph and the distinct shapes, each with dense adj and gcn blocks
built once when the graphs are packed.  A product multiplies each shape's
graphs, gathered into a [graphs, k, d] array at the shape's exact size k,
by its one [k, k] block in a broadcast matmul; nothing is padded.  Its
cost grows with k^2 per graph, not with the graph's edge count: the price
of needing numpy alone.

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
from typing import Sequence

import numpy as np

from .core import (
    OPERATORS,
    POOLINGS,
    NoRecordedForward,
    ShapeMismatch,
    ValidationError,
)


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


def _op(data, parents: tuple[Tensor, ...], backward,
        spent: Sequence[Tensor] = ()) -> Tensor:
    """An op's output; it records parents and closure only if one of the
    parents needs a gradient, and is a constant otherwise.  Each input in
    spent, whose values no other op and not this op's backward reads,
    lets go of them (its buffer may now hold the output) and keeps only
    its shape and dtype, as a read-only zero-stride view of one NaN."""
    for t in spent:
        t.data = np.broadcast_to(np.array(np.nan, t.data.dtype),
                                 t.data.shape)
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


def add(a: Tensor, b: Tensor, spent: Sequence[Tensor] = ()) -> Tensor:
    """a + b, broadcast.  The backward reads only shapes, so the operands
    in spent, which no other op reads, let go of their values; the sum is
    written over a's buffer when a is spent and the sum has its shape and
    dtype."""
    reuse = (a in spent
             and np.broadcast_shapes(a.data.shape, b.data.shape)
             == a.data.shape
             and np.result_type(a.data, b.data) == a.data.dtype)

    def backward(out):
        if a.requires_grad:
            a.add_grad(_unbroadcast(out.grad, a.data.shape))
        if b.requires_grad:
            b.add_grad(_unbroadcast(out.grad, b.data.shape))
    return _op(np.add(a.data, b.data, out=a.data if reuse else None),
               (a, b), backward, spent)


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


# a batch's block-diagonal propagation matrix: per shape in the batch, its
# [k, k] block and the [graphs, k] batch rows of its graphs
Propagation = Sequence[tuple[np.ndarray, np.ndarray]]


def propagate(prop: Propagation, h: Tensor, spent: bool = False
              ) -> Tensor:
    """Multiply by a constant block-diagonal matrix: out = S h,
    grad = S^T g.  Each shape's rows are gathered into a [graphs, k, d]
    array and multiplied by its block in one broadcast matmul.  The
    backward reads no values, so a spent h, which no other op reads, has
    the product written over its buffer: every shape's rows are gathered
    before its product is written back, and no two shapes share a row."""
    n_rows = sum(rows.size for _, rows in prop)
    if n_rows != h.data.shape[0]:
        raise ShapeMismatch(
            f"propagation over {n_rows} rows against features "
            f"{h.data.shape}")

    def product(x: np.ndarray, transposed: bool, out: np.ndarray
                ) -> np.ndarray:
        for block, rows in prop:
            out[rows] = np.matmul(block.T if transposed else block, x[rows])
        return out

    def backward(out):
        h.add_grad(product(out.grad, True, np.empty_like(out.grad)))
    x = h.data
    return _op(product(x, False, x if spent else np.empty_like(x)), (h,),
               backward, (h,) if spent else ())


def gather_rows(a: Tensor, rows: np.ndarray) -> Tensor:
    rows = np.asarray(rows, dtype=np.int64)

    def backward(out):
        g = np.zeros_like(a.data)
        np.add.at(g, rows, out.grad)
        a.add_grad(g)
    return _op(a.data[rows], (a,), backward)


# elements per pass of elu's scratch array; a scratch as large as a
# prediction chunk's activation, allocated and freed on every call, makes
# the allocator hand its pages back and fault them in again each time
ELU_BLOCK = 1 << 16


def elu(a: Tensor, spent: bool = False) -> Tensor:
    """ELU, whose backward reads only its output: a spent a, which no
    other op reads, has the output written over its buffer."""
    # expm1(min(x, 0)) is 0 where x > 0 and >= x elsewhere, so the ELU is
    # max(x, it) (np.where costs several times np.maximum), taken a block
    # of rows at a time; where x < 0 the output is that expm1 itself, so
    # the slope exp(min(x, 0)) is min(output, 0) + 1 and nothing else is
    # kept
    out = a.data if spent else np.empty_like(a.data)
    x, y = np.atleast_1d(a.data), np.atleast_1d(out)
    step = max(1, ELU_BLOCK // max(1, int(np.prod(x.shape[1:]))))
    for i in range(0, len(x), step):
        neg = np.minimum(x[i:i + step], 0.0)
        np.expm1(neg, out=neg)
        np.maximum(x[i:i + step], neg, out=y[i:i + step])

    def backward(out_t):
        slope = np.minimum(out_t.data, 0.0)
        slope += 1.0
        slope *= out_t.grad
        a.add_grad(slope)
    return _op(out, (a,), backward, (a,) if spent else ())


def tanh(a: Tensor) -> Tensor:
    def backward(out):
        # sech(x)^2 = 4e / (1 + e)^2 with e = exp(-2|x|), from the input:
        # 1 - tanh(x)^2 is 0 once tanh rounds to 1 (|x| > ~9 in float32)
        e = np.exp(-2.0 * np.abs(a.data))
        a.add_grad(out.grad * (4.0 * e / ((1.0 + e) * (1.0 + e))))
    return _op(np.tanh(a.data), (a,), backward)


def mse(pred: Tensor, target: Tensor) -> Tensor:
    """mean((pred - target)^2), keeping only the difference d on the
    tape.  pred's gradient is formed as c d + c d, c = 1 / size, which has
    the bits of the composite subtraction, mul(d, d) and mean that the
    tests compare it with."""
    if pred.data.shape != target.data.shape:
        raise ShapeMismatch(
            f"mse over {pred.data.shape} vs {target.data.shape}")
    d = pred.data - target.data

    def backward(out):
        g = (float(out.grad) / d.size) * d
        g += g
        if pred.requires_grad:
            pred.add_grad(g)
        if target.requires_grad:
            target.add_grad(-g)
    return _op((d * d).mean(), (pred, target), backward)


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss.  It consumes the tape: each
    node drops its closure and parents once its closure has run, so an
    activation is freed as soon as no gradient still needs it, and a
    second backward from the same loss raises NoRecordedForward."""
    if loss.data.size != 1:
        raise ShapeMismatch("backward starts from a scalar")
    if loss._backward is None and not loss._parents:
        raise NoRecordedForward(
            "tensor has no recorded forward pass, or backward has already "
            "consumed its tape")

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

def linear(h: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """h [n, in] times weight [out, in] transposed, plus bias [out] if
    one is given: one op, which adds the bias in place to the product."""
    if h.data.ndim != 2 or weight.data.ndim != 2 \
            or h.data.shape[1] != weight.data.shape[1]:
        raise ShapeMismatch(
            f"linear {h.data.shape} with weight {weight.data.shape}")
    parents = (h, weight)
    data = h.data @ weight.data.T
    if bias is not None:
        if bias.data.shape != (weight.data.shape[0],):
            raise ShapeMismatch(
                f"bias {bias.data.shape} for weight {weight.data.shape}")
        parents += (bias,)
        data += bias.data

    def backward(out):
        # the expressions, and so the bits, of h @ weight^T as a matmul of
        # h by a transposed weight, plus a broadcast add of the bias
        g = out.grad
        if bias is not None and bias.requires_grad:
            bias.add_grad(_unbroadcast(g, bias.data.shape))
        if h.requires_grad:
            h.add_grad(g @ weight.data)
        if weight.requires_grad:
            weight.add_grad((h.data.T @ g).T)
    return _op(data, parents, backward)


def gcn_conv(h: Tensor, prop: Propagation, weight: Tensor) -> Tensor:
    """prop h weight^T, with the propagation taken on the narrower of h
    and h weight^T."""
    if weight.data.shape[0] < weight.data.shape[1]:
        return propagate(prop, linear(h, weight), spent=True)
    # linear reads the propagated h, so it is kept
    return linear(propagate(prop, h), weight)


def graph_conv(h: Tensor, adj: Propagation, w_self: Tensor,
               w_neigh: Tensor, bias: Tensor) -> Tensor:
    """(h w_self^T + adj h w_neigh^T) + bias, summed in that order.  No
    other op reads the two products or their sum, so each sum is written
    over the buffer of its first term and the second product is let go."""
    own, neigh = linear(h, w_self), gcn_conv(h, adj, w_neigh)
    total = add(own, neigh, spent=(own, neigh))
    return add(total, bias, spent=(total,))


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


def _segment_mean(h: Tensor, sizes: np.ndarray, spent: bool = False
                  ) -> Tensor:
    """Row g averages the sizes[g] rows that follow graph g - 1's.  It adds
    w * h_r, w = 1 / sizes[g] in h's dtype, one in-graph position at a
    time for all graphs at once: the order, and so the bits, of a
    pooling matrix's sparse product.  The backward reads no values, so a
    spent h, which no other op reads, lets go of them."""
    w = (1.0 / sizes).astype(h.data.dtype)
    firsts = np.cumsum(sizes) - sizes
    out = np.zeros((sizes.size, h.data.shape[1]), h.data.dtype)
    for k in range(int(sizes.max(initial=0))):
        g = np.flatnonzero(sizes > k)
        out[g] += w[g, None] * h.data[firsts[g] + k]
    graph = np.repeat(np.arange(sizes.size), sizes)

    def backward(out_t):
        h.add_grad(w[graph, None] * out_t.grad[graph])
    return _op(out, (h,), backward, (h,) if spent else ())


def global_mean_readout(h: Tensor, sizes) -> Tensor:
    return _segment_mean(h, _check_sizes(sizes, h.data.shape[0]))


def sag_mean_readout(h: Tensor, score_prop: Propagation, score_w: Tensor,
                     ratio: float, sizes) -> Tensor:
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
    score = gcn_conv(h, score_prop, score_w)  # [n, 1]

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
    return _segment_mean(gated, counts, spent=True)


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
    """Parameter tensors for one ModelSpec, keyed by layer path."""

    spec: ModelSpec
    params: dict[str, Tensor]
    seed: int

    def clone_arrays(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self.params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for k, t in self.params.items():
            t.data = np.array(arrays[k], dtype=np.float64, copy=True)

    def frozen(self) -> "ModelState":
        """The same parameter values as constants: a forward over the
        result records no tape."""
        return ModelState(self.spec, {k: constant(t.data)
                                      for k, t in self.params.items()},
                          self.seed)


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
    params: dict[str, Tensor] = {}
    for key, shape in param_shapes(spec).items():
        data = glorot(rng, *shape) if len(shape) == 2 else np.zeros(shape)
        if key.startswith(last):
            data[:] = 0.0
        params[key] = Tensor(data)
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
class GraphBatch:
    """Disjoint union of local graphs for one forward pass.

    Graph g owns sizes[g] consecutive feature rows and has the topology
    shapes[topology[g]].  The features' dtype is the dtype spatial_forward
    computes in, and the shapes' blocks have it too.  take and from_graphs
    reuse the shapes they are given, so only pack builds blocks.
    """

    features: np.ndarray   # [n_nodes, width]
    sizes: np.ndarray      # [n_graphs] node counts
    topology: np.ndarray   # [n_graphs] rows of shapes
    shapes: tuple[Shape, ...]

    @classmethod
    def pack(cls, features: np.ndarray, sizes, edges: Sequence[np.ndarray]
             ) -> "GraphBatch":
        """The batch of graphs where graph g owns sizes[g] consecutive
        feature rows and edges[g] lists its edges by local node id.
        Graphs of one size whose local edges are listed alike share one
        shape, whose blocks are built once, in the features' dtype; the
        build rejects an endpoint outside its graph."""
        features = np.asarray(features)
        sizes = _check_sizes(sizes, features.shape[0])
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
            shapes.append(Shape(k, e, adj_matrix(k, e, features.dtype),
                                gcn_matrix(k, e, features.dtype)))
        return cls(features, sizes, topology, tuple(shapes))

    @property
    def n_nodes(self) -> int:
        return int(self.features.shape[0])

    @property
    def n_graphs(self) -> int:
        return int(self.sizes.shape[0])

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
        shapes."""
        idx = np.asarray(idx, dtype=np.int64).reshape(-1)
        firsts = np.cumsum(self.sizes) - self.sizes
        sizes = self.sizes[idx]
        return GraphBatch(self.features[_runs(firsts[idx], sizes)], sizes,
                          self.topology[idx], self.shapes)

    @classmethod
    def from_graphs(cls, batches: Sequence["GraphBatch"]) -> "GraphBatch":
        """Disjoint union of batches, their graphs in order, over one table
        of their distinct shapes; a single batch is returned as it is."""
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
        return cls(np.concatenate([b.features for b in batches]),
                   np.concatenate([b.sizes for b in batches]),
                   np.concatenate(topology),
                   tuple(s for _, s in index.values()))


def spatial_forward(state: ModelState, batch: GraphBatch) -> Tensor:
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
        h = elu(linear(h, p[f"pre.{i}.W"], p[f"pre.{i}.b"]), spent=True)

    if spec.operator == "gcn":
        for i in range(len(spec.gnn_widths)):
            h = elu(gcn_conv(h, batch.propagation("gcn"), p[f"gnn.{i}.W"]),
                    spent=True)
    else:
        for i in range(len(spec.gnn_widths)):
            h = elu(graph_conv(h, batch.propagation("adj"), p[f"gnn.{i}.W1"],
                               p[f"gnn.{i}.W2"], p[f"gnn.{i}.b"]),
                    spent=True)

    if spec.pooling == "sag_mean":
        r = sag_mean_readout(h, batch.propagation("gcn"), p["pool.score.W"],
                             spec.sag_ratio, batch.sizes)
    else:
        r = global_mean_readout(h, batch.sizes)

    n_post = len(spec.post_widths)
    for i in range(n_post):
        r = linear(r, p[f"post.{i}.W"], p[f"post.{i}.b"])
        if i < n_post - 1:
            r = elu(r, spent=True)
    return r
