"""A small reverse-mode autodiff engine and the graph network built on it.

Tensors wrap float32 or float64 ndarrays and record the backward closure
of the operation that produced them; backward() runs the closures in reverse
topological order.  A closure is passed its output tensor rather than
capturing it, so a tape has no reference cycle and refcounting frees it.
Only tensors that need a gradient are recorded: a bare Tensor is a
trainable leaf, a constant() is not, and an op's output keeps its
parents and closure only when one of its inputs needs a gradient.  A
forward over constants alone (prediction) therefore records no tape.
The op set is exactly what the model needs: dense matmul, broadcast
add/mul, gather, ELU, tanh, mean, a dtype cast, and multiplication by a
constant sparse matrix (the graph propagation step, which never needs a
gradient of its own).

Every op computes in the dtype of its inputs, and a gradient always has
the dtype of the tensor it belongs to.  spatial_forward runs in the dtype
of its batch's features: graphs assembled from a slide hold float32
features, so stage 2 computes in float32, while the parameters (and the
optimizer state) stay float64 and enter the forward through cast(), whose
backward hands them a float64 gradient.  The same code run on a float64
batch computes in float64, as the gradient checks do.

Only the functions that build or transpose those sparse matrices import
scipy.sparse, when they run, so importing this module costs numpy alone:
stage-2 training and the evaluation of a stage-2 model load scipy, and
every other command never does.

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
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .core import (
    NoRecordedForward,
    ShapeMismatch,
    ValidationError,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

OPERATORS = ("gcn", "graphconv")
POOLINGS = ("sag_mean", "global_mean")


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
    def backward(out):
        if a.requires_grad:
            a.add_grad(_unbroadcast(out.grad, a.data.shape))
        if b.requires_grad:
            b.add_grad(_unbroadcast(out.grad, b.data.shape))
    return _op(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def backward(out):
        if a.requires_grad:
            a.add_grad(_unbroadcast(out.grad, a.data.shape))
        if b.requires_grad:
            b.add_grad(_unbroadcast(-out.grad, b.data.shape))
    return _op(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def backward(out):
        if a.requires_grad:
            a.add_grad(_unbroadcast(out.grad * b.data, a.data.shape))
        if b.requires_grad:
            b.add_grad(_unbroadcast(out.grad * a.data, b.data.shape))
    return _op(a.data * b.data, (a, b), backward)


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


def cast(a: Tensor, dtype) -> Tensor:
    """a in another float dtype; its gradient comes back in a's dtype."""
    if a.data.dtype == dtype:
        return a

    def backward(out):
        a.add_grad(out.grad)
    return _op(a.data.astype(dtype), (a,), backward)


def transpose(a: Tensor) -> Tensor:
    def backward(out):
        a.add_grad(out.grad.T)
    return _op(a.data.T, (a,), backward)


def propagate(matrix, h: Tensor) -> Tensor:
    """Multiply by a constant (sparse) matrix: out = S h, grad = S^T g."""
    if matrix.shape[1] != h.data.shape[0]:
        raise ShapeMismatch(
            f"propagation {matrix.shape} against features {h.data.shape}")

    def backward(out):
        import scipy.sparse as sp

        matrix_t = matrix.T.tocsr() if sp.issparse(matrix) else matrix.T
        h.add_grad(matrix_t @ out.grad)
    return _op(matrix @ h.data, (h,), backward)


def gather_rows(a: Tensor, rows: np.ndarray) -> Tensor:
    rows = np.asarray(rows, dtype=np.int64)

    def backward(out):
        g = np.zeros_like(a.data)
        np.add.at(g, rows, out.grad)
        a.add_grad(g)
    return _op(a.data[rows], (a,), backward)


def elu(a: Tensor) -> Tensor:
    # neg is 0 where x > 0 and expm1(x) >= x elsewhere, so the ELU is
    # max(x, neg) and its slope exp(min(x, 0)) is neg + 1: no mask needed
    # (and np.where costs several times np.maximum)
    neg = np.expm1(np.minimum(a.data, 0.0))

    def backward(out):
        a.add_grad(out.grad * (neg + 1.0))
    return _op(np.maximum(a.data, neg), (a,), backward)


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.data)

    def backward(out):
        a.add_grad(out.grad * (1.0 - t * t))
    return _op(t, (a,), backward)


def mean_all(a: Tensor) -> Tensor:
    def backward(out):
        a.add_grad(np.full_like(a.data, float(out.grad) / a.data.size))
    return _op(a.data.mean(), (a,), backward)


def mse(pred: Tensor, target: Tensor) -> Tensor:
    if pred.data.shape != target.data.shape:
        raise ShapeMismatch(
            f"mse over {pred.data.shape} vs {target.data.shape}")
    d = sub(pred, target)
    return mean_all(mul(d, d))


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss."""
    if loss.data.size != 1:
        raise ShapeMismatch("backward starts from a scalar")
    if loss._backward is None and not loss._parents:
        raise NoRecordedForward("tensor has no recorded forward pass")

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

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node)


# ---------------------------------------------------------------------------
# propagation matrices

def adj_matrix(n_nodes: int, edges: np.ndarray, dtype=np.float64
               ) -> sp.csr_matrix:
    """Symmetric binary adjacency (no self loops)."""
    import scipy.sparse as sp

    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    return sp.coo_matrix((np.ones(rows.size, dtype=dtype), (rows, cols)),
                         shape=(n_nodes, n_nodes)).tocsr()


def gcn_matrix(n_nodes: int, edges: np.ndarray, dtype=np.float64
               ) -> sp.csr_matrix:
    """Symmetrically normalized adjacency with self loops.  It is
    normalized in float64 and then rounded to dtype."""
    import scipy.sparse as sp

    a = adj_matrix(n_nodes, edges) + sp.eye(n_nodes, format="csr")
    deg = np.asarray(a.sum(axis=1)).ravel()
    inv_sqrt = 1.0 / np.sqrt(deg)
    d = sp.diags(inv_sqrt)
    return (d @ a @ d).tocsr().astype(dtype, copy=False)


# ---------------------------------------------------------------------------
# layers

def linear(h: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """h [n, in] times weight [out, in] transposed, plus bias [out]."""
    if weight.data.ndim != 2 or h.data.shape[1] != weight.data.shape[1]:
        raise ShapeMismatch(
            f"linear {h.data.shape} with weight {weight.data.shape}")
    out = matmul(h, transpose(weight))
    if bias is not None:
        if bias.data.shape != (weight.data.shape[0],):
            raise ShapeMismatch(
                f"bias {bias.data.shape} for weight {weight.data.shape}")
        out = add(out, bias)
    return out


def gcn_conv(h: Tensor, prop: sp.csr_matrix, weight: Tensor) -> Tensor:
    """prop h weight^T, with the sparse product taken on the narrower of
    h and h weight^T."""
    if weight.data.shape[0] < weight.data.shape[1]:
        return propagate(prop, matmul(h, transpose(weight)))
    return matmul(propagate(prop, h), transpose(weight))


def graph_conv(h: Tensor, adj: sp.csr_matrix, w_self: Tensor,
               w_neigh: Tensor, bias: Tensor) -> Tensor:
    own = matmul(h, transpose(w_self))
    return add(add(own, gcn_conv(h, adj, w_neigh)), bias)


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


def _mean_pool(sizes: np.ndarray, dtype) -> sp.csr_matrix:
    """Row g averages the sizes[g] rows that follow graph g - 1's."""
    import scipy.sparse as sp

    indptr = np.concatenate([[0], np.cumsum(sizes)])
    return sp.csr_matrix((np.repeat(1.0 / sizes, sizes).astype(dtype),
                          np.arange(indptr[-1]), indptr),
                         shape=(sizes.size, indptr[-1]))


def global_mean_readout(h: Tensor, sizes) -> Tensor:
    return propagate(_mean_pool(_check_sizes(sizes, h.data.shape[0]),
                                h.data.dtype), h)


def sag_mean_readout(h: Tensor, score_prop: sp.csr_matrix, score_w: Tensor,
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
    return propagate(_mean_pool(counts, gated.data.dtype), gated)


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


def init_model_state(spec: ModelSpec, seed: int) -> ModelState:
    """Seeded init: glorot-uniform weights, zero biases, and a zeroed
    final layer so the correction starts exactly at zero."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}

    width = spec.in_width
    for i, w in enumerate(spec.pre_widths):
        params[f"pre.{i}.W"] = Tensor(glorot(rng, w, width))
        params[f"pre.{i}.b"] = Tensor(np.zeros(w))
        width = w
    for i, w in enumerate(spec.gnn_widths):
        if spec.operator == "gcn":
            params[f"gnn.{i}.W"] = Tensor(glorot(rng, w, width))
        else:
            params[f"gnn.{i}.W1"] = Tensor(glorot(rng, w, width))
            params[f"gnn.{i}.W2"] = Tensor(glorot(rng, w, width))
            params[f"gnn.{i}.b"] = Tensor(np.zeros(w))
        width = w
    if spec.pooling == "sag_mean":
        params["pool.score.W"] = Tensor(glorot(rng, 1, width))
    for i, w in enumerate(spec.post_widths):
        params[f"post.{i}.W"] = Tensor(glorot(rng, w, width))
        params[f"post.{i}.b"] = Tensor(np.zeros(w))
        width = w

    if spec.post_widths:
        last = len(spec.post_widths) - 1
        params[f"post.{last}.W"].data[:] = 0.0
        params[f"post.{last}.b"].data[:] = 0.0
    else:
        last = len(spec.gnn_widths) - 1
        for suffix in ("W", "W1", "W2", "b"):
            key = f"gnn.{last}.{suffix}"
            if key in params:
                params[key].data[:] = 0.0
    return ModelState(spec=spec, params=params, seed=seed)


def _runs(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The indices start, ..., start + count - 1 of every run, in order."""
    firsts = np.cumsum(counts) - counts
    return (np.arange(counts.sum(), dtype=np.int64)
            + np.repeat(starts - firsts, counts))


@dataclass(frozen=True)
class GraphBatch:
    """Disjoint union of local graphs for one forward pass.

    Graph g owns sizes[g] consecutive feature rows.  Its edges come after
    those of graph g - 1 and index batch rows.  The features' dtype is the
    dtype spatial_forward computes in.
    """

    features: np.ndarray  # [n_nodes, width]
    edges: np.ndarray     # [n_edges, 2]
    sizes: np.ndarray     # [n_graphs] node counts

    @property
    def n_nodes(self) -> int:
        return int(self.features.shape[0])

    @property
    def n_graphs(self) -> int:
        return int(self.sizes.shape[0])

    @cached_property
    def adj(self) -> sp.csr_matrix:
        """The batch's adjacency in its features' dtype, built once."""
        return adj_matrix(self.n_nodes, self.edges, self.features.dtype)

    @cached_property
    def gcn(self) -> sp.csr_matrix:
        """The batch's gcn-normalized adjacency in its features' dtype,
        built once."""
        return gcn_matrix(self.n_nodes, self.edges, self.features.dtype)

    @cached_property
    def _starts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """First row and first edge of every graph, and its edge count."""
        ends = np.cumsum(self.sizes)
        owner = np.searchsorted(ends, self.edges[:, 0], side="right")
        n_edges = np.bincount(owner, minlength=self.n_graphs)
        return ends - self.sizes, np.cumsum(n_edges) - n_edges, n_edges

    def take(self, idx) -> "GraphBatch":
        """The graphs at idx, in that order, as a new batch."""
        idx = np.asarray(idx, dtype=np.int64).reshape(-1)
        rows, first_edges, n_edges = (a[idx] for a in self._starts)
        sizes = self.sizes[idx]
        shift = np.repeat(np.cumsum(sizes) - sizes - rows, n_edges)
        return GraphBatch(self.features[_runs(rows, sizes)],
                          self.edges[_runs(first_edges, n_edges)]
                          + shift[:, None],
                          sizes)

    @classmethod
    def from_graphs(cls, batches: Sequence["GraphBatch"]) -> "GraphBatch":
        """Disjoint union of batches, their graphs in order; a single
        batch is returned as it is."""
        if not batches:
            raise ValidationError("empty graph batch")
        if len(batches) == 1:
            return batches[0]
        n_nodes = np.array([b.n_nodes for b in batches], dtype=np.int64)
        offsets = np.cumsum(n_nodes) - n_nodes
        return cls(np.concatenate([b.features for b in batches]),
                   np.concatenate([b.edges + off
                                   for b, off in zip(batches, offsets)]),
                   np.concatenate([b.sizes for b in batches]))


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
        h = elu(linear(h, p[f"pre.{i}.W"], p[f"pre.{i}.b"]))

    if spec.operator == "gcn":
        for i in range(len(spec.gnn_widths)):
            h = elu(gcn_conv(h, batch.gcn, p[f"gnn.{i}.W"]))
    else:
        for i in range(len(spec.gnn_widths)):
            h = elu(graph_conv(h, batch.adj, p[f"gnn.{i}.W1"],
                               p[f"gnn.{i}.W2"], p[f"gnn.{i}.b"]))

    if spec.pooling == "sag_mean":
        r = sag_mean_readout(h, batch.gcn, p["pool.score.W"],
                             spec.sag_ratio, batch.sizes)
    else:
        r = global_mean_readout(h, batch.sizes)

    n_post = len(spec.post_widths)
    for i in range(n_post):
        r = linear(r, p[f"post.{i}.W"], p[f"post.{i}.b"])
        if i < n_post - 1:
            r = elu(r)
    return r
