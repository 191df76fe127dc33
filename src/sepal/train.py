"""Two-stage training: a linear head on embeddings, then a frozen-head
graph correction.

Stage 1 regresses delta targets (expression minus the train-split gene
mean) directly from frozen patch embeddings with a single linear layer,
solved in closed form by ridge regression whose strength is picked on
validation MSE.  Stage 2 freezes that head and trains the graph network
to predict what the head misses; its output is added to the head's
prediction, and a zero-initialized final layer guarantees the combined
model starts exactly at the stage-1 solution.

Stage 2 is the one training loop: bias-corrected Adam, seeded shuffling,
and early stopping on validation MSE.  Validation is always evaluated
with the same plain numpy expression, so stage transitions compare like
with like.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from . import nn
from .core import (
    AGGREGATIONS,
    DivergedLoss,
    EmptySplit,
    ShapeMismatch,
    ValidationError,
)
from .ingest import read_checkpoint, write_checkpoint

if TYPE_CHECKING:
    from .nn import GraphBatch, ModelSpec, ModelState

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# node rows per prediction chunk: 4 MB per 512-wide float32 activation,
# about one training batch of 64 hops-3 graphs, so no validation or eval
# forward outgrows a training step at any hop count
PREDICT_ROWS = 2048


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 256
    max_epochs: int = 500
    patience: int = 20
    seed: int = 0
    max_steps: int | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.learning_rate < np.inf:
            raise ValidationError(
                f"learning rate must be finite and >= 0, got "
                f"{self.learning_rate}")
        if self.batch_size < 1:
            raise ValidationError("batch size must be >= 1")
        if self.max_epochs < 1:
            raise ValidationError("max_epochs must be >= 1")
        if self.patience < 1:
            raise ValidationError("patience must be >= 1")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValidationError("max_steps must be >= 1")


class Adam:
    """Bias-corrected Adam over a dict of float64 parameter arrays.

    The moments m and v are made once per run, as np.zeros, whose pages
    stay untouched until the first step writes them, and every step
    updates them in place.  Two scratch arrays per parameter carry the
    rest of a step: (1 - b1) g, then m_hat, then the update; (1 - b2) g^2,
    then v_hat, then sqrt(v_hat) + eps.  Each in-place operation is one
    operation of b1 m + (1 - b1) g, b2 v + (1 - b2) g^2 and
    p - lr m_hat / (sqrt(v_hat) + eps), its operands at most swapped, so
    the bits are those of the plain expressions.  Each step still
    replaces every parameter with a fresh array: updating the parameters
    in place too lets the allocator trim and re-fault its heap at every
    step, for more page faults and system time.
    """

    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros(p.shape) for k, p in params.items()}
        self.v = {k: np.zeros(p.shape) for k, p in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for k, p in self.params.items():
            g = grads[k] if k in grads else np.zeros_like(p)
            m, v = self.m[k], self.v[k]
            update = (1.0 - b1) * g
            m *= b1
            m += update
            root = g * g
            root *= 1.0 - b2
            v *= b2
            v += root
            np.divide(m, 1.0 - b1 ** self.t, out=update)
            np.divide(v, 1.0 - b2 ** self.t, out=root)
            np.sqrt(root, out=root)
            root += ADAM_EPS
            update *= self.lr
            update /= root
            self.params[k] = p - update


@dataclass
class EpochRecord:
    epoch: int
    train_mse: float | None
    val_mse: float | None
    wall_seconds: float


def linear_prediction(x: np.ndarray, weight: np.ndarray, bias: np.ndarray
                      ) -> np.ndarray:
    return x @ weight.T + bias


def _val_mse(pred: np.ndarray, target: np.ndarray) -> float:
    return float(np.mean((pred - target) ** 2))


# ridge strengths tried on the val split, in units of trace(Xc'Xc) / d
RIDGE_ALPHAS = (0.0, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2)


@dataclass
class Stage1Result:
    weight: np.ndarray
    bias: np.ndarray
    history: list[EpochRecord]
    best_val_mse: float | None
    alpha: float
    ridge_lambda: float


def stage1_train(x_train: np.ndarray, y_train: np.ndarray,
                 x_val: np.ndarray | None, y_val: np.ndarray | None
                 ) -> Stage1Result:
    """Fit the linear head on (embedding, delta-target) pairs by ridge.

    Inputs and targets are centred on their train means, so the bias is
    never penalised.  One eigendecomposition of Xc'Xc serves every
    strength lambda = alpha * trace(Xc'Xc) / d with alpha in RIDGE_ALPHAS;
    the alpha with the lowest val MSE wins, the smallest on ties.  With no
    val split alpha is 0: plain least squares.  Eigen-directions at
    rounding level are dropped, so rank-deficient embeddings (n <= d,
    collinear columns) get the minimum-norm solution, never a LinAlgError.
    """
    x_train = np.asarray(x_train, dtype=np.float64)
    y_train = np.asarray(y_train, dtype=np.float64)
    if x_train.ndim != 2 or y_train.ndim != 2 \
            or x_train.shape[0] != y_train.shape[0]:
        raise ShapeMismatch(
            f"stage 1 inputs {x_train.shape} vs targets {y_train.shape}")
    n, d = x_train.shape
    if n == 0 or y_train.shape[1] == 0:
        raise EmptySplit("stage 1 needs a non-empty train split")
    # the normal equations square the inputs; they must stay representable
    with np.errstate(over="ignore"):
        squares = np.vdot(x_train, x_train) + np.vdot(y_train, y_train)
    if not np.isfinite(squares):
        raise DivergedLoss("stage 1 inputs are not finite when squared")
    has_val = x_val is not None and y_val is not None and len(x_val) > 0

    t0 = time.monotonic()
    x_mean = x_train.mean(axis=0)
    y_mean = y_train.mean(axis=0)
    xc = x_train - x_mean
    gram = xc.T @ xc
    scale = float(np.trace(gram)) / d
    evals, evecs = np.linalg.eigh(gram)
    # eigenvalues at rounding level span the null space of Xc: drop them
    kept = evals > max(evals[-1], 0.0) * d * np.finfo(np.float64).eps
    evals, evecs = evals[kept], evecs[:, kept]
    proj = evecs.T @ (xc.T @ (y_train - y_mean))

    best = None
    for alpha in RIDGE_ALPHAS if has_val else (0.0,):
        lam = alpha * scale
        weight = np.ascontiguousarray(((evecs / (evals + lam)) @ proj).T)
        bias = y_mean - weight @ x_mean
        if not (np.isfinite(weight).all() and np.isfinite(bias).all()):
            raise DivergedLoss(f"stage 1 solution not finite at alpha {alpha}")
        val = (_val_mse(linear_prediction(x_val, weight, bias), y_val)
               if has_val else None)
        if best is None or val < best[0]:
            best = (val, alpha, lam, weight, bias)
    val, alpha, lam, weight, bias = best
    train_mse = _val_mse(linear_prediction(x_train, weight, bias), y_train)
    history = [EpochRecord(1, train_mse, val, time.monotonic() - t0)]
    return Stage1Result(weight=weight, bias=bias, history=history,
                        best_val_mse=val, alpha=alpha, ridge_lambda=lam)


def chunked(graphs: GraphBatch, rows: int = PREDICT_ROWS
            ) -> Iterator[GraphBatch]:
    """The graphs in order, in consecutive batches of whole graphs of at
    most rows node rows each; a graph of more rows than that is a batch
    of its own.  They are cut one at a time as they are iterated, as
    index arrays over the graphs' tables and shapes: no chunk copies a
    feature row or builds a block, and a forward gathers one chunk's
    rows at a time."""
    ends = np.cumsum(graphs.sizes)
    start = 0
    while start < graphs.n_graphs:
        first_row = ends[start] - graphs.sizes[start]
        stop = max(start + 1,
                   int(np.searchsorted(ends, first_row + rows, "right")))
        yield graphs.take(np.arange(start, stop))
        start = stop


def spatial_predict(state: ModelState, chunks: Iterable[GraphBatch]
                    ) -> np.ndarray:
    """Forward every chunk with no tape, so each layer's backward is
    dropped as it returns; the rows come out in the chunks' dtype."""
    rows = [nn.spatial_forward(state, c) for c in chunks]
    if not rows:
        raise EmptySplit("no graphs to predict on")
    return np.concatenate(rows, axis=0)


def _loss(s_hat: np.ndarray, delta_hat: np.ndarray, target: np.ndarray
          ) -> tuple[float, np.ndarray]:
    """mean((s_hat + delta_hat - target)^2) and its gradient with respect
    to s_hat, in s_hat's dtype.  The gradient is formed as c d + c d in
    float64, c = 1 / size and d the difference, and then rounded once:
    the bits of the composite subtraction, product and mean."""
    d = (s_hat + delta_hat) - target
    grad = (1.0 / d.size) * d
    grad += grad
    return float((d * d).mean()), grad.astype(s_hat.dtype)


@dataclass
class Stage2Result:
    state: ModelState
    history: list[EpochRecord]
    initial_val_mse: float | None
    best_val_mse: float | None
    n_steps: int


def stage2_train(train_graphs: GraphBatch, delta_hat_train: np.ndarray,
                 target_train: np.ndarray,
                 val_graphs: GraphBatch | None,
                 delta_hat_val: np.ndarray | None,
                 target_val: np.ndarray | None,
                 spec: ModelSpec, config: TrainConfig) -> Stage2Result:
    """Train the graph correction on top of frozen head predictions.

    delta_hat_* are the stage-1 head outputs for the same spots; the
    optimized loss is mse(correction + delta_hat, target).  Epoch 0 of
    the history records the untouched model, whose correction is exactly
    zero, so its validation MSE is the stage-1 value, taken without a
    forward.
    """
    n = train_graphs.n_graphs
    if n == 0:
        raise EmptySplit("stage 2 needs a non-empty train split")
    delta_hat_train = np.asarray(delta_hat_train, dtype=np.float64)
    target_train = np.asarray(target_train, dtype=np.float64)
    if delta_hat_train.shape != target_train.shape \
            or delta_hat_train.shape[0] != n:
        raise ShapeMismatch("stage 2 train arrays misaligned")
    has_val = val_graphs is not None and val_graphs.n_graphs > 0
    if has_val and not (np.shape(delta_hat_val) == np.shape(target_val)
                        and len(delta_hat_val) == val_graphs.n_graphs):
        raise ShapeMismatch("stage 2 val arrays misaligned")

    state = nn.init_model_state(spec, config.seed)
    opt = Adam(state.params, config.learning_rate)
    rng = np.random.default_rng(config.seed)

    def evaluate_val() -> float:
        s_hat = spatial_predict(state, chunked(val_graphs))
        return _val_mse(s_hat + delta_hat_val, target_val)

    history: list[EpochRecord] = []
    t0 = time.monotonic()
    # the zeroed last layer makes the correction exactly 0
    initial_val = _val_mse(delta_hat_val, target_val) if has_val else None
    history.append(EpochRecord(0, None, initial_val, time.monotonic() - t0))
    best_val = initial_val
    # the best epoch's parameters, refreshed in place when it changes
    best_arrays = state.clone_arrays()

    def keep_best() -> None:
        for k, p in state.params.items():
            np.copyto(best_arrays[k], p)

    bad_epochs = 0
    steps = 0
    stop = False

    for epoch in range(1, config.max_epochs + 1):
        perm = rng.permutation(n)
        sq_sum = 0.0
        seen = 0
        for k in range(0, n, config.batch_size):
            idx = perm[k:k + config.batch_size]
            tape: list = []
            s_hat = nn.spatial_forward(state, train_graphs.take(idx), tape)
            loss, grad = _loss(s_hat, delta_hat_train[idx], target_train[idx])
            if not np.isfinite(loss):
                raise DivergedLoss(f"stage 2 loss not finite at step {steps}")
            opt.step(nn.backward(tape, grad))
            steps += 1
            sq_sum += loss * len(idx)
            seen += len(idx)
            if config.max_steps is not None and steps >= config.max_steps:
                stop = True
                break
        train_mse = sq_sum / seen
        val = evaluate_val() if has_val else None
        history.append(EpochRecord(epoch, train_mse, val,
                                   time.monotonic() - t0))
        if has_val:
            if val < best_val:
                best_val = val
                keep_best()
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs >= config.patience:
                    break
        else:
            keep_best()
        if stop:
            break
    state.load_arrays(best_arrays)
    return Stage2Result(state=state, history=history,
                        initial_val_mse=initial_val, best_val_mse=best_val,
                        n_steps=steps)


# ---------------------------------------------------------------------------
# model checkpoints

@dataclass
class TrainedModel:
    """Everything needed to predict: gene panel, train mean, head, optional
    correction, geometry."""

    gene_ids: tuple[str, ...]
    train_mean: np.ndarray
    head_weight: np.ndarray
    head_bias: np.ndarray
    state: ModelState | None = None
    hops: int = 1
    aggregation: str = "sum"


_WIDTHS = ("pre_widths", "gnn_widths", "post_widths")


def save_model(path, model: TrainedModel) -> None:
    """One checkpoint archive: gene panel, train mean and head, plus the
    correction's spec and parameters when the model has one."""
    meta = {"stage": "1"}
    arrays = {"genes": np.array(model.gene_ids, dtype=str),
              "train_mean": model.train_mean,
              "head.W": model.head_weight, "head.b": model.head_bias}
    if model.state is not None:
        spec = model.state.spec
        meta = {
            "stage": "2",
            "in_width": str(spec.in_width),
            "operator": spec.operator,
            "pooling": spec.pooling,
            # only sag_mean has a ratio; other poolings load the default
            **({"sag_ratio": repr(spec.sag_ratio)}
               if spec.pooling == "sag_mean" else {}),
            "hops": str(model.hops),
            "aggregation": model.aggregation,
            "seed": str(model.state.seed),
        }
        for key in _WIDTHS:
            arrays[key] = np.array(getattr(spec, key), dtype=np.int64)
        arrays.update(model.state.params)
    write_checkpoint(path, meta, arrays)


def load_model(path) -> TrainedModel:
    """Read a save_model archive; a stage-1 model has state None.  The
    train mean, head bias and head weight rows must each match the gene
    panel."""
    meta, arrays = read_checkpoint(path)
    try:
        model = TrainedModel(tuple(arrays["genes"].tolist()),
                             arrays["train_mean"], arrays["head.W"],
                             arrays["head.b"])
        for key, ndim in (("train_mean", 1), ("head.b", 1), ("head.W", 2)):
            if (arrays[key].ndim != ndim
                    or arrays[key].shape[0] != len(model.gene_ids)):
                raise ValidationError(
                    f"{path}: checkpoint {key!r} has shape "
                    f"{arrays[key].shape}, not one "
                    f"{'row' if ndim == 2 else 'value'} per gene; run "
                    f"`sepal train` again")
        if meta["stage"] == "1":
            return model
        sag = ({"sag_ratio": float(meta["sag_ratio"])}
               if meta["pooling"] == "sag_mean" else {})
        spec = nn.ModelSpec(
            in_width=int(meta["in_width"]), n_genes=len(model.gene_ids),
            operator=meta["operator"], pooling=meta["pooling"], **sag,
            **{key: tuple(arrays[key].tolist()) for key in _WIDTHS})
        params = {}
        for key, shape in nn.param_shapes(spec).items():
            if arrays[key].shape != shape:
                raise ValidationError(
                    f"{path}: checkpoint {key!r} has shape "
                    f"{arrays[key].shape}, not the {shape} of its model; "
                    f"run `sepal train` again")
            params[key] = np.array(arrays[key], dtype=np.float64)
        hops, aggregation = int(meta["hops"]), meta["aggregation"]
        if hops < 1 or aggregation not in AGGREGATIONS:
            raise ValueError(f"hops {hops} with aggregation {aggregation!r}")
        state = nn.ModelState(spec, params, int(meta["seed"]))
        return replace(model, state=state, hops=hops, aggregation=aggregation)
    except (KeyError, ValueError) as e:
        raise ValidationError(
            f"{path}: bad or missing checkpoint entry: {e}; run `sepal "
            f"train` again") from None


def predict_expression(model: TrainedModel, embeddings: np.ndarray,
                       graphs: GraphBatch | None) -> np.ndarray:
    """Combined prediction: correction + head delta + train mean."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    delta_hat = linear_prediction(embeddings, model.head_weight,
                                  model.head_bias)
    if model.state is not None:
        if graphs is None or graphs.n_graphs != embeddings.shape[0]:
            raise ShapeMismatch("need one graph per spot for stage-2 models")
        s_hat = spatial_predict(model.state, chunked(graphs))
        delta_hat = s_hat + delta_hat
    return delta_hat + np.asarray(model.train_mean, dtype=np.float64)[None, :]
