import gc
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from helpers import local_edges, pack_rows
from sepal import nn, train
from sepal.ingest import read_checkpoint, write_checkpoint
from sepal.core import (
    DivergedLoss,
    EmptySplit,
    ShapeMismatch,
    ValidationError,
)
from sepal.nn import GraphBatch, ModelSpec, init_model_state
from sepal.train import (
    RIDGE_ALPHAS,
    Adam,
    TrainConfig,
    linear_prediction,
    load_model,
    predict_expression,
    save_model,
    chunked,
    spatial_predict,
    stage1_train,
    stage2_train,
    Stage1Result,
    TrainedModel,
)


class ToyGraph:
    """Minimal structure with the fields reference.from_graphs packs."""

    def __init__(self, features, edges=None):
        self.features = np.asarray(features, dtype=float)
        self.edges = (np.zeros((0, 2), dtype=np.int64) if edges is None
                      else np.asarray(edges, dtype=np.int64))


def star_graphs(rng, n, width, nodes_per=4):
    out = []
    for _ in range(n):
        feats = rng.normal(size=(nodes_per, width))
        edges = np.array([[0, i] for i in range(1, nodes_per)])
        out.append(ToyGraph(feats, edges))
    return reference.from_graphs(out)


class TestAdam:
    def test_single_step_closed_form(self):
        params = {"p": np.zeros(3)}
        opt = Adam(params, lr=0.1)
        opt.step({"p": np.array([1.0, -2.0, 0.5])})
        g = np.array([1.0, -2.0, 0.5])
        want = -0.1 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(params["p"], want, rtol=1e-12)

    def test_zero_learning_rate_freezes_params(self):
        params = {"p": np.array([1.0, 2.0])}
        opt = Adam(params, lr=0.0)
        for _ in range(5):
            opt.step({"p": np.array([3.0, -1.0])})
        np.testing.assert_array_equal(params["p"], [1.0, 2.0])

    def test_missing_grad_treated_as_zero(self):
        params = {"p": np.array([1.0])}
        opt = Adam(params, lr=0.5)
        opt.step({})
        np.testing.assert_array_equal(params["p"], [1.0])

    @pytest.mark.deep
    @given(data=st.data())
    def test_same_bits_as_the_reference_adam(self, data):
        # after every step both moments and the parameters are the
        # reference's bytes, some keys left out of the gradients, and the
        # moments are still the arrays the optimizer made at the start
        shapes = data.draw(st.lists(
            st.lists(st.integers(1, 5), min_size=1, max_size=2).map(tuple),
            min_size=1, max_size=4))
        keys = [f"p{i}" for i in range(len(shapes))]
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        params = {k: rng.normal(size=s) for k, s in zip(keys, shapes)}
        lr = data.draw(st.sampled_from([0.0, 1e-4, 1e-2, 0.5]))
        opt = Adam(params, lr)
        tensors = [reference.Tensor(p.copy()) for p in params.values()]
        ref = reference.Adam(tensors, lr)
        m, v = dict(opt.m), dict(opt.v)
        for _ in range(data.draw(st.integers(1, 6))):
            grads = {}
            for k in data.draw(st.lists(st.sampled_from(keys), unique=True)):
                g = rng.normal(size=params[k].shape) \
                    * 10.0 ** rng.integers(-6, 4)
                g[rng.random(g.shape) < 0.2] = -0.0
                grads[k] = g
            opt.step(grads)
            for k, t in zip(keys, tensors):
                t.grad = grads.get(k)
            ref.step()
            for k, t, ref_m, ref_v in zip(keys, tensors, ref.m, ref.v):
                assert opt.m[k] is m[k] and opt.v[k] is v[k]
                assert opt.m[k].tobytes() == ref_m.tobytes(), k
                assert opt.v[k].tobytes() == ref_v.tobytes(), k
                assert params[k].tobytes() == t.data.tobytes(), k


def realizable_problem(seed, n=48, d=4, genes=2, noise=0.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    w_true = rng.normal(size=(genes, d))
    b_true = rng.normal(size=genes)
    y = x @ w_true.T + b_true + noise * rng.normal(size=(n, genes))
    return x, y


class TestStage1:
    def test_fits_a_linear_problem(self):
        x, y = realizable_problem(0)
        res = stage1_train(x, y, x, y)
        assert res.best_val_mse < 1e-3
        assert res.history[-1].train_mse < 1e-3

    def test_deterministic_for_fixed_seed(self):
        x, y = realizable_problem(3, noise=0.1)
        a = stage1_train(x, y, None, None)
        b = stage1_train(x, y, None, None)
        np.testing.assert_array_equal(a.weight, b.weight)
        np.testing.assert_array_equal(a.bias, b.bias)
        assert [r.train_mse for r in a.history] == \
            [r.train_mse for r in b.history]

    def test_returns_best_epoch_not_last(self):
        x, y = realizable_problem(5)
        # validation on different data: eventually stops improving
        x_val, y_val = realizable_problem(6)
        res = stage1_train(x, y, x_val, y_val)
        got = float(np.mean(
            (linear_prediction(x_val, res.weight, res.bias) - y_val) ** 2))
        assert got == res.best_val_mse
        assert got <= min(r.val_mse for r in res.history)

    def test_empty_split(self):
        with pytest.raises(EmptySplit):
            stage1_train(np.zeros((0, 3)), np.zeros((0, 2)), None, None)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_diverged_loss(self):
        x = np.full((4, 2), 1e160)
        y = np.zeros((4, 1))
        with pytest.raises(DivergedLoss):
            stage1_train(x, y, None, None)

    def test_non_finite_input_raises(self):
        x, y = realizable_problem(7)
        x[3, 1] = np.nan
        with pytest.raises(DivergedLoss):
            stage1_train(x, y, None, None)

    def test_recovers_realizable_weights(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(40, 5))
        w_true = rng.normal(size=(3, 5))
        b_true = rng.normal(size=3)
        y = x @ w_true.T + b_true
        res = stage1_train(x, y, x[:10], y[:10])
        assert res.alpha == 0.0
        np.testing.assert_allclose(res.weight, w_true, atol=1e-10)
        np.testing.assert_allclose(res.bias, b_true, atol=1e-10)
        assert len(res.history) == 1

    def test_val_mse_is_the_grid_minimum(self):
        # few noisy samples: some shrinkage beats plain least squares
        x, y = realizable_problem(8, n=14, d=10, genes=3, noise=2.0)
        x_val, y_val = realizable_problem(8, n=200, d=10, genes=3,
                                          noise=2.0)
        res = stage1_train(x, y, x_val, y_val)
        xc = x - x.mean(axis=0)
        yc = y - y.mean(axis=0)
        scale = np.trace(xc.T @ xc) / x.shape[1]
        vals = []
        for alpha in RIDGE_ALPHAS:
            w = np.linalg.solve(xc.T @ xc + alpha * scale * np.eye(10),
                                xc.T @ yc).T
            b = y.mean(axis=0) - w @ x.mean(axis=0)
            vals.append(float(np.mean(
                (linear_prediction(x_val, w, b) - y_val) ** 2)))
        best = int(np.argmin(vals))
        assert RIDGE_ALPHAS[best] > 0.0
        assert res.alpha == RIDGE_ALPHAS[best]
        assert res.ridge_lambda == pytest.approx(res.alpha * scale)
        assert res.best_val_mse == pytest.approx(vals[best], rel=1e-9)
        assert res.history[0].val_mse == res.best_val_mse

    def test_underdetermined_fit_is_minimum_norm(self):
        x, y = realizable_problem(9, n=6, d=15, genes=2, noise=0.3)
        res = stage1_train(x, y, None, None)
        xc = x - x.mean(axis=0)
        want = (np.linalg.pinv(xc) @ (y - y.mean(axis=0))).T
        np.testing.assert_allclose(res.weight, want, atol=1e-10)
        # interpolates the train split exactly
        assert res.history[0].train_mse < 1e-20

    def test_collinear_embeddings_do_not_raise(self):
        x, y = realizable_problem(10, noise=0.1)
        x = np.hstack([x, x[:, :2], np.ones((x.shape[0], 1))])
        res = stage1_train(x, y, x[:8], y[:8])
        assert np.isfinite(res.weight).all()

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ValidationError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValidationError):
            TrainConfig(patience=0)


def correction_spec(width, genes, hidden=8):
    return ModelSpec(in_width=width, n_genes=genes, pre_widths=(),
                     operator="graphconv", gnn_widths=(hidden,),
                     pooling="global_mean", post_widths=(genes,))


class TestStage2:
    def _setup(self, seed=0, n_train=24, n_val=10, width=4, genes=2):
        rng = np.random.default_rng(seed)
        train_graphs = star_graphs(rng, n_train, width)
        val_graphs = star_graphs(rng, n_val, width)
        # target depends on the mean of the star's leaves: spatial signal
        def targets(graphs):
            t = np.stack([star[1:].mean(axis=0)[:genes] for star in
                          graphs.features.reshape(graphs.n_graphs, -1,
                                                  width)])
            return t
        d_train = rng.normal(size=(n_train, genes)) * 0.1
        d_val = rng.normal(size=(n_val, genes)) * 0.1
        return (train_graphs, d_train, targets(train_graphs),
                val_graphs, d_val, targets(val_graphs))

    def test_initial_val_equals_frozen_head_val_exactly(self):
        x, y = realizable_problem(11, n=40, noise=0.5)
        x_val, y_val = x[30:], y[30:]
        x_tr, y_tr = x[:30], y[:30]
        s1 = stage1_train(x_tr, y_tr, x_val, y_val)
        d_val = linear_prediction(x_val, s1.weight, s1.bias)
        d_tr = linear_prediction(x_tr, s1.weight, s1.bias)

        rng = np.random.default_rng(0)
        tg = star_graphs(rng, 30, 4)
        vg = star_graphs(rng, 10, 4)
        s2 = stage2_train(tg, d_tr, y_tr, vg, d_val, y_val,
                          correction_spec(4, 2),
                          TrainConfig(max_epochs=1, seed=3))
        assert s2.initial_val_mse == s1.best_val_mse

    def test_learns_neighborhood_signal(self):
        (tg, d_tr, y_tr, vg, d_val, y_val) = self._setup()
        cfg = TrainConfig(learning_rate=0.01, batch_size=8, max_epochs=150,
                          patience=150, seed=1)
        res = stage2_train(tg, d_tr + y_tr * 0.0, y_tr, vg, d_val, y_val,
                           correction_spec(4, 2), cfg)
        assert res.best_val_mse < res.initial_val_mse * 0.5

    def test_best_never_worse_than_initial(self):
        (tg, d_tr, y_tr, vg, d_val, y_val) = self._setup(seed=9)
        # absurd learning rate so training only hurts
        cfg = TrainConfig(learning_rate=5.0, batch_size=8, max_epochs=5,
                          patience=5, seed=1)
        res = stage2_train(tg, d_tr, y_tr, vg, d_val, y_val,
                           correction_spec(4, 2), cfg)
        assert res.best_val_mse <= res.initial_val_mse
        # the returned parameters are the best ones, here the initial zeros
        s_hat = spatial_predict(res.state, chunked(vg))
        if res.best_val_mse == res.initial_val_mse:
            assert (s_hat == 0.0).all()

    def test_deterministic(self):
        (tg, d_tr, y_tr, vg, d_val, y_val) = self._setup(seed=2)
        cfg = TrainConfig(learning_rate=0.01, batch_size=8, max_epochs=10,
                          patience=10, seed=4)
        a = stage2_train(tg, d_tr, y_tr, vg, d_val, y_val,
                         correction_spec(4, 2), cfg)
        b = stage2_train(tg, d_tr, y_tr, vg, d_val, y_val,
                         correction_spec(4, 2), cfg)
        assert [r.val_mse for r in a.history] == \
            [r.val_mse for r in b.history]
        for k in a.state.params:
            np.testing.assert_array_equal(a.state.params[k],
                                          b.state.params[k])

    def test_empty_train_split(self):
        with pytest.raises(EmptySplit):
            stage2_train(pack_rows(np.zeros((0, 4)),
                                   np.zeros(0, dtype=np.int64), []),
                         np.zeros((0, 2)), np.zeros((0, 2)), None, None,
                         None, correction_spec(4, 2), TrainConfig())


    def test_only_packing_builds_blocks(self, monkeypatch):
        # packing builds the two blocks of each shape once; training
        # batches, every validation pass and prediction take rows of the
        # packed graphs and build none
        built = []

        def counting(plain):
            def build(n_nodes, edges, *dtype):
                built.append(n_nodes)
                return plain(n_nodes, edges, *dtype)
            return build

        for name in ("adj_matrix", "gcn_matrix"):
            monkeypatch.setattr(nn, name, counting(getattr(nn, name)))
        rng = np.random.default_rng(3)
        graphs = GraphBatch.from_graphs([
            star_graphs(rng, 20, 4, nodes_per=k) for k in (4, 3, 5)])
        assert len(graphs.shapes) == 3
        assert sorted(built) == [3, 3, 4, 4, 5, 5]
        built.clear()
        tg, vg = graphs.take(np.arange(0, 60, 2)), graphs.take(
            np.arange(1, 60, 2))
        y = rng.normal(size=(60, 2))
        spec = ModelSpec(in_width=4, n_genes=2, operator="graphconv",
                         gnn_widths=(8,), pooling="sag_mean",
                         post_widths=(2,))
        res = stage2_train(tg, np.zeros((30, 2)), y[::2], vg,
                           np.zeros((30, 2)), y[1::2], spec,
                           TrainConfig(learning_rate=0.01, batch_size=8,
                                       max_epochs=3, patience=3, seed=0))
        assert len(res.history) == 4 and res.n_steps == 12
        predict_expression(TrainedModel(("a", "b"), np.zeros(2),
                                        np.zeros((2, 4)), np.zeros(2),
                                        res.state),
                           rng.normal(size=(30, 4)), vg)
        assert built == []

    def test_validation_starts_with_no_tape_alive(self, monkeypatch):
        # the last step's backward popped every layer off its tape, so no
        # layer's backward, nor the arrays it keeps, is still reachable
        # when the next validation runs; at backward's entry they are
        def layer_backwards():
            gc.collect()
            return [o for o in gc.get_objects() if callable(o)
                    and getattr(o, "__module__", None) == "sepal.nn"
                    and o.__qualname__.endswith("<locals>.backward")]

        plain, plain_backward = train.spatial_predict, nn.backward
        checked, entered = [], []

        def checking(state, chunks):
            assert not layer_backwards()
            checked.append(True)
            return plain(state, chunks)

        def entering(tape, grad):
            entered.append(len(layer_backwards()))
            return plain_backward(tape, grad)

        monkeypatch.setattr(nn, "backward", entering)
        monkeypatch.setattr(train, "spatial_predict", checking)
        (tg, d_tr, y_tr, vg, d_val, y_val) = self._setup(seed=3)
        res = stage2_train(tg, d_tr, y_tr, vg, d_val, y_val,
                           correction_spec(4, 2),
                           TrainConfig(learning_rate=0.01, batch_size=8,
                                       max_epochs=3, patience=3, seed=0))
        # every epoch but epoch 0, which runs no forward, validates
        assert len(checked) == len(res.history) - 1 == 3
        assert len(entered) == res.n_steps and min(entered) > 0

    def test_epoch_zero_runs_no_forward_and_changes_no_bit(
            self, tmp_path, monkeypatch):
        # epoch 0 once forwarded the untouched model over the val graphs;
        # its correction is exactly 0, so the history and the checkpoint
        # are the same bits without that forward
        data = self._setup(seed=5)
        spec = correction_spec(4, 2)
        cfg = TrainConfig(learning_rate=0.01, batch_size=8, max_epochs=3,
                          patience=3, seed=0)
        plain_predict, plain_mse = train.spatial_predict, train._val_mse
        init = nn.init_model_state
        calls, states = [], []

        def counting(state, chunks):
            calls.append(state)
            return plain_predict(state, chunks)

        monkeypatch.setattr(train, "spatial_predict", counting)
        monkeypatch.setattr(nn, "init_model_state",
                            lambda *a: states.append(init(*a)) or states[-1])
        res = stage2_train(*data, spec, cfg)
        assert len(calls) == len(res.history) - 1 == 3

        zero = []

        def with_epoch_zero_forward(pred, target):
            # the first call scores epoch 0: forward as the old loop did
            if not zero:
                zero.append(plain_predict(states[1], chunked(data[3])))
                pred = zero[0] + pred
            return plain_mse(pred, target)

        monkeypatch.setattr(train, "_val_mse", with_epoch_zero_forward)
        old = stage2_train(*data, spec, cfg)
        assert len(zero) == 1 and not zero[0].any()
        assert ([(r.epoch, r.train_mse, r.val_mse) for r in res.history]
                == [(r.epoch, r.train_mse, r.val_mse) for r in old.history])
        assert res.initial_val_mse == plain_mse(data[4], data[5])
        for name, result in (("new", res), ("old", old)):
            save_model(tmp_path / f"{name}.ckpt",
                       TrainedModel(("a", "b"), np.zeros(2),
                                    np.zeros((2, 4)), np.zeros(2),
                                    result.state))
        assert ((tmp_path / "new.ckpt").read_bytes()
                == (tmp_path / "old.ckpt").read_bytes())

    def test_misaligned_val_arrays_rejected(self):
        tg, d_tr, y_tr, vg, d_val, y_val = self._setup()
        with pytest.raises(ShapeMismatch, match="val"):
            stage2_train(tg, d_tr, y_tr, vg, d_val[:-1], y_val[:-1],
                         correction_spec(4, 2), TrainConfig(max_epochs=1))

    def test_partial_epoch_mse_averages_the_samples_seen(self):
        # every sample misses by 0.5, so every batch's MSE is 0.25
        rng = np.random.default_rng(0)
        graphs = star_graphs(rng, 8, 4)
        res = stage2_train(graphs, np.zeros((8, 2)), np.full((8, 2), 0.5),
                           None, None, None, correction_spec(4, 2),
                           TrainConfig(learning_rate=0.0, batch_size=2,
                                       max_steps=1, seed=0))
        assert res.n_steps == 1
        assert res.history[1].train_mse == 0.25


class TestCheckpoints:
    def test_stage1_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        res = Stage1Result(weight=rng.normal(size=(3, 5)),
                           bias=rng.normal(size=3), history=[],
                           best_val_mse=0.5, alpha=0.1, ridge_lambda=0.2)
        p = tmp_path / "stage1.ckpt"
        save_model(p, TrainedModel(("g1", "g2", "g3"), np.zeros(3),
                                   res.weight, res.bias))
        model = load_model(p)
        w, b, genes = model.head_weight, model.head_bias, model.gene_ids
        np.testing.assert_array_equal(w, res.weight)
        np.testing.assert_array_equal(b, res.bias)
        assert genes == ("g1", "g2", "g3")

    def test_stage2_round_trip_and_predict_equality(self, tmp_path):
        rng = np.random.default_rng(1)
        spec = ModelSpec(in_width=4, n_genes=2, pre_widths=(3,),
                         operator="gcn", gnn_widths=(4,),
                         pooling="sag_mean", sag_ratio=0.7,
                         post_widths=(2,))
        state = init_model_state(spec, 9)
        for k, t in state.params.items():
            state.params[k] = rng.normal(size=t.shape)
        head_w = rng.normal(size=(2, 4))
        head_b = rng.normal(size=2)
        mean = np.array([1.0, -1.0])
        p = tmp_path / "stage2.ckpt"
        save_model(p, TrainedModel(("a", "b"), mean, head_w, head_b, state,
                                   hops=2, aggregation="concat"))
        model = load_model(p)
        assert model.hops == 2
        assert model.aggregation == "concat"
        assert model.state.spec == spec
        graphs = star_graphs(np.random.default_rng(2), 5, 4)
        emb = np.random.default_rng(3).normal(size=(5, 4))
        want = predict_expression(
            TrainedModel(("a", "b"), mean, head_w, head_b, state, 2,
                         "concat"),
            emb, graphs)
        got = predict_expression(model, emb, graphs)
        np.testing.assert_array_equal(got, want)

    def test_stage2_layer_of_another_shape_rejected(self, tmp_path):
        spec = correction_spec(4, 2)
        p = tmp_path / "stage2.ckpt"
        save_model(p, TrainedModel(("a", "b"), np.zeros(2), np.zeros((2, 4)),
                                   np.zeros(2), init_model_state(spec, 0)))
        meta, arrays = read_checkpoint(p)
        arrays["gnn.0.W1"] = arrays["gnn.0.W1"][:, :3]
        write_checkpoint(p, meta, arrays)
        with pytest.raises(ValidationError,
                           match="'gnn.0.W1' has shape .*sepal train"):
            load_model(p)

    def test_float32_graphs_keep_float64_master_state(self, tmp_path,
                                                      monkeypatch):
        # graphs hold float32 features, so stage 2 computes in float32;
        # the parameters, their gradients, Adam's moments and the
        # checkpoint stay float64
        rng = np.random.default_rng(7)
        graphs = star_graphs(rng, 12, 4)
        graphs = pack_rows(graphs.features.astype(np.float32),
                           graphs.sizes, local_edges(graphs))
        optimizers, grads = [], []

        class Recorded(train.Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                optimizers.append(self)

            def step(self, step_grads):
                grads.extend(step_grads.values())
                super().step(step_grads)

        monkeypatch.setattr(train, "Adam", Recorded)
        spec = ModelSpec(in_width=4, n_genes=2, pre_widths=(3,),
                         operator="gcn", gnn_widths=(4,),
                         pooling="sag_mean", post_widths=(2,))
        res = stage2_train(graphs, rng.normal(size=(12, 2)),
                           rng.normal(size=(12, 2)), graphs.take([0, 1]),
                           np.zeros((2, 2)), np.ones((2, 2)), spec,
                           TrainConfig(learning_rate=0.01, batch_size=4,
                                       max_epochs=2, seed=0))
        (opt,) = optimizers
        assert opt.t == res.n_steps == 6
        assert len(grads) == 6 * len(opt.params)
        for arrays in (opt.params.values(), grads, opt.m.values(),
                       opt.v.values()):
            assert all(a.dtype == np.float64 for a in arrays)
        path = tmp_path / "stage2.ckpt"
        save_model(path, TrainedModel(("a", "b"), np.zeros(2),
                                      np.zeros((2, 4)), np.zeros(2),
                                      res.state))
        _, arrays = read_checkpoint(path)
        assert {a.dtype for k, a in arrays.items()
                if k in res.state.params} == {np.dtype(np.float64)}
        assert load_model(path).state.params["gnn.0.W"].dtype \
            == np.float64

    def test_wrong_stage_rejected(self, tmp_path):
        res = Stage1Result(weight=np.zeros((1, 1)), bias=np.zeros(1),
                           history=[], best_val_mse=None, alpha=0.0,
                           ridge_lambda=0.0)
        p = tmp_path / "stage1.ckpt"
        save_model(p, TrainedModel(("g",), np.zeros(1), res.weight,
                                   res.bias))
        assert load_model(p).state is None

    def test_comma_in_gene_id_round_trips(self, tmp_path):
        genes = ("a,b", "c\td", "é")
        mean = np.array([0.5, -1.0, 2.0])
        p = tmp_path / "x.ckpt"
        save_model(p, TrainedModel(genes, mean, np.ones((3, 2)), np.zeros(3)))
        model = load_model(p)
        assert model.gene_ids == genes
        assert model.train_mean.tobytes() == mean.tobytes()


def visium_like_spec(in_width, n_genes):
    """The visium-like network, scaled down: one pre layer, two narrowing
    gcn layers, sag_mean and a post layer."""
    return ModelSpec(in_width=in_width, n_genes=n_genes, pre_widths=(64,),
                     operator="gcn", gnn_widths=(32, 16), pooling="sag_mean",
                     post_widths=(n_genes,))


def random_graphs(rng, sizes, width, dtype):
    edges = [rng.integers(0, k, size=(int(rng.integers(0, 2 * k)), 2))
             for k in sizes]
    features = rng.normal(size=(int(np.sum(sizes)), width)).astype(dtype)
    return pack_rows(features, np.asarray(sizes, np.int64), edges)


class TestChunked:
    @given(sizes=st.lists(st.integers(1, 40), max_size=30),
           rows=st.integers(1, 100))
    def test_whole_graphs_in_order_within_the_budget(self, sizes, rows):
        graphs = random_graphs(np.random.default_rng(0), sizes, 2,
                               np.float64)
        chunks = list(chunked(graphs, rows))
        assert [k for c in chunks for k in c.sizes.tolist()] == sizes
        if chunks:
            assert np.concatenate([c.features for c in chunks]).tobytes() \
                == graphs.features.tobytes()
        for c, after in zip(chunks, chunks[1:] + [None]):
            # within the budget unless one oversize graph, and cut only
            # where the next graph would not fit
            assert c.n_nodes <= rows or c.n_graphs == 1
            if after is not None:
                assert c.n_nodes + after.sizes[0] > rows

    def test_empty_batch_has_nothing_to_predict(self):
        state = init_model_state(visium_like_spec(4, 2), 0)
        empty = pack_rows(np.zeros((0, 4), np.float32),
                          np.zeros(0, np.int64), [])
        assert list(chunked(empty)) == []
        with pytest.raises(EmptySplit):
            spatial_predict(state, chunked(empty))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(sizes=st.lists(st.integers(1, 12), min_size=1, max_size=24),
           rows=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1))
    def test_chunks_predict_what_one_forward_does(self, dtype, sizes, rows,
                                                   seed):
        rng = np.random.default_rng(seed)
        state = init_model_state(visium_like_spec(6, 3), 0)
        for k, t in state.params.items():
            state.params[k] = rng.normal(size=t.shape) * 0.5
        graphs = random_graphs(rng, sizes, 6, dtype)
        got = spatial_predict(state, chunked(graphs, rows))
        want = nn.spatial_forward(state, graphs)
        assert got.dtype == want.dtype == dtype
        # BLAS may sum a product's terms in another order for another row
        # count (a one-row product, say), so a chunk's rows may differ
        # from the whole batch's in their last bits, in float64 too
        tol = 1e3 * np.finfo(dtype).eps
        np.testing.assert_allclose(got, want, rtol=tol, atol=tol)

    def test_prediction_peaks_at_one_chunk(self):
        # four budgets of rows predict at the peak of one budget's chunk,
        # plus the predicted rows, held once as chunks and once joined
        rng = np.random.default_rng(2)
        state = init_model_state(visium_like_spec(24, 8), 0)
        for k, t in state.params.items():
            state.params[k] = rng.normal(size=t.shape) * 0.1
        sizes = np.full(4 * train.PREDICT_ROWS // 19, 19)
        graphs = random_graphs(rng, sizes, 24, np.float32)
        one = graphs.take(np.arange(train.PREDICT_ROWS // 19))

        def peak(batch):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                out = spatial_predict(state, chunked(batch))
                return tracemalloc.get_traced_memory()[1] - base, out
            finally:
                tracemalloc.stop()

        one_peak, _ = peak(one)
        all_peak, out = peak(graphs)
        assert out.shape == (sizes.size, 8)
        assert all_peak <= one_peak + 2 * out.nbytes


class TestPredict:
    def test_head_only_prediction(self):
        w = np.array([[1.0, 0.0], [0.0, 2.0]])
        b = np.array([0.5, -0.5])
        mean = np.array([10.0, 20.0])
        model = TrainedModel(("g1", "g2"), mean, w, b, None, 1, "sum")
        emb = np.array([[1.0, 1.0]])
        got = predict_expression(model, emb, None)
        np.testing.assert_array_equal(got, [[1.0 + 0.5 + 10.0,
                                             2.0 - 0.5 + 20.0]])

    @pytest.mark.parametrize("operator", ["gcn", "graphconv"])
    def test_prediction_records_no_tape(self, operator, monkeypatch):
        rng = np.random.default_rng(5)
        spec = ModelSpec(in_width=4, n_genes=2, pre_widths=(3,),
                         operator=operator, gnn_widths=(4,),
                         pooling="sag_mean", sag_ratio=0.5,
                         post_widths=(2,))
        state = init_model_state(spec, 0)
        for k, t in state.params.items():
            state.params[k] = rng.normal(size=t.shape)
        graphs = star_graphs(rng, 6, 4)
        # the training forward records every layer's backward
        tape = []
        recorded = nn.spatial_forward(state, graphs, tape)
        assert len(tape) == 6

        tapes = []
        plain = nn.spatial_forward

        def spying(state, batch, tape=None):
            tapes.append(tape)
            return plain(state, batch, tape)

        monkeypatch.setattr(nn, "spatial_forward", spying)
        got = spatial_predict(state, [graphs])
        monkeypatch.undo()
        assert tapes == [None]
        assert got.tobytes() == recorded.tobytes()

    def test_stage2_adds_correction(self):
        rng = np.random.default_rng(4)
        spec = correction_spec(4, 2)
        state = init_model_state(spec, 0)
        for k, t in state.params.items():
            state.params[k] = rng.normal(size=t.shape) * 0.3
        graphs = star_graphs(rng, 3, 4)
        emb = rng.normal(size=(3, 4))
        mean = np.zeros(2)
        w = rng.normal(size=(2, 4))
        b = rng.normal(size=2)
        base = TrainedModel(("a", "b"), mean, w, b, None, 1, "sum")
        full = TrainedModel(("a", "b"), mean, w, b, state, 1, "sum")
        head = predict_expression(base, emb, None)
        combined = predict_expression(full, emb, graphs)
        s_hat = spatial_predict(state, chunked(graphs))
        np.testing.assert_allclose(combined, head + s_hat, atol=1e-12)


def reference_stage2(train_graphs, d_tr, y_tr, val_graphs, d_val, y_val,
                     spec, config):
    """stage2_train's loop, written out on the reference network and tape
    with the Adam it ran before: the final parameter arrays, each epoch's
    val MSE, the untouched model's first, and the Adam moments of the
    last step, keyed like the parameters."""
    model = reference.tape_state(
        spec, init_model_state(spec, config.seed).params)
    opt = reference.Adam(model.params.values(), config.learning_rate)
    rng = np.random.default_rng(config.seed)

    def val_mse():
        frozen = SimpleNamespace(spec=spec, params={
            k: reference.constant(t.data) for k, t in model.params.items()})
        s_hat = np.concatenate([reference.spatial_forward(frozen, c).data
                                for c in chunked(val_graphs)])
        return float(np.mean((s_hat + d_val - y_val) ** 2))

    history = [float(np.mean((d_val - y_val) ** 2))]
    best = {k: t.data.copy() for k, t in model.params.items()}
    steps = 0
    while steps < config.max_steps:
        perm = rng.permutation(train_graphs.n_graphs)
        for k in range(0, perm.size, config.batch_size):
            idx = perm[k:k + config.batch_size]
            s_hat = reference.spatial_forward(model, train_graphs.take(idx))
            loss = reference.mse(
                reference.add(s_hat, reference.constant(d_tr[idx])),
                reference.constant(y_tr[idx]))
            opt.zero_grad()
            reference.backward(loss)
            opt.step()
            steps += 1
            if steps == config.max_steps:
                break
        history.append(val_mse())
        if history[-1] < min(history[:-1]):
            best = {k: t.data.copy() for k, t in model.params.items()}
    moments = [dict(zip(model.params, m)) for m in (opt.m, opt.v)]
    return best, history, moments


@pytest.mark.deep
class TestTrainingStepOracle:
    """Five steps of stage2_train on float32 packed graphs, with a val
    split, against the loop of reference_stage2: every final parameter
    and every history val MSE, byte for byte.  Adam's update all but
    drops the last bits of a gradient, so the moments it sums the
    gradients into are compared too."""

    @pytest.mark.parametrize("operator", ["gcn", "graphconv"])
    @pytest.mark.parametrize("pooling", ["sag_mean", "global_mean"])
    @given(data=st.data())
    def test_same_bits_as_the_reference_loop(self, data, operator, pooling):
        optimizers = []

        class Recorded(train.Adam):
            def __init__(self, *args):
                super().__init__(*args)
                optimizers.append(self)

        width = st.integers(1, 6)
        in_width, genes = data.draw(width), data.draw(width)
        spec = ModelSpec(
            in_width=in_width, n_genes=genes,
            pre_widths=data.draw(st.lists(width, max_size=1)),
            operator=operator,
            gnn_widths=data.draw(st.lists(width, min_size=1, max_size=2)),
            pooling=pooling,
            sag_ratio=data.draw(st.sampled_from([0.3, 0.5, 1.0])),
            post_widths=(genes,))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        n_train, n_val = data.draw(st.integers(2, 12)), data.draw(
            st.integers(1, 6))
        sizes = rng.integers(1, 7, size=n_train + n_val)
        graphs = random_graphs(rng, sizes, in_width, np.float32)
        tg, vg = graphs.take(np.arange(n_train)), graphs.take(
            np.arange(n_train, n_train + n_val))
        d_tr, y_tr, d_val, y_val = (rng.normal(size=(n, genes))
                                    for n in (n_train, n_train, n_val, n_val))
        config = TrainConfig(
            learning_rate=data.draw(st.sampled_from([1e-3, 1e-2, 0.1])),
            batch_size=data.draw(st.integers(1, 5)), max_epochs=100,
            patience=100, seed=data.draw(st.integers(0, 99)), max_steps=5)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(train, "Adam", Recorded)
            res = stage2_train(tg, d_tr, y_tr, vg, d_val, y_val, spec,
                               config)
        best, history, moments = reference_stage2(
            tg, d_tr, y_tr, vg, d_val, y_val, spec, config)
        assert res.n_steps == 5
        assert [r.val_mse.hex() for r in res.history] \
            == [v.hex() for v in history]
        got = res.state.clone_arrays()
        assert list(got) == list(best)
        for k, a in best.items():
            assert got[k].dtype == a.dtype == np.float64
            assert got[k].tobytes() == a.tobytes(), k
        (opt,) = optimizers
        for mine, theirs in zip((opt.m, opt.v), moments):
            assert list(mine) == list(theirs)
            assert all(mine[k].tobytes() == theirs[k].tobytes()
                       for k in mine)
