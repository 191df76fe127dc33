import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference
from helpers import dense, propagation
from sepal.core import NoRecordedForward, ShapeMismatch, ValidationError
from sepal import nn
from sepal.nn import (
    GraphBatch,
    ModelSpec,
    Tensor,
    adj_matrix,
    backward,
    constant,
    elu,
    gather_rows,
    gcn_conv,
    gcn_matrix,
    global_mean_readout,
    graph_conv,
    init_model_state,
    linear,
    mse,
    mul,
    propagate,
    sag_mean_readout,
    spatial_forward,
    tanh,
)
from reference import mean_all


def fd_gradient_check(params, loss_fn, eps=1e-5, tol=1e-4, max_entries=None):
    """Central finite differences against the recorded gradients."""
    for t in params:
        t.zero_grad()
    backward(loss_fn())
    for t in params:
        analytic = t.grad.reshape(-1).copy()
        flat = t.data.reshape(-1)
        idxs = range(flat.size if max_entries is None
                     else min(flat.size, max_entries))
        for i in idxs:
            keep = flat[i]
            flat[i] = keep + eps
            up = float(loss_fn().data)
            flat[i] = keep - eps
            dn = float(loss_fn().data)
            flat[i] = keep
            numeric = (up - dn) / (2.0 * eps)
            err = abs(analytic[i] - numeric)
            assert err <= tol * max(1.0, abs(analytic[i]), abs(numeric)), \
                f"entry {i}: analytic {analytic[i]}, numeric {numeric}"


class TestEngineOps:
    def test_matmul_gradients_hand_checked(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        loss = mean_all(reference.matmul(a, b))
        backward(loss)
        # out = [[3], [7]], mean grad 1/2 on each row
        np.testing.assert_allclose(a.grad, [[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_allclose(b.grad, [[2.0], [3.0]])

    def test_bias_broadcast_grad_sums_rows(self):
        x = Tensor(np.ones((3, 2)))
        b = Tensor(np.zeros(2))
        loss = mean_all(nn.add(x, b))
        backward(loss)
        np.testing.assert_allclose(b.grad, [0.5, 0.5])

    def test_reused_tensor_accumulates(self):
        x = Tensor([[2.0]])
        loss = mean_all(mul(x, x))
        backward(loss)
        np.testing.assert_allclose(x.grad, [[4.0]])

    def test_stored_gradient_is_never_written_through(self):
        # x's first gradient is y's own grad array; the second add must
        # not change y.grad in place
        x = Tensor(np.ones((2, 2)))
        y = nn.add(x, x)
        backward(mean_all(y))
        np.testing.assert_array_equal(y.grad, np.full((2, 2), 0.25))
        np.testing.assert_array_equal(x.grad, np.full((2, 2), 0.5))

    def test_gather_repeated_rows_accumulate(self):
        x = Tensor([[1.0], [2.0]])
        g = gather_rows(x, np.array([0, 0, 1]))
        loss = mean_all(g)
        backward(loss)
        np.testing.assert_allclose(x.grad, [[2.0 / 3.0], [1.0 / 3.0]])

    def test_elu_values(self):
        x = Tensor([[-1.0, 0.0, 2.0]])
        y = elu(x)
        np.testing.assert_allclose(y.data, [[np.expm1(-1.0), 0.0, 2.0]])

    def test_propagate_sparse_matches_dense(self):
        # interleaved graphs of 2, 3 and 1 nodes, one random block per
        # size
        rng = np.random.default_rng(0)
        sizes = np.tile([2, 3, 1], 12)
        firsts = np.cumsum(sizes) - sizes
        op = [(rng.normal(size=(k, k)), firsts[sizes == k, None]
               + np.arange(k)) for k in (2, 3, 1)]
        n = int(sizes.sum())
        h = Tensor(rng.normal(size=(n, 3)))
        out = propagate(op, h)
        np.testing.assert_allclose(out.data, dense(op) @ h.data, rtol=1e-12)
        backward(mean_all(out))
        np.testing.assert_allclose(
            h.grad, dense(op).T @ np.full((n, 3), 1 / (3 * n)), rtol=1e-12)

    def test_backward_needs_scalar(self):
        x = Tensor([[1.0, 2.0]])
        with pytest.raises(ShapeMismatch):
            backward(nn.add(x, x))

    def test_backward_on_leaf_raises(self):
        with pytest.raises(NoRecordedForward):
            backward(Tensor(1.0))

    @given(st.sampled_from([np.float32, np.float64]),
           hnp.array_shapes(min_dims=1, max_dims=2, max_side=6),
           st.integers(0, 10 ** 6), st.booleans())
    def test_mse_is_the_composite_bit_for_bit(self, dtype, shape, seed,
                                              target_grad):
        rng = np.random.default_rng(seed)
        p, t = (rng.normal(scale=10.0, size=shape).astype(dtype)
                for _ in range(2))
        losses, grads = [], []
        for loss_fn in (mse, reference.mse):
            pred = Tensor(p.copy())
            target = Tensor(t.copy()) if target_grad else constant(t)
            loss = loss_fn(pred, target)
            backward(loss)
            losses.append(loss.data)
            grads.append((pred.grad, target.grad))
        assert losses[0].dtype == losses[1].dtype == dtype
        assert losses[0].tobytes() == losses[1].tobytes()
        for fused, composite in zip(*grads):
            assert (fused is None) == (composite is None)
            if fused is not None:
                assert fused.dtype == composite.dtype == dtype
                assert fused.tobytes() == composite.tobytes()

    @given(st.integers(0, 10 ** 6))
    def test_elementwise_ops_pass_fd(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(3, 2)))
        w = Tensor(rng.normal(size=(4, 2)))

        def loss_fn():
            return mean_all(mul(tanh(linear(x, w)), elu(linear(x, w))))
        fd_gradient_check([x, w], loss_fn)


class TestTapeRelease:
    """backward consumes the tape: each node lets go of its closure and
    parents once its closure has run."""

    def _network(self, rng):
        x = constant(rng.normal(size=(7, 3)))
        w1, b1 = Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=4))
        w2 = Tensor(rng.normal(size=(5, 4)))
        prop = propagation("gcn", np.array([[0, 1], [1, 2], [3, 4], [4, 5]]),
                           [3, 4])
        h = elu(linear(x, w1, b1))
        out = global_mean_readout(elu(gcn_conv(h, prop, w2)), [3, 4])
        return h, mse(out, constant(np.ones((2, 5)))), (w1, b1, w2)

    def test_loss_keeps_no_parents(self):
        _, loss, params = self._network(np.random.default_rng(0))
        backward(loss)
        assert loss._parents == () and loss._backward is None
        assert all(p.grad is not None for p in params)

    def test_activation_dies_with_the_callers_reference(self):
        gc.collect()
        gc.disable()
        try:
            h, loss, _ = self._network(np.random.default_rng(1))
            ref = weakref.ref(h.data)
            del h
            assert ref() is not None
            # the loss is still held, but nothing reaches h any more
            backward(loss)
            assert ref() is None
        finally:
            gc.enable()

    def test_second_backward_raises(self):
        _, loss, _ = self._network(np.random.default_rng(2))
        backward(loss)
        with pytest.raises(NoRecordedForward, match="already consumed"):
            backward(loss)


def _awkward(data, shape, dtype, scale=None, rate=None):
    """Normal values of a drawn scale; a drawn share of them is replaced
    by 0.0, -0.0, -1e4 (where expm1 rounds to -1) or NaN."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    if scale is None:
        scale = data.draw(st.sampled_from([1.0, 30.0, 1e4]))
    if rate is None:
        rate = data.draw(st.sampled_from([0.0, 0.05, 0.3]))
    values = (rng.normal(size=shape) * scale).astype(dtype)
    specials = np.array([0.0, -0.0, -1e4, np.nan], dtype)
    pick = np.where(rng.random(shape) < rate,
                    rng.integers(0, specials.size, shape), -1)
    return np.where(pick >= 0, specials[pick], values)


def _bits(*arrays):
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


class TestOneArrayOpsAgainstReference:
    """linear and elu each make one output array; their values and every
    gradient are the bits of the ops they replaced (tests/reference.py)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("with_bias", [True, False])
    @given(data=st.data())
    def test_linear(self, data, dtype, with_bias):
        n, d_in, d_out = (data.draw(st.integers(1, 24)) for _ in range(3))
        arrays = [_awkward(data, shape, dtype)
                  for shape in ((n, d_in), (d_out, d_in), (d_out,))]
        upstream = _awkward(data, (n, d_out), dtype, 1.0, 0.0)
        got = []
        for op in (linear, reference.linear):
            h, w, b = (Tensor(a.copy()) for a in arrays)
            out = op(h, w, b if with_bias else None)
            backward(mean_all(mul(out, constant(upstream))))
            got.append(_bits(out.data, h.grad, w.grad,
                             *([b.grad] if with_bias else [])))
        assert got[0] == got[1]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(data=st.data())
    def test_elu(self, data, dtype):
        shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=2))
        x = _awkward(data, shape, dtype)
        upstream = _awkward(data, shape, dtype, 1.0, 0.0)
        got = []
        for op in (elu, reference.elu):
            t = Tensor(x.copy())
            out = op(t)
            backward(mean_all(mul(out, constant(upstream))))
            got.append(_bits(out.data, t.grad))
        assert got[0] == got[1]


class TestConvsAgainstReference:
    """gcn_conv and graph_conv, whose products go through linear, against
    the composite matmul/transpose forms of tests/reference.py: the same
    bits in the forward and in every gradient, on both sides of
    gcn_conv's narrower-side branch."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("out_narrower", [True, False])
    @given(data=st.data())
    def test_same_bits(self, data, dtype, out_narrower):
        sizes = data.draw(st.lists(st.integers(1, 9), min_size=1,
                                   max_size=6))
        narrow, gap = data.draw(st.integers(1, 12)), data.draw(
            st.integers(0, 6))
        d_in, d_out = ((narrow + gap + 1, narrow) if out_narrower
                       else (narrow, narrow + gap))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        edges = [rng.integers(0, k, size=(int(rng.integers(0, 2 * k)), 2))
                 for k in sizes]
        n = sum(sizes)
        batch = GraphBatch.pack(np.zeros((n, 1), dtype), sizes, edges)
        x = _awkward(data, (n, d_in), dtype)
        weights = [_awkward(data, shape, np.float64)
                   for shape in ((d_out, d_in), (d_out, d_in), (d_out,))]
        upstream = _awkward(data, (n, d_out), dtype, 1.0, 0.0)
        for conv in ("gcn_conv", "graph_conv"):
            got = []
            for module in (nn, reference):
                h = Tensor(x.copy())
                params = [Tensor(w.copy()) for w in weights]
                p = [nn.cast(t, dtype) for t in params]
                if conv == "gcn_conv":
                    params = params[:1]
                    out = module.gcn_conv(h, batch.propagation("gcn"), p[0])
                else:
                    out = module.graph_conv(h, batch.propagation("adj"), *p)
                backward(mean_all(mul(out, constant(upstream))))
                got.append(_bits(out.data, h.grad,
                                 *(t.grad for t in params)))
            assert got[0] == got[1], conv


class TestNetworkAgainstReference:
    """spatial_forward, whose ops write over the intermediates no other op
    reads and let go of values no backward reads, against the allocating
    network of tests/reference.py: the same output bits and the same bits
    in every parameter gradient."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("operator", ["gcn", "graphconv"])
    @pytest.mark.parametrize("out_narrower", [True, False])
    @given(data=st.data())
    def test_same_bits(self, data, dtype, operator, out_narrower):
        sizes = data.draw(st.lists(st.integers(1, 9), min_size=1,
                                   max_size=6))
        width = st.integers(1, 8)
        in_width = data.draw(width)
        pre = data.draw(st.lists(width, max_size=2))
        # each graph layer narrows (gcn_conv propagates its output) or
        # keeps or widens (it propagates its input)
        gnn, w = [], pre[-1] if pre else in_width
        for _ in range(data.draw(st.integers(1, 3))):
            w = (data.draw(st.integers(1, w - 1)) if out_narrower and w > 1
                 else w + data.draw(st.integers(0, 3)))
            gnn.append(w)
        post = data.draw(st.lists(width, max_size=2))
        spec = ModelSpec(
            in_width=in_width, n_genes=post[-1] if post else gnn[-1],
            pre_widths=pre, operator=operator, gnn_widths=gnn,
            pooling=data.draw(st.sampled_from(["sag_mean", "global_mean"])),
            sag_ratio=data.draw(st.sampled_from([0.3, 0.5, 1.0])),
            post_widths=post)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        edges = [rng.integers(0, k, size=(int(rng.integers(0, 2 * k)), 2))
                 for k in sizes]
        scale = data.draw(st.sampled_from([0.3, 1.0, 30.0]))
        features = (rng.normal(size=(sum(sizes), in_width))
                    * scale).astype(dtype)
        batch = GraphBatch.pack(features, sizes, edges)
        arrays = {k: rng.normal(size=t.data.shape)
                  for k, t in init_model_state(spec, 0).params.items()}
        upstream = constant(rng.normal(size=(len(sizes), spec.n_genes))
                            .astype(dtype))
        got = []
        for forward in (spatial_forward, reference.spatial_forward):
            state = init_model_state(spec, 0)
            state.load_arrays(arrays)
            out = forward(state, batch)
            backward(mean_all(mul(out, upstream)))
            got.append(_bits(out.data, *(t.grad for t in
                                         state.params.values())))
        assert got[0] == got[1]
        assert batch.features.tobytes() == features.tobytes()


class TestPropagationMatrices:
    def test_gcn_matrix_two_node_path(self):
        m = gcn_matrix(2, np.array([[0, 1]]))
        np.testing.assert_allclose(m, [[0.5, 0.5], [0.5, 0.5]])

    def test_gcn_matrix_isolated_node(self):
        m = gcn_matrix(2, np.zeros((0, 2), dtype=np.int64))
        np.testing.assert_allclose(m, np.eye(2))

    def test_adj_matrix_symmetric_no_self_loops(self):
        m = adj_matrix(3, np.array([[0, 1], [1, 2]]))
        np.testing.assert_array_equal(m, m.T)
        np.testing.assert_array_equal(np.diag(m), np.zeros(3))

    def test_gcn_conv_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        edges = np.array([[0, 1], [1, 2], [0, 3]])
        h = rng.normal(size=(4, 3))
        w = rng.normal(size=(2, 3))
        a_hat = gcn_matrix(4, edges)
        got = gcn_conv(constant(h), propagation("gcn", edges, [4]),
                       Tensor(w))
        np.testing.assert_allclose(got.data, a_hat @ h @ w.T)

    @pytest.mark.parametrize("n_in, n_out", [(8, 2), (2, 8), (4, 4)])
    def test_convs_propagate_the_narrower_side(self, monkeypatch, n_in,
                                               n_out):
        widths = []

        def spy(matrix, h, **kw):
            widths.append(h.data.shape[1])
            return propagate(matrix, h, **kw)

        monkeypatch.setattr(nn, "propagate", spy)
        rng = np.random.default_rng(4)
        edges = np.array([[0, 1], [1, 2], [0, 3]])
        h = constant(rng.normal(size=(4, n_in)))
        w = Tensor(rng.normal(size=(n_out, n_in)))
        want = gcn_matrix(4, edges) @ h.data @ w.data.T
        got = gcn_conv(h, propagation("gcn", edges, [4]), w)
        np.testing.assert_allclose(got.data, want, rtol=1e-12)
        graph_conv(h, propagation("adj", edges, [4]), w, w,
                   Tensor(np.zeros(n_out)))
        assert widths == [min(n_in, n_out)] * 2

    def test_graph_conv_star_hand_value(self):
        edges = np.array([[0, 1], [0, 2]])
        h = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        eye = Tensor(np.eye(2))
        b = Tensor(np.zeros(2))
        out = graph_conv(constant(h), propagation("adj", edges, [3]), eye,
                         eye, b)
        np.testing.assert_allclose(out.data[0], h[0] + h[1] + h[2])
        np.testing.assert_allclose(out.data[1], h[1] + h[0])


class TestReadouts:
    def test_global_mean_two_graphs(self):
        h = constant(np.array([[2.0], [4.0], [9.0]]))
        out = global_mean_readout(h, [2, 1])
        np.testing.assert_allclose(out.data, [[3.0], [9.0]])

    def test_sag_keeps_top_half_by_score(self):
        # no edges: the score gcn reduces to h * w
        h = constant(np.array([[3.0], [1.0], [2.0], [0.0]]))
        w = Tensor(np.array([[1.0]]))
        prop = propagation("gcn", np.zeros((0, 2), dtype=np.int64), [4])
        out = sag_mean_readout(h, prop, w, 0.5, [4])
        want = (3.0 * np.tanh(3.0) + 2.0 * np.tanh(2.0)) / 2.0
        np.testing.assert_allclose(out.data, [[want]])

    def test_sag_tie_keeps_lower_index(self):
        h = constant(np.array([[5.0], [5.0], [5.0], [5.0]]))
        w = Tensor(np.array([[1.0]]))
        prop = propagation("gcn", np.zeros((0, 2), dtype=np.int64), [4])
        out = sag_mean_readout(h, prop, w, 0.5, [4])
        want = 5.0 * np.tanh(5.0)
        np.testing.assert_allclose(out.data, [[want]])

    def test_sag_ratio_one_keeps_everything(self):
        rng = np.random.default_rng(2)
        h = constant(rng.normal(size=(5, 3)))
        w = Tensor(rng.normal(size=(1, 3)))
        prop = propagation("gcn", np.zeros((0, 2), dtype=np.int64), [5])
        out = sag_mean_readout(h, prop, w, 1.0, [5])
        score = h.data @ w.data.T
        want = (h.data * np.tanh(score)).mean(axis=0)
        np.testing.assert_allclose(out.data[0], want)

    def test_sag_gradients_pass_fd(self):
        rng = np.random.default_rng(3)
        h_arr = rng.normal(size=(6, 4))
        w = Tensor(rng.normal(size=(1, 4)))
        prop = propagation("gcn", np.array([[0, 1], [2, 3], [4, 5]]), [6])
        target = constant(rng.normal(size=(2, 4)))
        h_param = Tensor(h_arr)

        def loss_fn():
            pooled = sag_mean_readout(h_param, prop, w, 0.5, [3, 3])
            return mse(pooled, target)
        fd_gradient_check([h_param, w], loss_fn)


class TestReadoutsAgainstReference:
    """The segment-op readouts build the same bytes, forward and backward,
    as the graph-by-graph loops they replaced."""

    @given(st.lists(st.integers(1, 7), min_size=1, max_size=6),
           st.integers(0, 10 ** 9),
           st.sampled_from([0.1, 0.3, 0.5, 0.6, 0.99, 1.0]),
           st.sampled_from(["sag_mean", "global_mean"]))
    def test_identical_bytes(self, sizes, seed, ratio, pooling):
        rng = np.random.default_rng(seed)
        n = sum(sizes)
        ends = np.cumsum(sizes)
        slices = [(int(e - k), int(e)) for k, e in zip(sizes, ends)]
        # the readouts take graph sizes, the reference loops row slices
        segments = {nn: sizes, reference: slices}
        # few distinct values, so scores tie within and across graphs
        h_arr = rng.integers(-2, 3, size=(n, 3)).astype(float)
        w_arr = np.array([[1.0, 0.0, 0.0]])
        prop = propagation("gcn", np.zeros((0, 2), np.int64), sizes)

        def run(readout_module):
            h, w = Tensor(h_arr.copy()), Tensor(w_arr.copy())
            if pooling == "sag_mean":
                out = readout_module.sag_mean_readout(
                    h, prop, w, ratio, segments[readout_module])
            else:
                out = readout_module.global_mean_readout(
                    h, segments[readout_module])
            backward(mean_all(mul(out, out)))
            return out.data, h.grad, w.grad

        got, want = run(nn), run(reference)
        for a, b in zip(got, want):
            if b is None:
                assert a is None
            else:
                assert a.tobytes() == b.tobytes()

    def test_empty_graph_rejected(self):
        h = constant(np.ones((3, 1)))
        with pytest.raises(ValidationError):
            global_mean_readout(h, [3, 0])
        with pytest.raises(ValidationError):
            sag_mean_readout(h, propagation("gcn", np.zeros((0, 2), np.int64),
                                            [3]),
                             Tensor(np.ones((1, 1))), 0.5, [0, 3])

    def test_sizes_must_cover_every_row(self):
        h = constant(np.ones((5, 1)))
        prop = propagation("gcn", np.zeros((0, 2), np.int64), [5])
        for sizes in ([2, 2], [3, 3], [5, 1]):
            with pytest.raises(ShapeMismatch, match="cover"):
                global_mean_readout(h, sizes)
            with pytest.raises(ShapeMismatch, match="cover"):
                sag_mean_readout(h, prop, Tensor(np.ones((1, 1))), 0.5,
                                 sizes)


def tiny_spec(**kw):
    base = dict(in_width=4, n_genes=3, pre_widths=(5,), operator="graphconv",
                gnn_widths=(6,), pooling="global_mean", sag_ratio=0.5,
                post_widths=(3,))
    base.update(kw)
    return ModelSpec(**base)


def tiny_batch(rng, n_graphs=3, nodes_per=4, width=4):
    graphs = []
    for _ in range(n_graphs):

        class G:
            pass
        g = G()
        g.features = rng.normal(size=(nodes_per, width))
        g.edges = np.array([[0, i] for i in range(1, nodes_per)])
        graphs.append(g)
    return reference.from_graphs(graphs)


class TestModelSpec:
    def test_output_width_must_equal_genes(self):
        with pytest.raises(ShapeMismatch):
            tiny_spec(post_widths=(7,))

    def test_no_post_uses_last_gnn_width(self):
        spec = tiny_spec(gnn_widths=(3,), post_widths=())
        assert spec.gnn_widths == (3,)

    def test_requires_gnn_layer(self):
        with pytest.raises(ValidationError):
            tiny_spec(gnn_widths=())

    def test_ratio_range(self):
        with pytest.raises(ValidationError):
            tiny_spec(sag_ratio=0.0)
        with pytest.raises(ValidationError):
            tiny_spec(sag_ratio=1.5)

    def test_unknown_operator_and_pooling(self):
        with pytest.raises(ValidationError):
            tiny_spec(operator="attention")
        with pytest.raises(ValidationError):
            tiny_spec(pooling="max")


class TestInit:
    def test_same_seed_same_params(self):
        a = init_model_state(tiny_spec(), 7)
        b = init_model_state(tiny_spec(), 7)
        assert list(a.params) == list(b.params)
        for k in a.params:
            np.testing.assert_array_equal(a.params[k].data, b.params[k].data)

    def test_different_seed_differs(self):
        a = init_model_state(tiny_spec(), 0)
        b = init_model_state(tiny_spec(), 1)
        assert any((a.params[k].data != b.params[k].data).any()
                   for k in a.params if k.endswith("W"))

    def test_final_post_layer_zeroed(self):
        s = init_model_state(tiny_spec(), 0)
        assert (s.params["post.0.W"].data == 0.0).all()
        assert (s.params["post.0.b"].data == 0.0).all()

    def test_final_gnn_layer_zeroed_without_post(self):
        s = init_model_state(tiny_spec(post_widths=(), gnn_widths=(3,)), 0)
        for suffix in ("W1", "W2", "b"):
            assert (s.params[f"gnn.0.{suffix}"].data == 0.0).all()

    def test_glorot_bounds(self):
        s = init_model_state(tiny_spec(), 0)
        w = s.params["pre.0.W"].data
        lim = np.sqrt(6.0 / (4 + 5))
        assert (np.abs(w) <= lim).all()
        assert (s.params["pre.0.b"].data == 0.0).all()


class TestSpatialForward:
    @pytest.mark.parametrize("operator", ["gcn", "graphconv"])
    @pytest.mark.parametrize("pooling", ["sag_mean", "global_mean"])
    def test_fresh_model_outputs_exact_zero(self, operator, pooling):
        rng = np.random.default_rng(5)
        spec = tiny_spec(operator=operator, pooling=pooling)
        state = init_model_state(spec, 11)
        out = spatial_forward(state, tiny_batch(rng))
        assert (out.data == 0.0).all()

    def test_batch_equals_individual_forward(self):
        rng = np.random.default_rng(6)
        spec = tiny_spec(pooling="sag_mean", post_widths=(3,))
        state = init_model_state(spec, 3)
        # un-zero the last layer to make the outputs informative
        state.params["post.0.W"].data[:] = rng.normal(
            size=state.params["post.0.W"].data.shape)
        state.params["post.0.b"].data[:] = rng.normal(size=3)
        graphs = []
        for _ in range(4):

            class G:
                pass
            g = G()
            g.features = rng.normal(size=(5, 4))
            g.edges = np.array([[0, 1], [0, 2], [0, 3], [0, 4], [1, 2]])
            graphs.append(g)
        batched = spatial_forward(state, reference.from_graphs(graphs))
        for i, g in enumerate(graphs):
            single = spatial_forward(state, reference.from_graphs([g]))
            np.testing.assert_allclose(batched.data[i], single.data[0],
                                       rtol=0, atol=1e-12)

    def test_forward_deterministic(self):
        rng = np.random.default_rng(8)
        spec = tiny_spec()
        state = init_model_state(spec, 3)
        batch = tiny_batch(np.random.default_rng(9))
        a = spatial_forward(state, batch).data
        b = spatial_forward(state, batch).data
        np.testing.assert_array_equal(a, b)

    def test_blocks_are_built_once_per_shape(self, monkeypatch):
        # three graphs of one shape: packing builds its two blocks, and
        # the forward, with gcn layers and a gcn score, builds none
        calls = []

        def counting(name):
            plain = getattr(nn, name)

            def build(n_nodes, edges, *dtype):
                calls.append(name)
                return plain(n_nodes, edges, *dtype)
            return build

        for name in ("adj_matrix", "gcn_matrix"):
            monkeypatch.setattr(nn, name, counting(name))
        batch = tiny_batch(np.random.default_rng(9))
        assert len(batch.shapes) == 1
        assert sorted(calls) == ["adj_matrix", "gcn_matrix"]
        state = init_model_state(
            tiny_spec(operator="gcn", pooling="sag_mean"), 3)
        spatial_forward(state, batch)
        assert len(calls) == 2

    @pytest.mark.parametrize("operator", ["gcn", "graphconv"])
    def test_tape_is_freed_without_the_cycle_collector(self, operator):
        state = init_model_state(
            tiny_spec(operator=operator, pooling="sag_mean"), 3)
        batch = tiny_batch(np.random.default_rng(4))
        gc.collect()
        gc.disable()
        try:
            loss = mse(spatial_forward(state, batch),
                       constant(np.ones((batch.n_graphs, 3))))
            backward(loss)
            del loss
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("operator", ["gcn", "graphconv"])
    def test_tape_holds_one_activation_per_layer(self, operator):
        # the visium-like shape, scaled down: one pre layer, two narrowing
        # graph layers, sag_mean; at backward's entry each layer's rows
        # are held once, by its ELU output, which the next layer's backward
        # reads (a pre-activation or a product is read by no backward)
        sizes = [7, 7, 7, 7, 7, 8]
        rows, widths = sum(sizes), (64, 32, 16)
        spec = ModelSpec(in_width=24, n_genes=8, pre_widths=widths[:1],
                         operator=operator, gnn_widths=widths[1:],
                         pooling="sag_mean", post_widths=(8,))
        state = init_model_state(spec, 3)
        rng = np.random.default_rng(3)
        edges = [np.stack([np.zeros(k - 1, np.int64), np.arange(1, k)], 1)
                 for k in sizes]
        batch = GraphBatch.pack(
            rng.normal(size=(rows, 24)).astype(np.float32), sizes, edges)
        target = constant(np.ones((len(sizes), 8)))
        tracemalloc.start()
        try:
            loss = mse(spatial_forward(state, batch), target)
            traces = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
            ).traces
        finally:
            tracemalloc.stop()
        held = {w: sum(t.size == rows * w * 4 for t in traces)
                for w in widths}
        assert held == {w: 1 for w in widths}
        backward(loss)
        assert all(t.grad is not None for t in state.params.values())

    def test_forward_over_constants_records_nothing(self):
        state = init_model_state(
            tiny_spec(operator="gcn", pooling="sag_mean"), 3)
        batch = tiny_batch(np.random.default_rng(4))
        out = spatial_forward(state.frozen(), batch)
        assert out._parents == () and out._backward is None
        assert not out.requires_grad
        recorded = spatial_forward(state, batch)
        assert recorded._parents
        assert out.data.tobytes() == recorded.data.tobytes()

    def test_width_guard(self):
        state = init_model_state(tiny_spec(), 0)
        batch = tiny_batch(np.random.default_rng(0), width=9)
        with pytest.raises(ShapeMismatch):
            spatial_forward(state, batch)

    @pytest.mark.parametrize("operator", ["gcn", "graphconv"])
    def test_full_model_gradients_pass_fd(self, operator):
        rng = np.random.default_rng(13)
        spec = ModelSpec(in_width=3, n_genes=2, pre_widths=(3,),
                         operator=operator, gnn_widths=(3,),
                         pooling="sag_mean", sag_ratio=0.6, post_widths=(2,))
        state = init_model_state(spec, 21)
        # randomize every parameter, including the zeroed final layer
        for k, t in state.params.items():
            t.data = rng.normal(size=t.data.shape) * 0.5
        batch = tiny_batch(rng, n_graphs=2, nodes_per=4, width=3)
        target = constant(rng.normal(size=(2, 2)))

        def loss_fn():
            return mse(spatial_forward(state, batch), target)
        fd_gradient_check(list(state.params.values()), loss_fn)
