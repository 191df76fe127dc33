import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference
from helpers import (
    alike_maps,
    dense,
    layer_mse,
    local_edges,
    model_mse,
    pack_rows,
    propagation,
)
from sepal.core import ShapeMismatch, ValidationError
from sepal import nn, train
from sepal.nn import (
    GraphBatch,
    ModelSpec,
    adj_matrix,
    backward,
    elu,
    gcn_conv,
    gcn_matrix,
    global_mean_readout,
    graph_conv,
    init_model_state,
    linear,
    propagate,
    sag_mean_readout,
    spatial_forward,
)
from reference import Tensor, constant, mean_all, mul


def fd_gradient_check(arrays, loss_fn, eps=1e-5, tol=1e-4):
    """Central finite differences against the gradients loss_fn returns,
    one per array, beside the loss."""
    _, grads = loss_fn()
    for a, g in zip(arrays, grads):
        analytic = g.reshape(-1).copy()
        flat = a.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            up = loss_fn()[0]
            flat[i] = keep - eps
            dn = loss_fn()[0]
            flat[i] = keep
            numeric = (up - dn) / (2.0 * eps)
            err = abs(analytic[i] - numeric)
            assert err <= tol * max(1.0, abs(analytic[i]), abs(numeric)), \
                f"entry {i}: analytic {analytic[i]}, numeric {numeric}"


def tape_grad(out, c):
    """The gradient the reference tape hands out from mean_all(mul(out,
    c)): what a layer's backward is given to compare with it."""
    return np.full_like(out, 1.0 / out.size) * c


class TestEngineOps:
    def test_matmul_gradients_hand_checked(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[1.0], [1.0]])
        out, layer_backward = linear(a, b.T)
        g_a, (g_w,) = layer_backward(np.full((2, 1), 0.5), True)
        # out = [[3], [7]], mean grad 1/2 on each row
        np.testing.assert_allclose(out, [[3.0], [7.0]])
        np.testing.assert_allclose(g_a, [[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_allclose(g_w.T, [[2.0], [3.0]])

    def test_bias_broadcast_grad_sums_rows(self):
        x = np.ones((3, 2))
        b = np.zeros(2)
        _, layer_backward = linear(x, np.eye(2), b)
        _, (_, g_b) = layer_backward(np.full((3, 2), 1.0 / 6.0), True)
        np.testing.assert_allclose(g_b, [0.5, 0.5])

    def test_reused_tensor_accumulates(self):
        x = Tensor([[2.0]])
        loss = mean_all(mul(x, x))
        reference.backward(loss)
        np.testing.assert_allclose(x.grad, [[4.0]])

    def test_stored_gradient_is_never_written_through(self):
        # x's first gradient is y's own grad array; the second add must
        # not change y.grad in place
        x = Tensor(np.ones((2, 2)))
        y = reference.add(x, x)
        reference.backward(mean_all(y))
        np.testing.assert_array_equal(y.grad, np.full((2, 2), 0.25))
        np.testing.assert_array_equal(x.grad, np.full((2, 2), 0.5))

    def test_gather_repeated_rows_accumulate(self):
        x = Tensor([[1.0], [2.0]])
        g = reference.gather_rows(x, np.array([0, 0, 1]))
        loss = mean_all(g)
        reference.backward(loss)
        np.testing.assert_allclose(x.grad, [[2.0 / 3.0], [1.0 / 3.0]])

    def test_elu_values(self):
        y, _ = elu(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_allclose(y, [[np.expm1(-1.0), 0.0, 2.0]])

    def test_propagate_sparse_matches_dense(self):
        # interleaved graphs of 2, 3 and 1 nodes, one random block per
        # size
        rng = np.random.default_rng(0)
        sizes = np.tile([2, 3, 1], 12)
        firsts = np.cumsum(sizes) - sizes
        op = [(rng.normal(size=(k, k)), firsts[sizes == k, None]
               + np.arange(k)) for k in (2, 3, 1)]
        n = int(sizes.sum())
        h = rng.normal(size=(n, 3))
        out = propagate(op, h)
        np.testing.assert_allclose(out, dense(op) @ h, rtol=1e-12)
        g = np.full((n, 3), 1 / (3 * n))
        np.testing.assert_allclose(propagate(op, g, transposed=True),
                                   dense(op).T @ g, rtol=1e-12)

    @given(st.sampled_from([np.float32, np.float64]),
           hnp.array_shapes(min_dims=1, max_dims=2, max_side=6),
           st.integers(0, 10 ** 6))
    def test_mse_is_the_composite_bit_for_bit(self, dtype, shape, seed):
        # stage 2's loss, on the network's output in its dtype and the
        # float64 head prediction and target, against the reference
        # tape's add and composite mse
        rng = np.random.default_rng(seed)
        s_hat = rng.normal(scale=10.0, size=shape).astype(dtype)
        delta, target = (rng.normal(scale=10.0, size=shape)
                         for _ in range(2))
        loss, grad = train._loss(s_hat, delta, target)
        pred = Tensor(s_hat.copy())
        want = reference.mse(reference.add(pred, constant(delta)),
                             constant(target))
        reference.backward(want)
        assert np.float64(loss).tobytes() == want.data.tobytes()
        assert grad.dtype == pred.grad.dtype == dtype
        assert grad.tobytes() == pred.grad.tobytes()

    @given(st.integers(0, 10 ** 6))
    def test_elementwise_ops_pass_fd(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(3, 2)))
        w = Tensor(rng.normal(size=(4, 2)))

        def loss_fn():
            x.zero_grad()
            w.zero_grad()
            loss = mean_all(mul(reference.tanh(reference.linear(x, w)),
                                reference.elu(reference.linear(x, w))))
            reference.backward(loss)
            return float(loss.data), [x.grad, w.grad]
        fd_gradient_check([x.data, w.data], loss_fn)


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


@pytest.mark.deep
class TestOneArrayOpsAgainstReference:
    """linear and elu each make one output array; their values and every
    gradient their backward returns are the bits of the composite ops on
    the reference tape (tests/reference.py)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("with_bias", [True, False])
    @given(data=st.data())
    def test_linear(self, data, dtype, with_bias):
        n, d_in, d_out = (data.draw(st.integers(1, 24)) for _ in range(3))
        arrays = [_awkward(data, shape, dtype)
                  for shape in ((n, d_in), (d_out, d_in), (d_out,))]
        upstream = _awkward(data, (n, d_out), dtype, 1.0, 0.0)
        h, w, b = (a.copy() for a in arrays)
        out, layer_backward = linear(h, w, b if with_bias else None)
        g_h, grads = layer_backward(tape_grad(out, upstream), True)
        got = _bits(out, g_h, *grads)
        h, w, b = (Tensor(a.copy()) for a in arrays)
        out = reference.linear(h, w, b if with_bias else None)
        reference.backward(mean_all(mul(out, constant(upstream))))
        assert got == _bits(out.data, h.grad, w.grad,
                            *([b.grad] if with_bias else []))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(data=st.data())
    def test_elu(self, data, dtype):
        shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=2))
        x = _awkward(data, shape, dtype)
        upstream = _awkward(data, shape, dtype, 1.0, 0.0)
        out, layer_backward = elu(x.copy())
        # the backward writes the input's gradient over the output
        got = _bits(out)
        got += _bits(layer_backward(tape_grad(out, upstream), True)[0])
        t = Tensor(x.copy())
        out = reference.elu(t)
        reference.backward(mean_all(mul(out, constant(upstream))))
        assert got == _bits(out.data, t.grad)


@pytest.mark.deep
class TestConvsAgainstReference:
    """gcn_conv and graph_conv, whose products go through linear, against
    the composite matmul/transpose forms of tests/reference.py on its
    tape: the same bits in the forward and in every gradient, on both
    sides of gcn_conv's narrower-side branch."""

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
        batch = pack_rows(np.zeros((n, 1), dtype), sizes, edges)
        x = _awkward(data, (n, d_in), dtype)
        weights = [_awkward(data, shape, np.float64)
                   for shape in ((d_out, d_in), (d_out, d_in), (d_out,))]
        upstream = _awkward(data, (n, d_out), dtype, 1.0, 0.0)
        for conv in ("gcn_conv", "graph_conv"):
            # the layer takes its parameters in the batch's dtype and
            # backward casts their gradients to float64, as the tape's
            # cast did
            p = [w.astype(dtype) for w in weights]
            if conv == "gcn_conv":
                out, layer_backward = gcn_conv(
                    x.copy(), batch.propagation("gcn"), p[0])
            else:
                out, layer_backward = graph_conv(
                    x.copy(), batch.propagation("adj"), *p)
            g_h, grads = layer_backward(tape_grad(out, upstream), True)
            got = _bits(out, g_h, *(g.astype(np.float64) for g in grads))
            h = Tensor(x.copy())
            params = [Tensor(w.copy()) for w in weights]
            p = [reference.cast(t, dtype) for t in params]
            if conv == "gcn_conv":
                params = params[:1]
                out = reference.gcn_conv(h, batch.propagation("gcn"), p[0])
            else:
                out = reference.graph_conv(h, batch.propagation("adj"), *p)
            reference.backward(mean_all(mul(out, constant(upstream))))
            assert got == _bits(out.data, h.grad,
                                *(t.grad for t in params)), conv


@pytest.mark.deep
class TestNetworkAgainstReference:
    """spatial_forward and backward, whose layers write over the
    intermediates no other layer reads and keep only what their backward
    reads, against the allocating network of tests/reference.py on its
    tape: the same output bits and the same bits in every parameter
    gradient."""

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
        batch = pack_rows(features, sizes, edges)
        arrays = {k: rng.normal(size=t.shape)
                  for k, t in init_model_state(spec, 0).params.items()}
        upstream = rng.normal(size=(len(sizes), spec.n_genes)).astype(dtype)
        state = init_model_state(spec, 0)
        state.load_arrays(arrays)
        tape = []
        out = spatial_forward(state, batch, tape)
        grads = backward(tape, tape_grad(out, upstream))
        got = _bits(out, *(grads[k] for k in state.params))
        model = reference.tape_state(spec, arrays)
        out = reference.spatial_forward(model, batch)
        reference.backward(mean_all(mul(out, constant(upstream))))
        assert got == _bits(out.data, *(t.grad for t in
                                        model.params.values()))
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
        got, _ = gcn_conv(h, propagation("gcn", edges, [4]), w)
        np.testing.assert_allclose(got, a_hat @ h @ w.T)

    @pytest.mark.parametrize("n_in, n_out", [(8, 2), (2, 8), (4, 4)])
    def test_convs_propagate_the_narrower_side(self, monkeypatch, n_in,
                                               n_out):
        widths = []

        def spy(matrix, x, *args, **kw):
            widths.append(x.shape[1])
            return propagate(matrix, x, *args, **kw)

        monkeypatch.setattr(nn, "propagate", spy)
        rng = np.random.default_rng(4)
        edges = np.array([[0, 1], [1, 2], [0, 3]])
        h = rng.normal(size=(4, n_in))
        w = rng.normal(size=(n_out, n_in))
        want = gcn_matrix(4, edges) @ h @ w.T
        got, _ = gcn_conv(h, propagation("gcn", edges, [4]), w)
        np.testing.assert_allclose(got, want, rtol=1e-12)
        graph_conv(h, propagation("adj", edges, [4]), w, w, np.zeros(n_out))
        assert widths == [min(n_in, n_out)] * 2

    def test_narrowing_backward_writes_over_its_gradient(self):
        # S^T g goes into g's buffer; graph_conv takes its bias gradient
        # from g before its neighbour product's backward does that, so
        # its gradients keep the reference's bits
        rng = np.random.default_rng(5)
        edges = np.array([[0, 1], [1, 2], [0, 3]])
        h = rng.normal(size=(4, 6))
        w = rng.normal(size=(2, 6))
        g = rng.normal(size=(4, 2))
        prop = propagation("gcn", edges, [4])
        want = propagate(prop, g, transposed=True)
        spent = g.copy()
        gcn_conv(h, prop, w)[1](spent, True)
        assert spent.tobytes() == want.tobytes()
        adj = propagation("adj", edges, [4])
        weights = [w, rng.normal(size=(2, 6)), rng.normal(size=2)]
        out, layer_backward = graph_conv(h, adj, *weights)
        g_h, grads = layer_backward(tape_grad(out, g), True)
        x = Tensor(h.copy())
        params = [Tensor(p.copy()) for p in weights]
        out = reference.graph_conv(x, adj, *params)
        reference.backward(mean_all(mul(out, constant(g))))
        assert _bits(g_h, *grads) == _bits(x.grad, *(t.grad for t in params))

    def test_graph_conv_star_hand_value(self):
        edges = np.array([[0, 1], [0, 2]])
        h = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        eye = np.eye(2)
        out, _ = graph_conv(h, propagation("adj", edges, [3]), eye, eye,
                            np.zeros(2))
        np.testing.assert_allclose(out[0], h[0] + h[1] + h[2])
        np.testing.assert_allclose(out[1], h[1] + h[0])


class TestReadouts:
    def test_global_mean_two_graphs(self):
        h = np.array([[2.0], [4.0], [9.0]])
        out, _ = global_mean_readout(h, [2, 1])
        np.testing.assert_allclose(out, [[3.0], [9.0]])

    def test_sag_keeps_top_half_by_score(self):
        # no edges: the score gcn reduces to h * w
        h = np.array([[3.0], [1.0], [2.0], [0.0]])
        w = np.array([[1.0]])
        prop = propagation("gcn", np.zeros((0, 2), dtype=np.int64), [4])
        out, _ = sag_mean_readout(h, prop, w, 0.5, [4], alike_maps(prop))
        want = (3.0 * np.tanh(3.0) + 2.0 * np.tanh(2.0)) / 2.0
        np.testing.assert_allclose(out, [[want]])

    def test_sag_tie_keeps_lower_index(self):
        h = np.array([[5.0], [5.0], [5.0], [5.0]])
        w = np.array([[1.0]])
        prop = propagation("gcn", np.zeros((0, 2), dtype=np.int64), [4])
        out, _ = sag_mean_readout(h, prop, w, 0.5, [4], alike_maps(prop))
        want = 5.0 * np.tanh(5.0)
        np.testing.assert_allclose(out, [[want]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sag_clique_tie_keeps_lower_rows(self, dtype):
        # a triangle's gcn rows are alike, so its three nodes tie however
        # a matmul rounds their scores: each graph keeps rows 0 and 1
        rng = np.random.default_rng(0)
        n_graphs, width = 64, 16
        h = rng.normal(size=(3 * n_graphs, width)).astype(dtype)
        w = rng.normal(size=(1, width)).astype(dtype)
        edges = np.array([[0, 1], [0, 2], [1, 2]])
        edges = np.concatenate([edges + 3 * g for g in range(n_graphs)])
        sizes = [3] * n_graphs
        prop = propagation("gcn", edges, sizes, dtype)
        out, _ = sag_mean_readout(h, prop, w, 0.5, sizes,
                                  alike_maps(prop))
        score = (h.astype(np.float64) @ w.T.astype(np.float64)).reshape(
            n_graphs, 3).mean(axis=1, keepdims=True)
        pairs = h.astype(np.float64).reshape(n_graphs, 3, width)[:, :2]
        np.testing.assert_allclose(out, pairs.mean(axis=1) * np.tanh(score),
                                   rtol=0, atol=1e-5)

    def test_sag_tie_maps_are_built_once_per_shape(self, monkeypatch):
        built = []

        def counting(block, first_alike=nn.first_alike):
            built.append(block.shape)
            return first_alike(block)

        monkeypatch.setattr(nn, "first_alike", counting)
        # two triangles, a star and an edgeless pair: three shapes
        triangle = np.array([[0, 1], [0, 2], [1, 2]])
        batch = pack_rows(
            np.random.default_rng(0).normal(size=(12, 4)), [3, 3, 4, 2],
            [triangle, triangle, np.array([[0, 1], [0, 2], [0, 3]]),
             np.zeros((0, 2), np.int64)])
        state = init_model_state(tiny_spec(pooling="sag_mean"), 0)
        first = spatial_forward(state, batch)
        second = spatial_forward(state, batch)
        # a training batch taken from it shares its shapes and maps
        spatial_forward(state, batch.take([3, 0]))
        assert sorted(built) == [(2, 2), (3, 3), (4, 4)]
        assert first.tobytes() == second.tobytes()

    def test_sag_ratio_one_keeps_everything(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=(5, 3))
        w = rng.normal(size=(1, 3))
        prop = propagation("gcn", np.zeros((0, 2), dtype=np.int64), [5])
        out, _ = sag_mean_readout(h, prop, w, 1.0, [5], alike_maps(prop))
        score = h @ w.T
        want = (h * np.tanh(score)).mean(axis=0)
        np.testing.assert_allclose(out[0], want)

    def test_sag_gradients_pass_fd(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(6, 4))
        w = rng.normal(size=(1, 4))
        prop = propagation("gcn", np.array([[0, 1], [2, 3], [4, 5]]), [6])
        target = rng.normal(size=(2, 4))

        def sag(x, w):
            return sag_mean_readout(x, prop, w, 0.5, [3, 3],
                                    alike_maps(prop))
        fd_gradient_check([h, w], lambda: layer_mse(sag, h, [w], target))


@pytest.mark.deep
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
        # few distinct values, so scores tie within and across graphs
        h_arr = rng.integers(-2, 3, size=(n, 3)).astype(float)
        w_arr = np.array([[1.0, 0.0, 0.0]])
        prop = propagation("gcn", np.zeros((0, 2), np.int64), sizes)

        # the readouts take graph sizes, the reference loops row slices
        h, w = Tensor(h_arr.copy()), Tensor(w_arr.copy())
        if pooling == "sag_mean":
            out, layer_backward = sag_mean_readout(
                h_arr, prop, w_arr, ratio, sizes, alike_maps(prop))
            want = reference.sag_mean_readout(h, prop, w, ratio, slices)
        else:
            out, layer_backward = global_mean_readout(h_arr, sizes)
            want = reference.global_mean_readout(h, slices)
        reference.backward(mean_all(mul(want, want)))
        # what the tape's mul(out, out) hands to out: one product per
        # operand, summed
        half = np.full_like(out, 1.0 / out.size) * out
        g_h, grads = layer_backward(half + half, True)
        assert out.tobytes() == want.data.tobytes()
        assert g_h.tobytes() == h.grad.tobytes()
        if pooling == "sag_mean":
            assert grads[0].tobytes() == w.grad.tobytes()
        else:
            assert grads == () and w.grad is None

    def test_empty_graph_rejected(self):
        h = np.ones((3, 1))
        prop = propagation("gcn", np.zeros((0, 2), np.int64), [3])
        with pytest.raises(ValidationError):
            global_mean_readout(h, [3, 0])
        with pytest.raises(ValidationError):
            sag_mean_readout(h, prop, np.ones((1, 1)), 0.5, [0, 3],
                             alike_maps(prop))

    def test_sizes_must_cover_every_row(self):
        h = np.ones((5, 1))
        prop = propagation("gcn", np.zeros((0, 2), np.int64), [5])
        for sizes in ([2, 2], [3, 3], [5, 1]):
            with pytest.raises(ShapeMismatch, match="cover"):
                global_mean_readout(h, sizes)
            with pytest.raises(ShapeMismatch, match="cover"):
                sag_mean_readout(h, prop, np.ones((1, 1)), 0.5, sizes,
                                 alike_maps(prop))


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
            np.testing.assert_array_equal(a.params[k], b.params[k])

    def test_different_seed_differs(self):
        a = init_model_state(tiny_spec(), 0)
        b = init_model_state(tiny_spec(), 1)
        assert any((a.params[k] != b.params[k]).any()
                   for k in a.params if k.endswith("W"))

    def test_final_post_layer_zeroed(self):
        s = init_model_state(tiny_spec(), 0)
        assert (s.params["post.0.W"] == 0.0).all()
        assert (s.params["post.0.b"] == 0.0).all()

    def test_final_gnn_layer_zeroed_without_post(self):
        s = init_model_state(tiny_spec(post_widths=(), gnn_widths=(3,)), 0)
        for suffix in ("W1", "W2", "b"):
            assert (s.params[f"gnn.0.{suffix}"] == 0.0).all()

    def test_glorot_bounds(self):
        s = init_model_state(tiny_spec(), 0)
        w = s.params["pre.0.W"]
        lim = np.sqrt(6.0 / (4 + 5))
        assert (np.abs(w) <= lim).all()
        assert (s.params["pre.0.b"] == 0.0).all()


class TestSpatialForward:
    @pytest.mark.parametrize("operator", ["gcn", "graphconv"])
    @pytest.mark.parametrize("pooling", ["sag_mean", "global_mean"])
    def test_fresh_model_outputs_exact_zero(self, operator, pooling):
        rng = np.random.default_rng(5)
        spec = tiny_spec(operator=operator, pooling=pooling)
        state = init_model_state(spec, 11)
        out = spatial_forward(state, tiny_batch(rng))
        assert (out == 0.0).all()

    def test_batch_equals_individual_forward(self):
        rng = np.random.default_rng(6)
        spec = tiny_spec(pooling="sag_mean", post_widths=(3,))
        state = init_model_state(spec, 3)
        # un-zero the last layer to make the outputs informative
        state.params["post.0.W"][:] = rng.normal(
            size=state.params["post.0.W"].shape)
        state.params["post.0.b"][:] = rng.normal(size=3)
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
            np.testing.assert_allclose(batched[i], single[0],
                                       rtol=0, atol=1e-12)

    def test_forward_deterministic(self):
        rng = np.random.default_rng(8)
        spec = tiny_spec()
        state = init_model_state(spec, 3)
        batch = tiny_batch(np.random.default_rng(9))
        a = spatial_forward(state, batch)
        b = spatial_forward(state, batch)
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
        # one training step: a forward onto a tape and a backward that
        # pops it; refcounting alone frees every layer and its arrays
        state = init_model_state(
            tiny_spec(operator=operator, pooling="sag_mean"), 3)
        batch = tiny_batch(np.random.default_rng(4))
        gc.collect()
        gc.disable()
        try:
            model_mse(state, batch, np.ones((batch.n_graphs, 3)))
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
        batch = pack_rows(rng.normal(size=(rows, 24)).astype(np.float32),
                          sizes, edges)
        tape = []
        tracemalloc.start()
        try:
            out = spatial_forward(state, batch, tape)
            traces = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
            ).traces
        finally:
            tracemalloc.stop()
        held = {w: sum(t.size == rows * w * 4 for t in traces)
                for w in widths}
        assert held == {w: 1 for w in widths}
        grads = backward(tape, np.ones_like(out))
        assert sorted(grads) == sorted(state.params)

    def test_forward_without_a_tape_keeps_only_its_output(self):
        # prediction drops each layer's backward as the layer returns, so
        # once the forward is back numpy holds nothing of it but its
        # output, whose bytes are the training forward's
        for operator in ("gcn", "graphconv"):
            state = init_model_state(
                tiny_spec(operator=operator, pooling="sag_mean"), 3)
            rng = np.random.default_rng(2)
            for k, t in state.params.items():
                state.params[k] = rng.normal(size=t.shape)
            batch = tiny_batch(np.random.default_rng(4))
            batch = pack_rows(batch.features.astype(np.float32),
                              batch.sizes, local_edges(batch))
            tape = []
            recorded = spatial_forward(state, batch, tape)
            assert len(tape) == 6
            tracemalloc.start()
            try:
                out = spatial_forward(state, batch)
                traces = tracemalloc.take_snapshot().filter_traces(
                    [tracemalloc.DomainFilter(True,
                                              np.lib.tracemalloc_domain)]
                ).traces
            finally:
                tracemalloc.stop()
            assert [t.size for t in traces] == [out.nbytes]
            assert out.tobytes() == recorded.tobytes()

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
            state.params[k] = rng.normal(size=t.shape) * 0.5
        batch = tiny_batch(rng, n_graphs=2, nodes_per=4, width=3)
        target = rng.normal(size=(2, 2))
        fd_gradient_check(list(state.params.values()),
                          lambda: model_mse(state, batch, target))
