import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference
from helpers import (
    bfs_distances,
    dense,
    grid_spots,
    hex_spots,
    index_by_position,
    lattices_with_holes,
    local_edges,
    mse_grad,
    node_hops,
    pack_rows,
    packed_edges,
    propagation,
    random_adjacency,
    spot_table,
)
from sepal.core import (
    EmbeddingTable,
    ExpressionMatrix,
    ShapeMismatch,
    ValidationError,
    WidthNotDivisible,
    align_slide,
)
from sepal.graphs import (
    _offset_encodings,
    assemble_graph,
    build_spot_graphs,
    feature_width,
    khop_subgraph,
    positional_encoding,
    slide_subgraphs,
)
from sepal import nn
from sepal.nn import GraphBatch, ModelSpec, init_model_state, spatial_forward
from sepal.spatial import build_adjacency
from sepal.train import chunked


def make_slide(spots, d_emb=8, seed=0):
    rng = np.random.default_rng(seed)
    ids = spots.spot_ids
    expr = ExpressionMatrix(spots.slide_id, ("g0",), ids,
                            np.ones((len(ids), 1)), "log1p")
    emb = EmbeddingTable(spots.slide_id, ids,
                         rng.normal(size=(len(ids), d_emb)))
    return align_slide(spots, expr, emb)


class TestKhopSubgraph:
    def test_hex_one_hop_is_seven_nodes(self):
        spots = hex_spots(7, 7)
        adj = build_adjacency(spots, "hex_array")
        center = index_by_position(spots)[(3, 5)]
        sub = khop_subgraph(adj, center, 1, adj.neighbor_lists())
        assert len(sub.nodes) == 7
        assert sub.nodes[0] == center
        assert node_hops(adj, sub) == [0] + [1] * 6
        # the six ring neighbors touch each other: 6 spokes + 6 rim edges
        assert sub.edges.shape[0] == 12

    def test_hex_two_hops_is_nineteen_nodes(self):
        spots = hex_spots(9, 9)
        adj = build_adjacency(spots, "hex_array")
        sub = khop_subgraph(adj, index_by_position(spots)[(4, 8)], 2,
                            adj.neighbor_lists())
        assert len(sub.nodes) == 19
        assert node_hops(adj, sub).count(2) == 12

    def test_square_grid_one_hop_edges(self):
        adj = build_adjacency(grid_spots(3, 3), "square_grid")
        sub = khop_subgraph(adj, 4, 1, adj.neighbor_lists())
        assert list(sub.nodes) == [4, 1, 3, 5, 7]
        assert [tuple(e) for e in sub.edges] == [
            (0, 1), (0, 2), (0, 3), (0, 4)]

    def test_node_order_center_then_hops_ascending_by_index(self):
        adj = build_adjacency(grid_spots(3, 3), "square_grid")
        sub = khop_subgraph(adj, 8, 2, adj.neighbor_lists())
        assert list(sub.nodes) == [8, 5, 7, 2, 4, 6]
        assert node_hops(adj, sub) == [0, 1, 1, 2, 2, 2]

    def test_expansion_stops_at_component_boundary(self):
        from sepal.spatial import Adjacency
        adj = Adjacency("s", 4, np.array([[0, 1], [2, 3]]))
        sub = khop_subgraph(adj, 0, 5, adj.neighbor_lists())
        assert list(sub.nodes) == [0, 1]

    def test_center_out_of_range(self):
        adj = build_adjacency(grid_spots(2, 2), "square_grid")
        with pytest.raises(ValidationError):
            khop_subgraph(adj, 9, 1, adj.neighbor_lists())

    def test_zero_hops_rejected(self):
        adj = build_adjacency(grid_spots(2, 2), "square_grid")
        with pytest.raises(ValidationError):
            khop_subgraph(adj, 0, 0, adj.neighbor_lists())

    @given(st.integers(0, 10 ** 9), st.integers(1, 4))
    def test_node_set_matches_bfs_oracle(self, seed, hops):
        adj, rng = random_adjacency(seed, connected=False)
        center = int(rng.integers(0, adj.n_spots))
        sub = khop_subgraph(adj, center, hops, adj.neighbor_lists())
        dist = bfs_distances(adj.n_spots, adj.edges, center)
        want = {i for i, d in enumerate(dist) if 0 <= d <= hops}
        assert set(int(v) for v in sub.nodes) == want
        # hop by hop: a node never comes before one nearer the center
        hops_in_order = [dist[int(v)] for v in sub.nodes]
        assert hops_in_order == sorted(hops_in_order)

    @given(st.integers(0, 10 ** 9))
    def test_induced_edges_complete_and_local(self, seed):
        adj, rng = random_adjacency(seed)
        center = int(rng.integers(0, adj.n_spots))
        sub = khop_subgraph(adj, center, 2, adj.neighbor_lists())
        members = {int(g): k for k, g in enumerate(sub.nodes)}
        want = set()
        for i, j in adj.edges:
            if int(i) in members and int(j) in members:
                a, b = members[int(i)], members[int(j)]
                want.add((min(a, b), max(a, b)))
        assert {tuple(e) for e in sub.edges} == want


class TestPositionalEncoding:
    def test_width_eight_offset_col_one(self):
        got = positional_encoding(0, 1, 8)
        want = np.array([np.sin(1.0), np.cos(1.0),
                         np.sin(0.01), np.cos(0.01),
                         0.0, 1.0, 0.0, 1.0])
        np.testing.assert_array_equal(got, want)

    def test_width_eight_offset_row_one(self):
        got = positional_encoding(1, 0, 8)
        want = np.array([0.0, 1.0, 0.0, 1.0,
                         np.sin(1.0), np.cos(1.0),
                         np.sin(0.01), np.cos(0.01)])
        np.testing.assert_array_equal(got, want)

    def test_zero_offset_is_alternating_zero_one(self):
        got = positional_encoding(0, 0, 12)
        np.testing.assert_array_equal(got[0::2], np.zeros(6))
        np.testing.assert_array_equal(got[1::2], np.ones(6))

    def test_width_must_divide_by_four(self):
        for bad in (0, 2, 6, 10):
            with pytest.raises(WidthNotDivisible):
                positional_encoding(0, 0, bad)

    @given(st.integers(-40, 40), st.integers(-40, 40),
           st.sampled_from([4, 8, 16, 64]))
    def test_values_bounded_and_deterministic(self, dr, dc, d):
        a = positional_encoding(dr, dc, d)
        b = positional_encoding(dr, dc, d)
        np.testing.assert_array_equal(a, b)
        assert np.all(np.abs(a) <= 1.0)

    def test_distinct_offsets_distinct_codes(self):
        seen = {tuple(positional_encoding(r, c, 8))
                for r in range(-3, 4) for c in range(-3, 4)}
        assert len(seen) == 49


class TestAssembleGraph:
    def test_sum_aggregation_adds_encoding(self):
        spots = grid_spots(3, 3)
        slide = make_slide(spots, d_emb=8)
        adj = build_adjacency(spots, "square_grid")
        sub = khop_subgraph(adj, 4, 1, adj.neighbor_lists())
        g = assemble_graph(slide.spots, slide.embeddings, [sub], "sum")
        assert g.features.shape == (5, 8)
        # center node: zero offset encoding
        pe0 = positional_encoding(0, 0, 8)
        np.testing.assert_array_equal(
            g.features[0],
            (slide.embeddings.vectors[4] + pe0).astype(np.float32))
        # node 1 is global spot 1 = (r0, c1): offset (-1, 0) from center
        pe1 = positional_encoding(-1, 0, 8)
        np.testing.assert_array_equal(
            g.features[1],
            (slide.embeddings.vectors[1] + pe1).astype(np.float32))

    def test_concat_aggregation_doubles_width(self):
        spots = grid_spots(3, 3)
        slide = make_slide(spots, d_emb=8)
        adj = build_adjacency(spots, "square_grid")
        sub = khop_subgraph(adj, 4, 1, adj.neighbor_lists())
        g = assemble_graph(slide.spots, slide.embeddings, [sub], "concat")
        assert g.features.shape == (5, 16)
        np.testing.assert_array_equal(
            g.features[2, :8], slide.embeddings.vectors[3].astype(np.float32))
        np.testing.assert_array_equal(
            g.features[2, 8:],
            positional_encoding(1 - 1, 0 - 1, 8).astype(np.float32))

    def test_sum_needs_width_divisible_by_four(self):
        spots = grid_spots(2, 2)
        slide = make_slide(spots, d_emb=6)
        adj = build_adjacency(spots, "square_grid")
        sub = khop_subgraph(adj, 0, 1, adj.neighbor_lists())
        with pytest.raises(WidthNotDivisible):
            assemble_graph(slide.spots, slide.embeddings, [sub], "sum")

    def test_unknown_aggregation(self):
        spots = grid_spots(2, 2)
        slide = make_slide(spots)
        adj = build_adjacency(spots, "square_grid")
        sub = khop_subgraph(adj, 0, 1, adj.neighbor_lists())
        with pytest.raises(ValidationError):
            assemble_graph(slide.spots, slide.embeddings, [sub], "mean")

    @pytest.mark.parametrize("aggregation", ["sum", "concat"])
    def test_assembly_gathers_no_features(self, aggregation):
        # the batch holds rows into the embeddings and the offset table:
        # assembling it never holds as much as the float32 feature matrix
        d_emb = 32
        spots = hex_spots(16, 16)
        slide = make_slide(spots, d_emb=d_emb)
        subgraphs = slide_subgraphs(build_adjacency(spots, "hex_array"), 3)
        tracemalloc.start()
        try:
            batch = assemble_graph(slide.spots, slide.embeddings, subgraphs,
                                   aggregation)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert batch.table.embeddings is slide.embeddings.vectors
        assert peak < batch.n_nodes * d_emb * 4

    def test_slide_batch_holds_indices_not_features(self):
        # one 64x64 hex slide at hops 3 with concat at d_emb 768, a ViT-B
        # patch embedding's width: a [n_nodes, 1536] float32 feature
        # matrix would take about 890 MB, while the batch holds under
        # 30 MB beyond the embeddings it shares with the slide, and takes
        # no more while it is assembled
        spots = hex_spots(64, 64)
        slide = make_slide(spots, d_emb=768)
        subgraphs = slide_subgraphs(build_adjacency(spots, "hex_array"), 3)
        tracemalloc.start()
        try:
            batch = assemble_graph(slide.spots, slide.embeddings, subgraphs,
                                   "concat")
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert batch.n_nodes * batch.width * 4 > 850e6
        assert batch.table.embeddings is slide.embeddings.vectors
        assert held < 30e6 and peak < 30e6


class TestBuildSpotGraphs:
    def test_one_graph_per_spot_in_order(self):
        spots = grid_spots(3, 3)
        slide = make_slide(spots)
        adj = build_adjacency(spots, "square_grid")
        graphs = build_spot_graphs(slide, adj, 1, "sum")
        assert graphs.n_graphs == 9
        # graph g's first row is its center: spot g at offset (0, 0)
        centers = np.cumsum(graphs.sizes) - graphs.sizes
        np.testing.assert_array_equal(
            graphs.features[centers],
            (slide.embeddings.vectors
             + positional_encoding(0, 0, 8)).astype(np.float32))
        assert graphs.sizes[4] == 5

    def test_adjacency_size_guard(self):
        spots = grid_spots(3, 3)
        slide = make_slide(spots)
        adj = build_adjacency(grid_spots(2, 2), "square_grid")
        with pytest.raises(ShapeMismatch):
            build_spot_graphs(slide, adj, 1, "sum")


    def test_feature_width_follows_aggregation(self):
        assert feature_width(8, "sum") == 8
        assert feature_width(8, "concat") == 16
        with pytest.raises(WidthNotDivisible):
            feature_width(6, "concat")
        with pytest.raises(ValidationError):
            feature_width(8, "mean")


def scattered_spots(rng, n):
    """n spots at distinct random array positions, listed in canonical
    order, so node i of an n-node adjacency is spot i of the slide."""
    cells = rng.choice(12 * 12, size=n, replace=False)
    return spot_table([(f"p{i:02d}", 0.0, 0.0, int(c) // 12 - 6,
                        int(c) % 12 - 6)
                       for i, c in enumerate(sorted(cells))], "rnd")


def assert_same_batch(got, want):
    for field, read in (("features", lambda b: b.features),
                        ("edges", packed_edges),
                        ("sizes", lambda b: b.sizes)):
        a, b = read(got), read(want)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), field
        assert a.tobytes() == b.tobytes(), field


def with_dtype(batch, dtype):
    return pack_rows(batch.features.astype(dtype), batch.sizes,
                     local_edges(batch))


def assert_same_subgraphs(adj, hops):
    for sub in slide_subgraphs(adj, hops):
        want = reference.khop_subgraph(adj, int(sub.nodes[0]), hops)
        for field in ("nodes", "edges"):
            assert getattr(sub, field).tobytes() == \
                getattr(want, field).tobytes(), field


def random_case(seed, hops, aggregation, d_emb=8):
    """A slide on a random adjacency, its packed graphs and the reference
    per-graph list."""
    adj, rng = random_adjacency(seed, connected=False)
    slide = make_slide(scattered_spots(rng, adj.n_spots), d_emb, seed)
    return (adj, rng, build_spot_graphs(slide, adj, hops, aggregation),
            reference.spot_graphs(slide, adj, hops, aggregation))


def lattice_slide(geometry, rows, cols):
    spots = (hex_spots(rows, cols) if geometry == "hex_array"
             else grid_spots(rows, cols))
    slide = make_slide(spots, 8, rows * cols)
    return slide, build_adjacency(slide.spots, geometry)


def subsets(rng, n):
    """Random index lists into n graphs: subsets, permutations, repeats."""
    return [rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False),
            rng.permutation(n),
            rng.integers(0, n, size=int(rng.integers(1, 2 * n + 1)))]


class TestAgainstReference:
    """The packed batch holds the same bytes as the per-graph assembly and
    per-graph union it replaced."""

    @given(st.integers(0, 10 ** 9), st.integers(1, 4),
           st.sampled_from(["sum", "concat"]), st.sampled_from([4, 8, 12]))
    def test_random_adjacency(self, seed, hops, aggregation, d_emb):
        adj, _, got, want = random_case(seed, hops, aggregation, d_emb)
        assert_same_batch(got, reference.from_graphs(want))
        assert_same_subgraphs(adj, hops)

    @given(st.sampled_from(["hex_array", "square_grid"]),
           st.integers(2, 7), st.integers(2, 7), st.integers(1, 4),
           st.sampled_from(["sum", "concat"]))
    def test_lattices(self, geometry, rows, cols, hops, aggregation):
        slide, adj = lattice_slide(geometry, rows, cols)
        assert_same_batch(build_spot_graphs(slide, adj, hops, aggregation),
                          reference.from_graphs(reference.spot_graphs(
                              slide, adj, hops, aggregation)))
        assert_same_subgraphs(adj, hops)

    @given(st.integers(0, 10 ** 9), st.integers(1, 4),
           st.sampled_from(["sum", "concat"]))
    def test_assemble_any_subgraphs(self, seed, hops, aggregation):
        adj, rng = random_adjacency(seed)
        slide = make_slide(scattered_spots(rng, adj.n_spots), 8, seed)
        lists = adj.neighbor_lists()
        subs = [khop_subgraph(adj, int(c), hops, lists)
                for c in rng.integers(0, adj.n_spots, size=5)]
        got = assemble_graph(slide.spots, slide.embeddings, subs, aggregation)
        want = [reference.assemble_graph(slide.spots, slide.embeddings, sub,
                                         aggregation) for sub in subs]
        assert_same_batch(got, reference.from_graphs(want))


class TestTake:
    """Batches taken by index hold the same bytes as the reference union
    of the same graphs."""

    @given(st.integers(0, 10 ** 9), st.integers(1, 4),
           st.sampled_from(["sum", "concat"]))
    def test_random_adjacency(self, seed, hops, aggregation):
        _, rng, packed, graphs = random_case(seed, hops, aggregation)
        for idx in subsets(rng, len(graphs)):
            assert_same_batch(packed.take(idx), reference.from_graphs(
                [graphs[i] for i in idx]))

    @given(st.sampled_from(["hex_array", "square_grid"]),
           st.integers(2, 6), st.integers(2, 6), st.integers(1, 4),
           st.sampled_from(["sum", "concat"]), st.integers(0, 10 ** 9))
    def test_lattices(self, geometry, rows, cols, hops, aggregation, seed):
        slide, adj = lattice_slide(geometry, rows, cols)
        packed = build_spot_graphs(slide, adj, hops, aggregation)
        graphs = reference.spot_graphs(slide, adj, hops, aggregation)
        for idx in subsets(np.random.default_rng(seed), len(graphs)):
            assert_same_batch(packed.take(idx), reference.from_graphs(
                [graphs[i] for i in idx]))

    @given(st.lists(st.integers(0, 10 ** 9), min_size=1, max_size=3),
           st.integers(1, 3), st.sampled_from(["sum", "concat"]))
    def test_union_then_take(self, seeds, hops, aggregation):
        parts = [random_case(seed, hops, aggregation)[2] for seed in seeds]
        union = GraphBatch.from_graphs(parts)
        counts = np.array([p.n_graphs for p in parts])
        firsts = np.cumsum(counts) - counts
        rng = np.random.default_rng(seeds[0])
        for idx in subsets(rng, union.n_graphs):
            part = np.searchsorted(firsts, idx, side="right") - 1
            singles = [parts[p].take([i - firsts[p]])
                       for p, i in zip(part, idx)]
            want = reference.from_graphs([
                SimpleNamespace(features=g.features, edges=packed_edges(g))
                for g in singles])
            assert_same_batch(union.take(idx), want)

    def test_take_nothing_and_empty_union(self):
        slide, adj = lattice_slide("square_grid", 2, 2)
        packed = build_spot_graphs(slide, adj, 1, "sum")
        empty = packed.take([])
        assert (empty.n_graphs, empty.n_nodes) == (0, 0)
        assert packed_edges(empty).shape == (0, 2)
        with pytest.raises(ValidationError):
            GraphBatch.from_graphs([])


def indexed_and_packed(spots, geometry, hops, aggregation, dtype, seed):
    """A slide's graphs as assemble_graph indexes them, gathering into
    dtype, and as the reference packs them into one feature matrix."""
    slide = make_slide(spots, 8, seed)
    subs = slide_subgraphs(build_adjacency(slide.spots, geometry), hops)
    got = assemble_graph(slide.spots, slide.embeddings, subs, aggregation)
    got = replace(got, table=replace(got.table, dtype=np.dtype(dtype)))
    return got, reference.packed_assemble_graph(
        slide.spots, slide.embeddings, subs, aggregation, dtype)


@pytest.mark.deep
class TestIndexedFeatures:
    """A batch of rows into its slide's embedding and offset tables
    gathers the bytes of the packed feature matrix it replaced, and take,
    chunked and from_graphs over it give the bytes of the same calls on
    the packed batch."""

    @given(lattices_with_holes(), st.integers(1, 3),
           st.sampled_from(["sum", "concat"]),
           st.sampled_from([np.float32, np.float64]), st.integers(0, 99))
    def test_gather_matches_packed(self, lattice, hops, aggregation, dtype,
                                   seed):
        spots, geometry = lattice
        got, want = indexed_and_packed(spots, geometry, hops, aggregation,
                                       dtype, seed)
        assert_same_batch(got, want)
        assert got.nodes.shape == got.offsets.shape == (want.n_nodes,)

    @given(lattices_with_holes(), st.integers(1, 3),
           st.sampled_from(["sum", "concat"]),
           st.sampled_from([np.float32, np.float64]), st.integers(0, 99),
           st.integers(1, 60))
    def test_take_and_chunked_match_packed(self, lattice, hops, aggregation,
                                           dtype, seed, rows):
        spots, geometry = lattice
        got, want = indexed_and_packed(spots, geometry, hops, aggregation,
                                       dtype, seed)
        for idx in subsets(np.random.default_rng(seed), got.n_graphs):
            assert_same_batch(got.take(idx), want.take(idx))
        for a, b in zip(chunked(got, rows), chunked(want, rows),
                        strict=True):
            assert_same_batch(a, b)

    @given(st.lists(lattices_with_holes(max_side=5), min_size=2,
                    max_size=3),
           st.integers(1, 3), st.sampled_from(["sum", "concat"]),
           st.sampled_from([np.float32, np.float64]), st.integers(0, 99))
    def test_union_of_slides_matches_packed(self, lattices, hops,
                                            aggregation, dtype, seed):
        parts = [indexed_and_packed(spots, geometry, hops, aggregation,
                                    dtype, seed + k)
                 for k, (spots, geometry) in enumerate(lattices)]
        got = GraphBatch.from_graphs([g for g, _ in parts])
        want = GraphBatch.from_graphs([w for _, w in parts])
        assert_same_batch(got, want)
        for idx in subsets(np.random.default_rng(seed), got.n_graphs):
            assert_same_batch(got.take(idx), want.take(idx))


class TestBatchedForward:
    @given(st.sampled_from(["hex_array", "square_grid"]),
           st.integers(2, 5), st.integers(2, 5), st.integers(1, 3),
           st.sampled_from(["sum", "concat"]),
           st.sampled_from(["gcn", "graphconv"]),
           st.sampled_from(["sag_mean", "global_mean"]))
    def test_equals_per_graph_forwards(self, geometry, rows, cols, hops,
                                       aggregation, operator, pooling):
        slide, adj = lattice_slide(geometry, rows, cols)
        # an exact comparison: the engine computes in float64 on float64
        packed = with_dtype(build_spot_graphs(slide, adj, hops, aggregation),
                            np.float64)
        spec = ModelSpec(in_width=packed.features.shape[1], n_genes=3,
                         pre_widths=(5,), operator=operator,
                         gnn_widths=(4,), pooling=pooling, sag_ratio=0.5,
                         post_widths=(3,))
        state = init_model_state(spec, rows * cols)
        rng = np.random.default_rng(hops)
        for k, t in state.params.items():
            state.params[k] = rng.normal(size=t.shape)
        batched = spatial_forward(state, packed)
        for g in range(packed.n_graphs):
            single = spatial_forward(state, packed.take([g]))
            np.testing.assert_allclose(batched[g], single[0], rtol=0,
                                       atol=1e-12)


class _Unscannable:
    def __iter__(self):
        raise AssertionError("the slide's edge list was scanned")


class _CountingLists:
    """Neighbor lists that record which nodes' lists were read."""

    def __init__(self, lists):
        self.lists = lists
        self.read = set()

    def __getitem__(self, node):
        self.read.add(int(node))
        return self.lists[node]

    def __len__(self):
        return len(self.lists)


class TestLocalWork:
    @pytest.mark.parametrize("hops", [1, 2, 3])
    def test_khop_reads_only_the_lists_it_visits(self, hops):
        spots = hex_spots(9, 9)
        adj = build_adjacency(spots, "hex_array")
        lists = _CountingLists(adj.neighbor_lists())
        center = index_by_position(spots)[(4, 8)]
        blind = type("Blind", (), {"n_spots": adj.n_spots,
                                   "edges": _Unscannable()})()
        sub = khop_subgraph(blind, center, hops, lists)
        assert lists.read == {int(v) for v in sub.nodes}
        want = reference.khop_subgraph(adj, center, hops)
        for field in ("nodes", "edges"):
            assert getattr(sub, field).tobytes() == \
                getattr(want, field).tobytes()


def random_state(spec, seed):
    """Every parameter drawn at random at the glorot scale of the
    initializer, so no layer is zero and activations stay O(1)."""
    state = init_model_state(spec, seed)
    rng = np.random.default_rng(seed)
    for k, t in state.params.items():
        lim = np.sqrt(6.0 / sum(t.shape)) if t.ndim == 2 else 0.1
        state.params[k] = rng.uniform(-lim, lim, size=t.shape)
    return state


def forward_and_grads(state, batch, target):
    tape = []
    out = spatial_forward(state, batch, tape)
    return out, nn.backward(tape, mse_grad(out, target)[1])


def assert_close_at_float32(got, want):
    """Agreement to about a thousand float32 rounding steps of the
    largest magnitude."""
    scale = max(1.0, float(np.abs(want).max()))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-4 * scale)


class TestFloat32Engine:
    """Graphs hold float32 features and the network computes in their
    dtype: float32 forwards and gradients agree with float64 ones run on
    the same values, and nothing on the float32 path is widened."""

    @given(st.integers(0, 10 ** 9), st.booleans(), st.integers(1, 3),
           st.sampled_from(["sum", "concat"]),
           st.sampled_from(["gcn", "graphconv"]),
           st.sampled_from(["sag_mean", "global_mean"]))
    def test_float32_agrees_with_float64(self, seed, lattice, hops,
                                         aggregation, operator, pooling):
        rng = np.random.default_rng(seed)
        if lattice:
            slide, adj = lattice_slide(
                ("hex_array", "square_grid")[seed % 2],
                int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            stored = build_spot_graphs(slide, adj, hops, aggregation)
        else:
            stored = random_case(seed, hops, aggregation)[2]
        spec = ModelSpec(in_width=stored.features.shape[1], n_genes=3,
                         pre_widths=(6,), operator=operator,
                         gnn_widths=(5, 4), pooling=pooling,
                         sag_ratio=0.5, post_widths=(3,))
        state = random_state(spec, seed)
        target = rng.normal(size=(stored.n_graphs, 3))
        out32, grads32 = forward_and_grads(state, stored, target)
        out64, grads64 = forward_and_grads(
            state, with_dtype(stored, np.float64), target)
        assert out32.dtype == np.float32 and out64.dtype == np.float64
        assert_close_at_float32(out32, out64)
        for k, g in grads64.items():
            assert grads32[k].dtype == np.float64, k
            assert_close_at_float32(grads32[k], g)

    @pytest.mark.parametrize("operator", ["gcn", "graphconv"])
    @pytest.mark.parametrize("pooling", ["sag_mean", "global_mean"])
    def test_forward_stays_float32(self, operator, pooling):
        slide, adj = lattice_slide("hex_array", 4, 4)
        batch = build_spot_graphs(slide, adj, 2, "concat")
        assert batch.features.dtype == np.float32
        spec = ModelSpec(in_width=batch.features.shape[1], n_genes=3,
                         pre_widths=(6,), operator=operator,
                         gnn_widths=(5, 4), pooling=pooling,
                         post_widths=(3,))
        state = random_state(spec, 1)
        tape = []
        out = spatial_forward(state, batch, tape)
        assert out.dtype == np.float32
        assert {block.dtype for s in batch.shapes
                for block in (s.adj, s.gcn)} == {np.dtype(np.float32)}

        # every float array a layer keeps for its backward is float32,
        # the parameters' casts included, and so is every gradient one
        # layer hands the one before; only the parameters' gradients
        # come back float64
        def kept(fn):
            for cell in fn.__closure__ or ():
                value = cell.cell_contents
                if callable(value):
                    yield from kept(value)
                elif isinstance(value, np.ndarray):
                    yield value

        floats = {a.dtype for _, fn in tape for a in kept(fn)
                  if a.dtype.kind == "f"}
        assert floats == {np.dtype(np.float32)}
        handed = []

        def handing(fn):
            def layer_backward(g, need_input):
                g_in, grads = fn(g, need_input)
                handed.append(g_in)
                return g_in, grads
            return layer_backward

        tape[:] = [(keys, handing(fn)) for keys, fn in tape]
        grads = nn.backward(tape, np.zeros_like(out))
        assert handed[-1] is None
        assert {g.dtype for g in handed[:-1]} == {np.dtype(np.float32)}
        assert sorted(grads) == sorted(state.params)
        assert {g.dtype for g in grads.values()} == {np.dtype(np.float64)}
        assert spatial_forward(state, batch).dtype == np.float32

    def test_saturated_sag_scores_keep_their_gradient(self):
        # scores of 9 to 17 round a float32 tanh to 1; the gate's slope,
        # and with it the score weight's gradient, must not round to 0
        rng = np.random.default_rng(0)
        h = rng.normal(size=(12, 3))
        h[:, 0] = np.linspace(9.0, 17.0, 12)
        target = rng.normal(size=(2, 3))
        grads = {}
        for dtype in (np.float32, np.float64):
            # no edges: the score gcn is the identity, so score = h[:, 0]
            prop = propagation("gcn", np.zeros((0, 2), np.int64), [5, 7],
                               dtype)
            w = np.array([[1.0, 0.0, 0.0]], dtype)
            out, layer_backward = nn.sag_mean_readout(h.astype(dtype), prop,
                                                      w, 1.0, [5, 7])
            _, (g_w,) = layer_backward(
                mse_grad(out, target.astype(dtype))[1], True)
            grads[dtype] = g_w.astype(np.float64)
        scale = float(np.abs(grads[np.float64]).max())
        assert scale > 0.0
        np.testing.assert_allclose(grads[np.float32], grads[np.float64],
                                   rtol=0, atol=1e-4 * scale)


def assert_same_operator(n, edges, sizes, rng):
    """A packed batch's adj and gcn blocks hold the bits of the scipy CSR
    matrices, and propagating by them, forward and backward, differs from
    the CSR product by at most two sums' rounding: each of at most m terms
    per row is off by m * eps / 2 of its size at worst."""
    sizes = [n] if sizes is None else sizes
    m = max(sizes)
    for dtype in (np.float32, np.float64):
        for kind in ("adj", "gcn"):
            name = f"{kind}_matrix"
            got = propagation(kind, edges, sizes, dtype)
            want = getattr(reference, name)(n, edges, dtype)
            assert {block.dtype for block, _ in got} == {want.dtype} \
                == {np.dtype(dtype)}
            assert dense(got).tobytes() == want.toarray().tobytes(), name
            x = rng.normal(size=(n, 3)).astype(dtype)
            c = rng.normal(size=(n, 3)).astype(dtype)
            # the gradient that mul hands to propagate
            g = np.full_like(c, 1.0 / c.size) * c
            runs = [(nn.propagate(got, x), nn.propagate(got, g, True))]
            h = reference.Tensor(x.copy())
            out = reference.propagate(want, h)
            reference.backward(reference.mean_all(
                reference.mul(out, reference.constant(c))))
            runs.append((out.data, h.grad))
            for run in runs:
                assert run[0].dtype == run[1].dtype == dtype
            a = np.abs(dense(got).astype(np.float64))
            sums = (a @ np.abs(x), a.T @ np.abs(c / c.size))
            for mine, theirs, size in zip(*runs, sums):
                gap = np.abs(mine.astype(np.float64) - theirs)
                assert (gap <= m * np.finfo(dtype).eps * size).all(), name


class TestOperatorAgainstReference:
    """The block-diagonal propagation matrices against the scipy CSR
    matrices they replaced."""

    @given(st.lists(st.integers(1, 12), min_size=1, max_size=8),
           st.integers(0, 10 ** 9), st.booleans())
    def test_random_adjacency(self, sizes, seed, whole):
        # random pairs inside each graph: duplicates, self loops and
        # isolated nodes all occur; whole=True omits sizes, one graph
        rng = np.random.default_rng(seed)
        n = sum(sizes)
        if whole:
            sizes = None
        firsts = np.cumsum(sizes or [n]) - (sizes or [n])
        edges = np.concatenate([
            rng.integers(0, k, size=(int(rng.integers(0, 3 * k)), 2)) + f
            for f, k in zip(firsts, sizes or [n])])
        assert_same_operator(n, rng.permutation(edges), sizes, rng)

    @given(st.sampled_from(["hex_array", "square_grid"]),
           st.integers(2, 7), st.integers(2, 7), st.integers(1, 3))
    def test_lattices(self, geometry, rows, cols, hops):
        # up to 49 graphs: products run over more than one group
        slide, adj = lattice_slide(geometry, rows, cols)
        batch = build_spot_graphs(slide, adj, hops, "sum")
        assert_same_operator(batch.n_nodes, packed_edges(batch),
                             [int(k) for k in batch.sizes],
                             np.random.default_rng(rows * cols + hops))

    def test_edges_stay_inside_their_graph(self):
        # pack takes one list of local edges per graph; an endpoint must
        # name a node of its own graph
        features = np.zeros((4, 1))
        inside = np.array([[0, 1]])
        with pytest.raises(ShapeMismatch, match="1 edge lists for 2"):
            pack_rows(features, [2, 2], [inside])
        with pytest.raises(ShapeMismatch, match="3 edge lists for 2"):
            pack_rows(features, [2, 2], [inside] * 3)
        for bad in ([[-1, 1]], [[0, 2]], [[2, 3]]):
            with pytest.raises(ValidationError, match="outside 2 nodes"):
                pack_rows(features, [2, 2], [inside, np.array(bad)])
        with pytest.raises(ValidationError, match="outside"):
            nn.gcn_matrix(4, np.array([[0, 4]]))

    def test_pack_refuses_a_bare_feature_matrix(self):
        # a batch's rows come from a NodeTable, through nodes and offsets
        # that pack requires; pack_rows wraps a matrix in a table
        features, edges = np.zeros((4, 1)), [np.array([[0, 1]])] * 2
        with pytest.raises(TypeError, match="nodes.*offsets"):
            GraphBatch.pack(features, [2, 2], edges)
        assert pack_rows(features, [2, 2], edges).n_graphs == 2


def masked_lattice_graphs(geometry, rows, cols, hops, seed):
    """Every spot's graph on a lattice under a random tissue mask, so the
    graphs at the mask's edges take shapes of their own."""
    rng = np.random.default_rng(seed)
    spots = (hex_spots(rows, cols) if geometry == "hex_array"
             else grid_spots(rows, cols))
    keep = rng.random(len(spots)) < rng.uniform(0.4, 1.0)
    keep[rng.integers(len(spots))] = True
    slide = make_slide(spots.subset(
        [s for s, k in zip(spots.spot_ids, keep) if k]), 4, seed)
    return build_spot_graphs(slide, build_adjacency(slide.spots, geometry),
                             hops, "sum")


def assert_matches_padded(batch, rng, widths):
    """propagate over the batch's shapes, forward and transposed, against
    the padded BlockDiagonal product of tests/reference.py.

    The rows of graphs as large as the batch's largest graph, m, went
    through the same per-graph matmul there, so they keep their bits.
    Every other graph was padded with zero rows to m, and a sum over
    another length may round differently (a width-1 product is a
    matrix-vector product whose blocking follows the length): those rows
    agree to m * eps of |S| |x| per entry, the rounding of two sums."""
    m = int(batch.sizes.max())
    full = np.repeat(batch.sizes == m, batch.sizes)
    for dtype in (np.float32, np.float64):
        packed = with_dtype(batch, dtype)
        edges = packed_edges(packed)
        for kind, width in ((k, w) for k in ("adj", "gcn") for w in widths):
            prop = packed.propagation(kind)
            oracle = getattr(reference, f"block_{kind}_matrix")(
                packed.n_nodes, edges, dtype, packed.sizes)
            x = rng.normal(size=(packed.n_nodes, width)).astype(dtype)
            c = rng.normal(size=x.shape).astype(dtype)
            # the gradient that mul hands to propagate
            g = np.full_like(c, 1.0 / c.size) * c
            out, g_x = nn.propagate(prop, x), nn.propagate(prop, g, True)
            magnitude = [(np.abs(block).astype(np.float64), rows)
                         for block, rows in prop]
            bounds = (nn.propagate(magnitude, np.abs(x)),
                      nn.propagate([(b.T, r) for b, r in magnitude],
                                   np.abs(g)))
            for got, want, bound in zip((out, g_x),
                                        (oracle @ x, oracle.T @ g), bounds):
                assert got.dtype == want.dtype == dtype
                assert got[full].tobytes() == want[full].tobytes(), kind
                gap = np.abs(got.astype(np.float64) - want)
                assert (gap <= m * np.finfo(dtype).eps * bound).all(), kind


class TestGroupedProductAgainstPadded:
    """One broadcast matmul per shape against the padded product it
    replaced, on whole slides, on batches cut by take and on unions."""

    @given(st.sampled_from(["hex_array", "square_grid"]),
           st.integers(2, 6), st.integers(2, 6), st.integers(1, 3),
           st.integers(0, 10 ** 9), st.integers(2, 64))
    def test_masked_lattices(self, geometry, rows, cols, hops, seed, width):
        # two tissue masks on one lattice: their shape tables share the
        # interior shapes and differ at the edges
        parts = [masked_lattice_graphs(geometry, rows, cols, hops, seed + i)
                 for i in range(2)]
        union = GraphBatch.from_graphs(parts)
        assert len(union.shapes) <= sum(len(p.shapes) for p in parts)
        assert len({s.key for s in union.shapes}) == len(union.shapes)
        rng = np.random.default_rng(seed)
        for batch in (parts[0], union, *(union.take(idx) for idx in
                                         subsets(rng, union.n_graphs))):
            assert_matches_padded(batch, rng, (1, width))

    @given(st.integers(0, 10 ** 9), st.integers(1, 3), st.integers(2, 64))
    def test_random_adjacency(self, seed, hops, width):
        # most shapes hold a single graph
        _, rng, packed, _ = random_case(seed, hops, "sum")
        for batch in (packed, *(packed.take(idx)
                                for idx in subsets(rng, packed.n_graphs))):
            assert_matches_padded(batch, rng, (1, width))


class TestUniqueForms:
    """The sort and the count that find distinct offsets and shapes,
    against the np.unique calls they replaced."""

    @given(hnp.arrays(np.int64, st.tuples(st.integers(0, 60), st.just(2)),
                      elements=st.one_of(st.integers(-4, 4),
                                         st.integers(-2 ** 62, 2 ** 62))),
           st.sampled_from((4, 12)))
    def test_offset_encodings(self, offsets, d):
        table, index = _offset_encodings(offsets, d)
        want_table, want_index = reference.offset_encodings(offsets, d)
        assert table.shape == want_table.shape
        assert table.tobytes() == want_table.tobytes()
        assert index.dtype == want_index.dtype
        assert index.tolist() == want_index.tolist()

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=12), st.data())
    def test_groups(self, sizes, data):
        # edges drawn from one fixed table per size, so graphs share shapes
        # and a taken batch leaves some of its table's shapes unused
        rng = np.random.default_rng(len(sizes))
        edges = [rng.integers(0, k, size=(k % 3, 2)) for k in sizes]
        batch = pack_rows(np.zeros((sum(sizes), 1)), sizes, edges)
        idx = data.draw(st.lists(st.integers(0, len(sizes) - 1),
                                 max_size=20))
        for b in (batch, batch.take(idx)):
            got, want = b._groups, reference.shape_groups(b)
            assert len(got) == len(want)
            for (shape, rows), (want_shape, want_rows) in zip(got, want):
                assert shape is want_shape
                assert rows.tobytes() == want_rows.tobytes()
