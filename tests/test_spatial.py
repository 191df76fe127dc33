import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from helpers import (
    grid_spots,
    hex_spots,
    index_by_position,
    lattices_with_holes,
    random_adjacency,
    spot_table,
)
from sepal.core import (
    DegenerateCoordinates,
    DuplicateSpot,
    EmptyAdjacency,
    ExpressionMatrix,
    ShapeMismatch,
    TooFewGenes,
    ValidationError,
)
from sepal import spatial
from sepal.graphs import khop_subgraph
from sepal.spatial import (
    Adjacency,
    build_adjacency,
    morans_i,
    morans_i_many,
    select_genes,
)


def dense_morans_oracle(values, weight):
    """Direct double-sum evaluation over a dense weight matrix."""
    n = len(values)
    z = values - values.mean()
    ss = float((z * z).sum())
    if ss == 0.0:
        return None
    num = 0.0
    for i in range(n):
        for j in range(n):
            num += weight[i, j] * z[i] * z[j]
    return n / weight.sum() * num / ss


def dense_weights(adj):
    w = np.zeros((adj.n_spots, adj.n_spots))
    for i, j in adj.edges:
        w[i, j] = w[j, i] = 1.0
    return w


class TestBuildAdjacency:
    def test_square_grid_interior_degree_four(self):
        adj = build_adjacency(grid_spots(3, 3), "square_grid")
        deg = np.bincount(adj.edges.ravel(), minlength=adj.n_spots)
        assert deg[4] == 4          # center
        assert deg[0] == 2          # corner
        assert adj.n_edges == 12    # 2 * 3 * 2 rows of edges

    def test_hex_interior_degree_six(self):
        spots = hex_spots(5, 5)
        adj = build_adjacency(spots, "hex_array")
        by_pos = index_by_position(spots)
        center = by_pos[(2, 4)]
        deg = np.bincount(adj.edges.ravel(), minlength=adj.n_spots)
        assert deg[center] == 6
        neigh = set(adj.neighbor_lists()[center])
        want = {by_pos[p] for p in
                [(2, 2), (2, 6), (1, 3), (1, 5), (3, 3), (3, 5)]}
        assert neigh == want

    def test_hex_ignores_offset_one_column(self):
        # spots one column apart in the same row are not neighbors
        spots = spot_table([("a", 0.0, 0.0, 0, 0), ("b", 1.0, 0.0, 0, 1)])
        adj = build_adjacency(spots, "hex_array")
        assert adj.n_edges == 0

    @given(lattices_with_holes())
    def test_edges_match_per_spot_lookup(self, lattice):
        spots, geometry = lattice
        want = reference.lattice_edges(spots, geometry)
        assert build_adjacency(spots, geometry).edges.tobytes() == \
            want.tobytes()

    def test_sparse_array_positions_rejected(self):
        # two spots ten million rows apart: no grid index for that window
        spots = spot_table([("a", 0.0, 0.0, 0, 0),
                            ("b", 1.0, 0.0, 10_000_000, 0)])
        with pytest.raises(DegenerateCoordinates, match="too sparse"):
            build_adjacency(spots, "square_grid")

    def test_single_spot_rejected(self):
        with pytest.raises(DegenerateCoordinates):
            build_adjacency(grid_spots(1, 1), "square_grid")

    def test_duplicate_array_position_rejected(self):
        # build_adjacency takes a SpotTable, which cannot hold two spots
        # at one array position
        with pytest.raises(DuplicateSpot):
            build_adjacency(spot_table([("a", 0.0, 0.0, 0, 0),
                                        ("b", 1.0, 0.0, 0, 0)]), "hex_array")

    def test_unknown_geometry(self):
        with pytest.raises(ValidationError):
            build_adjacency(grid_spots(2, 2), "voronoi")

    def test_edges_sorted_and_unique(self):
        adj = build_adjacency(grid_spots(4, 4), "square_grid")
        e = [tuple(x) for x in adj.edges]
        assert e == sorted(set(e))
        assert all(i < j for i, j in e)


class TestAdjacency:
    def test_duplicate_edges_are_merged(self):
        adj = Adjacency("s", 3, [[0, 1], [0, 1], [1, 2]])
        assert adj.edges.tolist() == [[0, 1], [1, 2]]
        sub = khop_subgraph(adj, 0, 2, adj.neighbor_lists())
        assert sub.edges.tolist() == [[0, 1], [1, 2]]

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(1, 7)),
                    max_size=30))
    def test_dedupe_matches_np_unique(self, pairs):
        e = np.array([(i, j) for i, j in pairs if i < j],
                     dtype=np.int64).reshape(-1, 2)
        adj = Adjacency("s", 8, e)
        want = np.unique(e, axis=0)
        assert adj.edges.dtype == want.dtype
        assert adj.edges.tobytes() == want.tobytes()

    def test_unsorted_edges_are_sorted(self):
        adj = Adjacency("s", 4, [[2, 3], [0, 2], [1, 3], [0, 1]])
        assert adj.edges.tolist() == [[0, 1], [0, 2], [1, 3], [2, 3]]
        assert adj.edges.dtype == np.int64
        assert not adj.edges.flags.writeable


class TestMoransI:
    def test_two_node_antisymmetric_is_minus_one_exactly(self):
        adj = Adjacency("s", 2, np.array([[0, 1]]))
        for a in (1.0, 0.3, 7.5e-3, 1e8):
            assert morans_i(np.array([a, -a]), adj) == -1.0

    def test_constant_map_is_undefined(self):
        adj = Adjacency("s", 3, np.array([[0, 1], [1, 2]]))
        assert morans_i(np.full(3, 2.5), adj) is None

    def test_checkerboard_is_minus_one(self):
        adj = build_adjacency(grid_spots(2, 2), "square_grid")
        assert morans_i(np.array([0.0, 1.0, 1.0, 0.0]), adj) == -1.0

    def test_no_edges_raises(self):
        adj = Adjacency("s", 3, np.zeros((0, 2)))
        with pytest.raises(EmptyAdjacency):
            morans_i(np.array([1.0, 2.0, 3.0]), adj)

    @given(st.integers(0, 10 ** 9))
    def test_matches_dense_oracle(self, seed):
        adj, rng = random_adjacency(seed)
        values = rng.normal(size=adj.n_spots)
        got = morans_i(values, adj)
        want = dense_morans_oracle(values, dense_weights(adj))
        assert got is not None and want is not None
        assert abs(got - want) <= 1e-10

    @given(st.integers(0, 10 ** 9))
    def test_shift_and_scale_invariance(self, seed):
        adj, rng = random_adjacency(seed)
        values = rng.normal(size=adj.n_spots)
        base = morans_i(values, adj)
        shifted = morans_i(values + 13.25, adj)
        scaled = morans_i(values * 3.5, adj)
        assert abs(base - shifted) <= 1e-12
        assert abs(base - scaled) <= 1e-12

    def test_lattice_scores_stay_in_expected_band(self):
        # smooth gradients and alternating maps on a lattice bracket the
        # typical score range
        adj = build_adjacency(grid_spots(6, 6), "square_grid")
        rows = np.repeat(np.arange(6.0), 6)
        checker = np.array([(r + c) % 2 for r in range(6)
                            for c in range(6)], dtype=float)
        smooth = morans_i(rows, adj)
        rough = morans_i(checker, adj)
        assert 0.5 < smooth <= 1.0
        assert -1.5 <= rough < -0.5

    def test_shape_guard(self):
        adj = Adjacency("s", 2, np.array([[0, 1]]))
        with pytest.raises(ShapeMismatch):
            morans_i_many(np.zeros((3, 1)), adj)

    @pytest.mark.deep
    @given(st.integers(0, 10 ** 9), st.integers(1, 60))
    def test_column_blocks_keep_whole_matrix_bits(self, seed, n_genes):
        # blocks of the fewest columns allowed, the last overlapping the
        # one before, give every column the bits of the whole-matrix
        # products
        adj, rng = random_adjacency(seed)
        values = rng.normal(size=(adj.n_spots, n_genes)) * 3.0 + 1.5
        values[:, rng.random(n_genes) < 0.2] = 2.5  # constant maps
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spatial, "MORANS_BLOCK", 1)
            got = morans_i_many(values, adj)
        assert got == reference.morans_i_many(values, adj)


def expr(values, gene_ids, slide="s0"):
    values = np.asarray(values, dtype=float)
    return ExpressionMatrix(slide, tuple(gene_ids),
                            tuple(f"p{i}" for i in range(values.shape[0])),
                            values, "denoised")


class TestSelectGenes:
    def _fixture(self):
        spots = grid_spots(2, 2)
        adj = build_adjacency(spots, "square_grid")
        vals = np.column_stack([
            [0.0, 0.0, 1.0, 1.0],   # row gradient, score 0
            [0.0, 1.0, 1.0, 0.0],   # checkerboard, score -1
            [2.0, 2.0, 2.0, 2.0],   # constant, undefined
        ])
        return [(expr(vals, ("grad", "check", "flat")), adj)]

    def test_ranking_and_undefined_last(self):
        selected, records = select_genes(self._fixture(), 2)
        assert selected == ["grad", "check"]
        by_id = {r.gene_id: r for r in records}
        assert by_id["grad"].mean_score == 0.0
        assert by_id["check"].mean_score == -1.0
        assert by_id["flat"].mean_score is None
        assert not by_id["flat"].selected

    def test_undefined_only_selected_when_panel_exhausted(self):
        selected, _ = select_genes(self._fixture(), 3)
        assert selected == ["grad", "check", "flat"]

    def test_mean_skips_constant_slides(self):
        spots = grid_spots(2, 2)
        adj = build_adjacency(spots, "square_grid")
        a = expr(np.full((4, 1), 3.0), ("g",), slide="A")
        b = expr(np.array([[0.0], [1.0], [1.0], [0.0]]), ("g",), slide="B")
        _, records = select_genes([(a, adj), (b, adj)], 1)
        assert records[0].mean_score == -1.0

    def test_ties_break_lexicographically(self):
        spots = grid_spots(2, 2)
        adj = build_adjacency(spots, "square_grid")
        col = np.array([0.0, 1.0, 1.0, 0.0])
        m = expr(np.column_stack([col, col, col]), ("zz", "aa", "mm"))
        selected, _ = select_genes([(m, adj)], 2)
        assert selected == ["aa", "mm"]

    def test_too_few_genes(self):
        with pytest.raises(TooFewGenes):
            select_genes(self._fixture(), 4)

    def test_spot_count_mismatch(self):
        (m, _), = self._fixture()
        bad = Adjacency("s0", 5, np.array([[0, 1]]))
        with pytest.raises(ShapeMismatch):
            select_genes([(m, bad)], 1)
