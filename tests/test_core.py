from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from helpers import spot_table
from sepal import core
from sepal.core import (
    STAGES,
    DatasetManifest,
    DuplicateSpot,
    EmbeddingTable,
    EmptySplit,
    ExpressionMatrix,
    GeneSetMismatch,
    ImputationMask,
    MissingEmbedding,
    NegativeValue,
    NonFiniteValue,
    ShapeMismatch,
    SlideEntry,
    SpotSetMismatch,
    SpotTable,
    ValidationError,
    WidthMismatch,
    align_slide,
    handed_over,
    validate_dataset,
)


def spot(sid, row, col):
    """A (spot_id, pixel_x, pixel_y, array_row, array_col) record."""
    return (sid, float(col), float(row), row, col)


def small_matrix(spot_ids, gene_ids, values, stage="log1p", slide="s0"):
    return ExpressionMatrix(slide, tuple(gene_ids), tuple(spot_ids),
                            np.asarray(values, dtype=float), stage)


class TestCanonicalOrder:
    def test_sorts_by_row_then_col(self):
        spots = spot_table([spot("b", 1, 0), spot("a", 0, 1),
                            spot("c", 0, 0), spot("d", 0, 2)])
        assert spots.spot_ids == ("c", "a", "d", "b")
        assert spots.array.tolist() == [[0, 0], [0, 1], [0, 2], [1, 0]]
        assert spots.pixel.tolist() == [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0],
                                        [0.0, 1.0]]

    @given(st.permutations(list(range(8))))
    def test_order_independent_of_input_permutation(self, perm):
        base = [spot(f"s{i}", i // 3, i % 3) for i in range(8)]
        a = spot_table([base[i] for i in perm])
        b = spot_table(base)
        assert a.spot_ids == b.spot_ids
        assert a.pixel.tobytes() == b.pixel.tobytes()
        assert a.array.tobytes() == b.array.tobytes()

    @given(st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
                    min_size=1, max_size=40, unique=True),
           st.randoms(use_true_random=False))
    def test_matches_the_sorted_records(self, positions, rnd):
        # spot ids run against the position order, so a sort on ids alone
        # gives another order
        records = [reference.SpotRecord(f"p{len(positions) - k:03d}", "s0",
                                        0.5 * c, 0.25 * r - 3.0, r, c)
                   for k, (r, c) in enumerate(sorted(positions))]
        rnd.shuffle(records)
        spots = SpotTable("s0", [s.spot_id for s in records],
                          [(s.pixel_x, s.pixel_y) for s in records],
                          [(s.array_row, s.array_col) for s in records])
        want = reference.canonical_order(records)
        assert spots.spot_ids == tuple(s.spot_id for s in want)
        assert spots.pixel.tolist() == [[s.pixel_x, s.pixel_y] for s in want]
        assert spots.array.tolist() == [[s.array_row, s.array_col]
                                        for s in want]
        assert spots.pixel.dtype == np.float64
        assert spots.array.dtype == np.int64


class TestSpotTable:
    def test_duplicate_spot_id(self):
        with pytest.raises(DuplicateSpot, match="duplicate spot id 'a'"):
            spot_table([spot("a", 0, 0), spot("b", 0, 1), spot("a", 1, 0)])

    def test_lengths_must_agree(self):
        with pytest.raises(ShapeMismatch):
            SpotTable("s0", ("a", "b"), np.zeros((2, 2)), np.zeros((3, 2)))
        with pytest.raises(ShapeMismatch):
            SpotTable("s0", ("a",), np.zeros((1, 3)), np.zeros((1, 2)))

    def test_arrays_are_readonly(self):
        spots = spot_table([spot("a", 0, 0), spot("b", 0, 1)])
        for a in (spots.pixel, spots.array):
            with pytest.raises(ValueError):
                a[0, 0] = 5

    def test_subset_is_in_canonical_order(self):
        spots = spot_table([spot(f"s{i}", i // 3, i % 3) for i in range(9)])
        sub = spots.subset(["s7", "s0", "s4"])
        assert sub.spot_ids == ("s0", "s4", "s7")
        assert sub.array.tolist() == [[0, 0], [1, 1], [2, 1]]
        assert sub.slide_id == "s0"

    def test_subset_names_the_missing_spot(self):
        spots = spot_table([spot("a", 0, 0), spot("b", 0, 1)])
        with pytest.raises(SpotSetMismatch, match="'zz'"):
            spots.subset(["a", "zz", "yy"])


class TestExpressionMatrix:
    def test_negative_raw_count_rejected(self):
        with pytest.raises(NegativeValue):
            small_matrix(["a"], ["g1"], [[-1.0]], stage="raw_counts")

    def test_fractional_raw_count_rejected(self):
        with pytest.raises(ValidationError):
            small_matrix(["a"], ["g1"], [[1.5]], stage="raw_counts")

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteValue):
            small_matrix(["a"], ["g1"], [[np.nan]])

    def test_negative_log1p_rejected(self):
        with pytest.raises(NegativeValue):
            small_matrix(["a"], ["g1"], [[-0.5]], stage="log1p")

    def test_denoised_stage_allows_negative(self):
        m = small_matrix(["a"], ["g1"], [[-0.5]], stage="denoised")
        assert m.values[0, 0] == -0.5

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            small_matrix(["a", "b"], ["g1"], [[1.0]])

    def test_duplicate_gene(self):
        with pytest.raises(GeneSetMismatch):
            small_matrix(["a"], ["g1", "g1"], [[1.0, 2.0]])

    def test_duplicate_spot(self):
        with pytest.raises(DuplicateSpot):
            small_matrix(["a", "a"], ["g1"], [[1.0], [2.0]])

    def test_values_are_readonly(self):
        m = small_matrix(["a"], ["g1"], [[1.0]])
        with pytest.raises(ValueError):
            m.values[0, 0] = 2.0

    @given(st.sampled_from(STAGES), st.integers(1, 4),
           st.lists(st.tuples(st.integers(0, 11),
                              st.sampled_from((0.5, -1.0, -0.5, np.nan,
                                               np.inf))), max_size=3))
    def test_checks_in_blocks_match_whole_matrix_checks(self, stage, width,
                                                        faults):
        # up to three bad cells among good counts, in blocks of 4 // width
        # rows (one row at widths 3 and 4)
        cells = np.tile([0.0, 2.0, 3.0], 4)
        for i, bad in faults:
            cells[i] = bad
        v = cells[:12 // width * width].reshape(-1, width)

        def outcome(check):
            try:
                check()
            except ValidationError as e:
                return type(e), str(e)

        with mock.patch.object(core, "CHECK_CELLS", 4):
            got = outcome(lambda: ExpressionMatrix(
                "s0", [f"g{j}" for j in range(width)],
                [f"a{i}" for i in range(len(v))], v, stage))
        assert got == outcome(
            lambda: reference.check_values(v, stage, "s0"))

    def test_checks_scratch_is_bounded(self):
        import tracemalloc
        values = handed_over(np.ones((4000, 100)))
        genes = tuple(f"g{j}" for j in range(100))
        spots = tuple(f"a{i}" for i in range(4000))
        tracemalloc.start()
        try:
            m = ExpressionMatrix("s0", genes, spots, values, "raw_counts")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.values is values
        # a whole-matrix np.rint alone would take values.nbytes
        assert peak < values.nbytes / 4

    def test_only_arrays_no_one_can_write_are_held_as_given(self):
        given_up = handed_over(np.ones((2, 1)))
        assert small_matrix(["a", "b"], ["g1"], given_up).values is given_up
        writable = np.ones((2, 1))
        m = small_matrix(["a", "b"], ["g1"], writable)
        writable[0, 0] = 7.0
        assert m.values[0, 0] == 1.0
        # a read-only view of a writable array is copied too
        base = np.ones((3, 1))
        view = base[:2]
        view.flags.writeable = False
        m = small_matrix(["a", "b"], ["g1"], view)
        base[0, 0] = 7.0
        assert m.values[0, 0] == 1.0

    def test_subset_genes_picks_columns_in_request_order(self):
        m = small_matrix(["a", "b"], ["g1", "g2", "g3"],
                         [[1, 2, 3], [4, 5, 6]])
        sub = m.subset_genes(["g3", "g1"])
        assert sub.gene_ids == ("g3", "g1")
        np.testing.assert_array_equal(sub.values, [[3, 1], [6, 4]])

    def test_subset_genes_missing_gene(self):
        m = small_matrix(["a"], ["g1"], [[1.0]])
        with pytest.raises(GeneSetMismatch):
            m.subset_genes(["g9"])


class TestAlignSlide:
    def _pieces(self):
        spots = spot_table([spot("a", 0, 0), spot("b", 0, 1),
                            spot("c", 1, 0)])
        expr = small_matrix(["c", "a"], ["g1"], [[3.0], [1.0]])
        emb = EmbeddingTable("s0", ("b", "a", "c"),
                             np.array([[2.0], [1.0], [3.0]]))
        return spots, expr, emb

    def test_subsets_and_reorders_to_canonical(self):
        spots, expr, emb = self._pieces()
        slide = align_slide(spots, expr, emb)
        assert slide.spots.spot_ids == ("a", "c")
        assert slide.expression.spot_ids == ("a", "c")
        np.testing.assert_array_equal(slide.expression.values, [[1.0], [3.0]])
        assert slide.embeddings.spot_ids == ("a", "c")
        np.testing.assert_array_equal(slide.embeddings.vectors,
                                      [[1.0], [3.0]])

    def test_views_in_canonical_order_are_held_as_they_are(self):
        spots = spot_table([spot("a", 0, 0), spot("c", 1, 0)])
        expr = small_matrix(["a", "c"], ["g1"], [[1.0], [3.0]])
        emb = EmbeddingTable("s0", ("a", "c"), np.array([[1.0], [3.0]]))
        slide = align_slide(spots, expr, emb)
        assert slide.expression is expr and slide.embeddings is emb
        assert slide.spots is spots

    def test_expression_without_coordinates(self):
        spots, expr, emb = self._pieces()
        expr = small_matrix(["c", "zz"], ["g1"], [[3.0], [1.0]])
        with pytest.raises(SpotSetMismatch):
            align_slide(spots, expr, emb)

    def test_missing_embedding_row(self):
        spots, expr, emb = self._pieces()
        emb = EmbeddingTable("s0", ("b", "a"), np.array([[2.0], [1.0]]))
        with pytest.raises(MissingEmbedding):
            align_slide(spots, expr, emb)

    def test_duplicate_array_position(self):
        # the coordinates that align_slide takes cannot hold two spots at
        # one array position: the table refuses them
        with pytest.raises(DuplicateSpot, match=r"array position \(1, 2\)"):
            spot_table([spot("a", 1, 2), spot("b", 0, 0),
                        ("c", 9.0, 9.0, 1, 2)])


def manifest_for(slides):
    return DatasetManifest(
        name="t", geometry="square_grid", n_genes_select=1,
        eps_total=1.0, eps_wsi=1.0,
        count_min_spot=0.0, count_max_spot=np.inf,
        count_min_gene=0.0, count_max_gene=np.inf,
        slides=tuple(slides))


def entry(sid, split="train"):
    return SlideEntry(sid, f"{sid}.coords", f"{sid}.expr", f"{sid}.emb", split)


def read_from(parts):
    """A slide reader for validate_dataset over {slide_id: parts}."""
    return lambda entry: parts[entry.slide_id]


class TestValidateDataset:
    def _slide_parts(self, sid, genes=("g1", "g2"), d_emb=3):
        spots = spot_table([spot("a", 0, 0), spot("b", 0, 1)], sid)
        expr = small_matrix(["a", "b"], genes,
                            np.ones((2, len(genes))), slide=sid)
        emb = EmbeddingTable(sid, ("a", "b"), np.zeros((2, d_emb)))
        return spots, expr, emb

    def test_ok_report(self):
        m = manifest_for([entry("s0"), entry("s1", "val")])
        parts = {"s0": self._slide_parts("s0"), "s1": self._slide_parts("s1")}
        slides = validate_dataset(m, read_from(parts))
        assert [s.slide_id for s in slides] == ["s0", "s1"]
        assert [s.spot_ids for s in slides] == [("a", "b")] * 2

    def test_gene_panel_mismatch(self):
        m = manifest_for([entry("s0"), entry("s1", "val")])
        parts = {"s0": self._slide_parts("s0"),
                 "s1": self._slide_parts("s1", genes=("g1", "gX"))}
        with pytest.raises(GeneSetMismatch):
            validate_dataset(m, read_from(parts))

    def test_gene_order_mismatch_is_a_mismatch(self):
        m = manifest_for([entry("s0"), entry("s1", "val")])
        parts = {"s0": self._slide_parts("s0", genes=("g1", "g2")),
                 "s1": self._slide_parts("s1", genes=("g2", "g1"))}
        with pytest.raises(GeneSetMismatch):
            validate_dataset(m, read_from(parts))

    def test_embedding_width_mismatch(self):
        m = manifest_for([entry("s0"), entry("s1", "val")])
        parts = {"s0": self._slide_parts("s0"),
                 "s1": self._slide_parts("s1", d_emb=4)}
        with pytest.raises(WidthMismatch):
            validate_dataset(m, read_from(parts))

    def test_spot_without_embedding(self):
        m = manifest_for([entry("s0")])
        spots, expr, emb = self._slide_parts("s0")
        emb = EmbeddingTable("s0", ("a",), np.zeros((1, 3)))
        with pytest.raises(MissingEmbedding):
            validate_dataset(m, read_from({"s0": (spots, expr, emb)}))


class TestManifest:
    def test_requires_a_train_slide(self):
        with pytest.raises(EmptySplit):
            manifest_for([entry("s0", "val")])

    def test_rejects_duplicate_slide_ids(self):
        with pytest.raises(ValidationError):
            manifest_for([entry("s0"), entry("s0", "val")])

    def test_auto_radius_names_the_two_lattices(self):
        with pytest.raises(ValidationError,
                           match="'auto_radius'; use hex_array or "
                                 "square_grid"):
            DatasetManifest(
                name="t", geometry="auto_radius", n_genes_select=1,
                eps_total=1.0, eps_wsi=1.0,
                count_min_spot=0.0, count_max_spot=1.0,
                count_min_gene=0.0, count_max_gene=1.0,
                slides=(entry("s0"),))

    def test_rejects_unknown_geometry(self):
        with pytest.raises(ValidationError):
            DatasetManifest(
                name="t", geometry="outerspace", n_genes_select=1,
                eps_total=1.0, eps_wsi=1.0,
                count_min_spot=0.0, count_max_spot=1.0,
                count_min_gene=0.0, count_max_gene=1.0,
                slides=(entry("s0"),))

    def test_rejects_eps_out_of_range(self):
        for eps_total, eps_wsi in ((101.0, 1.0), (-1.0, 1.0), (1.0, 100.5)):
            with pytest.raises(ValidationError):
                DatasetManifest(
                    name="t", geometry="square_grid", n_genes_select=1,
                    eps_total=eps_total, eps_wsi=eps_wsi,
                    count_min_spot=0.0, count_max_spot=1.0,
                    count_min_gene=0.0, count_max_gene=1.0,
                    slides=(entry("s0"),))

    @pytest.mark.parametrize("kind", ["spot", "gene"])
    @pytest.mark.parametrize("bound,value", [("min", 10.0), ("min", np.nan),
                                             ("max", np.nan)])
    def test_rejects_bad_count_range(self, kind, bound, value):
        ranges = dict(count_min_spot=0.0, count_max_spot=1.0,
                      count_min_gene=0.0, count_max_gene=1.0)
        ranges[f"count_{bound}_{kind}"] = value
        with pytest.raises(ValidationError):
            DatasetManifest(
                name="t", geometry="square_grid", n_genes_select=1,
                eps_total=1.0, eps_wsi=1.0, slides=(entry("s0"),), **ranges)

    def test_rejects_unknown_split(self):
        with pytest.raises(ValidationError):
            entry("s0", split="holdout")


class TestImputationMask:
    def test_rejects_non_binary(self):
        with pytest.raises(ValidationError):
            ImputationMask("s0", ("g1",), ("a",), np.array([[2.0]]))

    def test_refuses_zero_one_floats(self):
        # every mask is made bool; a float mask is some other array
        with pytest.raises(ValidationError, match="must be bool"):
            ImputationMask("s0", ("g1", "g2"), ("a",),
                           np.array([[0.0, 1.0]]))

    @pytest.mark.parametrize("genes,spots,error,match", [
        (("g1", "g2", "g1"), ("a",), GeneSetMismatch, "gene id 'g1'"),
        (("g1",), ("a", "b", "a"), DuplicateSpot, "spot id 'a'"),
    ], ids=["genes", "spots"])
    def test_refuses_repeated_ids(self, genes, spots, error, match):
        with pytest.raises(error, match=f"duplicate {match} in s0"):
            ImputationMask("s0", genes, spots,
                           np.zeros((len(spots), len(genes)), dtype=bool))


IDS = tuple("abcdefgh")
some_ids = st.lists(st.sampled_from(IDS), unique=True, max_size=6)
# ids to look up: some the table lacks, some asked for twice
wanted_ids = st.lists(st.sampled_from(IDS), max_size=8)


def _spots(ids):
    n = len(ids)
    # array positions whose order is not the ids' order
    array = np.array([(k % 2, -k) for k in range(n)]).reshape(n, 2)
    return SpotTable("s0", ids, np.arange(2.0 * n).reshape(n, 2), array)


def _outcome(run, key):
    """key of run's result, or the class and message of what it raised."""
    try:
        return key(run())
    except ValidationError as e:
        return type(e), str(e)


def _spot_key(t):
    return t.spot_ids, t.pixel.tobytes(), t.array.tobytes()


def _values_key(m):
    return m.gene_ids, m.spot_ids, np.ascontiguousarray(m.values).tobytes()


@pytest.mark.deep
class TestRowLookupOracle:
    """Every container's id lookup gives the rows, error class and
    message that the container's own id-to-row dict gave."""

    @given(some_ids, wanted_ids)
    def test_spot_subset(self, have, wanted):
        t = _spots(have)
        assert (_outcome(lambda: t.subset(wanted), _spot_key)
                == _outcome(lambda: reference.spot_subset(t, wanted),
                            _spot_key))

    @given(some_ids, wanted_ids)
    def test_expression_subset_genes(self, have, wanted):
        m = small_matrix(["x", "y"], have,
                         np.arange(2.0 * len(have)).reshape(2, -1))
        assert (_outcome(lambda: m.subset_genes(wanted), _values_key)
                == _outcome(lambda: reference.subset_genes(m, wanted),
                            _values_key))

    @given(some_ids, wanted_ids)
    def test_mask_subset_genes(self, have, wanted):
        mask = ImputationMask("s0", have, ("x", "y"),
                              np.arange(2 * len(have)).reshape(2, -1) % 3 == 0)
        assert (_outcome(lambda: mask.subset_genes(wanted), _values_key)
                == _outcome(lambda: reference.mask_subset_genes(mask, wanted),
                            _values_key))

    @given(some_ids, wanted_ids)
    def test_embedding_rows_for(self, have, wanted):
        t = EmbeddingTable("s0", have,
                           np.arange(3.0 * len(have)).reshape(-1, 3))

        def key(rows):
            return rows.dtype, rows.tolist()
        assert (_outcome(lambda: t.rows_for(wanted), key)
                == _outcome(lambda: reference.rows_for(t, wanted), key))

    @given(some_ids, some_ids, some_ids)
    def test_align_slide(self, coords, expr, emb):
        spots = _spots(coords)
        m = small_matrix(expr, ["g1"], np.arange(len(expr))[:, None])
        e = EmbeddingTable("s0", emb, np.arange(2.0 * len(emb)).reshape(-1, 2))

        def key(s):
            return (_spot_key(s.spots), _values_key(s.expression),
                    s.embeddings.spot_ids, s.embeddings.vectors.tobytes())
        assert (_outcome(lambda: align_slide(spots, m, e), key)
                == _outcome(lambda: reference.align_slide(spots, m, e), key))


@pytest.mark.deep
@given(wanted_ids, wanted_ids)
def test_mask_refuses_the_ids_a_matrix_refuses(genes, spots):
    # one id and shape check serves both containers, repeats included
    values = np.zeros((len(spots), len(genes)))

    def key(block):
        return block.gene_ids, block.spot_ids
    assert (_outcome(lambda: ImputationMask("s0", genes, spots,
                                            values == 1.0), key)
            == _outcome(lambda: ExpressionMatrix("s0", genes, spots, values,
                                                 "denoised"), key))
