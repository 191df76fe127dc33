import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from sepal.core import (
    AllGenesRemoved,
    AllSpotsRemoved,
    DatasetManifest,
    EmptySplit,
    ExpressionMatrix,
    SlideEntry,
    ValidationError,
)
from sepal.preprocess import (
    center_per_slide,
    compute_train_mean,
    filter_by_counts,
    filter_dataset,
    filter_by_sparsity,
    kept_log1p,
    log_transform,
    tpm_normalize,
)


def counts(spot_ids, gene_ids, values, slide="s0"):
    return ExpressionMatrix(slide, tuple(gene_ids), tuple(spot_ids),
                            np.asarray(values, dtype=float), "raw_counts")


ANY = (0.0, np.inf)


class TestFilterByCounts:
    def test_spot_range_endpoints_inclusive(self):
        m = counts(["a", "b", "c", "d"], ["g1"],
                   [[10.0], [5.0], [1000000.0], [10000001.0]])
        rows, cols, removed = filter_by_counts(
            [m], (10.0, 1e6), ANY)
        assert [m.spot_ids[i] for i in rows[0]] == ["a", "c"]
        assert cols.tolist() == [0]
        assert [(k, i, t) for k, _, i, t in removed] == [
            ("spot", "b", 5.0), ("spot", "d", 10000001.0)]

    def test_gene_totals_pooled_after_spot_removal(self):
        # spot "drop" (total 1) goes first; with it gone, g2's pooled
        # total is 10 and squeaks under the gene maximum
        a = counts(["keep", "drop"], ["g1", "g2"],
                   [[5.0, 5.0], [0.0, 1.0]], slide="A")
        b = counts(["x"], ["g1", "g2"], [[5.0, 5.0]], slide="B")
        rows, cols, removed = filter_by_counts(
            [a, b], (2.0, np.inf), (0.0, 10.0))
        assert [r.tolist() for r in rows] == [[0], [0]]
        assert cols.tolist() == [0, 1]
        kinds = [(k, i) for k, _, i, _ in removed]
        assert kinds == [("spot", "drop")]

    def test_gene_below_min_removed(self):
        m = counts(["a", "b"], ["g1", "g2"], [[5.0, 0.0], [5.0, 1.0]])
        _, cols, removed = filter_by_counts([m], ANY, (2.0, np.inf))
        assert cols.tolist() == [0]
        assert ("gene", "*", "g2", 1.0) in removed

    def test_all_spots_removed_raises(self):
        m = counts(["a"], ["g1"], [[1.0]])
        with pytest.raises(AllSpotsRemoved):
            filter_by_counts([m], (100.0, np.inf), ANY)

    def test_all_genes_removed_raises(self):
        m = counts(["a"], ["g1"], [[1.0]])
        with pytest.raises(AllGenesRemoved):
            filter_by_counts([m], ANY, (100.0, np.inf))

    def test_wrong_stage_rejected(self):
        with pytest.raises(ValidationError):
            filter_by_counts([log1p_matrix(["a"], ["g1"], [[1.0]])], ANY, ANY)


class TestFilterBySparsity:
    def test_pooled_threshold(self):
        # g2 present in 1 of 10 pooled spots = 10 pct
        vals_a = np.zeros((5, 2)); vals_a[:, 0] = 1.0
        vals_b = np.zeros((5, 2)); vals_b[:, 0] = 1.0; vals_b[0, 1] = 1.0
        a = counts([f"a{i}" for i in range(5)], ["g1", "g2"], vals_a, "A")
        b = counts([f"b{i}" for i in range(5)], ["g1", "g2"], vals_b, "B")
        kept, removed = filter_by_sparsity([a, b], eps_total=10.0, eps_wsi=0.0)
        assert kept == ["g1", "g2"]
        kept, removed = filter_by_sparsity([a, b], eps_total=10.1, eps_wsi=0.0)
        assert kept == ["g1"]
        assert removed[0][0] == "g2" and removed[0][1] == "total"

    def test_per_slide_threshold(self):
        # g2 pooled at 50 pct but absent from slide A entirely
        vals_a = np.ones((5, 2)); vals_a[:, 1] = 0.0
        vals_b = np.ones((5, 2))
        a = counts([f"a{i}" for i in range(5)], ["g1", "g2"], vals_a, "A")
        b = counts([f"b{i}" for i in range(5)], ["g1", "g2"], vals_b, "B")
        kept, removed = filter_by_sparsity([a, b], eps_total=1.0, eps_wsi=1.0)
        assert kept == ["g1"]
        assert removed == [("g2", "A", 0.0, 1.0)]

    def test_zero_thresholds_keep_everything(self):
        m = counts(["a"], ["g1", "g2"], [[0.0, 0.0]])
        kept, removed = filter_by_sparsity([m], 0.0, 0.0)
        assert kept == ["g1", "g2"]
        assert removed == []

    def test_all_genes_removed(self):
        m = counts(["a", "b"], ["g1"], [[0.0], [0.0]])
        with pytest.raises(AllGenesRemoved):
            filter_by_sparsity([m], 1.0, 0.0)

    def test_panel_order_preserved(self):
        vals = np.ones((4, 3))
        vals[:, 1] = 0.0
        m = counts(["a", "b", "c", "d"], ["g3", "g1", "g2"], vals)
        kept, _ = filter_by_sparsity([m], 1.0, 1.0)
        assert kept == ["g3", "g2"]


class TestTpm:
    def test_unit_lengths_reduce_to_cpm(self):
        t = tpm_normalize(np.array([[3.0, 1.0]]))
        np.testing.assert_allclose(t, [[750000.0, 250000.0]], rtol=0, atol=0)

    def test_zero_spot_stays_zero(self):
        t = tpm_normalize(np.array([[0.0], [4.0]]))
        assert t[0, 0] == 0.0
        assert t[1, 0] == 1e6

    @given(st.integers(0, 10 ** 6))
    def test_rows_sum_to_one_million(self, seed):
        rng = np.random.default_rng(seed)
        vals = np.rint(rng.integers(0, 50, size=(4, 6))).astype(float)
        vals[0] = 0.0
        sums = tpm_normalize(vals).sum(axis=1)
        assert sums[0] == 0.0
        np.testing.assert_allclose(sums[1:], 1e6, rtol=1e-12)

    @given(st.integers(1, 100))
    def test_invariant_to_spot_scaling(self, k):
        np.testing.assert_allclose(
            tpm_normalize(np.array([[2.0, 3.0, 5.0]])),
            tpm_normalize(np.array([[2.0 * k, 3.0 * k, 5.0 * k]])),
            rtol=1e-12)


class TestLogTransform:
    def test_values(self):
        lg = log_transform(tpm_normalize(np.array([[3.0, 1.0]])))
        np.testing.assert_allclose(
            lg, [[np.log2(750001.0), np.log2(250001.0)]], rtol=0)

    def test_zero_maps_to_zero(self):
        lg = log_transform(tpm_normalize(np.array([[0.0], [4.0]])))
        assert lg[0, 0] == 0.0


def log1p_matrix(spot_ids, gene_ids, values, slide="s0"):
    return ExpressionMatrix(slide, tuple(gene_ids), tuple(spot_ids),
                            np.asarray(values, dtype=float), "log1p")


class TestCentering:
    def test_column_means_become_zero(self):
        m = log1p_matrix(["a", "b"], ["g1", "g2"], [[1.0, 4.0], [3.0, 0.0]])
        c = center_per_slide(m)
        np.testing.assert_allclose(c.values.mean(axis=0), 0.0, atol=1e-15)
        assert c.stage == "denoised"
        np.testing.assert_array_equal(c.values, [[-1.0, 2.0], [1.0, -2.0]])


class TestTrainMean:
    def test_pooled_not_mean_of_means(self):
        a = log1p_matrix(["a"], ["g1"], [[0.0]], slide="A")
        b = log1p_matrix(["b", "c", "d"], ["g1"],
                         [[4.0], [4.0], [4.0]], slide="B")
        mean = compute_train_mean([a, b])
        assert mean[0] == 3.0  # 12 counts over 4 spots

    def test_no_train_slides(self):
        with pytest.raises(EmptySplit):
            compute_train_mean([])


class TestThresholdValidation:
    def test_eps_out_of_range(self):
        m = counts(["a"], ["g1"], [[1.0]])
        with pytest.raises(ValidationError):
            filter_by_sparsity([m], eps_total=-1.0, eps_wsi=0.0)
        with pytest.raises(ValidationError):
            filter_by_sparsity([m], eps_total=0.0, eps_wsi=100.5)


@st.composite
def datasets(draw):
    """2-4 slides of a random count (or log-space) panel, and thresholds
    drawn from the data's own totals and detection rates, so that spots
    and genes drop out, and sometimes all of them."""
    counts_input = draw(st.booleans())
    n_genes = draw(st.integers(1, 6))
    genes = tuple(f"g{j}" for j in range(n_genes))
    matrices = []
    for k in range(draw(st.integers(2, 4))):
        n = draw(st.integers(2, 6))
        # about half the cells zero, so detection rates straddle the
        # sparsity thresholds
        cells = (st.integers(0, 6).map(lambda x: max(0, x - 3))
                 if counts_input else st.sampled_from((0.0, 0.0, 1.25, 3.0)))
        values = np.array(draw(st.lists(cells, min_size=n * n_genes,
                                        max_size=n * n_genes)),
                          dtype=np.float64).reshape(n, n_genes)
        matrices.append(ExpressionMatrix(
            f"s{k}", genes, tuple(f"s{k}_{i}" for i in range(n)), values,
            "raw_counts" if counts_input else "log1p"))
    # thresholds from the data's own totals and detection rates, listed
    # from the middle out: hypothesis draws early entries most, and a
    # middle value drops some spots or genes and keeps others
    def middle_out(values):
        values = sorted({0.0, *values})
        mid = values[len(values) // 2]
        return st.sampled_from(sorted(values, key=lambda v: abs(v - mid)))

    spot_totals = np.concatenate([m.values.sum(axis=1) for m in matrices])
    spot_lo = draw(middle_out(spot_totals.tolist()))
    spot_hi = draw(st.sampled_from(
        [np.inf, *sorted((t for t in spot_totals.tolist() if t >= spot_lo),
                         reverse=True)]))
    gene_lo = draw(middle_out(
        sum(m.values.sum(axis=0) for m in matrices).tolist()))
    # detection rates over every spot, which the kept spots move off
    detected = [(m.values > 0).sum(axis=0) for m in matrices]
    rates = [100.0 * sum(detected) / len(spot_totals)]
    rates += [100.0 * d / m.n_spots for d, m in zip(detected, matrices)]
    pct = middle_out(np.concatenate(rates).tolist())
    manifest = DatasetManifest(
        name="oracle", geometry="square_grid", n_genes_select=1,
        eps_total=draw(pct), eps_wsi=draw(pct),
        count_min_spot=spot_lo, count_max_spot=spot_hi,
        count_min_gene=gene_lo, count_max_gene=np.inf,
        slides=(SlideEntry("s0", "c", "e", "m", "train"),))
    return matrices, manifest


def _outcome(run):
    try:
        return run()
    except (AllSpotsRemoved, AllGenesRemoved) as e:
        return type(e)


@pytest.mark.deep
class TestFilterChainOracle:
    @given(datasets())
    def test_matches_list_chain(self, case):
        matrices, manifest = case
        before = [m.values.copy() for m in matrices]

        def new_path():
            rows, kept, log_rows = filter_dataset(matrices, manifest)
            return ([kept_log1p(m, r, kept)
                     for m, r in zip(matrices, rows)], log_rows)

        got = _outcome(new_path)
        want = _outcome(lambda: reference.preprocess_chain(matrices,
                                                           manifest))
        if isinstance(want, type):
            assert got is want
            return
        (got_out, got_log), (want_out, want_log) = got, want
        assert got_log == want_log
        assert len(got_out) == len(want_out)
        for g, w in zip(got_out, want_out):
            assert (g.slide_id, g.stage) == (w.slide_id, "log1p")
            assert g.spot_ids == w.spot_ids
            assert g.gene_ids == w.gene_ids
            assert (np.ascontiguousarray(g.values).tobytes()
                    == np.ascontiguousarray(w.values).tobytes())
        # the inputs are read, never written over
        for m, values in zip(matrices, before):
            assert m.values.tobytes() == values.tobytes()
