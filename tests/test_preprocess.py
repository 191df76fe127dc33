import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sepal.core import (
    AllGenesRemoved,
    AllSpotsRemoved,
    EmptyTrainSplit,
    ExpressionMatrix,
    ValidationError,
)
from sepal.preprocess import (
    center_per_slide,
    compute_train_mean,
    filter_by_counts,
    filter_by_sparsity,
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
        out, removed = filter_by_counts(
            [m], (10.0, 1e6), ANY)
        assert out[0].spot_ids == ("a", "c")
        assert out[0].stage == "filtered"
        assert [(k, i, t) for k, _, i, t in removed] == [
            ("spot", "b", 5.0), ("spot", "d", 10000001.0)]

    def test_gene_totals_pooled_after_spot_removal(self):
        # spot "drop" (total 1) goes first; with it gone, g2's pooled
        # total is 10 and squeaks under the gene maximum
        a = counts(["keep", "drop"], ["g1", "g2"],
                   [[5.0, 5.0], [0.0, 1.0]], slide="A")
        b = counts(["x"], ["g1", "g2"], [[5.0, 5.0]], slide="B")
        out, removed = filter_by_counts(
            [a, b], (2.0, np.inf), (0.0, 10.0))
        assert out[0].gene_ids == ("g1", "g2")
        kinds = [(k, i) for k, _, i, _ in removed]
        assert kinds == [("spot", "drop")]

    def test_gene_below_min_removed(self):
        m = counts(["a", "b"], ["g1", "g2"], [[5.0, 0.0], [5.0, 1.0]])
        out, removed = filter_by_counts([m], ANY, (2.0, np.inf))
        assert out[0].gene_ids == ("g1",)
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
        m = counts(["a"], ["g1"], [[1.0]])
        tpm = tpm_normalize(m)
        with pytest.raises(ValidationError):
            filter_by_counts([tpm], ANY, ANY)


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
        m = counts(["a"], ["g1", "g2"], [[3.0, 1.0]])
        t = tpm_normalize(m)
        np.testing.assert_allclose(t.values, [[750000.0, 250000.0]],
                                   rtol=0, atol=0)
        assert t.stage == "tpm"

    def test_zero_spot_stays_zero(self):
        m = counts(["a", "b"], ["g1"], [[0.0], [4.0]])
        t = tpm_normalize(m)
        assert t.values[0, 0] == 0.0
        assert t.values[1, 0] == 1e6

    @given(st.integers(0, 10 ** 6))
    def test_rows_sum_to_one_million(self, seed):
        rng = np.random.default_rng(seed)
        vals = np.rint(rng.integers(0, 50, size=(4, 6))).astype(float)
        vals[0] = 0.0
        m = counts([f"s{i}" for i in range(4)],
                   [f"g{j}" for j in range(6)], vals)
        t = tpm_normalize(m)
        sums = t.values.sum(axis=1)
        assert sums[0] == 0.0
        np.testing.assert_allclose(sums[1:], 1e6, rtol=1e-12)

    @given(st.integers(1, 100))
    def test_invariant_to_spot_scaling(self, k):
        m1 = counts(["a"], ["g1", "g2", "g3"], [[2.0, 3.0, 5.0]])
        m2 = counts(["a"], ["g1", "g2", "g3"], [[2.0 * k, 3.0 * k, 5.0 * k]])
        np.testing.assert_allclose(tpm_normalize(m1).values,
                                   tpm_normalize(m2).values, rtol=1e-12)


class TestLogTransform:
    def test_values(self):
        m = counts(["a"], ["g1", "g2"], [[3.0, 1.0]])
        lg = log_transform(tpm_normalize(m))
        np.testing.assert_allclose(
            lg.values, [[np.log2(750001.0), np.log2(250001.0)]], rtol=0)
        assert lg.stage == "log1p"

    def test_zero_maps_to_zero(self):
        m = counts(["a", "b"], ["g1"], [[0.0], [4.0]])
        lg = log_transform(tpm_normalize(m))
        assert lg.values[0, 0] == 0.0

    def test_requires_tpm_stage(self):
        m = counts(["a"], ["g1"], [[1.0]])
        with pytest.raises(ValidationError):
            log_transform(m)


def log1p_matrix(spot_ids, gene_ids, values, slide="s0"):
    return ExpressionMatrix(slide, tuple(gene_ids), tuple(spot_ids),
                            np.asarray(values, dtype=float), "log1p")


class TestCentering:
    def test_column_means_become_zero(self):
        m = log1p_matrix(["a", "b"], ["g1", "g2"], [[1.0, 4.0], [3.0, 0.0]])
        c = center_per_slide([m])[0]
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
        with pytest.raises(EmptyTrainSplit):
            compute_train_mean([])


class TestThresholdValidation:
    def test_eps_out_of_range(self):
        m = counts(["a"], ["g1"], [[1.0]])
        with pytest.raises(ValidationError):
            filter_by_sparsity([m], eps_total=-1.0, eps_wsi=0.0)
        with pytest.raises(ValidationError):
            filter_by_sparsity([m], eps_total=0.0, eps_wsi=100.5)
