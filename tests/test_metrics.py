import numpy as np
import pytest
from hypothesis import given, strategies as st

from sepal.core import (
    AllGenesExcluded,
    AllMasked,
    AllPatchesExcluded,
    MalformedRow,
    ShapeMismatch,
    ValidationError,
)
from sepal.metrics import (
    HIST_BIN_WIDTH,
    _column_stats,
    emit_figures,
    evaluate,
    pcc_histogram,
    read_per_gene_pccs,
    write_metrics_table,
    write_per_gene_table,
    write_per_patch_table,
)
from sepal import ingest

import reference
from helpers import grid_spots


def plain_pcc(a, b):
    """Textbook Pearson correlation on dense already-filtered vectors."""
    za = a - a.mean()
    zb = b - b.mean()
    return float((za @ zb) / np.sqrt((za @ za) * (zb @ zb)))


def plain_r2(truth, pred):
    ss_res = float(((pred - truth) ** 2).sum())
    ss_tot = float(((truth - truth.mean()) ** 2).sum())
    return 1.0 - ss_res / ss_tot


def random_instance(seed, n=12, g=6, mask_p=0.3):
    rng = np.random.default_rng(seed)
    truth = rng.normal(size=(n, g))
    pred = truth + 0.5 * rng.normal(size=(n, g))
    mask = rng.random(size=(n, g)) < mask_p
    return pred, truth, mask


class TestMseMae:
    def test_perfect_prediction(self):
        _, truth, mask = random_instance(0)
        rep = evaluate(truth, truth, mask)
        assert (rep.mse, rep.mae) == (0.0, 0.0)

    def test_masked_cells_do_not_count(self):
        truth = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
        pred = truth.copy()
        pred[0, 0] = 100.0  # masked
        pred[2, 1] = 4.0
        mask = np.zeros((3, 2), dtype=bool)
        mask[0, 0] = True
        rep = evaluate(pred, truth, mask)
        assert (rep.mse, rep.mae) == (0.8, 0.4)

    def test_all_masked(self):
        with pytest.raises(AllMasked):
            evaluate(np.zeros((2, 2)), np.zeros((2, 2)),
                     np.ones((2, 2), dtype=bool))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            evaluate(np.zeros((2, 3)), np.zeros((2, 2)),
                     np.zeros((2, 2), dtype=bool))

    @given(st.integers(0, 200))
    def test_matches_filtered_oracle(self, seed):
        pred, truth, mask = random_instance(seed)
        rep = evaluate(pred, truth, mask)
        d = (pred[~mask] - truth[~mask])
        assert rep.mse == float(np.mean(d ** 2))
        assert rep.mae == float(np.mean(np.abs(d)))


class TestEvaluate:
    def test_identities_on_perfect_prediction(self):
        _, truth, mask = random_instance(1)
        rep = evaluate(truth, truth, mask)
        assert rep.mse == 0.0 and rep.mae == 0.0
        for v in (rep.pcc_gene, rep.pcc_patch, rep.r2_gene, rep.r2_patch):
            assert abs(v - 1.0) <= 1e-12

    def test_constant_gene_with_an_inexact_mean_is_excluded(self):
        # 0.1 * 3 / 3 is not 0.1, so the centred cells are not all zero
        truth = np.array([[0.1, 1.0], [0.1, 2.0], [0.1, 4.0]])
        pred = np.array([[0.3, 1.5], [0.2, 2.0], [0.0, 3.0]])
        rep = evaluate(pred, truth, np.zeros((3, 2), dtype=bool))
        assert (rep.per_gene_pcc[0], rep.per_gene_r2[0]) == (None, None)
        assert rep.n_excluded_genes == 1
        assert rep.r2_gene == rep.per_gene_r2[1]

    def test_constant_gene_over_a_slide_is_excluded(self):
        # summed spot by spot, 5,000 cells of 0.1 miss their mean by
        # hundreds of ulps: the bound grows with the cells
        truth = np.column_stack([np.full(5000, 0.1), np.arange(5000.0)])
        rep = evaluate(truth[::-1], truth, np.zeros(truth.shape, dtype=bool))
        assert rep.per_gene_r2[0] is None
        assert rep.n_excluded_genes == 1

    def test_mean_prediction_gives_zero_r2(self):
        _, truth, mask = random_instance(2)
        pred = np.empty_like(truth)
        for j in range(truth.shape[1]):
            pred[:, j] = truth[~mask[:, j], j].mean()
        # the first gene's truth mirrored about that mean varies, so the
        # genes have a PCC to average, and is as far from the truth as the
        # mean is: its R² is zero too
        pred[:, 0] = 2.0 * truth[:, 0] - pred[:, 0]
        rep = evaluate(pred, truth, mask)
        assert abs(rep.r2_gene) <= 1e-9
        assert rep.per_gene_pcc[1:] == (None,) * (truth.shape[1] - 1)

    def test_constant_prediction_with_an_inexact_mean_has_no_pcc(self):
        # 0.1 * 3 / 3 is not 0.1: a constant prediction is flat by the
        # truth side's rule, not only when its spread is exactly zero
        truth = np.array([[1.0, 1.0], [2.0, 2.0], [4.0, 3.5]])
        pred = np.column_stack([np.full(3, 0.1), truth[:, 1]])
        rep = evaluate(pred, truth, np.zeros((3, 2), dtype=bool))
        assert rep.per_gene_pcc[0] is None
        assert rep.pcc_gene == rep.per_gene_pcc[1] == 1.0

    def test_anticorrelated_gene(self):
        truth = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        pred = np.array([[3.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
        mask = np.zeros((3, 2), dtype=bool)
        rep = evaluate(pred, truth, mask)
        assert rep.per_gene_pcc[0] == -1.0
        # the second gene's truth is constant: excluded and counted
        assert rep.per_gene_pcc[1] is None
        assert rep.per_gene_r2[1] is None
        assert rep.n_excluded_genes == 1

    def test_aggregates_are_means_of_defined_entries(self):
        pred, truth, mask = random_instance(3)
        rep = evaluate(pred, truth, mask)
        for agg, per in ((rep.pcc_gene, rep.per_gene_pcc),
                         (rep.r2_gene, rep.per_gene_r2),
                         (rep.pcc_patch, rep.per_patch_pcc),
                         (rep.r2_patch, rep.per_patch_r2)):
            vals = [v for v in per if v is not None]
            assert agg == pytest.approx(float(np.mean(vals)), abs=1e-12)

    @given(st.integers(0, 100))
    def test_matches_filtered_oracle(self, seed):
        pred, truth, mask = random_instance(seed, n=10, g=5, mask_p=0.25)
        rep = evaluate(pred, truth, mask)
        for j in range(5):
            t = truth[~mask[:, j], j]
            p = pred[~mask[:, j], j]
            if t.size < 2 or np.ptp(t) == 0:
                assert rep.per_gene_pcc[j] is None
                assert rep.per_gene_r2[j] is None
                continue
            assert rep.per_gene_pcc[j] == pytest.approx(
                plain_pcc(t, p), abs=1e-10)
            assert rep.per_gene_r2[j] == pytest.approx(
                plain_r2(t, p), abs=1e-10)
        for i in range(10):
            t = truth[i, ~mask[i]]
            p = pred[i, ~mask[i]]
            if t.size < 2 or np.ptp(t) == 0:
                assert rep.per_patch_pcc[i] is None
                continue
            assert rep.per_patch_pcc[i] == pytest.approx(
                plain_pcc(t, p), abs=1e-10)
            assert rep.per_patch_r2[i] == pytest.approx(
                plain_r2(t, p), abs=1e-10)

    @given(st.integers(0, 50),
           st.floats(0.1, 100.0, allow_nan=False))
    def test_pcc_invariant_to_positive_scaling(self, seed, scale):
        pred, truth, mask = random_instance(seed)
        a = evaluate(pred, truth, mask)
        b = evaluate(pred * scale, truth, mask)
        for x, y in zip(a.per_gene_pcc + a.per_patch_pcc,
                        b.per_gene_pcc + b.per_patch_pcc):
            if x is None:
                assert y is None
            else:
                assert abs(x - y) <= 1e-12

    def test_all_false_mask_equals_unmasked_formulas(self):
        pred, truth, _ = random_instance(7)
        mask = np.zeros_like(truth, dtype=bool)
        rep = evaluate(pred, truth, mask)
        d = pred - truth
        assert rep.mse == float(np.mean(d ** 2))
        assert rep.mae == float(np.mean(np.abs(d)))
        assert rep.per_gene_pcc[0] == pytest.approx(
            plain_pcc(truth[:, 0], pred[:, 0]), abs=1e-12)
        assert rep.n_masked == 0

    def test_constant_pred_gene_loses_pcc_but_keeps_r2(self):
        truth = np.array([[1.0, 5.0], [2.0, 6.0], [3.0, 7.0]])
        pred = np.array([[2.0, 5.0], [2.0, 6.0], [2.0, 7.0]])
        rep = evaluate(pred, truth, np.zeros((3, 2), dtype=bool))
        assert rep.per_gene_pcc[0] is None
        assert rep.per_gene_r2[0] == 0.0
        assert rep.n_excluded_genes == 0

    def test_under_two_cells_excluded(self):
        truth = np.array([[1.0, 10.0, 0.0],
                          [2.0, 20.0, 5.0],
                          [3.0, 30.0, 9.0]])
        mask = np.zeros((3, 3), dtype=bool)
        mask[:2, 1] = True
        rep = evaluate(truth, truth, mask)
        assert rep.per_gene_r2[1] is None
        assert rep.per_gene_pcc[1] is None
        assert rep.n_excluded_genes == 1

    def test_all_genes_excluded(self):
        truth = np.ones((3, 2))
        with pytest.raises(AllGenesExcluded):
            evaluate(truth, truth, np.zeros((3, 2), dtype=bool))

    def test_all_patches_excluded(self):
        # distinct columns keep genes scoreable, constant rows kill patches
        truth = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        pred = truth + np.array([[0.1, 0.2], [0.0, 0.1], [0.3, 0.0]])
        with pytest.raises(AllPatchesExcluded):
            evaluate(pred, truth, np.zeros((3, 2), dtype=bool))

    def test_n_masked_counts_cells(self):
        pred, truth, mask = random_instance(9)
        rep = evaluate(pred, truth, mask)
        assert rep.n_masked == int(mask.sum())


# multiples of 2**-16 over twelve decades, small enough that every column
# sum is exact: a constant column's mean is then its value whatever the
# summation order, and only such a column has no variance in both scorers
VALUES = st.builds(lambda m, e: m * 10.0 ** e / 65536,
                   st.integers(-999, 999), st.integers(0, 9))
KINDS = ("random", "masked", "one cell", "constant truth", "constant pred")
# constants c * 10**e whose means mostly come out inexact
CONSTANTS = st.builds(lambda c, e: c * 10.0 ** e,
                      st.floats(-10.0, 10.0), st.integers(-30, 30))


@st.composite
def scoring_problems(draw):
    n, g = draw(st.integers(1, 16)), draw(st.integers(1, 16))

    def matrix(elements):
        return np.array(draw(st.lists(elements, min_size=n * g,
                                      max_size=n * g))).reshape(n, g)

    truth, pred, mask = matrix(VALUES), matrix(VALUES), matrix(st.booleans())
    # give some genes, then some spots, an edge case of their own; the
    # transposes are views, so the spots' cases write through
    for t, p, m in ((truth, pred, mask), (truth.T, pred.T, mask.T)):
        for j in range(t.shape[1]):
            kind = draw(st.sampled_from(KINDS))
            if kind in ("masked", "one cell"):
                m[:, j] = True
            if kind == "one cell":
                m[draw(st.integers(0, t.shape[0] - 1)), j] = False
            elif kind == "constant truth":
                t[:, j] = draw(st.integers(-1000, 1000))
            elif kind == "constant pred":
                p[:, j] = draw(st.integers(-1000, 1000))
    return pred, truth, mask


def close(got, want):
    """Within 1e-12 of want, relative to it where it is past 1."""
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.deep
class TestEvaluateOracle:
    @given(scoring_problems())
    def test_matches_the_column_loop(self, problem):
        pred, truth, mask = problem
        keep = ~mask
        gene_pcc, gene_r2 = reference.column_stats(pred, truth, keep)
        patch_pcc, patch_r2 = reference.column_stats(pred.T, truth.T,
                                                     keep.T)
        if not keep.any():
            error = AllMasked
        elif all(v is None for v in gene_pcc):
            error = AllGenesExcluded
        elif all(v is None for v in patch_pcc):
            error = AllPatchesExcluded
        else:
            error = None
        if error is not None:
            with pytest.raises(error):
                evaluate(pred, truth, mask)
            return
        rep = evaluate(pred, truth, mask)
        assert (rep.mse, rep.mae) == reference.masked_mse_mae(pred, truth,
                                                              keep)
        for got, want in ((rep.per_gene_pcc, gene_pcc),
                          (rep.per_gene_r2, gene_r2),
                          (rep.per_patch_pcc, patch_pcc),
                          (rep.per_patch_r2, patch_r2)):
            assert [v is None for v in got] == [v is None for v in want]
            assert all(close(a, b) for a, b in zip(got, want)
                       if b is not None)
        for agg, want in ((rep.pcc_gene, gene_pcc), (rep.r2_gene, gene_r2),
                          (rep.pcc_patch, patch_pcc),
                          (rep.r2_patch, patch_r2)):
            defined = [v for v in want if v is not None]
            assert abs(agg - np.mean(defined)) <= 1e-12 * max(
                1.0, *map(abs, defined))
        assert rep.n_excluded_genes == gene_r2.count(None)
        assert rep.n_excluded_patches == patch_r2.count(None)
        assert rep.n_masked == int(mask.sum())


    @given(st.data(), st.booleans())
    def test_constant_columns_are_excluded(self, data, by_spot):
        # constants over sixty decades, as genes or (transposed) as spots;
        # the other columns are VALUES, whose means are exact
        n, g = data.draw(st.integers(1, 16)), data.draw(st.integers(1, 16))

        def matrix(elements):
            return np.array(data.draw(st.lists(
                elements, min_size=n * g, max_size=n * g))).reshape(n, g)

        truth, pred, mask = matrix(VALUES), matrix(VALUES), matrix(
            st.booleans())
        keep = ~mask
        if by_spot:
            pred, truth, keep = pred.T, truth.T, keep.T
        for j in range(truth.shape[1]):
            if data.draw(st.booleans()):
                truth[:, j] = data.draw(CONSTANTS)
        flat = [keep[:, j].sum() < 2 or len(set(truth[keep[:, j], j])) == 1
                for j in range(truth.shape[1])]
        pcc, r2 = _column_stats(pred, truth, keep)
        want_pcc, want_r2 = reference.column_stats(pred, truth, keep)
        assert np.isnan(r2).tolist() == flat
        assert [v is None for v in want_r2] == flat
        assert np.isnan(pcc).tolist() == [v is None for v in want_pcc]


class TestReportTables:
    def test_tables_round_trip(self, tmp_path):
        pred, truth, mask = random_instance(4)
        rep = evaluate(pred, truth, mask,
                       gene_ids=[f"G{j}" for j in range(6)],
                       spot_ids=[f"S{i}" for i in range(12)])
        mp = tmp_path / "metrics.tsv"
        gp = tmp_path / "per_gene.tsv"
        pp = tmp_path / "per_patch.tsv"
        write_metrics_table(mp, rep)
        write_per_gene_table(gp, rep)
        write_per_patch_table(pp, rep)
        comments, header, rows = ingest.read_table(mp)
        assert comments["kind"] == "metrics"
        values = dict((r[0], r[1]) for r in rows)
        assert float(values["mse"]) == rep.mse
        assert int(values["n_masked"]) == rep.n_masked
        _, gh, grows = ingest.read_table(gp)
        assert gh == ["gene_id", "pcc", "r2"]
        assert [r[0] for r in grows] == [f"G{j}" for j in range(6)]
        for r, want in zip(grows, rep.per_gene_pcc):
            assert r[1] == ("" if want is None else ingest.fmt_float(want))
        _, ph, prows = ingest.read_table(pp)
        assert len(prows) == 12

    def test_per_gene_pccs_read_back_exactly(self, tmp_path):
        pred, truth, mask = random_instance(7)
        truth[:, 2] = 1.5  # no variance: the gene has no PCC
        rep = evaluate(pred, truth, mask)
        assert rep.per_gene_pcc[2] is None
        p = tmp_path / "per_gene.tsv"
        write_per_gene_table(p, rep)
        assert read_per_gene_pccs(p) == (rep.gene_ids, rep.per_gene_pcc)

    def test_per_gene_table_names_its_slide(self, tmp_path):
        pred, truth, mask = random_instance(7)
        rep = evaluate(pred, truth, mask)
        p = tmp_path / "s1_per_gene.tsv"
        write_per_gene_table(p, rep, "s1")
        assert read_per_gene_pccs(p, "s1") == (rep.gene_ids, rep.per_gene_pcc)
        # another slide's table, or the pooled one, which names none
        for slide in ("s0", None):
            with pytest.raises(ValidationError, match="sepal eval"):
                read_per_gene_pccs(p, slide)
        write_per_gene_table(p, rep)
        with pytest.raises(ValidationError, match="holds slide None"):
            read_per_gene_pccs(p, "s1")

    def test_per_gene_reader_rejects_other_tables(self, tmp_path):
        pred, truth, mask = random_instance(7)
        p = tmp_path / "per_patch.tsv"
        write_per_patch_table(p, evaluate(pred, truth, mask))
        with pytest.raises(MalformedRow):
            read_per_gene_pccs(p)

    def test_byte_determinism(self, tmp_path):
        pred, truth, mask = random_instance(5)
        rep = evaluate(pred, truth, mask)
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_metrics_table(a, rep)
        write_metrics_table(b, rep)
        assert a.read_bytes() == b.read_bytes()


class TestFigures:
    def _report(self, seed=6, n=16, g=8):
        pred, truth, mask = random_instance(seed, n=n, g=g, mask_p=0.1)
        gene_ids = [f"G{j:02d}" for j in range(g)]
        rep = evaluate(pred, truth, mask, gene_ids=gene_ids)
        return rep, pred, truth, mask

    def test_histogram_counts_defined_genes(self):
        rep, *_ = self._report()
        rows = pcc_histogram(rep.gene_ids, rep.per_gene_pcc)
        assert len(rows) == 40
        assert rows[0][0] == -1.0 and abs(rows[-1][1] - 1.0) <= 1e-12
        defined = sum(1 for v in rep.per_gene_pcc if v is not None)
        assert sum(c for _, _, c in rows) == defined

    @given(st.lists(st.none() | st.floats(-1.0, 1.0) | st.sampled_from(
        (-1.0 + 0.05 * np.arange(41)).tolist())))
    def test_histogram_matches_the_gene_loop(self, pccs):
        gene_ids = [f"G{j}" for j in range(len(pccs))]
        assert pcc_histogram(gene_ids, pccs) == reference.pcc_histogram(
            gene_ids, pccs, HIST_BIN_WIDTH)

    def test_histogram_needs_one_pcc_per_gene(self):
        with pytest.raises(ValueError):
            pcc_histogram(["G0", "G1"], [0.5])

    def test_perfect_correlations_land_in_top_bin(self):
        _, truth, mask = random_instance(8)
        rep = evaluate(truth, truth, mask)
        rows = pcc_histogram(rep.gene_ids, rep.per_gene_pcc)
        assert rows[-1][2] == sum(
            1 for v in rep.per_gene_pcc if v is not None)
        assert sum(c for _, _, c in rows[:-1]) == 0

    def test_emit_writes_expected_files(self, tmp_path):
        rep, pred, truth, mask = self._report()
        spots = grid_spots(4, 4)
        files = emit_figures(rep.gene_ids, rep.per_gene_pcc, pred, truth,
                             mask, spots, "square_grid", tmp_path)
        names = {f.name for f in files}
        assert "pcc_hist.csv" in names
        ranked = sorted(
            ((g, v) for g, v in zip(rep.gene_ids, rep.per_gene_pcc)
             if v is not None), key=lambda it: (-it[1], it[0]))
        for gene in (ranked[0][0], ranked[1][0],
                     ranked[-2][0], ranked[-1][0]):
            for role in ("truth", "pred"):
                assert f"{gene}_{role}.ppm" in names
                assert f"{gene}_{role}.csv" in names
        for f in files:
            assert f.exists() and f.stat().st_size > 0

    def test_emit_deterministic_bytes(self, tmp_path):
        rep, pred, truth, mask = self._report(seed=11)
        spots = grid_spots(4, 4)
        a = emit_figures(rep.gene_ids, rep.per_gene_pcc, pred, truth, mask,
                         spots, "square_grid", tmp_path / "a")
        b = emit_figures(rep.gene_ids, rep.per_gene_pcc, pred, truth, mask,
                         spots, "square_grid", tmp_path / "b")
        for fa, fb in zip(a, b):
            assert fa.read_bytes() == fb.read_bytes()
