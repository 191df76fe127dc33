from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from helpers import hex_spots
from sepal import denoise, spatial
from sepal.core import (
    DegenerateCoordinates,
    ExpressionMatrix,
    ShapeMismatch,
    SpotRecord,
    ValidationError,
)
from sepal.denoise import (
    MAX_RINGS,
    build_radial_neighborhoods,
    denoise_slide,
    impute_gene_map,
)


def grid_spots(rows, cols, slide="s0"):
    return [SpotRecord(f"r{r}c{c}", slide, float(c), float(r), r, c)
            for r in range(rows) for c in range(cols)]


def oracle_impute(values, spots, max_rings=MAX_RINGS):
    """Independent reimplementation: explicit sorted-unique-distance scan."""
    values = np.asarray(values, dtype=float)
    n = len(spots)
    pts = [(s.pixel_x, s.pixel_y) for s in spots]
    out = values.copy()
    flags = np.zeros(n, dtype=bool)
    nonzero = [v for v in values if v != 0.0]
    if not nonzero:
        return out, flags
    for i in range(n):
        if values[i] != 0.0:
            continue
        dists = {}
        for j in range(n):
            if j == i:
                continue
            d = round(np.hypot(pts[i][0] - pts[j][0],
                               pts[i][1] - pts[j][1]), 6)
            dists.setdefault(d, []).append(j)
        ring_order = sorted(dists)[:max_rings]
        pool = []
        done = False
        for d in ring_order:
            pool.extend(values[j] for j in dists[d] if values[j] != 0.0)
            if pool:
                out[i] = float(np.median(pool))
                done = True
                break
        if not done:
            out[i] = float(np.median(nonzero))
        flags[i] = True
    return out, flags


class TestRadialNeighborhoods:
    def test_corner_of_grid_has_seven_rings(self):
        spots = grid_spots(5, 5)
        rings = build_radial_neighborhoods(spots)
        d = rings.ring_distances[0]
        np.testing.assert_allclose(
            d, [1.0, round(np.sqrt(2), 6), 2.0, round(np.sqrt(5), 6),
                round(np.sqrt(8), 6), 3.0, round(np.sqrt(10), 6)],
            atol=5e-7)
        assert len(rings.ring_members[0]) == 7
        # ring members come in index order
        assert list(rings.ring_members[0][0]) == [1, 5]

    def test_center_of_5x5_has_only_five_rings(self):
        spots = grid_spots(5, 5)
        rings = build_radial_neighborhoods(spots)
        center = 2 * 5 + 2
        assert len(rings.ring_members[center]) == 5
        assert [len(m) for m in rings.ring_members[center]] == [4, 4, 4, 8, 4]

    def test_near_ties_merge_after_rounding(self):
        # c and d sit at 2.0 and 2.0000004 from a; both round to 2.0
        spots = [SpotRecord("a", "s", 0.0, 0.0, 0, 0),
                 SpotRecord("b", "s", 1.0, 0.0, 0, 1),
                 SpotRecord("c", "s", 2.0, 0.0, 0, 2),
                 SpotRecord("d", "s", -2.0000004, 0.0, 0, 3)]
        rings = build_radial_neighborhoods(spots)
        assert len(rings.ring_members[0]) == 2
        assert list(rings.ring_members[0][1]) == [2, 3]

    def test_single_spot_rejected(self):
        with pytest.raises(DegenerateCoordinates):
            build_radial_neighborhoods(grid_spots(1, 1))

    def test_coincident_spots_rejected(self):
        spots = [SpotRecord("a", "s", 0.0, 0.0, 0, 0),
                 SpotRecord("b", "s", 1e-8, 0.0, 0, 1)]
        with pytest.raises(DegenerateCoordinates):
            build_radial_neighborhoods(spots)

    def test_one_distance_pass(self, monkeypatch):
        # every distance row the build computes, through any helper
        rows = []
        real = spatial.pixel_distance_rows

        def counting(spots):
            for row in real(spots):
                rows.append(row)
                yield row

        monkeypatch.setattr(spatial, "pixel_distance_rows", counting)
        monkeypatch.setattr(denoise, "pixel_distance_rows", counting)
        build_radial_neighborhoods(grid_spots(4, 5))
        assert len(rows) == 20


def impute_one(values, spots):
    """One gene map through denoise_slide, hence one impute_gene_map call,
    with the per-gene outcome read off the slide's matrix, mask and
    report."""
    m = ExpressionMatrix("s0", ("g0",), tuple(s.spot_id for s in spots),
                         np.asarray(values, dtype=float)[:, None], "log1p")
    den, mask, rep = denoise_slide(m, spots)
    return SimpleNamespace(values=den.values[:, 0], flags=mask.values[:, 0],
                           n_imputed=rep.n_imputed, n_fallback=rep.n_fallback,
                           nothing_to_impute=rep.genes_nothing_to_impute
                           == ("g0",))


class TestImputeGeneMap:
    def _spots(self):
        return grid_spots(5, 5)

    def _map(self, assignments, fill=1.0):
        vals = np.full(25, fill)
        for (r, c), v in assignments.items():
            vals[r * 5 + c] = v
        return vals

    def test_first_ring_median_odd_count(self):
        vals = self._map({(2, 2): 0.0, (3, 2): 0.0,
                          (1, 2): 2.0, (2, 1): 4.0, (2, 3): 6.0})
        r = impute_one(vals, self._spots())
        assert r.values[2 * 5 + 2] == 4.0   # median of [2, 4, 6]
        assert r.values[3 * 5 + 2] == 1.0   # median of [1, 1, 1]
        assert r.n_imputed == 2
        assert r.n_fallback == 0

    def test_even_count_median_averages_middle_pair(self):
        vals = self._map({(0, 0): 0.0, (0, 1): 2.0, (1, 0): 6.0})
        r = impute_one(vals, self._spots())
        assert r.values[0] == 4.0

    def test_rings_grow_until_first_nonzero(self):
        vals = self._map({(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0,
                          (1, 1): 0.0, (0, 2): 3.0, (2, 0): 5.0})
        r = impute_one(vals, self._spots())
        assert r.values[0] == 4.0       # ring 3 supplies [3, 5]
        assert r.values[1] == 3.0       # (0,1): ring 1 has (0,2) = 3
        assert r.values[5] == 5.0       # (1,0): ring 1 has (2,0) = 5
        assert r.values[6] == 1.0       # (1,1): ring 1 has two 1.0 cells

    def test_whole_slide_fallback_beyond_seven_rings(self):
        vals = np.zeros(25)
        vals[4 * 5 + 4] = 9.0
        vals[3 * 5 + 4] = 7.0
        r = impute_one(vals, self._spots())
        # the corner's seven rings stop at sqrt(10) < 5.0, so it falls
        # back to the map-wide nonzero median (9 + 7) / 2
        assert r.values[0] == 8.0
        assert r.n_fallback >= 1
        assert r.flags[0]

    def test_all_zero_map_left_alone(self):
        vals = np.zeros(25)
        r = impute_one(vals, self._spots())
        assert (r.values == 0.0).all()
        assert not r.flags.any()
        assert r.nothing_to_impute
        assert r.n_imputed == 0

    def test_medians_read_original_map_only(self):
        # (0,1) and (0,3) are both zero; (0,1) fills from (0,0) and (0,2),
        # and (0,3) must not see that filled value, only originals
        spots = [SpotRecord(f"c{c}", "s", float(c), 0.0, 0, c)
                 for c in range(5)]
        vals = np.array([10.0, 0.0, 2.0, 0.0, 2.0])
        r = impute_one(vals, spots)
        assert r.values[1] == 6.0  # median of [10, 2]
        assert r.values[3] == 2.0  # median of [2, 2], not seeing the 6

    def test_flags_mark_exactly_the_replaced_cells(self):
        vals = self._map({(2, 2): 0.0, (0, 4): 0.0})
        r = impute_one(vals, self._spots())
        assert r.flags.sum() == 2
        assert r.flags[2 * 5 + 2] and r.flags[4]
        untouched = ~r.flags
        np.testing.assert_array_equal(r.values[untouched], vals[untouched])

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        vals = rng.random(25) + 0.5
        vals[rng.choice(25, size=8, replace=False)] = 0.0
        spots = self._spots()
        once = impute_one(vals, spots)
        twice = impute_one(once.values, spots)
        np.testing.assert_array_equal(once.values, twice.values)
        assert twice.n_imputed == 0

    @given(st.integers(0, 10 ** 6))
    def test_matches_independent_oracle(self, seed):
        rng = np.random.default_rng(seed)
        spots = grid_spots(4, 4)
        vals = np.round(rng.random(16) * 5.0, 3)
        vals[rng.random(16) < 0.4] = 0.0
        got = impute_one(vals, spots)
        want_vals, want_flags = oracle_impute(vals, spots)
        np.testing.assert_array_equal(got.values, want_vals)
        np.testing.assert_array_equal(got.flags, want_flags)

    @given(st.permutations(list(range(12))))
    def test_result_independent_of_spot_order(self, perm):
        rng = np.random.default_rng(99)
        spots = grid_spots(3, 4)
        vals = rng.random(12) + 0.1
        vals[[1, 5, 7]] = 0.0
        base = impute_one(vals, spots).values
        shuffled = [spots[i] for i in perm]
        vals_p = vals[perm]
        got = impute_one(vals_p, shuffled).values
        for k, i in enumerate(perm):
            assert got[k] == base[i]


class TestDenoiseSlide:
    def _matrix(self, vals, spots):
        return ExpressionMatrix("s0", tuple(f"g{j}" for j in
                                            range(vals.shape[1])),
                                tuple(s.spot_id for s in spots), vals,
                                "log1p")

    def test_report_counts_and_mask(self):
        spots = grid_spots(3, 3)
        vals = np.ones((9, 3))
        vals[4, 0] = 0.0          # one zero, imputable
        vals[:, 2] = 0.0          # all-zero gene
        m = self._matrix(vals, spots)
        den, mask, rep = denoise_slide(m, spots)
        assert den.stage == "denoised"
        assert rep.n_cells == 27
        assert rep.n_zero == 10
        assert rep.n_imputed == 1
        assert rep.genes_nothing_to_impute == ("g2",)
        assert mask.values.sum() == 1
        assert mask.values[4, 0]
        assert den.values[4, 0] == 1.0
        assert (den.values[:, 2] == 0.0).all()

    def test_requires_log_stage(self):
        spots = grid_spots(2, 2)
        m = ExpressionMatrix("s0", ("g0",),
                             tuple(s.spot_id for s in spots),
                             np.ones((4, 1)), "raw_counts")
        with pytest.raises(ValidationError):
            denoise_slide(m, spots)

    def test_requires_alignment(self):
        spots = grid_spots(2, 2)
        m = self._matrix(np.ones((4, 1)), spots)
        with pytest.raises(ShapeMismatch):
            denoise_slide(m, list(reversed(spots)))

    def test_pooled_fraction(self):
        spots = grid_spots(2, 2)
        a = np.ones((4, 2)); a[0, 0] = 0.0
        b = np.ones((4, 2)); b[1, 0] = 0.0; b[2, 1] = 0.0
        ma = self._matrix(a, spots)
        mb = ExpressionMatrix("s1", ("g0", "g1"),
                              tuple(s.spot_id for s in spots), b, "log1p")
        reports = [denoise_slide(m, spots)[2] for m in (ma, mb)]
        pooled = (sum(r.n_imputed for r in reports)
                  / sum(r.n_cells for r in reports))
        assert pooled == 3 / 16
        assert [r.slide_id for r in reports] == ["s0", "s1"]


def scattered_spots(points):
    return [SpotRecord(f"p{k}", "s0", x + nudge, float(y), k, 0)
            for k, (x, y, nudge) in enumerate(points)]


# integer points tie many distances exactly; a 3e-7 nudge makes near ties
# that merge once distances are rounded
layouts = st.one_of(
    st.builds(grid_spots, st.integers(2, 8), st.integers(2, 8)),
    st.builds(hex_spots, st.integers(2, 6), st.integers(1, 5)),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                       st.sampled_from([0.0, 3e-7, -3e-7])),
             min_size=2, max_size=30,
             unique_by=lambda p: p[:2]).map(scattered_spots),
)
# the share of zeros in a gene map; "single" keeps one nonzero cell, so
# most of a large slide lies beyond its seven rings
zero_shares = st.sampled_from([0.1, 0.5, 0.9, 1.0, "single"])


def gene_block(n, shares, seed):
    rng = np.random.default_rng(seed)
    # half the cells on a coarse grid of tied values, half free floats
    vals = np.where(rng.random((n, len(shares))) < 0.5,
                    rng.integers(1, 9, (n, len(shares))) / 2.0,
                    rng.uniform(0.01, 8.0, (n, len(shares))))
    for j, share in enumerate(shares):
        if share == "single":
            keep = np.zeros(n, dtype=bool)
            keep[rng.integers(n)] = True
        else:
            keep = rng.random(n) >= share
        vals[~keep, j] = 0.0
    return vals


def assert_matches_reference(vals, spots):
    m = ExpressionMatrix("s0", tuple(f"g{j}" for j in range(vals.shape[1])),
                         tuple(s.spot_id for s in spots), vals, "log1p")
    den, mask, rep = denoise_slide(m, spots)
    want_den, want_mask, want_rep = reference.denoise_slide(m, spots)
    assert den.values.tobytes() == want_den.values.tobytes()
    assert mask.values.tobytes() == want_mask.values.tobytes()
    assert rep == want_rep
    return want_rep


class TestMatchesPerGeneReference:
    """The one-pass imputation against the per-gene, per-cell loop it
    replaced: the same bits, mask and fallback count."""

    @given(layouts, st.lists(zero_shares, min_size=1, max_size=6),
           st.integers(0, 2 ** 32 - 1))
    def test_random_slides(self, spots, shares, seed):
        assert_matches_reference(gene_block(len(spots), shares, seed), spots)

    def test_seven_ring_fallback(self):
        spots = grid_spots(8, 8)
        vals = gene_block(64, ["single", "single", 0.9, 1.0], 7)
        vals[:, 0] = 0.0
        vals[0, 0] = 2.5
        assert assert_matches_reference(vals, spots).n_fallback > 0

    def test_six_hundred_spots_and_more(self):
        # a slide past 600 spots; the last gene holds values in one corner
        # only, so most of its zeros take the median of those 20 cells
        spots = grid_spots(25, 25)
        vals = gene_block(625, [0.1, 0.5, 0.9, 1.0], 11)
        corner = np.zeros((25, 25), dtype=bool)
        corner[:4, :5] = True
        vals[~corner.reshape(-1), 3] = 0.0
        vals[corner.reshape(-1), 3] = np.arange(1.0, 21.0) / 3.0
        assert assert_matches_reference(vals, spots).n_fallback > 0

    def test_block_must_cover_the_rings(self):
        rings = build_radial_neighborhoods(grid_spots(5, 5))
        with pytest.raises(ShapeMismatch):
            impute_gene_map(np.ones(25), rings)
        with pytest.raises(ShapeMismatch):
            impute_gene_map(np.ones((24, 2)), rings)
