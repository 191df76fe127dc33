import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from helpers import (
    grid_spots,
    hex_spots,
    lattices_with_holes,
    ring_distances,
    ring_lists,
    spot_table,
)
from sepal import denoise
from sepal.core import (
    DegenerateCoordinates,
    ExpressionMatrix,
    ShapeMismatch,
    ValidationError,
)
from sepal.denoise import (
    MAX_RINGS,
    build_radial_neighborhoods,
    denoise_slide,
    impute_gene_map,
)


def oracle_impute(values, spots, max_rings=MAX_RINGS):
    """Independent reimplementation: explicit sorted-unique-distance scan."""
    values = np.asarray(values, dtype=float)
    n = len(spots)
    pts = spots.pixel.tolist()
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
        rings = build_radial_neighborhoods(spots, "square_grid")
        d = ring_distances(spots, rings)[0]
        np.testing.assert_allclose(
            d, [1.0, round(np.sqrt(2), 6), 2.0, round(np.sqrt(5), 6),
                round(np.sqrt(8), 6), 3.0, round(np.sqrt(10), 6)],
            atol=5e-7)
        assert len(ring_lists(rings)[0]) == 7
        # ring members come in index order
        assert list(ring_lists(rings)[0][0]) == [1, 5]

    def test_center_of_5x5_has_only_five_rings(self):
        spots = grid_spots(5, 5)
        rings = ring_lists(build_radial_neighborhoods(spots, "square_grid"))
        center = 2 * 5 + 2
        assert len(rings[center]) == 5
        assert [len(m) for m in rings[center]] == [4, 4, 4, 8, 4]

    def test_equal_lattice_norms_share_a_ring(self):
        # (0, 5) and (3, 4) from a have one lattice norm, 25, but their
        # pixels, nudged as registration leaves them, are 4e-7 apart
        spots = spot_table([("a", 0.0, 0.0, 0, 0), ("b", 5.0, 0.0, 0, 5),
                            ("c", 4.0, 3.0000004, 3, 4)], "s")
        rings = ring_lists(build_radial_neighborhoods(spots, "square_grid"))
        assert [list(r) for r in rings[0]] == [[1, 2]]

    def test_thin_strip_grows_the_template(self):
        # one row of a square lattice: the seventh ring sits seven columns
        # away, past the first template's reach
        rings = ring_lists(build_radial_neighborhoods(grid_spots(1, 20),
                                                      "square_grid"))
        assert [list(r) for r in rings[0]] == [[k] for k in range(1, 8)]
        assert [len(r) for r in rings[10]] == [2] * 7

    def test_single_spot_rejected(self):
        with pytest.raises(DegenerateCoordinates):
            build_radial_neighborhoods(grid_spots(1, 1), "square_grid")

    def test_unknown_geometry_rejected(self):
        with pytest.raises(ValidationError, match="auto_radius"):
            build_radial_neighborhoods(grid_spots(2, 2), "auto_radius")


def impute_one(values, spots, geometry="square_grid"):
    """One gene map through denoise_slide, hence one impute_gene_map call,
    with the per-gene outcome read off the slide's matrix, mask and
    report."""
    m = ExpressionMatrix("s0", ("g0",), spots.spot_ids,
                         np.asarray(values, dtype=float)[:, None], "log1p")
    den, mask, rep = denoise_slide(m, spots, geometry)
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
        spots = spot_table([(f"c{c}", float(c), 0.0, 0, c)
                            for c in range(5)], "s")
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

    @given(st.booleans(), st.booleans())
    def test_result_independent_of_spot_order(self, flip_rows, flip_cols):
        rng = np.random.default_rng(99)
        spots = grid_spots(3, 4)
        vals = rng.random(12) + 0.1
        vals[[1, 5, 7]] = 0.0
        base = impute_one(vals, spots).values
        # the same slide mirrored: every spot keeps its neighbours, but a
        # table lists its spots by array position, so they come in
        # another order
        r, c = spots.array.T
        mirrored = spot_table([
            (sid, *xy, 2 - rr if flip_rows else rr,
             3 - cc if flip_cols else cc)
            for sid, xy, rr, cc in zip(spots.spot_ids, spots.pixel, r, c)])
        index = {sid: k for k, sid in enumerate(mirrored.spot_ids)}
        order = [index[sid] for sid in spots.spot_ids]
        vals_m = np.empty(12)
        vals_m[order] = vals
        got = impute_one(vals_m, mirrored).values
        assert got[order].tobytes() == base.tobytes()


class TestDenoiseSlide:
    def _matrix(self, vals, spots):
        return ExpressionMatrix("s0", tuple(f"g{j}" for j in
                                            range(vals.shape[1])),
                                spots.spot_ids, vals,
                                "log1p")

    def test_report_counts_and_mask(self):
        spots = grid_spots(3, 3)
        vals = np.ones((9, 3))
        vals[4, 0] = 0.0          # one zero, imputable
        vals[:, 2] = 0.0          # all-zero gene
        m = self._matrix(vals, spots)
        den, mask, rep = denoise_slide(m, spots, "square_grid")
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
                             spots.spot_ids,
                             np.ones((4, 1)), "raw_counts")
        with pytest.raises(ValidationError):
            denoise_slide(m, spots, "square_grid")

    def test_requires_alignment(self):
        spots = grid_spots(2, 2)
        m = ExpressionMatrix("s0", ("g0",), spots.spot_ids[::-1],
                             np.ones((4, 1)), "log1p")
        with pytest.raises(ShapeMismatch):
            denoise_slide(m, spots, "square_grid")

    def test_pooled_fraction(self):
        spots = grid_spots(2, 2)
        a = np.ones((4, 2)); a[0, 0] = 0.0
        b = np.ones((4, 2)); b[1, 0] = 0.0; b[2, 1] = 0.0
        ma = self._matrix(a, spots)
        mb = ExpressionMatrix("s1", ("g0", "g1"),
                              spots.spot_ids, b, "log1p")
        reports = [denoise_slide(m, spots, "square_grid")[2]
                   for m in (ma, mb)]
        pooled = (sum(r.n_imputed for r in reports)
                  / sum(r.n_cells for r in reports))
        assert pooled == 3 / 16
        assert [r.slide_id for r in reports] == ["s0", "s1"]

    def test_peak_holds_one_copy_of_the_slide(self):
        # the output and the masks, not a second copy of the values for
        # the medians to read: a 1024-spot, 1000-gene slide of half zeros
        # peaks about 1.4 slides above entry, and 2.4 with such a copy
        spots = hex_spots(32, 32)
        rng = np.random.default_rng(0)
        vals = rng.uniform(0.01, 8.0, (len(spots), 1000))
        vals[rng.random(vals.shape) < 0.5] = 0.0
        m = self._matrix(vals, spots)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            denoise_slide(m, spots, "hex_array")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * vals.nbytes, peak / vals.nbytes


# lattices with exact pixels, where lattice rings are the pixel rings the
# reference builds, including ones with holes
layouts = st.one_of(
    st.builds(lambda r, c: (grid_spots(r, c), "square_grid"),
              st.integers(2, 8), st.integers(2, 8)),
    st.builds(lambda r, c: (hex_spots(r, c), "hex_array"),
              st.integers(2, 6), st.integers(1, 5)),
    lattices_with_holes(),
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


def assert_matches_reference(vals, spots, geometry="square_grid"):
    m = ExpressionMatrix("s0", tuple(f"g{j}" for j in range(vals.shape[1])),
                         spots.spot_ids, vals, "log1p")
    den, mask, rep = denoise_slide(m, spots, geometry)
    want_den, want_mask, want_rep = reference.denoise_slide(m, spots)
    assert den.values.tobytes() == want_den.values.tobytes()
    assert mask.values.tobytes() == want_mask.values.tobytes()
    assert rep == want_rep
    return want_rep


class TestMatchesPerGeneReference:
    """The ring-by-ring imputation against the per-gene, per-cell loop
    and the per-spot pass it replaced, both on pixel rings: the same bits,
    mask and fallback count."""

    @given(layouts, st.lists(zero_shares, min_size=1, max_size=6),
           st.integers(0, 2 ** 32 - 1))
    def test_random_slides(self, layout, shares, seed):
        spots, geometry = layout
        assert_matches_reference(gene_block(len(spots), shares, seed),
                                 spots, geometry)

    @given(lattices_with_holes(max_side=9),
           st.lists(zero_shares, min_size=1, max_size=6),
           st.integers(0, 2 ** 32 - 1))
    def test_matches_per_spot_reference(self, layout, shares, seed):
        spots, geometry = layout
        vals = gene_block(len(spots), shares, seed)
        got, n_fallback = impute_gene_map(
            vals, build_radial_neighborhoods(spots, geometry))
        want, want_fallback = reference.impute_by_spot(
            vals, reference.build_radial_neighborhoods(spots))
        assert got.tobytes() == want.tobytes()
        assert n_fallback == want_fallback

    def test_blocks_of_cells_cover_a_large_slide(self, monkeypatch):
        # more zero cells than one pass gathers: the passes split them
        monkeypatch.setattr(denoise, "IMPUTE_CELLS", 64)
        spots = hex_spots(12, 10)
        vals = gene_block(len(spots), [0.1, 0.5, 0.9, "single"], 5)
        got, n_fallback = impute_gene_map(
            vals, build_radial_neighborhoods(spots, "hex_array"))
        want, want_fallback = reference.impute_by_spot(
            vals, reference.build_radial_neighborhoods(spots))
        assert got.tobytes() == want.tobytes()
        assert n_fallback == want_fallback > 0

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
        rings = build_radial_neighborhoods(grid_spots(5, 5), "square_grid")
        with pytest.raises(ShapeMismatch):
            impute_gene_map(np.ones(25), rings)
        with pytest.raises(ShapeMismatch):
            impute_gene_map(np.ones((24, 2)), rings)
