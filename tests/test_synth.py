import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from helpers import random_adjacency
from sepal.core import ValidationError, validate_dataset
from sepal.synth import SynthConfig, SynthDataset, generate_dataset, \
    write_dataset
from sepal import ingest, spatial, synth


def small(**kw):
    base = dict(grid_rows=6, grid_cols=6, d_emb=4, n_genes=6, n_smooth=3,
                n_slides=2, seed=0)
    base.update(kw)
    return SynthConfig(**base)


class TestGenerate:
    def test_shapes_and_ids(self):
        ds = generate_dataset(small())
        assert ds.slide_ids == ("synth00", "synth01")
        assert ds.splits == ("train", "val")
        assert ds.gene_ids == ("smooth000", "smooth001", "smooth002",
                               "noise000", "noise001", "noise002")
        spots, expr, emb = ds.parts["synth00"]
        assert len(spots) == 36
        assert expr.values.shape == (36, 6)
        assert emb.vectors.shape == (36, 4)
        assert expr.stage == "log1p"

    def test_split_assignment(self):
        assert generate_dataset(small(n_slides=1)).splits == ("train",)
        assert generate_dataset(small(n_slides=4)).splits == \
            ("train", "val", "test", "test")

    def test_deterministic(self):
        a = generate_dataset(small())
        b = generate_dataset(small())
        for sid in a.slide_ids:
            np.testing.assert_array_equal(a.parts[sid][1].values,
                                          b.parts[sid][1].values)
            np.testing.assert_array_equal(a.parts[sid][2].vectors,
                                          b.parts[sid][2].vectors)

    def test_seed_changes_data(self):
        a = generate_dataset(small())
        b = generate_dataset(small(seed=1))
        assert not np.array_equal(a.parts["synth00"][1].values,
                                  b.parts["synth00"][1].values)

    def test_slides_differ(self):
        ds = generate_dataset(small())
        assert not np.array_equal(ds.parts["synth00"][1].values,
                                  ds.parts["synth01"][1].values)

    def test_planted_zero_count_exact(self):
        cfg = small(grid_rows=10, grid_cols=10, zero_fraction=0.1)
        ds = generate_dataset(cfg)
        values = ds.parts["synth00"][1].values
        want = int(0.1 * 100)
        for j in range(values.shape[1]):
            assert int((values[:, j] == 0.0).sum()) == want

    def test_no_zero_fraction_means_no_zeros(self):
        ds = generate_dataset(small())
        assert (ds.parts["synth00"][1].values > 0).all()

    def test_counts_mode(self):
        ds = generate_dataset(small(counts=True, zero_fraction=0.25,
                                    grid_rows=4, grid_cols=4))
        expr = ds.parts["synth00"][1]
        assert expr.stage == "raw_counts"
        v = expr.values
        assert (v >= 0).all()
        np.testing.assert_array_equal(v, np.rint(v))
        # planted zeros survive the count transform
        assert int((v == 0).sum(axis=0).min()) >= int(0.25 * 16)

    def test_smooth_genes_have_high_autocorrelation(self):
        cfg = SynthConfig(grid_rows=20, grid_cols=20, d_emb=8, n_genes=20,
                          n_smooth=10, n_slides=1, seed=3)
        ds = generate_dataset(cfg)
        spots, expr, _ = ds.parts["synth00"]
        adjacency = spatial.build_adjacency(spots, "square_grid")
        scores = spatial.morans_i_many(expr.values, adjacency)
        smooth = [s for s in scores[:10]]
        noise = [s for s in scores[10:]]
        assert min(smooth) > 0.2
        assert max(abs(s) for s in noise) < 0.15

    def test_all_noise_allowed(self):
        ds = generate_dataset(small(n_smooth=0))
        assert all(g.startswith("noise") for g in ds.gene_ids)

    def test_hex_geometry(self):
        ds = generate_dataset(small(geometry="hex_array",
                                    grid_rows=6, grid_cols=5))
        spots, expr, _ = ds.parts["synth00"]
        adjacency = spatial.build_adjacency(spots, "hex_array")
        degrees = np.bincount(adjacency.edges.ravel(),
                              minlength=adjacency.n_spots)
        assert int(max(degrees)) == 6
        assert expr.values.shape[0] == 30

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SynthConfig(n_genes=0)
        with pytest.raises(ValidationError):
            SynthConfig(n_smooth=40, n_genes=32)
        with pytest.raises(ValidationError):
            SynthConfig(zero_fraction=1.0)
        with pytest.raises(ValidationError):
            SynthConfig(geometry="auto_radius")


class TestWrite:
    def test_round_trip_through_files(self, tmp_path):
        ds = generate_dataset(small())
        manifest_path = write_dataset(ds, tmp_path)
        manifest = ingest.read_manifest(manifest_path)
        assert manifest.geometry == "square_grid"
        assert len(manifest.slides) == 2
        assert [s.split for s in manifest.slides] == ["train", "val"]
        parts = {e.slide_id: ingest.read_slide(e) for e in manifest.slides}
        validate_dataset(manifest, lambda e: parts[e.slide_id])
        for sid in ds.slide_ids:
            np.testing.assert_array_equal(parts[sid][1].values,
                                          ds.parts[sid][1].values)
            np.testing.assert_array_equal(parts[sid][2].vectors,
                                          ds.parts[sid][2].vectors)

    def test_byte_identical_across_runs(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        write_dataset(generate_dataset(small()), a_dir)
        write_dataset(generate_dataset(small()), b_dir)
        for fa in sorted(a_dir.iterdir()):
            fb = b_dir / fa.name
            assert fa.read_bytes() == fb.read_bytes()

    def test_select_count_recorded(self, tmp_path):
        # the whole panel, up to 256 genes
        ds = generate_dataset(small())
        manifest = ingest.read_manifest(write_dataset(ds, tmp_path))
        assert manifest.n_genes_select == ds.config.n_genes


@pytest.mark.deep
class TestNeighborMean:
    @given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.integers(1, 6))
    def test_same_bits_as_the_edge_loop(self, seed, connected, width):
        # entries over many magnitudes, so a sum in another order rounds
        # to other bits
        adjacency, rng = random_adjacency(seed, n_min=1,
                                          connected=connected)
        emb = (rng.standard_normal((adjacency.n_spots, width))
               * 10.0 ** rng.integers(-8, 9, size=(adjacency.n_spots,
                                                   width)))
        got = synth._neighbor_mean(emb, adjacency)
        want = reference.neighbor_mean(emb, adjacency)
        assert got.tobytes() == want.tobytes()
