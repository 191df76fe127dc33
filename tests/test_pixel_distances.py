"""The lattice neighbourhoods in sepal.spatial and sepal.denoise and the
pixel checks left beside them (denoiser rings, heatmap spacing, the
coincident-pixel check), against the dense n x n pixel-distance versions
in tests/reference.py: on a lattice with exact pixels the two agree."""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from helpers import hex_spots, lattices_with_holes, ring_lists, spot_table
from sepal import ingest
from sepal.core import DegenerateCoordinates, EmptyAdjacency, ValidationError
from sepal.denoise import build_radial_neighborhoods
from sepal.spatial import build_adjacency, min_pixel_spacing

# half-integer values make many tied distances; free floats make the rest
lattice_coord = st.integers(-8, 8).map(lambda k: k / 2.0)
coord = st.one_of(lattice_coord,
                  st.floats(-20.0, 20.0, allow_nan=False,
                            allow_infinity=False))
point_lists = st.lists(st.tuples(coord, coord), min_size=2, max_size=24)


def as_spots(points):
    """The points as spots down one square_grid column, in list order."""
    return spot_table([(f"p{k}", float(x), float(y), k, 0)
                       for k, (x, y) in enumerate(points)], "s")


def dense_spacing(spots):
    dist = reference.pixel_distances(spots)
    np.fill_diagonal(dist, np.inf)
    return float(dist.min())


@given(lattices_with_holes())
def test_min_spacing_matches_dense_minimum(lattice):
    spots, geometry = lattice
    if build_adjacency(spots, geometry).n_edges == 0:
        with pytest.raises(EmptyAdjacency):
            min_pixel_spacing(spots, geometry)
    else:
        assert min_pixel_spacing(spots, geometry) == dense_spacing(spots)


@given(lattices_with_holes(), st.integers(0, 8))
def test_rings_match_dense_reference(lattice, max_rings):
    spots, geometry = lattice
    got = build_radial_neighborhoods(spots, geometry, max_rings)
    want = reference.build_radial_neighborhoods(spots, max_rings)
    assert got.n_spots == len(spots)
    assert got.members.dtype == got.ring_ends.dtype == np.int64
    for got_rings, want_rings in zip(ring_lists(got), want, strict=True):
        assert len(got_rings) == len(want_rings)
        for g, w in zip(got_rings, want_rings):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()


def test_rings_survive_registered_pixels():
    # registered Space Ranger positions: the lattice rotated a little,
    # scaled and rounded to whole pixels, so equal lattice distances no
    # longer give equal pixel distances
    exact = hex_spots(15, 8)
    angle, scale = 0.01, 69.0
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    spots = spot_table([(sid, *np.rint(scale * rot @ xy), r, c)
                        for sid, xy, (r, c) in zip(
                            exact.spot_ids, exact.pixel,
                            exact.array.tolist())])
    centre = spots.spot_ids.index("r7c7")
    rings = ring_lists(build_radial_neighborhoods(spots, "hex_array"))
    assert [len(r) for r in rings[centre]] == [6, 6, 6, 12, 6, 6, 12]
    # grouped by rounded pixel distance, the same spot's seven rings
    # split into near singletons
    pixel_rings = reference.build_radial_neighborhoods(spots)[centre]
    assert sum(len(r) for r in pixel_rings) < 54


@settings(max_examples=30)
@given(lattices_with_holes(max_side=4), st.data())
def test_heatmap_bytes_match_dense_spacing(lattice, data):
    spots, geometry = lattice
    if build_adjacency(spots, geometry).n_edges == 0:
        return
    n = len(spots)
    values = np.array(data.draw(st.lists(
        st.floats(-5.0, 5.0, allow_nan=False), min_size=n, max_size=n)))
    missing = np.array(data.draw(st.lists(
        st.booleans(), min_size=n, max_size=n)))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        ingest.write_heatmap(tmp / "new.ppm", spots, values,
                             min_pixel_spacing(spots, geometry), missing)
        ingest.write_heatmap(tmp / "old.ppm", spots, values,
                             reference.heatmap_spacing(spots), missing)
        for suffix in (".ppm", ".csv"):
            assert ((tmp / f"new{suffix}").read_bytes()
                    == (tmp / f"old{suffix}").read_bytes())


@given(point_lists, st.integers(0, 23))
def test_coincident_spots_raise_one_error_class(points, k):
    k %= len(points)
    spots = as_spots(points + [points[k]])
    with pytest.raises(DegenerateCoordinates):
        build_radial_neighborhoods(spots, "square_grid")
    with pytest.raises(DegenerateCoordinates):
        min_pixel_spacing(spots, "square_grid")
    # the dense versions raised DegenerateCoordinates and a bare
    # ValidationError
    with pytest.raises(DegenerateCoordinates):
        reference.build_radial_neighborhoods(spots)
    with pytest.raises(ValidationError):
        reference.heatmap_spacing(spots)


def test_spots_closer_than_the_rounding_are_coincident():
    spots = spot_table([("a", 0.0, 0.0, 0, 0), ("b", 1e-8, 0.0, 0, 1),
                        ("c", 3.0, 0.0, 0, 2)], "s")
    with pytest.raises(DegenerateCoordinates, match="'a' and 'b'"):
        min_pixel_spacing(spots, "square_grid")
    with pytest.raises(DegenerateCoordinates, match="'a' and 'b'"):
        build_radial_neighborhoods(spots, "square_grid")


def test_spacing_needs_two_spots():
    with pytest.raises(DegenerateCoordinates):
        min_pixel_spacing(as_spots([(0.0, 0.0)]), "square_grid")


def test_ring_builder_peak_memory_is_below_one_dense_matrix():
    spots = hex_spots(45, 45)
    n = len(spots)
    assert n >= 2000
    tracemalloc.start()
    try:
        build_radial_neighborhoods(spots, "hex_array")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8

