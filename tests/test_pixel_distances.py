"""The pixel-distance helpers in sepal.spatial and their three callers
(auto_radius adjacency, denoiser rings, heatmap spacing), checked against
the dense n x n versions in tests/reference.py."""

import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from helpers import hex_spots, ring_distances, spot_table
from sepal import ingest
from sepal.core import DegenerateCoordinates, ValidationError
from sepal.denoise import build_radial_neighborhoods
from sepal.spatial import (
    AUTO_RADIUS_FACTOR,
    build_adjacency,
    min_pixel_spacing,
    pixel_distance_rows,
)

# half-integer values make many tied distances; free floats make the rest
lattice_coord = st.integers(-8, 8).map(lambda k: k / 2.0)
coord = st.one_of(lattice_coord,
                  st.floats(-20.0, 20.0, allow_nan=False,
                            allow_infinity=False))
point_lists = st.lists(st.tuples(coord, coord), min_size=2, max_size=24)


def as_spots(points):
    return spot_table([(f"p{k}", float(x), float(y), k, 0)
                       for k, (x, y) in enumerate(points)], "s")


def dense_spacing(spots):
    dist = reference.pixel_distances(spots)
    np.fill_diagonal(dist, np.inf)
    return float(dist.min())


def coincident(spots):
    return np.round(dense_spacing(spots), 6) == 0.0


@given(point_lists)
def test_rows_are_the_dense_matrix(points):
    spots = as_spots(points)
    rows = np.stack(list(pixel_distance_rows(spots)))
    assert rows.tobytes() == reference.pixel_distances(spots).tobytes()


@given(point_lists)
def test_min_spacing_matches_dense_minimum(points):
    spots = as_spots(points)
    if coincident(spots):
        with pytest.raises(DegenerateCoordinates):
            min_pixel_spacing(spots)
    else:
        assert min_pixel_spacing(spots) == dense_spacing(spots)


@given(point_lists, st.booleans())
def test_auto_radius_edges_match_dense_reference(points, on_boundary):
    spots = as_spots(points)
    if coincident(spots):
        with pytest.raises(DegenerateCoordinates):
            build_adjacency(spots, "auto_radius")
        return
    if on_boundary:
        # Shift the lowest spot k to y = 0 and put a new spot straight
        # below it at exactly 1.3 * dmin.  Every other spot has y >= 0, so
        # the new spot is farther than dmin from them and dmin is unchanged.
        k = int(np.argmin([y for _, y in points]))
        y0 = points[k][1]
        points = [(x, y - y0) for x, y in points]
        spots = as_spots(points)
        if coincident(spots):
            return
        cutoff = AUTO_RADIUS_FACTOR * dense_spacing(spots)
        spots = as_spots(points + [(points[k][0], -cutoff)])
    adj = build_adjacency(spots, "auto_radius")
    want = reference.auto_radius_edges(spots, AUTO_RADIUS_FACTOR)
    assert adj.edges.dtype == want.dtype
    assert adj.edges.tobytes() == want.tobytes()
    if on_boundary:
        assert [k, len(points)] in adj.edges.tolist()


@given(point_lists, st.integers(0, 8))
def test_rings_match_dense_reference(points, max_rings):
    spots = as_spots(points)
    try:
        want = reference.radial_neighborhoods(spots, max_rings)
    except DegenerateCoordinates:
        with pytest.raises(DegenerateCoordinates):
            build_radial_neighborhoods(spots, max_rings)
        return
    got = build_radial_neighborhoods(spots, max_rings)
    assert got.n_spots == len(spots)
    assert ring_distances(spots, got) == want[1]
    for got_rings, want_rings in zip(got.ring_members, want[0], strict=True):
        assert len(got_rings) == len(want_rings)
        for g, w in zip(got_rings, want_rings):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()


@settings(max_examples=30)
@given(st.lists(st.tuples(lattice_coord, lattice_coord), min_size=1,
                max_size=12, unique=True),
       st.data())
def test_heatmap_bytes_match_dense_spacing(points, data):
    spots = as_spots(points)
    n = len(spots)
    values = np.array(data.draw(st.lists(
        st.floats(-5.0, 5.0, allow_nan=False), min_size=n, max_size=n)))
    missing = np.array(data.draw(st.lists(
        st.booleans(), min_size=n, max_size=n)))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        ingest.write_heatmap(tmp / "new.ppm", spots, values, missing)
        with mock.patch.object(ingest, "min_pixel_spacing",
                               reference.heatmap_spacing):
            ingest.write_heatmap(tmp / "old.ppm", spots, values, missing)
        for suffix in (".ppm", ".csv"):
            assert ((tmp / f"new{suffix}").read_bytes()
                    == (tmp / f"old{suffix}").read_bytes())


@given(point_lists, st.integers(0, 23))
def test_coincident_spots_raise_one_error_class(points, k):
    k %= len(points)
    spots = as_spots(points + [points[k]])
    with pytest.raises(DegenerateCoordinates):
        build_adjacency(spots, "auto_radius")
    with pytest.raises(DegenerateCoordinates):
        build_radial_neighborhoods(spots)
    with pytest.raises(DegenerateCoordinates):
        ingest.write_heatmap(Path(tempfile.gettempdir()) / "unused.ppm",
                             spots, np.zeros(len(spots)))
    # the dense versions raised DegenerateCoordinates, DegenerateCoordinates
    # and a bare ValidationError
    with pytest.raises(DegenerateCoordinates):
        reference.auto_radius_edges(spots)
    with pytest.raises(DegenerateCoordinates):
        reference.radial_neighborhoods(spots)
    with pytest.raises(ValidationError):
        reference.heatmap_spacing(spots)


def test_spots_closer_than_the_rounding_are_coincident(tmp_path):
    spots = spot_table([("a", 0.0, 0.0, 0, 0), ("b", 1e-8, 0.0, 0, 1),
                        ("c", 3.0, 0.0, 0, 2)], "s")
    with pytest.raises(DegenerateCoordinates, match="'a' and 'b'"):
        min_pixel_spacing(spots)
    with pytest.raises(DegenerateCoordinates):
        build_adjacency(spots, "auto_radius")
    with pytest.raises(DegenerateCoordinates):
        ingest.write_heatmap(tmp_path / "h.ppm", spots, np.zeros(3))


def test_spacing_needs_two_spots():
    with pytest.raises(DegenerateCoordinates):
        min_pixel_spacing(as_spots([(0.0, 0.0)]))


def test_ring_builder_peak_memory_is_below_one_dense_matrix():
    spots = hex_spots(45, 45)
    n = len(spots)
    assert n >= 2000
    tracemalloc.start()
    try:
        build_radial_neighborhoods(spots)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8
