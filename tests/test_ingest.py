import dataclasses
import math
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from helpers import grid_spots, hex_spots, lattices_with_holes, spot_table

from sepal.core import (
    DuplicateSpot,
    EmbeddingTable,
    EmptySlide,
    ExpressionMatrix,
    ImputationMask,
    MalformedRow,
    NonFiniteValue,
    SpotTable,
    StageOrderViolation,
    ValidationError,
    WidthMismatch,
)
from sepal import ingest
from sepal.ingest import (
    fmt_float,
    read_checkpoint,
    read_coordinates,
    read_embeddings,
    read_expression,
    read_manifest,
    read_mask,
    read_matrix,
    write_checkpoint,
    write_coordinates,
    write_embeddings,
    write_expression,
    write_heatmap,
    write_manifest,
    write_mask,
    write_matrix,
)
from sepal.spatial import build_adjacency, min_pixel_spacing

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
COUNT_STAGES = ("raw_counts",)
# whole non-negative floats past int64's range, and the edges of it
COUNTS = st.one_of(st.integers(0, 2 ** 70).map(float),
                   st.sampled_from([-0.0, 2.0 ** 63 - 1024, 2.0 ** 63,
                                    2.0 ** 64]))


def spot(sid, row, col):
    return (sid, float(col) * 10.0, float(row) * 10.0, row, col)


def write_coords_text(path, rows):
    """A coordinates TSV of (spot_id, slide_id, pixel_x, pixel_y,
    array_row, array_col) rows, written as given."""
    path.write_text("\t".join(ingest.COORD_COLUMNS) + "\n" + "".join(
        "\t".join(map(str, row)) + "\n" for row in rows))


class TestFloatFormat:
    @given(finite_floats)
    def test_repr_round_trips_exactly(self, x):
        assert float(fmt_float(x)) == x or (math.isnan(x))

    def test_shortest_form(self):
        assert fmt_float(0.1) == "0.1"
        assert fmt_float(1.0) == "1.0"
        assert fmt_float(1e-17) == "1e-17"


class TestCoordinates:
    def test_round_trip(self, tmp_path):
        spots = spot_table([spot("b", 1, 0), spot("a", 0, 0)])
        p = tmp_path / "s0.coords.tsv"
        write_coordinates(p, spots)
        got = read_coordinates(p)
        assert got.slide_id == "s0"
        assert got.spot_ids == ("a", "b")
        assert got.pixel.tolist() == [[0.0, 0.0], [0.0, 10.0]]
        assert got.array.tolist() == [[0, 0], [1, 0]]

    @given(st.permutations(list(range(12))))
    def test_row_order_of_the_file_does_not_matter(self, perm):
        rows = [(f"s{i}", "s0", 0.1 * i, 2.0 - i, i // 4, i % 4 * 2 - 3)
                for i in range(12)]
        with tempfile.TemporaryDirectory() as d:
            write_coords_text(Path(d) / "sorted.tsv", rows)
            write_coords_text(Path(d) / "shuffled.tsv",
                              [rows[i] for i in perm])
            a = read_coordinates(Path(d) / "sorted.tsv")
            b = read_coordinates(Path(d) / "shuffled.tsv")
        assert a.spot_ids == b.spot_ids
        assert a.pixel.tobytes() == b.pixel.tobytes()
        assert a.array.tobytes() == b.array.tobytes()

    def test_bad_header(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("spot\tslide\n")
        with pytest.raises(MalformedRow):
            read_coordinates(p)

    def test_non_numeric_cell(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("spot_id\tslide_id\tpixel_x\tpixel_y\tarray_row"
                     "\tarray_col\na\ts0\tx\t0\t0\t0\n")
        with pytest.raises(MalformedRow):
            read_coordinates(p)

    def test_duplicate_spot_id(self, tmp_path):
        p = tmp_path / "c.tsv"
        write_coords_text(p, [("a", "s0", 0.0, 0.0, 0, 0),
                              ("a", "s0", 1.0, 1.0, 1, 1)])
        with pytest.raises(DuplicateSpot,
                           match=re.escape(f"{p}: duplicate spot id 'a'")):
            read_coordinates(p)

    def test_duplicate_array_position(self, tmp_path):
        p = tmp_path / "c.tsv"
        write_coords_text(p, [("a", "s0", 0.0, 0.0, 3, 1),
                              ("b", "s0", 1.0, 1.0, 3, 1)])
        with pytest.raises(DuplicateSpot,
                           match=re.escape(f"{p}: two spots at array "
                                           f"position (3, 1)")):
            read_coordinates(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("spot_id\tslide_id\tpixel_x\tpixel_y\tarray_row"
                     "\tarray_col\n")
        with pytest.raises(EmptySlide):
            read_coordinates(p)

    def test_mixed_slide_ids(self, tmp_path):
        p = tmp_path / "c.tsv"
        write_coords_text(p, [("a", "s0", 0.0, 0.0, 0, 0),
                              ("b", "s1", 0.0, 10.0, 1, 0)])
        with pytest.raises(MalformedRow):
            read_coordinates(p)


# cells that int(), float() and np.loadtxt read differently or refuse
COORD_TOKENS = ("1_0", " 2 ", "+3", "-0", "1.0", "1e3", "nan", "-inf",
                "1e999", "0x1", "\u0663", "", "1,5", "x",
                "9223372036854775808", "99999999999999999999")


@st.composite
def coordinate_tables(draw):
    """A coordinates table of up to ten rows, as bytes, with CRLF or LF
    line ends, comment and blank lines anywhere, and now and then an odd
    cell, a repeated id or position, another slide id, a trailing tab, a
    missing cell or a line that is not UTF-8."""
    newline = draw(st.sampled_from(("\n", "\r\n")))

    def rarely():
        return draw(st.integers(0, 9)) == 0

    lines = ["#kind=coordinates", "\t".join(ingest.COORD_COLUMNS)]
    for r in range(draw(st.integers(0, 10))):
        if rarely():
            lines.append(draw(st.sampled_from(("#note=mid-file", "#", ""))))
        cells = [fmt_float(draw(finite_floats)),
                 fmt_float(draw(finite_floats)),
                 str(r // 2 if rarely() else r),
                 str(draw(st.integers(-3, 3)))]
        cells = [draw(st.sampled_from(COORD_TOKENS)) if rarely() else c
                 for c in cells]
        if rarely():
            cells.append("" if rarely() else "7")
        elif rarely():
            cells.pop()
        lines.append("\t".join((f"s{r - 1 if rarely() else r}",
                                "s1" if rarely() else "s0", *cells)))
    data = (newline.join(lines) + newline).encode()
    if rarely():
        data += b"s99\ts0\t\xff\t0\t0\t0" + newline.encode()
    return data


def _coords_outcome(read, path):
    """A SpotTable's fields as raw bytes, or the error reading it raises."""
    try:
        t = read(path)
    except ValidationError as e:
        return type(e), str(e)
    return t.slide_id, t.spot_ids, t.pixel.tobytes(), t.array.tobytes()


class TestCoordinateBlocks:
    """The block parser of coordinates against the row parser."""

    @given(coordinate_tables())
    def test_blocks_read_what_rows_read(self, scratch_tsv, data):
        # blocks of three lines, so most tables span several
        scratch_tsv.write_bytes(data)
        with mock.patch.object(ingest, "VALUE_BLOCK_LINES", 3):
            blocks = _coords_outcome(read_coordinates, scratch_tsv)
        assert blocks == _coords_outcome(reference.read_coordinates,
                                         scratch_tsv)

    def test_clean_blocks_skip_the_row_parser(self, tmp_path):
        p = tmp_path / "s0.tsv"
        write_coords_text(p, [(f"s{i}", "s0", i / 3, -i * 1e-3, i // 50,
                               i % 50 - 25) for i in range(2500)])
        with mock.patch.object(ingest, "_coordinate_row",
                               side_effect=AssertionError("row parser")):
            spots = read_coordinates(p)
        assert spots.array[-1].tolist() == [49, 24]
        assert spots.pixel[-1].tolist() == [2499 / 3, -2.499]

    def test_array_position_past_64_bits_is_named(self, tmp_path):
        p = tmp_path / "c.tsv"
        write_coords_text(p, [("a", "s0", 0.0, 0.0, 2 ** 63, 0)])
        with pytest.raises(MalformedRow, match="does not fit in 64 bits"):
            read_coordinates(p)

    def test_float_in_an_array_column_is_named(self, tmp_path):
        p = tmp_path / "c.tsv"
        write_coords_text(p, [("a", "s0", 0.0, 0.0, 0, 0),
                              ("b", "s0", 1.0, 1.0, "1.0", 1)])
        with pytest.raises(MalformedRow,
                           match=re.escape(f"{p}:3: '1.0' is not an integer")):
            read_coordinates(p)


class TestExpression:
    def test_round_trip_float_stage(self, tmp_path):
        rng = np.random.default_rng(0)
        m = ExpressionMatrix("s0", ("g1", "g2", "g3"), ("a", "b"),
                             rng.random((2, 3)), "log1p")
        p = tmp_path / "e.tsv"
        write_expression(p, m)
        got = read_expression(p)
        assert got.slide_id == "s0"
        assert got.stage == "log1p"
        assert got.gene_ids == m.gene_ids
        assert got.spot_ids == m.spot_ids
        np.testing.assert_array_equal(got.values, m.values)

    def test_round_trip_counts_written_as_integers(self, tmp_path):
        m = ExpressionMatrix("s0", ("g1",), ("a",), [[7.0]], "raw_counts")
        p = tmp_path / "e.tsv"
        write_expression(p, m)
        assert "7.0" not in p.read_text()
        got = read_expression(p)
        assert got.values[0, 0] == 7.0

    def test_byte_determinism(self, tmp_path):
        rng = np.random.default_rng(1)
        m = ExpressionMatrix("s0", ("g1", "g2"), ("a", "b"),
                             rng.random((2, 2)), "log1p")
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_expression(p1, m)
        write_expression(p2, m)
        assert p1.read_bytes() == p2.read_bytes()

    def test_nan_cell_rejected(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("#stage=log1p\nspot_id\tg1\na\tnan\n")
        with pytest.raises(NonFiniteValue):
            read_expression(p)

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("#stage=log1p\nspot_id\tg1\tg2\na\t1.0\n")
        with pytest.raises(MalformedRow):
            read_expression(p)

    def test_slide_id_falls_back_to_file_stem(self, tmp_path):
        p = tmp_path / "slideX.expr.tsv"
        p.write_text("#stage=log1p\nspot_id\tg1\na\t1.0\n")
        assert read_expression(p).slide_id == "slideX"

    @given(st.integers(0, 2 ** 32 - 1))
    def test_random_matrix_round_trip(self, scratch_tsv, seed):
        rng = np.random.default_rng(seed)
        # whole counts of up to 70 bits, every one exact as a float
        counts = np.ldexp(rng.integers(0, 2 ** 20, size=(3, 4)),
                          rng.integers(0, 51, size=(3, 4)))
        for stage, vals in (("denoised", rng.normal(size=(3, 4)) ** 3),
                            *((stage, counts) for stage in COUNT_STAGES)):
            m = ExpressionMatrix("s0", tuple(f"g{i}" for i in range(4)),
                                 ("a", "b", "c"), vals, stage)
            write_expression(scratch_tsv, m)
            back = read_expression(scratch_tsv)
            assert (back.stage, back.spot_ids) == (stage, m.spot_ids)
            assert back.values.tobytes() == m.values.tobytes()


class TestEmbeddings:
    def test_round_trip(self, tmp_path):
        t = EmbeddingTable("s0", ("a", "b"), np.array([[1.5, -2.0], [0.0, 3.25]]))
        p = tmp_path / "emb.tsv"
        write_embeddings(p, t)
        got = read_embeddings(p)
        assert got.spot_ids == t.spot_ids
        np.testing.assert_array_equal(got.vectors, t.vectors)

    def test_short_row_is_width_mismatch(self, tmp_path):
        p = tmp_path / "emb.tsv"
        p.write_text("spot_id\te0\te1\te2\na\t1.0\t2.0\n")
        with pytest.raises(WidthMismatch):
            read_embeddings(p)

    def test_misnamed_column(self, tmp_path):
        p = tmp_path / "emb.tsv"
        p.write_text("spot_id\te0\tf1\na\t1.0\t2.0\n")
        with pytest.raises(MalformedRow):
            read_embeddings(p)


class TestMask:
    def test_round_trip(self, tmp_path):
        m = ImputationMask("s0", ("g1", "g2"), ("a", "b"),
                           np.array([[True, False], [False, True]]))
        p = tmp_path / "m.npz"
        write_mask(p, m)
        got = read_mask(p, "denoise")
        np.testing.assert_array_equal(got.values, m.values)

    def test_rejects_other_values(self, tmp_path):
        p = tmp_path / "m.npz"
        write_checkpoint(p, {"kind": "mask", "slide": "s0"}, {
            "values": np.array([[3]]), "spot_ids": np.array(["a"]),
            "gene_ids": np.array(["g1"])})
        with pytest.raises(ValidationError, match="sepal select"):
            read_mask(p, "select")


# cells float() refuses, cells that parse to a non-finite value, and cells
# that parse although they look odd
ODD_CELLS = ("x", "", "1.0.0", "0x10", "nan", "NaN", "-inf", "Infinity",
             "1e309", "-1e309", " 1.5", "2.5  ", " nan ", "1_0", "1__0",
             "_1", "1e-400")


@st.composite
def tables_with_one_odd_cell(draw):
    """(kind, table text): repr-formatted cells, one replaced by an odd
    cell at any row and column."""
    n_rows = draw(st.integers(1, 4))
    n_cols = draw(st.integers(1, 5))
    cells = [[fmt_float(draw(finite_floats)) for _ in range(n_cols)]
             for _ in range(n_rows)]
    row = draw(st.integers(0, n_rows - 1))
    cells[row][draw(st.integers(0, n_cols - 1))] = \
        draw(st.sampled_from(ODD_CELLS))
    lines = ["#stage=denoised",
             "spot_id\t" + "\t".join(f"e{c}" for c in range(n_cols))]
    lines += [f"s{r}\t" + "\t".join(cells[r]) for r in range(n_rows)]
    kind = draw(st.sampled_from(("expression", "embeddings", "mask")))
    return kind, "\n".join(lines) + "\n"


def _outcome(read, path, kind):
    """What a reader returns, values as raw bytes, or the error it raises."""
    try:
        comments, col_ids, spot_ids, values = read(path, kind)
    except ValidationError as e:
        return type(e), str(e)
    return comments, col_ids, spot_ids, values.shape, values.tobytes()


# cells that float() and np.loadtxt read differently or refuse, one of them
# in about every tenth cell
BLOCK_TOKENS = ("1_0", " 2 ", "nan", "-inf", "1e999", "0x1", "\u0661", "",
                "1,5")


@st.composite
def tables_in_blocks(draw):
    """(kind, table text) of up to ten rows, with CRLF or LF line ends,
    comment and blank lines anywhere and now and then a trailing tab."""
    n_cols = draw(st.integers(1, 4))
    newline = draw(st.sampled_from(("\n", "\r\n")))

    def rarely():
        return draw(st.integers(0, 9)) == 0

    lines = ["#stage=denoised",
             "spot_id\t" + "\t".join(f"e{c}" for c in range(n_cols))]
    for r in range(draw(st.integers(0, 10))):
        if rarely():
            lines.append(draw(st.sampled_from(("#note=mid-file", "#", ""))))
        cells = [draw(st.sampled_from(BLOCK_TOKENS)) if rarely()
                 else fmt_float(draw(finite_floats)) for _ in range(n_cols)]
        lines.append(f"s{r}\t" + "\t".join(cells)
                     + ("\t" if rarely() else ""))
    kind = draw(st.sampled_from(("expression", "embeddings")))
    return kind, newline.join(lines) + newline


@pytest.fixture(scope="module")
def scratch_tsv(tmp_path_factory):
    return tmp_path_factory.mktemp("codec") / "s0.tsv"


class TestRowCodec:
    """The row-at-a-time reader and writers against the per-cell ones."""

    @given(tables_with_one_odd_cell())
    def test_reader_matches_per_cell_reader(self, scratch_tsv, table):
        kind, text = table
        scratch_tsv.write_text(text)
        assert (_outcome(ingest._read_value_table, scratch_tsv, kind)
                == _outcome(reference.read_value_table, scratch_tsv, kind))

    @given(tables_in_blocks())
    def test_block_parser_matches_row_parser(self, scratch_tsv, table):
        # blocks of three lines, so most tables span several
        kind, text = table
        scratch_tsv.write_bytes(text.encode())
        with mock.patch.object(ingest, "VALUE_BLOCK_LINES", 3):
            blocks = _outcome(ingest._read_value_table, scratch_tsv, kind)
            with mock.patch.object(ingest, "_load_block",
                                   return_value=None):
                rows = _outcome(ingest._read_value_table, scratch_tsv, kind)
        assert blocks == rows

    def test_clean_blocks_skip_the_row_parser(self, tmp_path):
        p = tmp_path / "s0.tsv"
        p.write_text("spot_id\te0\te1\n"
                     + "".join(f"s{r}\t{r}.5\t-{r}e-3\n" for r in range(2500)))
        with mock.patch.object(ingest, "_value_row",
                               side_effect=AssertionError("row parser")):
            table = read_embeddings(p)
        assert table.vectors.shape == (2500, 2)
        assert table.vectors[2499].tolist() == [2499.5, -2.499]

    def test_one_block_table_is_held_as_parsed(self, tmp_path):
        # a table of one block is neither concatenated nor copied into
        # its matrix; a longer one is joined once
        p = tmp_path / "s0.tsv"
        p.write_text("spot_id\ta\tb\n"
                     + "".join(f"s{r}\t{r}\t1\n" for r in range(5)))
        parsed = []

        def keep(*args):
            parsed.append(parse(*args))
            return parsed[-1]

        parse = ingest._load_block
        with mock.patch.object(ingest, "_load_block", keep):
            assert read_expression(p).values is parsed[0]
            with mock.patch.object(ingest, "VALUE_BLOCK_LINES", 2):
                m = read_expression(p)
        assert len(parsed) == 4
        assert m.values.tolist() == [[r, 1] for r in range(5)]

    def test_numeric_spot_id_without_values_is_named(self, tmp_path):
        # the line's one field parses as a value, but it is the spot id
        p = tmp_path / "s0.tsv"
        p.write_text("spot_id\te0\na\t1.5\n7\n")
        with pytest.raises(WidthMismatch,
                           match=re.escape(f"{p}:3: 0 values under a "
                                           f"1-wide header")):
            read_embeddings(p)

    def test_bad_row_before_an_undecodable_line_is_named(self, tmp_path):
        # the file is decoded in chunks: the bad byte, past the first
        # chunk, stops the read while the bad row's block is still open
        p = tmp_path / "s0.tsv"
        p.write_bytes(b"spot_id\te0\ns0\tx\n"
                      + b"".join(b"s%d\t%d.5\n" % (r, r)
                                 for r in range(1, 1000))
                      + b"s1000\t\xff\n")
        with pytest.raises(MalformedRow,
                           match=re.escape(f"{p}:2: 'x' is not a number")):
            read_embeddings(p)

    def test_first_bad_cell_of_a_row_is_named(self, tmp_path):
        # float() fails on the second cell; the first is what gets named
        p = tmp_path / "s0.tsv"
        p.write_text("spot_id\ta\tb\nx\tinf\ty\n")
        with pytest.raises(NonFiniteValue, match="'inf'"):
            read_expression(p)

    @given(st.integers(1, 4), st.integers(1, 5), st.data())
    def test_writers_format_each_cell_like_fmt_float(self, scratch_tsv,
                                                     n_rows, n_cols, data):
        spot_ids = tuple(f"s{r}" for r in range(n_rows))
        gene_ids = tuple(f"g{c}" for c in range(n_cols))

        def cells(elements):
            return np.array(data.draw(st.lists(
                st.lists(elements, min_size=n_cols, max_size=n_cols),
                min_size=n_rows, max_size=n_rows)), dtype=np.float64)

        floats = cells(finite_floats)
        # past 2**63, where int64 ends
        counts = cells(COUNTS)
        for write, obj, values, fmt in (
                (write_expression, ExpressionMatrix(
                    "s0", gene_ids, spot_ids, floats, "denoised"),
                 floats, fmt_float),
                *((write_expression, ExpressionMatrix(
                    "s0", gene_ids, spot_ids, counts, stage),
                   counts, lambda v: str(int(v)))
                  for stage in COUNT_STAGES),
                (write_embeddings, EmbeddingTable("s0", spot_ids, floats),
                 floats, fmt_float)):
            write(scratch_tsv, obj)
            rows = scratch_tsv.read_bytes().decode().split("\n")[-n_rows - 1:]
            assert rows == [sid + "\t" + "\t".join(fmt(v) for v in row)
                            for sid, row in zip(spot_ids, values)] + [""]


@st.composite
def count_matrices(draw):
    """A count matrix, its stage, and the rows of a conversion block:
    with blocks this small most matrices span several, and a row that
    holds a count of 2**63 or more sends its block through floats."""
    n_rows, n_cols = draw(st.integers(0, 8)), draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(
        st.one_of(st.integers(0, 1000).map(float), COUNTS),
        min_size=n_cols, max_size=n_cols), min_size=n_rows, max_size=n_rows))
    values = np.array(rows, dtype=np.float64).reshape(n_rows, n_cols)
    m = ExpressionMatrix("s0", tuple(f"g{c}" for c in range(n_cols)),
                         tuple(f"s{r}" for r in range(n_rows)), values,
                         draw(st.sampled_from(COUNT_STAGES)))
    return m, draw(st.integers(1, 3))


@pytest.mark.deep
class TestExpressionWriterOracle:
    """The row-format count writer against the per-cell one."""

    @given(count_matrices())
    def test_same_bytes_as_the_per_cell_writer(self, scratch_tsv, case):
        m, block_rows = case
        reference.write_expression(scratch_tsv, m)
        want = scratch_tsv.read_bytes()
        with mock.patch.object(ingest, "CHECK_CELLS",
                               block_rows * max(1, len(m.gene_ids))):
            write_expression(scratch_tsv, m)
        assert scratch_tsv.read_bytes() == want

    def test_blocks_past_int64_go_through_floats(self, tmp_path):
        # one row a block: int64 rows and float rows alternate
        big, p = 2.0 ** 63, tmp_path / "s0.tsv"
        values = np.array([[3.0, 0.0], [big, 1.0], [big - 1024, 7.0],
                           [2.0 ** 70, -0.0]])
        m = ExpressionMatrix("s0", ("a", "b"), tuple("wxyz"), values,
                             "raw_counts")
        with mock.patch.object(ingest, "CHECK_CELLS", 2):
            write_expression(p, m)
        assert p.read_text().splitlines()[-4:] == [
            "w\t3\t0", "x\t9223372036854775808\t1",
            "y\t9223372036854774784\t7", "z\t1180591620717411303424\t0"]


class TestAtomicWrite:
    def test_failed_write_keeps_old_file(self, tmp_path):
        p = tmp_path / "t.tsv"
        ingest.write_table(p, "demo", ("a",), [(1,), (2,)])
        before = p.read_bytes()

        def rows():
            yield (3,)
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError):
            ingest.write_table(p, "demo", ("a",), rows())
        assert p.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["t.tsv"]

    def test_failed_first_write_leaves_nothing(self, tmp_path):
        def rows():
            raise RuntimeError("row source failed")
            yield

        with pytest.raises(RuntimeError):
            ingest.write_table(tmp_path / "t.tsv", "demo", ("a",), rows())
        assert list(tmp_path.iterdir()) == []

    def test_failed_stage_swap_puts_the_old_directory_back(
            self, tmp_path, monkeypatch):
        out = tmp_path / "stage"
        out.mkdir()
        (out / "a.npz").write_bytes(b"old")
        rename = Path.rename

        def failing(self, target):
            # the staged directory cannot take the old one's place
            if self.name.endswith(".staged"):
                raise OSError("rename failed")
            return rename(self, target)
        monkeypatch.setattr(Path, "rename", failing)
        with pytest.raises(ingest.IoFailure):
            with ingest.staged(out) as tmp:
                (tmp / "b.npz").write_bytes(b"new")
        assert [p.name for p in tmp_path.iterdir()] == ["stage"]
        assert [p.name for p in out.iterdir()] == ["a.npz"]
        assert (out / "a.npz").read_bytes() == b"old"

    @pytest.mark.parametrize("leftover", ["staged", "old"])
    def test_a_killed_runs_scratch_is_not_reused(self, tmp_path, monkeypatch,
                                                 leftover):
        # a run killed with this pid left its scratch directory behind
        monkeypatch.setattr(os, "getpid", lambda: 4242)
        stale = tmp_path / f".eval.4242.{leftover}"
        stale.mkdir()
        (stale / "synth03_per_gene.tsv").write_bytes(b"stale")
        out = tmp_path / "eval"
        out.mkdir()
        (out / "metrics.tsv").write_bytes(b"old")
        with ingest.staged(out) as tmp:
            (tmp / "metrics.tsv").write_bytes(b"new")
        assert [p.name for p in out.iterdir()] == ["metrics.tsv"]
        assert (out / "metrics.tsv").read_bytes() == b"new"
        assert sorted(p.name for p in tmp_path.iterdir()) == [stale.name,
                                                              "eval"]


class TestManifest:
    def _manifest_text(self):
        return (
            'name = "demo"\n'
            'geometry = "hex_array"\n'
            "n_genes_select = 8\n"
            "eps_total = 1.0\n"
            "eps_wsi = 2.5\n"
            "count_min_spot = 100.0\n"
            "count_max_spot = inf\n"
            "count_min_gene = 1.0\n"
            "count_max_gene = inf\n"
            "\n"
            "[slide.s0]\n"
            'coords = "s0.coords.tsv"\n'
            'expr = "s0.expr.tsv"\n'
            'emb = "s0.emb.tsv"\n'
            'split = "train"\n'
        )

    def test_parse(self, tmp_path):
        p = tmp_path / "manifest.toml"
        p.write_text(self._manifest_text())
        m = read_manifest(p)
        assert m.name == "demo"
        assert m.geometry == "hex_array"
        assert m.n_genes_select == 8
        assert m.eps_wsi == 2.5
        assert math.isinf(m.count_max_spot)
        assert m.slides[0].slide_id == "s0"
        assert m.slides[0].split == "train"
        assert m.slides[0].coords_path == str(tmp_path / "s0.coords.tsv")

    def test_round_trip(self, tmp_path):
        p = tmp_path / "manifest.toml"
        p.write_text(self._manifest_text())
        m = read_manifest(p)
        q = tmp_path / "again.toml"
        write_manifest(q, m)
        m2 = read_manifest(q)
        assert m2 == m

    @pytest.mark.parametrize("value", [-math.inf, math.inf, 0.0, 1.5])
    def test_count_threshold_round_trip(self, tmp_path, value):
        p = tmp_path / "manifest.toml"
        p.write_text(self._manifest_text())
        m = dataclasses.replace(read_manifest(p), count_min_gene=value,
                                count_max_gene=math.inf)
        q = tmp_path / "again.toml"
        write_manifest(q, m)
        assert read_manifest(q).count_min_gene == value

    def test_missing_key(self, tmp_path):
        p = tmp_path / "manifest.toml"
        p.write_text('name = "x"\n')
        with pytest.raises(ValidationError):
            read_manifest(p)

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "manifest.toml"
        p.write_text(self._manifest_text() + "mystery = 3\n")
        with pytest.raises(ValidationError):
            read_manifest(p)

    def test_unknown_section(self, tmp_path):
        p = tmp_path / "manifest.toml"
        p.write_text("[settings]\nx = 1\n" + self._manifest_text())
        with pytest.raises(ValidationError):
            read_manifest(p)

    def test_standard_toml(self, tmp_path):
        # inline comments, literal strings and a quoted table name
        text = self._manifest_text().replace(
            'name = "demo"', "name = 'demo'  # literal string").replace(
            "[slide.s0]", '[slide."s0"]  # quoted key').replace(
            'split = "train"', "split = 'train' # held in")
        p = tmp_path / "manifest.toml"
        p.write_text("# leading comment\n" + text)
        m = read_manifest(p)
        assert m.name == "demo"
        assert m.slides[0].slide_id == "s0"
        assert m.slides[0].split == "train"

    def test_quoted_ids_and_names_round_trip(self, tmp_path):
        p = tmp_path / "manifest.toml"
        p.write_text(self._manifest_text())
        m = read_manifest(p)
        s0 = m.slides[0]
        slides = [dataclasses.replace(s0, slide_id=sid)
                  for sid in ("a.b", 'q"x', "\x7f", "sp ace", "é",
                              "bare_id-1")]
        m = dataclasses.replace(m, name='say "hi" \\ bye', slides=slides)
        q = tmp_path / "again.toml"
        write_manifest(q, m)
        assert read_manifest(q) == m
        assert "\n[slide.bare_id-1]\n" in q.read_text()
        assert '\n[slide."a.b"]\n' in q.read_text()

    @pytest.mark.parametrize("key", ["n_genes_select", "eps_total"])
    def test_bool_refused_for_number(self, tmp_path, key):
        p = tmp_path / "manifest.toml"
        p.write_text(re.sub(rf"(?m)^{key} = .*$", f"{key} = true",
                            self._manifest_text()))
        with pytest.raises(ValidationError, match=key):
            read_manifest(p)

    def test_int_accepted_for_float(self, tmp_path):
        p = tmp_path / "manifest.toml"
        p.write_text(self._manifest_text().replace(
            "count_min_spot = 100.0", "count_min_spot = 100"))
        value = read_manifest(p).count_min_spot
        assert value == 100.0 and isinstance(value, float)

    @pytest.mark.parametrize("header", ["[slide.a.b]", '[slide.""]'])
    def test_bad_slide_table_refused(self, tmp_path, header):
        # a dotted id is a nested table; an id must not be empty
        p = tmp_path / "manifest.toml"
        p.write_text(self._manifest_text().replace("[slide.s0]", header))
        with pytest.raises(ValidationError):
            read_manifest(p)

    def test_no_slides(self, tmp_path):
        p = tmp_path / "manifest.toml"
        p.write_text(self._manifest_text().split("[slide.s0]")[0])
        with pytest.raises(ValidationError, match="no slides"):
            read_manifest(p)

    @pytest.mark.parametrize("data", [b'name = "unterminated\n',
                                      b'name = "\xff"\n'])
    def test_syntax_error_names_file(self, tmp_path, data):
        p = tmp_path / "manifest.toml"
        p.write_bytes(data)
        with pytest.raises(MalformedRow, match="manifest.toml"):
            read_manifest(p)


# ids that would lead an output file out of its directory, or that no
# file name can hold
ESCAPING_IDS = ["..", ".", "", "../../up", "a/b", "back\\slash",
                "nul\x00byte"]


class TestIdsThatNameFiles:
    """Slide and gene ids become file names: an id that would leave its
    directory is refused with the id and the file named."""

    def _refused(self, path, ident):
        return pytest.raises(ValidationError,
                             match=re.escape(f"{path}: ") + ".*"
                             + re.escape(repr(ident)))

    @pytest.mark.parametrize("sid", ESCAPING_IDS)
    def test_manifest_slide_key(self, tmp_path, sid):
        p = tmp_path / "manifest.toml"
        p.write_text(TestManifest()._manifest_text().replace(
            "[slide.s0]", f"[slide.{ingest._toml_str(sid)}]"))
        with self._refused(p, sid):
            read_manifest(p)

    def _table(self, path, read, slide_id, gene_ids):
        """A one-spot file for read, as a TSV or, for read_mask, an
        archive; returns the call that reads it."""
        if read is read_mask:
            write_mask(path, ImputationMask(
                slide_id, gene_ids, ("a",),
                np.zeros((1, len(gene_ids)), dtype=bool)))
            return lambda: read_mask(path, "denoise")
        path.write_text(f"#stage=log1p\n#slide={slide_id}\nspot_id\t"
                        + "\t".join(gene_ids) + "\na"
                        + "\t1" * len(gene_ids) + "\n")
        return lambda: read(path)

    @pytest.mark.parametrize("sid", ESCAPING_IDS)
    @pytest.mark.parametrize("read", [read_expression, read_mask,
                                      read_embeddings])
    def test_slide_comment(self, tmp_path, sid, read):
        p = tmp_path / "t.tsv"
        call = self._table(p, read, sid, ("e0",))
        with self._refused(p, sid):
            call()

    def test_file_name_fallback(self, tmp_path):
        p = tmp_path / "back\\slash.expr.tsv"
        p.write_text("#stage=log1p\nspot_id\tg1\na\t1.0\n")
        with self._refused(p, "back\\slash"):
            read_expression(p)

    @pytest.mark.parametrize("gene", ESCAPING_IDS + ["../../../escaped"])
    @pytest.mark.parametrize("read", [read_expression, read_mask])
    def test_gene_header(self, tmp_path, gene, read):
        p = tmp_path / "s0.tsv"
        call = self._table(p, read, "s0", ("g0", gene))
        with self._refused(p, gene):
            call()


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        tensors = {
            "head.W": rng.normal(size=(4, 3)) * 1e-3,
            "head.b": rng.normal(size=4),
            "gnn.0.W1": rng.normal(size=(2, 2)) * 1e8,
        }
        meta = {"stage": "1", "n_genes": "4"}
        p = tmp_path / "c.ckpt"
        write_checkpoint(p, meta, tensors)
        got_meta, got_tensors = read_checkpoint(p)
        assert got_meta["stage"] == "1"
        assert got_meta["format_version"] == "1"
        assert list(got_tensors) == list(tensors)
        for name, arr in tensors.items():
            np.testing.assert_array_equal(got_tensors[name], arr)
            assert got_tensors[name].shape == arr.shape

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "c.ckpt"
        p.write_text("NOTACKPT\n")
        with pytest.raises(ValidationError):
            read_checkpoint(p)

    def test_byte_determinism(self, tmp_path):
        t = {"w": np.linspace(-1, 1, 7)}
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        write_checkpoint(p1, {"k": "v"}, t)
        write_checkpoint(p2, {"k": "v"}, t)
        assert p1.read_bytes() == p2.read_bytes()


# float64 edge values: signed zero, subnormals, the largest magnitudes
EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1e308, -1e308, 1.7976931348623157e308)
# ids a TSV cannot hold safely: separators, newlines, non-ASCII
archive_ids = st.text(st.characters(blacklist_categories=("Cs",),
                                    blacklist_characters="/\\\x00"),
                      min_size=1, max_size=6).filter(
    lambda t: t not in (".", ".."))


@st.composite
def archive_blocks(draw):
    """(slide id, gene ids, spot ids, float values, bool flags)."""
    gene_ids = draw(st.lists(archive_ids, min_size=1, max_size=4,
                             unique=True))
    spot_ids = draw(st.lists(archive_ids | st.sampled_from(
        ["a\tb", "c,d", "é", "中文", "x\ny"]), min_size=1, max_size=4,
        unique=True))
    shape = (len(spot_ids), len(gene_ids))
    cells = st.lists(finite_floats | st.sampled_from(EDGE_FLOATS),
                     min_size=shape[0] * shape[1],
                     max_size=shape[0] * shape[1])
    values = np.array(draw(cells), dtype=np.float64).reshape(shape)
    flags = np.array(draw(st.lists(st.booleans(), min_size=values.size,
                                   max_size=values.size)),
                     dtype=bool).reshape(shape)
    return (draw(archive_ids), tuple(gene_ids), tuple(spot_ids), values,
            flags)


@pytest.fixture(scope="module")
def scratch_npz(tmp_path_factory):
    return tmp_path_factory.mktemp("archive") / "block.npz"


class TestArchive:
    """The inter-stage matrix and mask archives."""

    @given(archive_blocks())
    def test_matrix_round_trips_bitwise(self, scratch_npz, block):
        slide_id, gene_ids, spot_ids, values, _ = block
        write_matrix(scratch_npz, ExpressionMatrix(
            slide_id, gene_ids, spot_ids, values, "denoised"))
        got = read_matrix(scratch_npz, "denoised", "denoise")
        assert (got.slide_id, got.gene_ids, got.spot_ids, got.stage) == (
            slide_id, gene_ids, spot_ids, "denoised")
        assert got.values.dtype == np.float64
        assert got.values.tobytes() == values.tobytes()

    @given(archive_blocks())
    def test_mask_round_trips(self, scratch_npz, block):
        slide_id, gene_ids, spot_ids, _, flags = block
        write_mask(scratch_npz, ImputationMask(slide_id, gene_ids, spot_ids,
                                               flags))
        got = read_mask(scratch_npz, "denoise")
        assert (got.slide_id, got.gene_ids, got.spot_ids) == (
            slide_id, gene_ids, spot_ids)
        assert got.values.dtype == np.bool_
        np.testing.assert_array_equal(got.values, flags)

    @given(archive_blocks())
    def test_two_writes_are_byte_identical(self, scratch_npz, block):
        slide_id, gene_ids, spot_ids, values, flags = block
        d = scratch_npz.parent
        m = ExpressionMatrix(slide_id, gene_ids, spot_ids, values, "denoised")
        mask = ImputationMask(slide_id, gene_ids, spot_ids, flags)
        for write, obj in ((write_matrix, m), (write_mask, mask)):
            write(d / "a.npz", obj)
            write(d / "b.npz", obj)
            assert (d / "a.npz").read_bytes() == (d / "b.npz").read_bytes()
            # a column-major copy, as a column subset is, writes row-major
            write(d / "b.npz", dataclasses.replace(
                obj, values=np.asfortranarray(obj.values)))
            assert (d / "a.npz").read_bytes() == (d / "b.npz").read_bytes()

    def test_id_ending_in_nul_is_refused(self, tmp_path):
        # numpy strings drop trailing NULs: refused, never shortened
        p = tmp_path / "s0_denoised.npz"
        with pytest.raises(ValidationError, match="NUL"):
            write_matrix(p, ExpressionMatrix("s0", ("g",), ("a\x00",),
                                             [[1.0]], "denoised"))
        assert not p.exists()

    def test_object_array_is_refused(self, tmp_path):
        p = tmp_path / "s0_denoised.npz"
        meta = np.array([["format_version", "1"], ["kind", "matrix"],
                         ["slide", "s0"], ["stage", "denoised"]])
        with open(p, "wb") as fh:
            np.savez(fh, meta=meta, values=np.array([[1.0]], dtype=object),
                     spot_ids=np.array(["a"]), gene_ids=np.array(["g"]))
        with pytest.raises(ValidationError, match=re.escape(
                f"{p} is not a numpy archive; run `sepal denoise` again")):
            read_matrix(p, "denoised", "denoise")

    def test_stage_tag_names_the_producer(self, tmp_path):
        p = tmp_path / "s0_log1p.npz"
        write_matrix(p, ExpressionMatrix("s0", ("g",), ("a",), [[1.0]],
                                         "log1p"))
        with pytest.raises(StageOrderViolation, match="sepal denoise"):
            read_matrix(p, "denoised", "denoise")

    def test_invariants_name_the_file(self, tmp_path):
        p = tmp_path / "s0_denoised.npz"
        write_checkpoint(p, {"kind": "matrix", "slide": "s0",
                             "stage": "denoised"}, {
            "values": np.array([[np.nan]]), "spot_ids": np.array(["a"]),
            "gene_ids": np.array(["g"])})
        with pytest.raises(NonFiniteValue, match=re.escape(f"{p}: ")):
            read_matrix(p, "denoised", "denoise")


@pytest.mark.deep
class TestSpotsArchive:
    """A spots archive reads back the very tables it was written from."""

    @given(lattices_with_holes(), st.integers(1, 8), archive_ids, st.data())
    def test_round_trip_is_bit_identical(self, scratch_npz, lattice, d_emb,
                                         slide, data):
        n = len(lattice[0])

        def floats(width):
            return np.array(data.draw(st.lists(
                finite_floats | st.sampled_from(EDGE_FLOATS),
                min_size=n * width, max_size=n * width)),
                dtype=np.float64).reshape(n, width)

        # numpy strings keep no trailing NUL, so such an id is refused
        ids = data.draw(st.lists(
            archive_ids | st.sampled_from(["a\tb", "é", "中文"])
            | archive_ids.map(lambda t: t + "\x00"),
            min_size=n, max_size=n, unique=True))
        # the lattice's positions are in canonical order, so ids keep theirs
        spots = SpotTable(slide, ids, floats(2), lattice[0].array)
        emb = EmbeddingTable(slide, spots.spot_ids, floats(d_emb))
        if any(i.endswith("\x00") for i in ids):
            with pytest.raises(ValidationError, match="ends in NUL"):
                ingest.write_spots(scratch_npz, spots, emb.vectors)
            return
        ingest.write_spots(scratch_npz, spots, emb.vectors)
        got_spots, got_emb = ingest.read_spots(scratch_npz, "preprocess", True)
        for got in (got_spots, got_emb):
            assert (got.slide_id, got.spot_ids) == (slide, tuple(ids))
        for got, want in ((got_spots.pixel, spots.pixel),
                          (got_spots.array, spots.array),
                          (got_emb.vectors, emb.vectors)):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()


def _parse_ppm(data: bytes):
    assert data.startswith(b"P6\n")
    rest = data[3:]
    dims, rest = rest.split(b"\n", 1)
    maxval, rest = rest.split(b"\n", 1)
    w, h = (int(t) for t in dims.split())
    assert maxval == b"255"
    img = np.frombuffer(rest, dtype=np.uint8).reshape(h, w, 3)
    return img


class TestHeatmap:
    def _spots(self):
        return spot_table([(f"s{r}{c}", c * 4.0, r * 4.0, r, c)
                           for r in range(3) for c in range(3)], "sl")

    def test_writes_valid_ppm_and_csv(self, tmp_path):
        spots = self._spots()
        values = np.arange(9, dtype=float)
        ppm, csv = write_heatmap(tmp_path / "h.ppm", spots, values, 4.0)
        img = _parse_ppm(ppm.read_bytes())
        assert img.ndim == 3
        text = csv.read_text()
        assert "spot_id,array_row,array_col" in text
        assert text.count("\n") == 9 + 3

    def test_missing_spot_is_gray(self, tmp_path):
        spots = self._spots()
        values = np.arange(9, dtype=float)
        missing = np.zeros(9, dtype=bool)
        missing[4] = True
        ppm, csv = write_heatmap(tmp_path / "h.ppm", spots, values, 4.0,
                                 missing)
        img = _parse_ppm(ppm.read_bytes())
        # center spot of the 3x3 block sits at the image center
        h, w, _ = img.shape
        assert tuple(img[h // 2, w // 2]) == (128, 128, 128)
        row = [ln for ln in csv.read_text().splitlines()
               if ln.startswith("s11,")]
        assert row[0].endswith(",")

    def test_extreme_values_hit_ramp_ends(self, tmp_path):
        spots = self._spots()
        values = np.arange(9, dtype=float)
        ppm, _ = write_heatmap(tmp_path / "h.ppm", spots, values, 4.0)
        img = _parse_ppm(ppm.read_bytes())
        flat = img.reshape(-1, 3)
        assert (flat == (68, 1, 84)).all(axis=1).any()      # low end
        assert (flat == (253, 231, 37)).all(axis=1).any()   # high end

    def test_byte_determinism(self, tmp_path):
        spots = self._spots()
        values = np.linspace(0.0, 1.0, 9)
        p1, _ = write_heatmap(tmp_path / "a.ppm", spots, values, 4.0)
        p2, _ = write_heatmap(tmp_path / "b.ppm", spots, values, 4.0)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_quotes_ids_with_a_comma_or_a_quote(self, tmp_path):
        import csv
        spots = spot_table([("a,b", 0.0, 0.0, 0, 0), ('q"x', 4.0, 0.0, 0, 1)],
                           "sl")
        _, path = write_heatmap(tmp_path / "h.ppm", spots,
                                np.array([1.0, 2.0]), 4.0)
        rows = list(csv.reader(path.read_text().splitlines()[2:]))
        assert [len(r) for r in rows] == [6, 6, 6]
        assert [r[0] for r in rows[1:]] == ["a,b", 'q"x']

    def test_zero_spots_rejected(self, tmp_path):
        with pytest.raises(EmptySlide):
            write_heatmap(tmp_path / "h.ppm",
                          SpotTable("sl", (), np.zeros((0, 2)),
                                    np.zeros((0, 2))), np.zeros(0), None)


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("heatmaps")


def _same_heatmaps(directory, spots, values, spacing, missing=None):
    """write_heatmap and the per-spot reference write the same bytes."""
    new = write_heatmap(directory / "new.ppm", spots, values, spacing,
                        missing)
    old = reference.write_heatmap(directory / "old.ppm", spots, values,
                                  spacing, missing)
    for a, b in zip(new, old):
        assert a.read_bytes() == b.read_bytes(), a.suffix


class TestHeatmapOracle:
    """Every disc stamped at once against one spot at a time."""

    @settings(max_examples=60)
    @given(lattices_with_holes(), st.sampled_from((1.0, 2.5, 4.0)),
           st.data())
    def test_random_maps_and_masks(self, scratch_dir, lattice, widen, data):
        # a spacing above the lattice's packs the discs closer, so that
        # later spots cover more of earlier ones
        spots, geometry = lattice
        assume(build_adjacency(spots, geometry).n_edges > 0)
        n = len(spots)
        values = np.array(data.draw(st.lists(
            st.floats(-5.0, 5.0, allow_nan=False), min_size=n, max_size=n)))
        missing = np.array(data.draw(st.lists(
            st.booleans(), min_size=n, max_size=n)))
        _same_heatmaps(scratch_dir, spots, values,
                       widen * min_pixel_spacing(spots, geometry), missing)

    @pytest.mark.parametrize("lattice", (grid_spots, hex_spots))
    def test_constant_map(self, tmp_path, lattice):
        spots = lattice(5, 6)
        geometry = "square_grid" if lattice is grid_spots else "hex_array"
        _same_heatmaps(tmp_path, spots, np.full(len(spots), 2.5),
                       min_pixel_spacing(spots, geometry))

    def test_single_spot(self, tmp_path):
        spots = grid_spots(1, 1)
        _same_heatmaps(tmp_path, spots, np.array([1.0]), None)
        _same_heatmaps(tmp_path, spots, np.array([1.0]), None,
                       np.array([True]))

    def test_wide_slide_is_scaled_to_the_image_limit(self, tmp_path):
        spots = grid_spots(2, 400)
        values = np.sin(np.arange(len(spots)))
        _same_heatmaps(tmp_path, spots, values,
                       min_pixel_spacing(spots, "square_grid"))
        header = (tmp_path / "new.ppm").read_bytes().split(b"\n")[1]
        assert int(header.split()[0]) < ingest._MAX_IMAGE_DIM + 20

    def test_ramp_is_built_once_read_only(self):
        ramp = ingest.color_ramp()
        assert ramp is ingest.color_ramp()
        assert ramp.tobytes() == reference.color_ramp().tobytes()
        assert not ramp.flags.writeable

    def test_non_finite_value_rejected(self, tmp_path):
        spots = grid_spots(2, 2)
        values = np.array([0.0, np.nan, 1.0, 2.0])
        with pytest.raises(NonFiniteValue):
            write_heatmap(tmp_path / "h.ppm", spots, values, 1.0)
        # a missing cell is drawn gray whatever it holds
        write_heatmap(tmp_path / "h.ppm", spots, values, 1.0,
                      np.isnan(values))


class TestLoadDataset:
    def test_slide_id_cross_check(self, tmp_path):
        write_coordinates(tmp_path / "s0.coords.tsv",
                          spot_table([spot("a", 0, 0)], "WRONG"))
        m = ExpressionMatrix("s0", ("g1",), ("a",), [[1.0]], "raw_counts")
        write_expression(tmp_path / "s0.expr.tsv", m)
        write_embeddings(tmp_path / "s0.emb.tsv",
                         EmbeddingTable("s0", ("a",), np.zeros((1, 2))))
        (tmp_path / "manifest.toml").write_text(
            'name = "d"\ngeometry = "square_grid"\nn_genes_select = 1\n'
            "eps_total = 1.0\neps_wsi = 1.0\ncount_min_spot = 0.0\n"
            "count_max_spot = inf\ncount_min_gene = 0.0\ncount_max_gene = inf\n"
            '[slide.s0]\ncoords = "s0.coords.tsv"\nexpr = "s0.expr.tsv"\n'
            'emb = "s0.emb.tsv"\nsplit = "train"\n')
        manifest = read_manifest(tmp_path / "manifest.toml")
        with pytest.raises(ValidationError):
            ingest.read_slide(manifest.slides[0])
