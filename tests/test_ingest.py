import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference

from sepal.core import (
    DuplicateSpot,
    EmbeddingTable,
    EmptySlide,
    ExpressionMatrix,
    ImputationMask,
    MalformedRow,
    NonFiniteValue,
    SpotRecord,
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
    write_checkpoint,
    write_coordinates,
    write_embeddings,
    write_expression,
    write_heatmap,
    write_manifest,
    write_mask,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


def spot(sid, row, col, slide="s0"):
    return SpotRecord(sid, slide, float(col) * 10.0, float(row) * 10.0,
                      row, col)


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
        spots = [spot("b", 1, 0), spot("a", 0, 0)]
        p = tmp_path / "s0.coords.tsv"
        write_coordinates(p, spots)
        got = read_coordinates(p)
        assert [s.spot_id for s in got] == ["a", "b"]
        assert got[0] == spot("a", 0, 0)

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
        write_coordinates(p, [spot("a", 0, 0), spot("a", 1, 1)])
        with pytest.raises(DuplicateSpot):
            read_coordinates(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("spot_id\tslide_id\tpixel_x\tpixel_y\tarray_row"
                     "\tarray_col\n")
        with pytest.raises(EmptySlide):
            read_coordinates(p)

    def test_mixed_slide_ids(self, tmp_path):
        p = tmp_path / "c.tsv"
        write_coordinates(p, [spot("a", 0, 0, "s0"), spot("b", 1, 0, "s1")])
        with pytest.raises(MalformedRow):
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
                             rng.random((2, 2)), "tpm")
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
    def test_random_matrix_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        vals = rng.normal(size=(3, 4)) ** 3
        m = ExpressionMatrix("s0", tuple(f"g{i}" for i in range(4)),
                             ("a", "b", "c"), vals, "denoised")
        text = "\n".join("\t".join(fmt_float(v) for v in row)
                         for row in m.values)
        back = np.array([[float(t) for t in line.split("\t")]
                         for line in text.split("\n")])
        np.testing.assert_array_equal(back, m.values)


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
        p = tmp_path / "m.tsv"
        write_mask(p, m)
        got = read_mask(p)
        np.testing.assert_array_equal(got.values, m.values)

    def test_rejects_other_values(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("spot_id\tg1\na\t3\n")
        with pytest.raises(MalformedRow):
            read_mask(p)


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
        counts = cells(st.integers(0, 2 ** 60).map(float))
        flags = cells(st.booleans()).astype(np.bool_)
        for write, obj, values, fmt in (
                (write_expression, ExpressionMatrix(
                    "s0", gene_ids, spot_ids, floats, "denoised"),
                 floats, fmt_float),
                (write_expression, ExpressionMatrix(
                    "s0", gene_ids, spot_ids, counts, "raw_counts"),
                 counts, lambda v: str(int(v))),
                (write_embeddings, EmbeddingTable("s0", spot_ids, floats),
                 floats, fmt_float),
                (write_mask, ImputationMask("s0", gene_ids, spot_ids, flags),
                 flags, lambda v: "1" if v else "0")):
            write(scratch_tsv, obj)
            rows = scratch_tsv.read_bytes().decode().split("\n")[-n_rows - 1:]
            assert rows == [sid + "\t" + "\t".join(fmt(v) for v in row)
                            for sid, row in zip(spot_ids, values)] + [""]


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


# ids that would lead an output file out of its directory
ESCAPING_IDS = ["..", ".", "", "../../up", "a/b", "back\\slash"]


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

    @pytest.mark.parametrize("sid", ESCAPING_IDS)
    @pytest.mark.parametrize("read", [read_expression, read_mask,
                                      read_embeddings])
    def test_slide_comment(self, tmp_path, sid, read):
        p = tmp_path / "t.tsv"
        p.write_text(f"#stage=log1p\n#slide={sid}\nspot_id\te0\na\t1\n")
        with self._refused(p, sid):
            read(p)

    def test_file_name_fallback(self, tmp_path):
        p = tmp_path / "back\\slash.expr.tsv"
        p.write_text("#stage=log1p\nspot_id\tg1\na\t1.0\n")
        with self._refused(p, "back\\slash"):
            read_expression(p)

    @pytest.mark.parametrize("gene", ESCAPING_IDS + ["../../../escaped"])
    @pytest.mark.parametrize("read", [read_expression, read_mask])
    def test_gene_header(self, tmp_path, gene, read):
        p = tmp_path / "s0.tsv"
        p.write_text(f"#stage=log1p\nspot_id\tg0\t{gene}\na\t1\t0\n")
        with self._refused(p, gene):
            read(p)


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
        return [SpotRecord(f"s{r}{c}", "sl", c * 4.0, r * 4.0, r, c)
                for r in range(3) for c in range(3)]

    def test_writes_valid_ppm_and_csv(self, tmp_path):
        spots = self._spots()
        values = np.arange(9, dtype=float)
        ppm, csv = write_heatmap(tmp_path / "h.ppm", spots, values)
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
        ppm, csv = write_heatmap(tmp_path / "h.ppm", spots, values, missing)
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
        ppm, _ = write_heatmap(tmp_path / "h.ppm", spots, values)
        img = _parse_ppm(ppm.read_bytes())
        flat = img.reshape(-1, 3)
        assert (flat == (68, 1, 84)).all(axis=1).any()      # low end
        assert (flat == (253, 231, 37)).all(axis=1).any()   # high end

    def test_byte_determinism(self, tmp_path):
        spots = self._spots()
        values = np.linspace(0.0, 1.0, 9)
        p1, _ = write_heatmap(tmp_path / "a.ppm", spots, values)
        p2, _ = write_heatmap(tmp_path / "b.ppm", spots, values)
        assert p1.read_bytes() == p2.read_bytes()

    def test_zero_spots_rejected(self, tmp_path):
        with pytest.raises(EmptySlide):
            write_heatmap(tmp_path / "h.ppm", [], np.zeros(0))


class TestLoadDataset:
    def test_slide_id_cross_check(self, tmp_path):
        write_coordinates(tmp_path / "s0.coords.tsv", [spot("a", 0, 0, "WRONG")])
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
            ingest.load_dataset(manifest)
