"""File formats: TSV tables, dataset manifests, numpy archives, heatmaps.

Every artifact the pipeline writes is deterministic down to the byte for a
fixed input: text floats are serialized with repr (shortest round-trip
form), newlines are always "\\n", row order is always the canonical spot
order, and archive arrays keep their exact bits.

Formats:
  coordinates   TSV: spot_id slide_id pixel_x pixel_y array_row array_col,
                rows in any order; read into one SpotTable, which sorts
                them; a repeated spot id, array or pixel position is refused
  expression    TSV, for dataset inputs only: spot_id then one column per
                gene; an optional #stage= comment (without one the file
                holds raw counts; preprocess wants every slide of a
                dataset at one stage, raw_counts or log1p).  Raw counts
                are written as whole numbers, str(int(count)), a row at a
                time through one %d format; other stages as repr
  embeddings    TSV: spot_id then e0..e{d-1}
  manifest      TOML: settings, then one [slide.<id>] table per slide
  archive       uncompressed numpy archive (np.savez): named arrays plus a
                (key, value) meta string array; read with allow_pickle=False
                and written atomically.  Model checkpoints are archives,
                and so is every matrix and mask passed between stages
                (.npz): "values" (float64, or bool for a mask), "spot_ids"
                and "gene_ids" as string arrays, and meta kind, slide and,
                for a matrix, stage.  A spots archive holds "spot_ids",
                "pixel", "array" and the embeddings' "vectors"
  heatmap       binary P6 PPM plus a CSV of the plotted values

A value table without a #slide= comment takes its slide id from its file
name up to the first dot.  Slide and gene ids name output files, so an
id that is empty, "." or "..", or holds "/", "\\" or NUL, is refused.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import shutil
import tempfile
import tomllib
import warnings
import zipfile
from collections.abc import Iterable, Mapping, Sequence
from contextlib import contextmanager
from functools import cache, partial
from itertools import islice
from pathlib import Path

import numpy as np

from .core import (
    BadStageTag,
    CHECK_CELLS,
    DatasetManifest,
    EmbeddingTable,
    EmptySlide,
    ExpressionMatrix,
    ImputationMask,
    IoFailure,
    MalformedRow,
    NonFiniteValue,
    ShapeMismatch,
    SlideEntry,
    SpotTable,
    StageOrderViolation,
    ValidationError,
    WidthMismatch,
    check_distinct_pixels,
    handed_over,
)

FORMAT_VERSION = "1"
CHECKPOINT_META = "meta"

COORD_COLUMNS = ("spot_id", "slide_id", "pixel_x", "pixel_y",
                 "array_row", "array_col")
# data lines _read_blocks parses at once, in every data table
VALUE_BLOCK_LINES = 1024


def fmt_float(x: float) -> str:
    """Shortest decimal string that round-trips to the same float64."""
    return repr(float(x))


def fmt_value(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return fmt_float(x)
    return str(x)


def _open_read(path, binary: bool = False):
    try:
        return (open(path, "rb") if binary
                else open(path, "r", encoding="utf-8", newline=""))
    except OSError as e:
        raise IoFailure(f"cannot read {path}: {e}") from e


@contextmanager
def _open_write(path, binary: bool = False):
    """Open a temp file beside path; it replaces path only on a clean exit,
    so a failed write leaves the old file (or none) and no temp file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = (open(tmp, "wb") if binary
              else open(tmp, "w", encoding="utf-8", newline="\n"))
    except OSError as e:
        raise IoFailure(f"cannot write {path}: {e}") from e
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def staged(outdir):
    """A fresh directory, in a new scratch beside outdir, for a command's
    outputs.  It takes outdir's place whole when the block exits cleanly, so
    no file of an earlier run (or of a killed one) stays beside the new ones,
    and is deleted otherwise: a command that writes slide by slide leaves
    outdir as it was when a later slide fails."""
    outdir = Path(outdir)
    try:
        outdir.parent.mkdir(parents=True, exist_ok=True)
        scratch = Path(tempfile.mkdtemp(prefix=f".{outdir.name}.",
                                        dir=outdir.parent))
        tmp, old = scratch / f"{outdir.name}.staged", scratch / "old"
        tmp.mkdir()
    except OSError as e:
        raise IoFailure(f"cannot write {outdir}: {e}") from e
    try:
        yield tmp
        if outdir.exists():
            outdir.rename(old)
        try:
            tmp.rename(outdir)
        except OSError:
            if old.exists():
                old.rename(outdir)
            raise
    except OSError as e:
        raise IoFailure(f"cannot write {outdir}: {e}") from e
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _parse_tsv(path):
    """(comments, header, rows) of a TSV file.  rows yields (line_no,
    line) one line at a time, so a reader holds one line's strings, not
    the whole file's; comments fills in as rows are read."""
    comments: dict[str, str] = {}

    def lines():
        with _open_read(path) as fh:
            try:
                for line_no, raw in enumerate(fh, start=1):
                    line = raw.rstrip("\r\n")
                    if not line:
                        continue
                    if line.startswith("#"):
                        body = line[1:]
                        if "=" in body:
                            k, _, v = body.partition("=")
                            comments[k.strip()] = v.strip()
                        continue
                    yield line_no, line
            except UnicodeDecodeError as e:
                raise MalformedRow(f"{path}: not UTF-8: {e}") from None

    rows = lines()
    first = next(rows, None)
    if first is None:
        raise MalformedRow(f"{path}: no header row")
    return comments, first[1].split("\t"), rows


def _path_part(ident: str, what: str, path) -> str:
    """Slide and gene ids name output files: refuse one that would put a
    file outside its directory, or that no file name can hold."""
    if (ident in ("", ".", "..") or "/" in ident or "\\" in ident
            or "\x00" in ident):
        raise ValidationError(
            f"{path}: {what} {ident!r} cannot be part of a file name")
    return ident


def _slide_id_for(path, comments: Mapping[str, str]) -> str:
    sid = comments.get("slide", Path(path).name.split(".", 1)[0])
    return _path_part(sid, "slide id", path)


def _gene_ids(path, gene_ids: Sequence[str]) -> tuple[str, ...]:
    return tuple(_path_part(g, "gene id", path) for g in gene_ids)


def _parse_float(text: str, path, line_no: int) -> float:
    try:
        v = float(text)
    except ValueError:
        raise MalformedRow(
            f"{path}:{line_no}: {text!r} is not a number") from None
    if not math.isfinite(v):
        raise NonFiniteValue(f"{path}:{line_no}: non-finite value {text!r}")
    return v


def _parse_int(text: str, path, line_no: int) -> int:
    try:
        v = int(text)
    except ValueError:
        raise MalformedRow(
            f"{path}:{line_no}: {text!r} is not an integer") from None
    if not -2 ** 63 <= v < 2 ** 63:
        raise MalformedRow(
            f"{path}:{line_no}: {text!r} does not fit in 64 bits")
    return v


# the value columns of a coordinates line: an int64 parse takes what int()
# takes in ASCII (sign, digits, blanks) and rejects the rest
_COORD_DTYPE = np.dtype([("x", np.float64), ("y", np.float64),
                         ("row", np.int64), ("col", np.int64)])


def _load_block(texts, dtype: np.dtype, shape: tuple):
    """texts, the value fields of a block's lines, parsed by one np.loadtxt
    call; None unless that gives every line at full width (shape) and
    finite floats."""
    try:
        with warnings.catch_warnings():
            # a blank value line is dropped with a warning; the shape
            # check below refuses such a block
            warnings.simplefilter("ignore")
            values = np.loadtxt(texts, dtype=dtype, delimiter="\t",
                                comments=None, ndmin=len(shape))
    except ValueError:
        return None
    floats = (values if dtype.names is None else
              [values[f] for f in dtype.names if dtype[f].kind == "f"])
    if values.shape == shape and np.isfinite(floats).all():
        return values
    return None


def _read_blocks(rows, n_ids: int, dtype, width: int, parse_row):
    """(ids, values) of a table's (line_no, line) data lines: ids holds
    each line's first n_ids fields, values the rest, [n] of a structured
    dtype or [n, width] floats.  Lines go VALUE_BLOCK_LINES at a time to
    _load_block; a block it refuses goes row by row through
    parse_row(line_no, fields), which raises what a row-by-row read would,
    naming the first bad row and its first bad cell.  A table of one block
    is held as parsed, not copied."""
    dtype = np.dtype(dtype)
    row_shape = () if dtype.names else (width,)
    ids: list[list[str]] = []
    blocks = [np.empty((0, *row_shape), dtype)]

    def by_rows(lines):
        out = np.empty((len(lines), *row_shape), dtype)
        for r, (line_no, line) in enumerate(lines):
            fields = line.split("\t")
            out[r] = parse_row(line_no, fields)
            ids.append(fields[:n_ids])
        return out

    while True:
        lines: list = []
        try:
            lines.extend(islice(rows, VALUE_BLOCK_LINES))
        except MalformedRow:
            # at a line that cannot be decoded, the lines read before it
            # are checked first, as a row-by-row read would
            by_rows(lines)
            raise
        if not lines:
            break
        values = None
        if width and all(line.count("\t") == n_ids - 1 + width
                         for _, line in lines):
            heads = [line.split("\t", n_ids) for _, line in lines]
            # pop leaves each head its line's ids
            values = _load_block([head.pop() for head in heads], dtype,
                                 (len(lines), *row_shape))
        if values is None:
            values = by_rows(lines)
        else:
            ids += heads
        blocks.append(values)
    return ids, blocks[1] if len(blocks) == 2 else np.concatenate(blocks)


def _coordinate_row(path, line_no: int, fields: list[str]) -> tuple:
    """(pixel_x, pixel_y, array_row, array_col) of a coordinates line."""
    if len(fields) != 6:
        raise MalformedRow(
            f"{path}:{line_no}: expected 6 columns, got {len(fields)}")
    return (*(_parse_float(t, path, line_no) for t in fields[2:4]),
            *(_parse_int(t, path, line_no) for t in fields[4:6]))


def read_coordinates(path) -> SpotTable:
    """Read a coordinates TSV into one SpotTable, in canonical order.
    Every error names path, a repeated spot id or position too."""
    _, header, rows = _parse_tsv(path)
    if tuple(header) != COORD_COLUMNS:
        raise MalformedRow(
            f"{path}: header must be {' '.join(COORD_COLUMNS)}")
    ids, values = _read_blocks(rows, 2, _COORD_DTYPE, 4,
                               partial(_coordinate_row, path))
    if not ids:
        raise EmptySlide(f"{path}: no spots")
    slide_ids = {slide for _, slide in ids}
    if len(slide_ids) > 1:
        raise MalformedRow(
            f"{path}: mixed slide ids {sorted(slide_ids)[:3]}")
    try:
        spots = SpotTable(slide_ids.pop(), [spot for spot, _ in ids],
                          np.column_stack((values["x"], values["y"])),
                          np.column_stack((values["row"], values["col"])))
        check_distinct_pixels(spots)
        return spots
    except ValidationError as e:
        raise type(e)(f"{path}: {e}") from None


def write_coordinates(path, spots: SpotTable) -> None:
    with _open_write(path) as fh:
        fh.write(f"#format_version={FORMAT_VERSION}\n#kind=coordinates\n")
        fh.write("\t".join(COORD_COLUMNS) + "\n")
        for sid, (x, y), (r, c) in zip(spots.spot_ids, spots.pixel.tolist(),
                                       spots.array.tolist()):
            fh.write("\t".join((sid, spots.slide_id, fmt_float(x),
                                fmt_float(y), str(r), str(c))) + "\n")


def _value_row(path, kind: str, width: int, line_no: int,
               fields: list[str]) -> list[float]:
    """The values of an expression or embeddings line."""
    if len(fields) != width + 1:
        if kind == "embeddings":
            raise WidthMismatch(
                f"{path}:{line_no}: {len(fields) - 1} values under a "
                f"{width}-wide header")
        raise MalformedRow(
            f"{path}:{line_no}: expected {width + 1} columns, "
            f"got {len(fields)}")
    return [_parse_float(t, path, line_no) for t in fields[1:]]


def _read_value_table(path, kind: str):
    comments, header, rows = _parse_tsv(path)
    if not header or header[0] != "spot_id":
        raise MalformedRow(f"{path}: first column must be spot_id")
    col_ids = header[1:]
    ids, values = _read_blocks(rows, 1, np.float64, len(col_ids),
                               partial(_value_row, path, kind, len(col_ids)))
    return comments, col_ids, [sid for sid, in ids], handed_over(values)


def read_expression(path) -> ExpressionMatrix:
    """Read a dataset's expression TSV: raw counts, or the stage that a
    #stage= comment names.  Every error names path."""
    comments, gene_ids, spot_ids, values = _read_value_table(path, "expression")
    fields = (_slide_id_for(path, comments), _gene_ids(path, gene_ids),
              tuple(spot_ids), values)
    try:
        return ExpressionMatrix(*fields, comments.get("stage", "raw_counts"))
    except BadStageTag as e:
        raise BadStageTag(f"{path}: {e}; a dataset file holds raw_counts "
                          f"or log1p") from None
    except ValidationError as e:
        raise type(e)(f"{path}: {e}") from None


def write_expression(path, matrix: ExpressionMatrix) -> None:
    with _open_write(path) as fh:
        fh.write(f"#format_version={FORMAT_VERSION}\n#kind=expression\n")
        fh.write(f"#stage={matrix.stage}\n#slide={matrix.slide_id}\n")
        fh.write("spot_id\t" + "\t".join(matrix.gene_ids) + "\n")
        if matrix.stage == "raw_counts":
            _write_counts(fh, matrix.spot_ids, matrix.values)
            return
        for sid, row in zip(matrix.spot_ids, matrix.values):
            # repr of a python float is fmt_float of the same value
            fh.write(sid + "\t" + "\t".join(map(repr, row.tolist())) + "\n")


def _write_counts(fh, spot_ids: Sequence[str], values: np.ndarray) -> None:
    """Count rows, each through one %d format: a count is whole and
    non-negative, and %d of it is str(int(count)).  Blocks of about
    CHECK_CELLS cells go to python as int64, or as floats in a block
    whose counts reach 2**63, so the scratch stays bounded."""
    row_fmt = "\t".join(["%d"] * values.shape[1])
    rows = max(1, CHECK_CELLS // max(1, values.shape[1]))
    for start in range(0, values.shape[0], rows):
        block = values[start:start + rows]
        cells = (block.tolist() if block.max(initial=0.0) >= 2.0 ** 63
                 else block.astype(np.int64).tolist())
        for sid, row in zip(spot_ids[start:start + rows], cells):
            fh.write(sid + "\t" + row_fmt % tuple(row) + "\n")


def read_embeddings(path) -> EmbeddingTable:
    comments, col_ids, spot_ids, values = _read_value_table(path, "embeddings")
    for i, name in enumerate(col_ids):
        if name != f"e{i}":
            raise MalformedRow(
                f"{path}: embedding column {i + 1} must be named e{i}, "
                f"got {name!r}")
    return EmbeddingTable(_slide_id_for(path, comments), tuple(spot_ids), values)


def write_embeddings(path, table: EmbeddingTable) -> None:
    with _open_write(path) as fh:
        fh.write(f"#format_version={FORMAT_VERSION}\n#kind=embeddings\n")
        fh.write(f"#slide={table.slide_id}\n")
        fh.write("spot_id\t" + "\t".join(
            f"e{i}" for i in range(table.d_emb)) + "\n")
        for sid, row in zip(table.spot_ids, table.vectors):
            fh.write(sid + "\t" + "\t".join(map(repr, row.tolist())) + "\n")


def write_table(path, kind: str, columns: Sequence[str],
                rows: Iterable[Sequence], slide: str | None = None) -> None:
    """Write a generic report table with the standard comment prologue."""
    with _open_write(path) as fh:
        fh.write(f"#format_version={FORMAT_VERSION}\n#kind={kind}\n")
        fh.write("" if slide is None else f"#slide={slide}\n")
        fh.write("\t".join(columns) + "\n")
        for row in rows:
            fh.write("\t".join(fmt_value(v) for v in row) + "\n")


def read_table(path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    comments, header, rows = _parse_tsv(path)
    return comments, header, [line.split("\t") for _, line in rows]


# ---------------------------------------------------------------------------
# manifest

_MANIFEST_SCALARS = {
    "name": str,
    "geometry": str,
    "n_genes_select": int,
    "eps_total": float,
    "eps_wsi": float,
    "count_min_spot": float,
    "count_max_spot": float,
    "count_min_gene": float,
    "count_max_gene": float,
}
_SLIDE_KEYS = ("coords", "expr", "emb", "split")
_BARE_KEY = re.compile(r"[A-Za-z0-9_-]+")


def _toml_str(v: str) -> str:
    # a JSON string is a TOML basic string, save for a raw DEL
    return json.dumps(v, ensure_ascii=False).replace("\x7f", "\\u007f")


def read_manifest(path) -> DatasetManifest:
    """Read a TOML manifest: the settings, then one [slide.<id>] table per
    slide, in file order.  Slide paths are relative to the manifest."""
    path = Path(path)
    with _open_read(path, binary=True) as fh:
        try:
            doc = tomllib.load(fh)
        except (tomllib.TOMLDecodeError, UnicodeDecodeError) as e:
            raise MalformedRow(f"{path}: not a TOML manifest: {e}") from None
    slides = doc.pop("slide", {})
    unknown = [k for k in doc if k not in _MANIFEST_SCALARS]
    missing = [k for k in _MANIFEST_SCALARS if k not in doc]
    if unknown or missing:
        raise ValidationError(f"{path}: unknown manifest keys {unknown}, "
                              f"missing keys {missing}")
    for key, want in _MANIFEST_SCALARS.items():
        v = doc[key]
        accepted = (int, float) if want is float else want
        if isinstance(v, bool) or not isinstance(v, accepted):
            raise ValidationError(
                f"{path}: manifest key {key!r} has wrong type")
        doc[key] = want(v)
    if not isinstance(slides, dict) or not slides:
        raise ValidationError(f"{path}: manifest lists no slides")

    entries = []
    for sid, table in slides.items():
        _path_part(sid, "slide id", path)
        if (not isinstance(table, dict) or set(table) != set(_SLIDE_KEYS)
                or not all(isinstance(v, str) for v in table.values())):
            raise ValidationError(
                f"{path}: slide {sid!r} must hold exactly the string keys "
                f"{list(_SLIDE_KEYS)}")
        coords, expr, emb = (str(path.parent / table[k])
                             for k in ("coords", "expr", "emb"))
        entries.append(SlideEntry(sid, coords, expr, emb, table["split"]))
    return DatasetManifest(slides=tuple(entries), **doc)


def write_manifest(path, manifest: DatasetManifest) -> None:
    """Write a manifest; slide paths are stored relative to the manifest."""
    path = Path(path)
    base = path.parent.resolve()

    def rel(p: str) -> str:
        q = Path(p)
        try:
            return q.resolve().relative_to(base).as_posix()
        except ValueError:
            return q.as_posix()

    def scalar(v) -> str:
        return _toml_str(v) if isinstance(v, str) else fmt_value(v)

    with _open_write(path) as fh:
        fh.write(f"# dataset manifest, format_version={FORMAT_VERSION}\n")
        for key in _MANIFEST_SCALARS:
            fh.write(f"{key} = {scalar(getattr(manifest, key))}\n")
        for s in manifest.slides:
            sid = (s.slide_id if _BARE_KEY.fullmatch(s.slide_id)
                   else _toml_str(s.slide_id))
            fh.write(f"\n[slide.{sid}]\n")
            fh.write(f"coords = {_toml_str(rel(s.coords_path))}\n")
            fh.write(f"expr = {_toml_str(rel(s.expr_path))}\n")
            fh.write(f"emb = {_toml_str(rel(s.emb_path))}\n")
            fh.write(f"split = {_toml_str(s.split)}\n")


def read_slide(entry: SlideEntry
               ) -> tuple[SpotTable, ExpressionMatrix, EmbeddingTable]:
    """(spots, expr, emb) read from one manifest slide's three files."""
    spots = read_coordinates(entry.coords_path)
    expr = read_expression(entry.expr_path)
    emb = read_embeddings(entry.emb_path)
    # file-level slide ids must agree with the manifest section name
    for got, where in ((spots.slide_id, "coordinates"),
                       (expr.slide_id, "expression"),
                       (emb.slide_id, "embeddings")):
        if got != entry.slide_id:
            raise ValidationError(
                f"{where} file for {entry.slide_id!r} carries slide id "
                f"{got!r}")
    return spots, expr, emb


# ---------------------------------------------------------------------------
# archives: model checkpoints and the matrices and masks between stages

def write_checkpoint(path, meta: Mapping[str, str],
                     arrays: Mapping[str, np.ndarray]) -> None:
    """One uncompressed numpy archive: the named arrays, and meta as a
    (key, value) string array under CHECKPOINT_META."""
    entries = {"format_version": FORMAT_VERSION, **meta}
    with _open_write(path, binary=True) as fh:
        np.savez(fh, **{CHECKPOINT_META: np.array(list(entries.items()),
                                                  dtype=str)}, **arrays)


def read_checkpoint(path, producer: str = "train", skip: str | None = None
                    ) -> tuple[dict[str, str], dict[str, np.ndarray | None]]:
    """Read a write_checkpoint archive; producer is the command that
    writes path, named in the error when path is not such an archive.
    The array named skip is listed but not loaded: it reads as None."""
    with _open_read(path, binary=True) as fh:
        try:
            with np.load(fh, allow_pickle=False) as archive:
                arrays = {name: None if name == skip else archive[name]
                          for name in archive.files}
            meta = dict(arrays.pop(CHECKPOINT_META).tolist())
        # what np.load raises on text, a bare .npy, a truncated zip or an
        # object array, and what a missing or malformed meta entry raises
        except (AttributeError, EOFError, KeyError, TypeError, ValueError,
                zipfile.BadZipFile):
            raise ValidationError(
                f"{path} is not a numpy archive; run `sepal {producer}` "
                f"again") from None
    return meta, arrays


# each archive kind's arrays: ndim, then dtype less byte order ("U": text)
_ARCHIVE_ARRAYS = {
    "matrix": {"values": "2f8", "spot_ids": "1U", "gene_ids": "1U"},
    "mask": {"values": "2b1", "spot_ids": "1U", "gene_ids": "1U"},
    "spots": {"spot_ids": "1U", "pixel": "2f8", "array": "2i8",
              "vectors": "2f8"},
}


def _id_array(path, slide: str, ids: Sequence[str]) -> np.ndarray:
    # numpy strings drop trailing NULs; refuse what would not come back
    out = np.array(ids, dtype=str)
    if out.tolist() != list(ids):
        raise ValidationError(f"{path}: an id of slide {slide!r} ends in NUL")
    return out


def expect_slide(path, held, slide_id, producer: str) -> None:
    if held != slide_id:
        raise ValidationError(f"{path} holds slide {held!r}, not "
                              f"{slide_id!r}; run `sepal {producer}` again")


def _write_block(path, kind: str, block, meta: Mapping[str, str]) -> None:
    """An ExpressionMatrix or ImputationMask as one archive."""
    ids = {name: _id_array(path, block.slide_id, getattr(block, name))
           for name in ("spot_ids", "gene_ids")}
    # row-major whatever the layout in memory (a column subset is not):
    # equal blocks write equal bytes, and sums over what a reader gets back
    # do not depend on how the writer sliced it
    write_checkpoint(path, {"kind": kind, "slide": block.slide_id, **meta},
                     {"values": np.ascontiguousarray(block.values), **ids})


def _read_block(path, producer: str, kind: str, stage: str | None = None,
                skip: str | None = None):
    """An archive rebuilt: a matrix at this stage, a mask, or spots as a
    SpotTable and an EmbeddingTable whose rows are as written (None when
    skip is "vectors").  The array named skip is checked by name only.
    Whatever refuses it names path and the command to run again."""
    meta, arrays = read_checkpoint(path, producer, skip)
    want = _ARCHIVE_ARRAYS[kind]
    got = {k: want.get(k) if a is None
           else f"{a.ndim}{'U' if a.dtype.kind == 'U' else a.dtype.str[1:]}"
           for k, a in arrays.items()}
    if meta.get("kind") != kind or got != want:
        raise ValidationError(
            f"{path} is not a {kind} archive; run `sepal {producer}` again")
    tag = meta.get("stage")
    if tag != stage:
        raise StageOrderViolation(
            f"{path} carries stage tag {tag!r}, expected {stage!r}; run "
            f"`sepal {producer}` first")
    sid = _path_part(meta.get("slide", ""), "slide id", path)
    ids = tuple(arrays["spot_ids"].tolist())
    if kind != "spots":
        fields = (sid, _gene_ids(path, arrays["gene_ids"].tolist()), ids,
                  handed_over(arrays["values"]))
    try:
        if kind == "spots":
            vectors = arrays["vectors"]
            return (SpotTable(sid, ids, arrays["pixel"], arrays["array"]),
                    None if vectors is None
                    else EmbeddingTable(sid, ids, handed_over(vectors)))
        return (ImputationMask(*fields) if stage is None
                else ExpressionMatrix(*fields, stage))
    except ValidationError as e:
        raise type(e)(f"{path}: {e}; run `sepal {producer}` again") from None


def write_matrix(path, matrix: ExpressionMatrix) -> None:
    """An inter-stage matrix: its values, ids, slide and stage tag."""
    _write_block(path, "matrix", matrix, {"stage": matrix.stage})


def read_matrix(path, stage: str, producer: str) -> ExpressionMatrix:
    """Read a write_matrix archive that must carry this stage tag; any
    other tag, or none, raises StageOrderViolation naming producer."""
    return _read_block(path, producer, "matrix", stage)


def write_mask(path, mask: ImputationMask) -> None:
    _write_block(path, "mask", mask, {})


def read_mask(path, producer: str) -> ImputationMask:
    return _read_block(path, producer, "mask")


def write_spots(path, spots: SpotTable, vectors: np.ndarray) -> None:
    """A slide's spots and, row for row, their embeddings as one archive."""
    write_checkpoint(path, {"kind": "spots", "slide": spots.slide_id}, {
        "spot_ids": _id_array(path, spots.slide_id, spots.spot_ids),
        "pixel": spots.pixel, "array": spots.array, "vectors": vectors})


def read_spots(path, producer: str, vectors: bool
               ) -> tuple[SpotTable, EmbeddingTable | None]:
    """A write_spots archive; without vectors, the embeddings are None."""
    return _read_block(path, producer, "spots",
                       skip=None if vectors else "vectors")


# ---------------------------------------------------------------------------
# heatmaps

_VIRIDIS_ANCHORS = (
    (68, 1, 84), (59, 82, 139), (33, 145, 140), (94, 201, 98), (253, 231, 37),
)
_MISSING_RGB = (128, 128, 128)
_DISC_TARGET_PX = 6
_MAX_IMAGE_DIM = 4096


@cache
def color_ramp() -> np.ndarray:
    """256 x 3 uint8 ramp, linear interpolation between fixed anchors;
    built once and read-only."""
    anchors = np.array(_VIRIDIS_ANCHORS, dtype=np.float64)
    n_seg = len(_VIRIDIS_ANCHORS) - 1
    t = np.arange(256) / 255.0 * n_seg
    k = np.minimum(t.astype(np.int64), n_seg - 1)
    lo, hi = anchors[k], anchors[k + 1]
    out = np.rint(lo + (hi - lo) * (t - k)[:, None]).astype(np.uint8)
    out.flags.writeable = False
    return out


def write_heatmap(ppm_path, spots: SpotTable, values: np.ndarray,
                  spacing: float | None,
                  missing: np.ndarray | None = None) -> tuple[Path, Path]:
    """Render one gene map as colored discs at the spots' pixel positions.

    Writes a binary PPM and a same-named CSV with the plotted values.
    Spots with missing=True are drawn gray and get an empty CSV cell; the
    other values must be finite.  Discs are drawn in spot order, so where
    two overlap the later spot's color shows.  spacing is the slide's
    spatial.min_pixel_spacing, which sets the disc size; a single spot
    has none and takes None.
    Returns (ppm_path, csv_path).
    """
    ppm_path = Path(ppm_path)
    csv_path = ppm_path.with_suffix(".csv")
    n = len(spots)
    if n == 0:
        raise EmptySlide("heatmap over zero spots")
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (n,):
        raise ShapeMismatch(f"heatmap needs {n} values, got {values.shape}")
    if missing is None:
        missing = np.zeros(n, dtype=np.bool_)
    else:
        missing = np.asarray(missing, dtype=np.bool_)
        if missing.shape != (n,):
            raise ShapeMismatch("missing flags must match spot count")
    present = ~missing
    if not np.isfinite(values[present]).all():
        raise NonFiniteValue(f"{ppm_path}: non-finite value to draw")

    xs, ys = np.ascontiguousarray(spots.pixel.T)
    if n > 1:
        scale = 2.0 * _DISC_TARGET_PX / spacing
    else:
        scale = 1.0
    extent = max(float(xs.max() - xs.min()), float(ys.max() - ys.min()), 1.0)
    if extent * scale > _MAX_IMAGE_DIM:
        scale = _MAX_IMAGE_DIM / extent
    if n > 1:
        radius = max(1, int(round(spacing * scale / 2.0)))
    else:
        radius = _DISC_TARGET_PX
    margin = radius + 2

    width = int(math.ceil((xs.max() - xs.min()) * scale)) + 2 * margin + 1
    height = int(math.ceil((ys.max() - ys.min()) * scale)) + 2 * margin + 1

    colors = np.empty((n, 3), dtype=np.uint8)
    colors[missing] = _MISSING_RGB
    if present.any():
        shown = values[present]
        vmin, vmax = float(shown.min()), float(shown.max())
        span = vmax - vmin
        t = np.full(shown.shape, 0.5) if span == 0.0 else (shown - vmin) / span
        colors[present] = color_ramp()[
            np.clip(np.rint(t * 255.0), 0, 255).astype(np.intp)]

    # each pixel takes the color of the last spot whose disc covers it
    dy, dx = np.nonzero(np.add.outer(np.arange(-radius, radius + 1) ** 2,
                                     np.arange(-radius, radius + 1) ** 2)
                        <= radius ** 2)
    cy = margin - radius + np.rint((ys - ys.min()) * scale).astype(np.intp)
    cx = margin - radius + np.rint((xs - xs.min()) * scale).astype(np.intp)
    owner = np.full(height * width, -1, dtype=np.intp)
    np.maximum.at(owner, ((cy[:, None] + dy) * width + cx[:, None] + dx),
                  np.arange(n)[:, None])
    img = np.full((height * width, 3), 255, dtype=np.uint8)
    painted = owner >= 0
    img[painted] = colors[owner[painted]]

    with _open_write(ppm_path, binary=True) as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(img.tobytes())

    with _open_write(csv_path) as fh:
        fh.write(f"#format_version={FORMAT_VERSION}\n#kind=heatmap_grid\n")
        fh.write("spot_id,array_row,array_col,pixel_x,pixel_y,value\n")
        rows = csv.writer(fh, lineterminator="\n")  # quotes "a,b" ids
        for i, (sid, (r, c), (x, y)) in enumerate(zip(
                spots.spot_ids, spots.array.tolist(), spots.pixel.tolist())):
            val = "" if missing[i] else fmt_float(values[i])
            rows.writerow((sid, r, c, fmt_float(x), fmt_float(y), val))
    return ppm_path, csv_path
