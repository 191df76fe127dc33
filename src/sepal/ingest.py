"""File formats: TSV tables, dataset manifests, numpy archives, heatmaps.

Every artifact the pipeline writes is deterministic down to the byte for a
fixed input: text floats are serialized with repr (shortest round-trip
form), newlines are always "\\n", row order is always the canonical spot
order, and archive arrays keep their exact bits.

Formats:
  coordinates   TSV: spot_id slide_id pixel_x pixel_y array_row array_col
  expression    TSV, for dataset inputs only: spot_id then one column per
                gene; an optional #stage= comment (without one the file
                holds raw counts; preprocess wants every slide of a
                dataset at one stage)
  embeddings    TSV: spot_id then e0..e{d-1}
  manifest      TOML: settings, then one [slide.<id>] table per slide
  archive       uncompressed numpy archive (np.savez): named arrays plus a
                (key, value) meta string array; read with allow_pickle=False
                and written atomically.  Model checkpoints are archives,
                and so is every matrix and mask passed between stages
                (.npz): "values" (float64, or bool for a mask), "spot_ids"
                and "gene_ids" as string arrays, and meta kind, slide and,
                for a matrix, stage
  heatmap       binary P6 PPM plus a CSV of the plotted values

A value table without a #slide= comment takes its slide id from its file
name up to the first dot.  Slide and gene ids name output files, so an
id that is empty, "." or "..", or holds "/", "\\" or NUL, is refused.
"""

from __future__ import annotations

import json
import math
import os
import re
import tomllib
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import (
    DatasetManifest,
    DuplicateSpot,
    EmbeddingTable,
    EmptySlide,
    ExpressionMatrix,
    ImputationMask,
    IoFailure,
    MalformedRow,
    NonFiniteValue,
    ShapeMismatch,
    SlideEntry,
    SpotRecord,
    StageOrderViolation,
    ValidationError,
    WidthMismatch,
    canonical_order,
)
from .spatial import min_pixel_spacing

FORMAT_VERSION = "1"
CHECKPOINT_META = "meta"

COORD_COLUMNS = ("spot_id", "slide_id", "pixel_x", "pixel_y",
                 "array_row", "array_col")


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


def _parse_tsv(path):
    """(comments, header, rows) of a TSV file.  rows yields (line_no,
    fields) one line at a time, so a reader holds one line's strings, not
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
                    yield line_no, line.split("\t")
            except UnicodeDecodeError as e:
                raise MalformedRow(f"{path}: not UTF-8: {e}") from None

    rows = lines()
    first = next(rows, None)
    if first is None:
        raise MalformedRow(f"{path}: no header row")
    return comments, first[1], rows


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
        return int(text)
    except ValueError:
        raise MalformedRow(
            f"{path}:{line_no}: {text!r} is not an integer") from None


def read_coordinates(path) -> list[SpotRecord]:
    """Read a coordinates TSV; returns spots in canonical order."""
    _, header, rows = _parse_tsv(path)
    if tuple(header) != COORD_COLUMNS:
        raise MalformedRow(
            f"{path}: header must be {' '.join(COORD_COLUMNS)}")
    spots: list[SpotRecord] = []
    for line_no, fields in rows:
        if len(fields) != 6:
            raise MalformedRow(
                f"{path}:{line_no}: expected 6 columns, got {len(fields)}")
        spots.append(SpotRecord(
            spot_id=fields[0],
            slide_id=fields[1],
            pixel_x=_parse_float(fields[2], path, line_no),
            pixel_y=_parse_float(fields[3], path, line_no),
            array_row=_parse_int(fields[4], path, line_no),
            array_col=_parse_int(fields[5], path, line_no),
        ))
    if not spots:
        raise EmptySlide(f"{path}: no spots")
    slide_ids = {s.slide_id for s in spots}
    if len(slide_ids) > 1:
        raise MalformedRow(
            f"{path}: mixed slide ids {sorted(slide_ids)[:3]}")
    seen_ids: set[str] = set()
    seen_pos: set[tuple[int, int]] = set()
    for s in spots:
        if s.spot_id in seen_ids:
            raise DuplicateSpot(f"{path}: duplicate spot id {s.spot_id!r}")
        seen_ids.add(s.spot_id)
        pos = (s.array_row, s.array_col)
        if pos in seen_pos:
            raise DuplicateSpot(f"{path}: two spots at array position {pos}")
        seen_pos.add(pos)
    return canonical_order(spots)


def write_coordinates(path, spots: Sequence[SpotRecord]) -> None:
    with _open_write(path) as fh:
        fh.write(f"#format_version={FORMAT_VERSION}\n#kind=coordinates\n")
        fh.write("\t".join(COORD_COLUMNS) + "\n")
        for s in canonical_order(spots):
            fh.write("\t".join((
                s.spot_id, s.slide_id, fmt_float(s.pixel_x),
                fmt_float(s.pixel_y), str(s.array_row), str(s.array_col),
            )) + "\n")


def _read_value_table(path, kind: str):
    comments, header, rows = _parse_tsv(path)
    if not header or header[0] != "spot_id":
        raise MalformedRow(f"{path}: first column must be spot_id")
    col_ids = header[1:]
    n_cols = len(col_ids)
    spot_ids: list[str] = []
    parsed: list[np.ndarray] = []
    for line_no, fields in rows:
        if len(fields) != n_cols + 1:
            if kind == "embeddings":
                raise WidthMismatch(
                    f"{path}:{line_no}: {len(fields) - 1} values under a "
                    f"{n_cols}-wide header")
            raise MalformedRow(
                f"{path}:{line_no}: expected {n_cols + 1} columns, "
                f"got {len(fields)}")
        spot_ids.append(fields[0])
        try:
            parsed.append(np.array(list(map(float, fields[1:]))))
            finite = np.isfinite(parsed[-1]).all()
        except ValueError:
            finite = False
        if not finite:
            # the per-cell parse names the row's first bad cell
            for text in fields[1:]:
                _parse_float(text, path, line_no)
    values = np.array(parsed, dtype=np.float64).reshape(len(parsed), n_cols)
    return comments, col_ids, spot_ids, values


def read_expression(path) -> ExpressionMatrix:
    """Read a dataset's expression TSV.  Stage comes from the #stage=
    comment; a file without one holds raw counts."""
    comments, gene_ids, spot_ids, values = _read_value_table(path, "expression")
    return ExpressionMatrix(_slide_id_for(path, comments),
                            _gene_ids(path, gene_ids), tuple(spot_ids),
                            values, comments.get("stage", "raw_counts"))


def write_expression(path, matrix: ExpressionMatrix) -> None:
    integral = matrix.stage in ("raw_counts", "filtered")
    with _open_write(path) as fh:
        fh.write(f"#format_version={FORMAT_VERSION}\n#kind=expression\n")
        fh.write(f"#stage={matrix.stage}\n#slide={matrix.slide_id}\n")
        fh.write("spot_id\t" + "\t".join(matrix.gene_ids) + "\n")
        for sid, row in zip(matrix.spot_ids, matrix.values):
            # repr of a python float is fmt_float of the same value
            cells = (map(str, map(int, row.tolist())) if integral
                     else map(repr, row.tolist()))
            fh.write(sid + "\t" + "\t".join(cells) + "\n")


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
                rows: Iterable[Sequence]) -> None:
    """Write a generic report table with the standard comment prologue."""
    with _open_write(path) as fh:
        fh.write(f"#format_version={FORMAT_VERSION}\n#kind={kind}\n")
        fh.write("\t".join(columns) + "\n")
        for row in rows:
            fh.write("\t".join(fmt_value(v) for v in row) + "\n")


def read_table(path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    comments, header, rows = _parse_tsv(path)
    return comments, header, [fields for _, fields in rows]


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


def load_dataset(manifest: DatasetManifest):
    """Read every slide's three files.  Returns {slide_id: (spots, expr, emb)}."""
    parts = {}
    for entry in manifest.slides:
        spots = read_coordinates(entry.coords_path)
        expr = read_expression(entry.expr_path)
        emb = read_embeddings(entry.emb_path)
        # file-level slide ids must agree with the manifest section name
        for got, where in ((spots[0].slide_id, "coordinates"),
                           (expr.slide_id, "expression"),
                           (emb.slide_id, "embeddings")):
            if got != entry.slide_id:
                raise ValidationError(
                    f"{where} file for {entry.slide_id!r} carries slide id "
                    f"{got!r}")
        parts[entry.slide_id] = (spots, expr, emb)
    return parts


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


def read_checkpoint(path, producer: str = "train"
                    ) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """Read a write_checkpoint archive; producer is the command that
    writes path, named in the error when path is not such an archive."""
    with _open_read(path, binary=True) as fh:
        try:
            with np.load(fh, allow_pickle=False) as archive:
                arrays = {name: archive[name] for name in archive.files}
            meta = dict(arrays.pop(CHECKPOINT_META).tolist())
        # what np.load raises on text, a bare .npy, a truncated zip or an
        # object array, and what a missing or malformed meta entry raises
        except (AttributeError, EOFError, KeyError, TypeError, ValueError,
                zipfile.BadZipFile):
            raise ValidationError(
                f"{path} is not a numpy archive; run `sepal {producer}` "
                f"again") from None
    return meta, arrays


# the values dtype of each kind of inter-stage archive
_BLOCK_DTYPES = {"matrix": np.dtype(np.float64),
                 "mask": np.dtype(np.bool_)}
_BLOCK_ARRAYS = {"values", "spot_ids", "gene_ids"}


def _write_block(path, kind: str, block, meta: Mapping[str, str]) -> None:
    """An ExpressionMatrix or ImputationMask as one archive."""
    ids = {}
    for name in ("spot_ids", "gene_ids"):
        ids[name] = np.array(getattr(block, name), dtype=str)
        # numpy strings drop trailing NULs; refuse what would not come back
        if ids[name].tolist() != list(getattr(block, name)):
            raise ValidationError(
                f"{path}: an id of slide {block.slide_id!r} ends in NUL")
    # row-major whatever the layout in memory (a column subset is not):
    # equal blocks write equal bytes, and sums over what a reader gets back
    # do not depend on how the writer sliced it
    write_checkpoint(path, {"kind": kind, "slide": block.slide_id, **meta},
                     {"values": np.ascontiguousarray(block.values), **ids})


def _read_block(path, producer: str, stage: str | None):
    """A _write_block archive rebuilt into an ExpressionMatrix at this
    stage, or with stage None into an ImputationMask.  Whatever refuses it
    names path and the command to run again."""
    kind = "mask" if stage is None else "matrix"
    meta, arrays = read_checkpoint(path, producer)
    if (meta.get("kind") != kind or set(arrays) != _BLOCK_ARRAYS
            or arrays["values"].dtype != _BLOCK_DTYPES[kind]
            or any(arrays[k].ndim != 1 or arrays[k].dtype.kind != "U"
                   for k in ("spot_ids", "gene_ids"))):
        raise ValidationError(
            f"{path} is not a {kind} archive; run `sepal {producer}` again")
    tag = meta.get("stage")
    if tag != stage:
        raise StageOrderViolation(
            f"{path} carries stage tag {tag!r}, expected {stage!r}; run "
            f"`sepal {producer}` first")
    fields = (_path_part(meta.get("slide", ""), "slide id", path),
              _gene_ids(path, arrays["gene_ids"].tolist()),
              tuple(arrays["spot_ids"].tolist()), arrays["values"])
    try:
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
    return _read_block(path, producer, stage)


def write_mask(path, mask: ImputationMask) -> None:
    _write_block(path, "mask", mask, {})


def read_mask(path, producer: str) -> ImputationMask:
    return _read_block(path, producer, None)


# ---------------------------------------------------------------------------
# heatmaps

_VIRIDIS_ANCHORS = (
    (68, 1, 84), (59, 82, 139), (33, 145, 140), (94, 201, 98), (253, 231, 37),
)
_MISSING_RGB = (128, 128, 128)
_DISC_TARGET_PX = 6
_MAX_IMAGE_DIM = 4096


def color_ramp() -> np.ndarray:
    """256 x 3 uint8 ramp, linear interpolation between fixed anchors."""
    out = np.empty((256, 3), dtype=np.uint8)
    n_seg = len(_VIRIDIS_ANCHORS) - 1
    for i in range(256):
        t = i / 255.0 * n_seg
        k = min(int(t), n_seg - 1)
        frac = t - k
        lo = _VIRIDIS_ANCHORS[k]
        hi = _VIRIDIS_ANCHORS[k + 1]
        for c in range(3):
            out[i, c] = int(round(lo[c] + (hi[c] - lo[c]) * frac))
    return out


def write_heatmap(ppm_path, spots: Sequence[SpotRecord], values: np.ndarray,
                  missing: np.ndarray | None = None,
                  spacing: float | None = None) -> tuple[Path, Path]:
    """Render one gene map as colored discs at the spots' pixel positions.

    Writes a binary PPM and a same-named CSV with the plotted values.
    Spots with missing=True are drawn gray and get an empty CSV cell.
    spacing is min_pixel_spacing(spots), computed here when not given;
    pass it to draw several maps of one slide with one O(n^2) pass.
    Returns (ppm_path, csv_path).
    """
    ppm_path = Path(ppm_path)
    csv_path = ppm_path.with_suffix(".csv")
    spots = list(spots)
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

    xs = np.array([s.pixel_x for s in spots])
    ys = np.array([s.pixel_y for s in spots])
    if n > 1:
        dmin = min_pixel_spacing(spots) if spacing is None else spacing
        scale = 2.0 * _DISC_TARGET_PX / dmin
    else:
        scale = 1.0
    extent = max(float(xs.max() - xs.min()), float(ys.max() - ys.min()), 1.0)
    if extent * scale > _MAX_IMAGE_DIM:
        scale = _MAX_IMAGE_DIM / extent
    if n > 1:
        radius = max(1, int(round(dmin * scale / 2.0)))
    else:
        radius = _DISC_TARGET_PX
    margin = radius + 2

    width = int(math.ceil((xs.max() - xs.min()) * scale)) + 2 * margin + 1
    height = int(math.ceil((ys.max() - ys.min()) * scale)) + 2 * margin + 1
    img = np.full((height, width, 3), 255, dtype=np.uint8)

    present = ~missing
    if present.any():
        vmin = float(values[present].min())
        vmax = float(values[present].max())
    else:
        vmin = vmax = 0.0
    span = vmax - vmin
    ramp = color_ramp()

    dy = np.arange(-radius, radius + 1)
    dx = np.arange(-radius, radius + 1)
    disc = (dy[:, None] ** 2 + dx[None, :] ** 2) <= radius ** 2

    for i in range(n):
        cx = margin + int(round((xs[i] - xs.min()) * scale))
        cy = margin + int(round((ys[i] - ys.min()) * scale))
        if missing[i]:
            rgb = np.array(_MISSING_RGB, dtype=np.uint8)
        else:
            t = 0.5 if span == 0.0 else (values[i] - vmin) / span
            idx = min(255, max(0, int(round(t * 255.0))))
            rgb = ramp[idx]
        y0, y1 = cy - radius, cy + radius + 1
        x0, x1 = cx - radius, cx + radius + 1
        tile = img[y0:y1, x0:x1]
        tile[disc] = rgb

    with _open_write(ppm_path, binary=True) as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(img.tobytes())

    with _open_write(csv_path) as fh:
        fh.write(f"#format_version={FORMAT_VERSION}\n#kind=heatmap_grid\n")
        fh.write("spot_id,array_row,array_col,pixel_x,pixel_y,value\n")
        for i, s in enumerate(spots):
            val = "" if missing[i] else fmt_float(values[i])
            fh.write(f"{s.spot_id},{s.array_row},{s.array_col},"
                     f"{fmt_float(s.pixel_x)},{fmt_float(s.pixel_y)},{val}\n")
    return ppm_path, csv_path
