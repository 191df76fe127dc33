"""Shared domain types for the expression-prediction pipeline.

Everything downstream (filtering, denoising, graph construction, training,
evaluation) speaks in terms of the containers defined here.  The containers
are frozen dataclasses over read-only numpy arrays and validate their own
invariants on construction, so a matrix that exists is a matrix that is
well-formed for its processing stage: raw_counts or log1p in a dataset,
log1p as preprocess writes it, denoised from denoise on.

A slide's spots are one SpotTable: distinct ids, distinct array positions,
rows sorted by (array_row, array_col).  That sort is the canonical spot
order: every matrix and mask passed between stages, and every view
align_slide returns, lists its rows in it.  A dataset's coordinates
must also give distinct pixel positions (check_distinct_pixels).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

STAGES = ("raw_counts", "log1p", "denoised")
# the spot lattices: every neighbourhood comes from array positions
GEOMETRIES = ("hex_array", "square_grid")
SPLITS = ("train", "val", "test")
# the graph settings: node features, graph layer and readout
AGGREGATIONS = ("sum", "concat")
OPERATORS = ("gcn", "graphconv")
POOLINGS = ("sag_mean", "global_mean")


class PipelineError(Exception):
    """Base class for every error this package raises on purpose."""


class ValidationError(PipelineError):
    """Bad inputs or broken invariants.  CLI maps these to exit code 1."""


class IoFailure(PipelineError):
    """Unreadable or unwritable artifacts.  CLI maps these to exit code 2."""


class DuplicateSpot(ValidationError):
    pass


class MissingEmbedding(ValidationError):
    pass


class GeneSetMismatch(ValidationError):
    pass


class SpotSetMismatch(ValidationError):
    pass


class MalformedRow(ValidationError):
    pass


class NonFiniteValue(ValidationError):
    pass


class WidthMismatch(ValidationError):
    pass


class EmptySlide(ValidationError):
    pass


class AllSpotsRemoved(ValidationError):
    pass


class AllGenesRemoved(ValidationError):
    pass


class NegativeValue(ValidationError):
    pass


class DegenerateCoordinates(ValidationError):
    pass


class EmptyAdjacency(ValidationError):
    pass


class TooFewGenes(ValidationError):
    pass


class WidthNotDivisible(ValidationError):
    pass


class ShapeMismatch(ValidationError):
    pass


class EmptySplit(ValidationError):
    pass


class DivergedLoss(PipelineError):
    pass


class AllMasked(ValidationError):
    pass


class AllGenesExcluded(ValidationError):
    pass


class AllPatchesExcluded(ValidationError):
    pass


class StageOrderViolation(ValidationError):
    pass


class BadStageTag(ValidationError):
    pass


def handed_over(a: np.ndarray) -> np.ndarray:
    """a, made read-only with every array it views, for a container to
    hold without a copy.  The caller made a and keeps no writable hold on
    it or on what it views."""
    b = a
    while isinstance(b, np.ndarray):
        b.flags.writeable = False
        b = b.base
    return a


def _readonly(a: np.ndarray) -> np.ndarray:
    """a itself when nothing can write to its data: it and every array it
    views are read-only and the last of them owns the data, as
    handed_over leaves them and as every container holds its arrays.
    Otherwise a read-only copy, which no later write to a can reach."""
    b = a
    while isinstance(b, np.ndarray) and not b.flags.writeable:
        if b.flags.owndata:
            return a
        b = b.base
    return handed_over(np.array(a, copy=True))


DISTANCE_DECIMALS = 6  # pixel positions that agree to these are one
# rows a value check takes at once hold about this many cells, so its
# scratch stays near 0.5 MB whatever the matrix
CHECK_CELLS = 2 ** 16


def _check_values(v: np.ndarray, stage: str, slide_id: str) -> None:
    """The stage's value checks over blocks of rows: finite everywhere,
    then non-negative for every stage but denoised, then integral for
    counts.  A matrix that fails more than one raises the first of these,
    as three whole-matrix passes would."""
    counts = stage == "raw_counts"
    negative = fractional = False
    rows = max(1, CHECK_CELLS // max(1, v.shape[1]))
    for start in range(0, v.shape[0], rows):
        block = v[start:start + rows]
        if not np.isfinite(block).all():
            raise NonFiniteValue(f"non-finite expression value in {slide_id}")
        if stage == "denoised" or negative:
            continue
        negative = bool((block < 0).any())
        if counts and not fractional:
            fractional = bool((block != np.rint(block)).any())
    if negative and counts:
        raise NegativeValue(f"negative count in {slide_id}")
    if negative:
        raise NegativeValue(f"negative value in {stage} matrix for {slide_id}")
    if fractional:
        raise ValidationError(f"non-integral count in {slide_id}")


def _find_duplicate(ids: Sequence[str]) -> str | None:
    seen: set[str] = set()
    for x in ids:
        if x in seen:
            return x
        seen.add(x)
    return None


def rows_of(ids: Sequence[str], wanted: Sequence[str],
            absent: Callable[[list[str]], Exception]) -> np.ndarray:
    """The row in ids of each of wanted, in wanted's order, as int64; raises
    absent(the ids of wanted not in ids, in wanted's order) if there are any."""
    index = dict(zip(ids, range(len(ids))))
    rows = [index.get(x, -1) for x in wanted]
    if -1 in rows:
        raise absent([x for x, i in zip(wanted, rows) if i < 0])
    return np.array(rows, dtype=np.int64)


def common_genes(tables: Iterable, hint: str = "") -> tuple[str, ...]:
    """The gene panel that each of tables (at least one) carries; raises
    GeneSetMismatch naming the first that differs, with hint appended."""
    first = None
    for t in tables:
        if first is None:
            first = t
        elif t.gene_ids != first.gene_ids:
            raise GeneSetMismatch(
                f"slide {t.slide_id!r} gene panel differs from "
                f"{first.slide_id!r}{hint}")
    return first.gene_ids


@dataclass(frozen=True)
class SpotTable:
    """One slide's spots: ids, pixel positions and array positions.

    pixel is [n, 2] float64 (x, y) and array is [n, 2] int64 (row, col).
    Spot ids and array positions must be distinct; rows are stored sorted
    by (array_row, array_col), the canonical spot order, whatever order
    they were given in.
    """

    slide_id: str
    spot_ids: tuple[str, ...]
    pixel: np.ndarray
    array: np.ndarray

    def __post_init__(self) -> None:
        ids = tuple(self.spot_ids)
        pixel = np.asarray(self.pixel, dtype=np.float64)
        array = np.asarray(self.array, dtype=np.int64)
        if pixel.shape != (len(ids), 2) or array.shape != (len(ids), 2):
            raise ShapeMismatch(
                f"{len(ids)} spot ids in {self.slide_id} with "
                f"{pixel.shape} pixel and {array.shape} array positions")
        dup = _find_duplicate(ids)
        if dup is not None:
            raise DuplicateSpot(f"duplicate spot id {dup!r} in {self.slide_id}")
        order = np.lexsort((array[:, 1], array[:, 0]))
        array = array[order]
        same = np.flatnonzero((array[1:] == array[:-1]).all(axis=1))
        if same.size:
            raise DuplicateSpot(
                f"two spots at array position {tuple(array[same[0]].tolist())}"
                f" in {self.slide_id}")
        object.__setattr__(self, "spot_ids",
                           tuple(ids[i] for i in order.tolist()))
        object.__setattr__(self, "pixel", handed_over(pixel[order]))
        object.__setattr__(self, "array", handed_over(array))

    def __len__(self) -> int:
        return len(self.spot_ids)

    def subset(self, spot_ids: Sequence[str]) -> "SpotTable":
        """The named spots, in canonical order."""
        rows = np.sort(rows_of(self.spot_ids, spot_ids, lambda missing: (
            SpotSetMismatch(f"spot {missing[0]!r} of slide "
                            f"{self.slide_id!r} has no coordinates"))))
        return SpotTable(self.slide_id,
                         [self.spot_ids[i] for i in rows.tolist()],
                         self.pixel[rows], self.array[rows])


def check_distinct_pixels(spots: SpotTable) -> None:
    """Raise naming two spots whose pixel positions agree to
    DISTANCE_DECIMALS places."""
    px = np.round(spots.pixel, DISTANCE_DECIMALS)
    order = np.lexsort((px[:, 1], px[:, 0]))
    px = px[order]
    same = np.flatnonzero((px[1:] == px[:-1]).all(axis=1))
    if same.size:
        a, b = (spots.spot_ids[k]
                for k in sorted(order[same[0]:same[0] + 2].tolist()))
        raise DegenerateCoordinates(
            f"{spots.slide_id!r}: spots {a!r} and {b!r} share a pixel "
            f"position")


@dataclass(frozen=True)
class SpotsByGenes:
    """One slide's spots x genes array: an ExpressionMatrix or an
    ImputationMask.  Gene ids and spot ids are each distinct, and values
    is 2-d with one row per spot and one column per gene."""

    slide_id: str
    gene_ids: tuple[str, ...]
    spot_ids: tuple[str, ...]
    values: np.ndarray

    def _shaped(self, v: np.ndarray) -> np.ndarray:
        """v, once the ids are tuples and v is checked against them."""
        object.__setattr__(self, "gene_ids", tuple(self.gene_ids))
        object.__setattr__(self, "spot_ids", tuple(self.spot_ids))
        if v.ndim != 2:
            raise ShapeMismatch(f"values must be 2-d, got {v.ndim}-d")
        if v.shape != (len(self.spot_ids), len(self.gene_ids)):
            raise ShapeMismatch(
                f"values shape {v.shape} does not match "
                f"{len(self.spot_ids)} spots x {len(self.gene_ids)} genes"
            )
        dup = _find_duplicate(self.gene_ids)
        if dup is not None:
            raise GeneSetMismatch(f"duplicate gene id {dup!r} in {self.slide_id}")
        dup = _find_duplicate(self.spot_ids)
        if dup is not None:
            raise DuplicateSpot(f"duplicate spot id {dup!r} in {self.slide_id}")
        return v

    def subset_genes(self, gene_ids: Sequence[str]):
        cols = rows_of(self.gene_ids, gene_ids, lambda missing: (
            GeneSetMismatch(f"genes {missing[:5]} absent from {self.slide_id}")))
        return replace(self, gene_ids=tuple(gene_ids),
                       values=handed_over(self.values[:, cols]))


@dataclass(frozen=True)
class ExpressionMatrix(SpotsByGenes):
    """A spots x genes value matrix tagged with its processing stage.

    Rows follow the slide's canonical spot order.  Stage-specific
    invariants are enforced on construction: raw counts must be
    non-negative integers, log1p values must be non-negative, and every
    stage requires finite values.
    """

    stage: str

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise BadStageTag(f"unknown stage {self.stage!r}")
        v = self._shaped(np.asarray(self.values, dtype=np.float64))
        _check_values(v, self.stage, self.slide_id)
        object.__setattr__(self, "values", _readonly(v))

    @property
    def n_spots(self) -> int:
        return len(self.spot_ids)

    def subset_spots(self, rows: np.ndarray) -> "ExpressionMatrix":
        return replace(self, spot_ids=tuple(self.spot_ids[i] for i in rows),
                       values=handed_over(self.values[rows, :]))


@dataclass(frozen=True)
class ImputationMask(SpotsByGenes):
    """Boolean spots x genes matrix; True marks a cell filled by the denoiser."""

    def __post_init__(self) -> None:
        v = np.asarray(self.values)
        if v.dtype != np.bool_:
            raise ValidationError(f"mask values must be bool, got {v.dtype}")
        object.__setattr__(self, "values", _readonly(self._shaped(v)))


@dataclass(frozen=True)
class EmbeddingTable:
    """Per-spot patch embedding vectors, rows in canonical spot order."""

    slide_id: str
    spot_ids: tuple[str, ...]
    vectors: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "spot_ids", tuple(self.spot_ids))
        v = np.asarray(self.vectors, dtype=np.float64)
        if v.ndim != 2:
            raise ShapeMismatch("embedding vectors must be 2-d")
        if v.shape[0] != len(self.spot_ids):
            raise ShapeMismatch(
                f"{v.shape[0]} embedding rows for {len(self.spot_ids)} spots")
        if not np.all(np.isfinite(v)):
            raise NonFiniteValue(f"non-finite embedding in {self.slide_id}")
        object.__setattr__(self, "vectors", _readonly(v))

    @property
    def d_emb(self) -> int:
        return int(self.vectors.shape[1])

    def rows_for(self, spot_ids: Sequence[str]) -> np.ndarray:
        return rows_of(self.spot_ids, spot_ids, lambda missing: (
            MissingEmbedding(f"spot {missing[0]!r} in {self.slide_id} has no "
                             f"embedding row")))


@dataclass(frozen=True)
class SlideEntry:
    """One slide's file paths and split assignment inside a manifest."""

    slide_id: str
    coords_path: str
    expr_path: str
    emb_path: str
    split: str

    def __post_init__(self) -> None:
        if self.split not in SPLITS:
            raise ValidationError(
                f"slide {self.slide_id!r} has unknown split {self.split!r}")


@dataclass(frozen=True)
class DatasetManifest:
    """Dataset description: slides, geometry, and preprocessing thresholds."""

    name: str
    geometry: str
    n_genes_select: int
    eps_total: float
    eps_wsi: float
    count_min_spot: float
    count_max_spot: float
    count_min_gene: float
    count_max_gene: float
    slides: tuple[SlideEntry, ...]

    def __post_init__(self) -> None:
        if self.geometry not in GEOMETRIES:
            raise ValidationError(
                f"unknown geometry {self.geometry!r}; use "
                f"{' or '.join(GEOMETRIES)}")
        if self.n_genes_select < 1:
            raise ValidationError("n_genes_select must be positive")
        for name in ("eps_total", "eps_wsi"):
            v = getattr(self, name)
            if not 0.0 <= v <= 100.0:
                raise ValidationError(f"{name} must lie in [0, 100], got {v}")
        # written negated so that a NaN bound is refused too
        if not self.count_min_spot <= self.count_max_spot:
            raise ValidationError("count_min_spot exceeds count_max_spot")
        if not self.count_min_gene <= self.count_max_gene:
            raise ValidationError("count_min_gene exceeds count_max_gene")
        object.__setattr__(self, "slides", tuple(self.slides))
        ids = [s.slide_id for s in self.slides]
        dup = _find_duplicate(ids)
        if dup is not None:
            raise ValidationError(f"slide id {dup!r} listed twice in manifest")
        if not any(s.split == "train" for s in self.slides):
            raise EmptySplit("manifest assigns no slide to the train split")


def align_slide(spots: SpotTable, expression: ExpressionMatrix,
                embeddings: EmbeddingTable
                ) -> tuple[SpotTable, ExpressionMatrix, EmbeddingTable]:
    """The three views in canonical spot order, once coverage is checked.

    The expression matrix defines which spots exist; coordinates and
    embeddings may cover a superset and are subset to match.  A view
    already in that order is held as it is, as synth writes its files.
    This is the dataset's rule: validate_dataset is its one caller.
    """
    if spots.spot_ids != expression.spot_ids:
        spots = spots.subset(expression.spot_ids)
    if embeddings.spot_ids != spots.spot_ids:
        embeddings = EmbeddingTable(
            embeddings.slide_id, spots.spot_ids, handed_over(
                embeddings.vectors[embeddings.rows_for(spots.spot_ids), :]))
    if spots.spot_ids != expression.spot_ids:
        # the spots are now the matrix's own, so none is absent
        expression = expression.subset_spots(rows_of(
            expression.spot_ids, spots.spot_ids, SpotSetMismatch))
    return spots, expression, embeddings


def validate_dataset(
    manifest: DatasetManifest,
    read: Callable[[SlideEntry],
                   tuple[SpotTable, ExpressionMatrix, EmbeddingTable]],
    keep: Callable[[SpotTable, EmbeddingTable], None] = lambda s, e: None,
) -> list[ExpressionMatrix]:
    """Cross-slide consistency checks before any processing starts.

    Verifies that all slides carry the identical gene panel in identical
    order, that embedding widths agree, and that every expression spot
    has coordinates and an embedding row (by aligning each slide, which
    raises otherwise).  Calls read once per manifest slide, in manifest
    order, for its (spots, expr, emb), passes the aligned spots and
    embeddings to keep and returns the aligned expression matrices in that
    order: a read that loads the slide's files holds one slide's at a
    time, beyond what keep holds of them.
    """
    d_ref: int | None = None
    matrices: list[ExpressionMatrix] = []
    for entry in manifest.slides:
        spots, expr, emb = read(entry)
        if expr.n_spots == 0:
            raise EmptySlide(f"slide {entry.slide_id!r} has no spots")
        common_genes(matrices[:1] + [expr])
        if d_ref is None:
            d_ref = emb.d_emb
        elif emb.d_emb != d_ref:
            raise WidthMismatch(
                f"slide {entry.slide_id!r} embedding width {emb.d_emb} "
                f"differs from {d_ref}")
        spots, expr, emb = align_slide(spots, expr, emb)
        keep(spots, emb)
        matrices.append(expr)
    return matrices
