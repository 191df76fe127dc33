"""Seeded synthetic datasets for pipeline tests and demos.

Each slide is a regular lattice of spots with standard-normal embeddings.
A configurable number of "smooth" genes carry spatial structure from two
sources: a low-frequency sinusoidal field over the lattice, and a linear
readout of the neighborhood mean of the embeddings (center included).
The linear map and field frequencies are shared across slides, so a model
that aggregates neighbor embeddings can generalize to held-out slides;
the field phases and all noise are slide-specific.  Remaining genes are
white noise.  Everything is driven by one seed and reproduces exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    DatasetManifest,
    EmbeddingTable,
    ExpressionMatrix,
    GEOMETRIES,
    SlideEntry,
    SpotTable,
    ValidationError,
    handed_over,
)
from . import ingest, spatial

VALUE_BASELINE = 6.0
VALUE_FLOOR = 0.05
COUNT_LOG_CAP = 20.0
NOISE_SD = 0.1  # of the smooth genes; noise genes are standard normal


@dataclass(frozen=True)
class SynthConfig:
    grid_rows: int = 20
    grid_cols: int = 20
    d_emb: int = 16
    n_genes: int = 32
    n_smooth: int = 8
    zero_fraction: float = 0.0
    field_amplitude: float = 0.5
    geometry: str = "square_grid"
    n_slides: int = 3
    counts: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("grid_rows", "grid_cols", "d_emb", "n_genes",
                     "n_slides"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be positive")
        if not 0 <= self.n_smooth <= self.n_genes:
            raise ValidationError("n_smooth must lie in [0, n_genes]")
        if not 0.0 <= self.zero_fraction < 1.0:
            raise ValidationError("zero_fraction must lie in [0, 1)")
        if self.field_amplitude < 0:
            raise ValidationError("field_amplitude must be non-negative")
        if self.geometry not in GEOMETRIES:
            raise ValidationError(f"unknown geometry {self.geometry!r}")


@dataclass(frozen=True)
class SynthDataset:
    config: SynthConfig
    gene_ids: tuple[str, ...]
    slide_ids: tuple[str, ...]
    splits: tuple[str, ...]
    parts: dict


def _split_for(i: int) -> str:
    return ("train", "val")[i] if i < 2 else "test"


def _lattice(slide_id: str, cfg: SynthConfig) -> SpotTable:
    """The slide's spots on a square lattice, or on a hex lattice whose
    row r holds array columns r % 2, r % 2 + 2, ..."""
    rows, k = np.divmod(np.arange(cfg.grid_rows * cfg.grid_cols),
                        cfg.grid_cols)
    if cfg.geometry == "square_grid":
        cols, pixel = k, np.column_stack((k * 100.0, rows * 100.0))
    else:
        cols = rows % 2 + 2 * k
        pixel = np.column_stack((cols * 50.0,
                                 rows * (50.0 * math.sqrt(3.0))))
    return SpotTable(slide_id,
                     [f"spot_r{r}_c{c}" for r, c in zip(rows.tolist(),
                                                        cols.tolist())],
                     pixel, np.column_stack((rows, cols)))


def _neighbor_mean(emb: np.ndarray, adjacency) -> np.ndarray:
    """Mean embedding over each spot and its lattice neighbors.  The sums
    add, edge by edge, row j to row i and then row i to row j, so they
    round as an edge loop's do."""
    idx = adjacency.edges.reshape(-1)
    total = emb.copy()
    np.add.at(total, idx, emb[adjacency.edges[:, ::-1].reshape(-1)])
    count = 1.0 + np.bincount(idx, minlength=emb.shape[0])
    return total / count[:, None]


def generate_dataset(cfg: SynthConfig) -> SynthDataset:
    """Build every slide in memory.  parts maps slide_id -> (spots, expr,
    emb).  The planted genes are the ids that start with "smooth"."""
    smooth_ids = tuple(f"smooth{j:03d}" for j in range(cfg.n_smooth))
    noise_ids = tuple(f"noise{j:03d}"
                      for j in range(cfg.n_genes - cfg.n_smooth))
    gene_ids = smooth_ids + noise_ids
    slide_ids = tuple(f"synth{i:02d}" for i in range(cfg.n_slides))

    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_slides + 1)
    master = np.random.default_rng(seeds[0])
    # the embedding-to-expression map and field frequencies are shared so
    # smooth genes mean the same thing on every slide
    linear = master.standard_normal((cfg.n_smooth, cfg.d_emb))
    norms = np.linalg.norm(linear, axis=1, keepdims=True)
    linear = np.divide(linear, norms, out=np.zeros_like(linear),
                       where=norms > 0)
    freqs = master.integers(1, 4, size=(cfg.n_smooth, 2))

    parts = {}
    for i, slide_id in enumerate(slide_ids):
        rng = np.random.default_rng(seeds[i + 1])
        spots = _lattice(slide_id, cfg)
        n = len(spots)
        emb = rng.standard_normal((n, cfg.d_emb))
        phases = rng.uniform(0.0, 2.0 * math.pi, size=cfg.n_smooth)
        noise = rng.standard_normal((n, cfg.n_genes))

        values = np.empty((n, cfg.n_genes))
        if cfg.n_smooth:
            adjacency = spatial.build_adjacency(spots, cfg.geometry)
            local = _neighbor_mean(emb, adjacency)
            rr, cc = spots.array.T.astype(float)
            rows_span = max(cfg.grid_rows, 1)
            cols_span = max(2 * cfg.grid_cols, 1) \
                if cfg.geometry == "hex_array" else max(cfg.grid_cols, 1)
            angle = 2.0 * math.pi * (
                np.outer(rr, freqs[:, 0]) / rows_span
                + np.outer(cc, freqs[:, 1]) / cols_span)
            field = np.sin(angle + phases[None, :])
            values[:, :cfg.n_smooth] = (
                VALUE_BASELINE
                + cfg.field_amplitude * field
                + local @ linear.T
                + NOISE_SD * noise[:, :cfg.n_smooth])
        values[:, cfg.n_smooth:] = (
            VALUE_BASELINE + noise[:, cfg.n_smooth:])
        np.maximum(values, VALUE_FLOOR, out=values)

        if cfg.zero_fraction > 0.0:
            k = int(cfg.zero_fraction * n)
            for j in range(cfg.n_genes):
                idx = rng.choice(n, size=k, replace=False)
                values[idx, j] = 0.0

        if cfg.counts:
            counts = np.rint(
                np.exp2(np.clip(values, 0.0, COUNT_LOG_CAP))) - 1.0
            expr = ExpressionMatrix(slide_id, gene_ids, spots.spot_ids,
                                    handed_over(np.maximum(counts, 0.0)),
                                    "raw_counts")
        else:
            expr = ExpressionMatrix(slide_id, gene_ids, spots.spot_ids,
                                    handed_over(values), "log1p")
        table = EmbeddingTable(slide_id, spots.spot_ids, handed_over(emb))
        parts[slide_id] = (spots, expr, table)

    return SynthDataset(
        config=cfg,
        gene_ids=gene_ids,
        slide_ids=slide_ids,
        splits=tuple(_split_for(i) for i in range(cfg.n_slides)),
        parts=parts,
    )


def write_dataset(dataset: SynthDataset, outdir) -> Path:
    """Write per-slide TSVs plus the manifest.  Returns the manifest path."""
    outdir = Path(outdir)
    cfg = dataset.config
    entries = []
    for slide_id, split in zip(dataset.slide_ids, dataset.splits):
        spots, expr, emb = dataset.parts[slide_id]
        coords = outdir / f"{slide_id}_coords.tsv"
        expr_path = outdir / f"{slide_id}_expr.tsv"
        emb_path = outdir / f"{slide_id}_emb.tsv"
        ingest.write_coordinates(coords, spots)
        ingest.write_expression(expr_path, expr)
        ingest.write_embeddings(emb_path, emb)
        entries.append(SlideEntry(slide_id, str(coords), str(expr_path),
                                  str(emb_path), split))
    manifest = DatasetManifest(
        name=f"synthetic_{cfg.geometry}_{cfg.seed}",
        geometry=cfg.geometry,
        n_genes_select=min(cfg.n_genes, 256),
        eps_total=0.0,
        eps_wsi=0.0,
        count_min_spot=0.0,
        count_max_spot=math.inf,
        count_min_gene=0.0,
        count_max_gene=math.inf,
        slides=tuple(entries),
    )
    path = outdir / "manifest.toml"
    ingest.write_manifest(path, manifest)
    return path
