"""Outside-in spans around the public functions of the sepal modules.

The wrappers are installed from here, after `sepal.cli` is imported, by
replacing module and class attributes; nothing under `src/` is edited.
Names bound by `from .x import f` in other sepal modules are rebound too,
so a call reaches the wrapper whichever module it goes through.

A layer whose function no longer exists is reported as missing, never as
zero.  Each span records wall time of its outermost call (a call to a
layer already on the stack is not counted twice) and self time, which is
span time minus the time of the spans recorded inside it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
from time import perf_counter

_READS = ("read_coordinates", "read_expression", "read_embeddings",
          "read_mask", "read_table", "read_manifest", "read_checkpoint")
_WRITES = ("write_coordinates", "write_expression", "write_embeddings",
           "write_mask", "write_table", "write_manifest", "write_checkpoint",
           "write_heatmap")

# layer -> the (module, attribute) pairs whose calls make up its spans
LAYERS = {
    "synth.generate": [("synth", "generate_dataset")],
    "synth.write": [("synth", "write_dataset")],
    "ingest.read": [("ingest", f) for f in _READS],
    "ingest.write": [("ingest", f) for f in _WRITES],
    "core.align": [("core", "align_slide")],
    "core.validate": [("core", "validate_dataset")],
    "preprocess.filter": [("preprocess", "filter_by_counts"),
                          ("preprocess", "filter_by_sparsity")],
    "preprocess.normalize": [("preprocess", "tpm_normalize"),
                             ("preprocess", "log_transform")],
    "denoise.slide": [("denoise", "denoise_slide")],
    "denoise.rings": [("denoise", "build_radial_neighborhoods")],
    "denoise.impute": [("denoise", "impute_gene_map")],
    "spatial.adjacency": [("spatial", "build_adjacency")],
    "spatial.morans": [("spatial", "morans_i_many"), ("spatial", "morans_i")],
    "graphs.khop": [("graphs", "khop_subgraph")],
    "graphs.assemble": [("graphs", "assemble_graph")],
    "train.stage1": [("train", "stage1_train")],
    "train.stage2": [("train", "stage2_train")],
    "train.predict": [("train", "spatial_predict")],
    "train.adam": [("train", "Adam.step")],
    "nn.forward": [("nn", "spatial_forward")],
    "nn.backward": [("nn", "backward")],
    "nn.linear": [("nn", "linear")],
    "nn.conv": [("nn", "gcn_conv"), ("nn", "graph_conv")],
    "nn.readout": [("nn", "sag_mean_readout"),
                   ("nn", "global_mean_readout")],
    "nn.propmat": [("nn", "gcn_matrix"), ("nn", "adj_matrix")],
    "nn.batch": [("nn", "GraphBatch.from_graphs")],
    "metrics.evaluate": [("metrics", "evaluate")],
    "metrics.figures": [("metrics", "emit_figures"),
                        ("metrics", "pcc_histogram")],
}


def _size(path) -> int:
    try:
        return os.stat(path).st_size
    except (OSError, TypeError, ValueError):
        return 0


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span totals and counters for one process."""

    def __init__(self):
        self.stack: list[list] = []       # [layer, child seconds]
        self.spans: dict[str, list] = {}  # layer -> [calls, total, self]
        self.counts: dict[str, float] = {}
        self.stage2_rss_mb: list[float] = []
        self.missing: set[str] = set()

    def _active(self, layer: str) -> bool:
        return any(frame[0] == layer for frame in self.stack)

    def _count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _span_name(self, layer: str) -> str | None:
        """The name a call is recorded under, or None to leave it out."""
        if self._active(layer):
            return None
        # stage 1 is one opaque loop; nn spans cover stage 2 and prediction
        if layer.startswith("nn.") and self._active("train.stage1"):
            return None
        if layer == "train.predict" and self._active("train.stage2"):
            return "train.val"
        return layer

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = self._span_name(layer)
            if name is None:
                return fn(*args, **kwargs)
            before = self._before(name, args)
            frame = [name, 0.0]
            self.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += dt
                rec = self.spans.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            try:
                self._after(name, args, result, before)
            except (AttributeError, IndexError, TypeError):
                # the function's arguments or result changed shape: its
                # counters can no longer be read, so the layer is missing
                self.missing.add(layer)
            return result
        return traced

    def _before(self, name: str, args) -> float:
        if name == "ingest.read" and args:
            return _size(args[0])
        return 0

    def _after(self, name: str, args, result, before) -> None:
        if name == "ingest.read":
            self._count("ingest.read_bytes", before)
        elif name == "ingest.write":
            paths = result if isinstance(result, tuple) else args[:1]
            self._count("ingest.write_bytes", sum(_size(p) for p in paths))
        elif name == "graphs.khop":
            self._count("graphs.nodes", len(result.nodes))
        elif name == "nn.forward":
            self._count("nn.nodes_forwarded", args[1].n_nodes)
        elif name == "denoise.slide":
            report = result[2]
            self._count("denoise.cells_imputed", report.n_imputed)
            self._count("denoise.cells_fallback", report.n_fallback)
        elif name == "train.adam":
            if self._active("train.stage1"):
                self._count("train.stage1_steps")
            elif self._active("train.stage2"):
                self._count("train.stage2_steps")
                self.stage2_rss_mb.append(_maxrss_mb())

    def install(self) -> None:
        """Wrap every LAYERS target; record layers with a target missing."""
        sepal_modules = [m for n, m in list(sys.modules.items())
                         if n == "sepal" or n.startswith("sepal.")]
        for layer, targets in LAYERS.items():
            for mod_name, attr in targets:
                if not self._install_one(layer, mod_name, attr,
                                         sepal_modules):
                    self.missing.add(layer)

    def _install_one(self, layer, mod_name, attr, sepal_modules) -> bool:
        try:
            module = importlib.import_module(f"sepal.{mod_name}")
        except ImportError:
            return False
        owner_name, _, fname = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = None if owner is None else owner.__dict__.get(fname)
            if raw is None:
                return False
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, fname,
                        type(raw)(self.wrap(layer, raw.__func__)))
            else:
                setattr(owner, fname, self.wrap(layer, raw))
            return True
        raw = getattr(module, fname, None)
        if not callable(raw):
            return False
        wrapped = self.wrap(layer, raw)
        for m in sepal_modules:
            for key, value in list(vars(m).items()):
                if value is raw:
                    setattr(m, key, wrapped)
        return True

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "stage2_rss_mb": self.stage2_rss_mb,
                       "missing": sorted(self.missing)}, fh)
