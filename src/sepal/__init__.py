"""Predict spatially resolved gene expression from histology patch embeddings.

The pipeline runs in ordered stages over a manifest of slides: count and
sparsity filtering, library-size normalization, log transform, median-based
zero imputation, spatially-variable gene selection, local graph construction,
two-stage model training, and masked evaluation.  Stages pass numpy archives
and TSV reports, so any step can be inspected or rerun in isolation.

Each command runs in a process of its own, so the library modules that not
every command needs are loaded lazily: each is in sys.modules from the
start and runs its code on its first attribute use.  core and ingest, which
every command uses, load as usual.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_LAZY = ("denoise", "graphs", "metrics", "nn", "preprocess", "spatial",
         "synth", "train")


def _lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _LAZY:
    globals()[_name] = _lazy(_name)
del _name
