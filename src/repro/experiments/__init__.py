"""Experiment harness: regenerate every table and figure of the paper.

* :mod:`repro.experiments.datasets` — registry of synthetic stand-ins for
  the paper's network-repository graphs, with the paper-reported statistics
  attached for side-by-side comparison.
* :mod:`repro.experiments.table1` … :mod:`repro.experiments.figure3` —
  one builder per paper artefact; each has a CLI
  (``python -m repro.experiments.table1``) and a
  ``build_*``/``format_*`` API used by the benchmark suite.
* :mod:`repro.experiments.reporting` — fixed-width ASCII tables and
  human-readable number formatting.
"""

from repro.experiments.datasets import (
    DATASETS,
    DatasetSpec,
    get_statistics,
    make_graph,
)

__all__ = [
    "DATASETS",
    "DatasetSpec",
    "get_statistics",
    "make_graph",
]
