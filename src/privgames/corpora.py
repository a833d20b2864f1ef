"""Bundled demonstration corpora and dataset references.

Three small CSV corpora ship inside the package so experiments and
acceptance checks run out of the box:

* ``correlated_500``: 5 columns (3 categorical, 2 ordered), 500 records
  with strong pairwise structure and planted near-duplicate clusters, so
  per-record risk varies with the sampled training dataset.
* ``copycol_400``: 2 columns where the second always equals the first
  and the marginal is heavily skewed; handy for attacks that need a
  deterministically learnable signal.
* ``independent_1000``: 3 independent columns; a null corpus.

The seeded code that generated them lives in ``tests/test_corpora.py``,
which regenerates each corpus and fails if the shipped file drifts.
"""

import os
from importlib import resources

from . import data as data_mod
from .errors import DomainError

CORRELATED = "correlated_500"
COPYCOL = "copycol_400"
INDEPENDENT = "independent_1000"

NAMES = (CORRELATED, COPYCOL, INDEPENDENT)


def _corpora_dir():
    return resources.files("privgames") / "corpora"


def corpus_path(name):
    """Filesystem path of a bundled corpus CSV."""
    if name not in NAMES:
        raise DomainError(f"unknown corpus {name!r}; have {', '.join(NAMES)}")
    return str(_corpora_dir() / f"{name}.csv")


def sidecar_path(name):
    """Path of the schema sidecar next to the corpus CSV, or None if it has none."""
    p = corpus_path(name)[: -len(".csv")] + ".schema"
    return p if os.path.isfile(p) else None


def resolve_dataset(ref):
    """Resolve a dataset reference to (csv_path, sidecar_path_or_None).

    ``bundled:<name>`` points into the package; anything else is a
    filesystem path whose sidecar, if any, the caller supplies.
    """
    if ref.startswith("bundled:"):
        name = ref[len("bundled:") :]
        return corpus_path(name), sidecar_path(name)
    return ref, None


def load_dataset(ref, sidecar=""):
    """Load a dataset reference into a Dataset, with the hints of
    ``sidecar`` or, when that is empty, of the bundled corpus's own."""
    csv_path, side = resolve_dataset(ref)
    sidecar = sidecar or side
    hints = data_mod.parse_schema_sidecar(sidecar) if sidecar else None
    return data_mod.load_csv(csv_path, hints=hints)
