"""Tabular data model: schemas, datasets, CSV ingestion, seeded sampling.

All columns are finite and discrete.  Categorical text columns are
indexed in first-appearance order; integer columns can be declared
ordered; continuous columns are discretized into equal-frequency bins at
load time, after which they behave as ordered columns.  Records are
plain tuples of 0-based value indices and datasets are immutable
wrappers around an ``(n, d)`` int64 array.
"""

import csv
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import CsvParseError, DomainError, SizeError
from .seeds import rng

CATEGORICAL = "categorical"
ORDERED = "ordered"

DEFAULT_BINS = 10


@dataclass(frozen=True)
class Column:
    """One schema column.

    Parameters
    ----------
    name : str
        Column name, unique within a schema.
    kind : str
        ``"categorical"`` or ``"ordered"``.  Ordered columns carry a
        total order on their levels, which match queries exploit.
    size : int
        Number of distinct values (cardinality or level count).
    labels : tuple of str, optional
        Source string for each categorical index, in first-appearance
        order.  Ordered columns keep None.
    """

    name: str
    kind: str
    size: int
    labels: tuple = None

    def __post_init__(self):
        if self.kind not in (CATEGORICAL, ORDERED):
            raise DomainError(f"unknown column kind {self.kind!r}")
        if self.size < 1:
            raise DomainError(f"column {self.name!r} must have size >= 1")
        if self.labels is not None and len(self.labels) != self.size:
            raise DomainError(
                f"column {self.name!r} has {len(self.labels)} labels for size {self.size}"
            )


@dataclass(frozen=True)
class Schema:
    """Ordered collection of columns describing one table layout."""

    columns: tuple

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(self.columns) == 0:
            raise DomainError("schema needs at least one column")
        if len(set(names)) != len(names):
            raise DomainError("duplicate column names in schema")

    @property
    def ncols(self):
        return len(self.columns)

    @property
    def names(self):
        return tuple(c.name for c in self.columns)

    @property
    def sizes(self):
        return tuple(c.size for c in self.columns)


class Dataset:
    """Immutable multiset of schema-conforming records.

    Duplicates are retained; multiplicity is part of the data.  Values
    live in a read-only ``(n, d)`` int64 array of value indices.
    """

    def __init__(self, schema, values, validate=True):
        arr = np.asarray(values, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, schema.ncols)
        if arr.ndim != 2 or arr.shape[1] != schema.ncols:
            raise DomainError(
                f"values must be (n, {schema.ncols}), got shape {arr.shape}"
            )
        if validate and arr.shape[0] > 0:
            for j, col in enumerate(schema.columns):
                lo = arr[:, j].min()
                hi = arr[:, j].max()
                if lo < 0 or hi >= col.size:
                    raise DomainError(
                        f"column {col.name!r} holds values outside [0, {col.size - 1}]"
                    )
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        self.schema = schema
        self.values = arr

    @property
    def n(self):
        return self.values.shape[0]

    def __len__(self):
        return self.n

    def record(self, i):
        """Record ``i`` as a tuple of ints."""
        return tuple(int(v) for v in self.values[i])

    def records(self):
        """All records as a list of tuples, in storage order."""
        return [self.record(i) for i in range(self.n)]

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.schema == other.schema and np.array_equal(
            self.values, other.values
        )


@dataclass(frozen=True)
class ColumnHint:
    """Load-time hint for one CSV column.

    kind is "categorical", "ordered", or "continuous"; levels fixes the
    level count of an ordered column; bins sets the number of
    equal-frequency bins for a continuous one.
    """

    kind: str = CATEGORICAL
    levels: int = None
    bins: int = DEFAULT_BINS


def validate_record(schema, x):
    """Raise DomainError unless ``x`` is a record of ``schema``."""
    if len(x) != schema.ncols:
        raise DomainError(
            f"record has {len(x)} fields, schema has {schema.ncols} columns"
        )
    for v, col in zip(x, schema.columns):
        v = int(v)
        if v < 0 or v >= col.size:
            raise DomainError(
                f"value {v} outside column {col.name!r} domain [0, {col.size - 1}]"
            )


@contextmanager
def _open_utf8(path, newline=None):
    """Open a text file; bytes that are not UTF-8 raise CsvParseError."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise CsvParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def parse_schema_sidecar(path):
    """Read per-column hints from a key-value sidecar file.

    One line per column: ``name = kind`` or ``name = ordered:<levels>``
    or ``name = continuous:<bins>``.  Blank lines and ``#`` comments are
    skipped.  Unknown kinds raise DomainError; a count that is not an
    integer raises CsvParseError naming the line, and bytes that are not
    UTF-8 raise CsvParseError naming the file.
    """
    hints = {}
    with _open_utf8(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CsvParseError(f"{path}: line {lineno}: expected 'name = kind'")
            name, _, decl = line.partition("=")
            name = name.strip()
            decl = decl.strip()
            kind, _, arg = decl.partition(":")
            kind = kind.strip()
            arg = arg.strip()
            if kind == CATEGORICAL:
                hints[name] = ColumnHint(CATEGORICAL)
            elif kind == ORDERED:
                levels = _parse_int(path, lineno, name, arg) if arg else None
                hints[name] = ColumnHint(ORDERED, levels=levels)
            elif kind == "continuous":
                bins = _parse_int(path, lineno, name, arg) if arg else DEFAULT_BINS
                hints[name] = ColumnHint("continuous", bins=bins)
            else:
                raise DomainError(f"{path}: line {lineno}: unknown column kind {kind!r}")
    return hints


def _equal_frequency_edges(vals, bins):
    # Inner quantile edges; bin of v = #edges strictly below-or-at v, so
    # equal values always land in the same bin even when quantiles tie.
    qs = [k / bins for k in range(1, bins)]
    return np.quantile(vals, qs)


def load_csv(path, hints=None):
    """Load a UTF-8 CSV with a header row into a Dataset.

    The schema is inferred: text columns become categoricals indexed in
    first-appearance order, and ``hints`` (name -> ColumnHint) may
    declare ordered or continuous columns.  Rows whose field count
    disagrees with the header raise CsvParseError naming the line, and
    bytes that are not UTF-8 raise CsvParseError naming the file.
    """
    with _open_utf8(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError(f"{path}: empty file, expected a header row")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise CsvParseError(
                    f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}"
                )
            rows.append(row)

    d = len(header)
    n = len(rows)
    hints = hints or {}
    columns = []
    values = np.empty((n, d), dtype=np.int64)
    for j, name in enumerate(header):
        hint = hints.get(name, ColumnHint())
        raw = [row[j] for row in rows]
        if hint.kind == CATEGORICAL:
            index = {}
            labels = []
            for i, v in enumerate(raw):
                if v not in index:
                    index[v] = len(labels)
                    labels.append(v)
                values[i, j] = index[v]
            size = max(len(labels), 1)
            labels = tuple(labels) if labels else ("",)
            columns.append(Column(name, CATEGORICAL, size, labels))
        elif hint.kind == ORDERED:
            ints = [_parse_int(path, i + 2, name, v) for i, v in enumerate(raw)]
            top = max(ints, default=-1)
            if min(ints, default=0) < 0:
                raise DomainError(f"{path}: column {name!r} has negative levels")
            size = hint.levels if hint.levels is not None else top + 1
            if size < 1:
                size = 1
            if top >= size:
                raise DomainError(
                    f"{path}: column {name!r} holds level {top} but declares {size} levels"
                )
            values[:, j] = ints
            columns.append(Column(name, ORDERED, size))
        elif hint.kind == "continuous":
            floats = np.array(
                [_parse_float(path, i + 2, name, v) for i, v in enumerate(raw)]
            )
            bins = hint.bins
            if bins < 1:
                raise DomainError(f"column {name!r}: bins must be >= 1")
            if n > 0:
                edges = _equal_frequency_edges(floats, bins)
                values[:, j] = np.searchsorted(edges, floats, side="right")
            columns.append(Column(name, ORDERED, bins))
        else:
            raise DomainError(f"unknown column hint kind {hint.kind!r}")
    return Dataset(Schema(tuple(columns)), values, validate=False)


def _parse_int(path, lineno, name, text):
    try:
        return int(text)
    except ValueError:
        raise CsvParseError(
            f"{path}: line {lineno}: column {name!r}: {text!r} is not an integer"
        )


def _parse_float(path, lineno, name, text):
    try:
        return float(text)
    except ValueError:
        raise CsvParseError(
            f"{path}: line {lineno}: column {name!r}: {text!r} is not a number"
        )


def split(pool, sizes, seed):
    """Partition ``pool`` into disjoint (auxiliary, evaluation) datasets.

    Parameters
    ----------
    pool : Dataset
    sizes : tuple of int
        ``(aux_size, eval_size)``; their sum may not exceed ``pool.n``.
    seed : int

    Returns
    -------
    (Dataset, Dataset)
    """
    aux_size, eval_size = sizes
    if aux_size < 0 or eval_size < 0:
        raise SizeError("split sizes must be non-negative")
    if aux_size + eval_size > pool.n:
        raise SizeError(
            f"split sizes {aux_size}+{eval_size} exceed pool of {pool.n} records"
        )
    perm = rng(seed).permutation(pool.n)
    aux_idx = perm[:aux_size]
    eval_idx = perm[aux_size : aux_size + eval_size]
    return (
        Dataset(pool.schema, pool.values[aux_idx], validate=False),
        Dataset(pool.schema, pool.values[eval_idx], validate=False),
    )


def sample_records(pool, n, seed):
    """Draw ``n`` records from ``pool`` uniformly without replacement.

    Raises SizeError when the pool has fewer than ``n`` rows.
    """
    if n < 0:
        raise SizeError("sample size must be non-negative")
    if n > pool.n:
        raise SizeError(f"requested {n} records but only {pool.n} are available")
    idx = rng(seed).choice(pool.n, size=n, replace=False)
    return Dataset(pool.schema, pool.values[idx], validate=False)


def contains(dataset, x):
    """True when some record of ``dataset`` equals ``x`` by value."""
    validate_record(dataset.schema, x)
    if dataset.n == 0:
        return False
    xa = np.asarray(x, dtype=np.int64)
    return bool((dataset.values == xa).all(axis=1).any())


def value_equal_indices(dataset, x):
    """Row indices of every record value-equal to ``x``."""
    validate_record(dataset.schema, x)
    if dataset.n == 0:
        return np.array([], dtype=np.int64)
    xa = np.asarray(x, dtype=np.int64)
    return np.flatnonzero((dataset.values == xa).all(axis=1))


def append_record(dataset, x):
    """New dataset with ``x`` appended; caller has validated ``x``."""
    xa = np.asarray(x, dtype=np.int64).reshape(1, -1)
    return Dataset(
        dataset.schema, np.vstack([dataset.values, xa]), validate=False
    )


def rows_not_in(dataset, other):
    """Values of ``dataset`` rows that do not appear in ``other`` by value."""
    if dataset.n == 0:
        return dataset.values
    seen = {row.tobytes() for row in other.values}
    keep = [i for i in range(dataset.n) if dataset.values[i].tobytes() not in seen]
    return dataset.values[keep]
