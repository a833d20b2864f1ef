"""Tabular data model: schemas, datasets, CSV ingestion, seeded sampling.

All columns are finite and discrete.  Categorical text columns are
indexed in first-appearance order; integer columns can be declared
ordered; continuous columns are discretized into equal-frequency bins at
load time, after which they behave as ordered columns.  Records are
plain tuples of 0-based value indices and datasets are immutable
wrappers around an ``(n, d)`` int64 array; a batch of training sets is
one ``(B, n, d)`` array of the schema's narrowest unsigned dtype, drawn
from open streams (``sample_training_sets``).

Every file privgames writes, tables and transcripts alike, is a
``# privgames-<kind> v1 key=value ...`` header, its kind's ``TABLES``
column line and comma-separated rows: ``table_lines`` builds one,
``write_text`` lands it atomically, and ``read_table`` reads it back.
"""

import csv
import math
import os
import re
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from itertools import starmap, zip_longest

import numpy as np

from .errors import ConfigError, CsvParseError, DomainError, SizeError
from .seeds import rng

CATEGORICAL = "categorical"
ORDERED = "ordered"

DEFAULT_BINS = 10

GAME_KINDS = ("traditional", "model_seeded")


def read_value(text, reader, where, error):
    """``text`` read by ``reader``: ``(parse, what, rule)``, ``rule`` None or
    ``(predicate, what)``.  Text that ``parse`` refuses (ValueError), or
    whose value fails the rule, raises ``error("<where> '<text>' is not <what>")``."""
    parse, what, rule = reader
    try:
        value = parse(text)
    except ValueError:
        raise error(f"{where} {text!r} is not {what}") from None
    if rule is not None and not rule[0](value):
        raise error(f"{where} {text!r} is not {rule[1]}")
    return value


def _finite(text):
    # nan, inf and overflow such as 1e999 parse as floats but are no
    # setting and cannot be binned: refuse them.
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def one_of(names):
    """The reader of a name from ``names``."""
    return str, "text", (names.__contains__, "one of " + ", ".join(names))


TEXT = (str, "text", None)
INT = (int, "an integer", None)
FINITE = (_finite, "a finite number", None)
SEED = (int, "an integer", (lambda v: 0 <= v < 2**64, "in [0, 2**64)"))
COUNT = (int, "an integer", (lambda v: v >= 1, ">= 1"))
_NUMBER = (float, "a number", None)
_UNIT = (float, "a number", (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"))
_BIT = (int, "an integer", (lambda v: v in (0, 1), "0 or 1"))
_SCORE = (float, "a number", (math.isfinite, "finite"))
_HINT_KIND = one_of((CATEGORICAL, ORDERED, "continuous"))
_HEX12 = re.compile("[0-9a-f]{12}").fullmatch
_HASH = (str, "text", (_HEX12, "12 lowercase hex digits"))
_MIXED = (str, "text", (lambda v: v == "mixed" or _HEX12(v), "12 lowercase hex digits or mixed"))
# One ``key=value`` of a header line: a value runs up to the next
# " key=", so it may hold spaces.
_HEADER_PAIR = re.compile(r"(\w+)=(.*?)(?= \w+=|$)")
_RUN_HEADER = (("config", _HASH), ("status", one_of(("complete", "partial"))), ("generated", TEXT))

# Each kind of file privgames writes: its column line, a reader per
# column (None where no command reads the kind back), and its header keys
# in written order, each with its reader.
TABLES = {
    "results": (
        "record_id,game,n_eval,auc,radius,alpha,beta",
        (TEXT, TEXT, INT, _UNIT, _NUMBER, _UNIT, _UNIT),
        _RUN_HEADER,
    ),
    "comparison": (
        "record_id,risk_traditional,risk_model_seeded,delta,abs_delta",
        None,
        (("config", _MIXED),) + _RUN_HEADER[1:],
    ),
    "convergence": (
        "record_id,game,n_eval,auc_mean,auc_std,radius",
        (TEXT, TEXT, INT, _UNIT, _NUMBER, _NUMBER),
        _RUN_HEADER,
    ),
    "dp-audit": (
        "record_id,alpha,beta,bound,flagged", (TEXT, _UNIT, _UNIT, _NUMBER, _BIT), _RUN_HEADER
    ),
    "transcript": (
        "run_index,secret_bit,score,run_seed",
        (INT, _BIT, _SCORE, SEED),
        (("config", _HASH), ("game", one_of(GAME_KINDS)), ("n_eval", INT), ("record", TEXT)),
    ),
}


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

    @property
    def dtype(self):
        """The narrowest unsigned dtype that holds the widest level: the
        dtype of training sets and releases."""
        return np.min_scalar_type(max(self.sizes) - 1)


class Dataset:
    """Immutable multiset of schema-conforming records.

    Duplicates are retained; multiplicity is part of the data.  Values
    live in a read-only ``(n, d)`` int64 array of in-domain value indices.
    """

    def __init__(self, schema, values):
        arr = np.asarray(values, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, schema.ncols)
        if arr.ndim != 2 or arr.shape[1] != schema.ncols:
            raise DomainError(
                f"values must be (n, {schema.ncols}), got shape {arr.shape}"
            )
        if arr.shape[0] > 0:
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
def _open_utf8(path, newline=None, error=CsvParseError):
    """Open a text file, skipping a leading UTF-8 byte-order mark (which
    Excel's "CSV UTF-8" export writes); bytes that are not UTF-8 raise
    ``error``."""
    with open(path, encoding="utf-8-sig", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


def table_lines(kind, header, rows):
    """Header line (the kind's ``TABLES`` header keys, each ``key=value``
    with its value from the tuple ``header``), the kind's column line,
    then one line per tuple of ``rows``: its values in column order, each
    as ``format(value)``, which for a float is its repr.  A header value
    that ``read_table`` would not read back as written, or that holds a
    line break, raises DomainError naming its key."""
    columns, _, keys = TABLES[kind]
    texts = [(key, format(value)) for (key, _), value in zip(keys, header, strict=True)]
    line = " ".join(f"{key}={text}" for key, text in texts)
    back = _HEADER_PAIR.findall(line)
    for at, (key, text) in enumerate(texts):
        if back[at : at + 1] != [(key, text)] or "".join(text.splitlines()) != text:
            raise DomainError(f"{kind} header {key}={text!r} would not read back")
    # One format string per table: formatting a row costs no per-value dispatch.
    row = ",".join(["{}"] * (columns.count(",") + 1)).format
    return [f"# privgames-{kind} v1 {line}", columns, *starmap(row, rows)]


def write_text(path, text):
    """Write ``text`` to ``path`` atomically: into ``<path>.tmp``, then
    ``os.replace``, so the file holds the old text or all of the new.  A
    file that cannot be written raises ConfigError naming it, and leaves
    no ``<path>.tmp`` behind."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        with suppress(OSError):
            os.remove(tmp)
        raise ConfigError(f"{path}: cannot write ({exc.strerror or exc})") from None


def read_table(path, kind):
    """Header ``{key: value}`` and ``(line number, fields, values)`` rows
    of a ``kind`` file, blank lines skipped: header and row values as the
    ``TABLES`` readers parse them (row text for a kind without readers).
    A file that cannot be read, bytes that are not UTF-8, a last line
    without its newline (a file cut short), another header or column line,
    a header key missing, repeated, extra or out of order, and a value its
    reader refuses raise ConfigError naming file and line."""
    columns, readers, keys = TABLES[kind]
    try:
        with _open_utf8(path, error=ConfigError) as fh:
            lines = list(enumerate(fh, start=1))
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc.strerror})") from None
    if lines and not lines[-1][1].endswith("\n"):
        raise ConfigError(f"{path}, line {lines[-1][0]}: cut short, no newline at the end")
    lines = [(no, raw.rstrip("\n")) for no, raw in lines]
    prefix = f"# privgames-{kind} v1 "
    if not lines or not lines[0][1].startswith(prefix):
        raise ConfigError(f"{path}, line 1: not a version-1 {kind} file")
    pairs = _HEADER_PAIR.findall(lines[0][1][len(prefix):])
    found, names = [key for key, _ in pairs], [key for key, _ in keys]
    if found != names:
        raise ConfigError(f"{path}, line 1: header {_misplaced(found, names)}")
    header = {
        key: read_value(text, reader, f"{path}, line 1: {key}", ConfigError)
        for (key, text), (_, reader) in zip(pairs, keys)
    }
    body = [(no, line.split(",")) for no, line in lines[1:] if line.strip()]
    if not body:
        raise ConfigError(f"{path}: no column header after line 1")
    no, found = body[0]
    if found != columns.split(","):
        raise ConfigError(f"{path}, line {no}: unexpected column header {','.join(found)!r}")
    if readers is None:
        return header, [(no, parts, tuple(parts)) for no, parts in body[1:]]
    rows = []
    for no, parts in body[1:]:
        where = f"{path}, line {no}:"
        if len(parts) != len(readers):
            raise ConfigError(f"{where} expected {len(readers)} fields, got {len(parts)}")
        values = [
            read_value(text, reader, f"{where} {column}", ConfigError)
            for column, text, reader in zip(found, parts, readers)
        ]
        rows.append((no, parts, tuple(values)))
    return header, rows


def _misplaced(found, names):
    """What is wrong with header keys ``found`` where ``names`` belong,
    naming the first key out of place."""
    key, wanted = next((k, n) for k, n in zip_longest(found, names) if k != n)
    if found.count(key) > 1:
        return f"key {key!r} appears twice"
    if key is not None and key not in names:
        return f"key {key!r} is not one of {', '.join(names)}"
    if wanted not in found:
        return f"key {wanted!r} is missing"
    return f"key {key!r} is out of order"


def parse_schema_sidecar(path):
    """Read per-column hints from a key-value sidecar file.

    One line per column: ``name = kind`` or ``name = ordered:<levels>``
    or ``name = continuous:<bins>``.  Blank lines and ``#`` comments are
    skipped.  Unknown kinds raise DomainError; an argument after
    ``categorical``, a count that is not an integer >= 1 and a column
    named twice raise CsvParseError naming the line, and bytes that are
    not UTF-8 raise CsvParseError naming the file.
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
            kind, _, arg = decl.partition(":")
            name, kind, arg = name.strip(), kind.strip(), arg.strip()
            if name in hints:
                raise CsvParseError(f"{path}: line {lineno}: column {name!r} is declared twice")
            where = f"{path}: line {lineno}: column {name!r}:"
            kind = read_value(kind, _HINT_KIND, where, DomainError)
            if kind == CATEGORICAL:
                if arg:
                    raise CsvParseError(f"{where} categorical takes no argument, got {arg!r}")
                hints[name] = ColumnHint(CATEGORICAL)
            elif kind == ORDERED:
                levels = read_value(arg, COUNT, where, CsvParseError) if arg else None
                hints[name] = ColumnHint(ORDERED, levels=levels)
            else:
                bins = read_value(arg, COUNT, where, CsvParseError) if arg else DEFAULT_BINS
                hints[name] = ColumnHint(kind, bins=bins)
    return hints


def linear_quantiles(ordered, qs):
    """The ``qs`` quantiles of the sorted float sample ``ordered``, bit for
    bit numpy's ``method="linear"``: index ``(n - 1) * q``, numpy's
    ``_lerp`` from its floor to the next value, the last value at or past
    ``n - 1``.  Unlike numpy's, it calls no ``np.unique``, which on numpy
    2 imports ``numpy.ma``."""
    last = len(ordered) - 1
    index = last * np.asarray(qs, dtype=float)
    below = np.floor(index)
    at = np.minimum(below.astype(np.intp), last)
    a, b, t = ordered[at], ordered[np.minimum(at + 1, last)], index - below
    lerp = np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)
    return np.where(index >= last, ordered[-1], lerp)


def _equal_frequency_edges(vals, bins):
    # Inner quantile edges; bin of v = #edges strictly below-or-at v, so
    # equal values always land in the same bin even when quantiles tie.
    qs = [k / bins for k in range(1, bins)]
    # Interpolating between values of opposite sign near the float limit
    # overflows to inf; halving first is exact for all but subnormals.
    if np.abs(vals).max() > np.finfo(vals.dtype).max / 2:
        return linear_quantiles(np.sort(vals) / 2, qs) * 2
    return linear_quantiles(np.sort(vals), qs)


def load_csv(path, hints=None):
    """Load a UTF-8 CSV with a header row into a Dataset.

    The schema is inferred: text columns become categoricals indexed in
    first-appearance order, and ``hints`` (name -> ColumnHint) may
    declare ordered or continuous columns.  Rows whose field count
    disagrees with the header, and continuous values that are not finite
    numbers, raise CsvParseError naming the line; so does a header that
    names a column twice.  A hint for a column the header lacks, and
    bytes that are not UTF-8, raise CsvParseError naming the file.
    """
    with _open_utf8(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError(f"{path}: empty file, expected a header row")
        for j, name in enumerate(header):
            if name in header[:j]:
                raise CsvParseError(f"{path}: line 1: column {name!r} appears twice in the header")
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
    for name in hints:
        if name not in header:
            raise CsvParseError(f"{path}: the schema names column {name!r}, not in the header")
    columns = []
    values = np.empty((n, d), dtype=np.int64)
    by_column = list(zip(*rows)) or [()] * d
    for j, (name, raw) in enumerate(zip(header, by_column)):
        hint = hints.get(name, ColumnHint())
        if hint.kind == CATEGORICAL:
            # Codes in first-appearance order: a new label gets the next.
            index = {}
            values[:, j] = [index.setdefault(v, len(index)) for v in raw]
            columns.append(Column(name, CATEGORICAL, max(len(index), 1), tuple(index) or ("",)))
        elif hint.kind == ORDERED:
            if hint.levels is not None and hint.levels < 1:
                raise DomainError(f"column {name!r}: levels must be >= 1")
            ints = _read_cells(path, name, raw, INT)
            top = max(ints, default=-1)
            if min(ints, default=0) < 0:
                raise DomainError(f"{path}: column {name!r} has negative levels")
            size = hint.levels if hint.levels is not None else max(top + 1, 1)
            if top >= size:
                raise DomainError(
                    f"{path}: column {name!r} holds level {top} but declares {size} levels"
                )
            values[:, j] = ints
            columns.append(Column(name, ORDERED, size))
        elif hint.kind == "continuous":
            floats = np.array(_read_cells(path, name, raw, FINITE))
            bins = hint.bins
            if bins < 1:
                raise DomainError(f"column {name!r}: bins must be >= 1")
            if n > 0:
                edges = _equal_frequency_edges(floats, bins)
                values[:, j] = np.searchsorted(edges, floats, side="right")
            columns.append(Column(name, ORDERED, bins))
        else:
            raise DomainError(f"unknown column hint kind {hint.kind!r}")
    return Dataset(Schema(tuple(columns)), values)


def _read_cells(path, name, raw, reader):
    """Column ``name``'s cells (CSV lines 2, 3, ...) read by ``reader``."""
    try:
        return list(map(reader[0], raw))
    except ValueError:
        # Read cell by cell only to name the first bad one.
        return [
            read_value(v, reader, f"{path}: line {no}: column {name!r}:", CsvParseError)
            for no, v in enumerate(raw, start=2)
        ]


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
        Dataset(pool.schema, pool.values[aux_idx]),
        Dataset(pool.schema, pool.values[eval_idx]),
    )


def sample_records(pool, n, seed):
    """Draw ``n`` records from ``pool`` uniformly without replacement,
    with ``rng(seed)``.  Raises SizeError when the pool has fewer than
    ``n`` rows.
    """
    if n < 0:
        raise SizeError("sample size must be non-negative")
    if n > pool.n:
        raise SizeError(f"requested {n} records but only {pool.n} are available")
    idx = rng(seed).choice(pool.n, size=n, replace=False)
    return Dataset(pool.schema, pool.values[idx])


def sample_training_sets(pool, x, n, members, streams):
    """Training sets of ``n`` records, as one ``(len(members), n, d)``
    array of the schema's narrow dtype (``Schema.dtype``).

    Set i is the ``sample_records`` draw of ``n - members[i]`` pool
    records from the open stream ``streams[i]``, then ``x`` when
    ``members[i]`` is 1: the rows ``append_record`` would give.  Only
    ``streams[i]`` is read for set i.
    """
    rows = np.zeros((len(members), n), dtype=np.intp)
    for i, b in enumerate(members):
        rows[i, : n - b] = streams[i].choice(pool.n, size=n - b, replace=False)
    out = pool.values.astype(pool.schema.dtype)[rows]
    out[np.asarray(members, dtype=bool), n - 1] = x
    return out


def contains(dataset, x):
    """True when some record of ``dataset`` equals ``x`` by value."""
    return len(value_equal_indices(dataset, x)) > 0


def value_equal_mask(values, x):
    """Which rows of an ``(..., n, d)`` array equal the record ``x`` by
    value, as an ``(..., n)`` boolean array, tested column by column."""
    member = values[..., 0] == x[0]
    for c in range(1, len(x)):
        member &= values[..., c] == x[c]
    return member


def value_equal_indices(dataset, x):
    """Row indices of every record value-equal to ``x``."""
    validate_record(dataset.schema, x)
    return np.flatnonzero(value_equal_mask(dataset.values, x))


def append_record(dataset, x):
    """New dataset with ``x`` appended."""
    xa = np.asarray(x, dtype=np.int64).reshape(1, -1)
    return Dataset(dataset.schema, np.vstack([dataset.values, xa]))


def rows_not_in(dataset, other):
    """Values of ``dataset`` rows that do not appear in ``other`` by value."""
    seen = {row.tobytes() for row in other.values}
    keep = [i for i in range(dataset.n) if dataset.values[i].tobytes() not in seen]
    return dataset.values[keep]
