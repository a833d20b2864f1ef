"""Counting-query membership attack with a shadow-model meta-classifier.

The attack summarizes a synthetic dataset by the fraction of rows that
match the target record on random column subsets (exact match, plus an
at-most variant on ordered columns), trains a logistic regression on
features from shadow generators fit with and without the target, and
scores fresh releases with the fitted model.

The shadow training sets are one ``(n_shadow, n, d)`` array of the
schema's narrow dtype, fit by one ``generators.fit_batch`` call, and
each table chunk of shadows, the table batch ``fit_batch`` yields, is
sampled and featurized before the next chunk's tables are built.  A
chunk's releases are one ``generators.sample_columns`` call of its
batch, one ``(k, d, n)`` array of narrow columns.  Their features are
integer match counts: per chunk of ``generators.batch_size`` releases,
each query ANDs the packed bitsets of its column tests and popcounts
the result, with no floating point until the count is divided by
``n``.  The batch's scores come from
one stacked ``np.matmul``, one dot product of a release's features with
the weights per slice, and one sigmoid: a matrix-vector product over the
whole batch sums in another order and changes the low bits of the
scores.  ``extract_features`` featurizes a batch of one release.

Training is split from the shadow stage: ``shadow_features`` returns
one record's shadow features and labels, and ``train_meta_classifiers``
trains a stack of records in one descent, each record's weights bit for
bit those of training it alone.  ``train_meta_classifier`` and
``train_attack`` are the stack of one.
"""

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import data as data_mod
from . import generators
from .errors import ConfigError, DomainError, SizeError, TrainingError
from .seeds import Streams, derive, derive_many, rng

EXACT = "exact"
ATMOST = "atmost"

DEFAULT_K_VALUES = (1, 2, 3)
DEFAULT_QUERIES_PER_K = 100
DEFAULT_EPOCHS = 800
DEFAULT_LEARNING_RATE = 1.0
DEFAULT_L2 = 1e-4


@dataclass(frozen=True)
class Query:
    """One counting query: a column subset and a match kind."""

    columns: tuple
    kind: str


@dataclass(frozen=True)
class QueryBank:
    """Frozen list of queries; the attack's feature map.

    The bank is compiled once into ``columns``, a ``(n_queries, width)``
    index table with ``width`` the largest query size.  Row j lists query
    j's rows of a ``(2*ncols + 1)``-row pass table: row ``c`` tests
    ``value == x`` on column c (exact queries), row ``ncols + c`` tests
    ``value <= x`` (at-most queries), and row ``2*ncols``, all true,
    pads shorter queries.
    """

    queries: tuple
    ncols: int
    columns: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        d = self.ncols
        width = max([1] + [len(q.columns) for q in self.queries])
        columns = np.full((len(self.queries), width), 2 * d, dtype=np.intp)
        for j, q in enumerate(self.queries):
            if q.kind not in (EXACT, ATMOST):
                raise DomainError(f"query kind {q.kind!r} is neither {EXACT!r} nor {ATMOST!r}")
            if not all(0 <= c < d for c in q.columns):
                raise DomainError(f"query columns {q.columns} outside [0, {d})")
            offset = 0 if q.kind == EXACT else d
            columns[j, : len(q.columns)] = [offset + c for c in q.columns]
        object.__setattr__(self, "columns", columns)


def _distinct_subsets(d, k, count, g):
    total = math.comb(d, k)
    if total <= count:
        return list(combinations(range(d), k))
    if total <= 100000:
        pool = list(combinations(range(d), k))
        idx = g.choice(total, size=count, replace=False)
        return [pool[i] for i in idx]
    # Too many subsets to enumerate; rejection-sample distinct ones.
    seen = set()
    out = []
    while len(out) < count:
        cand = tuple(sorted(int(c) for c in g.choice(d, size=k, replace=False)))
        if cand not in seen:
            seen.add(cand)
            out.append(cand)
    return out


def make_query_bank(
    schema, k_values=DEFAULT_K_VALUES, queries_per_k=DEFAULT_QUERIES_PER_K, seed=0
):
    """Build a query bank over ``schema``.

    For each subset size k, distinct column subsets are drawn uniformly
    without replacement, capped at the number available.  Every subset
    yields an exact-match query; its ordered columns, if any, also yield
    an at-most query (a one-sided range match meaningful only where the
    values carry an order).
    """
    d = schema.ncols
    if len(k_values) == 0:
        raise DomainError("k_values is empty: the bank needs at least one subset size")
    for k in k_values:
        if k < 1 or k > d:
            raise DomainError(f"subset size {k} outside [1, {d}]")
    if queries_per_k < 1:
        raise DomainError("queries_per_k must be >= 1")
    ordered = {
        j for j, col in enumerate(schema.columns) if col.kind == data_mod.ORDERED
    }
    g = rng(seed)
    queries = []
    for k in sorted(set(k_values)):
        for subset in _distinct_subsets(d, k, queries_per_k, g):
            queries.append(Query(tuple(subset), EXACT))
            ord_part = tuple(c for c in subset if c in ordered)
            if ord_part:
                queries.append(Query(ord_part, ATMOST))
    return QueryBank(queries=tuple(queries), ncols=d)


# Number of set bits of each byte value.
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _features(values, x, bank):
    """Features of a ``(k, n, d)`` stack of k releases, as ``(k, n_queries)``.

    ``_release_features`` passes the view of ``(k, d, n)`` columns, whose
    contiguous rows are tested in their own dtype, which holds x when x
    is an in-schema record.

    Per chunk of releases, every column's ``value == x`` and
    ``value <= x`` tests and an all-true padding row form the pass table
    ``bank.columns`` indexes, packed to bits along the rows.  A query's
    matching rows are the AND of its gathered bitsets, counted by a
    popcount of each byte.  A chunk holds as many releases as
    ``generators.batch_size`` allows for their gathered bytes,
    ``n_queries * width * ceil(n / 8)`` each; a release's pass table is
    ``(2d + 1) * n`` bytes, a little over twice its uint8 columns.  Every
    feature is an exact int64 match count divided by ``n``, the bits of
    a mean over the rows.
    """
    k, n, d = values.shape
    if n == 0:
        raise DomainError("cannot extract features from an empty dataset")
    if len(x) != bank.ncols or d != bank.ncols:
        raise DomainError(
            f"bank expects {bank.ncols} columns; record has {len(x)}, "
            f"dataset has {d}"
        )
    xa = np.asarray(x, dtype=values.dtype)[:, None]
    q, width = bank.columns.shape
    feats = np.empty((k, q))
    size = generators.batch_size(q * width * -(-n // 8))
    for lo in range(0, k, size):
        cols = values[lo : lo + size].transpose(0, 2, 1)
        passed = np.empty((len(cols), 2 * d + 1, n), dtype=bool)
        np.equal(cols, xa, out=passed[:, :d])
        np.less_equal(cols, xa, out=passed[:, d : 2 * d])
        passed[:, 2 * d] = True
        # packbits pads each row's last byte with zeros, which no AND sets.
        # The gather puts the width axis ahead of the queries, so the AND
        # runs over whole (query, byte) slabs.
        bits = np.packbits(passed, axis=2)[:, bank.columns.T]
        matched = np.bitwise_and.reduce(bits, axis=1)
        counts = _POPCOUNT.take(matched).sum(axis=2, dtype=np.int64)
        np.divide(counts, n, out=feats[lo : lo + size])
    return feats


def extract_features(d_syn, x, bank):
    """Feature vector: per query, the fraction of rows matching ``x``.

    Exact queries count rows equal to x on the subset; at-most queries
    count rows whose every subset value is <= x's.  The synthetic
    dataset must be non-empty so fractions are defined.  All queries
    are counted at once against the bank's compiled ``columns``, as a
    batch of one release (see ``_features``).
    """
    return _features(d_syn.values[None], x, bank)[0]


def _release_features(batch, n, seeds, x, bank):
    """Features of each network's sample of ``n`` rows, in order, for
    one table chunk ``batch`` of ``generators.fit_batch``.

    The releases are one ``generators.sample_columns`` call, a
    ``(k, d, n)`` column array whose ``(k, n, d)`` view ``_features``
    reduces: no release is copied to records.  Both chunk their work by
    their own budgets.
    """
    return _features(generators.sample_columns(batch, n, seeds).transpose(0, 2, 1), x, bank)


def build_shadow_sets(d_aux, x, n, n_shadow, seed):
    """Shadow training sets of size ``n``, labeled by x's membership.

    Returns a ``(n_shadow, n, d)`` array of sets, of the schema's narrow
    dtype (``data.sample_training_sets``), and their labels.  Sets
    alternate, in first: an in-set is x plus n-1 auxiliary records, an
    out-set n auxiliary records without forcing x in.  ``n_shadow`` must
    be even so the labels are balanced.
    """
    if n_shadow < 2 or n_shadow % 2 != 0:
        raise ConfigError(f"n_shadow must be a positive even number, got {n_shadow}")
    if n < 1:
        raise SizeError("shadow set size must be >= 1")
    if n > d_aux.n:
        raise SizeError(
            f"shadow sets of size {n} need at least {n} auxiliary records, have {d_aux.n}"
        )
    data_mod.validate_record(d_aux.schema, x)
    half = np.arange(n_shadow // 2)
    # In-set i draws from derive(seed, "shadow-in", i), out-set i from
    # derive(seed, "shadow-out", i).
    streams = Streams(
        np.stack(
            [derive_many(seed, "shadow-in", half), derive_many(seed, "shadow-out", half)],
            axis=1,
        ).ravel()
    )
    labels = np.tile([1, 0], n_shadow // 2)
    return data_mod.sample_training_sets(d_aux, x, n, labels.tolist(), streams), labels


@dataclass(frozen=True)
class MetaClassifier:
    """Logistic regression scorer; weights has the bias as last entry."""

    weights: np.ndarray


def _sigmoid(z):
    """``1 / (1 + exp(-clip(z, -500, 500)))`` of a float array, in place.
    ``np.maximum`` then ``np.minimum`` give the bits of ``np.clip``, NaN
    included, without its Python wrapper."""
    np.maximum(z, -500.0, out=z)
    np.minimum(z, 500.0, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


def train_meta_classifiers(
    features, labels, epochs=DEFAULT_EPOCHS, learning_rate=DEFAULT_LEARNING_RATE, l2=DEFAULT_L2
):
    """Fit one logistic regression per record by full-batch proximal
    gradient descent, every record in one stacked descent.

    The cross-entropy gradient step is followed by the exact proximal
    shrinkage of the l2 penalty, so the update stays contractive for
    arbitrarily large l2 instead of diverging.  The bias is not
    penalized.  Weights start at zero, making each fit deterministic
    given its inputs.  Each record has its own step size, from the
    Lipschitz constant of its own features.

    Every operation of an epoch runs once over the whole stack.  The two
    ``np.matmul`` calls make one gemv per record, with the shape and
    strides of a single record's call, and the rest is elementwise, so
    each record's weights are bit for bit those of training it alone.

    Parameters
    ----------
    features : array-like, shape (R, m, d), one (m, d) matrix per record
    labels : array-like of {0, 1}, length m, shared by every record
    epochs, learning_rate, l2 : training hyperparameters.

    Returns
    -------
    list of R MetaClassifier, in record order
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if X.ndim != 3:
        raise TrainingError("features must be a 3-d array")
    if len(y) != X.shape[1]:
        raise TrainingError(
            f"{X.shape[1]} feature rows but {len(y)} labels"
        )
    if X.shape[1] < 2 or len(set(y.tolist())) < 2:
        raise TrainingError("training needs examples of both classes")
    if epochs < 1 or learning_rate <= 0 or l2 < 0:
        raise TrainingError("invalid hyperparameters")
    r, m, d = X.shape
    Xb = np.concatenate([X, np.ones((r, m, 1))], axis=2)
    XbT = Xb.transpose(0, 2, 1)
    # Lipschitz constant of each record's logistic loss gradient; keeps
    # the plain gradient step stable for any feature scale.
    lip = 0.25 * (Xb * Xb).sum(axis=2).max(axis=1)
    step = (learning_rate / lip)[:, None, None]
    shrink = 1.0 + step * l2
    w = np.zeros((r, d + 1, 1))
    coef = w[:, :d]
    # An epoch is p = sigmoid(Xb @ w); grad = Xb.T @ (p - y) / m;
    # w = w - step * grad; w[:d] /= shrink, each operation in that order
    # but written into buffers made once, so no epoch allocates.
    p = np.empty((r, m, 1))
    grad = np.empty((r, d + 1, 1))
    y = y[:, None]
    for _ in range(epochs):
        _sigmoid(np.matmul(Xb, w, out=p))
        p -= y
        np.matmul(XbT, p, out=grad)
        grad /= m
        grad *= step
        w -= grad
        coef /= shrink
    return [MetaClassifier(weights=w[i, :, 0].copy()) for i in range(r)]


def train_meta_classifier(
    features, labels, epochs=DEFAULT_EPOCHS, learning_rate=DEFAULT_LEARNING_RATE, l2=DEFAULT_L2
):
    """One record's logistic regression: ``train_meta_classifiers`` on a
    stack of one ``(m, d)`` feature matrix."""
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise TrainingError("features must be a 2-d array")
    return train_meta_classifiers(X[None], labels, epochs, learning_rate, l2)[0]


def _scores(meta, feats):
    """Membership scores of the releases whose features are the rows of
    ``feats``.  The logits are one ``np.matmul`` over a stack of ``(1, q)``
    slices, one dot product per slice, so each release's logit has the
    bits of its own ``row @ coef``; ``feats @ coef`` would be one gemv
    over the batch, summing in another order and changing low bits."""
    w = meta.weights
    if feats.shape[1] != len(w) - 1:
        raise DomainError(
            f"classifier expects {len(w) - 1} features, bank produced {feats.shape[1]}"
        )
    coef = w[:-1]
    logits = np.matmul(feats[:, None, :], coef[:, None])[:, 0, 0] + w[-1]
    return _sigmoid(logits).tolist()


def shadow_features(d_aux, x, spec, bank, n, n_shadow, seed):
    """Shadow stage: the features of every shadow release, and labels.

    Each shadow generator is fit on its own derived seed and sampled
    once at size ``n``, all shadows as one batch whose table chunks are
    sampled and featurized one at a time (``generators.score_chunks``).
    Returns the ``(n_shadow, n_queries)`` feature matrix and the sets'
    membership labels.  Deterministic given its arguments.
    """
    sets, labels = build_shadow_sets(d_aux, x, n, n_shadow, derive(seed, "shadow-sets"))
    shadows = np.arange(len(sets))
    chunks = generators.fit_batch(
        spec, d_aux.schema, sets, derive_many(seed, "shadow-fit", shadows)
    )
    feats = generators.score_chunks(
        lambda batch, seeds: _release_features(batch, n, seeds, x, bank),
        chunks, derive_many(seed, "shadow-sample", shadows),
    )
    return feats, labels


def train_attack(
    d_aux, x, spec, bank, n, n_shadow, seed,
    epochs=DEFAULT_EPOCHS, learning_rate=DEFAULT_LEARNING_RATE, l2=DEFAULT_L2,
):
    """Full shadow pipeline for one record: ``shadow_features``, then
    the meta-classifier trained on them as a stack of one."""
    feats, labels = shadow_features(d_aux, x, spec, bank, n, n_shadow, seed)
    return train_meta_classifier(feats, labels, epochs, learning_rate, l2)


def meta_classifier_adversary(meta, bank, x, n_syn):
    """Adversary for the games: sample a release per round, score it."""
    if n_syn < 1:
        raise DomainError("adversary needs a positive synthetic sample size")

    def adversary(batch, seeds):
        return _scores(meta, _release_features(batch, n_syn, seeds, x, bank))

    return adversary
