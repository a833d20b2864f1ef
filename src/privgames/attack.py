"""Counting-query membership attack with a shadow-model meta-classifier.

The attack summarizes a synthetic dataset by the fraction of rows that
match the target record on random column subsets (exact match, plus an
at-most variant on ordered columns), trains a logistic regression on
features from shadow generators fit with and without the target, and
scores fresh releases with the fitted model.

The shadow training sets are one ``(n_shadow, n, d)`` array, fit by one
``generators.fit_batch`` call, and releases are handled a batch at a
time.  Each ``generators.sample_batch`` call is stacked into one
``(k, n, d)`` array whose features come from one matrix product per
chunk of at most ``generators.BATCH_ELEMENTS`` (row, query) cells, and
the batch's scores from one sigmoid.  Each logit stays one dot product
of a release's features with the weights: a matrix-vector product over
the whole batch sums in another order and changes the low bits of the
scores.  ``extract_features`` and ``attack_score`` score a batch of one
release.
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


@dataclass(frozen=True)
class Query:
    """One counting query: a column subset and a match kind."""

    columns: tuple
    kind: str


@dataclass(frozen=True)
class QueryBank:
    """Frozen list of queries; the attack's feature map.

    The bank is compiled once into ``matrix``, a ``(2*ncols, n_queries)``
    0/1 array: column j marks query j's columns in rows ``0..ncols-1``
    for an exact query and in rows ``ncols..2*ncols-1`` for an at-most
    one.  ``sizes`` holds each query's number of marked rows.
    """

    queries: tuple
    k_values: tuple
    ncols: int
    bank_seed: int
    matrix: np.ndarray = field(init=False, compare=False, repr=False)
    sizes: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        d = self.ncols
        # float32 sums of at most 2*ncols ones are exact integers.
        matrix = np.zeros((2 * d, len(self.queries)), dtype=np.float32)
        for j, q in enumerate(self.queries):
            if not all(0 <= c < d for c in q.columns):
                raise DomainError(f"query columns {q.columns} outside [0, {d})")
            offset = 0 if q.kind == EXACT else d
            matrix[[offset + c for c in q.columns], j] = 1.0
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "sizes", matrix.sum(axis=0))


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
    return QueryBank(
        queries=tuple(queries),
        k_values=tuple(sorted(set(k_values))),
        ncols=d,
        bank_seed=seed,
    )


def _features(values, x, bank):
    """Features of a ``(k, n, d)`` stack of k releases, as ``(k, n_queries)``.

    Per chunk of releases, each row's ``value == x`` and ``value <= x``
    tests, side by side as 0/1 floats, times ``bank.matrix`` give per
    query the number of its columns the row passes, and the row matches
    where that equals ``bank.sizes``.  A chunk holds at most
    ``generators.BATCH_ELEMENTS`` (row, query) cells, or one release.
    Every feature is an exact match count divided by ``n``, the bits of
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
    xa = np.asarray(x, dtype=np.int64)
    q = len(bank.queries)
    feats = np.empty((k, q))
    size = max(1, generators.BATCH_ELEMENTS // max(1, n * q))
    for lo in range(0, k, size):
        rows = values[lo : lo + size].reshape(-1, d)
        passed = np.empty((len(rows), 2 * d), dtype=np.float32)
        np.equal(rows, xa, out=passed[:, :d])
        np.less_equal(rows, xa, out=passed[:, d:])
        matched = (passed @ bank.matrix) == bank.sizes
        np.divide(matched.reshape(-1, n, q).sum(axis=1), n, out=feats[lo : lo + size])
    return feats


def extract_features(d_syn, x, bank):
    """Feature vector: per query, the fraction of rows matching ``x``.

    Exact queries count rows equal to x on the subset; at-most queries
    count rows whose every subset value is <= x's.  The synthetic
    dataset must be non-empty so fractions are defined.  All queries
    are scored at once against the bank's compiled matrix, as a batch
    of one release (see ``_features``).
    """
    return _features(d_syn.values[None], x, bank)[0]


def _release_features(gens, n, seeds, x, bank):
    """Features of each generator's sample of ``n`` rows, in order.

    Releases are drawn in ``generators.sample_batch`` calls of at most
    ``generators.BATCH_ELEMENTS`` values, each stacked into one array
    and reduced to its features before the next is drawn, so a game's
    releases never all sit in memory at once.
    """
    feats = np.empty((len(gens), len(bank.queries)))
    size = max(1, generators.BATCH_ELEMENTS // max(1, n * bank.ncols))
    for lo in range(0, len(gens), size):
        releases = generators.sample_batch(gens[lo : lo + size], n, seeds[lo : lo + size])
        feats[lo : lo + size] = _features(np.stack([r.values for r in releases]), x, bank)
    return feats


def build_shadow_sets(d_aux, x, n, n_shadow, seed):
    """Shadow training sets of size ``n``, labeled by x's membership.

    Returns a ``(n_shadow, n, d)`` array of sets and their labels.  Sets
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
    training_meta: dict


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


def train_meta_classifier(features, labels, epochs=800, learning_rate=1.0, l2=1e-4):
    """Fit a logistic regression by full-batch proximal gradient descent.

    The cross-entropy gradient step is followed by the exact proximal
    shrinkage of the l2 penalty, so the update stays contractive for
    arbitrarily large l2 instead of diverging.  The bias is not
    penalized.  Weights start at zero, making the fit deterministic
    given its inputs.

    Parameters
    ----------
    features : array-like, shape (m, d)
    labels : array-like of {0, 1}, length m
    epochs, learning_rate, l2 : training hyperparameters.

    Returns
    -------
    MetaClassifier
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if X.ndim != 2:
        raise TrainingError("features must be a 2-d array")
    if len(y) != X.shape[0]:
        raise TrainingError(
            f"{X.shape[0]} feature rows but {len(y)} labels"
        )
    if X.shape[0] < 2 or len(set(y.tolist())) < 2:
        raise TrainingError("training needs examples of both classes")
    if epochs < 1 or learning_rate <= 0 or l2 < 0:
        raise TrainingError("invalid hyperparameters")
    m, d = X.shape
    Xb = np.hstack([X, np.ones((m, 1))])
    XbT = Xb.T
    # Lipschitz constant of the logistic loss gradient; keeps the plain
    # gradient step stable for any feature scale.
    lip = 0.25 * float((Xb * Xb).sum(axis=1).max())
    step = learning_rate / lip
    shrink = 1.0 + step * l2
    w = np.zeros(d + 1)
    coef = w[:d]
    # An epoch is p = sigmoid(Xb @ w); grad = Xb.T @ (p - y) / m;
    # w = w - step * grad; w[:d] /= shrink, each operation in that order
    # but written into buffers made once, so no epoch allocates.
    p = np.empty(m)
    grad = np.empty(d + 1)
    for _ in range(epochs):
        _sigmoid(np.matmul(Xb, w, out=p))
        p -= y
        np.matmul(XbT, p, out=grad)
        grad /= m
        grad *= step
        w -= grad
        coef /= shrink
    return MetaClassifier(
        weights=w,
        training_meta={
            "epochs": epochs,
            "learning_rate": learning_rate,
            "l2": l2,
            "n_examples": m,
            "n_features": d,
        },
    )


def _scores(meta, feats):
    """Membership scores of the releases whose features are the rows of
    ``feats``.  Each logit is one dot product of a feature row with the
    weights, as for a single release; ``feats @ coef`` would sum in
    another order and change low bits."""
    w = meta.weights
    if feats.shape[1] != len(w) - 1:
        raise DomainError(
            f"classifier expects {len(w) - 1} features, bank produced {feats.shape[1]}"
        )
    coef = w[:-1]
    logits = np.array([row @ coef for row in feats], dtype=float) + w[-1]
    return _sigmoid(logits).tolist()


def attack_score(meta, d_syn, x, bank):
    """Membership score of ``x`` given one released synthetic dataset."""
    return _scores(meta, _features(d_syn.values[None], x, bank))[0]


def train_attack(
    d_aux,
    x,
    spec,
    bank,
    n,
    n_shadow,
    seed,
    epochs=800,
    learning_rate=1.0,
    l2=1e-4,
):
    """Full shadow pipeline: sets, generators, features, classifier.

    Each shadow generator is fit on its own derived seed and sampled
    once at size ``n``, all shadows as one batch; the meta-classifier is
    trained on the resulting feature matrix.  Deterministic given its
    arguments.
    """
    sets, labels = build_shadow_sets(d_aux, x, n, n_shadow, derive(seed, "shadow-sets"))
    shadows = np.arange(len(sets))
    gens = generators.fit_batch(
        spec, d_aux.schema, sets, derive_many(seed, "shadow-fit", shadows), target_hint=x
    )
    sample_seeds = derive_many(seed, "shadow-sample", shadows).tolist()
    feats = _release_features(gens, n, sample_seeds, x, bank)
    return train_meta_classifier(feats, labels, epochs, learning_rate, l2)


def meta_classifier_adversary(meta, bank, x, n_syn):
    """Adversary for the games: sample a release per round, score it."""
    if n_syn < 1:
        raise DomainError("adversary needs a positive synthetic sample size")

    def adversary(gens, seeds):
        return _scores(meta, _release_features(gens, n_syn, seeds, x, bank))

    return adversary
