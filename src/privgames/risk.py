"""Turning game transcripts into risk numbers and trade-off curves.

A transcript's ``runs`` array holds one (secret bit, score, run seed)
row per round.  This module computes (alpha, beta) error rates at a
threshold, the AUC (a float) used as the per-record risk score, the
empirical trade-off curve as (alpha, beta) vertices sorted by alpha,
finite-sample confidence radii, and the comparison statistics between
two risk columns (miss rate, RMSD).
Rates and AUC count in one sort of each class's scores (``searchsorted``).
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import linear_quantiles
from .errors import (
    DomainError,
    UndefinedMissRateError,
    UndefinedRateError,
)

DEFAULT_THRESHOLD = 0.8
DEFAULT_RHO = 0.2
BIN_WIDTH = 0.02
PERCENTILE_LEVELS = (10, 50, 90)


def _sorted_classes(transcript):
    """The transcript's out-run and in-run scores, each sorted.  Raises
    UndefinedRateError if a class is empty, DomainError on a non-finite
    score."""
    scores = transcript.runs["score"]
    member = transcript.runs["secret_bit"] == 1
    out_sorted, in_sorted = np.sort(scores[~member]), np.sort(scores[member])
    if len(out_sorted) == 0 or len(in_sorted) == 0:
        raise UndefinedRateError(
            f"transcript has {len(out_sorted)} out-runs and {len(in_sorted)} in-runs; "
            "rates need both"
        )
    if not np.isfinite(scores).all():
        raise DomainError(f"record {transcript.record_id!r}: transcript holds a non-finite score")
    return out_sorted, in_sorted


def _rates_at(out_sorted, in_sorted, gammas):
    """Arrays of (alpha, beta) of guessing member iff score >= gamma, one
    entry per gamma, counted in each sorted class by ``searchsorted``; a
    count divided by the class size has the bits of the mean of the
    boolean test."""
    alpha = (len(out_sorted) - np.searchsorted(out_sorted, gammas)) / len(out_sorted)
    beta = np.searchsorted(in_sorted, gammas) / len(in_sorted)
    return alpha, beta


def empirical_rates(transcript, gamma):
    """Empirical (alpha, beta) of guessing member iff score >= gamma.

    alpha is the fraction of out-runs guessed member; beta the fraction
    of in-runs guessed non-member.
    """
    alpha, beta = _rates_at(*_sorted_classes(transcript), [gamma])
    return float(alpha[0]), float(beta[0])


def roc_auc(transcript):
    """AUC of the score against the secret bit, ties counted half.

    Each in-run score counts the out-runs below it twice and its ties
    once (left plus right ``searchsorted``), so the integer sum / 2 /
    (n0 * n1) has the bits of the all-pairs count, 1 per ordered pair
    and 0.5 per tie, and of the mid-rank formula.
    """
    out_sorted, in_sorted = _sorted_classes(transcript)
    twice_u = (
        np.searchsorted(out_sorted, in_sorted, "left").sum()
        + np.searchsorted(out_sorted, in_sorted, "right").sum()
    )
    return float(twice_u / 2 / (len(out_sorted) * len(in_sorted)))


def hoeffding_radius(n_per_class, rho):
    """Two-sided Hoeffding radius sqrt(log(2/rho) / (2n)).

    With probability at least 1 - rho an empirical rate over n
    independent runs of one class lies within this radius of its mean.
    """
    if n_per_class < 1:
        raise DomainError("n_per_class must be >= 1")
    if not 0.0 < rho < 1.0:
        raise DomainError("rho must be in (0, 1)")
    return math.sqrt(math.log(2.0 / rho) / (2.0 * n_per_class))


def miss_rate(pairs, threshold=DEFAULT_THRESHOLD):
    """Fraction of high-risk records the traditional game misses.

    ``pairs`` holds (traditional, model-seeded) risk values per record.
    A record is high-risk when its model-seeded risk exceeds
    ``threshold``; it is missed when its traditional risk does not.
    Undefined (and an error) when no record is high-risk.
    """
    if len(pairs) == 0:
        raise DomainError("need at least one record pair")
    high = [(rt, rms) for rt, rms in pairs if rms > threshold]
    if not high:
        raise UndefinedMissRateError(
            f"no record has model-seeded risk above {threshold}"
        )
    missed = sum(1 for rt, _ in high if rt <= threshold)
    return missed / len(high)


def rmsd(pairs):
    """Root-mean-square difference between the two risk columns."""
    if len(pairs) == 0:
        raise DomainError("need at least one record pair")
    diffs = [rt - rms for rt, rms in pairs]
    return math.sqrt(math.fsum(d * d for d in diffs) / len(diffs))


def dp_tradeoff_lower_bound(epsilon, delta, alpha):
    """Smallest false-negative rate an (epsilon, delta)-DP release allows
    at false-positive rate alpha: a float, or an array of bounds for an
    array of rates.

    beta >= max(0, 1 - e^eps * alpha - delta, e^-eps * (1 - alpha - delta)),
    with 1 - delta at alpha = 0 and -inf for the middle term where e^eps
    overflows.  Each rate gets the IEEE operations of the scalar formula,
    in its order, and the maximum keeps Python ``max``'s rule: a later
    term wins only where it is strictly greater.
    """
    rates = np.asarray(alpha, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            grow = 1.0 - math.exp(epsilon) * rates - delta
        except OverflowError:
            grow = np.full(rates.shape, -math.inf)
    grow = np.where(rates == 0.0, 1.0 - delta, grow)
    shrink = math.exp(-epsilon) * (1.0 - rates - delta)
    bound = np.where(grow > 0.0, grow, 0.0)
    bound = np.where(shrink > bound, shrink, bound)
    return bound if bound.ndim else float(bound)


def empirical_tradeoff(transcript):
    """Empirical (alpha, beta) curve swept over every useful threshold.

    Returns the distinct (alpha, beta) vertices as a tuple sorted by
    alpha, then by decreasing beta.  Thresholds are the observed scores,
    repeats and all, plus a sentinel above the maximum, so the curve
    always contains (0, 1) and the point of the all-member rule.
    """
    out_sorted, in_sorted = _sorted_classes(transcript)
    gammas = np.append(np.concatenate([out_sorted, in_sorted]), math.inf)
    alpha, beta = _rates_at(out_sorted, in_sorted, gammas)
    return tuple(sorted(set(zip(alpha.tolist(), beta.tolist())), key=lambda p: (p[0], -p[1])))


def dp_audit_points(transcript, epsilon, delta=0.0, rho=0.05):
    """Compare an empirical trade-off curve against the DP lower bound.

    Returns a list of (alpha, beta, bound, flagged) rows, one per curve
    vertex; a vertex is flagged when beta falls below the bound by more
    than twice the Hoeffding radius of the transcript's per-class size,
    which a correct epsilon-DP release should essentially never do.
    """
    n_per_class = len(transcript.runs) // 2
    slack = 2.0 * hoeffding_radius(n_per_class, rho)
    curve = empirical_tradeoff(transcript)
    bounds = dp_tradeoff_lower_bound(epsilon, delta, [alpha for alpha, _ in curve])
    return [
        (alpha, beta, bound, beta < bound - slack)
        for (alpha, beta), bound in zip(curve, bounds.tolist())
    ]


@dataclass(frozen=True)
class DistributionSummary:
    """Fixed-width histogram and selected percentiles of a sample."""

    bin_edges: tuple
    bin_counts: tuple
    percentiles: dict = None


def summarize_distribution(values):
    """Summary of a one-dimensional sample.

    The histogram uses bins of ``BIN_WIDTH`` spanning [min, max]; the
    ``PERCENTILE_LEVELS`` use numpy's linear interpolation
    (``data.linear_quantiles``), so ten values 0.1..1.0 put the 90th
    percentile at 0.91.
    """
    vals = np.asarray(list(values), dtype=float)
    if vals.size == 0:
        raise DomainError("need at least one value")
    vals = np.sort(vals)
    lo = float(vals[0])
    hi = float(vals[-1])
    nbins = max(1, int(math.ceil((hi - lo) / BIN_WIDTH - 1e-9)))
    edges = lo + BIN_WIDTH * np.arange(nbins + 1)
    edges[-1] = max(edges[-1], hi)
    bin_counts, _ = np.histogram(vals, bins=edges)
    pct = linear_quantiles(vals, [q / 100 for q in PERCENTILE_LEVELS]).tolist()
    return DistributionSummary(
        bin_edges=tuple(float(e) for e in edges),
        bin_counts=tuple(int(c) for c in bin_counts),
        percentiles=dict(zip(PERCENTILE_LEVELS, pct)),
    )
