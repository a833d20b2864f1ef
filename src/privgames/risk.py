"""Turning game transcripts into risk estimates and trade-off curves.

A transcript is a list of (secret bit, adversary score) pairs.  This
module computes empirical error rates at a threshold, the AUC summary
used as the per-record risk score, finite-sample confidence radii, and
the comparison statistics between two risk columns (miss rate, RMSD).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from .errors import (
    DomainError,
    UndefinedMissRateError,
    UndefinedRateError,
)

DEFAULT_THRESHOLD = 0.8
DEFAULT_RHO = 0.2


@dataclass(frozen=True)
class RatePair:
    """Empirical false-positive and false-negative rates at a threshold.

    n0 and n1 are the class sizes the rates were estimated from.
    """

    alpha: float
    beta: float
    n0: int
    n1: int


@dataclass(frozen=True)
class RiskEstimate:
    """Per-record risk: the AUC of the adversary over one transcript."""

    auc: float
    game_kind: str
    n_eval: int
    record_id: str


@dataclass(frozen=True)
class CurveSource:
    """Provenance tag for a trade-off curve: empirical, exact, or bound."""

    kind: str
    detail: str


@dataclass(frozen=True)
class TradeoffCurve:
    """Piecewise-linear (alpha, beta) curve, vertices sorted by alpha."""

    points: tuple
    source: CurveSource

    def beta_at(self, alpha):
        """Linear interpolation of beta at the given alpha."""
        xs = np.array([p[0] for p in self.points])
        ys = np.array([p[1] for p in self.points])
        return float(np.interp(alpha, xs, ys))


def _split_scores(transcript):
    bits = transcript.bits()
    scores = transcript.scores()
    n0 = int((bits == 0).sum())
    n1 = int((bits == 1).sum())
    if n0 == 0 or n1 == 0:
        raise UndefinedRateError(
            f"transcript has {n0} out-runs and {n1} in-runs; rates need both"
        )
    return bits, scores, n0, n1


def _rates_at(bits, scores, gammas):
    """Arrays of (alpha, beta) of guessing member iff score >= gamma, one
    entry per gamma.  Each class is sorted once and counted below every
    gamma by ``searchsorted``; a count divided by the class size has the
    bits of the mean of the boolean test."""
    out_sorted = np.sort(scores[bits == 0])
    in_sorted = np.sort(scores[bits == 1])
    alpha = (len(out_sorted) - np.searchsorted(out_sorted, gammas)) / len(out_sorted)
    beta = np.searchsorted(in_sorted, gammas) / len(in_sorted)
    return alpha, beta


def empirical_rates(transcript, gamma):
    """Empirical (alpha, beta) of guessing member iff score >= gamma.

    alpha is the fraction of out-runs guessed member; beta the fraction
    of in-runs guessed non-member.
    """
    bits, scores, n0, n1 = _split_scores(transcript)
    alpha, beta = _rates_at(bits, scores, [gamma])
    return RatePair(alpha=float(alpha[0]), beta=float(beta[0]), n0=n0, n1=n1)


def roc_auc(transcript):
    """AUC of the score against the secret bit, ties counted half.

    Computed from mid-ranks, which agrees exactly (not approximately)
    with the all-pairs count assigning 1 per correctly ordered pair and
    0.5 per tie: both numerators are the same multiple of 0.5.
    """
    bits, scores, n0, n1 = _split_scores(transcript)
    ranks = rankdata(scores)
    r1 = ranks[bits == 1].sum()
    u = r1 - n1 * (n1 + 1) / 2
    return RiskEstimate(
        auc=float(u / (n0 * n1)),
        game_kind=transcript.game_kind,
        n_eval=len(bits),
        record_id=transcript.record_id,
    )


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
    at false-positive rate alpha.

    beta >= max(0, 1 - e^eps * alpha - delta, e^-eps * (1 - alpha - delta)).
    """
    if alpha == 0.0:
        grow = 1.0 - delta
    else:
        try:
            grow = 1.0 - math.exp(epsilon) * alpha - delta
        except OverflowError:
            grow = -math.inf
    return max(0.0, grow, math.exp(-epsilon) * (1.0 - alpha - delta))


def empirical_tradeoff(transcript):
    """Empirical (alpha, beta) curve swept over every useful threshold.

    Thresholds are the distinct observed scores plus a sentinel above
    the maximum, so the curve always contains (0, 1) and the point of
    the all-member rule.
    """
    bits, scores, _, _ = _split_scores(transcript)
    alpha, beta = _rates_at(bits, scores, np.append(np.unique(scores), math.inf))
    points = set(zip(alpha.tolist(), beta.tolist()))
    ordered = tuple(sorted(points, key=lambda p: (p[0], -p[1])))
    return TradeoffCurve(
        points=ordered,
        source=CurveSource(
            "empirical",
            f"record={transcript.record_id} game={transcript.game_kind}",
        ),
    )


def dp_audit_points(transcript, epsilon, delta=0.0, rho=0.05):
    """Compare an empirical trade-off curve against the DP lower bound.

    Returns a list of (alpha, beta, bound, flagged) rows, one per curve
    vertex; a vertex is flagged when beta falls below the bound by more
    than twice the Hoeffding radius of the transcript's per-class size,
    which a correct epsilon-DP release should essentially never do.
    """
    curve = empirical_tradeoff(transcript)
    n_per_class = len(transcript.runs) // 2
    slack = 2.0 * hoeffding_radius(n_per_class, rho)
    rows = []
    for alpha, beta in curve.points:
        bound = dp_tradeoff_lower_bound(epsilon, delta, alpha)
        rows.append((alpha, beta, bound, beta < bound - slack))
    return rows


@dataclass(frozen=True)
class DistributionSummary:
    """Fixed-width histogram and selected percentiles of a sample."""

    bin_edges: tuple
    bin_counts: tuple
    percentiles: dict = None


def summarize_distribution(values, bin_width=0.02, percentile_levels=(10, 50, 90)):
    """Summary of a one-dimensional sample.

    The histogram uses fixed-width bins spanning [min, max]; percentiles
    use linear interpolation, so ten values 0.1..1.0 put the 90th
    percentile at 0.91.
    """
    vals = np.asarray(list(values), dtype=float)
    if vals.size == 0:
        raise DomainError("need at least one value")
    vals = np.sort(vals)
    lo = float(vals[0])
    hi = float(vals[-1])
    nbins = max(1, int(math.ceil((hi - lo) / bin_width - 1e-9)))
    edges = lo + bin_width * np.arange(nbins + 1)
    edges[-1] = max(edges[-1], hi)
    bin_counts, _ = np.histogram(vals, bins=edges)
    pct = {
        int(q): float(np.percentile(vals, q, method="linear"))
        for q in percentile_levels
    }
    return DistributionSummary(
        bin_edges=tuple(float(e) for e in edges),
        bin_counts=tuple(int(c) for c in bin_counts),
        percentiles=pct,
    )
