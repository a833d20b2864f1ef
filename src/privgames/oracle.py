"""Closed-form references for small, enumerable release distributions.

Empirical game estimates converge to quantities that are exactly
computable whenever the generator's release distribution can be written
down: the toy's error rates, the optimal trade-off curve between two
discrete release distributions (its (alpha, beta) vertices, the form
``risk.empirical_tradeoff`` returns), and mixture averages.  Tests pin the
Monte Carlo machinery against these.
"""

import math
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability distribution over a finite outcome support."""

    support: tuple
    probs: tuple

    def __post_init__(self):
        if len(self.support) != len(self.probs):
            raise DomainError("support and probs have different lengths")
        if len(self.support) != len(set(self.support)):
            raise DomainError("support outcomes must be distinct")
        if any(p < 0 for p in self.probs):
            raise DomainError("probabilities must be non-negative")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"probabilities sum to {total!r}, not 1")


def toy_exact_rates(p_in, p_out):
    """Exact (alpha, beta) of thresholding the toy's released bit.

    Guessing member iff the bit is 1 has false-positive rate ``p_out``
    and false-negative rate ``1 - p_in``: the mass the out-release puts
    on 1 and the in-release on 0.
    """
    fit_in, fit_out = toy_release_distributions(p_in, p_out)
    return (fit_out.probs[1], fit_in.probs[0])


def neyman_pearson_curve(p0, p1):
    """Optimal trade-off curve between two discrete distributions, as
    its (alpha, beta) vertices sorted by alpha.

    Outcomes are taken in decreasing likelihood-ratio order
    ``p1/p0`` (outcomes with ``p0 == 0`` first); the cumulative
    (alpha, beta) after each group of equal-ratio outcomes traces the
    lower envelope from (0, 1) to (1, 0).  Any test, deterministic or
    randomized, has its (alpha, beta) on or above this curve.
    """
    if p0.support != p1.support:
        raise DomainError("distributions must share a support")
    groups = {}
    for q0, q1 in zip(p0.probs, p1.probs):
        if q0 == 0.0 and q1 == 0.0:
            continue
        ratio = math.inf if q0 == 0.0 else q1 / q0
        a, b = groups.get(ratio, (0.0, 0.0))
        groups[ratio] = (a + q0, b + q1)
    points = [(0.0, 1.0)]
    alpha = 0.0
    beta = 1.0
    for ratio in sorted(groups, reverse=True):
        q0, q1 = groups[ratio]
        alpha = min(1.0, alpha + q0)
        beta = max(0.0, beta - q1)
        points.append((alpha, beta))
    return tuple(points)


def mixture_average_rates(components, weights):
    """Weighted average of per-component (alpha, beta) rate pairs."""
    if len(components) != len(weights):
        raise DomainError("components and weights have different lengths")
    if len(components) == 0:
        raise DomainError("need at least one component")
    if any(w < 0 for w in weights):
        raise DomainError("weights must be non-negative")
    if abs(math.fsum(weights) - 1.0) > 1e-9:
        raise DomainError("weights must sum to 1")
    alpha = math.fsum(w * a for w, (a, _) in zip(weights, components))
    beta = math.fsum(w * b for w, (_, b) in zip(weights, components))
    return (alpha, beta)


def toy_release_distributions(p_in, p_out):
    """The toy's in/out release distributions over its released bit."""
    for name, p in (("p_in", p_in), ("p_out", p_out)):
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"{name} must be in [0, 1]")
    fit_in = DiscreteDistribution((0, 1), (1.0 - p_in, p_in))
    fit_out = DiscreteDistribution((0, 1), (1.0 - p_out, p_out))
    return fit_in, fit_out
