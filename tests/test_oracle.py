import numpy as np
import pytest

from privgames import oracle
from privgames.errors import DomainError

from brute import brute_deterministic_tests


def dist(*probs):
    return oracle.DiscreteDistribution(tuple(range(len(probs))), tuple(probs))


def test_distribution_validation():
    dist(0.5, 0.5)
    with pytest.raises(DomainError):
        dist(0.5, 0.6)
    with pytest.raises(DomainError):
        dist(-0.1, 1.1)
    with pytest.raises(DomainError):
        oracle.DiscreteDistribution((0, 1), (1.0,))
    with pytest.raises(DomainError):
        oracle.DiscreteDistribution((0, 0), (0.5, 0.5))


def test_toy_exact_rates():
    assert oracle.toy_exact_rates(0.8, 0.2) == (0.2, 1.0 - 0.8)
    assert oracle.toy_exact_rates(1.0, 0.0) == (0.0, 0.0)
    with pytest.raises(DomainError):
        oracle.toy_exact_rates(1.5, 0.0)


def test_np_curve_worked_example():
    curve = oracle.neyman_pearson_curve(dist(0.5, 0.5), dist(0.9, 0.1))
    assert len(curve) == 3
    expected = [(0.0, 1.0), (0.5, 0.1), (1.0, 0.0)]
    for (a, b), (ea, eb) in zip(curve, expected):
        assert abs(a - ea) <= 1e-12 and abs(b - eb) <= 1e-12


def test_np_curve_identical_distributions_is_diagonal():
    curve = oracle.neyman_pearson_curve(dist(0.5, 0.5), dist(0.5, 0.5))
    assert curve == ((0.0, 1.0), (1.0, 0.0))
    third = dist(1 / 3, 1 / 3, 1 / 3)
    curve = oracle.neyman_pearson_curve(third, third)
    (a0, b0), (a1, b1) = curve
    assert (a0, b0) == (0.0, 1.0)
    assert abs(a1 - 1.0) <= 1e-12 and abs(b1) <= 1e-12


def test_np_curve_zero_mass_null_outcome():
    # An outcome impossible under the null gives power for free.
    curve = oracle.neyman_pearson_curve(dist(0.0, 0.5, 0.5), dist(0.5, 0.25, 0.25))
    assert curve[0] == (0.0, 1.0)
    assert curve[1] == (0.0, 0.5)
    assert abs(curve[-1][0] - 1.0) <= 1e-12


def test_np_curve_requires_shared_support():
    with pytest.raises(DomainError):
        oracle.neyman_pearson_curve(
            dist(0.5, 0.5),
            oracle.DiscreteDistribution(("a", "b"), (0.5, 0.5)),
        )


def test_np_curve_dominates_deterministic_tests():
    # No deterministic accept-set may fall below the envelope.
    g = np.random.default_rng(404)
    for trial in range(60):
        k = int(g.integers(2, 6))
        p0 = g.dirichlet([1.0] * k)
        p1 = g.dirichlet([1.0] * k)
        p0 = p0 / p0.sum()
        p1 = p1 / p1.sum()
        d0 = oracle.DiscreteDistribution(tuple(range(k)), tuple(float(v) for v in p0))
        d1 = oracle.DiscreteDistribution(tuple(range(k)), tuple(float(v) for v in p1))
        alphas, betas = zip(*oracle.neyman_pearson_curve(d0, d1))
        for alpha, beta in brute_deterministic_tests(list(p0), list(p1)):
            assert beta >= np.interp(alpha, alphas, betas) - 1e-12


def test_np_curve_coordinates_stay_in_unit_square():
    g = np.random.default_rng(405)
    for trial in range(40):
        k = int(g.integers(2, 7))
        p0 = g.dirichlet([0.4] * k)
        p1 = g.dirichlet([0.4] * k)
        d0 = oracle.DiscreteDistribution(tuple(range(k)), tuple(float(v) for v in p0 / p0.sum()))
        d1 = oracle.DiscreteDistribution(tuple(range(k)), tuple(float(v) for v in p1 / p1.sum()))
        curve = oracle.neyman_pearson_curve(d0, d1)
        alphas = [a for a, _ in curve]
        betas = [b for _, b in curve]
        assert all(0.0 <= a <= 1.0 for a in alphas)
        assert all(0.0 <= b <= 1.0 for b in betas)
        assert alphas == sorted(alphas)
        assert betas == sorted(betas, reverse=True)


def test_mixture_average_rates():
    avg = oracle.mixture_average_rates([(0.1, 0.9), (0.5, 0.5)], [0.5, 0.5])
    assert abs(avg[0] - 0.3) <= 1e-15
    assert abs(avg[1] - 0.7) <= 1e-15
    with pytest.raises(DomainError):
        oracle.mixture_average_rates([(0.1, 0.9)], [0.5, 0.5])
    with pytest.raises(DomainError):
        oracle.mixture_average_rates([(0.1, 0.9), (0.5, 0.5)], [0.7, 0.5])
    with pytest.raises(DomainError):
        oracle.mixture_average_rates([], [])


def test_dpd_exact_matches_toy_rates():
    # The toy's exact operating point must sit on its release
    # distinguishability curve, at the vertex for the bit-1 accept set.
    p_in, p_out = 0.8, 0.2
    fit_in, fit_out = oracle.toy_release_distributions(p_in, p_out)
    curve = oracle.neyman_pearson_curve(fit_out, fit_in)
    alpha, beta = oracle.toy_exact_rates(p_in, p_out)
    assert any(
        abs(a - alpha) <= 1e-12 and abs(b - beta) <= 1e-12 for a, b in curve
    )


def test_dpd_exact_identical_worlds_is_diagonal():
    fit_in, fit_out = oracle.toy_release_distributions(0.4, 0.4)
    curve = oracle.neyman_pearson_curve(fit_out, fit_in)
    for alpha, beta in curve:
        assert abs((1.0 - alpha) - beta) <= 1e-12
