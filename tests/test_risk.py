import math

import mpmath
import numpy as np
import pytest

from privgames import risk
from privgames.errors import (
    DomainError,
    UndefinedMissRateError,
    UndefinedRateError,
)
from privgames.games import RUN_DTYPE, GameTranscript

from brute import brute_auc, brute_rates, brute_tradeoff_points
from reference import reference_dp_tradeoff_lower_bound, reference_empirical_tradeoff


def make_transcript(bits, scores, game_kind="traditional", record_id="r"):
    runs = np.array(
        [(b, s, i) for i, (b, s) in enumerate(zip(bits, scores))], dtype=RUN_DTYPE
    )
    return GameTranscript(
        runs=runs, record_id=record_id, game_kind=game_kind, config_hash="0" * 12
    )


# ------------------------------------------------------------------ rates


def test_empirical_rates_worked_example():
    t = make_transcript([0, 0, 1], [0.7, 0.2, 0.6])
    assert risk.empirical_rates(t, gamma=0.5) == (0.5, 0.0)


def test_empirical_rates_match_brute_force():
    g = np.random.default_rng(11)
    for trial in range(50):
        n = int(g.integers(4, 60))
        bits = g.integers(0, 2, size=n)
        if bits.sum() in (0, n):
            continue
        scores = np.round(g.random(n), 2)
        gamma = float(g.random())
        pair = risk.empirical_rates(make_transcript(bits, scores), gamma)
        assert pair == brute_rates(bits.tolist(), scores.tolist(), gamma)


def test_one_sided_transcript_is_undefined():
    t = make_transcript([1, 1], [0.2, 0.9])
    with pytest.raises(UndefinedRateError):
        risk.empirical_rates(t, 0.5)
    with pytest.raises(UndefinedRateError):
        risk.roc_auc(t)


# -------------------------------------------------------------------- auc


def test_auc_worked_example():
    t = make_transcript([1, 0, 1, 0], [0.9, 0.6, 0.4, 0.1])
    assert risk.roc_auc(t) == 0.75


def test_auc_all_ties_is_half():
    t = make_transcript([1, 0, 1, 0], [0.5, 0.5, 0.5, 0.5])
    assert risk.roc_auc(t) == 0.5


def test_auc_equals_brute_force_exactly():
    g = np.random.default_rng(77)
    for trial in range(200):
        # a few transcripts have classes of up to 400 runs
        top = 401 if trial % 25 < 4 else 20
        n0, n1 = (int(c) for c in g.integers(1, top, size=2))
        bits = np.array([0] * n0 + [1] * n1)
        g.shuffle(bits)
        kind = trial % 4
        if kind == 0:
            scores = np.round(g.random(n0 + n1) * 4) / 4  # coarse grid: plenty of ties
        elif kind == 1:
            scores = g.integers(0, 2, size=n0 + n1).astype(float)  # a released bit
        elif kind == 2:
            scores = np.full(n0 + n1, g.random())  # all tied
        else:
            scores = g.random(n0 + n1)
        t = make_transcript(bits, scores)
        fast = risk.roc_auc(t)
        slow = brute_auc(
            scores[bits == 1].tolist(), scores[bits == 0].tolist()
        )
        assert fast == slow  # bitwise, not approximately


def test_auc_invariant_under_monotone_transform():
    g = np.random.default_rng(78)
    bits = g.integers(0, 2, size=31)
    bits[0] = 0
    bits[1] = 1
    scores = np.round(g.random(31), 2)
    a = risk.roc_auc(make_transcript(bits, scores))
    b = risk.roc_auc(make_transcript(bits, scores / 3.0 + 0.2))
    assert a == b


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_score_is_a_domain_error(bad):
    t = make_transcript([0, 1, 0, 1], [0.2, bad, 0.4, 0.9], record_id="7")
    for estimate in (risk.roc_auc, risk.empirical_tradeoff, lambda t: risk.empirical_rates(t, 0.5)):
        with pytest.raises(DomainError, match="record '7'.*non-finite score"):
            estimate(t)


# ----------------------------------------------------------------- radius


def test_hoeffding_radius_against_high_precision():
    mpmath.mp.dps = 40
    for n, rho in [(1000, 0.2), (200, 0.05), (2000, 0.01), (7, 0.5)]:
        have = risk.hoeffding_radius(n, rho)
        want = float(mpmath.sqrt(mpmath.log(2 / mpmath.mpf(rho)) / (2 * n)))
        assert abs(have - want) <= abs(want) * 1e-12


def test_hoeffding_radius_quadruple_n_halves_exactly():
    for n in (5, 250, 1000):
        assert risk.hoeffding_radius(4 * n, 0.2) == risk.hoeffding_radius(n, 0.2) / 2


def test_hoeffding_radius_special_rho():
    # rho = 2/e^2 makes the radius exactly 1/sqrt(n).
    rho = 2 * math.exp(-2)
    assert abs(risk.hoeffding_radius(7, rho) - 1 / math.sqrt(7)) <= 1e-15


def test_hoeffding_radius_validation():
    with pytest.raises(DomainError):
        risk.hoeffding_radius(0, 0.2)
    with pytest.raises(DomainError):
        risk.hoeffding_radius(10, 0.0)
    with pytest.raises(DomainError):
        risk.hoeffding_radius(10, 1.0)


# ------------------------------------------------------- comparison stats


def test_miss_rate_worked_example():
    pairs = [(0.70, 0.85), (0.85, 0.90), (0.60, 0.50)]
    assert risk.miss_rate(pairs, threshold=0.8) == 0.5


def test_miss_rate_boundaries():
    # traditional exactly at the threshold counts as missed,
    # model-seeded exactly at the threshold is not high-risk.
    assert risk.miss_rate([(0.8, 0.81)], threshold=0.8) == 1.0
    with pytest.raises(UndefinedMissRateError):
        risk.miss_rate([(0.9, 0.8)], threshold=0.8)


def test_miss_rate_undefined_and_empty():
    with pytest.raises(UndefinedMissRateError):
        risk.miss_rate([(0.5, 0.5), (0.9, 0.7)], threshold=0.8)
    with pytest.raises(DomainError):
        risk.miss_rate([])


def test_rmsd_worked_example():
    value = risk.rmsd([(0.5, 0.6), (0.8, 0.6)])
    assert abs(value - math.sqrt(0.025)) <= 1e-15


def test_rmsd_zero_iff_identical():
    assert risk.rmsd([(0.4, 0.4), (0.9, 0.9)]) == 0.0
    assert risk.rmsd([(0.4, 0.5)]) > 0.0
    with pytest.raises(DomainError):
        risk.rmsd([])


# --------------------------------------------------------------- dp bound


def test_dp_bound_worked_example():
    value = risk.dp_tradeoff_lower_bound(math.log(2), 0.0, 0.25)
    assert abs(value - 0.5) <= 1e-12


def test_dp_bound_edges():
    assert risk.dp_tradeoff_lower_bound(0.0, 0.0, 0.0) == 1.0
    assert risk.dp_tradeoff_lower_bound(0.0, 0.0, 0.3) == 0.7
    assert risk.dp_tradeoff_lower_bound(5.0, 1.0, 0.5) == 0.0


def test_dp_bound_monotone_and_nonnegative():
    for eps in (0.01, 0.1, 1.0, 10.0, 1000.0):
        last = 1.1
        for alpha in np.linspace(0, 1, 101):
            b = risk.dp_tradeoff_lower_bound(eps, 0.0, float(alpha))
            assert 0.0 <= b <= last + 1e-15
            last = b


@pytest.mark.parametrize("epsilon", [0.0, 1e-300, 0.1, 1.0, math.log(2), 50.0, 709.0, 710.0, 1e6])
@pytest.mark.parametrize("delta", [0.0, 1e-5, 0.25, 1.0])
def test_dp_bound_of_an_array_is_each_rate_bound_alone(epsilon, delta):
    # One call bounds every vertex of a curve with the bits of bounding
    # each alone: alpha = 0, an overflowing e^eps (710 and up), bounds
    # clamped to 0.0 and ties between the terms included.
    g = np.random.default_rng(7)
    rates = np.concatenate([[0.0, 1.0, 0.5, 0.25, 1e-300], g.random(200), np.arange(41) / 40])
    got = risk.dp_tradeoff_lower_bound(epsilon, delta, rates)
    assert got.shape == rates.shape
    want = [reference_dp_tradeoff_lower_bound(epsilon, delta, a) for a in rates.tolist()]
    assert repr(got.tolist()) == repr(want)
    for a in rates[:5].tolist():
        value = risk.dp_tradeoff_lower_bound(epsilon, delta, a)
        assert type(value) is float
        assert repr(value) == repr(reference_dp_tradeoff_lower_bound(epsilon, delta, a))


def test_dp_audit_points_match_the_scalar_bound_per_vertex():
    g = np.random.default_rng(11)
    bits = [i % 2 for i in range(60)]
    t = make_transcript(bits, g.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=60).tolist())
    for epsilon in (0.05, 1.0, 800.0):
        slack = 2.0 * risk.hoeffding_radius(30, 0.05)
        want = []
        for alpha, beta in reference_empirical_tradeoff(t):
            bound = reference_dp_tradeoff_lower_bound(epsilon, 0.0, alpha)
            want.append((alpha, beta, bound, beta < bound - slack))
        assert repr(risk.dp_audit_points(t, epsilon, rho=0.05)) == repr(want)


def test_dp_bound_shrinks_with_epsilon():
    b_tight = risk.dp_tradeoff_lower_bound(0.1, 0.0, 0.2)
    b_loose = risk.dp_tradeoff_lower_bound(2.0, 0.0, 0.2)
    assert b_tight > b_loose


# --------------------------------------------------------------- tradeoff


def test_empirical_tradeoff_constant_scores():
    t = make_transcript([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5])
    assert risk.empirical_tradeoff(t) == ((0.0, 1.0), (1.0, 0.0))


def test_empirical_tradeoff_perfect_adversary():
    t = make_transcript([0, 1, 0, 1], [0.1, 0.9, 0.2, 0.8])
    assert (0.0, 0.0) in risk.empirical_tradeoff(t)


def test_empirical_tradeoff_matches_brute_force():
    g = np.random.default_rng(90)
    for trial in range(40):
        n = int(g.integers(4, 50))
        bits = np.zeros(n, dtype=int)
        bits[: n // 2] = 1
        g.shuffle(bits)
        scores = np.round(g.random(n), 1)
        t = make_transcript(bits, scores)
        fast = set(risk.empirical_tradeoff(t))
        slow = brute_tradeoff_points(bits.tolist(), scores.tolist())
        assert fast == slow


@pytest.mark.parametrize("step", [0.0, 0.25, 0.01], ids=["continuous", "quarter", "2dp"])
def test_empirical_tradeoff_matches_per_threshold_reference(step):
    # Sorted counts against two boolean means per threshold, bit for bit,
    # with ties wherever scores sit on a grid.
    g = np.random.default_rng(17)
    for trial in range(300):
        n = int(g.integers(2, 80))
        bits = g.permutation(np.arange(n) % 2)
        scores = g.random(n)
        if step:
            scores = np.round(scores / step) * step
        t = make_transcript(bits, scores)
        assert risk.empirical_tradeoff(t) == reference_empirical_tradeoff(t)


def test_empirical_tradeoff_bytes_with_signed_zeros_and_nan():
    # The thresholds are the sorted scores with repeats kept: a repeat,
    # and -0.0 next to 0.0, gives a vertex already on the curve, so the
    # curve's bytes are those of the distinct scores the reference takes.
    # A NaN score is refused before any threshold is taken.
    g = np.random.default_rng(23)
    for trial in range(200):
        n = int(g.integers(2, 40))
        bits = g.permutation(np.arange(n) % 2)
        scores = g.choice([-0.0, 0.0, 0.5, 1.0, -1.0], size=n)
        t = make_transcript(bits, scores)
        assert repr(risk.empirical_tradeoff(t)) == repr(reference_empirical_tradeoff(t))
    t = make_transcript([0, 1, 0, 1], [0.0, math.nan, -0.0, 0.5])
    with pytest.raises(DomainError, match="non-finite"):
        risk.empirical_tradeoff(t)


def test_dp_audit_flags_a_perfect_adversary():
    n = 40
    bits = [i % 2 for i in range(n)]
    scores = [float(b) for b in bits]
    t = make_transcript(bits, scores)
    rows = risk.dp_audit_points(t, epsilon=0.1, rho=0.05)
    assert any(flagged for _, _, _, flagged in rows)


def test_dp_audit_accepts_a_blind_adversary():
    n = 40
    bits = [i % 2 for i in range(n)]
    t = make_transcript(bits, [0.5] * n)
    rows = risk.dp_audit_points(t, epsilon=0.1, rho=0.05)
    assert not any(flagged for _, _, _, flagged in rows)


# ------------------------------------------------------------ distribution


def test_summary_percentile_interpolation():
    values = [v / 10 for v in range(1, 11)]
    summary = risk.summarize_distribution(values)
    assert abs(summary.percentiles[90] - 0.91) <= 1e-12
    assert abs(summary.percentiles[50] - 0.55) <= 1e-12


def test_summary_cdf_and_bins():
    values = [0.1, 0.1, 0.3, 0.5]
    summary = risk.summarize_distribution(values)
    assert sum(summary.bin_counts) == 4
    widths = np.diff(summary.bin_edges)
    assert (widths[:-1] > 0.02 - 1e-12).all() and (widths[:-1] < 0.02 + 1e-12).all()
    assert summary.bin_edges[0] == 0.1
    assert summary.bin_edges[-1] >= 0.5


def test_summary_single_value():
    summary = risk.summarize_distribution([0.42])
    assert sum(summary.bin_counts) == 1
    assert len(summary.bin_edges) == 2


def test_summary_empty_rejected():
    with pytest.raises(DomainError):
        risk.summarize_distribution([])
