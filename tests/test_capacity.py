import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from gicbounds import (
    CertificateUnavailableError,
    TwoUserChannel,
    VerdictKind,
    classify,
    eval_constraint1,
    mixed_condition,
    noisy_certificate,
    noisy_condition,
    optimize_constraint1,
    sigma_feasible,
    symmetric_noisy_threshold,
    tin_rates,
)
from gicbounds.capacity import _certificate
from gicbounds.channel import _noisy_sign
from gicbounds.multiuser import symmetric_threshold

from helpers import near_noisy_boundary, north_star_channels, sample_noisy_channel
from verify import exact_noisy_sign, in_exact_box

FIG1 = TwoUserChannel(a=0.04, b=0.09, p1=10, p2=20)

# The north star's domain: gains in [1e-9, 1 - 1e-6] and powers in
# [1e-8, 1e12], both log-uniform.
GAINS = st.floats(math.log(1e-9), math.log1p(-1e-6)).map(math.exp)
POWERS = st.floats(math.log(1e-8), math.log(1e12)).map(math.exp)


def certificate_errors(ch):
    """The certificate of a noisy channel, the larger relative miss of its
    targets rho_i*sigma_i = 1 + gain*p_other, and the gap of its weight-1
    value to the single-user-detection sum, relative to max(1, sum): at
    powers near 1e-8 the sum is about 1e-8 bits, and both sides carry the
    absolute rounding of log2(1 + x)."""
    cert = noisy_certificate(ch)
    t1, t2 = 1.0 + ch.a * ch.p2, 1.0 + ch.b * ch.p1
    miss = max(
        abs(cert.rho1 * math.sqrt(cert.sigma1_sq) - t1) / t1,
        abs(cert.rho2 * math.sqrt(cert.sigma2_sq) - t2) / t2,
    )
    tin = tin_rates(ch).sum
    gap = abs(eval_constraint1(ch, 1.0, cert) - tin) / max(1.0, tin)
    return cert, miss, gap


class TestNoisyCondition:
    def test_weak_channel_holds(self):
        holds, slack = noisy_condition(FIG1)
        assert holds
        assert slack == pytest.approx(0.92 - 1.0, abs=1e-12)

    def test_one_sided_channel_holds(self):
        holds, slack = noisy_condition(TwoUserChannel(0, 0.5, 7, 3))
        assert holds
        assert slack == pytest.approx(math.sqrt(0.5) - 1.0, abs=1e-12)

    def test_boundary_equality_counts(self):
        # sqrt(a)(b*p1 + 1) = 1/4 * 2 for each user: LHS = 1 exactly
        holds, slack = noisy_condition(TwoUserChannel(0.0625, 0.0625, 16, 16))
        assert holds
        assert abs(slack) < 1e-12

    def test_near_miss_is_unknown(self):
        # The float slack is 6.0e-14, but the exact LHS exceeds 1.
        p = 37.5 * (1 + 1e-13)
        assert exact_noisy_sign(0.04, 0.04, p, p) == 1
        v = classify(TwoUserChannel(0.04, 0.04, p, p))
        assert v.kind is VerdictKind.UNKNOWN
        assert 0.0 < v.slacks["noisy"] < 1e-12


class TestNoisyCertificate:
    def test_certificate_relations(self):
        cert = noisy_certificate(FIG1)
        assert cert.rho1**2 == pytest.approx(1 - FIG1.a * cert.sigma2_sq, abs=1e-12)
        assert cert.rho2**2 == pytest.approx(1 - FIG1.b * cert.sigma1_sq, abs=1e-12)
        assert cert.rho1 * math.sqrt(cert.sigma1_sq) == pytest.approx(
            1 + FIG1.a * FIG1.p2, abs=1e-9
        )
        assert cert.rho2 * math.sqrt(cert.sigma2_sq) == pytest.approx(
            1 + FIG1.b * FIG1.p1, abs=1e-9
        )
        assert eval_constraint1(FIG1, 1.0, cert) == pytest.approx(
            tin_rates(FIG1).sum, abs=1e-9
        )

    def test_symmetric_channel_gives_symmetric_certificate(self):
        ch = TwoUserChannel(0.05, 0.05, 2, 2)
        cert = noisy_certificate(ch)
        assert cert.sigma1_sq == pytest.approx(cert.sigma2_sq, rel=1e-12)
        assert cert.rho1 == pytest.approx(cert.rho2, rel=1e-12)

    def test_boundary_channel_degenerates(self):
        # On the condition boundary the two quadratic roots coincide and the
        # optimal correlation-variance products hit their targets exactly.
        p = 1e-6
        a = symmetric_noisy_threshold(p)
        ch = TwoUserChannel(a, a, p, p)
        cert = noisy_certificate(ch)
        assert cert.rho1 * math.sqrt(cert.sigma1_sq) == pytest.approx(
            1 + a * p, rel=1e-6
        )
        u = a * (a * p + 1) ** 2
        k = 1.0  # symmetric: the quadratic's linear coefficient is u - u + 1
        disc = k * k - 4 * u
        assert abs(disc) < 1e-5

    def test_unavailable_when_condition_fails(self):
        with pytest.raises(CertificateUnavailableError):
            noisy_certificate(TwoUserChannel(0.5, 0.5, 100, 100))

    def test_unavailable_for_one_sided_channel(self):
        with pytest.raises(CertificateUnavailableError):
            noisy_certificate(TwoUserChannel(0, 0.5, 1, 1))

    def test_random_noisy_channels_are_tight(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            ch = sample_noisy_channel(rng)
            cert = noisy_certificate(ch)
            assert eval_constraint1(ch, 1.0, cert) == pytest.approx(
                tin_rates(ch).sum, abs=1e-9
            )

    def test_low_power_certificate_is_feasible(self):
        # Low powers: root formulas with a subtraction cancel here, and
        # the point misses its targets and leaves the box.
        ch = TwoUserChannel(
            3.1143703952630876e-08,
            0.00018410758470855643,
            8.607408930826086e-05,
            0.0007410614819028871,
        )
        cert = classify(ch).certificate
        assert sigma_feasible(ch, 1.0, cert)
        assert in_exact_box(ch, 1.0, cert)

    def test_unavailable_when_variances_overflow(self):
        with pytest.raises(CertificateUnavailableError):
            noisy_certificate(TwoUserChannel(5e-324, 0.1, 1, 1))

    def test_unavailable_when_a_square_overflows(self):
        # Noisy (slack -0.036), but (1 + a*p2)^2 = 6.6e308 is beyond the
        # largest float, and so is s1 >= (1 + a*p2)^2.
        ch = TwoUserChannel(
            7.75909931528045e-124, 1.41228699461945e-309,
            1.5086127220011277e77, 3.3065774990856713e277,
        )
        assert noisy_condition(ch)[0]
        with pytest.raises(CertificateUnavailableError, match="variances overflow"):
            noisy_certificate(ch)

    @pytest.mark.parametrize("ch", [
        TwoUserChannel(5e-324, 0.1, 1, 1),
        TwoUserChannel(
            7.75909931528045e-124, 1.41228699461945e-309,
            1.5086127220011277e77, 3.3065774990856713e277,
        ),
    ])
    def test_verdict_stands_without_its_certificate(self, ch):
        verdict = classify(ch)
        assert verdict.kind is VerdictKind.NOISY_INTERFERENCE
        assert verdict.sum_capacity == tin_rates(ch).sum
        assert verdict.certificate is None
        with pytest.raises(CertificateUnavailableError):
            noisy_certificate(ch)

    @given(GAINS, GAINS, POWERS, POWERS)
    # rho1 near 1: stepping sigma2^2 alone into the box takes 30,517 float
    # steps here and misses its target by 1.8e-12.
    @example(1e-9, 0.9999367554404722, 1e-8, 1e-8)
    def test_certificate_is_exact_in_the_box(self, a, b, p1, p2):
        ch = TwoUserChannel(a, b, p1, p2)
        assume(noisy_condition(ch)[0])
        cert, miss, gap = certificate_errors(ch)
        assert miss <= 1e-14
        assert in_exact_box(ch, 1.0, cert)
        assert gap <= 2e-15


@pytest.mark.slow
def test_certificate_survey():
    # 20,000 noisy channels, gains log-uniform in [1e-9, 0.25] and powers
    # in [1e-8, 1e12]: no certificate misses its targets by more than
    # 1e-14 relative or leaves the exact box.
    rng = random.Random(7)

    def draw(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    misses = outside = seen = 0
    while seen < 20000:
        ch = TwoUserChannel(draw(1e-9, 0.25), draw(1e-9, 0.25), draw(1e-8, 1e12), draw(1e-8, 1e12))
        if not noisy_condition(ch)[0]:
            continue
        seen += 1
        cert, miss, gap = certificate_errors(ch)
        misses += miss > 1e-14 or gap > 2e-15
        outside += not (sigma_feasible(ch, 1.0, cert) and in_exact_box(ch, 1.0, cert))
    assert (misses, outside) == (0, 0)


def boundary_survey_channels():
    """1,000 gain pairs log-uniform in [1e-12, 0.24] (``random.Random(5)``),
    each at 7 shifts of -3 to 3 ulps from the noisy boundary, as (a, b, p1,
    p2) tuples; pairs with no such channel are skipped."""
    rng = random.Random(5)
    for _ in range(1000):
        a, b = (math.exp(rng.uniform(math.log(1e-12), math.log(0.24))) for _ in range(2))
        w = rng.random()
        for ulps in range(-3, 4):
            ch = near_noisy_boundary(a, b, w, ulps)
            if ch is not None:
                yield ch


@pytest.mark.slow
def test_boundary_survey():
    # The sign matches Fraction on every boundary-survey channel, and
    # classify claims noisy interference exactly where the condition holds.
    seen = mismatches = wrong_claims = 0
    for ch in boundary_survey_channels():
        seen += 1
        exact = exact_noisy_sign(*ch)
        mismatches += _noisy_sign(*ch)[0] != exact
        kind = classify(TwoUserChannel(*ch)).kind
        wrong_claims += (kind is VerdictKind.NOISY_INTERFERENCE) != (exact <= 0)
    assert (seen, mismatches, wrong_claims) == (7000, 0, 0)


@pytest.mark.slow
def test_certificate_box_steps_survey(monkeypatch):
    """The certificate's exact-box loop takes at most 4 float steps, over
    200,000 north-star channels (``random.Random(7)``) and the 7,000
    boundary-survey channels: 112,999 certificates, of which 52,951 take 0
    steps, 56,122 one, 3,895 two, 26 three and 5 four.  The bound is
    measured, not proven: each step lowers rho1^2 + a*s2 by 2^-54 or more,
    but how far the closed-form point starts outside the exact box has no
    proven bound.  A step is one call of ``math.nextafter``, which nothing
    else that a certificate runs calls."""
    steps = [0]
    step = math.nextafter

    def counted(x, y):
        steps[0] += 1
        return step(x, y)

    channels = [*north_star_channels(7, 200000),
                *(TwoUserChannel(*ch) for ch in boundary_survey_channels())]
    monkeypatch.setattr(math, "nextafter", counted)
    counts = []
    for ch in channels:
        steps[0] = 0
        if _certificate(ch) is not None:
            counts.append(steps[0])
    assert len(counts) == 112999 and max(counts) <= 4


class TestMixedCondition:
    def test_gain_product_above_one_is_vacuous(self):
        for p1 in (0.1, 10, 1000):
            holds, slack = mixed_condition(TwoUserChannel(4, 0.5, p1, 1))
            assert holds and slack < 0

    def test_gain_product_one(self):
        holds, slack = mixed_condition(TwoUserChannel(2, 0.5, 7, 1))
        assert holds
        assert slack == pytest.approx(-1.0, abs=1e-12)

    def test_fails_for_large_power(self):
        holds, slack = mixed_condition(TwoUserChannel(1.5, 0.1, 10, 1))
        assert not holds
        assert slack == pytest.approx(8.5 - 0.5, abs=1e-12)

    def test_swapped_orientation(self):
        holds, slack = mixed_condition(TwoUserChannel(0.5, 4, 1, 0.1))
        assert holds and slack < 0

    def test_inapplicable_gains(self):
        holds, slack = mixed_condition(TwoUserChannel(0.5, 0.5, 1, 1))
        assert not holds and math.isinf(slack)

    @given(
        st.floats(1.0, 1e12, exclude_min=True),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.integers(-3, 3),
        st.booleans(),
    )
    @example(2.0, 0.25, 0, False)  # (1 - 1/2) * 2 = 2 - 1: equality holds
    @example(2.0, 0.25, 1, True)
    def test_condition_is_exact(self, a, b, ulps, swap):
        # p1 within 3 ulps of the boundary (1 - a*b)*p1 = a - 1
        p1 = abs((a - 1.0) / (1.0 - a * b)) if a * b != 1.0 else 1.0
        for _ in range(abs(ulps)):
            p1 = math.nextafter(p1, math.copysign(math.inf, ulps))
        assume(0.0 < p1 < math.inf)
        ch = TwoUserChannel(a, b, p1, 1.0)
        fa, fb, fp = Fraction(a), Fraction(b), Fraction(p1)
        assert mixed_condition(ch.swapped() if swap else ch)[0] == ((1 - fa * fb) * fp <= fa - 1)


class TestClassify:
    def test_noisy_channel(self):
        v = classify(FIG1)
        assert v.kind is VerdictKind.NOISY_INTERFERENCE
        expected = 0.5 * math.log2(1 + 10 / 1.8) + 0.5 * math.log2(1 + 20 / 1.9)
        assert v.sum_capacity == pytest.approx(expected, abs=1e-12)
        assert v.certificate is not None
        assert v.condition_slack <= 0

    def test_mixed_corner(self):
        v = classify(TwoUserChannel(2, 0.5, 3, 4))
        assert v.kind is VerdictKind.MIXED_CORNER
        assert v.sum_capacity == pytest.approx(1 + 0.5 * math.log2(2.6), abs=1e-12)
        assert v.sum_capacity == pytest.approx(1.6893, abs=5e-5)

    def test_mixed_corner_swapped(self):
        v = classify(TwoUserChannel(0.5, 2, 4, 3))
        assert v.kind is VerdictKind.MIXED_CORNER
        assert v.sum_capacity == pytest.approx(1 + 0.5 * math.log2(2.6), abs=1e-12)

    def test_unknown(self):
        v = classify(TwoUserChannel(0.5, 0.5, 100, 100))
        assert v.kind is VerdictKind.UNKNOWN
        assert v.sum_capacity is None
        assert v.slacks["noisy"] > 0 and math.isinf(v.slacks["mixed"])

    def test_one_sided(self):
        v = classify(TwoUserChannel(0, 0.5, 7, 3))
        assert v.kind is VerdictKind.ZIC_NOISY
        expected = 0.5 * math.log2(8) + 0.5 * math.log2(1 + 3 / 4.5)
        assert v.sum_capacity == pytest.approx(expected, abs=1e-12)
        assert v.certificate is None

    def test_trivial_channel(self):
        v = classify(TwoUserChannel(0, 0, 1, 1))
        assert v.kind is VerdictKind.ZIC_NOISY
        assert v.sum_capacity == pytest.approx(1.0, abs=1e-12)

    def test_swap_symmetry(self):
        # Weak channels, then mixed-corner gains (a in (1, 8), b in (0, 1)):
        # each channel and its swap get the same verdict, to the bit.
        rng = np.random.default_rng(5)
        weak = [(*rng.uniform(0, 0.4, 2), *np.exp(rng.uniform(-1, 4, 2))) for _ in range(40)]
        mixed = [(rng.uniform(1, 8), rng.uniform(0, 1), *np.exp(rng.uniform(-1, 4, 2)))
                 for _ in range(40)]
        kinds = set()
        for a, b, p1, p2 in weak + mixed:
            v = classify(TwoUserChannel(a, b, p1, p2))
            w = classify(TwoUserChannel(b, a, p2, p1))
            assert (v.kind, v.condition_slack, v.sum_capacity, v.slacks) == (
                w.kind, w.condition_slack, w.sum_capacity, w.slacks
            )
            kinds.add(v.kind)
        assert kinds == set(VerdictKind) - {VerdictKind.ZIC_NOISY}

    def test_capacity_matches_weight_one_bound(self):
        # outer bound meets the single-user-detection inner bound
        rng = np.random.default_rng(6)
        for _ in range(6):
            ch = sample_noisy_channel(rng)
            v = classify(ch)
            line = optimize_constraint1(ch, 1.0)
            assert v.sum_capacity <= line.value + 1e-6
            assert line.value == pytest.approx(v.sum_capacity, abs=1e-6)


class TestSymmetricThreshold:
    def test_high_power_threshold(self):
        a_star = symmetric_noisy_threshold(5000.0)
        a_db = 10 * math.log10(a_star)
        assert abs(a_db - (-26.99)) <= 0.15
        # bisection returns the feasible side of the boundary
        assert symmetric_threshold(2, a_star) >= 5000.0
        assert symmetric_threshold(2, a_star + 1e-10) < 5000.0

    def test_threshold_vanishes_at_high_power(self):
        assert symmetric_noisy_threshold(1e12) < 1e-6

    def test_quarter_gain_has_zero_power_budget(self):
        assert symmetric_threshold(2, 0.25) == pytest.approx(0.0, abs=1e-15)
        assert symmetric_noisy_threshold(1e-9) < 0.25

    def test_power_limit_monotone_decreasing(self):
        grid = np.linspace(1e-4, 0.25, 500)
        vals = [symmetric_threshold(2, a) for a in grid]
        assert all(x > y for x, y in zip(vals, vals[1:]))


class TestSymmetricRegions:
    """Grid consistency of the symmetric-channel condition algebra."""

    A_GRID = np.linspace(0.005, 0.5, 100)
    P_GRID = np.geomspace(0.01, 1000.0, 100)

    def test_condition_matches_closed_form_region(self):
        for a in self.A_GRID:
            limit = symmetric_threshold(2, a)
            for p in self.P_GRID:
                ch = TwoUserChannel(a, a, p, p)
                holds, slack = noisy_condition(ch)
                if abs(slack) < 1e-9:
                    continue  # boundary cell: either call is acceptable
                assert holds == (a <= 0.25 and p <= limit), (a, p, slack)

    def test_noisy_region_inside_weak_region(self):
        for a in self.A_GRID:
            for p in self.P_GRID:
                if noisy_condition(TwoUserChannel(a, a, p, p))[0]:
                    assert a <= 0.5
                    assert p <= (1 - 2 * a) / (2 * a * a) + 1e-9
