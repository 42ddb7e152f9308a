"""The Gaussian rate 0.5*log2(1 + x) and the rates built on it, against
200-bit mpmath: ``channel._rate``, the two-user TIN sum, the m-user TIN
sum and the ETA closed forms; and the agreement of the two-user and m = 2
sum capacities to the bit."""

import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gicbounds import (
    MUserChannel,
    TwoUserChannel,
    classify,
    eta1_range,
    eta2_range,
    eval_constraint2,
    eval_constraint3,
    find_rho,
    noisy_sum_capacity,
    tin_rates,
)
from gicbounds.channel import _rate

from helpers import north_star_channels

# The north star's domain: gains in [1e-9, 1 - 1e-6] and powers in
# [1e-8, 1e12], both log-uniform.
GAINS = st.floats(math.log(1e-9), math.log1p(-1e-6)).map(math.exp)
POWERS = st.floats(math.log(1e-8), math.log(1e12)).map(math.exp)
CHANNELS = st.builds(TwoUserChannel, GAINS, GAINS, POWERS, POWERS)

# Both powers near 1e-8, where log2(1 + x) loses about 27 bits of x.
TINY = TwoUserChannel(0.00034452213435226927, 8.264950890639158e-08,
                      2.1571889067789612e-08, 1.1155921938655898e-08)


def gamma(x):
    """0.5*log2(1 + x) of an mpmath number, at the working precision."""
    return mpmath.log1p(x) / (2 * mpmath.log(2))


def ulps(value: float, exact) -> float:
    """The distance of ``value`` from ``exact`` in ulps of ``exact``
    rounded to a float."""
    return float(abs(mpmath.mpf(value) - exact)) / math.ulp(float(exact))


def rate_ulps(x: float) -> float:
    with mpmath.workprec(200):
        return ulps(_rate(x), gamma(mpmath.mpf(x)))


def tin_ulps(ch: TwoUserChannel) -> float:
    with mpmath.workprec(200):
        a, b, p1, p2 = map(mpmath.mpf, (ch.a, ch.b, ch.p1, ch.p2))
        return ulps(tin_rates(ch).sum, gamma(p1 / (1 + a * p2)) + gamma(p2 / (1 + b * p1)))


def m_user_tin_ulps(ch: MUserChannel) -> float:
    """The m-user TIN sum's error, with Q_i = sum_{j != i} c_ji P_j exact."""
    gains, powers = ch.gains.tolist(), ch.powers.tolist()
    m = len(powers)
    with mpmath.workprec(200):
        exact = mpmath.fsum(
            gamma(mpmath.mpf(powers[i]) / (1 + mpmath.fsum(
                mpmath.mpf(gains[j][i]) * powers[j] for j in range(m) if j != i
            )))
            for i in range(m)
        )
        return ulps(noisy_sum_capacity(ch), exact)


def eta_errors(ch: TwoUserChannel) -> tuple[float, float]:
    """The relative errors of the ETA1 and ETA2 values that
    ``sum_upper_bounds`` takes, each against its closed form at the line's
    own weight and p_tilde."""
    eta1 = eval_constraint2(ch, eta1_range(ch)[0])
    eta2 = eval_constraint3(ch, eta2_range(ch)[1])
    with mpmath.workprec(200):
        a, b, p1, p2 = map(mpmath.mpf, (ch.a, ch.b, ch.p1, ch.p2))
        w, p = mpmath.mpf(eta1.weight), mpmath.mpf(eta1.p_tilde)
        exact1 = gamma(p) - w * gamma(b * p) + w * gamma(b * p1 + p2)
        w, p = mpmath.mpf(eta2.weight), mpmath.mpf(eta2.p_tilde)
        exact2 = gamma(p1 + a * p2) - gamma(a * p) + w * gamma(p)
        return tuple(
            float(abs(line.value - exact) / exact) for line, exact in ((eta1, exact1), (eta2, exact2))
        )


@given(st.floats(5e-324, 1e300))
@example(1.0000000000000002e-08)
@example(5e-324)
@example(1e300)
def test_rate_is_within_two_ulps(x):
    assert rate_ulps(x) <= 2.0


@given(CHANNELS)
@example(TINY)
def test_tin_sum_is_within_four_ulps(ch):
    assert tin_ulps(ch) <= 4.0


@st.composite
def m_user_channels(draw):
    """m from 2 to 16 users, off-diagonal gains and powers on the north
    star's domain."""
    m = draw(st.integers(2, 16))
    gains = np.array([[1.0 if i == j else draw(GAINS) for j in range(m)] for i in range(m)])
    return MUserChannel(gains=gains, powers=np.array([draw(POWERS) for _ in range(m)]))


@given(m_user_channels())
@example(MUserChannel.from_two_user(TINY))
@example(MUserChannel.symmetric(16, 3e-9, 1.3e-8))
def test_m_user_tin_sum_is_within_four_ulps(ch):
    assert m_user_tin_ulps(ch) <= 4.0


@given(CHANNELS)
@example(TINY)
def test_eta_values_match_their_closed_forms(ch):
    assert max(eta_errors(ch)) <= 2e-15


@given(CHANNELS)
# One of the 14 channels of the survey below whose two sums differed in the
# last bit when the m-user sum took numpy's log2; both certify it.
@example(TwoUserChannel(2.8852440036947607e-08, 0.053870697519985064,
                        0.15726142377732188, 0.1545125393804944))
def test_two_user_and_m_user_sum_capacities_agree(ch):
    mu = MUserChannel.from_two_user(ch)
    assert noisy_sum_capacity(mu) == tin_rates(ch).sum
    two, m = classify(ch).sum_capacity, find_rho(mu).sum_capacity
    if two is not None and m is not None:
        assert two == m


@pytest.mark.slow
def test_two_user_survey():
    # 20,000 north-star channels: the two sums agree to the bit everywhere
    # (14 differed with numpy's log2 in the m-user sum), classify and
    # find_rho certify the same capacity wherever both certify (11,001
    # channels), and every TIN sum and ETA value meets its bound.
    both = disagree = 0
    worst_tin = worst_eta = 0.0
    for ch in north_star_channels(3, 20000):
        mu = MUserChannel.from_two_user(ch)
        two, m = classify(ch).sum_capacity, find_rho(mu).sum_capacity
        disagree += noisy_sum_capacity(mu) != tin_rates(ch).sum
        if two is not None and m is not None:
            both += 1
            disagree += two != m
        worst_tin = max(worst_tin, tin_ulps(ch))
        worst_eta = max(worst_eta, *eta_errors(ch))
    assert (both, disagree) == (11001, 0)
    assert worst_tin <= 4.0 and worst_eta <= 2e-15


@pytest.mark.slow
def test_m_user_survey():
    # 5,000 channels, m uniform in 2 to 16, gains and powers log-uniform
    # over the north star's domain.
    rng = random.Random(8)

    def draw(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    worst = 0.0
    for _ in range(5000):
        m = rng.randint(2, 16)
        gains = [[1.0 if i == j else draw(1e-9, 1 - 1e-6) for j in range(m)] for i in range(m)]
        ch = MUserChannel(gains=np.array(gains), powers=np.array([draw(1e-8, 1e12) for _ in range(m)]))
        worst = max(worst, m_user_tin_ulps(ch))
    assert worst <= 4.0


@pytest.mark.slow
def test_rate_survey():
    # 100,000 arguments log-uniform from the least subnormal to 1e300.
    rng = random.Random(8)
    worst = max(rate_ulps(math.exp(rng.uniform(math.log(5e-324), math.log(1e300))))
                for _ in range(100000))
    assert worst <= 2.0
