import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gicbounds import (
    MUserChannel,
    TwoUserChannel,
    m_user_interference_powers,
    single_user_capacities,
    tdm_fdm_sum_rate,
    tin_rates,
)
from gicbounds.channel import _noisy_sign
from gicbounds.multiuser import _above_uniform_cut

from helpers import near_noisy_boundary_channels
from verify import exact_noisy_sign

FIG1 = TwoUserChannel(a=0.04, b=0.09, p1=10, p2=20)
GAINS = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
POWERS = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


class TestTinRates:
    def test_no_interference_matches_awgn(self):
        r = tin_rates(TwoUserChannel(0, 0, 3, 3))
        assert r.r1 == pytest.approx(1.0, abs=1e-12)
        assert r.r2 == pytest.approx(1.0, abs=1e-12)

    def test_weak_interference_values(self):
        r = tin_rates(FIG1)
        assert r.r1 == pytest.approx(0.5 * math.log2(1 + 10 / 1.8), abs=1e-15)
        assert r.r2 == pytest.approx(0.5 * math.log2(1 + 20 / 1.9), abs=1e-15)
        assert r.r1 == pytest.approx(1.3564, abs=5e-5)
        assert r.r2 == pytest.approx(1.7634, abs=5e-5)

    def test_unit_gain_unit_power(self):
        r = tin_rates(TwoUserChannel(1, 1, 1, 1))
        assert r.r1 == pytest.approx(0.5 * math.log2(1.5), abs=1e-15)
        assert r.r2 == pytest.approx(0.2925, abs=5e-5)


class TestSingleUserCapacities:
    @pytest.mark.parametrize(
        "p1,p2,c1,c2",
        [(3, 15, 1.0, 2.0), (1, 1, 0.5, 0.5), (10, 20, 1.7297, 2.1962)],
    )
    def test_values(self, p1, p2, c1, c2):
        r = single_user_capacities(TwoUserChannel(0.3, 0.7, p1, p2))
        assert r.r1 == pytest.approx(c1, abs=5e-5)
        assert r.r2 == pytest.approx(c2, abs=5e-5)


class TestTdmFdm:
    def test_symmetric_split(self):
        ch = TwoUserChannel(0.1, 0.1, 4, 4)
        assert tdm_fdm_sum_rate(ch, 0.5) == pytest.approx(0.5 * math.log2(9), abs=1e-12)

    def test_all_time_to_user2_limit(self):
        val = tdm_fdm_sum_rate(FIG1, 1e-9)
        assert val == pytest.approx(0.5 * math.log2(21), abs=1e-6)

    def test_even_split(self):
        expected = 0.25 * math.log2(21) + 0.25 * math.log2(41)
        assert tdm_fdm_sum_rate(FIG1, 0.5) == pytest.approx(expected, abs=1e-12)
        assert tdm_fdm_sum_rate(FIG1, 0.5) == pytest.approx(2.4375, abs=5e-5)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.7])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValueError):
            tdm_fdm_sum_rate(FIG1, alpha)


class TestInterferencePowers:
    def test_single_user(self):
        ch = MUserChannel(gains=np.eye(1), powers=np.array([2.0]))
        assert m_user_interference_powers(ch).tolist() == [0.0]

    def test_symmetric_three_user(self):
        ch = MUserChannel.symmetric(3, 0.05, 5.0)
        assert m_user_interference_powers(ch) == pytest.approx([0.5, 0.5, 0.5])

    def test_two_user_embedding(self):
        q = m_user_interference_powers(MUserChannel.from_two_user(FIG1))
        assert q == pytest.approx([FIG1.a * FIG1.p2, FIG1.b * FIG1.p1])

    def test_strong_own_signal(self):
        # Q_1 = c_21 P_2 exactly: subtracting c_11 P_1 = 9.7e9 from the full
        # sum at receiver 1 would cancel away the interference's low bits.
        ch = MUserChannel(gains=np.array([[1.0, 0.0], [0.999999, 1.0]]),
                          powers=np.array([9.74480345e9, 1.0]))
        assert m_user_interference_powers(ch).tolist() == [0.999999, 0.0]


class TestInvariants:
    def test_tin_never_exceeds_single_user(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = rng.uniform(0, 3, 2)
            p1, p2 = np.exp(rng.uniform(-2, 7, 2))
            ch = TwoUserChannel(a, b, p1, p2)
            tin = tin_rates(ch)
            cap = single_user_capacities(ch)
            assert 0 <= tin.r1 <= cap.r1 + 1e-12
            assert 0 <= tin.r2 <= cap.r2 + 1e-12
            assert math.isfinite(tin.r1) and math.isfinite(tin.r2)

    def test_zero_gain_collapses_to_single_user(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p1, p2 = np.exp(rng.uniform(-2, 7, 2))
            ch = TwoUserChannel(0, 0, p1, p2)
            assert tin_rates(ch) == single_user_capacities(ch)


class TestNoisySign:
    """``_noisy_sign`` against ``verify.exact_noisy_sign``, which squares
    the condition in another order, in ``Fraction``."""

    @given(GAINS, GAINS, POWERS, POWERS)
    @example(0.04, 0.09, 10.0, 20.0)
    @example(1.7976931348623157e308, 5e-324, 5e-324, 1.7976931348623157e308)
    def test_sign_is_exact_over_the_float_range(self, a, b, p1, p2):
        sign, slack = _noisy_sign(a, b, p1, p2)
        assert sign == exact_noisy_sign(a, b, p1, p2)
        # The float slack keeps the formula's bits (its display is pinned).
        expected = math.sqrt(a) * (b * p1 + 1.0) + math.sqrt(b) * (a * p2 + 1.0) - 1.0
        assert slack == expected or math.isnan(slack) and math.isnan(expected)

    @given(near_noisy_boundary_channels())
    def test_sign_is_exact_near_the_boundary(self, ch):
        assert _noisy_sign(*ch)[0] == exact_noisy_sign(*ch)

    @pytest.mark.parametrize("ch, sign", [
        ((0.0625, 0.0625, 16.0, 16.0), 0),  # 1/4 * 2 + 1/4 * 2 = 1
        ((1.0, 0.0, 7.5e157, 8.8e-219), 0),
        ((0.0, 4.0, 1e308, 1.0), 1),  # sqrt(0) * inf: a nan float slack
    ])
    def test_the_exact_branch(self, ch, sign):
        # A float slack of 0 or nan lies in no band the filter accepts.
        got, slack = _noisy_sign(*ch)
        assert got == sign == exact_noisy_sign(*ch)
        assert slack == 0.0 or math.isnan(slack)


class TestUniformCut:
    @given(st.integers(2, 40), st.integers(-3, 3))
    def test_cut_is_exact_next_to_the_threshold(self, m, ulps):
        c = 1.0 / (4 * (m - 1))
        for _ in range(abs(ulps)):
            c = math.nextafter(c, math.copysign(math.inf, ulps))
        assert _above_uniform_cut(m, c) == (Fraction(c) > Fraction(1, 4 * (m - 1)))

    @given(st.integers(2, 1000), POWERS)
    def test_cut_is_exact_over_the_float_range(self, m, c):
        assert _above_uniform_cut(m, c) == (Fraction(c) > Fraction(1, 4 * (m - 1)))


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(a=-0.1, b=0, p1=1, p2=1),
            dict(a=0, b=math.inf, p1=1, p2=1),
            dict(a=0, b=0, p1=0, p2=1),
            dict(a=0, b=0, p1=1, p2=-3),
            dict(a=math.nan, b=0, p1=1, p2=1),
        ],
    )
    def test_two_user_rejects(self, kwargs):
        with pytest.raises(ValueError):
            TwoUserChannel(**kwargs)

    def test_m_user_rejects_bad_diagonal(self):
        with pytest.raises(ValueError):
            MUserChannel(gains=np.array([[2.0, 0.1], [0.1, 1.0]]), powers=np.array([1.0, 1.0]))

    def test_m_user_rejects_negative_gain(self):
        with pytest.raises(ValueError):
            MUserChannel(gains=np.array([[1.0, -0.1], [0.1, 1.0]]), powers=np.array([1.0, 1.0]))

    def test_m_user_rejects_power_shape(self):
        with pytest.raises(ValueError):
            MUserChannel(gains=np.eye(2), powers=np.array([1.0, 2.0, 3.0]))

    def test_m_user_gains_read_only(self):
        ch = MUserChannel.symmetric(3, 0.1, 1.0)
        with pytest.raises(ValueError):
            ch.gains[0, 1] = 0.5
