import math
import random
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import minimize, minimize_scalar

from gicbounds import (
    GenieParams,
    TwoUserChannel,
    WeightKind,
    effective_powers,
    eta1_range,
    eta2_range,
    eval_constraint1,
    eval_constraint2,
    eval_constraint3,
    noisy_certificate,
    optimize_constraint1,
    optimize_constraint1_many,
    sigma_feasible,
    sum_upper_bound,
    sum_upper_bounds,
    tin_rates,
    user1_genie_bound,
)
from gicbounds import genie
from gicbounds.channel import _gap, sigma_limits
from gicbounds.region import build_outer_region

import helpers
import pins
from helpers import (
    clamp,
    count_objective_calls,
    north_star_channels,
    reference_mu_bound,
    sample_noisy_channel,
    sample_regime_channel,
)
from verify import in_exact_box

FIG1 = TwoUserChannel(a=0.04, b=0.09, p1=10, p2=20)
PINNED_LINES = pins.load("mu_lines.json")
RHO_MAX = 1.0 - 1e-6  # the search's correlation bound

# The north star's domain: regime gains in [1e-9, 1 - 1e-6] and powers in
# [1e-8, 1e12], both log-uniform, and weights in [1/64, 64].
GAINS = st.floats(math.log(1e-9), math.log1p(-1e-6)).map(math.exp)
POWERS = st.floats(math.log(1e-8), math.log(1e12)).map(math.exp)
WEIGHTS = st.floats(-6.0, 6.0).map(lambda e: 2.0**e)


def random_feasible_params(ch, mu, rng):
    r1, r2 = rng.uniform(0, 1 - 1e-6, 2)
    s1_max, s2_max = sigma_limits(ch, mu, r1, r2)
    smax = 10 * max(ch.p1, ch.p2, 1 / ch.a, 1 / ch.b)
    s1 = math.exp(rng.uniform(math.log(1e-4), math.log(min(s1_max, smax))))
    s2 = math.exp(rng.uniform(math.log(1e-4), math.log(min(s2_max, smax))))
    return GenieParams(r1, r2, s1, s2)


class TestSigmaFeasible:
    def test_boundary_variance_is_feasible(self):
        # sigma2_sq equal to (1 - rho1^2)/a sits on the (closed) box boundary
        ch = TwoUserChannel(0.5, 0.5, 1, 1)
        gp = GenieParams(rho1=0.0, rho2=0.0, sigma1_sq=1.0, sigma2_sq=2.0)
        assert sigma_feasible(ch, 2.0, gp)

    def test_beyond_boundary_is_infeasible(self):
        ch = TwoUserChannel(0.5, 0.5, 1, 1)
        gp = GenieParams(rho1=0.0, rho2=0.0, sigma1_sq=1.0, sigma2_sq=2.0 + 1e-9)
        assert not sigma_feasible(ch, 2.0, gp)

    def test_just_inside_is_feasible(self):
        ch = TwoUserChannel(0.5, 0.5, 1, 1)
        gp = GenieParams(rho1=0.0, rho2=0.0, sigma1_sq=1.0, sigma2_sq=2.0 - 1e-9)
        assert sigma_feasible(ch, 2.0, gp)

    def test_zero_gain_lifts_the_cap(self):
        ch = TwoUserChannel(0.3, 0.0, 1, 1)
        gp = GenieParams(rho1=0.5, rho2=0.5, sigma1_sq=1e12, sigma2_sq=1.0)
        assert sigma_feasible(ch, 0.5, gp)

    def test_rejects_nonpositive_mu(self):
        gp = GenieParams(0.1, 0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            sigma_feasible(FIG1, 0.0, gp)

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    def test_rejects_non_finite_mu(self, mu):
        # nan used to pass the mu <= 0 check; the search then found no
        # feasible start and raised RuntimeError
        for call in (
            lambda: sigma_limits(FIG1, mu, 0.1, 0.1),
            lambda: optimize_constraint1(FIG1, mu),
            lambda: optimize_constraint1_many(FIG1, (1.0, mu)),
        ):
            with pytest.raises(ValueError, match="mu must be finite"):
                call()

    def test_small_mu_caps_sigma1(self):
        ch = TwoUserChannel(0.5, 0.5, 1, 1)
        assert sigma_feasible(ch, 0.5, GenieParams(0.0, 0.0, 2.0, 50.0))
        assert not sigma_feasible(ch, 0.5, GenieParams(0.0, 0.0, 2.1, 50.0))


class TestEffectivePowers:
    def test_large_sigma_zeroes_p1(self):
        ch = TwoUserChannel(0.1, 0.25, 1, 1)
        gp = GenieParams(0.0, 0.0, sigma1_sq=3.0, sigma2_sq=1.0)  # 3 > 1/(b*mu) = 2
        p1s, p2s = effective_powers(ch, 2.0, gp)
        assert p1s == 0.0 and p2s == ch.p2

    def test_weight_one_two_branch(self):
        ch = TwoUserChannel(0.1, 0.25, 1, 1)
        below = GenieParams(0.0, 0.0, sigma1_sq=3.9, sigma2_sq=1.0)  # 3.9 <= 1/b = 4
        above = GenieParams(0.0, 0.0, sigma1_sq=4.1, sigma2_sq=1.0)
        assert effective_powers(ch, 1.0, below) == (ch.p1, ch.p2)
        assert effective_powers(ch, 1.0, above) == (0.0, ch.p2)

    def test_weight_one_branch_follows_the_exact_comparison(self):
        # Correlations near 1: 1 - rho2*rho2 in floats said b*s1 > 1 - rho2^2
        # here and zeroed p1_star, which put the bound 1.0e-9 bits below the
        # achievable TIN sum; exactly, b*s1 < 1 - rho2^2 and p1_star = p1.
        ch = TwoUserChannel(
            1.46234480867818e-07, 1.8422511357622868e-08, 84.98596421786137, 9.912209344377599e-08
        )
        gp = GenieParams(
            0.9999999268825266, 0.9999999907887429, 1.000000147221068, 1.0000031495036048
        )
        below = Fraction(ch.b) * Fraction(gp.sigma1_sq) <= 1 - Fraction(gp.rho2) ** 2
        p1s, p2s = effective_powers(ch, 1.0, gp)
        assert (p1s, p2s) == ((ch.p1 if below else 0.0), ch.p2)
        assert eval_constraint1(ch, 1.0, gp) >= tin_rates(ch).sum

    def test_middle_branch_value(self):
        ch = TwoUserChannel(0.1, 0.25, 1, 1)
        gp = GenieParams(0.0, 0.0, sigma1_sq=1.6, sigma2_sq=1.0)
        p1s, _ = effective_powers(ch, 2.0, gp)
        assert p1s == pytest.approx((1 - 0.5 * 1.6) / (0.5 - 0.25), abs=1e-12)

    def test_rejects_infeasible_params(self):
        ch = TwoUserChannel(0.5, 0.5, 1, 1)
        with pytest.raises(ValueError):
            effective_powers(ch, 2.0, GenieParams(0.0, 0.0, 1.0, 2.5))

    @pytest.mark.parametrize(
        "ch, mu",
        [
            (TwoUserChannel(0.3, 0.0, 1, 1), 2.0),  # used to divide by b = 0
            (TwoUserChannel(0.0, 0.3, 1, 1), 0.5),  # used to divide by a = 0
            (TwoUserChannel(1.5, 0.3, 1, 1), 2.0),  # used to return a number
        ],
    )
    def test_rejects_channels_outside_the_regime(self, ch, mu):
        with pytest.raises(ValueError, match="MU bound requires"):
            effective_powers(ch, mu, GenieParams(0.0, 0.0, 0.5, 0.5))

    def test_branch_continuity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            b = rng.uniform(0.05, 0.95)
            mu = math.exp(rng.uniform(math.log(1.01), math.log(50)))
            rho2 = rng.uniform(0, 0.999)
            p1 = math.exp(rng.uniform(-2, 6))
            gap = 1 - rho2 * rho2
            left = max((1 - mu) * p1 / mu + gap / (b * mu), 0.0)
            right = gap / (b * mu)

            def middle(s):
                return (gap - b * mu * s) / (b * mu - b)

            if left > 0:
                assert middle(left) == pytest.approx(p1, abs=1e-12 * max(1, p1))
            assert middle(right) == pytest.approx(0.0, abs=1e-12 * max(1, p1))

    def test_branch_continuity_small_mu(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a = rng.uniform(0.05, 0.95)
            mu = math.exp(rng.uniform(math.log(0.02), math.log(0.99)))
            rho1 = rng.uniform(0, 0.999)
            p2 = math.exp(rng.uniform(-2, 6))
            gap = 1 - rho1 * rho1
            left = max((mu - 1) * p2 + mu * gap / a, 0.0)
            right = mu * gap / a

            def middle(s):
                return (mu * gap - a * s) / (a - a * mu)

            if left > 0:
                assert middle(left) == pytest.approx(p2, abs=1e-12 * max(1, p2))
            assert middle(right) == pytest.approx(0.0, abs=1e-12 * max(1, p2))


class TestEvalConstraint1:
    def test_certificate_point_matches_tin_sum(self):
        cert = noisy_certificate(FIG1)
        val = eval_constraint1(FIG1, 1.0, cert)
        assert val == pytest.approx(tin_rates(FIG1).sum, abs=1e-9)
        assert val == pytest.approx(3.1198, abs=5e-5)

    def test_rejects_zero_gain(self):
        ch = TwoUserChannel(0.0, 0.5, 1, 1)
        with pytest.raises(ValueError):
            eval_constraint1(ch, 1.0, GenieParams(0.0, 0.0, 1.0, 1.0))

    def test_symmetric_point_upper_bounds_tin(self):
        ch = TwoUserChannel(0.1, 0.1, 1, 1)
        gp = GenieParams(0.0, 0.0, 1.0, 1.0)
        val = eval_constraint1(ch, 1.0, gp)
        expected = 1.0 - math.log2(1.1) + math.log2(1.6)
        assert val == pytest.approx(expected, abs=1e-12)
        assert val >= tin_rates(ch).sum

    def test_degenerate_boundary_point_is_plus_infinity(self):
        # full correlation with the other user's effective power forced to
        # zero drives one log argument to 0; the bound stays representable
        ch = TwoUserChannel(0.5, 0.5, 1, 1)
        gp = GenieParams(rho1=1.0, rho2=0.0, sigma1_sq=1.0, sigma2_sq=5.0)
        val = eval_constraint1(ch, 0.5, gp)
        assert math.isinf(val) and val > 0
        assert val > 1e9  # +inf compares correctly against finite bounds


class TestPinnedScalarApi:
    # Recorded from the former scalar math implementation of the MU bound at
    # 200 seeded feasible points (gains 1e-3..0.99, powers e^-3..e^8, weights
    # below, at and above 1) plus one degenerate +inf point each; pytest's
    # approx of +inf matches only +inf.  The user1_genie_bound +inf point, a
    # one-sided channel at rho1 = 1, was recorded with the vectorized
    # objective once rho1 > 1 became an error.
    pinned = pins.load("mu_scalar.json")

    def test_effective_powers_and_bound(self):
        pins.check_file("mu_scalar.json")  # effective_powers, the p1_star and p2_star columns
        for i, (a, b, p1, p2, mu, r1, r2, s1, s2, value, _, _) in enumerate(self.pinned["mu"]):
            got = eval_constraint1(TwoUserChannel(a, b, p1, p2), mu, GenieParams(r1, r2, s1, s2))
            assert got == pytest.approx(value, rel=1e-12, abs=0), f"mu/{i}"

    def test_user1_genie_bound(self):
        for i, (a, b, p1, p2, rho1, sigma1, value) in enumerate(self.pinned["user1"]):
            got = user1_genie_bound(TwoUserChannel(a, b, p1, p2), rho1, sigma1)
            assert got == pytest.approx(value, rel=1e-12, abs=0), f"user1/{i}"


class TestEvalConstraint2:
    def test_lower_endpoint_p_tilde_is_p1(self):
        lo, _ = eta1_range(FIG1)
        line = eval_constraint2(FIG1, lo)
        assert line.p_tilde == pytest.approx(FIG1.p1, abs=1e-12)
        assert line.kind is WeightKind.ETA1

    def test_derived_value(self):
        ch = TwoUserChannel(a=0.3, b=0.5, p1=10, p2=20)
        eta1 = 6 / 5.5  # the lower endpoint (1 + b p1)/(b + b p1)
        line = eval_constraint2(ch, eta1)
        expected = (
            0.5 * math.log2(11)
            - eta1 / 2 * math.log2(6)
            + eta1 / 2 * math.log2(26)
        )
        assert line.value == pytest.approx(expected, abs=1e-12)
        assert line.value == pytest.approx(2.8836, abs=5e-5)

    def test_upper_endpoint(self):
        _, hi = eta1_range(FIG1)
        line = eval_constraint2(FIG1, hi)
        assert line.p_tilde == pytest.approx(0.0, abs=1e-12)
        expected = (1 / (2 * FIG1.b)) * math.log2(1 + FIG1.b * FIG1.p1 + FIG1.p2)
        assert line.value == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("eta1", [0.5, 1.0, 100.0])
    def test_out_of_range(self, eta1):
        with pytest.raises(ValueError):
            eval_constraint2(FIG1, eta1)


class TestEvalConstraint3:
    def test_lower_endpoint_all_corrections_vanish(self):
        line = eval_constraint3(FIG1, FIG1.a)
        assert line.p_tilde == pytest.approx(0.0, abs=1e-12)
        assert line.value == pytest.approx(
            0.5 * math.log2(1 + FIG1.p1 + FIG1.a * FIG1.p2), abs=1e-12
        )

    def test_upper_endpoint_p_tilde_is_p2(self):
        _, hi = eta2_range(FIG1)
        line = eval_constraint3(FIG1, hi)
        assert line.p_tilde == pytest.approx(FIG1.p2, abs=1e-12 * FIG1.p2)

    def test_monotone_between_endpoints(self):
        ch = TwoUserChannel(a=0.5, b=0.3, p1=3, p2=4)
        lo, hi = eta2_range(ch)
        vals = [eval_constraint3(ch, w).value for w in np.linspace(lo, hi, 7)]
        diffs = np.diff(vals)
        assert np.all(diffs > 0) or np.all(diffs < 0)
        mid = eval_constraint3(ch, 0.5 * (lo + hi)).value
        assert min(vals[0], vals[-1]) < mid < max(vals[0], vals[-1])

    @pytest.mark.parametrize("eta2", [0.0, 0.03, 0.99])
    def test_out_of_range(self, eta2):
        with pytest.raises(ValueError):
            eval_constraint3(FIG1, eta2)


class TestOptimizeConstraint1:
    def test_tight_at_weight_one_for_noisy_channel(self):
        line = optimize_constraint1(FIG1, 1.0)
        assert line.value == pytest.approx(tin_rates(FIG1).sum, abs=1e-9)
        assert line.genie is not None and line.effective is not None

    def test_strictly_above_tin_when_condition_fails(self):
        ch = TwoUserChannel(0.3, 0.3, 7, 7)
        line = optimize_constraint1(ch, 1.0)
        assert line.value > tin_rates(ch).sum + 1e-6

    def test_tight_for_weak_symmetric_channel(self):
        ch = TwoUserChannel(0.04, 0.04, 1, 1)
        assert math.sqrt(0.04) * (0.04 * 1 + 1) * 2 <= 1
        line = optimize_constraint1(ch, 1.0)
        assert line.value == pytest.approx(tin_rates(ch).sum, abs=1e-9)

    def test_dominates_random_probes(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            ch = sample_regime_channel(rng)
            mu = float(np.exp2(rng.uniform(-6, 6)))
            line = optimize_constraint1(ch, mu)
            for _ in range(25):
                gp = random_feasible_params(ch, mu, rng)
                assert line.value <= eval_constraint1(ch, mu, gp) + 1e-9

    def test_upper_bounds_weighted_tin(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            ch = sample_regime_channel(rng)
            mu = float(np.exp2(rng.uniform(-6, 6)))
            line = optimize_constraint1(ch, mu)
            tin = tin_rates(ch)
            assert line.value >= tin.r1 + mu * tin.r2 - 1e-9

    def test_deterministic(self):
        l1 = optimize_constraint1(FIG1, 2.5)
        l2 = optimize_constraint1(FIG1, 2.5)
        assert l1.value == l2.value and l1.genie == l2.genie

    def test_rejects_out_of_regime_gains(self):
        with pytest.raises(ValueError):
            optimize_constraint1(TwoUserChannel(1.2, 0.5, 1, 1), 1.0)
        with pytest.raises(ValueError):
            optimize_constraint1(TwoUserChannel(0.0, 0.5, 1, 1), 1.0)


class TestOptimizeConstraint1Many:
    def test_matches_one_weight_calls(self):
        rng = np.random.default_rng(21)
        mus = (1 / 64, 0.3, 1.0, 2.5, 64.0)
        for ch in (FIG1, sample_regime_channel(rng), sample_regime_channel(rng)):
            lines = optimize_constraint1_many(ch, mus)
            assert lines == tuple(optimize_constraint1(ch, mu) for mu in mus)
            if ch is FIG1:
                # Noisy interference: the closed-form certificate is the
                # weight-1 line, tight.
                assert lines[2].value == pytest.approx(tin_rates(ch).sum, abs=1e-9)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            optimize_constraint1_many(FIG1, (1.0, 0.0))

    def test_pinned_region_lines(self):
        # MU lines of the default-grid outer region, pinned to the last bit:
        # a change to the genie search that moves any line fails here.
        pins.check_file("mu_lines.json")

    def test_pinned_points_lie_in_the_exact_box(self):
        # Every variance cap is rounded down into the exact box.
        for entry in PINNED_LINES["channels"].values():
            ch = TwoUserChannel(*entry["channel"])
            for mu, _, *point in entry["lines"]:
                assert in_exact_box(ch, mu, GenieParams(*point)), (entry["channel"], mu)

    def test_default_region_call_budget(self, monkeypatch):
        # The certificate, two probe calls of 32 weights and 36
        # search calls for the longest lane's 38 polls.
        calls = count_objective_calls(monkeypatch)
        build_outer_region(FIG1)
        assert calls[0] == 39

    @given(GAINS, GAINS, POWERS, POWERS, st.lists(WEIGHTS, min_size=1, max_size=3))
    def test_lines_are_feasible_bounds_above_weighted_tin(self, a, b, p1, p2, mus):
        ch = TwoUserChannel(a, b, p1, p2)
        mus = [*mus, 1.0]
        tin = tin_rates(ch)
        for mu, line in zip(mus, optimize_constraint1_many(ch, mus)):
            assert sigma_feasible(ch, mu, line.genie) and in_exact_box(ch, mu, line.genie)
            assert eval_constraint1(ch, mu, line.genie) == line.value
            assert line.value >= tin.r1 + mu * tin.r2 - 1e-9


def scaled_value(ch, mu, y):
    """The MU bound at cap-scaled coordinates y = (rho1, rho2,
    log(sigma1_sq*b/(1 - rho2^2)), log(sigma2_sq*a/(1 - rho1^2))), with the
    correlations clipped to [0, RHO_MAX], the capped variance's log to at
    most 0, and the variances into the box."""
    r1, r2 = (min(max(v, 0.0), RHO_MAX) for v in y[:2])
    log1, log2 = (min(y[2], 0.0), y[3]) if mu < 1.0 else (y[2], min(y[3], 0.0))
    s1_max, s2_max = sigma_limits(ch, mu, r1, r2)
    s1 = min(max(math.exp(log1) * (1.0 - r2 * r2) / ch.b, 1e-6), s1_max)
    s2 = min(max(math.exp(log2) * (1.0 - r1 * r1) / ch.a, 1e-6), s2_max)
    return eval_constraint1(ch, mu, GenieParams(r1, r2, s1, s2))


@pytest.mark.slow
def test_nelder_mead_polish_gains_at_most_a_micro_bit():
    # A local Nelder-Mead search in cap-scaled coordinates, over all four
    # genie parameters, from each MU line of the three pinned default
    # regions, finds at most 1e-6 bits more.
    worst = 0.0
    for entry in PINNED_LINES["channels"].values():
        ch = TwoUserChannel(*entry["channel"])
        for line in optimize_constraint1_many(ch, [row[0] for row in entry["lines"]]):
            g = line.genie
            start = [
                g.rho1, g.rho2,
                math.log(g.sigma1_sq * ch.b / (1.0 - g.rho2 * g.rho2)),
                math.log(g.sigma2_sq * ch.a / (1.0 - g.rho1 * g.rho1)),
            ]
            res = minimize(
                lambda y: scaled_value(ch, line.weight, y), start, method="Nelder-Mead",
                options={"xatol": 1e-10, "fatol": 1e-13, "maxfev": 2000},
            )
            worst = max(worst, line.value - res.fun)
    assert worst <= 1e-6


@pytest.mark.slow
def test_lines_no_looser_than_the_four_coordinate_search():
    # Pinned lines of the four-coordinate search this one replaced, on 100
    # north-star requests (gains 1e-9 to 1 - 1e-6, powers 1e-8 to 1e12; see
    # the file's note).  No line may be looser by more than 1e-12 relative
    # plus 1e-15 bits, near 1e-6 bits the rounding of the bound's log terms
    # (about 1e-16 bits each), unless it lies within 1e-14 bits of the
    # weighted TIN rate: that rate is achievable, so no line lies below it
    # and the line is within 1e-14 bits of the least one.
    reference = pins.load("mu_reference.json")
    for request in reference["requests"]:
        ch = TwoUserChannel(*request["channel"])
        tin = tin_rates(ch)
        lines = optimize_constraint1_many(ch, request["weights"])
        for line, ref in zip(lines, request["values"]):
            near_optimum = line.value <= tin.r1 + line.weight * tin.r2 + 1e-14
            assert line.value <= ref + 1e-12 * abs(ref) + 1e-15 or near_optimum, (
                request["channel"], line.weight
            )


def reduced_values(ch, mu, y):
    """The MU bound at points y = (r_A, r_B, log of the free variance s_A),
    (3, n), in the objective's (free user A, capped user B) order: A is user
    1 for mu >= 1 and user 2 for mu < 1.  The capped variance s_B is
    min(cap, ((1 + g_B*p_A)/r_B)^2).  The correlations are clipped to [0,
    RHO_MAX] and the free variance to at least 1e-6; the cap (1 - r_A^2)/g_A,
    evaluated as (1 - r_A)*(1 + r_A)/g_A, is shrunk by 1e-15 into the exact
    box."""
    obj = genie._MuObjective(ch.a, ch.b, ch.p1, ch.p2, mu)
    r_a, r_b = np.clip(y[:2], 0.0, RHO_MAX)
    free = np.maximum(np.exp(y[2]), 1e-6)
    cap = (1.0 - r_a) * (1.0 + r_a) / obj.g_a * (1.0 - 1e-15)
    with np.errstate(all="ignore"):
        capped = np.minimum(((1.0 + obj.g_b * obj.p_a) / r_b) ** 2, cap)
        return obj(genie._with_gaps(np.array([r_a, r_b, free, capped])))


def judge_value(ch, mu):
    """The least MU bound a second search finds: a 25 x 25 grid of
    correlations with 48 log-spaced free variances, then Nelder-Mead on
    ``reduced_values`` from the best grid point."""
    axis = np.linspace(0.0, RHO_MAX, 25)
    logs = np.linspace(math.log(1e-6), math.log(10 * max(ch.p1, ch.p2, 1 / ch.a, 1 / ch.b)), 48)
    grid = np.array(np.meshgrid(axis, axis, logs, indexing="ij")).reshape(3, -1)
    values = reduced_values(ch, mu, grid)
    start = grid[:, int(np.argmin(values))]
    res = minimize(
        lambda y: float(reduced_values(ch, mu, np.asarray(y)[:, None])[0]), start,
        method="Nelder-Mead", options={"xatol": 1e-12, "fatol": 1e-15, "maxfev": 4000},
    )
    return min(res.fun, float(values.min()))


@pytest.mark.slow
def test_judge_search_finds_at_most_a_micro_bit_below_any_line():
    # A second, independent search at every weight of the three pinned
    # default regions and of the tail channel's default region.
    tail = pins.load("mu_tail.json")
    cases = [(entry["channel"], [row[0] for row in entry["lines"]])
             for entry in PINNED_LINES["channels"].values()]
    cases.append((tail["channel"], [row[0] for row in PINNED_LINES["channels"]["fig1"]["lines"]]))
    worst = 0.0
    for params, mus in cases:
        ch = TwoUserChannel(*params)
        for line in optimize_constraint1_many(ch, mus):
            worst = max(worst, line.value - judge_value(ch, line.weight))
    assert worst <= 1e-6


def survey_requests():
    """The 1,195 (channel, weight) requests of the one-log survey: the MU
    weights of the three pinned regions, two weights 2^U(-6, 6) on each of
    ``north_star_channels(5, 300)`` and weight 1 on each of
    ``north_star_channels(7, 400)``."""
    requests = [(TwoUserChannel(*entry["channel"]), row[0])
                for entry in PINNED_LINES["channels"].values() for row in entry["lines"]]
    rng = random.Random(5)
    requests += [(ch, 2.0 ** rng.uniform(-6.0, 6.0))
                 for ch in north_star_channels(5, 300) for _ in range(2)]
    return requests + [(ch, 1.0) for ch in north_star_channels(7, 400)]


def extreme_requests():
    """400 requests from ``random.Random(3)`` at powers past the north
    star's: gains 10^U(-12, 0), one power 10^U(100, 200) and the other
    10^U(-8, 200), on either user, at a weight 1/4, 1 or 4."""
    rng = random.Random(3)
    requests = []
    for _ in range(400):
        a, b = 10.0 ** rng.uniform(-12.0, 0.0), 10.0 ** rng.uniform(-12.0, 0.0)
        big, other = 10.0 ** rng.uniform(100.0, 200.0), 10.0 ** rng.uniform(-8.0, 200.0)
        p1, p2 = (big, other) if rng.random() < 0.5 else (other, big)
        requests.append((TwoUserChannel(a, b, p1, p2), rng.choice((0.25, 1.0, 4.0))))
    return requests


def overflowing(requests) -> tuple[list, list]:
    """The line of each request that has one, and the indices of those
    whose search raises the overflow ValueError."""
    lines, raised = [], []
    for i, (ch, mu) in enumerate(requests):
        try:
            lines.append(optimize_constraint1(ch, mu))
        except ValueError as err:
            assert "overflows at every genie probe" in str(err)
            raised.append(i)
    return lines, raised


@pytest.mark.slow
def test_one_log_share_is_no_looser_than_three_logs(monkeypatch):
    # The MU share takes one log of its three terms' product; the former
    # share took a log of each.  No line of the survey may be looser than
    # the three-log line by more than 2e-14 relative to max(1, value), and
    # past the north star's powers the same requests must raise the
    # overflow error.  A log rounds to about 1e-16 bits whatever its value,
    # so lines below 1 bit are held in bits: on lines of 1e-6 bits both
    # forms lie about 1e-9 relative below the exact bound at the same point.
    requests, extreme = survey_requests(), extreme_requests()
    one = [line.value for line in genie._mu_lines(requests)]
    one_extreme, one_raised = overflowing(extreme)
    monkeypatch.setattr(genie, "_user_share", helpers.three_log_share)
    three = [line.value for line in genie._mu_lines(requests)]
    three_extreme, three_raised = overflowing(extreme)
    change = np.array([(x - y) / max(1.0, abs(y)) for x, y in zip(one, three)])
    print(f"\n{len(requests)} lines: {np.count_nonzero(change)} moved, {np.sum(change > 1e-15)} looser "
          f"by more than 1e-15 (worst {change.max():.2e}), {np.sum(change < -1e-15)} tighter "
          f"(best {change.min():.2e}); {len(extreme)} extreme requests: {len(one_raised)} raise "
          f"under one log, {len(three_raised)} under three")
    assert len(one) == len(three) == 1195
    assert change.max() <= 2e-14
    assert one_raised == three_raised
    for x, y in zip(one_extreme, three_extreme):
        assert x.value - y.value <= 2e-14 * max(1.0, abs(y.value))


class TestPatternSearch:
    @given(GAINS, GAINS, POWERS, POWERS, st.one_of(WEIGHTS, st.just(1.0)),
           st.floats(0.0, RHO_MAX), st.floats(0.0, RHO_MAX))
    @example(0.04, 0.09, 10.0, 20.0, 1.1, 0.99, 0.05)  # the left branch
    @example(0.04, 0.09, 10.0, 20.0, 2.0, 0.9, 0.1)  # the middle branch, L > 0
    @example(0.04, 0.09, 10.0, 20.0, 2.0, 0.5, 0.5)  # the middle branch, L = 0
    @example(0.04, 0.09, 100.0, 20.0, 64.0, 0.5, 0.5)  # the right branch, L = 0
    @example(0.3, 0.3, 7.0, 7.0, 1.0, 0.9, 0.3)  # weight 1, the lower form
    @example(0.3, 0.9, 7.0, 7.0, 1.0, 0.95, 0.3)  # weight 1, r_A^2 > R
    def test_closed_form_capped_variance_beats_a_scan(self, a, b, p1, p2, mu, r, w):
        # At the correlations of any search point, each variance that
        # ``place`` solves, the capped one in closed form and the free one by
        # its branch forms, is no worse than any of 2,001 log-spaced values
        # from the variance floor to the cap, or to 10*max(p1, p2, 1/a, 1/b)
        # for the free one, up to 1e-12 relative plus 1e-15 bits: near 1e-6
        # bits the float bound's own rounding, about 1e-16 bits a log term,
        # exceeds 1e-12 relative.  The free variance's middle branch takes
        # 64 Newton steps from 1.
        # Points are in the objective's (A, B) order: the free variance s_A
        # is row 2 and the capped one s_B row 3 on both sides of weight 1.
        obj = genie._MuObjective(a, b, p1, p2, mu)
        with np.errstate(all="ignore"):
            point, value = obj.solve(np.array([[r], [w]]), 1.0, steps=64)
            cap = clamp(obj, np.array([point[0], point[1], [np.inf], [np.inf]]))[3, 0]
            tops = {2: 10.0 * max(p1, p2, 1.0 / a, 1.0 / b), 3: cap}
            for row, top in tops.items():
                scan = np.repeat(point, 2001, axis=1)
                scan[row] = np.geomspace(1e-6, top, 2001)
                best = obj(clamp(obj, scan)).min()
                assert value[0] <= best + 1e-12 * abs(best) + 1e-15, row

    def test_ends_are_clamped_values_no_worse_than_starts(self):
        # Lanes of two channels at weights below, at and above 1, from
        # starts inside the box and from the projections into it of points
        # past its correlation bounds and past both variance bounds, every
        # other lane in the swapped coordinates.
        lanes, starts = [], []
        for ch in (FIG1, sample_regime_channel(np.random.default_rng(1))):
            for mu in (0.4, 1.0, 2.5):
                for start in ((0.0, 1.0, 1.0, 1.0), (1.5, -0.5, 1e3, 1e-9), (0.5, 0.5, 1e9, 1e9)):
                    lanes.append((ch, mu))
                    starts.append(start)
        # The starts are (rho1, rho2, sigma1_sq, sigma2_sq); the search
        # takes them in the objective's (A, B) order.
        obj = genie._MuObjective.of(lanes)
        starts = obj.order(np.array(starts).T)
        with np.errstate(all="ignore"):
            x = clamp(obj, starts)
            start_values = obj(x)
            swapped = np.arange(len(lanes)) % 2 == 1
            values, points = genie._pattern_search(obj, x, start_values, swapped)
            assert np.array_equal(clamp(obj, points), points)
            assert np.array_equal(obj(points), values)
            assert np.all(values < start_values)

    @given(GAINS, GAINS, POWERS, POWERS, st.lists(WEIGHTS, min_size=1, max_size=3))
    # Requests whose lanes reach _POLL_CAP: 4 lanes on the first, 1 on the second.
    @example(0.0030909157287267426, 0.00031762332503010337, 17414.711274801863,
             0.00026941761798849175, [1.1706254384374963])
    @example(1.0994647998595344e-08, 6.38936586554299e-07, 5.65839773588287e-07,
             28060749.38427141, [0.17890147534448422])
    # 16 weights on one channel: the search's calls start too wide to speculate
    # and narrow below _SPECULATE_POINTS as lanes stop.
    @example(0.04, 0.09, 10.0, 20.0, [2.0**(k / 2) for k in range(-8, 9) if k])
    def test_lines_equal_one_poll_per_call(self, a, b, p1, p2, mus):
        # The search that evaluates a lane's next poll in the same call ends
        # every lane where the one-poll-per-call search does, at weights
        # below, at and above 1, so with swapped lanes too.
        requests = [(TwoUserChannel(a, b, p1, p2), mu) for mu in (*mus, 1.0)]
        lines = genie._mu_lines(requests)
        with mock.patch.object(genie, "_pattern_search", helpers.reference_pattern_search):
            assert repr(genie._mu_lines(requests)) == repr(lines)

    @pytest.mark.parametrize("cap", [1, 2, 3, 8])
    def test_poll_cap_is_exact(self, monkeypatch, cap):
        # Every lane stops at the cap under both searches, also where it
        # would take a speculative poll past it.
        requests = [(TwoUserChannel(0.3, 0.3, 7, 7), mu) for mu in (0.5, 1.0, 2.5)]
        monkeypatch.setattr(genie, "_POLL_CAP", cap)
        monkeypatch.setattr(helpers, "_POLL_CAP", cap)
        lines = genie._mu_lines(requests)
        monkeypatch.setattr(genie, "_pattern_search", helpers.reference_pattern_search)
        assert repr(genie._mu_lines(requests)) == repr(lines)


# A correlation of the box, often at either end, and a weight below, at or
# above 1.
CORRELATIONS = st.one_of(st.just(0.0), st.just(RHO_MAX), st.floats(0.0, RHO_MAX))
SIDES = st.one_of(WEIGHTS, st.just(1.0))


class TestReferenceObjective:
    @given(GAINS, GAINS, POWERS, POWERS, st.lists(st.tuples(
        SIDES, CORRELATIONS, CORRELATIONS, st.sampled_from(["L", "R", "between", "log"]),
        st.sampled_from([-1, 0, 1]), st.floats(-20.0, 20.0),
        st.one_of(st.just(1.0), st.floats(1e-3, 1.0)),
    ), min_size=1, max_size=8))
    def test_values_and_effective_powers_equal_the_two_branch_form(self, a, b, p1, p2, points):
        # The free variance (sigma1_sq for mu >= 1) lies on a kink L or R of
        # its effective power, or one float off it, or between them, or is
        # log-uniform; the capped one lies at its cap or below.  One
        # objective holds the points of all weights, in its (A, B) order;
        # the one-point API converts each point itself.
        ch = TwoUserChannel(a, b, p1, p2)
        requests, columns = [], []
        for mu, r1, r2, kind, toward, log_free, frac in points:
            gap1, gap2 = (1.0 - r1) * (1.0 + r1), (1.0 - r2) * (1.0 + r2)
            if mu >= 1.0:
                right = gap2 / (b * mu)
                left = max((1.0 - mu) * p1 / mu + right, 0.0)
            else:
                right = mu * gap1 / a
                left = max((mu - 1.0) * p2 + right, 0.0)
            left = left or right  # L = 0 is no variance
            between = math.exp(math.log(left) * frac + math.log(right) * (1.0 - frac))
            free = {"L": left, "R": right, "between": between, "log": math.exp(log_free)}[kind]
            if toward and kind in ("L", "R"):
                free = math.nextafter(free, toward * math.inf)
            cap = min(sigma_limits(ch, mu, r1, r2))
            capped = cap if frac == 1.0 else cap * frac
            requests.append((ch, mu))
            columns.append((r1, r2, free, capped) if mu >= 1.0 else (r1, r2, capped, free))
        obj = genie._MuObjective.of(requests)
        with np.errstate(all="ignore"):
            x = genie._with_gaps(obj.order(np.array(columns).T))
            values, (p1_star, p2_star) = obj(x), obj.order(obj.effective(x))
        for i, ((_, mu), column) in enumerate(zip(requests, columns)):
            ref, ref_p1, ref_p2 = reference_mu_bound(ch, mu, np.array(column))
            assert (values[i], p1_star[i], p2_star[i]) == (ref, ref_p1, ref_p2)
            gp = GenieParams(*column)
            assert eval_constraint1(ch, mu, gp) == ref
            assert effective_powers(ch, mu, gp) == (ref_p1, ref_p2)


def same_bits(x, y) -> bool:
    """Whether two arrays hold the same floats (or flags), bit for bit: -0.0
    is not 0.0, and inf and nan must match."""
    x, y = np.asarray(x), np.asarray(y)
    return (x.shape, x.dtype) == (y.shape, y.dtype) and (
        np.ascontiguousarray(x).tobytes() == np.ascontiguousarray(y).tobytes()
    )


class TestWeightOneBranch:
    """An objective whose entries all have weight 1 takes the branch of
    weight 1 alone; one of mixed weights takes the general branch, with
    weight 1 as a special case.  Both give the same bits."""

    MIXED = (0.5, 1.0, 2.0)

    @given(GAINS, GAINS, POWERS, POWERS, st.lists(st.tuples(
        CORRELATIONS, CORRELATIONS, st.sampled_from(["R", "log"]), st.sampled_from([-1, 0, 1]),
        st.floats(-30.0, 30.0), st.floats(-30.0, 30.0),
    ), min_size=1, max_size=8))
    def test_one_weight_objectives_equal_the_mixed_entries(self, a, b, p1, p2, points):
        # Box points from ``clamp``, their free variance at weight 1's kink
        # R = (1 - r_B^2)/b, or one float off it, or log-uniform.  Each
        # weight's own objective gives the values, effective powers and
        # ``place``d points, from the box points' coordinates and free
        # variances, of that weight's entries of one mixed objective.
        columns = []
        for r_a, r_b, kind, toward, log_free, log_capped in points:
            free = (1.0 - r_b) * (1.0 + r_b) / b if kind == "R" else math.exp(log_free)
            if toward:
                free = math.nextafter(free, toward * math.inf)
            columns.append((r_a, r_b, free, math.exp(log_capped)))
        raw, n = np.array(columns).T, len(columns)
        mixed = genie._MuObjective(a, b, p1, p2, np.repeat(self.MIXED, n))
        with np.errstate(all="ignore"):
            x = clamp(mixed, np.tile(raw, len(self.MIXED)))
            values, (p_a, p_b) = mixed(x), mixed.effective(x)
            p_b = np.broadcast_to(p_b, values.shape)
            y = np.array([x[0], x[1] * np.sqrt(x[4])])
            placed = mixed.place(y.copy(), x[2], np.False_, 1)
            for k, mu in enumerate(self.MIXED):
                part = slice(k * n, (k + 1) * n)
                single = genie._MuObjective(a, b, p1, p2, np.full(n, mu))
                xs = clamp(single, raw)
                single_p_a, single_p_b = single.effective(xs)
                assert same_bits(xs, x[:, part])
                assert same_bits(single(xs), values[part])
                assert same_bits(single_p_a, p_a[part])
                assert same_bits(np.broadcast_to(single_p_b, (n,)), p_b[part])
                single_placed = single.place(y[:, part].copy(), xs[2], np.False_, 1)
                for row, single_row in zip(placed, single_placed):
                    assert same_bits(single_row, row[..., part])


class TestWeightOneStarts:
    def test_swapped_lane_closes_the_valley(self):
        # At weight 1 the least bound of this channel lies in a curved valley
        # of (r_A, r_B*sqrt(1 - r_A^2)), where the lower form of s_A leaves
        # L: a lane in those coordinates stalls 5.35e-9 relative above the
        # former three-coordinate search's 17.413903135567743 bits, and the
        # lane in the swapped coordinates, where the valley is a line, ends
        # below it.
        ch = TwoUserChannel(
            1.1787339305191517e-05, 0.000109131778183958, 30493809332.55266, 20.55897232849371
        )
        line = optimize_constraint1(ch, 1.0)
        assert line.value <= 17.413903135567743
        assert in_exact_box(ch, 1.0, line.genie)

    @pytest.mark.parametrize("mu", [1.0, 2.0])
    def test_weight_one_swaps_the_fourth_lane(self, monkeypatch, mu):
        # A searched request runs one lane from each of its 4 best probes.
        # At weight 1 the fourth runs in the swapped coordinates, from the
        # best probe's point and value; at other weights no lane is swapped.
        probed, searched = [], []
        probe_starts, pattern_search = genie._probe_starts, genie._pattern_search

        def record_probes(obj):
            probed.append(probe_starts(obj))
            return probed[-1]

        def record_lanes(obj, x, val, swapped):
            searched.append((x.copy(), val.copy(), swapped.copy()))
            return pattern_search(obj, x, val, swapped)

        monkeypatch.setattr(genie, "_probe_starts", record_probes)
        monkeypatch.setattr(genie, "_pattern_search", record_lanes)
        genie._mu_lines([(TwoUserChannel(0.3, 0.2, 50, 20), mu)])
        ((entry, rank, probe_val, probe_x),), ((x, val, swapped),) = probed, searched
        assert entry.tolist() == [0] * 4 and rank.tolist() == [0, 1, 2, 3]
        assert swapped.tolist() == [False, False, False, mu == 1.0]
        starts = [0, 1, 2, 0] if mu == 1.0 else [0, 1, 2, 3]
        assert same_bits(x, probe_x[:, starts]) and same_bits(val, probe_val[starts])

    @given(GAINS, GAINS, POWERS, POWERS)
    # ROADMAP item 20's worst channel of north_star_channels(7, 400), whose
    # two labelings' lines were 1.2e-9 relative apart.
    @example(4.9333018446632295e-06, 0.3402147835447529, 0.0001591432800019957, 486637.4088728006)
    def test_weight_one_line_does_not_depend_on_the_user_labels(self, a, b, p1, p2):
        # The bound at weight 1 is symmetric in the two users.
        v, w = (line.value for line in genie._mu_lines(
            [(TwoUserChannel(a, b, p1, p2), 1.0), (TwoUserChannel(b, a, p2, p1), 1.0)]
        ))
        assert abs(v - w) <= 1e-12 * max(1.0, abs(v))

    @pytest.mark.slow
    def test_weight_one_lines_survey_does_not_depend_on_the_user_labels(self):
        # The 2,000 weight-1 channels of ROADMAP item 20's survey, under both
        # labelings, searched in one batch.
        channels = list(north_star_channels(11, 2000))
        lines = genie._mu_lines([(ch, 1.0) for ch in channels] + [
            (TwoUserChannel(ch.b, ch.a, ch.p2, ch.p1), 1.0) for ch in channels
        ])
        v = np.array([line.value for line in lines]).reshape(2, -1)
        diff = np.abs(v[0] - v[1]) / np.maximum(1.0, np.abs(v[0]))
        print(f"\n{np.sum(diff > 1e-12)} of {len(channels)} channels over 1e-12; worst {diff.max():.2e}")
        assert np.sum(diff > 1e-12) == 0


class TestTailChannel:
    """A channel on which the former coordinate walk accepted tiny moves
    about 600,000 times; its line at one default weight is pinned."""

    def test_pinned_line_within_call_budget(self, monkeypatch):
        # The certificate, two probe calls of 32 weights and 44
        # search calls for the longest lane's 50 polls.
        calls = count_objective_calls(monkeypatch)
        pins.check_file("mu_tail.json")
        assert calls[0] == 47


class TestSumUpperBounds:
    CHANNELS = (
        TwoUserChannel(0.04, 0.04, 1, 1),  # noisy: the certificate is the line
        FIG1,
        TwoUserChannel(0.3, 0.3, 7, 7),  # no noisy interference
        TwoUserChannel(0.0, 0.3, 2, 3),  # one-sided: ETA1 only
        TwoUserChannel(1.5, 0.3, 2, 3),  # a > 1: ETA1 only
        TwoUserChannel(1.0, 1.0, 2, 3),  # no family applies
    )

    def test_matches_one_channel_calls(self):
        channels = self.CHANNELS
        bounds = sum_upper_bounds(channels)
        assert bounds == tuple(sum_upper_bound(ch) for ch in channels)
        for ch, bound in zip(channels[:2], bounds):
            assert bound == pytest.approx(tin_rates(ch).sum, abs=1e-9)
        assert bounds[-1] is None and None not in bounds[:-1]

    def test_objective_call_count(self, monkeypatch):
        # The 2 certificate points in one call, then 1 probe grid and 19
        # search calls for the longest lane's 32 polls; one search per
        # channel pays its own probe grid and polls each time.
        calls = count_objective_calls(monkeypatch)
        sum_upper_bounds(self.CHANNELS)
        assert calls[0] == 21
        batched = calls[0]
        for ch in self.CHANNELS:
            sum_upper_bound(ch)
        assert batched < calls[0] - batched

    def test_long_sweep_peak_memory(self, monkeypatch):
        # A 200-channel sweep holds at most _PROBE_REQUESTS channels' probes
        # in a call, and speculates only in small calls, so it peaks within
        # 10% of one probe call per channel and one poll per call.
        channels = [TwoUserChannel(0.3, 0.3, p1, 7.0) for p1 in np.linspace(1.0, 100.0, 200)]

        def peak():
            sum_upper_bounds(channels[:3])
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                sum_upper_bounds(channels)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        merged = peak()
        monkeypatch.setattr(genie, "_PROBE_REQUESTS", 1)
        monkeypatch.setattr(genie, "_SPECULATE_POINTS", 0)
        assert merged <= 1.1 * peak()

    def test_search_starts_hold_no_probe_grid(self, monkeypatch):
        # Each probe call keeps only copies of its starts, so at the search's
        # entry less is live than one call's grid (_PROBE_REQUESTS requests
        # of 256 points of 6 floats) plus 1 KB a lane.
        channels = [TwoUserChannel(0.3, 0.3, p1, 7.0) for p1 in np.linspace(1.0, 100.0, 200)]
        sum_upper_bounds(channels[:3])
        search, live = genie._pattern_search, []

        def entry(obj, x, val, swapped):
            live.append((tracemalloc.get_traced_memory()[0] - base, x.shape[1]))
            return search(obj, x, val, swapped)

        monkeypatch.setattr(genie, "_pattern_search", entry)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sum_upper_bounds(channels)
        finally:
            tracemalloc.stop()
        ((held, lanes),) = live
        assert held < genie._PROBE_REQUESTS * genie._PROBES.shape[1] * 6 * 8 + 1024 * lanes

    def test_probes_are_one_grid_in_probe_order(self):
        # One 16 x 16 grid of correlation pairs (r_A, r_B), r_A the outer
        # loop, in ``place``'s coordinates (r_A, r_B*sqrt(1 - r_A^2)), bit for
        # bit.  The order is behaviour: ties between probes go to the first.
        v = np.linspace(0.0, genie._RHO_MAX, 16)
        probes = genie._PROBES
        assert probes.shape == (2, 256) and not probes.flags.writeable
        assert probes[0].tobytes() == np.repeat(v, 16).tobytes()
        assert probes[1].tobytes() == (np.tile(v, 16) * np.sqrt(_gap(probes[0]))).tobytes()

    def test_probe_starts_are_copies_of_the_best_finite_probes(self):
        # The powers-1e200 channel overflows at every probe, so has no start.
        requests = [(FIG1, 0.5), (FIG1, 2.0), (TwoUserChannel(0.3, 0.3, 7, 7), 1.0),
                    (TwoUserChannel(0.01, 0.01, 1e200, 1e200), 1.0)]
        obj = genie._MuObjective.of(requests).take(np.arange(len(requests))[:, None])
        y = np.broadcast_to(genie._PROBES[:, None], (2, len(requests), genie._PROBES.shape[1]))
        with np.errstate(all="ignore"):
            entry, rank, values, points = genie._probe_starts(obj)
            grid, vals = obj.solve(y.copy(), 1.0, steps=genie._PROBE_STEPS)
        assert entry.tolist() == [0] * 4 + [1] * 4 + [2] * 4 and rank.tolist() == [0, 1, 2, 3] * 3
        assert not np.shares_memory(points, grid)
        for k, row in enumerate(vals):
            head = [j for j in np.argsort(row, kind="stable")[:4] if math.isfinite(row[j])]
            assert values[entry == k].tolist() == row[head].tolist()
            assert points[:, entry == k].tolist() == grid[:, k, head].tolist()

    def test_probe_calls_hold_at_most_probe_requests(self, monkeypatch):
        # Searched requests are split in order into the fewest calls of at
        # most _PROBE_REQUESTS, so no call grows with the weight grid.
        probe, sizes = genie._probe_starts, []

        def counted(obj):
            sizes.append(len(obj.one))
            return probe(obj)

        monkeypatch.setattr(genie, "_probe_starts", counted)
        build_outer_region(FIG1, 129)
        assert len(sizes) == 4 and max(sizes) <= genie._PROBE_REQUESTS
        sizes.clear()
        build_outer_region(FIG1)
        assert sizes == [32, 32]

    def test_overflow_names_a_channel_inside_a_probe_call(self):
        good, bad = TwoUserChannel(0.3, 0.3, 7, 7), TwoUserChannel(0.01, 0.01, 1e200, 1e200)
        message = f"every genie probe on the channel a={bad.a}, b={bad.b}, p1={bad.p1}, p2={bad.p2}"
        with pytest.raises(ValueError, match=re.escape(message)):
            sum_upper_bounds([good, bad, good])

    def test_poll_candidates_are_freed_before_the_next_call(self, monkeypatch):
        # Each poll's points and values are dropped once the lanes have taken
        # theirs, so the memory live at the search's second call exceeds the
        # first call's by less than one poll's points (6 floats a candidate).
        channels = [TwoUserChannel(0.3, 0.3, p1, 7.0) for p1 in np.linspace(1.0, 100.0, 200)]
        sum_upper_bounds(channels[:3])
        search, solve, searching_now, live = genie._pattern_search, genie._MuObjective.solve, [], []

        def searching(*args):
            searching_now.append(True)
            try:
                return search(*args)
            finally:
                searching_now.pop()

        def solving(self, y, *args, **kwargs):
            if searching_now:
                live.append((tracemalloc.get_traced_memory()[0], y.shape[1] * y.shape[2]))
            return solve(self, y, *args, **kwargs)

        monkeypatch.setattr(genie, "_pattern_search", searching)
        monkeypatch.setattr(genie._MuObjective, "solve", solving)
        tracemalloc.start()
        try:
            sum_upper_bounds(channels)
        finally:
            tracemalloc.stop()
        (first, candidates), (second, _) = live[:2]
        assert second - first < 6 * candidates * 8

    def test_certified_channels_take_one_call(self, monkeypatch):
        # Noisy channels need no search: their certificates are the lines.
        channels = [sample_noisy_channel(np.random.default_rng(seed)) for seed in range(6)]
        calls = count_objective_calls(monkeypatch)
        bounds = sum_upper_bounds(channels)
        assert calls[0] == 1
        for ch, bound in zip(channels, bounds):
            assert bound == eval_constraint1(ch, 1.0, noisy_certificate(ch))

    def test_empty(self):
        assert sum_upper_bounds(()) == ()


class TestSingleUserGenieBound:
    def test_minimum_over_sigma_hits_tin_rate(self):
        for rho1 in (0.2, 0.55, 0.9):
            res = minimize_scalar(
                lambda s: user1_genie_bound(FIG1, rho1, s),
                bounds=(1e-6, 1e5),
                method="bounded",
                options={"xatol": 1e-9},
            )
            closed = 0.5 * math.log2(1 + FIG1.p1 / (1 + FIG1.a * FIG1.p2))
            assert res.fun == pytest.approx(closed, abs=1e-9)
            target = (1 + FIG1.a * FIG1.p2) / rho1
            assert res.x == pytest.approx(target, rel=1e-6)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            user1_genie_bound(FIG1, 0.5, 0.0)

    @pytest.mark.parametrize("rho1", [math.nan, -0.5, 2.0, math.inf])
    def test_rejects_correlation_outside_unit_interval(self, rho1):
        with pytest.raises(ValueError, match=r"rho1 must lie in \[0, 1\]"):
            user1_genie_bound(FIG1, rho1, 1.0)

    @pytest.mark.parametrize("sigma1", [math.nan, math.inf])
    def test_rejects_non_finite_sigma(self, sigma1):
        with pytest.raises(ValueError, match="sigma1 must be finite"):
            user1_genie_bound(FIG1, 0.5, sigma1)

    def test_unit_interval_ends_are_accepted(self):
        assert math.isfinite(user1_genie_bound(FIG1, 0.0, 1.0))
        assert math.isfinite(user1_genie_bound(FIG1, 1.0, 1.0))
