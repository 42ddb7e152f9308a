import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
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
from gicbounds.genie import sigma_limits
from gicbounds.region import build_outer_region

from helpers import count_objective_calls, sample_regime_channel

FIG1 = TwoUserChannel(a=0.04, b=0.09, p1=10, p2=20)
PINNED_LINES = json.loads((Path(__file__).parent / "data" / "mu_lines.json").read_text())
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
    pinned = json.loads((Path(__file__).parent / "data" / "mu_scalar.json").read_text())

    def test_effective_powers_and_bound(self):
        for a, b, p1, p2, mu, r1, r2, s1, s2, value, p1s, p2s in self.pinned["mu"]:
            ch = TwoUserChannel(a, b, p1, p2)
            gp = GenieParams(r1, r2, s1, s2)
            assert effective_powers(ch, mu, gp) == (p1s, p2s)
            assert eval_constraint1(ch, mu, gp) == pytest.approx(value, rel=1e-12, abs=0)

    def test_user1_genie_bound(self):
        for a, b, p1, p2, rho1, sigma1, value in self.pinned["user1"]:
            got = user1_genie_bound(TwoUserChannel(a, b, p1, p2), rho1, sigma1)
            assert got == pytest.approx(value, rel=1e-12, abs=0)


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
                # Noisy interference: the weight-1 lane starting from the
                # closed-form certificate makes that line tight.
                assert lines[2].value == pytest.approx(tin_rates(ch).sum, abs=1e-9)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            optimize_constraint1_many(FIG1, (1.0, 0.0))

    def test_pinned_region_lines(self):
        # MU lines of the default-grid outer region, pinned to the last bit:
        # a change to the genie search that moves any line fails here.
        for name, entry in PINNED_LINES["channels"].items():
            region = build_outer_region(
                TwoUserChannel(*entry["channel"]), PINNED_LINES["mu_grid"]
            )
            got = [
                [ln.weight, ln.value, ln.genie.rho1, ln.genie.rho2,
                 ln.genie.sigma1_sq, ln.genie.sigma2_sq]
                for ln in region.lines if ln.kind is WeightKind.MU
            ]
            assert got == entry["lines"], name

    def test_default_region_call_budget(self, monkeypatch):
        calls = count_objective_calls(monkeypatch)
        build_outer_region(FIG1)
        assert calls[0] <= 210

    @given(GAINS, GAINS, POWERS, POWERS, st.lists(WEIGHTS, min_size=1, max_size=3))
    def test_lines_are_feasible_bounds_above_weighted_tin(self, a, b, p1, p2, mus):
        ch = TwoUserChannel(a, b, p1, p2)
        mus = [*mus, 1.0]
        tin = tin_rates(ch)
        for mu, line in zip(mus, optimize_constraint1_many(ch, mus)):
            assert sigma_feasible(ch, mu, line.genie)
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
    # A local Nelder-Mead search in cap-scaled coordinates, from each MU line
    # of the three pinned default regions, finds at most 1e-6 bits more.
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


class TestLockstepDescent:
    @pytest.mark.parametrize("vals", [
        np.array([3.0, 1.0, 1.0, 2.0, 1.0, 1.0, 0.5, 1.0]),
        np.array([np.inf, 2.0, np.inf, np.inf, 2.0, np.inf]),
        np.array([np.inf] * 9),
        np.array([1.0, np.inf, 1.0, np.inf]),
        np.random.default_rng(4).integers(0, 3, 4352).astype(float),
        np.where(np.random.default_rng(5).random(4352) < 0.999, np.inf, 1.0),
    ])
    def test_smallest_is_the_stable_argsort_head(self, vals):
        assert np.array_equal(genie._smallest(vals, 4), np.argsort(vals, kind="stable")[:4])

    def test_ends_are_clamped_values_no_worse_than_starts(self):
        # Lanes of two channels at weights below, at and above 1, from
        # starts inside the box, past its correlation bounds and past both
        # variance bounds.
        lanes, starts = [], []
        for ch in (FIG1, sample_regime_channel(np.random.default_rng(1))):
            for mu in (0.4, 1.0, 2.5):
                for start in ((0.0, 1.0, 1.0, 1.0), (1.5, -0.5, 1e3, 1e-9), (0.5, 0.5, 1e9, 1e9)):
                    lanes.append((ch, mu))
                    starts.append(start)
        obj = genie._MuObjective.of(lanes)
        starts = np.array(starts).T
        values, points = genie._pattern_search(obj, starts)
        assert np.array_equal(obj.clamp(points), points)
        assert np.array_equal(obj(points), values)
        assert np.all(values < obj(obj.clamp(starts)))


class TestTailChannel:
    """A channel on which the former coordinate walk accepted tiny moves
    about 600,000 times; its line at one default weight is pinned."""

    def test_pinned_line_within_call_budget(self, monkeypatch):
        pinned = json.loads((Path(__file__).parent / "data" / "mu_tail.json").read_text())
        calls = count_objective_calls(monkeypatch)
        region = build_outer_region(TwoUserChannel(*pinned["channel"]))
        assert calls[0] <= 210
        (line,) = [ln for ln in region.lines if ln.weight == pinned["weight"]]
        g = line.genie
        assert line.value == pinned["value"]
        assert [g.rho1, g.rho2, g.sigma1_sq, g.sigma2_sq] == pinned["genie"]
        assert list(line.effective) == pinned["effective"]


class TestSumUpperBounds:
    CHANNELS = (
        TwoUserChannel(0.04, 0.04, 1, 1),  # noisy: certificate lane
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
        # 3 probe grids, 2 certificate points, the search's start values
        # and its 49 polls; one search per channel pays the start values
        # and its own polls each time.
        calls = count_objective_calls(monkeypatch)
        sum_upper_bounds(self.CHANNELS)
        assert calls[0] == 55
        batched = calls[0]
        for ch in self.CHANNELS:
            sum_upper_bound(ch)
        assert batched < calls[0] - batched

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
