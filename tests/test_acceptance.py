"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Every tolerance is pinned here; the runtime budgets are asserted too.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from gicbounds import (
    MUserChannel,
    TwoUserChannel,
    VerdictKind,
    build_inner_region,
    build_outer_region,
    check_conditions,
    classify,
    eta1_range,
    eta2_range,
    eval_constraint2,
    eval_constraint3,
    find_rho,
    noisy_condition,
    optimize_constraint1,
    oracle_grid_feasibility,
    symmetric_noisy_threshold,
    tin_rates,
    user1_genie_bound,
)

from helpers import sample_noisy_channel, vertex_defining_slacks

FIG1 = TwoUserChannel(a=0.04, b=0.09, p1=10, p2=20)


def _report(name: str, started: float, budget: float, detail: str = ""):
    elapsed = time.time() - started
    assert elapsed < budget, f"{name}: took {elapsed:.1f}s, budget {budget}s"
    print(f"[PASS] {name} ({elapsed:.2f}s{', ' + detail if detail else ''})")


def test_criterion_1_noisy_capacity_and_tight_bound():
    t0 = time.time()
    expected = 0.5 * math.log2(1 + 10 / 1.8) + 0.5 * math.log2(1 + 20 / 1.9)
    verdict = classify(FIG1)
    assert verdict.kind is VerdictKind.NOISY_INTERFERENCE
    assert verdict.sum_capacity == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(3.1198, abs=5e-5)
    line = optimize_constraint1(FIG1, 1.0)
    assert line.value == pytest.approx(expected, abs=1e-6)
    _report("1 noisy-interference capacity", t0, 1.0, f"C={expected:.6f} bits")


def test_criterion_2_symmetric_gain_threshold():
    t0 = time.time()
    a_star = symmetric_noisy_threshold(5000.0)
    a_db = 10 * math.log10(a_star)
    assert abs(a_db - (-26.99)) <= 0.15
    _report("2 symmetric threshold at P=5000", t0, 0.1, f"{a_db:.3f} dB")


def test_criterion_3_sum_bound_not_monotone():
    t0 = time.time()
    grid = np.logspace(-3, 0, 50)
    ubs = {}
    for i, a in enumerate(grid):
        if not 0 < a < 1:  # the top endpoint sits outside the bound's regime
            continue
        ubs[i] = optimize_constraint1(TwoUserChannel(a, a, 5000.0, 5000.0), 1.0).value
    idx = sorted(ubs)
    j = min(idx, key=lambda k: ubs[k])
    assert any(i < j and ubs[i] > ubs[j] for i in idx)
    assert any(k > j and ubs[k] > ubs[j] for k in idx)
    _report("3 non-monotone sum bound", t0, 60.0, f"dip at a={grid[j]:.4g}")


def test_criterion_4_two_user_reduction_grid():
    t0 = time.time()
    checked = 0
    for a in np.linspace(0.0125, 0.25, 20):
        for b in np.linspace(0.0125, 0.25, 20):
            for p in (1.0, 10.0):
                ch = TwoUserChannel(a, b, p, p)
                holds, slack = noisy_condition(ch)
                if abs(slack) <= 1e-6:
                    continue
                verdict = find_rho(MUserChannel.from_two_user(ch))
                assert verdict.feasible == holds, (a, b, p, slack)
                checked += 1
    _report("4 two-user reduction", t0, 60.0, f"{checked} grid cells")


def test_criterion_5_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    feasible_count = 0
    for _ in range(50):
        m = int(rng.integers(2, 4))
        gains = rng.uniform(0.0, 0.35, (m, m)) * rng.integers(0, 2, (m, m))
        np.fill_diagonal(gains, 1.0)
        powers = np.exp(rng.uniform(math.log(0.1), math.log(30.0), m))
        ch = MUserChannel(gains=gains, powers=powers)
        verdict = find_rho(ch)
        if verdict.feasible:
            feasible_count += 1
            assert np.all(check_conditions(ch, verdict.rho) <= 1e-12)
        elif verdict.max_slack > 0.05:
            oracle = oracle_grid_feasibility(ch, 32)
            assert not oracle.feasible, (gains, powers, verdict.max_slack)
    assert 0 < feasible_count < 50  # the sample covers both outcomes
    _report("5 oracle equivalence", t0, 300.0, f"{feasible_count}/50 feasible")


def test_criterion_6_per_user_bound_minimum():
    t0 = time.time()
    rng = np.random.default_rng(99)
    for _ in range(100):
        ch = sample_noisy_channel(rng)
        closed = 0.5 * math.log2(1 + ch.p1 / (1 + ch.a * ch.p2))
        for rho1 in rng.uniform(0.05, 0.999, 5):
            res = minimize_scalar(
                lambda s: user1_genie_bound(ch, rho1, s),
                bounds=(1e-6, 1e6),
                method="bounded",
                options={"xatol": 1e-9},
            )
            assert res.fun == pytest.approx(closed, abs=1e-9)
            target = (1 + ch.a * ch.p2) / rho1
            assert res.x == pytest.approx(target, rel=1e-6)
    _report("6 per-user bound minimum", t0, 30.0)


def test_criterion_7_endpoint_identities():
    t0 = time.time()
    rng = np.random.default_rng(41)
    for _ in range(100):
        a, b = rng.uniform(0.01, 0.99, 2)
        p1, p2 = np.exp(rng.uniform(math.log(0.1), math.log(1000.0), 2))
        ch = TwoUserChannel(a, b, p1, p2)
        lo1, hi1 = eta1_range(ch)
        assert eval_constraint2(ch, lo1).p_tilde == pytest.approx(
            p1, abs=1e-12 * max(1, p1)
        )
        assert eval_constraint2(ch, hi1).p_tilde == pytest.approx(0.0, abs=1e-12)
        lo2, hi2 = eta2_range(ch)
        assert eval_constraint3(ch, hi2).p_tilde == pytest.approx(
            p2, abs=1e-12 * max(1, p2)
        )
        assert eval_constraint3(ch, lo2).p_tilde == pytest.approx(0.0, abs=1e-12)
    _report("7 endpoint identities", t0, 1.0)


def test_criterion_8_region_sanity():
    t0 = time.time()
    rng = np.random.default_rng(7)
    for _ in range(30):
        a, b = rng.uniform(0.02, 0.95, 2)
        p1, p2 = np.exp(rng.uniform(math.log(0.5), math.log(200.0), 2))
        ch = TwoUserChannel(a, b, float(p1), float(p2))
        outer = build_outer_region(ch, mu_grid=9, eta_grid=5)
        inner = build_inner_region(ch)
        for p in inner.boundary:
            assert outer.contains(p, tol=1e-9), (a, b, p1, p2)
        assert outer.contains(tin_rates(ch), tol=1e-9)
        assert vertex_defining_slacks(outer) < 1e-9
    _report("8 region sanity", t0, 300.0, "30 channels")


def test_criterion_9_mixed_corner_capacity():
    t0 = time.time()
    expected = 0.5 * math.log2(4) + 0.5 * math.log2(2.6)
    verdict = classify(TwoUserChannel(2, 0.5, 3, 4))
    assert verdict.kind is VerdictKind.MIXED_CORNER
    assert verdict.sum_capacity == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(1.6893, abs=5e-5)
    for p1 in (0.1, 10.0, 1000.0):
        v = classify(TwoUserChannel(4, 0.5, p1, 2))
        assert v.kind is VerdictKind.MIXED_CORNER
        assert v.condition_slack < 0
    _report("9 mixed corner capacity", t0, 1.0, f"C={expected:.6f} bits")
