import math

import numpy as np
import pytest

from gicbounds import (
    MUserChannel,
    TwoUserChannel,
    check_conditions,
    find_rho,
    m_user_interference_powers,
    noisy_certificate,
    noisy_condition,
    noisy_sum_capacity,
    oracle_grid_feasibility,
    symmetric_threshold,
    tin_rates,
)

FIG1 = TwoUserChannel(a=0.04, b=0.09, p1=10, p2=20)


def naive_slacks(ch, rho):
    """Straightforward double-loop evaluation of both condition families."""
    m = ch.m
    q = m_user_interference_powers(ch)
    out = np.zeros((m, 2))
    for i in range(m):
        lhs1 = sum(
            ch.gains[j, i] * (1 + q[j]) ** 2 / rho[j] ** 2 for j in range(m) if j != i
        )
        out[i, 0] = lhs1 - (1 - rho[i] ** 2)
        lhs2 = sum(
            ch.gains[i, j] / (1 + q[j] - rho[j] ** 2) for j in range(m) if j != i
        )
        out[i, 1] = lhs2 - 1 / (ch.powers[i] + (1 + q[i]) ** 2 / rho[i] ** 2)
    return out


class TestCheckConditions:
    def test_single_user_always_feasible(self):
        ch = MUserChannel(gains=np.eye(1), powers=np.array([2.0]))
        slacks = check_conditions(ch, [0.6])
        assert slacks[0, 0] == pytest.approx(-(1 - 0.36), abs=1e-12)
        assert slacks[0, 1] == pytest.approx(-1 / (2 + 1 / 0.36), abs=1e-12)
        assert np.all(slacks < 0)

    def test_two_user_certificate_point(self):
        cert = noisy_certificate(FIG1)
        ch = MUserChannel.from_two_user(FIG1)
        slacks = check_conditions(ch, [cert.rho1, cert.rho2])
        # all four conditions are analytically tight at the certificate
        assert np.all(slacks <= 1e-12)
        assert np.all(np.abs(slacks) <= 1e-12)

    def test_matches_naive_evaluation(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            m = int(rng.integers(2, 5))
            gains = rng.uniform(0, 0.4, (m, m))
            np.fill_diagonal(gains, 1.0)
            ch = MUserChannel(gains=gains, powers=np.exp(rng.uniform(-1, 3, m)))
            rho = rng.uniform(0.05, 0.95, m)
            assert check_conditions(ch, rho) == pytest.approx(
                naive_slacks(ch, rho), rel=1e-12, abs=1e-14
            )

    def test_symmetric_probe_sign(self):
        ch = MUserChannel.symmetric(3, 0.05, 5.0)
        slacks = check_conditions(ch, [0.7, 0.7, 0.7])
        assert slacks == pytest.approx(naive_slacks(ch, np.full(3, 0.7)), rel=1e-12)
        assert np.all(slacks <= 0)

    def test_dimension_mismatch(self):
        ch = MUserChannel.symmetric(3, 0.05, 5.0)
        with pytest.raises(ValueError):
            check_conditions(ch, [0.5, 0.5])

    @pytest.mark.parametrize("rho", [[0.0, 0.5], [0.5, 1.0], [-0.1, 0.5], [math.nan, 0.5]])
    def test_rho_domain(self, rho):
        ch = MUserChannel.from_two_user(FIG1)
        with pytest.raises(ValueError):
            check_conditions(ch, rho)


class TestSymmetricThreshold:
    def test_two_user_reduction(self):
        for a in (0.01, 0.05, 0.2):
            expected = (math.sqrt(a) - 2 * a) / (2 * a * a)
            assert symmetric_threshold(2, a) == pytest.approx(expected, rel=1e-12)

    def test_three_user_value(self):
        expected = (math.sqrt(0.1) - 0.2) / 0.02
        assert symmetric_threshold(3, 0.05) == pytest.approx(expected, rel=1e-12)
        assert symmetric_threshold(3, 0.05) == pytest.approx(5.811, abs=5e-4)

    def test_critical_gain_gives_zero(self):
        for m in (2, 3, 5):
            c = 1 / (4 * (m - 1))
            assert symmetric_threshold(m, c) == pytest.approx(0.0, abs=1e-12)
            assert symmetric_threshold(m, c * 1.01) == 0.0


class TestFindRho:
    def test_symmetric_three_user_feasible(self):
        ch = MUserChannel.symmetric(3, 0.05, 5.0)
        assert 5.0 < symmetric_threshold(3, 0.05)
        v = find_rho(ch)
        assert v.feasible
        assert v.sum_capacity == pytest.approx(1.5 * math.log2(1 + 5 / 1.5), abs=1e-12)
        assert v.sum_capacity == pytest.approx(3.173, abs=5e-4)

    def test_large_gain_provably_infeasible(self):
        ch = MUserChannel.symmetric(3, 0.2, 1.0)
        assert 0.2 > 1 / (4 * 2)
        v = find_rho(ch)
        assert not v.feasible
        assert v.provably_infeasible
        assert "symmetric reduction" in v.note
        assert not oracle_grid_feasibility(ch, 32).feasible

    def test_two_user_embedding_matches_closed_form(self):
        for ch2 in (FIG1, TwoUserChannel(0.1, 0.05, 2, 3)):
            assert noisy_condition(ch2)[0]
            v = find_rho(MUserChannel.from_two_user(ch2))
            assert v.feasible
            assert v.sum_capacity == pytest.approx(tin_rates(ch2).sum, abs=1e-12)

    def test_witness_soundness(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = int(rng.integers(2, 5))
            gains = rng.uniform(0, 0.2, (m, m))
            np.fill_diagonal(gains, 1.0)
            ch = MUserChannel(gains=gains, powers=np.exp(rng.uniform(-2, 2, m)))
            v = find_rho(ch)
            if v.feasible:
                assert np.all(check_conditions(ch, v.rho) <= 1e-12)
                q = m_user_interference_powers(ch)
                expected = sum(
                    0.5 * math.log2(1 + ch.powers[i] / (1 + q[i])) for i in range(m)
                )
                assert v.sum_capacity == pytest.approx(expected, abs=1e-12)
                assert v.sum_capacity == pytest.approx(noisy_sum_capacity(ch), abs=1e-12)
            else:
                assert v.best_probe is not None and v.max_slack > 0

    def test_two_user_reduction_grid(self):
        for a in np.linspace(0.02, 0.25, 8):
            for b in np.linspace(0.02, 0.25, 8):
                for p in (1.0, 10.0):
                    ch = TwoUserChannel(a, b, p, p)
                    holds, slack = noisy_condition(ch)
                    v = find_rho(MUserChannel.from_two_user(ch))
                    if abs(slack) > 1e-6:
                        assert v.feasible == holds, (a, b, p, slack)

    def test_symmetric_consistency(self):
        for m in (2, 3, 4):
            for c in (0.02, 0.06, 0.11):
                p_star = symmetric_threshold(m, c)
                if p_star == 0:
                    continue
                for scale in (0.5, 0.9, 1.1, 2.0):
                    ch = MUserChannel.symmetric(m, c, scale * p_star)
                    v = find_rho(ch)
                    assert v.feasible == (scale <= 1.0), (m, c, scale)

    def test_power_shrink_preserves_feasibility(self):
        rng = np.random.default_rng(10)
        found = 0
        while found < 8:
            m = int(rng.integers(2, 4))
            gains = rng.uniform(0, 0.15, (m, m))
            np.fill_diagonal(gains, 1.0)
            powers = np.exp(rng.uniform(-2, 2, m))
            ch = MUserChannel(gains=gains, powers=powers)
            if not find_rho(ch).feasible:
                continue
            found += 1
            for f in (0.8, 0.6, 0.4, 0.2, 0.05):
                shrunk = MUserChannel(gains=gains, powers=f * powers)
                assert find_rho(shrunk).feasible, (m, f)

    def test_single_user(self):
        ch = MUserChannel(gains=np.eye(1), powers=np.array([3.0]))
        v = find_rho(ch)
        assert v.feasible
        assert v.sum_capacity == pytest.approx(1.0, abs=1e-12)

    def test_rejects_large_m(self):
        with pytest.raises(ValueError):
            find_rho(MUserChannel.symmetric(17, 0.001, 1.0))


class TestOracle:
    def test_weak_symmetric_two_user(self):
        ch = MUserChannel.from_two_user(TwoUserChannel(0.04, 0.04, 1, 1))
        assert oracle_grid_feasibility(ch, 32).feasible

    def test_strong_symmetric_three_user(self):
        ch = MUserChannel.symmetric(3, 0.2, 1.0)
        v = oracle_grid_feasibility(ch, 32)
        assert not v.feasible
        assert v.max_slack > 0

    def test_oracle_witness_recheck(self):
        ch = MUserChannel.symmetric(3, 0.05, 5.0)
        v = oracle_grid_feasibility(ch, 16)
        assert v.feasible
        assert np.all(check_conditions(ch, v.rho) <= 0)

    def test_never_contradicts_search_witness(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            m = int(rng.integers(2, 4))
            gains = rng.uniform(0, 0.15, (m, m))
            np.fill_diagonal(gains, 1.0)
            ch = MUserChannel(gains=gains, powers=np.exp(rng.uniform(-2, 2, m)))
            v = find_rho(ch)
            if v.feasible:
                assert np.all(check_conditions(ch, v.rho) <= 1e-12)

    def test_refuses_blowup(self):
        with pytest.raises(ValueError):
            oracle_grid_feasibility(MUserChannel.symmetric(5, 0.01, 1.0), 8)
        with pytest.raises(ValueError):
            oracle_grid_feasibility(MUserChannel.symmetric(2, 0.01, 1.0), 65)
