import itertools
import json
import math
import tracemalloc
from pathlib import Path

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
from gicbounds.multiuser import (
    _Conditions,
    _descend_max_slack,
    _grid_point,
    _grid_scan,
    _heuristic_seed,
    _smallest,
    _two_user_seed,
    _uniform_seed,
)
from helpers import band_screened_descent, materialized_grid_scan

FIG1 = TwoUserChannel(a=0.04, b=0.09, p1=10, p2=20)
PINNED = Path(__file__).parent / "data" / "find_rho.json"


def pinned_channels(prefix=""):
    """(id, channel) of the find_rho.json entries whose id starts with prefix;
    the "mu-" entries are the m-user channels of the benchmark verdicts pool."""
    for entry in json.loads(PINNED.read_text())["entries"]:
        if entry["id"].startswith(prefix) and entry["max_evals"] is None:
            gains, powers = np.array(entry["gains"]), np.array(entry["powers"])
            yield entry["id"], MUserChannel(gains=gains, powers=powers)


def sparse_channel(rng, m):
    """Random channel with about half of its crosstalk gains zero, the rest
    log-uniform from 1e-9 to 1/(m-1), and powers log-uniform from 1e-8 to 1e6."""
    gains = np.exp(rng.uniform(math.log(1e-9), math.log(1.0 / (m - 1)), (m, m)))
    gains *= rng.uniform(size=(m, m)) < 0.5
    np.fill_diagonal(gains, 1.0)
    powers = np.exp(rng.uniform(math.log(1e-8), math.log(1e6), m))
    return MUserChannel(gains=gains, powers=powers)


def search_axis(m):
    """The probe-grid axis of find_rho."""
    pts = 9 if m <= 3 else max(k for k in (5, 4, 3, 2) if k**m <= 70_000)
    return np.linspace(0.1, 0.9, pts)


def oracle_axis(resolution):
    return np.arange(1, resolution + 1, dtype=float) / (resolution + 1)


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


class TestFindRhoPinned:
    def test_verdicts_bit_identical(self):
        # Every m-user channel of the benchmark verdicts pool, 100 seeded
        # random channels and budget cuts at m = 4, 8, 12, recorded with the
        # one-candidate-per-call descent.
        pinned = json.loads((Path(__file__).parent / "data" / "find_rho.json").read_text())
        for entry in pinned["entries"]:
            ch = MUserChannel(gains=np.array(entry["gains"]), powers=np.array(entry["powers"]))
            if entry["max_evals"] is None:
                v = find_rho(ch)
            else:
                v = find_rho(ch, max_evals=entry["max_evals"])
            got = {
                "feasible": v.feasible,
                "rho": None if v.rho is None else list(v.rho),
                "best_probe": None if v.best_probe is None else list(v.best_probe),
                "slacks": v.slacks.tobytes().hex(),
                "max_slack": repr(v.max_slack),
                "note": v.note,
                "provably_infeasible": v.provably_infeasible,
            }
            assert got == entry["verdict"], entry["id"]


class TestConditionModel:
    def test_rounding_band_covers_one_point_slacks(self):
        rng = np.random.default_rng(31)
        for m in range(2, 17):
            gains = rng.uniform(0.0, 2.0 / m, (m, m)) * (rng.uniform(size=(m, m)) < 0.8)
            np.fill_diagonal(gains, 1.0)
            powers = np.exp(rng.uniform(math.log(1e-3), math.log(1e6), m))
            model = _Conditions(MUserChannel(gains=gains, powers=powers))
            for n in range(1, 2 * m + 1):
                batch = rng.uniform(1e-6, 1.0 - 1e-6, (n, m))
                edge = rng.uniform(size=(n, m))
                batch[edge < 0.15] = 1e-6
                batch[edge > 0.85] = 1.0 - 1e-6
                slacks, band = model.banded(batch)
                assert np.array_equal(slacks, model(batch))
                assert np.all(band > 0)
                for row in range(n):
                    exact = model.at(batch[row].copy())
                    assert np.all(np.abs(slacks[row] - exact) <= band[row]), (m, n, row)
                    assert abs(slacks[row].max() - exact.max()) <= band[row].max()
                    assert (slacks[row] - band[row]).max() <= exact.max()

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_grid_is_lexicographic_product(self, m):
        rng = np.random.default_rng(m)
        gains = rng.uniform(0.0, 0.3, (m, m))
        np.fill_diagonal(gains, 1.0)
        model = _Conditions(MUserChannel(gains=gains, powers=np.exp(rng.uniform(-1, 3, m))))
        for res in (1, 2, 5, 9):
            axis = np.linspace(0.1, 0.9, res)
            s1, s2, max_all = _grid_scan(model, axis)
            points = list(itertools.product(axis, repeat=m))
            assert [tuple(_grid_point(axis, m, r)) for r in range(res**m)] == points
            assert s1.shape == s2.shape == (res**m, m)
            slacks = model(np.array(points))
            assert np.array_equal(s1, slacks[..., 0]) and np.array_equal(s2, slacks[..., 1])
            assert np.array_equal(max_all, slacks.max(axis=(1, 2)))


class TestScanAndDescentMatchReference:
    """The table scan and the descent against the materialized-grid scan
    and the band-only descent they replace, compared with ==."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(41)
        for cid, ch in pinned_channels("mu-"):
            yield cid, ch
        for m in range(2, 13):
            for k in range(4):
                yield f"sparse-m{m}-{k}", sparse_channel(rng, m)

    def assert_scans_match(self, model, axis, cid):
        grid, slacks, max_ref = materialized_grid_scan(model, axis)
        s1, s2, max_all = _grid_scan(model, axis)
        assert np.array_equal(s1, slacks[..., 0]), cid
        assert np.array_equal(s2, slacks[..., 1]), cid
        assert np.array_equal(max_all, max_ref), cid
        assert np.array_equal(_grid_point(axis, model.m, np.arange(len(grid))).T, grid), cid
        top = np.argsort(max_ref, kind="stable")[:3]
        assert np.array_equal(_smallest(max_all, 3), top), cid

    def test_grid_scans(self):
        for cid, ch in self.cases():
            model = _Conditions(ch)
            self.assert_scans_match(model, search_axis(ch.m), cid)
            if ch.m <= 4:
                self.assert_scans_match(model, oracle_axis(16), (cid, 16))
            if ch.m <= 2:
                self.assert_scans_match(model, oracle_axis(64), (cid, 64))

    def test_descents(self, monkeypatch):
        at_calls = [0]
        one_point = _Conditions.at

        def counted(model, rho):
            at_calls[0] += 1
            return one_point(model, rho)

        monkeypatch.setattr(_Conditions, "at", counted)
        rng = np.random.default_rng(42)
        calls = {"reference": 0, "descent": 0}
        for cid, ch in self.cases():
            if ch.m > 8 and not cid.startswith("sparse"):
                continue  # the pool's m = 12 searches are pinned in find_rho.json
            model = _Conditions(ch)
            _, _, max_all = _grid_scan(model, search_axis(ch.m))
            starts = [_grid_point(search_axis(ch.m), ch.m, r) for r in _smallest(max_all, 2)]
            starts += [
                seed
                for seed in (_uniform_seed(ch), _two_user_seed(model), _heuristic_seed(model))
                if seed is not None
            ]
            starts.append(rng.uniform(0.0, 1.0, ch.m))
            for start, budget in itertools.product(starts, (1, 2, 5, 17, 3000)):
                ends = []
                for name, descend in (("reference", band_screened_descent),
                                      ("descent", _descend_max_slack)):
                    left = [budget]
                    at_calls[0] = 0
                    x, slacks = descend(model, start.copy(), left)
                    calls[name] += at_calls[0]
                    ends.append((x.tobytes(), slacks.tobytes(), left[0]))
                assert ends[0] == ends[1], (cid, start, budget)
        assert calls["descent"] < calls["reference"], calls


class TestScanMemory:
    """Traced peaks of the grid scan: numpy reports its buffers to
    tracemalloc.  The materialized scan peaked at 36.6 and 18.3 MiB."""

    @staticmethod
    def traced_peak(fn, *args):
        fn(*args)  # imports and caches settle first
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_find_rho_on_an_infeasible_eight_user_channel(self):
        # The first entry of the verdicts pool's m8/infeasible stratum.
        ch = dict(pinned_channels("mu-m8-158"))["mu-m8-158"]
        assert self.traced_peak(find_rho, ch) <= 16 * 2**20

    def test_oracle_at_resolution_16(self):
        ch = MUserChannel.symmetric(4, 0.05, 2.0)
        assert self.traced_peak(oracle_grid_feasibility, ch, 16) <= 9 * 2**20


class TestOverflowRefused:
    """Channels whose Q, (1 + Q)^2, condition weights c_ji (1 + Q_j)^2 or
    their sums overflow are refused by the condition model, with no
    warning."""

    CHANNELS = [
        # (1 + Q_2)^2 = inf, times the zero diagonal gain: nan.
        MUserChannel.from_two_user(TwoUserChannel(0.1, 0.1, 1e200, 1.0)),
        # Every (1 + Q)^2 finite (Q = 1, 1e150, 0), c_10 (1 + Q_1)^2 = inf.
        MUserChannel(gains=np.array([[1, 1e150, 0], [1e200, 1, 0], [0, 0, 1.0]]),
                     powers=np.array([1.0, 1e-200, 1.0])),
        # Q itself overflows.
        MUserChannel.symmetric(3, 1e300, 1e10),
        # Every c_ji (1 + Q_j)^2 finite, their sum into receiver 2 is not.
        MUserChannel(gains=np.array([[1, 0, 1e308], [0, 1, 1e308], [0, 0, 1.0]]),
                     powers=np.array([1e-300, 1e-300, 1.0])),
    ]

    @pytest.mark.parametrize("ch", CHANNELS)
    def test_search_oracle_and_check_refuse(self, ch):
        with pytest.raises(ValueError, match="overflow"):
            find_rho(ch)
        with pytest.raises(ValueError, match="overflow"):
            oracle_grid_feasibility(ch, 4)
        with pytest.raises(ValueError, match="overflow"):
            check_conditions(ch, np.full(ch.m, 0.5))

    def test_largest_finite_weights_are_searched(self):
        ch = MUserChannel.from_two_user(TwoUserChannel(0.1, 0.1, 1e150, 1.0))
        v = find_rho(ch)
        assert not v.feasible and math.isfinite(v.max_slack)


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
