import collections
import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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
    symmetric_noisy_threshold,
    symmetric_threshold,
    tin_rates,
)
from gicbounds import multiuser
from gicbounds.multiuser import (
    _BAND,
    _NECESSARY,
    _Conditions,
    _grid_point,
    _heuristic_seed,
    _necessary_bound,
    _phase_one,
    _propagation_empties,
    _two_user_seed,
)
import pins
from helpers import (
    count_newton_solves,
    count_probes,
    materialized_grid_scan,
    near_noisy_boundary_channels,
    phase_one_certificate,
)
from verify import (
    exact_dual_bound,
    exact_noisy_sign,
    is_exact_witness,
    pair_bound_exceeds,
    propagation_empties,
    receiver_bound,
)

FIG1 = TwoUserChannel(a=0.04, b=0.09, p1=10, p2=20)


def pinned_channels(prefix=""):
    """(id, channel) of the pinned m-user channels whose id starts with
    prefix: the m-user entries of the benchmark verdicts pool ("mu-"), whose
    verdicts cli_records.json pins, then find_rho.json's random channels
    ("rand-")."""
    for entry in pins.muser_pool() + pins.load("find_rho.json")["entries"]:
        if entry["id"].startswith(prefix):
            gains, powers = np.array(entry["gains"]), np.array(entry["powers"])
            yield entry["id"], MUserChannel(gains=gains, powers=powers)


def sparse_channel(rng, m, sparse=True):
    """Random channel with about half of its crosstalk gains zero, the rest
    log-uniform from 1e-9 to 1/(m-1), and powers log-uniform from 1e-8 to 1e6.
    With ``sparse`` False, the dense draw: no gain is zeroed."""
    gains = np.exp(rng.uniform(math.log(1e-9), math.log(1.0 / (m - 1)), (m, m)))
    if sparse:
        gains *= rng.uniform(size=(m, m)) < 0.5
    np.fill_diagonal(gains, 1.0)
    powers = np.exp(rng.uniform(math.log(1e-8), math.log(1e6), m))
    return MUserChannel(gains=gains, powers=powers)


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

    @pytest.mark.parametrize("m", [2, 12])
    @pytest.mark.parametrize("c", [1e-161, 1e-200])
    def test_tiny_gain_matches_high_precision(self, m, c):
        # (m-1)^2 c^2 is subnormal or 0 in floats; against 200 bits, within
        # the roundings of s = (m-1)c (P* ~ s^-3/2) and of the few steps.
        with mpmath.workprec(200):
            s = (m - 1) * mpmath.mpf(c)
            expected = (mpmath.sqrt(s) - 2 * s) / (2 * s * s)
            assert abs(symmetric_threshold(m, c) / expected - 1) <= 1e-15

    # The last: (m - 1)*c converts m to a float, which 10^400 overflows.
    @pytest.mark.parametrize("m, c", [(2, 5e-324), (12, 1e-210),
                                      pytest.param(10**400, 0.1, id="10^400-0.1")])
    def test_overflowing_threshold_is_refused(self, m, c):
        with pytest.raises(ValueError, match="overflows"):
            symmetric_threshold(m, c)


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


GAINS = st.floats(math.log(1e-9), math.log(1.0 - 1e-6)).map(math.exp)
POWERS = st.floats(math.log(1e-8), math.log(1e12)).map(math.exp)


@st.composite
def two_user_channels(draw):
    """m = 2 channels over gains 1e-9 to 1 - 1e-6 and powers 1e-8 to 1e12:
    two-sided, one-sided (c_12 = 0; the swapped channel has c_21 = 0),
    symmetric, and symmetric at the gain threshold a* of its power scaled
    by 1 + delta, |delta| from 1e-7 to 0.1, where A + B - 1 is small."""
    kind = draw(st.sampled_from(["two-sided", "one-sided", "symmetric", "threshold"]))
    c12, c21, p1, p2 = draw(GAINS), draw(GAINS), draw(POWERS), draw(POWERS)
    if kind == "one-sided":
        c12 = 0.0
    elif kind == "symmetric":
        c21, p2 = c12, p1
    elif kind == "threshold":
        delta = draw(st.floats(math.log(1e-7), math.log(0.1)).map(math.exp))
        c12 = c21 = symmetric_noisy_threshold(p1) * (1.0 + draw(st.sampled_from([-1, 1])) * delta)
        p2 = p1
    return MUserChannel(gains=np.array([[1.0, c12], [c21, 1.0]]), powers=np.array([p1, p2]))


class TestTwoUserClosedForm:
    """At m = 2 the conditions admit a rho vector iff A + B <= 1, with
    A = sqrt(c_21)(1 + Q_2) and B = sqrt(c_12)(1 + Q_1)."""

    @given(two_user_channels())
    # One-sided, A + B - 1 = -5e-7, and P_1 so large against Q_1 that an
    # interference power computed by cancellation misjudges the verdict.
    @example(MUserChannel(gains=np.array([[1.0, 0.0], [0.999999, 1.0]]),
                          powers=np.array([9.74480345e9, 1.0])))
    def test_feasible_iff_a_plus_b_below_one(self, ch):
        q = m_user_interference_powers(ch)
        margin = math.sqrt(ch.gains[1, 0]) * (1 + q[1]) + math.sqrt(ch.gains[0, 1]) * (1 + q[0]) - 1
        assume(abs(margin) > 1e-9)
        swapped = MUserChannel(gains=ch.gains[::-1, ::-1].copy(), powers=ch.powers[::-1].copy())
        for chan in (ch, swapped):
            v = find_rho(chan)
            assert v.feasible == (margin < 0), margin
            if v.feasible:
                assert is_exact_witness(chan.gains, chan.powers, v.rho)

    @given(st.one_of(
        two_user_channels(),
        near_noisy_boundary_channels().map(
            lambda ch: MUserChannel.from_two_user(TwoUserChannel(*ch))
        ),
    ))
    # A + B = 1 exactly: u = 1 would be probed, and divide by 1 + Q - u = 0.
    @example(MUserChannel.from_two_user(TwoUserChannel(1.0, 0.0, 3.0, 2.0)))
    def test_seed_exists_iff_the_exact_sign_is_negative(self, ch):
        (_, c12), (c21, _) = ch.gains.tolist()
        sign = exact_noisy_sign(c21, c12, *ch.powers.tolist())
        assert (_two_user_seed(_Conditions(ch)) is None) == (sign >= 0)


class TestFindRhoPinned:
    def test_verdicts_bit_identical(self):
        # find_rho.json's 100 seeded random channels, recorded with the
        # phase-I barrier solve; cli_records.json pins the pool's verdicts.
        pins.check_file("find_rho.json")

    def test_newton_systems_over_the_pool(self, monkeypatch):
        # The 120 m-user channels of the benchmark verdicts pool: the 2
        # feasible ones that no probe settles solve 13 systems, and bound
        # propagation settles all 8 infeasible ones that neither the probes
        # nor the pair and receiver tests settle, so they solve none.  The
        # one-point probes count every closed form, heuristic and iterate.
        calls = count_newton_solves(monkeypatch)
        probes = count_probes(monkeypatch)
        for _, ch in pinned_channels("mu-"):
            find_rho(ch)
        assert (calls[0], probes[0]) == (13, 133)

    @pytest.mark.parametrize(
        "cid", ["mu-m3-92", "mu-m3-98", "mu-m3-99", "mu-m4-130", "mu-m4-136"]
    )
    def test_seed_settles_channels_with_a_silent_receiver(self, cid, monkeypatch):
        # Each has a user that receives no interference but sends some; its
        # heuristic start is the witness, so the solve never runs.
        ch = dict(pinned_channels(cid))[cid]
        calls = count_newton_solves(monkeypatch)
        assert find_rho(ch).feasible
        assert calls[0] == 0

    @pytest.mark.slow
    def test_sparse_survey(self, monkeypatch):
        # 300 sparse_channel draws for each m, in this order, from one
        # generator: the verdicts and the Newton work over all of them.
        assert survey_work(monkeypatch, 7, 300) == (628, 183)

    # The same counts on the other surveys, so that a change to the search
    # shows its work as a diff of these pins.
    @pytest.mark.slow
    @pytest.mark.parametrize("seed, per_m, sparse, work", [
        (8, 300, True, (657, 264)),
        (21, 200, False, (256, 125)),
        (22, 200, False, (265, 164)),
    ], ids=["sparse8", "dense21", "dense22"])
    def test_survey_work(self, seed, per_m, sparse, work, monkeypatch):
        assert survey_work(monkeypatch, seed, per_m, sparse) == work

    def test_witnesses_pass_the_exact_check(self):
        witnesses = [(cid, ch, v.rho) for cid, ch in pinned_channels() if (v := find_rho(ch)).feasible]
        assert len(witnesses) >= 100
        for cid, ch, rho in witnesses:
            assert is_exact_witness(ch.gains.tolist(), ch.powers.tolist(), rho), cid


def survey_channels(seed, per_m, sparse=True):
    """``per_m`` sparse_channel draws (dense ones where ``sparse`` is False)
    for each m in (3, 4, 6, 8, 12, 16), in this order, from one generator."""
    rng = np.random.default_rng(seed)
    for m in (3, 4, 6, 8, 12, 16):
        for _ in range(per_m):
            yield sparse_channel(rng, m, sparse)


def survey_work(monkeypatch, seed, per_m, sparse=True):
    """(witnesses found, Newton systems solved) of find_rho over a survey."""
    calls = count_newton_solves(monkeypatch)
    feasible = sum(find_rho(ch).feasible for ch in survey_channels(seed, per_m, sparse))
    return feasible, calls[0]


class TestHeuristicSeed:
    """The start of the phase-I solve sizes each user from the gain out of
    its transmitter: rho_j^2 = sqrt(sum_i c_ji) (1 + Q_j)."""

    def test_chain_sizes_users_by_what_they_send(self):
        # 0 -> 1 -> 2: user 0 receives nothing, user 2 sends nothing.
        gains = np.eye(3)
        gains[0, 1], gains[1, 2] = 0.04, 0.09
        powers = np.array([2.0, 3.0, 5.0])
        rho = _heuristic_seed(_Conditions(MUserChannel(gains=gains, powers=powers)))
        q1 = 0.04 * 2.0
        expected = [math.sqrt(math.sqrt(0.04)), math.sqrt(math.sqrt(0.09) * (1.0 + q1)), 1e-3]
        assert rho.tolist() == pytest.approx(expected, rel=1e-15)

    @given(
        st.integers(2, 16),
        st.floats(math.log(1e-9), math.log(0.5)).map(math.exp),
        POWERS,
    )
    def test_uniform_channels_match_the_uniform_seed(self, m, c, p):
        # On a uniform channel, with s = (m-1)c and Q = sP, both families
        # reduce to s (1 + Q)^2/rho^2 <= 1 - rho^2, least at the common
        # rho^2 = sqrt(s)(1 + Q).
        rho = math.sqrt(math.sqrt((m - 1) * c) * (1.0 + (m - 1) * c * p))
        assume(1e-3 < rho < math.sqrt(1.0 - 1e-6))
        seed = _heuristic_seed(_Conditions(MUserChannel.symmetric(m, c, p)))
        np.testing.assert_array_max_ulp(seed, np.full(m, rho), maxulp=4)


@st.composite
def sparse_channels(draw, sizes):
    """sparse_channel-style channels over gains 1e-9 to 1 - 1e-6 and powers
    1e-8 to 1e12: each crosstalk gain is zero or log-uniform.  One in four
    is instead uniform at its threshold power P* scaled by 1 + delta,
    |delta| from 1e-7 to 0.1, where the least max slack is near 0."""
    m = draw(st.sampled_from(sizes))
    if draw(st.integers(0, 3)) == 0:
        c = draw(GAINS.filter(lambda c: 0 < symmetric_threshold(m, c) < 1e12))
        delta = draw(st.floats(math.log(1e-7), math.log(0.1)).map(math.exp))
        sign = draw(st.sampled_from([-1, 1]))
        return MUserChannel.symmetric(m, c, symmetric_threshold(m, c) * (1 + sign * delta))
    gains = np.eye(m)
    for i, j in itertools.permutations(range(m), 2):
        gains[i, j] = draw(st.one_of(st.just(0.0), GAINS))
    powers = np.array([draw(POWERS) for _ in range(m)])
    return MUserChannel(gains=gains, powers=powers)


def at_margin(test: str, direction: float) -> MUserChannel:
    """A three-user channel whose float pair sum A + B (test "pair") or
    receiver weight W_0 (test "receiver") is the float next to _NECESSARY
    toward ``direction``, and whose other sums are far below it.  Its
    powers are so small that every 1 + Q rounds to 1, so A = B = level/2,
    the square root of its rounded square, and W_0 = (level - 1/2) + 1/2."""
    level = math.nextafter(_NECESSARY, direction)
    gains = np.eye(3)
    if test == "pair":
        gains[0, 1] = gains[1, 0] = (level / 2) ** 2
    else:
        gains[1, 0], gains[2, 0] = level - 0.5, 0.5
    return MUserChannel(gains=gains, powers=np.full(3, 1e-20))


class TestNecessaryConditions:
    """For m > 2, find_rho skips the phase-I solve when the float pair or
    receiver bound of ``_necessary_bound`` exceeds _NECESSARY.  Recomputed
    exactly, the bound must then exceed the dual stop's 2^-27: no rho in
    (0, 1)^m meets the conditions."""

    @given(sparse_channels([3, 4, 6]))
    @example(at_margin("pair", -math.inf))
    @example(at_margin("pair", math.inf))
    @example(at_margin("receiver", -math.inf))
    @example(at_margin("receiver", math.inf))
    def test_a_firing_bound_is_exact(self, ch):
        if not _necessary_bound(_Conditions(ch)) > _NECESSARY:
            return
        assert pair_bound_exceeds(ch.gains, ch.powers, _BAND) or (
            receiver_bound(ch.gains, ch.powers) > _BAND
        )
        assert not find_rho(ch).feasible
        if ch.m <= 4:
            assert not oracle_grid_feasibility(ch, 16).feasible

    @pytest.mark.parametrize("test", ["pair", "receiver"])
    def test_margin_examples_straddle_the_level(self, test, monkeypatch):
        # Below the level the pair example goes on to the solve.  The
        # receiver example does not: family 1's upper-bound rule of bound
        # propagation gives u_0 <= 1 + 2^-27 - W_0 < 0 in its first sweep.
        solves = []

        def solve(model, start):
            solves.append(model.m)
            return (yield from _phase_one(model, start))

        monkeypatch.setattr(multiuser, "_phase_one", solve)
        below = {"pair": [3], "receiver": []}[test]
        for direction, runs in ((-math.inf, below), (math.inf, [])):
            ch = at_margin(test, direction)
            model = _Conditions(ch)
            assert _necessary_bound(model) == math.nextafter(_NECESSARY, direction)
            assert _propagation_empties(model) == (test == "receiver")
            solves.clear()
            assert not find_rho(ch).feasible
            assert solves == runs

    def test_pinned_hits_are_exact(self):
        # The bound settles 40 of the 48 infeasible m > 2 channels of the
        # verdicts pool and 21 of the 39 not-found random channels, and no
        # feasible one; every hit is checked exactly.
        fires = collections.Counter()
        for cid, ch in pinned_channels():
            if ch.m > 2 and _necessary_bound(_Conditions(ch)) > _NECESSARY:
                assert pair_bound_exceeds(ch.gains, ch.powers, _BAND) or (
                    receiver_bound(ch.gains, ch.powers) > _BAND
                ), cid
                fires[cid[:3], find_rho(ch).feasible] += 1
        assert fires == {("mu-", False): 40, ("ran", False): 21}


class TestPropagation:
    """For m > 2, find_rho skips the phase-I solve when bound propagation
    (``_propagation_empties``) empties the box of u = rho^2.  Every float
    firing must replay in rational arithmetic, with the same rules and
    sweeps (``verify.propagation_empties``): then no rho in (0, 1)^m has
    every slack <= 2^-27."""

    @staticmethod
    def assert_replays(ch, cid=None):
        """Whether the float propagation fires on ch; if it does, check its
        replay and that find_rho finds no witness.  The propagation proves
        every channel the pair or receiver test proves."""
        model = _Conditions(ch)
        fires = _propagation_empties(model)
        if fires:
            assert propagation_empties(ch.gains, ch.powers, multiuser._SWEEPS, _BAND), cid
            assert not find_rho(ch).feasible, cid
        assert fires or not _necessary_bound(model) > _NECESSARY, cid
        return fires

    def test_pinned_firings_replay(self):
        # It fires on the 8 infeasible m > 2 pool channels that the pair and
        # receiver tests leave to the solve, on 15 of the 18 such random
        # channels, and on every channel those tests settle.
        fires = collections.Counter()
        for cid, ch in pinned_channels():
            if ch.m > 2 and self.assert_replays(ch, cid):
                fires[cid[:3], _necessary_bound(_Conditions(ch)) > _NECESSARY] += 1
        assert fires == {("mu-", True): 40, ("mu-", False): 8, ("ran", True): 21, ("ran", False): 15}

    @given(sparse_channels([3, 4, 6]))
    def test_firings_replay(self, ch):
        if self.assert_replays(ch) and ch.m <= 4:
            assert not oracle_grid_feasibility(ch, 16).feasible

    @pytest.mark.slow
    @pytest.mark.parametrize("seed, per_m, sparse, firings", [
        (7, 300, True, 1170),
        (8, 300, True, 1141),
        (21, 200, False, 943),
        (22, 200, False, 934),
    ], ids=["sparse7", "sparse8", "dense21", "dense22"])
    def test_survey_firings_replay(self, seed, per_m, sparse, firings):
        channels = survey_channels(seed, per_m, sparse)
        assert sum(self.assert_replays(ch) for ch in channels) == firings


class TestDualCertificate:
    """The phase-I solve stops at the first iterate, centered or not, whose
    dual bound clears its rounding band.  Recomputed exactly from the
    stopping point and weights, the bound must exceed the band's 2^-27:
    then no rho in (0, 1)^m meets the conditions."""

    @staticmethod
    def assert_certified(ch, cid=None):
        """None if the solve ends on its gap or stall rule; otherwise check
        the certificate exactly and return its exact bound."""
        cert = phase_one_certificate(ch)
        if cert is None:
            return None
        lb = exact_dual_bound(ch.gains, ch.powers, cert.u, cert.w)
        assert lb > _BAND > 0, cid
        assert float(lb) == pytest.approx(cert.lb, rel=1e-9), cid
        assert not find_rho(ch).feasible, cid
        return lb

    def test_pinned_not_found_verdicts_are_certified(self):
        # Every pinned channel that find_rho finds no witness for, the
        # verdicts pool's 60 among them, stops on a certificate; feasible
        # ones never do.
        stops = 0
        for cid, ch in pinned_channels():
            lb = self.assert_certified(ch, cid)
            assert (lb is not None) == (not find_rho(ch).feasible), cid
            stops += lb is not None
        assert stops >= 99

    def test_provable_channel_stops_at_its_start(self):
        # A provable-stratum channel of the verdicts pool that the pair and
        # receiver tests leave to the solve: its start point is the proof.
        ch = dict(pinned_channels("mu-m4-135"))["mu-m4-135"]
        model = _Conditions(ch)
        assert not _necessary_bound(model) > _NECESSARY
        with pytest.raises(StopIteration) as stop:
            next(_phase_one(model, _heuristic_seed(model)))
        cert = stop.value.value
        assert exact_dual_bound(ch.gains, ch.powers, cert.u, cert.w) > _BAND

    def test_stops_at_uncentered_iterates_are_certified(self, monkeypatch):
        # With no iterate ever centered, every stop is at an uncentered one.
        not_found = [(cid, ch) for cid, ch in pinned_channels() if not find_rho(ch).feasible]
        monkeypatch.setattr(multiuser, "_CENTERED", -math.inf)
        stops = 0
        for cid, ch in not_found:
            stops += self.assert_certified(ch, cid) is not None
        assert stops >= 83

    @given(sparse_channels([2, 3, 4]))
    def test_certified_channels_have_no_grid_witness(self, ch):
        if self.assert_certified(ch) is not None:
            assert not oracle_grid_feasibility(ch, 16).feasible

    @pytest.mark.slow
    @settings(max_examples=500)
    @given(sparse_channels([2, 3, 4, 6, 8, 12]))
    def test_certificates_up_to_twelve_users(self, ch):
        if self.assert_certified(ch) is not None and ch.m <= 4:
            assert not oracle_grid_feasibility(ch, 16).feasible


class TestConditionModel:
    def test_curvature_matches_the_terms(self):
        # Central differences of the terms of _terms against the slopes and
        # curvatures of _curvature.
        rng = np.random.default_rng(31)
        for m in (2, 5, 12):
            gains = rng.uniform(0.0, 1.0 / m, (m, m))
            np.fill_diagonal(gains, 1.0)
            model = _Conditions(MUserChannel(gains=gains, powers=np.exp(rng.uniform(-3, 3, m))))
            u = rng.uniform(0.05, 0.95, m)
            h = 1e-5
            below, at, above = (
                np.array(model._terms((u + d)[:, None]))[..., 0] for d in (-h, 0.0, h)
            )
            slope, curve = model._curvature(u)
            # The non-linear terms 1/u, 1/(1 + Q - u) and 1/(P + K/u).
            rows = [0, 1, 3]
            assert (above - below)[rows] / (2 * h) == pytest.approx(np.array(slope), rel=1e-7)
            assert (above - 2 * at + below)[rows] / h**2 == pytest.approx(
                np.array(curve), rel=1e-3
            )

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_grid_is_lexicographic_product(self, m):
        for res in (1, 2, 5, 9):
            axis = np.linspace(0.1, 0.9, res)
            points = list(itertools.product(axis, repeat=m))
            assert [tuple(_grid_point(axis, m, r)) for r in range(res**m)] == points
            assert np.array_equal(_grid_point(axis, m, np.arange(res**m)).T, points)


class TestScanMatchesReference:
    """The oracle's slab scan against one model call on the materialized
    grid: its probe is the reference's first feasible row, or else its
    first row of least max slack, with that row's slacks, compared with ==."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(41)
        for cid, ch in pinned_channels("mu-"):
            yield cid, ch
        for m in range(2, 5):
            for k in range(4):
                yield f"sparse-m{m}-{k}", sparse_channel(rng, m)

    def assert_scans_match(self, ch, resolution, cid):
        axis = oracle_axis(resolution)
        grid, slacks, max_ref = materialized_grid_scan(_Conditions(ch), axis)
        feasible = max_ref <= 0.0
        idx = int(np.argmax(feasible)) if feasible.any() else int(np.argmin(max_ref))
        verdict = oracle_grid_feasibility(ch, resolution)
        assert verdict.feasible == feasible.any(), cid
        probe = verdict.rho if verdict.feasible else verdict.best_probe
        assert probe == tuple(grid[idx]), cid
        assert np.array_equal(verdict.slacks, slacks[idx]), cid
        assert verdict.max_slack == max_ref[idx], cid
        assert np.array_equal(_grid_point(axis, ch.m, np.arange(len(grid))).T, grid), cid

    def test_grid_scans(self):
        for cid, ch in self.cases():
            if ch.m > 4:
                continue
            self.assert_scans_match(ch, 16, (cid, 16))
            if ch.m <= 2:
                self.assert_scans_match(ch, 64, (cid, 64))


class TestScanMemory:
    """Traced peaks: numpy reports its buffers to tracemalloc.  The
    oracle's slab scan peaks at about 1.4 MiB at resolution 16 and 11.3
    MiB at 32 on the four-user channel; find_rho, which scans no grid,
    peaks at about 15 KiB on the eight-user channel."""

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
        assert self.traced_peak(find_rho, ch) <= 32 * 2**10

    @pytest.mark.parametrize("resolution, mib", [(16, 4), (32, 32)])
    def test_oracle_at_resolution(self, resolution, mib):
        ch = MUserChannel.symmetric(4, 0.05, 2.0)
        assert self.traced_peak(oracle_grid_feasibility, ch, resolution) <= mib * 2**20


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
