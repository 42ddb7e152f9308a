"""The symmetric gain threshold: its closed form against a 50-digit root of
the cubic, the largest float gain that meets the exact condition over the
whole power range, and the CLI outputs pinned from the bisection it
replaced."""

import json
import math
import random
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gicbounds import capacity, symmetric_noisy_threshold
from gicbounds.channel import _noisy_sign
from gicbounds.cli import main
from gicbounds.config import linear_to_db
from verify import exact_noisy_sign

# p log-uniform in [1e-8, 1e12]
POWERS = st.floats(math.log(1e-8), math.log(1e12)).map(math.exp)
PINNED = json.loads((Path(__file__).parent / "data" / "threshold_p.json").read_text())


def decimal_threshold(p: float) -> Decimal:
    """a = t^2 at the real root of 2p t^3 + 2t - 1 = 0, by Newton's method in
    50-digit arithmetic.  The cubic is convex for t > 0 and positive at
    t = 1/2, so the iterates from there fall monotonically to the root."""
    with localcontext() as ctx:
        ctx.prec = 50
        p = Decimal(p)
        t = Decimal("0.5")
        while True:
            step = (2 * p * t**3 + 2 * t - 1) / (6 * p * t * t + 2)
            t -= step
            if step <= t * Decimal("1e-45"):
                return t * t


@given(POWERS)
def test_threshold_admits_the_power(p):
    a = symmetric_noisy_threshold(p)
    assert _noisy_sign(a, a, p, p)[0] <= 0


@given(POWERS)
def test_threshold_matches_decimal_root(p):
    exact = decimal_threshold(p)
    assert abs(Decimal(symmetric_noisy_threshold(p)) - exact) <= Decimal("1e-13") * exact


@given(POWERS, POWERS)
def test_threshold_nonincreasing_in_power(p, q):
    lo, hi = sorted((p, q))
    assert symmetric_noisy_threshold(lo) >= symmetric_noisy_threshold(hi)


def is_largest_gain(p: float) -> bool:
    """Whether the threshold of ``p`` is in (0, 1/4] and meets the noisy
    condition in ``Fraction``, and the next float up does not."""
    a = symmetric_noisy_threshold(p)
    up = math.nextafter(a, 1.0)
    return 0.0 < a <= 0.25 and exact_noisy_sign(a, a, p, p) <= 0 < exact_noisy_sign(up, up, p, p)


POSITIVE_POWERS = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@given(POSITIVE_POWERS)
@example(5e-324)
@example(2.7e230)  # the threshold's square is near the least normal float
@example(1e300)
@example(6e307)  # 3p overflows
def test_every_positive_power_gets_the_largest_gain(p):
    assert is_largest_gain(p)


def test_largest_float_power_is_answered():
    assert is_largest_gain(sys.float_info.max)


@given(POSITIVE_POWERS)
def test_every_positive_power_is_answered_or_rejected(p):
    # No positive finite power is rejected, and the program's own sign, which
    # decides the verdicts, admits the threshold.
    a = symmetric_noisy_threshold(p)
    assert 0.0 < a <= 0.25
    assert _noisy_sign(a, a, p, p)[0] <= 0


def test_the_walk_starts_within_three_floats(monkeypatch):
    # A start k floats from the answer costs k + 2 exact signs, one of them
    # the sign that stops each walk.
    calls = []
    sign = capacity._noisy_sign
    monkeypatch.setattr(capacity, "_noisy_sign", lambda *args: calls.append(args) or sign(*args))
    rng = random.Random(9)
    for p in [10.0 ** rng.uniform(-323.0, 308.0) for _ in range(2_000)]:
        calls.clear()
        symmetric_noisy_threshold(p)
        assert len(calls) <= 5, p


@pytest.mark.slow
def test_full_range_survey():
    rng = random.Random(9)
    powers = [10.0 ** rng.uniform(-323.0, 308.0) for _ in range(20_000)]
    assert [p for p in powers if not is_largest_gain(p)] == []


@pytest.mark.parametrize("case", PINNED["cases"], ids=lambda case: case["argv"][2])
def test_cli_matches_the_pinned_bisection(capsys, case):
    assert main(case["argv"]) == 0
    out = capsys.readouterr()
    got, pinned = json.loads(out.out), json.loads(case["stdout"])
    assert out.err == ""
    assert got.keys() == pinned.keys()
    assert got["p"] == pinned["p"]
    assert abs(got["a_star"] - pinned["a_star"]) <= 1e-12
    assert got["a_star_db"] == linear_to_db(got["a_star"])


@pytest.mark.parametrize("p", ["1e-300", "1e200"])
def test_cli_extreme_powers(capsys, p):
    assert main(["threshold", "--p", p]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.startswith("a* = ")


def test_cli_power_near_the_float_max(capsys):
    assert main(["threshold", "--p", "1e300"]) == 0
    out = capsys.readouterr()
    assert (out.out, out.err) == ("a* = 6.2996052494743649e-201 (-2002.0069 dB)\n", "")


def test_cli_power_beyond_the_range_exit_one(capsys):
    # 1e400 parses to inf.
    assert main(["threshold", "--p", "1e400"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    lines = out.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
