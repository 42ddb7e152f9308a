"""SweepSpec's grid equals numpy's, byte for byte: np.linspace, or
np.geomspace for a log grid, over the whole float range.  Ends are drawn
from the edges below or log-uniformly from 1e-330 (which rounds to 0) to
1e308, sometimes negated or adjacent.  The cases cover 2 points, subnormal
and huge ends, a step that underflows to 0, and a stop - start that
overflows.  A grid that warns fails, since the suite turns warnings into
errors."""

import math
import random
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gicbounds.config import SweepSpec

MAX = sys.float_info.max
EDGES = (0.0, 5e-324, 1e-320, sys.float_info.min, 1.0, math.nextafter(1.0, 2.0), MAX)


def grid(start: float, stop: float, points: int, log: bool) -> np.ndarray:
    return SweepSpec("p1", start, stop, points, "sum-tin", log_spacing=log).grid()


def numpy_grid(start: float, stop: float, points: int, log: bool) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        return (np.geomspace if log else np.linspace)(start, stop, points)


def same_as_numpy(start: float, stop: float, points: int, log: bool) -> bool:
    ours, numpys = grid(start, stop, points, log), numpy_grid(start, stop, points, log)
    return ours.tobytes() == numpys.tobytes()


def step_underflows(start: float, stop: float, points: int) -> bool:
    return (stop - start) / (points - 1) == 0


CASES = [
    (1.0, 2.0, 2, False),
    (1.0, 2.0, 2, True),
    (5e-324, 1e-320, 7, False),  # subnormal ends
    (5e-324, 1e-320, 7, True),
    (5e-324, MAX, 9, True),
    (1e300, MAX, 5, False),  # huge ends
    (1e300, MAX, 5, True),
    (0.0, 5e-324, 3, False),  # steps that underflow to 0
    (5e-324, 1e-323, 5, False),
    (-MAX, MAX, 3, False),  # stop - start overflows
    (-1e308, 1e308, 4, False),
]


@pytest.mark.parametrize("start, stop, points, log", CASES)
def test_grid_equals_numpy_at_the_edges(start, stop, points, log):
    assert same_as_numpy(start, stop, points, log)


def test_cases_reach_both_special_branches():
    assert any(step_underflows(a, b, n) for a, b, n, log in CASES if not log)
    assert any(math.isinf(b - a) for a, b, _, _ in CASES)
    assert math.isnan(grid(-MAX, MAX, 3, False)[0])


@settings(max_examples=400)
@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False),
       st.integers(2, 300), st.booleans())
def test_grid_equals_numpy(a, b, points, log):
    start, stop = sorted((abs(a), abs(b)) if log else (a, b))
    assume(start < stop and (start > 0 or not log))
    assert same_as_numpy(start, stop, points, log)


def number(rng: random.Random) -> float:
    x = rng.choice(EDGES) if rng.random() < 0.25 else 10.0 ** rng.uniform(-330.0, 308.0)
    return -x if rng.random() < 0.25 else x


def spec(rng: random.Random) -> tuple[float, float, int, bool]:
    """Valid grid ends, point count and spacing, drawn by ``rng``."""
    log = rng.random() < 0.5
    points = rng.choice((2, 3, rng.randint(2, 10), rng.randint(2, 1000)))
    while True:
        start, stop = number(rng), number(rng)
        if log:
            start, stop = abs(start), abs(stop)
        if rng.random() < 0.125:  # adjacent floats
            stop = math.nextafter(start, math.inf)
        start, stop = sorted((start, stop))
        if start < stop and (start > 0 or not log):
            return start, stop, points, log


@pytest.mark.slow
def test_survey_of_100000_grids():
    rng = random.Random(1)
    specs = [spec(rng) for _ in range(100_000)]
    assert [s for s in specs if not same_as_numpy(*s)] == []
    linear = [s for s in specs if not s[3]]
    assert sum(step_underflows(*s[:3]) for s in linear) >= 100
    assert sum(math.isinf(s[1] - s[0]) for s in linear) >= 100
    assert sum(s[2] == 2 for s in specs) >= 1000
    assert sum(s[0] < sys.float_info.min for s in specs) >= 1000
