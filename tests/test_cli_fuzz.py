"""The CLI over the whole float range: every request ends with status 0 or 1
and never with a traceback, a refused request prints exactly one line,
``error: ...``, and an answered one prints nothing to stderr.  A warning
counts as a line of its own, since a shell user sees it on stderr.

Numbers are drawn log-uniformly from 1e-330 (which rounds to 0) to 1e308,
or from the edge values below, sometimes negated.  Grid sizes are small, or
now and then 10^16 or more: past any address space, so numpy refuses them
before allocating anything.  Sizes in between are never drawn, since they
allocate gigabytes or run for minutes.  One request builder serves a
hypothesis property, kept small, and a survey of 4,000 requests from
``random.Random(1)``.  It also serves a property and a survey of the plain
parse: wherever it accepts a request, it returns argparse's namespace.
The survey's ends rarely overflow a grid, so a property of its own draws
sweeps whose grid overflows.
"""

import contextlib
import io
import math
import random
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gicbounds.cli import _build_parser, _parse_plain, main
from gicbounds.config import SWEEP_METRICS, SWEEP_PARAMS

EDGES = (
    0.0,
    5e-324,  # least subnormal
    sys.float_info.min,  # least normal
    math.nextafter(1.0, 0.0),
    1.0,
    math.nextafter(1.0, 2.0),
    sys.float_info.max,
)
COMMANDS = ("classify", "region", "sweep", "murate", "threshold")
GRID_FLAGS = ("--mu-grid", "--eta-grid", "--points")
HUGE = 10**16


def number(rng: random.Random) -> float:
    x = rng.choice(EDGES) if rng.random() < 0.25 else 10.0 ** rng.uniform(-330.0, 308.0)
    return -x if rng.random() < 0.125 else x


def grid_size(rng: random.Random, lo: int, hi: int) -> str:
    """A size from lo to hi, or one time in 16 a power of ten from 10^16 to 10^400."""
    return str(10 ** rng.randint(16, 400) if rng.random() < 0.0625 else rng.randint(lo, hi))


def request(rng: random.Random) -> list[str]:
    """One argv for a command chosen by ``rng``, with small or huge grids."""
    command = rng.choice(COMMANDS)
    if command == "threshold":
        if rng.random() < 0.5:
            argv = ["threshold", "--p", repr(number(rng))]
        else:
            argv = ["threshold", "--m", str(rng.randint(0, 20)), "--c", repr(number(rng))]
            argv += ["--db"] * (rng.random() < 0.25)
        return argv + ["--json"] * (rng.random() < 0.5)
    argv = [command]
    for flag in ("--a", "--b", "--p1", "--p2"):
        argv += [flag, repr(number(rng))]
    if command == "region":
        argv += ["--mu-grid", grid_size(rng, 3, 5), "--eta-grid", grid_size(rng, 2, 3)]
    elif command == "sweep":
        start, stop = sorted((number(rng), number(rng)))
        argv += ["--param", rng.choice(SWEEP_PARAMS), "--from", repr(start), "--to", repr(stop),
                 "--points", grid_size(rng, 2, 4), "--metric", rng.choice(SWEEP_METRICS)]
        argv += ["--log"] * (rng.random() < 0.5)
    elif command == "murate":
        argv += ["--json"] * (rng.random() < 0.5)
    return argv + ["--db"] * (rng.random() < 0.125)


def outcome(argv: list[str]) -> tuple[int, list[str]]:
    """Exit status and stderr lines of one in-process request, each warning
    it raises counted as one more line."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    lines = err.getvalue().splitlines()
    return code, lines + [f"{w.category.__name__}: {w.message}" for w in caught]


def well_reported(code: int, lines: list[str]) -> bool:
    if code == 1:
        return len(lines) == 1 and lines[0].startswith("error:")
    return code == 0 and lines == []


@settings(max_examples=120)
@given(st.randoms(use_true_random=False))
def test_every_request_exits_cleanly(rng):
    argv = request(rng)
    code, lines = outcome(argv)
    assert well_reported(code, lines), (argv, code, lines)


def test_the_builder_reaches_every_command_and_edge():
    rng = random.Random(0)
    argvs = [request(rng) for _ in range(400)]
    assert {argv[0] for argv in argvs} == set(COMMANDS)
    drawn = {arg for argv in argvs for arg in argv}
    assert {repr(x) for x in EDGES} <= drawn
    assert {"--log", "--json", "--db"} | set(SWEEP_METRICS) <= drawn
    sizes = [(flag, int(n)) for argv in argvs for flag, n in zip(argv, argv[1:])
             if flag in GRID_FLAGS]
    assert {flag for flag, n in sizes if n >= HUGE} == set(GRID_FLAGS)
    assert all(n <= 5 or n >= HUGE for _, n in sizes)


def test_survey_of_4000_requests():
    rng = random.Random(1)
    bad = []
    for _ in range(4000):
        argv = request(rng)
        try:
            code, lines = outcome(argv)
        except Exception as exc:  # a traceback in a shell
            bad.append((argv, repr(exc)))
            continue
        if not well_reported(code, lines):
            bad.append((argv, code, lines))
    assert bad == []


MAX = sys.float_info.max


@st.composite
def overflowing_sweep(draw) -> list[str]:
    """A sweep whose grid overflows: a linear one from [-MAX, -1e307] to
    [1e307, MAX], where stop - start can pass the float max, or a log one
    whose stop, one of the top 1,024 floats, overflows 10^log10(stop).  The
    metric is a cheap one, since the grid comes before any metric."""
    if draw(st.booleans()):
        start, stop, log = draw(st.floats(-MAX, -1e307)), draw(st.floats(1e307, MAX)), []
    else:
        stop = MAX - draw(st.integers(0, 1023)) * 2.0**971  # 2^971 is the top floats' spacing
        with np.errstate(over="ignore"):
            assume(np.isinf(np.power(10.0, np.log10(stop))))
        start, log = draw(st.floats(5e-324, 1e308)), ["--log"]
    return ["sweep", *"--a 0.04 --b 0.09 --p1 10 --p2 20".split(),
            "--param", draw(st.sampled_from(SWEEP_PARAMS)), "--from", repr(start),
            "--to", repr(stop), "--points", str(draw(st.integers(2, 300))),
            "--metric", draw(st.sampled_from(("sum-tin", "tdm-best", "verdict"))), *log]


@settings(max_examples=100)
@given(overflowing_sweep())
def test_an_overflowing_grid_exits_cleanly(argv):
    code, lines = outcome(argv)
    assert well_reported(code, lines), (argv, code, lines)


def plain_parse_differs(argv: list[str]) -> bool:
    """Whether the plain parse accepts ``argv`` with a namespace other than
    argparse's, reprs compared so that nan equals nan and -0.0 differs
    from 0.0."""
    command = _build_parser()[1][argv[0]]
    plain = _parse_plain(command, argv[1:])
    if plain is None:
        return False
    expected = command.parse_args(argv[1:])
    return repr(sorted(vars(plain).items())) != repr(sorted(vars(expected).items()))


@settings(max_examples=300)
@given(st.randoms(use_true_random=False))
def test_plain_parse_equals_argparse(rng):
    argv = request(rng)
    assert not plain_parse_differs(argv), argv


@pytest.mark.slow
def test_plain_parse_survey_of_20000_requests():
    rng = random.Random(1)
    argvs = [request(rng) for _ in range(20000)]
    commands = _build_parser()[1]
    accepted = sum(_parse_plain(commands[argv[0]], argv[1:]) is not None for argv in argvs)
    assert [argv for argv in argvs if plain_parse_differs(argv)] == []
    assert accepted > len(argvs) // 2
