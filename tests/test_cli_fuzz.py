"""The CLI over the whole float range: every request ends with status 0 or 1
and never with a traceback, and a refused request prints exactly one line,
``error: ...``.  A warning counts as a line of its own, since a shell user
sees it on stderr.

Numbers are drawn log-uniformly from 1e-330 (which rounds to 0) to 1e308,
or from the edge values below, sometimes negated.  One request builder
serves a hypothesis property, kept small for the default run, and a
``slow`` survey of 4,000 requests from ``random.Random(1)``.
"""

import contextlib
import io
import math
import random
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gicbounds.cli import main
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


def number(rng: random.Random) -> float:
    x = rng.choice(EDGES) if rng.random() < 0.25 else 10.0 ** rng.uniform(-330.0, 308.0)
    return -x if rng.random() < 0.125 else x


def request(rng: random.Random) -> list[str]:
    """One argv for a command chosen by ``rng``, with small grids."""
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
        argv += ["--mu-grid", str(rng.randint(3, 5)), "--eta-grid", str(rng.randint(2, 3))]
    elif command == "sweep":
        start, stop = sorted((number(rng), number(rng)))
        argv += ["--param", rng.choice(SWEEP_PARAMS), "--from", repr(start), "--to", repr(stop),
                 "--points", str(rng.randint(2, 4)), "--metric", rng.choice(SWEEP_METRICS)]
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
    return code == 0


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


@pytest.mark.slow
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
