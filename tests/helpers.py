"""Shared helpers for the test suite: channel samplers (one over the north
star's domain, one near the noisy boundary), geometry checks, an MU
objective call counter, a projection into the MU feasibility box, the MU
pattern search with one poll per call, the reference MU bound in user
order, the three-log MU share, the reference m-user grid scan, a Newton
system counter, a probe counter and the stopping certificate of the
m-user phase-I solve."""

from __future__ import annotations

import math
import random

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from gicbounds import TwoUserChannel, noisy_condition
from gicbounds.channel import _gap
from gicbounds.genie import _FIRST_STEP, _MAX_SHRINKS, _POLL, _POLL_CAP, _RHO_MAX, _MuObjective, _mirror
from gicbounds.multiuser import _Conditions, _heuristic_seed, _phase_one


def sample_regime_channel(rng: np.random.Generator) -> TwoUserChannel:
    """A channel with both crosstalk gains strictly inside (0, 1)."""
    a, b = rng.uniform(0.02, 0.95, 2)
    p1, p2 = np.exp(rng.uniform(math.log(0.5), math.log(200.0), 2))
    return TwoUserChannel(a, b, float(p1), float(p2))


def sample_noisy_channel(rng: np.random.Generator) -> TwoUserChannel:
    """A channel satisfying the noisy-interference condition (rejection
    sampling over weak gains and moderate powers)."""
    while True:
        a, b = np.exp(rng.uniform(math.log(1e-3), math.log(0.25), 2))
        p1, p2 = np.exp(rng.uniform(math.log(0.1), math.log(100.0), 2))
        ch = TwoUserChannel(float(a), float(b), float(p1), float(p2))
        if noisy_condition(ch)[0]:
            return ch


def north_star_channels(seed: int, count: int):
    """``count`` channels from ``random.Random(seed)``: gains log-uniform in
    [1e-9, 1 - 1e-6] and powers log-uniform in [1e-8, 1e12]."""
    rng = random.Random(seed)

    def draw(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    for _ in range(count):
        yield TwoUserChannel(draw(1e-9, 1 - 1e-6), draw(1e-9, 1 - 1e-6),
                             draw(1e-8, 1e12), draw(1e-8, 1e12))


def near_noisy_boundary(a: float, b: float, w: float, ulps: int):
    """A channel (a, b, p1, p2) within a few ulps of the noisy boundary
    sqrt(a)(b*p1 + 1) + sqrt(b)(a*p2 + 1) = 1, or None.  For gains with
    sqrt(a) + sqrt(b) < 1, user 1's term is put at the fraction w in (0, 1)
    of its free range (sqrt(a), 1 - sqrt(b)), p1 and p2 are solved for the
    boundary in floats, and p2 is then moved by ``ulps`` floats."""
    x = math.sqrt(a) + w * (1.0 - math.sqrt(a) - math.sqrt(b))
    p1 = (x / math.sqrt(a) - 1.0) / b
    p2 = ((1.0 - x) / math.sqrt(b) - 1.0) / a
    for _ in range(abs(ulps)):
        p2 = math.nextafter(p2, math.copysign(math.inf, ulps))
    if not (0.0 < p1 < math.inf and 0.0 < p2 < math.inf):
        return None
    return a, b, p1, p2


@st.composite
def near_noisy_boundary_channels(draw):
    """``near_noisy_boundary`` at gains log-uniform in [1e-12, 0.24], a
    uniform w and a shift of -3 to 3 ulps."""
    gains = st.floats(math.log(1e-12), math.log(0.24)).map(math.exp)
    ch = near_noisy_boundary(
        draw(gains), draw(gains), draw(st.floats(0.0, 1.0)), draw(st.integers(-3, 3))
    )
    assume(ch is not None)
    return ch


def point_to_polyline_distance(pt, polyline) -> float:
    """Euclidean distance from a rate point to a boundary polyline."""
    px, py = pt.r1, pt.r2
    best = math.inf
    coords = [(p.r1, p.r2) for p in polyline]
    for (ax, ay), (bx, by) in zip(coords, coords[1:]):
        dx, dy = bx - ax, by - ay
        denom = dx * dx + dy * dy
        t = 0.0 if denom == 0 else max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / denom))
        best = min(best, math.hypot(px - (ax + t * dx), py - (ay + t * dy)))
    return best


def vertex_defining_slacks(region) -> float:
    """Worst, over boundary vertices, of the second-smallest |slack| across
    the stored constraints and the two axes (each vertex should sit on two
    of them)."""
    worst = 0.0
    for p in region.boundary:
        slacks = sorted(
            [abs(v - (n1 * p.r1 + n2 * p.r2)) for n1, n2, v in region.constraints]
            + [p.r1, p.r2]
        )
        worst = max(worst, slacks[1])
    return worst


def count_objective_calls(monkeypatch) -> list[int]:
    """Count every MU objective evaluation from here on, in a one-item list.
    A call of a ``_MuObjective`` is the one way to evaluate it."""
    calls = [0]
    evaluate = _MuObjective.__call__

    def counted(self, x):
        calls[0] += 1
        return evaluate(self, x)

    monkeypatch.setattr(_MuObjective, "__call__", counted)
    return calls


def clamp(obj: _MuObjective, x: np.ndarray) -> np.ndarray:
    """Project points (rows r_A, r_B, s_A, s_B; further rows are ignored)
    into the feasibility box of ``obj``: the correlations into [0,
    _RHO_MAX], then the variances clipped by ``_MuObjective._boxed``."""
    r_a, r_b = np.minimum(np.maximum(x[:2], 0.0), _RHO_MAX)
    return np.array(obj._boxed(r_a, r_b, x[2], x[3], _gap(r_a), _gap(r_b)))


def reference_pattern_search(
    obj: _MuObjective, x: np.ndarray, val: np.ndarray, swapped: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Reference for ``genie._pattern_search``, which may evaluate a lane's
    next poll in the same objective call: the same search with exactly one
    poll per call, each lane polling as often as the loop runs.  Every lane
    must end at the same bits under both."""
    out_val, out_x = val.copy(), x.copy()
    ids = lane = np.arange(x.shape[1])  # lane of each live entry; its position
    shrinks = np.zeros(ids.size)
    moved = np.zeros((2, ids.size))  # each lane's last accepted move; 0 after a failed poll
    moves = _POLL.shape[1] + 1
    outer, other = _mirror(swapped, x[0], x[1])
    y = np.array([outer, other * np.sqrt(_mirror(swapped, x[4], x[5])[0])])
    charts = swapped[:, None] if swapped.any() else np.False_  # against each lane's moves
    # Constants spread over each lane's moves: operands of one shape, numpy's fast loops.
    polled = obj.take(np.broadcast_to(ids[:, None], (ids.size, moves)))
    for _ in range(_POLL_CAP):
        # Candidates are (2, live lanes, moves): the scaled poll moves, then
        # the pattern move, each from its lane's point.
        steps = _FIRST_STEP * 0.25**shrinks
        cand = np.empty((2, ids.size, moves))
        np.multiply(steps[:, None], _POLL[:, None, :], out=cand[:, :, :-1])
        np.multiply(moved, 2.0, out=cand[:, :, -1])
        cand += y[:, :, None]
        cand_x, cand_val = polled.solve(cand, x[2][:, None], charts)
        best = cand_val.argmin(axis=1)
        best_val = cand_val[lane, best]
        better = best_val < val
        chosen = cand[:, lane, best]
        moved = np.where(better, chosen - y, 0.0)
        y = np.where(better, chosen, y)
        x = np.where(better, cand_x[:, lane, best], x)
        val = np.where(better, best_val, val)
        shrinks += ~better
        live = shrinks <= _MAX_SHRINKS
        if live.all():
            continue
        if not live.any():
            break
        out_val[ids[~live]], out_x[:, ids[~live]] = val[~live], x[:, ~live]
        ids, x, y, val, swapped = ids[live], x[:, live], y[:, live], val[live], swapped[live]
        charts = swapped[:, None] if swapped.any() else np.False_
        shrinks, moved, lane = shrinks[live], moved[:, live], np.arange(ids.size)
        polled = obj.take(np.broadcast_to(ids[:, None], (ids.size, moves)))
    out_val[ids], out_x[:, ids] = val, x
    return out_val, out_x


def reference_mu_bound(ch, mu: float, x: np.ndarray):
    """Reference for ``genie._MuObjective``, which evaluates both sides of
    weight 1 in one (free user, capped user) order: the MU bound and its
    effective powers at box points x = (rho1, rho2, sigma1_sq, sigma2_sq) of
    ``ch`` at weight ``mu``, in user order, with one branch per side.
    Returns (values, p1_star, p2_star), +inf where the bound is not finite.
    Each branch takes the objective's operations in the objective's order,
    so the two agree bit for bit."""
    a, b, p1, p2 = ch.a, ch.b, ch.p1, ch.p2
    r1, r2, s1, s2 = x
    gap1, gap2 = (1.0 - r1) * (1.0 + r1), (1.0 - r2) * (1.0 + r2)
    p1_star, p2_star = np.full_like(s1, p1), np.full_like(s2, p2)
    with np.errstate(all="ignore"):
        if mu > 1.0:
            b_mu = b * mu
            left = np.maximum((1.0 - mu) * p1 / mu + gap2 / b_mu, 0.0)
            right = gap2 / b_mu
            mid = (gap2 - b_mu * s1) / (b_mu - b)
            p1_star = np.where(s1 <= left, p1, np.where(s1 <= right, mid, 0.0))
        elif mu == 1.0:
            p1_star = np.where(b * s1 <= gap2, p1, 0.0)
        else:
            left = np.maximum((mu - 1.0) * p2 + mu * gap1 / a, 0.0)
            right = mu * gap1 / a
            mid = (mu * gap1 - a * s2) / (a - a * mu)
            p2_star = np.where(s2 <= left, p2, np.where(s2 <= right, mid, 0.0))
        val = 0.5 * _reference_share(p1, p1_star, a, p2, p2_star, r1, gap1, s1) + (
            0.5 * mu * _reference_share(p2, p2_star, b, p1, p1_star, r2, gap2, s2)
        )
    return np.where(np.isfinite(val), val, np.inf), p1_star, p2_star


def _reference_share(p, p_star, gain, p_other, p_star_other, rho, gap, s):
    """Twice one user's share of the MU bound, one log of the product of its
    three terms, +inf where a log argument is <= 0; see
    ``genie._user_share``."""
    shrink = gain * p_star_other + gap
    k = gain * p_other + gap
    dev = np.sqrt(s) - rho
    cond = (p * (dev * dev + k) + s * k) / (p + s)
    share = np.log2((1.0 + p_star / s) * cond / shrink)
    return np.where((shrink <= 0) | (cond <= 0), np.inf, share)


def three_log_share(p, p_star, gain, p_other, p_star_other, rho, gap, s):
    """Reference for ``genie._user_share``, which takes one log of the
    product of the share's three terms: the former share, a log of each.
    Patched into ``genie``, it gives the lines the one-log share is gated
    against."""
    dev = np.sqrt(s) - rho
    k = gain * p_other + gap
    cond = (p * (dev * dev + k) + s * k) / (p + s)
    log_k = np.log2(k) if p_star_other is p_other else np.log2(gain * p_star_other + gap)
    return np.log2(1.0 + p_star / s) - log_k + np.log2(cond)


def materialized_grid_scan(model: _Conditions, axis: np.ndarray):
    """Reference for ``multiuser.oracle_grid_feasibility``, which scans its
    grid in slabs: the grid axis^m in lexicographic order, its slacks and
    max slacks from one model call."""
    # Row-major np.indices varies the last coordinate fastest, as
    # itertools.product does; the smallest index type keeps the oracle's
    # 64^4 grid at one byte per index.
    shape = (len(axis),) * model.m
    index = np.indices(shape, dtype=np.min_scalar_type(len(axis))).reshape(model.m, -1)
    columns = axis[index]  # one grid point per column, as the oracle's slabs
    slacks = model.slacks(columns * columns).transpose(2, 1, 0)
    return columns.T, slacks, slacks.reshape(columns.shape[1], -1).max(axis=1)


def count_newton_solves(monkeypatch) -> list[int]:
    """Count every Newton system the m-user phase-I solve solves from here
    on, in a one-item list: it solves each with one ``np.linalg.solve``."""
    calls = [0]
    solve = np.linalg.solve

    def counted(a, b):
        calls[0] += 1
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return calls


def count_probes(monkeypatch) -> list[int]:
    """Count every one-point probe ``find_rho`` evaluates from here on, in a
    one-item list: it decides each probe, the solve's iterates among them,
    with one ``_Conditions.at`` call."""
    calls = [0]
    at = _Conditions.at

    def counted(self, rho):
        calls[0] += 1
        return at(self, rho)

    monkeypatch.setattr(_Conditions, "at", counted)
    return calls


def phase_one_certificate(ch):
    """The dual bound that ends the phase-I solve ``find_rho`` runs on ch,
    from the same heuristic start, or None when the solve ends on its gap or
    stall rule.  The solve is run to its end, past any witness."""
    model = _Conditions(ch)
    solve = _phase_one(model, _heuristic_seed(model))
    while True:
        try:
            next(solve)
        except StopIteration as stop:
            return stop.value
