"""Shared helpers for the test suite: channel samplers, geometry checks, an
MU objective call counter, a reference MU genie descent, and the reference
m-user grid scan."""

from __future__ import annotations

import math

import numpy as np

from gicbounds import TwoUserChannel, noisy_condition
from gicbounds.genie import _MOVES as _SEARCH_MOVES
from gicbounds.genie import _SWEEP_TOL, _MuObjective
from gicbounds.multiuser import _Conditions

# The search's move table plus a row of null moves for finished lanes, which
# the reference descent below keeps stepping.
_MOVES = np.vstack([_SEARCH_MOVES, [0.0] * 4 + [1.0] * 4])
_HALVINGS = len(_MOVES) - 1


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
    ``_MuObjective.in_box`` is the one method each evaluation goes through,
    whether by ``__call__`` or by ``clamped``."""
    calls = [0]
    evaluate = _MuObjective.in_box

    def counted(self, x):
        calls[0] += 1
        return evaluate(self, x)

    monkeypatch.setattr(_MuObjective, "in_box", counted)
    return calls


def one_candidate_descent(
    obj: _MuObjective, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Reference for ``genie._lockstep_descent``: the same descent with one
    candidate per lane per objective call.

    Each lane cycles through the four parameters, moving each one up and
    then down while that lowers its value, with every candidate clamped back
    into the feasibility box.  A sweep that gains less than _SWEEP_TOL
    halves the lane's steps; once they pass _STEP_FLOOR the lane restarts
    once more with fresh steps, unless that round gained less than
    _SWEEP_TOL.  All lanes advance together, one candidate each per step,
    so each step is one objective call over all lanes and the search takes
    as many calls as its longest lane.  A lane is a (channel, weight, start)
    triple: ``obj`` holds each lane's own channel and weight, so lanes of
    different channels share the steps.  ``starts`` is (4, lanes); returns
    the (values, points) the lanes end at.
    """
    x = obj.clamp(starts)
    val = obj(x)
    lanes = np.arange(x.shape[1])
    move = np.zeros_like(lanes)  # column of _MOVES: 2*parameter + direction
    halvings = np.zeros_like(lanes)
    restarted = np.zeros(lanes.shape, dtype=bool)
    active = np.ones(lanes.shape, dtype=bool)
    sweep_start = val
    round_start = val
    while np.count_nonzero(active):
        param = move >> 1
        step = _MOVES[halvings, move]
        cur = x[param, lanes]
        cand = x.copy()
        cand[param, lanes] = np.where(param < 2, cur + step, cur * step)
        cand = obj.clamp(cand)
        cand_val = obj(cand)
        better = active & (cand_val < val)
        x = np.where(better, cand, x)
        val = np.where(better, cand_val, val)
        move = move + (active & ~better)
        swept = move == 8
        if np.count_nonzero(swept):
            halvings = halvings + (swept & (sweep_start - val < _SWEEP_TOL))
            ended = swept & (halvings == _HALVINGS)
            done = ended & (restarted | (round_start - val < _SWEEP_TOL))
            fresh = ended & ~done
            active = active & ~done
            restarted = restarted | fresh
            round_start = np.where(fresh, val, round_start)
            halvings = np.where(fresh, 0, halvings)
            move = np.where(swept, 0, move)
            sweep_start = np.where(swept, val, sweep_start)
    return val, x


def materialized_grid_scan(model: _Conditions, axis: np.ndarray):
    """Reference for ``multiuser._grid_scan``, which builds no grid: the
    grid axis^m in lexicographic order, its slacks and max slacks."""
    # Row-major np.indices varies the last coordinate fastest, as
    # itertools.product does; the smallest index type keeps the oracle's
    # 64^4 grid at one byte per index.
    shape = (len(axis),) * model.m
    index = np.indices(shape, dtype=np.min_scalar_type(len(axis))).reshape(model.m, -1)
    grid = axis[index.T.copy()]
    slacks = model(grid)
    return grid, slacks, slacks.reshape(len(grid), -1).max(axis=1)
