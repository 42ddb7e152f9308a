"""Shared helpers for the test suite: channel samplers, geometry checks, an
MU objective call counter, a reference MU genie descent, and the reference
m-user grid scan and descent."""

from __future__ import annotations

import math

import numpy as np

from gicbounds import TwoUserChannel, noisy_condition
from gicbounds.genie import _MOVES as _SEARCH_MOVES
from gicbounds.genie import _SWEEP_TOL, _MuObjective
from gicbounds.multiuser import _RHO_MAX, _RHO_MIN, _Conditions

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


def band_screened_descent(
    model: _Conditions, start: np.ndarray, budget: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Reference for ``multiuser._descend_max_slack``, which also rejects
    unevaluated the moves of a coordinate that a slack at val does not
    read.  Coordinate descent on the maximum slack, stopping early once every
    slack is <= 0.  Returns the end point and its one-point slacks.

    A sweep tries the moves rho_idx +/- step for idx = 0..m-1 in that order,
    repeating a move while it lowers the maximum slack val; a sweep without
    a lowering move halves the step.  Each tried move costs one unit of
    ``budget``.  The probe sequence, the accepted points and their values
    are those of trying one move per ``model.at`` call, but the moves are
    screened in batches: from the current point, every remaining move of
    the sweep (as many as the budget pays for) goes into one
    ``model.banded`` call, and the moves are consumed in order:

    * a move that the clamp to [1e-6, 1 - 1e-6] turns into no move is
      rejected unevaluated (it would return val itself);
    * a move with a batched slack that stays above val after subtracting
      its rounding band is rejected, since its ``model.at`` value is at
      least that large (rounding is monotone and val is a float, so a
      computed difference above val means the exact one is too);
    * any other move is evaluated by ``model.at`` and decided on that value,
      so an accepted point's val is always a one-point value.

    After an accepted move the rest of the batch is stale, and the next
    batch starts from the new point with the same move.
    """
    moves_idx = np.repeat(np.arange(model.m), 2)
    moves_sign = np.tile([1.0, -1.0], model.m)
    x = np.clip(start, _RHO_MIN, _RHO_MAX)
    budget[0] -= 1
    slacks_x = model.at(x)
    val = float(slacks_x.max())
    step = 0.1
    while step > 1e-10 and budget[0] > 0 and val > 0.0:
        improved = False
        k = 0  # the next move of the sweep
        while k < len(moves_idx) and budget[0] > 0:
            idx = moves_idx[k : k + budget[0]]
            here = x[idx]
            moved = (here + moves_sign[k : k + budget[0]] * step).clip(_RHO_MIN, _RHO_MAX)
            live = (moved != here).nonzero()[0]
            batch = np.repeat(x[None, :], len(live), axis=0)
            batch[np.arange(len(live)), idx[live]] = moved[live]
            slacks, band = model.banded(batch)
            floors = (slacks - band).max(axis=(1, 2))
            accepted = None
            for row, j in enumerate(live.tolist()):
                if floors[row] > val:
                    continue
                cand = batch[row].copy()
                cand_slacks = model.at(cand)
                cand_val = float(cand_slacks.max())
                if cand_val < val:
                    x, slacks_x, val = cand, cand_slacks, cand_val
                    improved, accepted = True, j
                    break
            if accepted is None:
                budget[0] -= len(idx)
                k += len(idx)
                continue
            budget[0] -= accepted + 1
            if val <= 0.0:
                return x, slacks_x
            k += accepted  # try the accepted move again, from x
        if not improved:
            step *= 0.5
    return x, slacks_x
