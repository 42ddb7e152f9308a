"""Shared helpers for the test suite: channel samplers, geometry checks, an
MU objective call counter, the reference m-user grid scan, and the stopping
certificate of the m-user phase-I solve."""

from __future__ import annotations

import math

import numpy as np

from gicbounds import TwoUserChannel, noisy_condition
from gicbounds.genie import _MuObjective
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
    slacks = model.columns(columns).transpose(2, 1, 0)
    return columns.T, slacks, slacks.reshape(columns.shape[1], -1).max(axis=1)


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
