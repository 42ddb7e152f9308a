"""Noisy-interference feasibility and sum-rate capacity for m-user channels.

Single-user detection achieves the sum-rate capacity when correlation
parameters rho_i in (0, 1) exist satisfying, for every receiver i,

    sum_{j != i} c_ji (1 + Q_j)^2 / rho_j^2  <=  1 - rho_i^2
    sum_{j != i} c_ij / (1 + Q_j - rho_j^2)  <=  1 / (P_i + (1 + Q_i)^2 / rho_i^2)

with Q_i the total interference power at receiver i.  One condition model
per channel holds the terms free of rho; ``check_conditions``, ``find_rho``
and the oracle each build it once.  ``find_rho`` searches for such a vector
(a miss is not a proof of infeasibility, except for the annotated
uniform-channel case); ``oracle_grid_feasibility`` is a brute-force
cross-check, run by ``gicbounds murate --oracle-resolution`` and the tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import MUserChannel, m_user_interference_powers

__all__ = [
    "MUserVerdict",
    "check_conditions",
    "find_rho",
    "symmetric_threshold",
    "oracle_grid_feasibility",
    "noisy_sum_capacity",
]

_MAX_EVALS = 100_000


@dataclass(frozen=True, eq=False)
class MUserVerdict:
    """Result of a feasibility search.

    ``rho`` is the witness vector, present iff feasible; otherwise
    ``best_probe`` holds the probe with the smallest maximum slack, and
    ``slacks``/``max_slack`` describe that probe.  ``slacks`` has shape
    (m, 2): column 0 the correlation-budget conditions, column 1 the
    power-budget conditions, both as LHS - RHS.
    """

    feasible: bool
    rho: tuple[float, ...] | None
    sum_capacity: float | None
    slacks: np.ndarray
    max_slack: float
    best_probe: tuple[float, ...] | None = None
    provably_infeasible: bool = False
    note: str = ""


def noisy_sum_capacity(ch: MUserChannel) -> float:
    """Sum rate of single-user detection: sum_i 0.5*log2(1 + P_i/(1 + Q_i))."""
    q = m_user_interference_powers(ch)
    return float(np.sum(0.5 * np.log2(1.0 + ch.powers / (1.0 + q))))


class _Conditions:
    """Both condition families of one channel.  The terms free of rho (Q,
    the off-diagonal gains c_ij, (1 + Q)^2 and M1) are computed once; a call
    on an (n, m) batch of rho vectors returns the (n, m, 2) slacks."""

    def __init__(self, ch: MUserChannel):
        self.m, self.powers = ch.m, ch.powers
        self.q = m_user_interference_powers(ch)
        self.gains_offdiag = ch.gains.copy()
        np.fill_diagonal(self.gains_offdiag, 0.0)
        self.one_q = 1.0 + self.q
        self.one_q_sq = np.square(self.one_q)
        # First family: M1[j, i] = c_ji (1 + Q_j)^2, LHS_i = sum_j inv_rho_sq_j M1[j, i].
        self.m1 = self.gains_offdiag * self.one_q_sq[:, None]

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        rho_sq = rho * rho
        inv_rho_sq = 1.0 / rho_sq
        slack1 = inv_rho_sq @ self.m1 - (1.0 - rho_sq)
        # Second family: LHS_i = sum_j c_ij / (1 + Q_j - rho_j^2).
        denom = self.one_q[None, :] - rho_sq  # (n, m), positive since rho_j < 1
        lhs2 = (1.0 / denom) @ self.gains_offdiag.T
        rhs2 = 1.0 / (self.powers[None, :] + self.one_q_sq[None, :] * inv_rho_sq)
        return np.stack([slack1, lhs2 - rhs2], axis=-1)

    def at(self, rho: np.ndarray) -> np.ndarray:
        """The (m, 2) slacks of one rho vector."""
        return self(rho[None, :])[0]


def _grid_scan(model: _Conditions, axis: np.ndarray):
    """The grid axis^m in lexicographic order, its slacks and max slacks."""
    grid = np.array(list(itertools.product(axis, repeat=model.m)))
    slacks = model(grid)
    return grid, slacks, slacks.reshape(len(grid), -1).max(axis=1)


def check_conditions(ch: MUserChannel, rho) -> np.ndarray:
    """Evaluate both condition families at one rho vector.

    Returns an (m, 2) array of slacks (LHS - RHS); all entries <= 0 means
    the vector certifies noisy interference.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (ch.m,):
        raise ValueError(f"rho must have shape ({ch.m},), got {rho.shape}")
    if not np.all((rho > 0.0) & (rho < 1.0)):
        raise ValueError("all rho entries must lie strictly in (0, 1)")
    return _Conditions(ch).at(rho)


def _above_uniform_cut(m: int, c: float) -> bool:
    """Uniform gain c > 1/(4(m-1)): no positive power admits noisy interference."""
    return bool(c > 1.0 / (4.0 * (m - 1)))


def symmetric_threshold(m: int, c: float) -> float:
    """Largest power P admitting noisy interference for the uniformly
    symmetric m-user channel with crosstalk gain c:

        P* = (sqrt((m-1)c) - 2(m-1)c) / (2 (m-1)^2 c^2)

    when c <= 1/(4(m-1)); zero otherwise (no positive power qualifies).
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"gain must be finite and > 0, got {c}")
    s = (m - 1) * c
    if _above_uniform_cut(m, c):
        return 0.0
    return (math.sqrt(s) - 2.0 * s) / (2.0 * s * s)


def _verdict_from_probe(
    ch: MUserChannel,
    rho: np.ndarray,
    slacks: np.ndarray,
    provably_infeasible: bool = False,
    note: str = "",
) -> MUserVerdict:
    max_slack = float(np.max(slacks))
    feasible = max_slack <= 0.0
    rho_t = tuple(float(r) for r in rho)
    return MUserVerdict(
        feasible=feasible,
        rho=rho_t if feasible else None,
        sum_capacity=noisy_sum_capacity(ch) if feasible else None,
        slacks=slacks,
        max_slack=max_slack,
        best_probe=None if feasible else rho_t,
        provably_infeasible=provably_infeasible,
        note=note,
    )


def _uniform_seed(ch: MUserChannel) -> np.ndarray | None:
    """Common-rho probe for uniform channels: both condition families reduce
    to s(1+Q)^2/rho^2 <= 1 - rho^2 with s = (m-1)c, minimized at
    rho^2 = sqrt(s)(1+Q)."""
    if ch.m < 2:
        return None
    c = ch.gains[0, 1]
    q = (ch.m - 1) * c * ch.powers[0]
    rho_sq = math.sqrt((ch.m - 1) * c) * (1.0 + q)
    if not 0.0 < rho_sq < 1.0:
        return None
    return np.full(ch.m, math.sqrt(rho_sq))


def _two_user_seed(model: _Conditions) -> np.ndarray | None:
    """Analytic witness for m = 2.

    With A = sqrt(c_21)(1+Q_2) and B = sqrt(c_12)(1+Q_1) the conditions are
    A^2/rho_2^2 <= 1 - rho_1^2 and B^2/rho_1^2 <= 1 - rho_2^2 (both
    families coincide at m = 2); they admit a solution iff A + B <= 1, with
    rho_1^2 = 1 - A, rho_2^2 = A tight in the first one.  A small shift of
    rho_2^2 converts the strict margin of the second condition into slack
    for both.
    """
    if model.m != 2:
        return None
    a21, c12 = model.gains_offdiag[1, 0], model.gains_offdiag[0, 1]
    if a21 <= 0.0 or c12 <= 0.0:
        return None
    big_a = math.sqrt(a21) * (1.0 + model.q[1])
    big_b = math.sqrt(c12) * (1.0 + model.q[0])
    if big_a >= 1.0:
        return None
    margin = (1.0 - big_a) - big_b
    if margin <= 0.0:
        delta = 0.0
    else:
        delta = min(
            0.5 * margin * (big_b + 1.0 - big_a) / (1.0 - big_a),
            0.5 * (1.0 - big_a),
        )
    rho1_sq = 1.0 - big_a
    rho2_sq = big_a + delta
    if not (0.0 < rho1_sq < 1.0 and 0.0 < rho2_sq < 1.0):
        return None
    return np.array([math.sqrt(rho1_sq), math.sqrt(rho2_sq)])


def _heuristic_seed(model: _Conditions) -> np.ndarray | None:
    """Per-user generalization of the uniform minimizer."""
    into = model.gains_offdiag.sum(axis=0)  # total gain into each receiver
    rho_sq = np.sqrt(np.maximum(into, 1e-300)) * (1.0 + model.q)
    return np.sqrt(np.clip(rho_sq, 1e-6, 1.0 - 1e-6))


def _descend_max_slack(
    model: _Conditions, start: np.ndarray, budget: list[int]
) -> np.ndarray:
    """Coordinate descent on the maximum slack, stopping early once every
    slack is <= 0."""

    def f(rho: np.ndarray) -> float:
        budget[0] -= 1
        return float(np.max(model.at(rho)))

    x = np.clip(start, 1e-6, 1.0 - 1e-6)
    val = f(x)
    step = 0.1
    while step > 1e-10 and budget[0] > 0 and val > 0.0:
        improved = False
        for idx in range(model.m):
            for sign in (1.0, -1.0):
                while budget[0] > 0:
                    cand = x.copy()
                    cand[idx] = min(max(cand[idx] + sign * step, 1e-6), 1.0 - 1e-6)
                    cand_val = f(cand)
                    if cand_val < val:
                        x, val = cand, cand_val
                        improved = True
                        if val <= 0.0:
                            return x
                    else:
                        break
        if not improved:
            step *= 0.5
    return x


def find_rho(ch: MUserChannel, max_evals: int = _MAX_EVALS) -> MUserVerdict:
    """Search for a rho vector satisfying both condition families.

    Probe order: the uniform-channel collapse (exact for symmetric
    channels), the m = 2 analytic witness, a per-user heuristic, then a
    coarse grid with coordinate-descent refinement of the best starts.  A
    'not found' verdict is not a proof of infeasibility except for uniform
    channels whose gain exceeds 1/(4(m-1)), where the common-rho reduction
    is both necessary and sufficient.
    """
    if ch.m > 16:
        raise ValueError(f"find_rho supports m <= 16, got m={ch.m}")
    if ch.m == 1:
        rho = np.array([0.5])
        return _verdict_from_probe(ch, rho, check_conditions(ch, rho))

    provable = ch.is_uniform() and _above_uniform_cut(ch.m, ch.gains[0, 1])
    note = "provably infeasible by the symmetric reduction" if provable else ""

    model = _Conditions(ch)
    candidates = (_uniform_seed(ch), _two_user_seed(model), _heuristic_seed(model))
    seeds = [seed for seed in candidates if seed is not None]

    budget = [max_evals]
    best_slacks = best_rho = None
    best_max = math.inf

    def consider(rho: np.ndarray) -> bool:
        nonlocal best_slacks, best_rho, best_max
        slacks = model.at(rho)
        mx = float(np.max(slacks))
        if mx < best_max:
            best_max, best_rho, best_slacks = mx, rho.copy(), slacks
        return mx <= 0.0

    for seed in seeds:
        budget[0] -= 1
        if consider(seed):
            return _verdict_from_probe(ch, best_rho, best_slacks)

    # Coarse grid, sized to the evaluation budget.
    pts = 9 if ch.m <= 3 else max(k for k in (5, 4, 3, 2) if k**ch.m <= 70_000)
    grid, _, max_all = _grid_scan(model, np.linspace(0.1, 0.9, pts))
    budget[0] -= len(grid)
    order = np.argsort(max_all, kind="stable")
    if consider(grid[order[0]]):
        return _verdict_from_probe(ch, best_rho, best_slacks)

    for start in [grid[i] for i in order[:3]] + seeds:
        if budget[0] <= 0:
            break
        if consider(_descend_max_slack(model, start, budget)):
            return _verdict_from_probe(ch, best_rho, best_slacks)

    return _verdict_from_probe(
        ch, best_rho, best_slacks, provably_infeasible=provable, note=note
    )


def oracle_grid_feasibility(ch: MUserChannel, resolution: int) -> MUserVerdict:
    """Exhaustive feasibility check over the grid rho_i in {k/(res+1)}.

    Brute-force oracle behind ``gicbounds murate --oracle-resolution`` and a
    cross-check in the tests; refuses m > 4 or resolution > 64 to keep the
    resolution^m grid bounded.  The scan order is lexicographic, so the
    returned witness (first feasible point) is deterministic.
    """
    if ch.m > 4:
        raise ValueError(f"oracle supports m <= 4, got m={ch.m}")
    if resolution > 64 or resolution < 1:
        raise ValueError(f"resolution must be in [1, 64], got {resolution}")
    axis = np.arange(1, resolution + 1, dtype=float) / (resolution + 1)
    grid, slacks_all, max_all = _grid_scan(_Conditions(ch), axis)
    feas = np.flatnonzero(max_all <= 0.0)
    idx = int(feas[0]) if len(feas) else int(np.argmin(max_all))
    return _verdict_from_probe(ch, grid[idx], slacks_all[idx])
