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

Every value the search decides on is a one-point evaluation of the model.
The coordinate descent screens each sweep's moves in one batched
evaluation and rejects a move there only when a rounding band, or a slack
at the current value that the move cannot change, proves its one-point
value no lower than the current one, so batching changes the cost of the
search and not its probes or verdicts.  The probe grid of ``find_rho`` and
of the oracle is scanned from per-value tables of the rho terms, without
building the grid: its memory is three (n, m) arrays for n grid points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import MUserChannel, m_user_interference_powers

__all__ = [
    "MUserVerdict",
    "check_conditions",
    "find_rho",
    "symmetric_threshold",
    "oracle_grid_feasibility",
    "check_oracle_request",
    "noisy_sum_capacity",
]

_MAX_EVALS = 100_000
_RHO_MIN, _RHO_MAX = 1e-6, 1.0 - 1e-6
_UNIT_ROUNDOFF = 2.0**-53
_SUBNORMAL_MIN = 2.0**-1074


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
    """Both condition families of one channel.

    The terms free of rho (Q, the off-diagonal gains c_ij, (1 + Q)^2 and the
    weight matrices M1, M2) are computed once.  Family f's LHS is the product
    T_f @ M_f of an (n, m) table of rho terms with its weight matrix, and its
    RHS is elementwise in rho; ``_terms`` is the one place those rho formulas
    live, and serves both a batch of rho vectors (``_sides``) and the grid
    scan's per-value tables (``_grid_scan``).  A call on an (n, m) batch of
    rho vectors returns the (n, m, 2) slacks.

    A channel whose Q, (1 + Q)^2 or first-family weights sum_j M1[j, i]
    overflow is refused with a ValueError: an infinite (1 + Q_j)^2 times a
    zero gain is nan, and an infinite weight sum makes LHS_i infinite at
    every rho (each 1/rho_j^2 > 1), so no probe could be compared.
    """

    def __init__(self, ch: MUserChannel):
        self.m, self.powers = ch.m, ch.powers
        self.gains_offdiag = ch.gains.copy()
        np.fill_diagonal(self.gains_offdiag, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            self.q = m_user_interference_powers(ch)
            self.one_q = 1.0 + self.q
            self.one_q_sq = np.square(self.one_q)
            # First family: M1[j, i] = c_ji (1 + Q_j)^2, LHS_i = sum_j M1[j, i] / rho_j^2.
            self.m1 = self.gains_offdiag * self.one_q_sq[:, None]
            # Not finite if a (1 + Q)^2 or an entry of M1 is, or a column sum overflows.
            weights = self.m1.sum(axis=0)
        if not np.isfinite(weights).all():
            raise ValueError(
                "condition weights overflow: sum_j c_ji (1 + Q_j)^2 exceeds the "
                f"float range (largest interference power Q = {self.q.max():g})"
            )
        # Second family: M2[j, i] = c_ij, LHS_i = sum_j M2[j, i] / (1 + Q_j - rho_j^2).
        self.m2 = self.gains_offdiag.T

    @cached_property
    def blind(self) -> np.ndarray:
        """(m, m, 2) mask: ``blind[j, i, f]`` is True when slack (i, f) does
        not read rho_j, that is j != i and the computed weight M_f[j, i] is
        zero.  Built on first use, by the descent."""
        off = ~np.eye(self.m, dtype=bool)
        return np.stack([(self.m1 == 0.0) & off, (self.m2 == 0.0) & off], axis=2)

    def frozen(self, slacks: np.ndarray) -> np.ndarray:
        """The coordinates j, as an (m,) mask, such that some slack at the
        maximum of one point's (m, 2) ``slacks`` does not read rho_j; moving
        rho_j alone cannot lower that maximum (``_descend_max_slack``)."""
        return self.blind[:, slacks == slacks.max()].any(axis=1)

    def _terms(self, rho: np.ndarray) -> tuple[np.ndarray, ...]:
        """The rho terms of an (n, m) array of rho values, elementwise: the
        LHS factors 1/rho^2 and 1/(1 + Q - rho^2) of the two families, then
        their RHS 1 - rho^2 and 1/(P + (1 + Q)^2/rho^2).  The denominators
        1 + Q - rho^2 are positive since rho < 1."""
        rho_sq = rho * rho
        inv_rho_sq = 1.0 / rho_sq
        return (
            inv_rho_sq,
            1.0 / (self.one_q - rho_sq),
            1.0 - rho_sq,
            1.0 / (self.powers + self.one_q_sq * inv_rho_sq),
        )

    def _sides(self, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """LHS and RHS of both families on an (n, m) batch, each (n, m, 2)."""
        inv_rho_sq, inv_den, rhs1, rhs2 = self._terms(rho)
        lhs = np.empty(rho.shape + (2,))
        rhs = np.empty_like(lhs)
        lhs[..., 0] = inv_rho_sq @ self.m1
        lhs[..., 1] = inv_den @ self.m2
        rhs[..., 0] = rhs1
        rhs[..., 1] = rhs2
        return lhs, rhs

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        lhs, rhs = self._sides(rho)
        return np.subtract(lhs, rhs, out=lhs)

    def at(self, rho: np.ndarray) -> np.ndarray:
        """The (m, 2) slacks of one rho vector."""
        return self(rho[None, :])[0]

    def banded(self, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (n, m, 2) slacks of a batch and a rounding band for each.

        A batch goes through a BLAS matrix-matrix product, one vector through
        a matrix-vector product, and the two may sum in different orders, so
        a row's slacks can differ from ``at`` of that row in the last bits.
        The band bounds that difference.  Each LHS is a dot product of m
        non-negative terms whose factors (1/rho_j^2 or 1/(1 + Q_j - rho_j^2),
        and the channel's fixed matrix) are elementwise results with the same
        bits in both paths, and the RHS R is elementwise too.  With u the
        unit roundoff and gamma_m = m u / (1 - m u), a dot product of
        non-negative terms computed in any order, with or without fused
        multiply-add, is within gamma_m L of its exact value L (Higham,
        Accuracy and Stability of Numerical Algorithms, 2nd ed., eq. 3.5).
        So the two computed LHS differ by at most 2 gamma_m L <=
        2 gamma_m / (1 - gamma_m) Lhat for either computed value Lhat, and
        rounding the slack Lhat - R adds at most u (Lhat + R) in each path:

            |slack_batch - slack_at| <= (2m + 2) u (Lhat + R) + O(m^2 u^2) Lhat.

        The band (2m + 4) u (Lhat + R) covers this, its surplus 2u (Lhat + R)
        absorbing the second-order term and the rounding of the band itself
        for m <= 16.  Products that underflow carry an absolute error of at
        most half the least subnormal instead, m of them per dot product and
        path; the floor 2m times the least subnormal covers those.
        """
        lhs, rhs = self._sides(rho)
        band = (2 * self.m + 4) * _UNIT_ROUNDOFF * (lhs + rhs) + 2 * self.m * _SUBNORMAL_MIN
        return np.subtract(lhs, rhs, out=lhs), band


def _grid_scan(model: _Conditions, axis: np.ndarray):
    """Slacks of every point of the grid axis^m, in lexicographic order
    (the last coordinate varying fastest, as in itertools.product; row r is
    ``_grid_point(axis, m, r)``).  Returns the (n, m) slacks of each family
    and the (n,) max slacks.

    No grid is built: each rho term depends on one coordinate, so
    ``model._terms`` computes it once per axis value and coordinate, in a
    (len(axis), m) table, and the grid's (n, m) array of a term is spread
    from its table.  Each LHS operand holds the values ``_sides`` would
    compute on the grid, in the same shape and C order, so the product
    makes the same BLAS call; the RHS are subtracted elementwise and max is
    exact, so every slack and max slack has the bits of ``model(grid)`` on
    the materialized grid.  One buffer serves every spread term.
    """
    pts, m = len(axis), model.m
    inv_rho_sq, inv_den, rhs1, rhs2 = model._terms(np.repeat(axis[:, None], m, axis=1))
    buf = np.empty((pts**m, m))

    def spread(table: np.ndarray) -> np.ndarray:
        # Row r of the grid takes table[k, i] in column i, k the i-th digit
        # of r in base pts.  The rows of coordinates i..m-1 are pts copies
        # of those of i+1..m-1, one per value of coordinate i.
        block = 1
        for i in reversed(range(m)):
            chunks = buf[: block * pts].reshape(pts, block, m)
            chunks[1:] = chunks[0]
            chunks[:, :, i] = table[:, i, None]
            block *= pts
        return buf

    def slacks(factors: np.ndarray, weights: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        lhs = spread(factors) @ weights
        return np.subtract(lhs, spread(rhs), out=lhs)

    s1 = slacks(inv_rho_sq, model.m1, rhs1)
    s2 = slacks(inv_den, model.m2, rhs2)
    max_all = s1[:, 0].copy()
    for col in (*s1.T[1:], *s2.T):
        np.maximum(max_all, col, out=max_all)
    return s1, s2, max_all


def _grid_point(axis: np.ndarray, m: int, row: int) -> np.ndarray:
    """Row ``row`` of the grid axis^m in lexicographic order (for an array
    of k rows, an (m, k) array with one column per row)."""
    return axis[np.array(np.unravel_index(row, (len(axis),) * m))]


def _smallest(vals: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest of ``vals`` (at least k entries, no
    nan), ties in index order: ``np.argsort(vals, kind="stable")[:k]``
    without sorting the rest.  Every entry up to the k-th smallest value is
    among those at or below it, which keep their index order for the stable
    sort."""
    kth = np.partition(vals, k - 1)[k - 1]
    near = np.flatnonzero(vals <= kth)
    return near[np.argsort(vals[near], kind="stable")[:k]]


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
    return np.sqrt(np.clip(rho_sq, _RHO_MIN, _RHO_MAX))


def _descend_max_slack(
    model: _Conditions, start: np.ndarray, budget: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate descent on the maximum slack, stopping early once every
    slack is <= 0.  Returns the end point and its one-point slacks.

    A sweep tries the moves rho_idx +/- step for idx = 0..m-1 in that order,
    repeating a move while it lowers the maximum slack val; a sweep without
    a lowering move halves the step.  Each tried move costs one unit of
    ``budget``.  The probe sequence, the accepted points and their values
    are those of trying one move per ``model.at`` call, but the moves are
    screened in batches: from the current point, every remaining move of
    the sweep (as many as the budget pays for) is screened at once, and the
    moves are consumed in order:

    * a move that the clamp to [1e-6, 1 - 1e-6] turns into no move is
      rejected unevaluated (it would return val itself);
    * a move of rho_j is rejected unevaluated when some slack (i, f) of the
      current point equals val and does not read rho_j (``model.frozen``:
      j != i and the computed weight M_f[j, i] is zero).  The move changes
      only rho_j, and the one-point slack (i, f) reads it only through the
      product of its finite positive term with M_f[j, i] = +0.  That product
      is +0 whatever the summation order, and fused multiply-add adds it
      exactly too, so every other input and partial sum keeps its bits and
      the slack is val again: the move cannot lower val;
    * of the other moves, one ``model.banded`` call rejects those whose
      batched slack stays above val after subtracting its rounding band,
      since their ``model.at`` value is at least that large (rounding is
      monotone and val is a float, so a computed difference above val means
      the exact one is too);
    * each move left is evaluated by ``model.at`` and decided on that value,
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
    frozen = model.frozen(slacks_x)
    step = 0.1
    while step > 1e-10 and budget[0] > 0 and val > 0.0:
        improved = False
        k = 0  # the next move of the sweep
        while k < len(moves_idx) and budget[0] > 0:
            idx = moves_idx[k : k + budget[0]]
            here = x[idx]
            moved = (here + moves_sign[k : k + budget[0]] * step).clip(_RHO_MIN, _RHO_MAX)
            live = ((moved != here) & ~frozen[idx]).nonzero()[0]
            batch = np.repeat(x[None, :], len(live), axis=0)
            batch[np.arange(len(live)), idx[live]] = moved[live]
            slacks, band = model.banded(batch)
            screened = ((slacks - band).max(axis=(1, 2)) <= val).nonzero()[0]
            accepted = None
            for row in screened.tolist():
                cand = batch[row].copy()
                cand_slacks = model.at(cand)
                cand_val = float(cand_slacks.max())
                if cand_val < val:
                    x, slacks_x, val = cand, cand_slacks, cand_val
                    frozen = model.frozen(slacks_x)
                    improved, accepted = True, int(live[row])
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


def find_rho(ch: MUserChannel, max_evals: int = _MAX_EVALS) -> MUserVerdict:
    """Search for a rho vector satisfying both condition families.

    Probe order: the uniform-channel collapse (exact for symmetric
    channels), the m = 2 analytic witness, a per-user heuristic, then a
    coarse grid with coordinate-descent refinement of the best starts.
    ``max_evals`` caps the probes: each seed, grid point and descent move
    counts one.  The descent screens its moves in batches but decides each
    one on its one-point value (``_descend_max_slack``), so the verdict,
    witness and best probe are those of a one-move-at-a-time search.  A
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

    def consider(rho: np.ndarray, slacks: np.ndarray) -> bool:
        nonlocal best_slacks, best_rho, best_max
        mx = float(np.max(slacks))
        if mx < best_max:
            best_max, best_rho, best_slacks = mx, rho.copy(), slacks
        return mx <= 0.0

    for seed in seeds:
        budget[0] -= 1
        if consider(seed, model.at(seed)):
            return _verdict_from_probe(ch, best_rho, best_slacks)

    # Coarse grid, sized to the evaluation budget.
    pts = 9 if ch.m <= 3 else max(k for k in (5, 4, 3, 2) if k**ch.m <= 70_000)
    axis = np.linspace(0.1, 0.9, pts)
    _, _, max_all = _grid_scan(model, axis)
    budget[0] -= len(max_all)
    starts = [_grid_point(axis, ch.m, row) for row in _smallest(max_all, 3)]
    if consider(starts[0], model.at(starts[0])):
        return _verdict_from_probe(ch, best_rho, best_slacks)

    for start in starts + seeds:
        if budget[0] <= 0:
            break
        if consider(*_descend_max_slack(model, start, budget)):
            return _verdict_from_probe(ch, best_rho, best_slacks)

    return _verdict_from_probe(
        ch, best_rho, best_slacks, provably_infeasible=provable, note=note
    )


def check_oracle_request(m: int, resolution: int) -> None:
    """Refuse an oracle request over m > 4 users or a resolution outside
    [1, 64], which keeps the resolution^m grid bounded."""
    if m > 4:
        raise ValueError(f"oracle supports m <= 4, got m={m}")
    if resolution > 64 or resolution < 1:
        raise ValueError(f"resolution must be in [1, 64], got {resolution}")


def oracle_grid_feasibility(ch: MUserChannel, resolution: int) -> MUserVerdict:
    """Exhaustive feasibility check over the grid rho_i in {k/(res+1)}.

    Brute-force oracle behind ``gicbounds murate --oracle-resolution`` and a
    cross-check in the tests; ``check_oracle_request`` bounds the request.
    The scan order is lexicographic, so the returned witness (first
    feasible point) is deterministic.
    """
    check_oracle_request(ch.m, resolution)
    axis = np.arange(1, resolution + 1, dtype=float) / (resolution + 1)
    s1, s2, max_all = _grid_scan(_Conditions(ch), axis)
    feasible = max_all <= 0.0
    idx = int(np.argmax(feasible)) if feasible.any() else int(np.argmin(max_all))
    return _verdict_from_probe(
        ch, _grid_point(axis, ch.m, idx), np.stack([s1[idx], s2[idx]], axis=1)
    )
