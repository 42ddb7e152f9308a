"""Noisy-interference feasibility and sum-rate capacity for m-user channels.

Single-user detection achieves the sum-rate capacity when correlation
parameters rho_i in (0, 1) exist satisfying, for every receiver i,

    sum_{j != i} c_ji (1 + Q_j)^2 / rho_j^2  <=  1 - rho_i^2
    sum_{j != i} c_ij / (1 + Q_j - rho_j^2)  <=  1 / (P_i + (1 + Q_i)^2 / rho_i^2)

with Q_i the total interference power at receiver i.  One condition model
per channel holds the terms free of rho; ``check_conditions``, ``find_rho``
and the oracle each build it once.  ``find_rho`` searches for such a
vector: a 'not found' verdict means that a dual bound proved that no
vector in (0, 1)^m exists, unless the search stalled or ended on its
fallback rule (see ``find_rho``); only the uniform-channel case is flagged
as ``provably_infeasible``.  ``oracle_grid_feasibility`` is a brute-force
cross-check, run by ``gicbounds murate --oracle-resolution`` and the tests.

In u = rho^2 every slack is a sum of one-variable convex terms (the one
concave term, u_i/(P_i u_i + (1 + Q_i)^2), enters with a minus sign), so
feasibility is a convex program.  ``find_rho`` solves its phase-I form,
minimize t subject to every slack <= t, with a barrier Newton method, and
accepts a witness only on a one-point evaluation of the model.  At each
centered point of the solve a dual bound, checked against a proven
rounding band, can prove that no witness exists and end it.  The
oracle scans its grid in slabs, one per value of the first coordinate,
each evaluated by one model call.
"""

from __future__ import annotations

import math
from collections.abc import Generator, Iterator
from dataclasses import dataclass
from typing import NamedTuple

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

_RHO_MIN, _RHO_MAX = 1e-6, 1.0 - 1e-6
_U_MIN, _U_MAX = _RHO_MIN**2, _RHO_MAX**2
_NEWTON_STEPS = 400  # phase-I Newton steps before the solve counts as stalled
_CENTERED = 1e-6  # Newton decrement below which a phase-I point is centered
_GAP = 1e-3  # relative duality gap at which the phase-I solve stops
_GROWTH = 30.0  # growth of the phase-I barrier weight per centering
_BAND = 2.0**-27  # relative rounding band of the phase-I dual bound (see _phase_one)
_UNDERFLOW = 2.0**-980  # its underflow floor, per unit multiplier weight


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
    live.  It serves the slacks at u = rho^2 (``slacks_u``, behind a call on
    rho, which the oracle's grid scan makes, and the phase-I solve); their
    derivatives sit next to it (``_curvature``).

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

    def _terms(self, u: np.ndarray) -> tuple[np.ndarray, ...]:
        """The rho terms of an (..., m) array of u = rho^2 values, elementwise:
        the LHS factors 1/u and 1/(1 + Q - u) of the two families, then their
        RHS 1 - u and 1/(P + (1 + Q)^2/u).  The denominators 1 + Q - u are
        positive since u < 1."""
        inv_u = 1.0 / u
        return (
            inv_u,
            1.0 / (self.one_q - u),
            1.0 - u,
            1.0 / (self.powers + self.one_q_sq * inv_u),
        )

    def _curvature(self, u: np.ndarray) -> tuple[tuple[np.ndarray, ...], ...]:
        """First and second u-derivatives of the non-linear terms of
        ``_terms`` at one (m,) vector: 1/u, 1/(1 + Q - u) and the concave
        1/(P + K/u) = u/(P u + K), K = (1 + Q)^2.  The term 1 - u has slope
        -1 and no curvature."""
        inv_u = 1.0 / u
        inv_den = 1.0 / (self.one_q - u)
        inv_rate = 1.0 / (self.powers * u + self.one_q_sq)
        slope = self.one_q_sq * inv_rate * inv_rate
        return (
            (-inv_u * inv_u, inv_den * inv_den, slope),
            (2.0 * inv_u**3, 2.0 * inv_den**3, -2.0 * self.powers * slope * inv_rate),
        )

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        """The (n, m, 2) slacks of an (n, m) batch of rho vectors."""
        return self.slacks_u(rho * rho)

    def slacks_u(self, u: np.ndarray) -> np.ndarray:
        """The (..., m, 2) slacks at u = rho^2: of an (n, m) batch, or of one
        (m,) vector through matrix-vector products."""
        inv_u, inv_den, rhs1, rhs2 = self._terms(u)
        slacks = np.empty(u.shape + (2,))
        np.subtract(inv_u @ self.m1, rhs1, out=slacks[..., 0])
        np.subtract(inv_den @ self.m2, rhs2, out=slacks[..., 1])
        return slacks

    def at(self, rho: np.ndarray) -> np.ndarray:
        """The (m, 2) slacks of one rho vector."""
        return self(rho[None, :])[0]


def _grid_point(axis: np.ndarray, m: int, row: int) -> np.ndarray:
    """Row ``row`` of the grid axis^m in lexicographic order (for an array
    of k rows, an (m, k) array with one column per row)."""
    return axis[np.array(np.unravel_index(row, (len(axis),) * m))]


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
    c = ch.gains[0, 1]
    q = (ch.m - 1) * c * ch.powers[0]
    rho_sq = math.sqrt((ch.m - 1) * c) * (1.0 + q)
    if not 0.0 < rho_sq < 1.0:
        return None
    return np.full(ch.m, math.sqrt(rho_sq))


def _two_user_seed(model: _Conditions) -> np.ndarray | None:
    """Closed-form witness for m = 2, None when there is none.

    With A = sqrt(c_21)(1 + Q_2) and B = sqrt(c_12)(1 + Q_1), the first
    family reads A^2/u_2 <= 1 - u_1 and B^2/u_1 <= 1 - u_2 in u = rho^2, and
    the second family is the same pair: cross-multiplied, its condition i
    cancels the term c_ij P_i u_i and leaves the first family's condition j.
    A solution needs A + B <= sqrt(u_2 (1 - u_1)) + sqrt(u_1 (1 - u_2)) <= 1
    (Cauchy-Schwarz), and for A + B < 1, with s = (1 - A - B)/2, the point
    u = (B + s, A + s) meets both strictly: its slacks are
    -s (2A + s)/(A + s) and -s (2B + s)/(B + s).  That covers one-sided
    channels (A or B zero) too, and u lies in [s, 1 - s], inside (0, 1).
    """
    if model.m != 2:
        return None
    big_a = math.sqrt(model.gains_offdiag[1, 0]) * model.one_q[1]
    big_b = math.sqrt(model.gains_offdiag[0, 1]) * model.one_q[0]
    s = 0.5 * ((1.0 - big_a) - big_b)
    if not s > 0.0:
        return None
    return np.sqrt([big_b + s, big_a + s])


def _heuristic_seed(model: _Conditions) -> np.ndarray:
    """Per-user generalization of the uniform minimizer."""
    into = model.gains_offdiag.sum(axis=0)  # total gain into each receiver
    rho_sq = np.sqrt(np.maximum(into, 1e-300)) * (1.0 + model.q)
    return np.sqrt(np.clip(rho_sq, _RHO_MIN, _RHO_MAX))


class _DualBound(NamedTuple):
    """A stopping certificate of ``_phase_one``: the point u_c, the weights
    w_k = 1/(t - g_k(u_c)), and the float bound lb > 0 they give on the max
    slack over (0, 1)^m."""

    u: np.ndarray
    w: np.ndarray
    lb: float


def _phase_one(
    model: _Conditions, start: np.ndarray
) -> Generator[np.ndarray, None, _DualBound | None]:
    """Phase-I barrier method on the feasibility program in u = rho^2
    (Boyd and Vandenberghe, Convex Optimization, 2004, sections 11.3-11.4):

        minimize t  subject to  g_k(u) <= t for the 2m slacks g_k,
                                U_MIN < u_i < U_MAX (rho_i in (1e-6, 1 - 1e-6)).

    It starts at u = start^2, capped at 0.9 to keep off the box face, where
    the barrier is steep, and t above every slack.  Each step is a damped
    Newton step on

        tau t - sum_k log(t - g_k(u)) - sum_i log((u_i - U_MIN)(U_MAX - u_i)).

    Every g_k is a sum of one-variable terms (``model._curvature``), so
    with w_k = 1/(t - g_k) and G the (2m, m + 1) rows (grad g_k, -1), the
    Newton matrix is G' diag(w^2) G plus a diagonal.  Once the Newton
    decrement is small the point is centered; tau then grows by _GROWTH.

    Yields rho = sqrt(u) of every iterate after the start; ``find_rho``
    stops at the first witness.  At each centered point the solve first
    checks the dual bound below, and returns it as a ``_DualBound`` once it
    proves that no rho in (0, 1)^m meets the conditions.  Otherwise it
    ends, returning None, once the centered point's duality gap n/tau
    (n = 4m inequalities) is within 1e-3 of |t - gap|, which covers least
    max slacks t* near 0, where no dual bound is positive; or when Newton
    stalls.

    Dual bound.  Let W = sum_k w_k at a point u_c, and L = sum_k w_k g_k / W.
    Every g_k is convex on (0, 1)^m, so L is, max_k g_k >= L, and L lies
    above its tangent plane at u_c.  The plane's least value over the box
    [0, 1]^m bounds the max slack at every u in (0, 1)^m:

        max_k g_k(u) >= lb = (w.g + sum_j min(-s_j u_j, s_j (1 - u_j))) / W,

    where g = g(u_c) and s = w @ J, J = ``jac[:, :m]`` the slacks' Jacobian
    at u_c.  Any w >= 0 is valid; centering puts lb near t*.

    Rounding band.  The solve computes lb from float slacks g^ and Jacobian
    J^, so it stops only when

        W lb^ > 2^-27 (w.(|g^| + 4) + sum_{k,j} w_k |J^_kj|) + 2^-980 (W + 1).

    Exact values below are those of rational arithmetic on the channel's
    float gains and powers.  With eps = 2^-53 and gamma_n = n eps/(1 - n eps),
    each computed value is x(1 + theta) with |theta| <= gamma_n, and
    factors combine by adding their n (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., lemma 3.3); a dot product of n terms
    adds n (eq. 3.5):

    * Terms.  The model's positive factors have n: Q, m; 1 + Q, m + 1;
      K = (1 + Q)^2, 2m + 3; c_ji K_j, 2m + 4; 1/u and 1 - u, 1;
      1/(P + K/u), 2m + 7; and 1/(1 + Q - u), kappa (m + 1) + 2, where
      kappa = (1 + Q)/(1 + Q - u) <= 1/(1 - u) scales the error of 1 + Q
      in the difference.
    * Slacks.  g = A - B, with A a dot product of m positive terms and
      0 < B <= 1 (1 - u_i, or u_i/(P_i u_i + K_i) <= u_i as K_i >= 1), so
      |g^ - g| <= gamma_N (A + B), N = kappa (m + 1) + 3m + 7, and
      A + B <= |g| + 2.
    * Jacobian.  Each entry is one term: 1, -c_ji K_j/u_j^2 (2m + 8),
      c_ij/(1 + Q_j - u_j)^2 (2 kappa (m + 1) + 6) or -K_i/(P_i u_i + K_i)^2
      (6m + 15), so |J^ - J| <= gamma_{N_J} |J|, N_J = 2 kappa (m + 1) + 6m + 15.
    * lb.  w.g^ is a dot product of 2m terms and s^_j one of 2m terms of
      J^; min(-s u_j, s (1 - u_j)) is 1-Lipschitz in s and its float value
      errs by gamma_2 |s^_j|; the final sum has m + 1 terms.  So W lb^
      differs from W lb by at most gamma_{N*} (w.(|g^| + 2) +
      sum w_k |J^_kj|) (1 + O(gamma)), N* = 2 kappa (m + 1) + 9m + 18.
    * Size.  Iterates keep u < U_MAX, and ``find_rho`` evaluates
      u' = fl(sqrt(u)^2) <= U_MAX (1 + eps)^3 < 1 - 2^-19, so kappa < 2^19
      at every point the model is evaluated; with m <= 16, N* < 2^25 and
      gamma_{N*} < 2^-28 (1 + 2^-27).  The factor 2^-27 leaves a surplus of
      2, which covers the O(gamma) terms, the exact W against its float
      sum, and the rounding of the test itself.
    * Accepted points.  ``find_rho`` accepts a point whose float slacks are
      all <= 0, that is A^ <= B^ <= 1 + gamma_N.  There A + B <= 2 (1 +
      gamma_N)/(1 - gamma_N) and N < 2^24, so each exact slack is
      g <= g^ + gamma_N (A + B) < 2^-28.  The 4 = 2 + 2 in the test adds
      2^-26 W to the band, so a stop proves lb > 2^-27 exactly: the max
      slack at every rho in (0, 1)^m exceeds 2^-27, and no point the solve
      would go on to accept exists.  Stopping keeps every verdict kind and
      witness; only a not-found verdict's least-slack probe can change.
    * Underflow.  A result that underflows errs by up to 2^-1075
      absolutely.  In Q that is a relative 2^-1070 of 1 + Q >= 1, which the
      surplus absorbs; elsewhere later factors multiply it by less than
      1/u^2 < 2^80 (u > U_MIN > 2^-40), so each g^_k and J^_kj errs by less
      than 2^-990 more, and each product with w by 2^-1075.  The term
      2^-980 (W + 1) covers both.  Overflow makes the test nan or
      infinite, and it fails.
    """
    m = model.m
    diag = np.arange(m)
    jac = np.empty((2 * m, m + 1))  # G: family 1 rows, then family 2, as slacks_u(u).T
    jac[:, m] = -1.0
    slack_jac = jac[:, :m]

    def barrier(u: np.ndarray, t: float, g: np.ndarray) -> float:
        return -float(np.log(t - g).sum() + np.log((u - _U_MIN) * (_U_MAX - u)).sum())

    u = np.minimum(start * start, 0.9)
    with np.errstate(all="ignore"):
        g = model.slacks_u(u).T.ravel()
        t = g.max() + max(1.0, abs(g.max()))
        tau = float((1.0 / (t - g)).sum())
    for _ in range(_NEWTON_STEPS):
        # Overflow or nan ends the solve as a stall; no yield happens in here.
        with np.errstate(all="ignore"):
            w = 1.0 / (t - g)
            slope, curve = model._curvature(u)
            jac[:m, :m] = model.m1.T * slope[0]
            jac[diag, diag] += 1.0
            jac[m:, :m] = model.m2.T * slope[1]
            jac[m + diag, diag] -= slope[2]
            low, high = u - _U_MIN, _U_MAX - u
            grad = w @ jac
            grad[:m] += 1.0 / high - 1.0 / low
            grad[m] += tau
            scaled = w[:, None] * jac
            hess = scaled.T @ scaled
            hess[diag, diag] += (
                curve[0] * (model.m1 @ w[:m])
                + curve[1] * (model.m2 @ w[m:])
                - curve[2] * w[m:]
                + 1.0 / (low * low)
                + 1.0 / (high * high)
            )
            norm = 1.0 / np.sqrt(hess.diagonal())
            try:
                step = -norm * np.linalg.solve(hess * norm * norm[:, None], grad * norm)
            except np.linalg.LinAlgError:
                break
            decrement = -float(grad @ step)
            if not decrement > _CENTERED:
                if not decrement >= 0.0:
                    break  # not finite: Newton stalls
                # The dual bound times W, against its rounding band.
                s = w @ slack_jac
                total = float(w.sum())
                scaled_lb = float(w @ g + np.minimum(-s * u, s * (1.0 - u)).sum())
                band = _BAND * float(
                    w @ (np.abs(g) + 4.0) + w @ np.abs(slack_jac).sum(axis=1)
                ) + _UNDERFLOW * (total + 1.0)
                if scaled_lb > band:
                    return _DualBound(u, w, scaled_lb / total)
                gap = 4 * m / tau
                if gap <= _GAP * abs(t - gap):
                    break
                tau *= _GROWTH
                continue
            value = tau * t + barrier(u, t, g)
            size = 1.0
            while size > 1e-12:
                u_new, t_new = u + size * step[:m], t + size * step[m]
                if np.all((u_new > _U_MIN) & (u_new < _U_MAX)):
                    g_new = model.slacks_u(u_new).T.ravel()
                    if np.all(g_new < t_new) and (
                        tau * t_new + barrier(u_new, t_new, g_new)
                        <= value - 0.25 * size * decrement
                    ):
                        break
                size *= 0.5
            else:
                break  # Newton stalls
            u, t, g = u_new, t_new, g_new
        yield np.sqrt(u)


def find_rho(ch: MUserChannel) -> MUserVerdict:
    """Search for a rho vector satisfying both condition families.

    Probe order: the uniform-channel collapse (exact for symmetric
    channels), the m = 2 closed form (a witness iff A + B < 1, see
    ``_two_user_seed``), a per-user heuristic, then the phase-I barrier
    solve of the convex program in u = rho^2 (``_phase_one``), started at
    the heuristic.  Every probe is decided on its one-point slacks, the
    check ``check_conditions`` makes.  At m = 2 the closed form decides:
    for A + B >= 1 no witness exists and the solve is skipped.  For m > 2
    a 'not found' verdict means that a dual bound of the solve proved that
    no rho in (0, 1)^m meets the conditions, unless Newton stalled or the
    solve ended on its fallback rule for a least max slack t* near 0, a
    relative duality gap of 1e-3.  ``best_probe`` is then the probe of
    least max slack visited.  Only uniform channels whose gain exceeds
    1/(4(m-1)), where the common-rho reduction is both necessary and
    sufficient, are marked ``provably_infeasible``.  Over the benchmark's
    m-user pool, the 48 infeasible channels that run the solve average
    10.3 Newton steps, and the 8 feasible ones that need it 23.1.
    """
    if ch.m > 16:
        raise ValueError(f"find_rho supports m <= 16, got m={ch.m}")
    if ch.m == 1:
        rho = np.array([0.5])
        return _verdict_from_probe(ch, rho, check_conditions(ch, rho))

    model = _Conditions(ch)
    heuristic = _heuristic_seed(model)
    closed_form = _two_user_seed(model)

    def probes() -> Iterator[np.ndarray]:
        for seed in (_uniform_seed(ch), closed_form, heuristic):
            if seed is not None:
                yield seed
        # On m = 2, A + B >= 1 already proves that no witness exists.
        if ch.m > 2 or closed_form is not None:
            yield from _phase_one(model, heuristic)

    best_rho = best_slacks = None
    for rho in probes():
        slacks = model.at(rho)
        if slacks.max() <= 0.0:
            return _verdict_from_probe(ch, rho, slacks)
        if best_slacks is None or slacks.max() < best_slacks.max():
            best_rho, best_slacks = rho, slacks

    provable = ch.is_uniform() and _above_uniform_cut(ch.m, ch.gains[0, 1])
    note = "provably infeasible by the symmetric reduction" if provable else ""
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
    feasible point) is deterministic; with none, the probe is the first
    point of least max slack.  The grid is scanned in slabs, one model call
    per value of the first coordinate, up to the first feasible slab.  That
    a row's slacks do not depend on the slab height rests on the BLAS
    kernels, not on a proof; the tests compare the scan with one call on
    the whole grid, with ==.
    """
    check_oracle_request(ch.m, resolution)
    axis = np.arange(1, resolution + 1, dtype=float) / (resolution + 1)
    model = _Conditions(ch)
    # C order: the model's matrix products see the layout of a materialized grid.
    slab = _grid_point(axis, ch.m, np.arange(resolution ** (ch.m - 1))).T.copy()
    best = None  # max slack, rho and slacks of the first point of least max slack
    for value in axis:
        slab[:, 0] = value
        slacks = model(slab)
        # Column by column: numpy's max over a row of 2m entries is slower.
        columns = slacks.reshape(len(slab), -1).T
        max_slack = columns[0].copy()
        for column in columns[1:]:
            np.maximum(max_slack, column, out=max_slack)
        feasible = max_slack <= 0.0
        if feasible.any():
            idx = int(np.argmax(feasible))
            return _verdict_from_probe(ch, slab[idx], slacks[idx].copy())
        idx = int(np.argmin(max_slack))
        if best is None or max_slack[idx] < best[0]:
            best = max_slack[idx], slab[idx].copy(), slacks[idx].copy()
    return _verdict_from_probe(ch, best[1], best[2])
