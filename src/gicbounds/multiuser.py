"""The m-user channel model, its noisy-interference feasibility and sum-rate
capacity, and the uniformly symmetric power threshold.

Single-user detection achieves the sum-rate capacity when correlation
parameters rho_i in (0, 1) exist satisfying, for every receiver i,

    sum_{j != i} c_ji (1 + Q_j)^2 / rho_j^2  <=  1 - rho_i^2
    sum_{j != i} c_ij / (1 + Q_j - rho_j^2)  <=  1 / (P_i + (1 + Q_i)^2 / rho_i^2)

with Q_i the total interference power at receiver i.  One condition model
per channel holds the terms free of rho, and one of its methods evaluates
the slacks of any number of rho vectors; ``check_conditions``, ``find_rho``
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
accepts a witness only on a one-point evaluation of the model.  Before
the solve, two closed-form necessary conditions (a pair test and a
receiver test) can prove that no witness exists, and at every iterate of
the solve a dual bound can; each is checked against a proven rounding
margin.  The oracle scans its grid in slabs, one per value of the first
coordinate, each evaluated by one model call.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Generator, Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import TwoUserChannel, _check_finite_pos, _noisy_sign, _rate

__all__ = [
    "MUserChannel",
    "MUserVerdict",
    "m_user_interference_powers",
    "check_conditions",
    "find_rho",
    "symmetric_threshold",
    "oracle_grid_feasibility",
    "noisy_sum_capacity",
]

_RHO_MIN, _RHO_MAX = 1e-6, 1.0 - 1e-6
_U_MIN, _U_MAX = _RHO_MIN**2, _RHO_MAX**2
_NEWTON_STEPS = 400  # phase-I Newton steps before the solve counts as stalled
_CENTERED = 1e-6  # Newton decrement below which a phase-I point is centered
_GAP = 1e-3  # relative duality gap at which the phase-I solve stops
_GROWTH = 30.0  # growth of the phase-I barrier weight per centering
_BAND = 2.0**-27  # relative rounding band of the phase-I dual bound (see _phase_one)
_NECESSARY = 1.0 + 2.0**-26  # float level of the closed-form necessary conditions
_UNDERFLOW = 2.0**-980  # its underflow floor, per unit multiplier weight


@dataclass(frozen=True, eq=False)
class MUserChannel:
    """m-user Gaussian interference channel.

    ``gains[j][i]`` is the power gain from transmitter j to receiver i
    (from, to ordering); diagonal entries are the unit direct gains.
    ``powers[i]`` is the power constraint of user i.
    """

    gains: np.ndarray
    powers: np.ndarray

    def __post_init__(self):
        gains = np.array(self.gains, dtype=float)
        powers = np.array(self.powers, dtype=float)
        if gains.ndim != 2 or gains.shape[0] != gains.shape[1]:
            raise ValueError(f"gains must be a square matrix, got shape {gains.shape}")
        m = gains.shape[0]
        if m < 1:
            raise ValueError("need at least one user")
        if powers.shape != (m,):
            raise ValueError(
                f"powers must have length {m}, got shape {powers.shape}"
            )
        if not np.all(np.isfinite(gains)) or not np.all(np.isfinite(powers)):
            raise ValueError("gains and powers must be finite")
        if np.any(np.diag(gains) != 1.0):
            raise ValueError("diagonal gain entries must be exactly 1")
        if np.any(gains < 0):
            raise ValueError("gains must be nonnegative")
        if np.any(powers <= 0):
            raise ValueError("powers must be strictly positive")
        gains.setflags(write=False)
        powers.setflags(write=False)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "powers", powers)

    @property
    def m(self) -> int:
        return self.gains.shape[0]

    @classmethod
    def from_two_user(cls, ch: TwoUserChannel) -> "MUserChannel":
        """Embed a 2-user channel: c_21 = a (tx 2 -> rx 1), c_12 = b."""
        return cls(
            gains=np.array([[1.0, ch.b], [ch.a, 1.0]]),
            powers=np.array([ch.p1, ch.p2]),
        )

    @classmethod
    def symmetric(cls, m: int, c: float, p: float) -> "MUserChannel":
        """Uniformly symmetric channel: every crosstalk gain c, every power p."""
        gains = np.full((m, m), float(c))
        np.fill_diagonal(gains, 1.0)
        return cls(gains=gains, powers=np.full(m, float(p)))

    def is_uniform(self) -> bool:
        """True when all off-diagonal gains and all powers are identical."""
        if self.m == 1:
            return True
        off = self.gains[~np.eye(self.m, dtype=bool)]
        return bool(np.all(off == off[0]) and np.all(self.powers == self.powers[0]))


def m_user_interference_powers(ch: MUserChannel) -> np.ndarray:
    """Total interference power Q_i = sum_{j != i} c_ji * P_j at each receiver,
    summed over the crosstalk gains alone: subtracting c_ii P_i from the full
    sum would cancel catastrophically when P_i dwarfs Q_i."""
    return (ch.gains - np.diag(np.diag(ch.gains))).T @ ch.powers


def _above_uniform_cut(m: int, c: float) -> bool:
    """Uniform gain c > 1/(4(m-1)) exactly: no positive power admits noisy interference."""
    n, d = float(c).as_integer_ratio()
    return 4 * (m - 1) * n > d


def symmetric_threshold(m: int, c: float) -> float:
    """Largest power P admitting noisy interference for the uniformly
    symmetric m-user channel with crosstalk gain c:

        P* = (sqrt((m-1)c) - 2(m-1)c) / (2 (m-1)^2 c^2)

    when c <= 1/(4(m-1)); zero otherwise (no positive power qualifies).
    Where s = (m-1)c has s^2 below the least normal float, it is evaluated
    as ((1 - 2 sqrt(s))/(2s))/sqrt(s), whose steps stay normal until P*
    itself overflows (near s = 2e-206); ValueError where it does, and where
    m itself overflows a float.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    _check_finite_pos("gain", c)
    try:
        s = (m - 1) * c
    except OverflowError:  # an int m past the float range
        raise ValueError(f"the user count overflows a float ({m.bit_length()} bits)") from None
    if _above_uniform_cut(m, c):
        return 0.0
    if s * s >= sys.float_info.min:
        return (math.sqrt(s) - 2.0 * s) / (2.0 * s * s)
    root = math.sqrt(s)
    p_star = (1.0 - 2.0 * root) / (2.0 * s) / root
    if math.isinf(p_star):
        raise ValueError(f"the power threshold overflows a float at m={m}, c={c}")
    return p_star


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
    return _tin_sum(ch.powers, m_user_interference_powers(ch))


def _tin_sum(powers: np.ndarray, q: np.ndarray) -> float:
    """sum_i 0.5*log2(1 + P_i/(1 + Q_i)) from the powers and the Q_i, by fsum."""
    return math.fsum(_rate(p / (1.0 + x)) for p, x in zip(powers.tolist(), q.tolist()))


class _Conditions:
    """Both condition families of one channel.

    The terms free of rho (Q, the off-diagonal gains c_ij, (1 + Q)^2 and the
    weight matrices M1, M2) are computed once.  Family f's LHS is the product
    of a table of rho terms with its weight matrix M_f, and its RHS is
    elementwise in rho; ``_terms`` is the one place those rho formulas live.
    ``slacks`` evaluates them at u = rho^2 of vectors laid out as columns,
    for the oracle's grid slabs and, one column at a time, for the probes
    and the phase-I solve; their derivatives sit next to it
    (``_curvature``).

    A channel whose Q, (1 + Q)^2 or first-family weights
    W_i = sum_j M1[j, i] overflow is refused with a ValueError: an infinite
    (1 + Q_j)^2 times a zero gain is nan, and an infinite weight sum makes
    LHS_i infinite at every rho (each 1/rho_j^2 > 1), so no probe could be
    compared.  The W_i are kept (``weights``) for the receiver test of
    ``_necessary_bound``.
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
            self.weights = self.m1.sum(axis=0)
        if not np.isfinite(self.weights).all():
            raise ValueError(
                "condition weights overflow: sum_j c_ji (1 + Q_j)^2 exceeds the "
                f"float range (largest interference power Q = {self.q.max():g})"
            )
        # Second family: M2[j, i] = c_ij, LHS_i = sum_j M2[j, i] / (1 + Q_j - rho_j^2).
        self.m2 = self.gains_offdiag.T

    def _terms(self, u: np.ndarray) -> tuple[np.ndarray, ...]:
        """The rho terms of u = rho^2 values, elementwise: the LHS factors
        1/u and 1/(1 + Q - u) of the two families, then their RHS 1 - u and
        1/(P + (1 + Q)^2/u).  ``u`` is an (m, n) array with one vector per
        column.  The denominators 1 + Q - u are positive since u < 1."""
        one_q, powers = self.one_q[:, None], self.powers[:, None]
        one_q_sq = self.one_q_sq[:, None]
        inv_u = 1.0 / u
        return (
            inv_u,
            1.0 / (one_q - u),
            1.0 - u,
            1.0 / (powers + one_q_sq * inv_u),
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

    def slacks(self, u: np.ndarray) -> np.ndarray:
        """The (2, m, n) slacks at u = rho^2 of the n vectors that are the
        columns of an (m, n) array: family 1, then family 2.  Every
        elementwise loop runs along n, and the weights multiply from the
        left; an (n, m) layout would broadcast the (m,) terms over rows of m
        entries."""
        slacks = np.empty((2,) + u.shape)
        # An LHS past the float range is an inf slack, and a u of 1 + Q an inf or nan one.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            inv_u, inv_den, rhs1, rhs2 = self._terms(u)
            np.subtract(self.m1.T @ inv_u, rhs1, out=slacks[0])
            np.subtract(self.m2.T @ inv_den, rhs2, out=slacks[1])
        return slacks

    def at(self, rho: np.ndarray) -> np.ndarray:
        """The (m, 2) slacks of one rho vector."""
        return self.slacks((rho * rho)[:, None])[:, :, 0].T.copy()


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


def _verdict_from_probe(
    model: _Conditions,
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
        sum_capacity=_tin_sum(model.powers, model.q) if feasible else None,
        slacks=slacks,
        max_slack=max_slack,
        best_probe=None if feasible else rho_t,
        provably_infeasible=provably_infeasible,
        note=note,
    )


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
    (_, c12), (c21, _) = model.gains_offdiag.tolist()
    if _noisy_sign(c21, c12, *model.powers.tolist())[0] >= 0:
        return None
    roots = _pair_roots(model)
    big_a, big_b = roots[1, 0], roots[0, 1]
    s = 0.5 * ((1.0 - big_a) - big_b)
    return np.sqrt([big_b + s, big_a + s])


def _pair_roots(model: _Conditions) -> np.ndarray:
    """R[j, i] = sqrt(c_ji)(1 + Q_j), zero on the diagonal.  For users
    i != j, A = R[j, i] and B = R[i, j] are the pair's terms of the
    Cauchy-Schwarz step in ``_two_user_seed``."""
    return np.sqrt(model.gains_offdiag) * model.one_q[:, None]


def _necessary_bound(model: _Conditions) -> float:
    """The larger of max_{i != j} (A + B) and max_i W_i, in floats.  With b
    its exact value, the max slack s at every u = rho^2 in (0, 1)^m is at
    least b - 1; ``find_rho`` skips the solve when the float value exceeds
    _NECESSARY = 1 + 2^-26.

    * Pair test.  Rows i and j of family 1, with their other terms (all
      >= 0) dropped, read A^2/u_j <= 1 - u_i + s and B^2/u_i <= 1 - u_j + s,
      so both right sides are >= 0 and, by Cauchy-Schwarz,

          A + B <= sqrt(u_j (1 - u_i + s)) + sqrt(u_i (1 - u_j + s)) <= 1 + s:

      the step of ``_two_user_seed``, carried with the slack s.
    * Receiver test.  Row i of family 1 is
      g_i(u) = sum_j c_ji (1 + Q_j)^2/u_j - (1 - u_i) > W_i - 1, since
      every 1/u_j > 1 and u_i > 0; W_i are the model's ``weights``.

    Margin.  In the notation of the ``_phase_one`` docstring, 1 + Q_j
    carries gamma_{m+1}, the correctly rounded sqrt(c_ji) and the product
    one rounding each, and the sum A + B one more, so the float A + B is
    (A + B)(1 + theta) with |theta| <= gamma_{m+4}.  W_i sums m terms
    c_ji K_j of 2m + 4 each, in any order, so it carries gamma_{3m+3}.
    With m <= 16 both are below 2^-47, so a float value above 1 + 2^-26
    proves an exact value above (1 + 2^-26)(1 - 2^-47) > 1 + 2^-27: the
    max slack exceeds 2^-27 at every rho in (0, 1)^m.  A product that
    underflows errs by at most 2^-1075, which that surplus absorbs.
    Every point ``find_rho`` accepts has exact slacks below 2^-28
    (``_phase_one``, accepted points), so when the bound fires no such
    point exists and the verdict is the one the solve would reach.
    """
    roots = _pair_roots(model)
    return float(max((roots + roots.T).max(), model.weights.max()))


def _heuristic_seed(model: _Conditions) -> np.ndarray:
    """Per-user balance of family 1's column weights, the start of the solve.

    In u = rho^2, user j's term 1/u_j enters row i of family 1 with weight
    M1[j, i] = c_ji (1 + Q_j)^2, so summed over the receivers family 1 reads
    sum_j (o_j (1 + Q_j)^2/u_j - (1 - u_j)) <= 0, with o_j = sum_i c_ji the
    gain out of transmitter j.  Each summand is least at

        u_j = sqrt(o_j) (1 + Q_j),

    clipped into [_RHO_MIN, _RHO_MAX].  A user that sends no interference
    gets the floor, and one that receives none is still sized by what it
    sends.  On a uniform channel o_j = (m-1)c, and both families reduce
    to (m-1)c (1 + Q)^2/rho^2 <= 1 - rho^2, least at this common rho.
    """
    out = model.gains_offdiag.sum(axis=1)  # total gain out of each transmitter
    rho_sq = np.sqrt(np.maximum(out, 1e-300)) * model.one_q
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
    stops at the first witness.  At every iterate, the start included, the
    solve first checks the dual bound below, before it forms the Newton
    system, and returns it as a ``_DualBound`` once it proves that no rho
    in (0, 1)^m meets the conditions.  Otherwise it ends, returning None,
    once a centered point's duality gap n/tau (n = 4m inequalities) is
    within 1e-3 of |t - gap|, which covers least max slacks t* near 0,
    where no dual bound is positive; or when Newton stalls.

    Dual bound.  Let W = sum_k w_k at a point u_c, and L = sum_k w_k g_k / W.
    Every g_k is convex on (0, 1)^m, so L is, max_k g_k >= L, and L lies
    above its tangent plane at u_c.  The plane's least value over the box
    [0, 1]^m bounds the max slack at every u in (0, 1)^m:

        max_k g_k(u) >= lb = (w.g + sum_j min(-s_j u_j, s_j (1 - u_j))) / W,

    where g = g(u_c) and s = w @ J, J = ``jac[:, :m]`` the slacks' Jacobian
    at u_c.  Any w >= 0 is valid, so the bound holds at every iterate, not
    only at centered ones; centering puts lb near t*.

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
    * Size.  Every iterate, the start (u <= 0.9) included, keeps
      u < U_MAX, and ``find_rho`` evaluates u' = fl(sqrt(u)^2) <=
      U_MAX (1 + eps)^3 < 1 - 2^-19, so kappa < 2^19 at every iterate and
      every point the model is evaluated; with m <= 16, N* < 2^25 and
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
    jac = np.empty((2 * m, m + 1))  # G: family 1 rows, then family 2, as in slacks
    jac[:, m] = -1.0
    slack_jac = jac[:, :m]
    hess = np.empty((m + 1, m + 1))
    d = np.arange(m)

    def barrier(u: np.ndarray, t: float, g: np.ndarray) -> float:
        return -float(np.log(t - g).sum() + np.log((u - _U_MIN) * (_U_MAX - u)).sum())

    u = np.minimum(start * start, 0.9)
    with np.errstate(all="ignore"):
        g = model.slacks(u[:, None]).ravel()
        t = g.max() + max(1.0, abs(g.max()))
        tau = float((1.0 / (t - g)).sum())
        phi = barrier(u, t, g)
    for _ in range(_NEWTON_STEPS):
        # Overflow or nan ends the solve as a stall; no yield happens in here.
        with np.errstate(all="ignore"):
            w = 1.0 / (t - g)
            slope, curve = model._curvature(u)
            jac[:m, :m] = model.m1.T * slope[0]
            jac[d, d] += 1.0
            jac[m:, :m] = model.m2.T * slope[1]
            jac[m + d, d] -= slope[2]
            # The dual bound times W, against its rounding band.
            s = w @ slack_jac
            total = float(w.sum())
            scaled_lb = float(w @ g + np.minimum(-s * u, s * (1.0 - u)).sum())
            band = _BAND * float(
                w @ (np.abs(g) + 4.0) + w @ np.abs(slack_jac).sum(axis=1)
            ) + _UNDERFLOW * (total + 1.0)
            if scaled_lb > band:
                return _DualBound(u, w, scaled_lb / total)
            low, high = u - _U_MIN, _U_MAX - u
            grad = w @ jac
            grad[:m] += 1.0 / high - 1.0 / low
            grad[m] += tau
            scaled = w[:, None] * jac
            np.matmul(scaled.T, scaled, out=hess)
            hess[d, d] += (
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
                gap = 4 * m / tau
                if gap <= _GAP * abs(t - gap):
                    break
                tau *= _GROWTH
                continue
            value = tau * t + phi
            size = 1.0
            while size > 1e-12:
                u_new, t_new = u + size * step[:m], t + size * step[m]
                if ((u_new > _U_MIN) & (u_new < _U_MAX)).all():
                    g_new = model.slacks(u_new[:, None]).ravel()
                    if (g_new < t_new).all():
                        phi_new = barrier(u_new, t_new, g_new)
                        if tau * t_new + phi_new <= value - 0.25 * size * decrement:
                            break
                size *= 0.5
            else:
                break  # Newton stalls
            u, t, g, phi = u_new, t_new, g_new, phi_new
        yield np.sqrt(u)


def find_rho(ch: MUserChannel) -> MUserVerdict:
    """Search for a rho vector satisfying both condition families.

    Probe order, one path for every m: the m = 2 closed form (a witness
    iff A + B < 1, see ``_two_user_seed``), the per-user outgoing-gain
    heuristic (``_heuristic_seed``; a witness at m = 1), then the phase-I
    barrier solve of the convex program in u = rho^2 (``_phase_one``),
    started at the heuristic.  Every probe is decided on its one-point
    slacks, the check ``check_conditions`` makes.  At m = 2 the closed form
    decides: for A + B >= 1 no witness exists and the solve is skipped.
    For m > 2 the solve is skipped when the pair or receiver test of
    ``_necessary_bound`` proves that the max slack exceeds 2^-27 at every
    rho in (0, 1)^m.  So for m > 2 a 'not found' verdict means that one of
    those tests, or a dual bound at an iterate of the solve, proved that
    no rho in (0, 1)^m meets the conditions, unless Newton stalled or the
    solve ended on its fallback rule for a least max slack t* near 0, a
    relative duality gap of 1e-3.  ``best_probe`` is then the probe of
    least max slack visited, the heuristic wherever the solve is skipped.
    Only uniform channels whose gain exceeds 1/(4(m-1)), where the
    common-rho reduction is both necessary and sufficient, are marked
    ``provably_infeasible``.  Over the benchmark's m-user pool, the pair
    and receiver tests settle 40 of the 48 infeasible m > 2 channels; the
    other 8 average 11.4 Newton steps (4 of them stop at the start point,
    with none), and the 2 feasible channels that need the solve 16.
    """
    if ch.m > 16:
        raise ValueError(f"find_rho supports m <= 16, got m={ch.m}")
    model = _Conditions(ch)
    heuristic = _heuristic_seed(model)
    closed_form = _two_user_seed(model)

    def probes() -> Iterator[np.ndarray]:
        if closed_form is not None:
            yield closed_form
        yield heuristic
        # On m = 2, A + B >= 1 already proves that no witness exists; for
        # m > 2 the pair and receiver tests can prove it.
        proven = closed_form is None if ch.m == 2 else _necessary_bound(model) > _NECESSARY
        if not proven:
            yield from _phase_one(model, heuristic)

    best_rho = best_slacks = best_max = None
    for rho in probes():
        slacks = model.at(rho)
        max_slack = slacks.max()
        if max_slack <= 0.0:
            return _verdict_from_probe(model, rho, slacks)
        # A nan best (u = 1 in floats) gives way to any later probe.
        if best_slacks is None or max_slack < best_max or np.isnan(best_max):
            best_rho, best_slacks, best_max = rho, slacks, max_slack

    provable = ch.is_uniform() and _above_uniform_cut(ch.m, ch.gains[0, 1])
    note = "provably infeasible by the symmetric reduction" if provable else ""
    return _verdict_from_probe(
        model, best_rho, best_slacks, provably_infeasible=provable, note=note
    )


def oracle_grid_feasibility(ch: MUserChannel, resolution: int) -> MUserVerdict:
    """Exhaustive feasibility check over the grid rho_i in {k/(res+1)}.

    Brute-force oracle behind ``gicbounds murate --oracle-resolution`` and a
    cross-check in the tests.  It refuses m > 4 users or a resolution
    outside [1, 64], which keeps the resolution^m grid bounded.
    The scan order is lexicographic, so the returned witness (first
    feasible point) is deterministic; with none, the probe is the first
    point of least max slack.  The grid is scanned in slabs, one model call
    per value of the first coordinate, up to the first feasible slab.  That
    a point's slacks do not depend on the slab width rests on the BLAS
    kernels, not on a proof; the tests compare the scan with one call on
    the whole grid, with ==.
    """
    if ch.m > 4:
        raise ValueError(f"oracle supports m <= 4, got m={ch.m}")
    if resolution > 64 or resolution < 1:
        raise ValueError(f"resolution must be in [1, 64], got {resolution}")
    axis = np.arange(1, resolution + 1, dtype=float) / (resolution + 1)
    model = _Conditions(ch)
    # One grid point per column, as the model's column layout takes them.
    slab = _grid_point(axis, ch.m, np.arange(resolution ** (ch.m - 1)))
    best = None  # max slack, rho and slacks of the first point of least max slack
    for value in axis:
        slab[0] = value
        slacks = model.slacks(slab * slab)
        max_slack = slacks.reshape(2 * ch.m, -1).max(axis=0)
        feasible = max_slack <= 0.0
        if feasible.any():
            idx = int(np.argmax(feasible))
            return _verdict_from_probe(model, slab[:, idx], slacks[:, :, idx].T.copy())
        idx = int(np.argmin(max_slack))
        if best is None or max_slack[idx] < best[0]:
            best = max_slack[idx], slab[:, idx].copy(), slacks[:, :, idx].T.copy()
    return _verdict_from_probe(model, best[1], best[2])
