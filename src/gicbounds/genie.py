"""Weighted-sum-rate outer bounds for the two-user channel.

Three families of supporting lines R1 + w*R2 <= v are computed:

* MU: a genie gives each receiver a noisy look at its own transmit signal
  (correlation rho_i, variance sigma_i^2); the bound is minimized over the
  four genie parameters subject to a weight-dependent feasibility box, the
  two variances solved at each pair of correlations and the correlations
  by a search.
* ETA1 / ETA2: a genie hands one receiver the other transmitter's signal,
  reducing the channel to a one-sided one; the bounds are closed forms in
  the weight, valid on a bounded weight interval.

All values are bits per channel use.  Every function here is pure; the
optimizer is deterministic (fixed probe order, no randomness), so repeated
calls yield identical certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .capacity import _certificate
from .channel import GenieParams, TwoUserChannel, _check_finite_pos, _gap, single_user_capacities
from .channel import _rate, sigma_feasible

__all__ = [
    "SupportingLine",
    "WeightKind",
    "effective_powers",
    "eval_constraint1",
    "optimize_constraint1",
    "optimize_constraint1_many",
    "eval_constraint2",
    "eval_constraint3",
    "eta1_range",
    "eta2_range",
    "sum_upper_bound",
    "sum_upper_bounds",
    "user1_genie_bound",
]


class WeightKind(str, Enum):
    MU = "MU"
    ETA1 = "ETA1"
    ETA2 = "ETA2"


@dataclass(frozen=True)
class SupportingLine:
    """One weighted-sum-rate constraint R1 + weight*R2 <= value.

    The certificate depends on the family: MU lines carry the minimizing
    genie parameters and the effective powers at which the bound was
    evaluated; ETA lines carry the intermediate power p_tilde of the
    one-sided reduction.
    """

    kind: WeightKind
    weight: float
    value: float
    genie: GenieParams | None = None
    effective: tuple[float, float] | None = None
    p_tilde: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"supporting line value must be finite, got {self.value}")
        if self.kind is WeightKind.MU and self.genie is None:
            raise ValueError("MU lines require a genie certificate")
        if self.kind is not WeightKind.MU:
            if self.p_tilde is None or self.p_tilde < 0:
                raise ValueError("ETA lines require p_tilde >= 0")


def _require_regime(ch: TwoUserChannel) -> None:
    if not (0.0 < ch.a < 1.0 and 0.0 < ch.b < 1.0):
        raise ValueError(
            f"MU bound requires 0 < a < 1 and 0 < b < 1, got a={ch.a}, b={ch.b}"
        )


def _genie_point(gp: GenieParams) -> np.ndarray:
    return np.array([gp.rho1, gp.rho2, gp.sigma1_sq, gp.sigma2_sq])


def _objective_at(
    ch: TwoUserChannel, mu: float, gp: GenieParams
) -> tuple["_MuObjective", np.ndarray]:
    """The MU objective of ``ch`` at weight ``mu``, and ``gp`` as its point,
    in the objective's (free user, capped user) order; ValueError outside
    the MU regime or the feasibility box."""
    _require_regime(ch)
    if not sigma_feasible(ch, mu, gp):
        raise ValueError("genie parameters are outside the feasibility box")
    objective = _MuObjective(ch.a, ch.b, ch.p1, ch.p2, mu)
    return objective, _with_gaps(objective.order(_genie_point(gp)))


def effective_powers(
    ch: TwoUserChannel, mu: float, gp: GenieParams
) -> tuple[float, float]:
    """Effective powers (p1_star, p2_star) at which the extremal-inequality
    step of the MU bound is tight.

    For mu >= 1, p1_star decreases piecewise in sigma1_sq from p1 to 0
    (mirror image in sigma2_sq for mu < 1); the other power stays at its
    constraint.  At mu == 1 the sloped middle branch degenerates to a point
    and only the two outer branches remain.
    """
    objective, x = _objective_at(ch, mu, gp)
    with np.errstate(all="ignore"):
        p1_star, p2_star = objective.order(objective.effective(x))
    return float(p1_star), float(p2_star)


def eval_constraint1(ch: TwoUserChannel, mu: float, gp: GenieParams) -> float:
    """MU-family bound on R1 + mu*R2 at one feasible genie parameter point
    (no minimization).  Returns +inf at degenerate boundary parameters."""
    objective, x = _objective_at(ch, mu, gp)
    with np.errstate(all="ignore"):
        return float(objective(x))


def user1_genie_bound(ch: TwoUserChannel, rho1: float, sigma1: float) -> float:
    """Genie bound on user 1's rate alone, at full powers:

        0.5*log2(1 + p1/sigma1^2) - 0.5*log2(a*p2 + 1 - rho1^2)
      + 0.5*log2(1 + p1 + a*p2 - (p1 + rho1*sigma1)^2/(p1 + sigma1^2))

    For fixed rho1 this is minimized over sigma1 at rho1*sigma1 = 1 + a*p2,
    where it equals user 1's single-user-detection rate.  +inf where a log
    argument is <= 0 or a term overflows.  rho1 must lie in [0, 1] and
    sigma1 be finite and > 0, as in ``GenieParams``.
    """
    if not 0.0 <= rho1 <= 1.0:
        raise ValueError(f"rho1 must lie in [0, 1], got {rho1}")
    _check_finite_pos("sigma1", sigma1)
    with np.errstate(all="ignore"):
        share = _user_share(ch.p1, ch.p1, ch.a, ch.p2, ch.p2, rho1, _gap(rho1), sigma1 * sigma1)
    return float(0.5 * share) if np.isfinite(share) else math.inf


# ---------------------------------------------------------------------------
# closed-form families (one-sided reductions)
# ---------------------------------------------------------------------------


def eta1_range(ch: TwoUserChannel) -> tuple[float, float]:
    """Admissible weight interval [(1+b*p1)/(b+b*p1), 1/b] for the ETA1 family,
    whose top is +inf at b <= 2^-1024; ValueError where its bottom is too."""
    if not 0.0 < ch.b < 1.0:
        raise ValueError(f"ETA1 family requires 0 < b < 1, got b={ch.b}")
    lo = (1.0 + ch.b * ch.p1) / (ch.b + ch.b * ch.p1)
    if lo == math.inf:
        raise ValueError(f"the ETA1 weights, up to 1/b, overflow a float at b={ch.b}")
    return lo, 1.0 / ch.b


def eta2_range(ch: TwoUserChannel) -> tuple[float, float]:
    """Admissible weight interval [a, (a+a*p2)/(1+a*p2)] for the ETA2 family."""
    if not 0.0 < ch.a < 1.0:
        raise ValueError(f"ETA2 family requires 0 < a < 1, got a={ch.a}")
    return ch.a, (ch.a + ch.a * ch.p2) / (1.0 + ch.a * ch.p2)


def _check_weight(w: float, lo: float, hi: float, name: str) -> None:
    tol = 1e-12 * max(1.0, abs(lo), abs(hi))
    if not (lo - tol <= w <= hi + tol):
        raise ValueError(f"{name}={w} outside admissible range [{lo}, {hi}]")


def eval_constraint2(ch: TwoUserChannel, eta1: float) -> SupportingLine:
    """Closed-form bound R1 + eta1*R2 <= 0.5*log2(1 + p1_tilde)
    - (eta1/2)*log2(1 + b*p1_tilde) + (eta1/2)*log2(1 + b*p1 + p2),
    where p1_tilde = (b*eta1 - 1)/(b - b*eta1).

    p1_tilde runs from p1 at the lower weight endpoint down to 0 at 1/b.
    """
    lo, hi = eta1_range(ch)
    _check_weight(eta1, lo, hi, "eta1")
    # Recovering p1_tilde from a weight near 1 is ill-conditioned (the
    # identity p1_tilde(lo) = p1 loses ~b*p1/(1-b) digits), so the two
    # distinguished endpoint weights are evaluated by their exact algebra.
    if eta1 == lo:
        p1_tilde = ch.p1
    elif eta1 == hi:
        p1_tilde = 0.0
    else:
        p1_tilde = (ch.b * eta1 - 1.0) / (ch.b - ch.b * eta1)
        if p1_tilde < 0.0:  # roundoff at the range edges
            p1_tilde = 0.0
    value = _rate(p1_tilde) - eta1 * _rate(ch.b * p1_tilde) + eta1 * _rate(ch.b * ch.p1 + ch.p2)
    return SupportingLine(
        kind=WeightKind.ETA1, weight=eta1, value=value, p_tilde=p1_tilde
    )


def eval_constraint3(ch: TwoUserChannel, eta2: float) -> SupportingLine:
    """Closed-form bound R1 + eta2*R2 <= 0.5*log2(1 + p1 + a*p2)
    - 0.5*log2(1 + a*p2_tilde) + (eta2/2)*log2(1 + p2_tilde),
    where p2_tilde = (a - eta2)/(a*eta2 - a).

    p2_tilde runs from 0 at eta2 = a up to p2 at the upper weight endpoint.
    """
    lo, hi = eta2_range(ch)
    _check_weight(eta2, lo, hi, "eta2")
    # Mirror of the ETA1 endpoint handling: exact algebra at the two
    # distinguished weights, general formula in between.
    if eta2 == lo:
        p2_tilde = 0.0
    elif eta2 == hi:
        p2_tilde = ch.p2
    else:
        p2_tilde = (ch.a - eta2) / (ch.a * eta2 - ch.a)
        if p2_tilde < 0.0:
            p2_tilde = 0.0
    value = _rate(ch.p1 + ch.a * ch.p2) - _rate(ch.a * p2_tilde) + eta2 * _rate(p2_tilde)
    return SupportingLine(
        kind=WeightKind.ETA2, weight=eta2, value=value, p_tilde=p2_tilde
    )


# ---------------------------------------------------------------------------
# MU-family minimization
# ---------------------------------------------------------------------------

_GRID_POINTS = 16  # correlations on each side of the probe grid
_RHO_MAX = 1.0 - 1e-6
_VARIANCE_FLOOR = 1.0000000000000002e-06  # least variance of a boxed point: 1e-4 * 1e-2
_FIRST_STEP = 0.15  # first step of a pattern-search lane
_STEP_FLOOR = 1e-10  # step below which a pattern-search lane stops
_POLL_CAP = 300  # most polls of one pattern-search lane
_NEWTON_REACH = math.log(4.0)  # longest Newton step of the free variance, in log
_PROBE_STEPS = 4  # Newton steps at a probe, from s_A = 1; a lane takes 1 per poll
_CAP_SHRINK = 1.0 - 2.0**-50  # rounds a float variance cap into the exact box
_MAX_SHRINKS = math.floor(math.log(_FIRST_STEP / _STEP_FLOOR, 4))  # shrinks of a live lane
# Most points (18 a lane) of a search call that also polls as if each poll fails.  Weight-1
# calls of 117, 234, 1,008 and 2,016 points took 136, 161, 244 and 354 us (2-core Xeon):
# doubling a poll costs x1.19 when small but x1.45, and twice the memory, past 1,000 points.
_SPECULATE_POINTS = 1024
_PROBE_REQUESTS = 33  # most requests of a probe call; see ``_mu_lines``


# The pattern search's 8 unit moves, as columns: the 4 axis moves, then the 4
# diagonals.  Each poll adds one more, twice the lane's last accepted move.
_POLL = np.array([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)], dtype=float).T
# ``_probe_starts``' 16 x 16 correlation pairs, in ``place``'s coordinates
# (r_A, r_B*sqrt(1 - r_A^2)).
_R, _RHO = np.array(np.meshgrid(*[np.linspace(0.0, _RHO_MAX, _GRID_POINTS)] * 2, indexing="ij"))
_PROBES = np.array([_R, _RHO * np.sqrt(_gap(_R))]).reshape(2, -1)
for _array in (_POLL, _PROBES):
    _array.setflags(write=False)  # shared by every call, in every thread
del _array, _R, _RHO
# The constants of a _MuObjective with one value per entry: its ``table``.
_ENTRY_VALUES = ("p_a", "p_b", "g_a", "g_b", "w_a", "w_b", "c", "d", "off", "den", "tight_a", "tight_b",
                 "excess", "roof")


def _mirror(mirrored, first, second):
    """(first, second) at the entries not ``mirrored``, else (second, first);
    not broadcast against ``mirrored`` where all its entries agree, so that
    terms free of it keep their own shape."""
    if not mirrored.any():
        return first, second
    if mirrored.all():
        return second, first
    return np.where(mirrored, second, first), np.where(mirrored, first, second)


def _with_gaps(x: np.ndarray) -> np.ndarray:
    """Points (r_A, r_B, s_A, s_B) with rows 1 - r_A^2 and 1 - r_B^2 added:
    the points a _MuObjective takes."""
    return np.concatenate([x, _gap(x[:2])])


class _MuObjective:
    """The MU objective, entry by entry, of channels (a, b, p1, p2) at
    weights ``mu``: the one implementation of the MU bound, used by the
    search and, at one point, by ``eval_constraint1``, ``effective_powers``
    and (through ``_user_share``) ``user1_genie_bound``.

    Each entry orders its users as (A, B): the free user A, whose effective
    power moves, and the capped user B, whose variance the box caps.  A is
    user 1 for mu >= 1 and user 2 for mu < 1 (the ``mirrored`` entries).
    Exchanging the users maps one side of weight 1 to the other: the bound
    of the channel (b, a, p2, p1) at weight 1/mu, times mu, is the bound at
    mu.  So with each entry's constants in its own order (powers p_A, p_B,
    gains g_A, g_B, user 1's being a, share weights w_A, w_B, and those of
    ``effective``) one code path serves both sides.  ``order`` maps rows in
    user order to this order and back.

    Points are arrays with rows (r_A, r_B, s_A, s_B, 1 - r_A^2, 1 - r_B^2),
    or one such column, or ``place``'s list of rows.  The constants broadcast
    against a row: scalars at one point, a column of requests for a probe
    call, or one value per lane and move of the search.
    Each entry is bit-for-bit the value of a one-point call on its own
    channel: its constants take the same operations in the same order.

    A call is the one way to evaluate it, at points of the feasibility box
    only: the search ``place``s every point it probes or polls, and the
    one-point callers check theirs with ``sigma_feasible``.  Callers ignore
    numpy's floating-point warnings, which its +inf cases raise.
    """

    def __init__(self, a, b, p1, p2, mu):
        mu = np.asarray(mu, dtype=float)
        self.mirrored = mu < 1.0
        self.one = mu == 1.0  # no sloped branch in the effective power; see ``effective``
        self.any_one, self.all_one = bool(self.one.any()), bool(self.one.all())
        self.p_a, self.p_b = _mirror(self.mirrored, p1, p2)
        self.g_a, self.g_b = _mirror(self.mirrored, a, b)
        self.w_a, self.w_b = _mirror(self.mirrored, 0.5, 0.5 * mu)
        b_mu = b * mu
        self.c = np.where(self.mirrored, mu, 1.0)
        self.d = np.where(self.mirrored, a, b_mu)
        self.off = np.where(self.mirrored, (mu - 1.0) * p2, (1.0 - mu) * p1 / mu)
        self.den = np.where(self.mirrored, a - a * mu, b_mu - b)
        # 1 + g_A*p_B, 1 + g_B*p_A, max(mu, 1/mu) - 1 and s_A's roof; see ``place``, ``_boxed``.
        self.tight_a = self.g_a * self.p_b + 1.0
        self.tight_b = self.g_b * self.p_a + 1.0
        self.excess = np.where(self.mirrored, 1.0 / mu, mu) - 1.0
        self.roof = 2.0**1000 / (self.p_a + self.tight_a)

    @classmethod
    def of(cls, requests) -> "_MuObjective":
        """One entry per (channel, mu) request."""
        return cls(*np.array([(ch.a, ch.b, ch.p1, ch.p2, mu) for ch, mu in requests]).T)

    def order(self, x) -> np.ndarray:
        """Rows of ``x`` in pairs (user 1, user 2) as pairs (A, B), or pairs
        (A, B) as pairs (user 1, user 2): the map is its own inverse."""
        return np.array([v for pair in zip(x[::2], x[1::2]) for v in _mirror(self.mirrored, *pair)])

    def take(self, idx) -> "_MuObjective":
        """The entries ``idx`` of an objective with one entry per request or
        lane.  Both sides of weight 1 share the gathered rows of ``table``,
        built once: each entry's constants are already in its own (A, B) order."""
        if "table" not in vars(self):
            self.table = np.array(np.broadcast_arrays(*(getattr(self, n) for n in _ENTRY_VALUES)))
        sub = object.__new__(_MuObjective)
        # np.take returns C-ordered rows; table[:, idx] would be F-ordered,
        # every row strided.
        sub.__dict__.update(zip(_ENTRY_VALUES, np.take(self.table, idx, axis=1)))
        sub.one = np.take(self.one, idx)
        sub.any_one, sub.all_one = bool(sub.one.any()), bool(sub.one.all())
        return sub

    def _boxed(self, r_a, r_b, s_a, s_b, gap_a, gap_b) -> list:
        """The rows of the points at correlations in [0, _RHO_MAX], their
        gaps, and the variances above a floor, s_B below its cap (1 -
        r_A^2)/g_A and s_A below its roof, where s_A*(p_A + k_A) < 2^1000
        keeps A's share finite.

        The cap is rounded down into the exact box: 1 - r, 1 + r, their
        product and the quotient are rounded once each at most, so the float
        (1 - r)*(1 + r)/g is at most (1 + u)^4 times the exact cap, u =
        2^-53, and _CAP_SHRINK = 1 - 8u leaves (1 + u)^5*(1 - 8u) < 1."""
        cap = gap_a / self.g_a * _CAP_SHRINK
        s_a = np.minimum(np.maximum(s_a, _VARIANCE_FLOOR), self.roof)
        s_b = np.minimum(np.maximum(s_b, _VARIANCE_FLOOR), cap)
        return [r_a, r_b, s_a, s_b, gap_a, gap_b]

    def place(self, y: np.ndarray, s_a, swapped, steps: int) -> list:
        """``_boxed``'s rows, two s_A in row 2 (the lower and upper forms), at
        coordinates y = (outer, inner), clipped in place to [0, _RHO_MAX] and
        [0, _RHO_MAX*sqrt(1 - outer^2)]: (r_A, r_B) = (outer, inner/sqrt(1 -
        outer^2)), at most _RHO_MAX, reversed at the entries ``swapped``.

        s_B is ``_boxed`` from ((1 + g_B*p_A)/r_B)^2, the minimizer at fixed
        correlations and s_A.  It, s = sigma^2, enters only B's share, at
        full power p = p_B; with rho = r_B, g = g_B, q = p_A and u = 1/sigma:

            log2(1 + p/s) + log2((p*((sigma - rho)^2 + k) + s*k)/(p + s))
              = log2(p*(1 - rho*u)^2 + p*k*u^2 + k),  k = g*q + 1 - rho^2,

        a quadratic in u, leading coefficient p*(rho^2 + k) > 0, least at
        sigma = (1 + g*q)/rho >= 1, above ``_boxed``'s floor, and monotone on
        either side: so clipped to the cap, the cap at rho = 0.  A's power
        is p_A up to L, linear down to 0 at R, then 0 (``effective``):

        * s_A <= L: A's share has the form of B's (g = g_A, q = p_B), least
          at min(((1 + g_A*p_B)/r_A)^2, L), the lower form.
        * s_A >= R: A's share moves only through k + p*(sigma - rho)^2/(p +
          sigma^2), rho = r_A, whose sigma-derivative 2*(sigma - rho)*(p +
          sigma*rho)/(p + sigma^2)^2 has the sign of sigma - rho: least at
          max(r_A^2, R), the upper form where r_A^2 >= R.
        * L < s_A < R, mu != 1: up to constants and w_A, the objective is
          h(s) = (1 - m)*ln(1 - r_B^2 - g_B*s) - ln s + ln cond_A(s), m =
          max(mu, 1/mu), finite as g_B*s < g_B*R = (1 - r_B^2)/m.  [L, R]
          brackets the ``_middle`` iterates from ``s_a``, the upper form
          where r_A^2 < R, and the outer branches' least values at L or R.

        At mu == 1, L = R and A's power jumps to 0 where ``effective`` finds
        d*s_A > c*(1 - r_B^2); the lower form is at most R*_CAP_SHRINK and
        the upper at least R/_CAP_SHRINK, each on its side by ``_boxed``'s
        rounding bound.  Lanes follow kinks on lines by axis moves: s_B
        leaves its cap at inner = (1 + g_B*p_A)*sqrt(g_A), and, swapped at
        mu == 1, the lower form leaves L at inner = (1 + g_A*p_B)*sqrt(g_B)."""
        outer, inner = y
        np.minimum(np.maximum(outer, 0.0, out=outer), _RHO_MAX, out=outer)
        np.maximum(inner, 0.0, out=inner)
        gap_outer = _gap(outer)
        root = np.sqrt(gap_outer)
        np.minimum(inner, _RHO_MAX * root, out=inner)
        other = np.minimum(inner / root, _RHO_MAX)
        r, rho = _mirror(swapped, outer, other)
        gap_a, gap_b = _mirror(swapped, gap_outer, _gap(other))
        right = self.c * gap_b / self.d
        if self.all_one:  # the weight-1 entries of the general forms, bit for bit
            lower = np.minimum(np.square(self.tight_a / r), right * _CAP_SHRINK)
            upper = np.maximum(r * r, right / _CAP_SHRINK)
        else:
            left = np.maximum(self.off + right, 0.0)
            lower = np.minimum(np.square(self.tight_a / r), left)
            r_sq = r * r
            upper = np.where(r_sq >= right, r_sq, self._middle(s_a, left, right, r, gap_a, gap_b, steps))
            if self.any_one:
                lower = np.where(self.one, np.minimum(lower, right * _CAP_SHRINK), lower)
                upper = np.where(self.one, np.maximum(upper, right / _CAP_SHRINK), upper)
        capped = np.square(self.tight_b / rho)
        return self._boxed(r, rho, np.array([lower, upper]), capped, gap_a, gap_b)

    def _middle(self, s, left, right, rho, gap_a, gap_b, steps):
        """``steps`` Newton steps in ln s, from s clipped into [left, right],
        for the root of ``place``'s s*h'(s) = pull - push + cond - 1, with M =
        p_A*(sigma - rho)^2 + k*(p_A + s) and k = g_A*p_B + 1 - rho^2; where
        that slope falls, a step of ln 4 downhill.  Steps are at most ln 4
        long and iterates clipped into the bracket, a NaN one to its end."""
        p, k, g = self.p_a, self.g_a * self.p_b + gap_a, self.g_b
        s = np.fmin(np.fmax(s, left), right)
        for _ in range(steps):
            sigma, ps = np.sqrt(s), p + s
            room = gap_b - g * s
            pull, push = self.excess * g * s / room, s / ps
            prs, skp = p * rho * sigma, s * (p + k)
            m = p * np.square(sigma - rho) + k * ps
            cond = (skp - prs) / m
            slope = pull - push + cond - 1.0
            curve = pull * gap_b / room - push * p / ps + (skp - 0.5 * prs) / m - cond * cond
            step = -slope / np.maximum(curve, np.abs(slope) / _NEWTON_REACH)
            s = np.fmin(np.fmax(s * np.exp(step), left), right)
        return s

    def solve(self, y: np.ndarray, s_a, swapped=np.False_, steps=1) -> tuple[np.ndarray, np.ndarray]:
        """``place``'s better point at each of ``y``, and its value: one call."""
        x = self.place(y, s_a, swapped, steps)
        val = self(x)
        upper = val[1] < val[0]
        x[2] = np.where(upper, x[2][1], x[2][0])
        return np.array(x), np.where(upper, val[1], val[0])

    def effective(self, x: np.ndarray):
        """Effective powers (A's, B's) at box points ``x``; see
        ``effective_powers``.  B's stays p_B.  A's is p_A up to left =
        max(off + right, 0), then (c*(1 - r_B^2) - d*s_A)/den, down to 0 at
        right = c*(1 - r_B^2)/d, with (c, d, off, den) = (1, b*mu, (1 -
        mu)*p1/mu, b*mu - b) for mu >= 1 and (mu, a, (mu - 1)*p2, a - a*mu),
        those of the mirror at 1/mu scaled by mu, for mu < 1.  At mu == 1 it
        is p_A where g_B*s_A <= 1 - r_B^2, else 0."""
        s_a = x[2]
        cg = self.c * x[5]
        ds = self.d * s_a
        unit = np.where(ds <= cg, self.p_a, 0.0) if self.any_one else None
        if self.all_one:
            return unit, self.p_b
        right = cg / self.d
        left = np.maximum(self.off + right, 0.0)
        p_a = np.where(s_a <= left, self.p_a, np.where(s_a <= right, (cg - ds) / self.den, 0.0))
        return (p_a if unit is None else np.where(self.one, unit, p_a)), self.p_b

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Objective values at points ``x``, which must lie in the box: put
        them there with ``place`` or check them with ``sigma_feasible``.
        Points at degenerate parameters come out +inf."""
        r_a, r_b, s_a, s_b, gap_a, gap_b = x
        p_a, p_b = self.effective(x)
        val = self.w_a * _user_share(
            self.p_a, p_a, self.g_a, self.p_b, p_b, r_a, gap_a, s_a
        ) + self.w_b * _user_share(
            self.p_b, p_b, self.g_b, self.p_a, p_a, r_b, gap_b, s_b
        )
        return np.where(np.isfinite(val), val, np.inf)


def _user_share(p, p_star, gain, p_other, p_star_other, rho, gap, s):
    """Twice one user's share of the MU bound, in bits, with gap = 1 - rho^2:

        log2((1 + p_star/s) * cond / shrink),  shrink = gain*p_star_other + gap,
        cond = 1 + p + gain*p_other - (p + rho*sqrt(s))^2/(p + s),

    log2(1 + p_star/s) - log2(shrink) + log2(cond) taken as one log.  The
    arguments broadcast.  cond is evaluated as (p*((sqrt(s) - rho)^2 + k) +
    s*k)/(p + s) with k = gain*p_other + gap, a sum of terms >= 0: the
    difference as written loses about p*2^-53 to cancellation, which at
    large powers would put the bound below the rate it bounds.

    Exactly, the product is at least 1, as cond >= k >= shrink, so it
    cannot underflow.  At box points it is finite wherever cond is, for
    powers up to 1e148.  As (sqrt(s) - rho)^2 <= s + 1, cond <= k + p*(s +
    1)/(p + s) and (1 + p_star/s)*cond <= (1 + p/s)*k + p*(1 + 1/s); then
    ``_boxed``'s floor s >= 1e-6, k < 1 + p_other (gain < 1) and shrink >=
    gap >= 1.99e-6 (the correlation cap 1 - 1e-6) bound the product by

        ((1 + 1e6*p)*(1 + p_other) + 1.000001e6*p) / 1.99e-6,

    5.1e307 at p = p_other = 1e148.  cond stays finite up to powers near
    1e154, where its p*k overflows, with s_A below ``_boxed``'s roof,
    s_A*(p_A + k_A) < 2^1000.  Past 1e148 the product can overflow where
    its three logs would not, but ``_mu_lines`` raises its ValueError
    ("overflows at every genie probe") only where every probe of a request
    overflows, which in the samples measured begins near 1e154, where cond
    does.  Where a term overflows the share is not finite, and callers read
    it as +inf; they ignore numpy's floating-point warnings.
    """
    dev = np.sqrt(s) - rho
    k = gain * p_other + gap
    cond = (p * (dev * dev + k) + s * k) / (p + s)
    return np.log2((1.0 + p_star / s) * cond / (gain * p_star_other + gap))


def _pattern_search(
    obj: _MuObjective, x: np.ndarray, val: np.ndarray, swapped: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pattern search from every start ("lane") at once, at the (6, lanes)
    box points ``x`` with values ``val``, in (A, B) order; ``obj`` holds each
    lane's channel and weight, so all lanes share the objective calls.
    Returns the (values, points) the lanes end at, none worse than its
    start.  Callers ignore numpy's floating-point warnings.

    A lane moves in ``place``'s coordinates, swapped at the lanes
    ``swapped``, and its free variance warm-starts each polled point's.  A
    poll is, for every live lane, the 8 moves of ``_POLL`` scaled by its
    step, and twice its last accepted move (Hooke and Jeeves' pattern move;
    after a failed poll, the lane's own point, one Newton step on).  The
    lane takes its best strict improvement, or its step, first 0.15, shrinks
    by 4; it stops below _STEP_FLOOR or after _POLL_CAP polls.  Every polled
    point is ``place``d in the box, so every end is a valid bound.  A call
    of at most _SPECULATE_POINTS also holds each lane's next poll as if this
    one fails (the moves at a quarter of the step, and its own point), taken
    if it does; counting its own polls and shrinks, a lane ends at the bits
    of one poll a call.  Ends are written out when a lane stops, and the
    constants gathered again (``take``) when the lanes or the width change.
    """
    out_val, out_x = val.copy(), x.copy()
    ids = lane = np.arange(x.shape[1])  # lane of each live entry; its position
    shrinks, polls = np.zeros(ids.size), np.zeros(ids.size)
    moved = np.zeros((2, ids.size))  # each lane's last accepted move; 0 after a failed poll
    moves = _POLL.shape[1] + 1
    outer, other = _mirror(swapped, x[0], x[1])
    y = np.array([outer, other * np.sqrt(_mirror(swapped, x[4], x[5])[0])])
    charts = swapped[:, None]  # against each lane's moves
    polled = None
    while True:
        # Candidates are (2, live lanes, width): the scaled poll moves, then
        # the pattern move, each from its lane's point; speculating, then the
        # next poll's scaled moves and the lane's point.
        width = 2 * moves if 2 * moves * ids.size <= _SPECULATE_POINTS else moves
        if polled is None or polled.one.shape != (ids.size, width):
            # Constants spread over each lane's candidates: operands of one shape, numpy's fast loops.
            polled = obj.take(np.broadcast_to(ids[:, None], (ids.size, width)))
        steps = (_FIRST_STEP * 0.25**shrinks)[:, None]
        cand = np.empty((2, ids.size, width))
        np.multiply(steps, _POLL[:, None, :], out=cand[:, :, :moves - 1])
        np.multiply(moved, 2.0, out=cand[:, :, moves - 1])
        if width > moves:  # the next poll's step: a quarter, exactly
            np.multiply(steps * 0.25, _POLL[:, None, :], out=cand[:, :, moves:-1])
            cand[:, :, -1] = 0.0
        cand += y[:, :, None]
        cand_x, cand_val = polled.solve(cand, x[2][:, None], charts)
        best = cand_val[:, :moves].argmin(axis=1)
        better = cand_val[lane, best] < val
        shrinks += ~better
        polls += 1
        if width > moves:  # lanes that failed and are live take the speculative poll
            again = ~better & (shrinks <= _MAX_SHRINKS) & (polls < _POLL_CAP)
            best = np.where(again, moves + cand_val[:, moves:].argmin(axis=1), best)
            better = cand_val[lane, best] < val
            shrinks += again & ~better
            polls += again
        best_val, chosen = cand_val[lane, best], cand[:, lane, best]
        moved = np.where(better, chosen - y, 0.0)
        y = np.where(better, chosen, y)
        x = np.where(better, cand_x[:, lane, best], x)
        val = np.where(better, best_val, val)
        del cand_x, cand_val  # freed before the next call
        live = (shrinks <= _MAX_SHRINKS) & (polls < _POLL_CAP)
        if live.all():
            continue
        if not live.any():
            break
        out_val[ids[~live]], out_x[:, ids[~live]] = val[~live], x[:, ~live]
        ids, x, y, val, swapped = ids[live], x[:, live], y[:, live], val[live], swapped[live]
        charts = swapped[:, None]
        shrinks, polls, moved, lane = shrinks[live], polls[live], moved[:, live], np.arange(ids.size)
    out_val[ids], out_x[:, ids] = val, x
    return out_val, out_x


def _probe_starts(obj: _MuObjective) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``_PROBES`` ``place``d for each entry of the column objective ``obj``, one call,
    and each entry's 4 best finite probes (ranks 0 up; ties in probe order) as arrays
    (entry, rank, value, box point): copies, so the call's (6, entries, 256) grid is freed."""
    y = np.broadcast_to(_PROBES[:, None], (2, len(obj.one), _PROBES.shape[1])).copy()
    grid, vals = obj.solve(y, 1.0, steps=_PROBE_STEPS)
    ranked = np.argsort(vals, kind="stable")[:, :4]
    entry, rank = np.nonzero(np.isfinite(np.take_along_axis(vals, ranked, axis=1)))
    probe = ranked[entry, rank]
    return entry, rank, vals[entry, probe], grid[:, entry, probe]


def _mu_lines(requests) -> tuple[SupportingLine, ...]:
    """MU lines of (channel, mu) requests, in order.

    A request at mu == 1 on a noisy-interference channel takes the
    closed-form certificate (``capacity.noisy_certificate``), in the box, as
    its line: its value is the achievable single-user-detection sum rate up
    to rounding.  All certificates take one objective call.  Every other
    request starts a lane of one pattern search (``_pattern_search``) at
    each of its 4 best finite probes, ties in probe order, with its value
    there; at weight 1 the fourth starts instead at the best, in ``place``'s
    swapped coordinates.  The first of the best ends wins.  The searched
    requests probe in order, split evenly into the fewest calls of at most
    _PROBE_REQUESTS, so one call's grid lives at a time and none grows with
    the weight grid; the search's arrays grow with the lanes.  Each
    objective is ``take``n from that of ``requests``.  ValueError where the
    bound overflows at every probe: at powers past about 1e154, or at a gain
    near the float floor.
    """
    requests = tuple(requests)
    for ch, mu in requests:
        _require_regime(ch)
        _check_finite_pos("mu", mu)
    if not requests:
        return ()

    certs = {ch: _certificate(ch) for ch in {ch for ch, mu in requests if mu == 1.0}}
    tight = [i for i, (ch, mu) in enumerate(requests) if mu == 1.0 and certs[ch] is not None]
    best: list = [None] * len(requests)
    with np.errstate(all="ignore"):
        objective = _MuObjective.of(requests)
        if tight:  # at weight 1, whose user order is the (A, B) order
            certified = objective.take(np.array(tight))
            xs = _with_gaps(np.array([_genie_point(certs[requests[i][0]]) for i in tight]).T)
            for i, val, x in zip(tight, certified(xs).tolist(), xs.T):
                best[i] = (val, x)
        searched = np.flatnonzero([start is None for start in best])
        starts = []  # each probe call's (request, rank, value, box point) arrays
        for call in np.array_split(searched, -(-searched.size // _PROBE_REQUESTS)) if searched.size else ():
            entry, *start = _probe_starts(objective.take(call[:, None]))
            found = np.bincount(entry, minlength=call.size)
            if not found.all():
                ch = requests[call[found.argmin()]][0]
                raise ValueError(f"the MU bound overflows at every genie probe on the channel "
                                 f"a={ch.a}, b={ch.b}, p1={ch.p1}, p2={ch.p2}")
            starts.append((call[entry], *start))
        if starts:
            lanes, rank, val, x = (np.concatenate(arrays, axis=-1) for arrays in zip(*starts))
            # At weight 1 the rank-3 lane starts, swapped, from its request's
            # rank-0 probe, 3 columns left: ranks run consecutively from 0.
            swapped = (rank == 3) & objective.one[lanes]
            first = np.flatnonzero(swapped) - 3
            x[:, swapped], val[swapped] = x[:, first], val[first]
            values, points = _pattern_search(objective.take(lanes), x, val, swapped)
            for i, v, end in zip(lanes.tolist(), values.tolist(), points.T):
                if best[i] is None or v < best[i][0]:  # the first of the best ends
                    best[i] = (v, end)
        xs = np.array([x for _, x in best]).T
        genie, effective = objective.order(xs[:4]), objective.order(objective.effective(xs))
    lines = []
    for (_, mu), (val, _), x, (p1_star, p2_star) in zip(
        requests, best, genie.T.tolist(), effective.T.tolist()
    ):
        lines.append(SupportingLine(
            kind=WeightKind.MU,
            weight=mu,
            value=val,
            genie=GenieParams(rho1=x[0], rho2=x[1], sigma1_sq=x[2], sigma2_sq=x[3]),
            effective=(p1_star, p2_star),
        ))
    return tuple(lines)


def optimize_constraint1_many(
    ch: TwoUserChannel, mus
) -> tuple[SupportingLine, ...]:
    """Minimize the MU-family bound on R1 + mu*R2 over the genie parameters,
    at each weight of ``mus``; one line per weight, in order.

    Each line is exactly ``optimize_constraint1(ch, mu)``.  The probe grids
    of up to 33 weights share one objective call, and the pattern searches
    of all (weight, start) pairs run in lockstep (``_pattern_search``), so a
    65-weight region probes in two calls and searches in at most 300.
    FIG1's default region takes 39 calls in all, against 1,424 as 65
    separate calls.
    """
    _require_regime(ch)
    return _mu_lines((ch, mu) for mu in mus)


def optimize_constraint1(ch: TwoUserChannel, mu: float) -> SupportingLine:
    """Minimize the MU-family bound on R1 + mu*R2 over the genie parameters.

    When mu == 1 and the channel has noisy interference, the line is the
    closed-form certificate (``capacity.noisy_certificate``), whose value is
    the single-user-detection sum rate up to rounding: one objective call
    and no search.  Otherwise both variances are solved at each pair of
    correlations (``_MuObjective.place``), and a deterministic search runs
    over (rho1, rho2): 256 probes (a 16 x 16 grid of correlation pairs),
    then a pattern search (``_pattern_search``) from the 4 best (at mu ==
    1, the fourth replaced by the best in swapped coordinates), each call
    a poll of 9 moves per start and, speculatively, the next poll if it
    fails, so a weight costs as many calls as its longest search (at most
    301; median 22 on FIG1's default weights).  The line is an upper bound
    on R1 + mu*R2 (every probe is feasible) and never exceeds the bound at
    any probed point.  Equal to ``optimize_constraint1_many(ch, (mu,))[0]``,
    which is much faster for many weights.
    """
    return _mu_lines(((ch, mu),))[0]


def sum_upper_bounds(channels) -> tuple[float | None, ...]:
    """Best available upper bound on R1 + R2 of each channel, in order, from
    the three line families; None where no family applies.

    The MU family is evaluated at weight 1; the one-sided families
    contribute at the admissible weight closest to 1 (weights >= 1 bound the
    sum directly, weights < 1 need the R2 cap to top up).  Noisy-interference
    channels take their closed-form certificates, in one objective call;
    the others probe in calls of at most 33 channels, and their weight-1
    searches run as one lockstep pattern search (``_pattern_search``), so
    they cost as many calls as the longest of them.  Each bound equals
    ``sum_upper_bound`` of its channel.
    """
    channels = tuple(channels)
    regime = [0.0 < ch.a < 1.0 and 0.0 < ch.b < 1.0 for ch in channels]
    mu_lines = iter(_mu_lines(
        (ch, 1.0) for ch, ok in zip(channels, regime) if ok
    ))
    out = []
    for ch, ok in zip(channels, regime):
        bounds = [next(mu_lines).value] if ok else []
        if 0.0 < ch.b < 1.0:
            lo1, _ = eta1_range(ch)
            bounds.append(eval_constraint2(ch, lo1).value)
        if 0.0 < ch.a < 1.0:
            _, hi2 = eta2_range(ch)
            cap2 = single_user_capacities(ch).r2
            bounds.append(eval_constraint3(ch, hi2).value + (1.0 - hi2) * cap2)
        out.append(min(bounds) if bounds else None)
    return tuple(out)


def sum_upper_bound(ch: TwoUserChannel) -> float | None:
    """Best available upper bound on R1 + R2 from the three line families,
    or None when no family applies to the channel; see ``sum_upper_bounds``,
    which bounds many channels in one search."""
    return sum_upper_bounds((ch,))[0]
