"""Weighted-sum-rate outer bounds for the two-user channel.

Three families of supporting lines R1 + w*R2 <= v are computed:

* MU: a genie gives each receiver a noisy look at its own transmit signal
  (correlation rho_i, variance sigma_i^2); the bound is minimized over the
  four genie parameters subject to a weight-dependent feasibility box, one
  variance in closed form and the other three by a search.
* ETA1 / ETA2: a genie hands one receiver the other transmitter's signal,
  reducing the channel to a one-sided one; the bounds are closed forms in
  the weight, valid on a bounded weight interval.

All values are bits per channel use.  Every function here is pure; the
optimizer is deterministic (fixed probe order, no randomness), so repeated
calls yield identical certificates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .capacity import CertificateUnavailableError, noisy_certificate, noisy_condition
from .channel import GenieParams, TwoUserChannel, _check_finite_pos, _gap, single_user_capacities
from .channel import sigma_feasible, sigma_limits

__all__ = [
    "GenieParams",
    "SupportingLine",
    "WeightKind",
    "sigma_feasible",
    "sigma_limits",
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
    """Admissible weight interval [(1+b*p1)/(b+b*p1), 1/b] for the ETA1 family."""
    if not 0.0 < ch.b < 1.0:
        raise ValueError(f"ETA1 family requires 0 < b < 1, got b={ch.b}")
    return (1.0 + ch.b * ch.p1) / (ch.b + ch.b * ch.p1), 1.0 / ch.b


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
    value = (
        0.5 * math.log2(1.0 + p1_tilde)
        - 0.5 * eta1 * math.log2(1.0 + ch.b * p1_tilde)
        + 0.5 * eta1 * math.log2(1.0 + ch.b * ch.p1 + ch.p2)
    )
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
    value = (
        0.5 * math.log2(1.0 + ch.p1 + ch.a * ch.p2)
        - 0.5 * math.log2(1.0 + ch.a * p2_tilde)
        + 0.5 * eta2 * math.log2(1.0 + p2_tilde)
    )
    return SupportingLine(
        kind=WeightKind.ETA2, weight=eta2, value=value, p_tilde=p2_tilde
    )


# ---------------------------------------------------------------------------
# MU-family minimization
# ---------------------------------------------------------------------------

_GRID_POINTS = 8
_RHO_MAX = 1.0 - 1e-6
_SIGMA_FLOOR = 1e-4
_STEP_FLOOR = 1e-9  # log step below which a pattern-search lane stops
_POLL_CAP = 300  # most polls of one pattern-search lane
_ANCHOR_POLLS = 8  # polls between a lane's choices of the kink its t starts at
_LOG_STEP = math.log(3.0)  # first step of the free variance's log
_CAP_SHRINK = 1.0 - 2.0**-50  # rounds a float variance cap into the exact box
_MAX_SHRINKS = math.floor(math.log(_LOG_STEP / _STEP_FLOOR, 4))  # shrinks of a live lane


def _probe_geometry():
    """``_probe_grid``'s probes (r, w, t) at t = 0: 8 x 8 correlation pairs, each 8
    times, then a 16 x 16 manifold; and the pairs' 1 - r_B^2, as a column."""
    axes = (np.linspace(0.0, _RHO_MAX, n) for n in (_GRID_POINTS, 2 * _GRID_POINTS))
    pairs, manifold = (np.array(np.meshgrid(v, v, indexing="ij")).reshape(2, -1) for v in axes)
    r, rho = np.concatenate([np.repeat(pairs, _GRID_POINTS, axis=1), manifold], axis=1)
    return np.array([r, rho * np.sqrt(_gap(r)), np.zeros_like(r)]), _gap(pairs[1])[:, None]


_FIRST_STEPS = np.array([[0.15], [0.15], [_LOG_STEP]])
# The 18 unit moves of the pattern search, as columns: the 6 axis moves
# +-e_i, then the 12 diagonal moves +-e_i +- e_j, i < j.  Each poll adds
# one more, twice the lane's last accepted move.
_EYE = np.eye(3)
_POLL = np.array([*_EYE, *-_EYE] + [
    s * _EYE[i] + t * _EYE[j]
    for i, j in itertools.combinations(range(3), 2) for s in (1, -1) for t in (1, -1)
]).T
_PROBES, _PROBE_GAPS = _probe_geometry()
for _array in (_FIRST_STEPS, _EYE, _POLL, _PROBES, _PROBE_GAPS):
    _array.setflags(write=False)  # shared by every call, in every thread
del _array
# The constants of a _MuObjective with one value per entry: its ``table``.
_ENTRY_VALUES = ("p_a", "p_b", "g_a", "g_b", "w_a", "w_b", "c", "d", "off", "den", "tight", "ratio")


def _mirror(mirrored, first, second):
    """(first, second) at the entries not ``mirrored``, else (second, first);
    not broadcast against ``mirrored`` where all its entries agree, so that
    terms of a probe grid free of the weight are computed once per point."""
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
    or one such column.  The constants broadcast against a row: scalars at
    one point, a column of weights for the probe grid of one channel at each
    of them, or one value per lane and move of the pattern search.
    Each entry is bit-for-bit the value of a one-point call on its own
    channel: its constants take the same operations in the same order.

    A call is the one way to evaluate it, at points of the feasibility box
    only: the search ``clamp``s or ``place``s every point it polls, and the
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
        # 1 + g_B*p_A; see ``place``.
        self.tight = self.g_b * self.p_a + 1.0
        # The free variance's effective power falls between L = max(off + R,
        # 0) and R = ratio*(1 - r_B^2)/g_B; see ``_edges``.
        self.ratio = np.where(self.mirrored, mu, 1.0 / mu)
        self.at_left = np.False_  # where t = 0 lies at L; the search sets it per lane

    @classmethod
    def of(cls, requests) -> "_MuObjective":
        """One entry per (channel, mu) request."""
        return cls(*np.array([(ch.a, ch.b, ch.p1, ch.p2, mu) for ch, mu in requests]).T)

    def order(self, x) -> np.ndarray:
        """Rows of ``x`` in pairs (user 1, user 2) as pairs (A, B), or pairs
        (A, B) as pairs (user 1, user 2): the map is its own inverse."""
        return np.array([v for pair in zip(x[::2], x[1::2]) for v in _mirror(self.mirrored, *pair)])

    def take(self, idx, at_left) -> "_MuObjective":
        """The entries ``idx``, at ``at_left``, of an objective with one entry per
        lane.  Lanes of both sides of weight 1 share the gathered rows of ``table``,
        built once: each entry's constants are already in its own (A, B) order."""
        if "table" not in vars(self):
            self.table = np.array(np.broadcast_arrays(*(getattr(self, n) for n in _ENTRY_VALUES)))
        sub = object.__new__(_MuObjective)
        # np.take returns C-ordered rows; table[:, idx] would be F-ordered,
        # every row strided.
        sub.__dict__.update(zip(_ENTRY_VALUES, np.take(self.table, idx, axis=1)))
        sub.one = np.take(self.one, idx)
        sub.any_one, sub.all_one = bool(sub.one.any()), bool(sub.one.all())
        sub.at_left = at_left
        return sub

    def clamp(self, x: np.ndarray) -> np.ndarray:
        """Project points (rows r_A, r_B, s_A, s_B; further rows are ignored)
        into the feasibility box: the correlations into [0, _RHO_MAX], then
        ``_boxed``."""
        r_a, r_b = np.minimum(np.maximum(x[:2], 0.0), _RHO_MAX)
        return self._boxed(r_a, r_b, x[2], x[3], _gap(r_a), _gap(r_b))

    def _boxed(self, r_a, r_b, s_a, s_b, gap_a, gap_b) -> np.ndarray:
        """The points at correlations in [0, _RHO_MAX], their gaps, and the
        variances above a floor and s_B below its cap (1 - r_A^2)/g_A.

        The cap is rounded down into the exact box: 1 - r, 1 + r, their
        product and the quotient are rounded once each at most, so the float
        (1 - r)*(1 + r)/g is at most (1 + u)^4 times the exact cap, u =
        2^-53, and _CAP_SHRINK = 1 - 8u leaves (1 + u)^5*(1 - 8u) < 1."""
        floor = _SIGMA_FLOOR * 1e-2
        cap = gap_a / self.g_a * _CAP_SHRINK
        s_b = np.minimum(np.maximum(s_b, floor), cap)
        return np.array([r_a, r_b, np.maximum(s_a, floor), s_b, gap_a, gap_b])

    def place(self, y: np.ndarray) -> np.ndarray:
        """The box points at search coordinates y = (r, w, t), clipped in
        place to r in [0, _RHO_MAX] and w in [0, _RHO_MAX*sqrt(1 - r^2)]:
        r_A = r, r_B = w/sqrt(1 - r^2), at most _RHO_MAX, s_A = exp(t)*(1 -
        r_B^2)/g_B, and s_B ``clamp``ed from ((1 + g_B*p_A)/r_B)^2.

        That s_B minimizes the objective at fixed correlations and s_A.  It,
        s = sigma^2, enters only B's share, at full power p = p_B (only A's
        power moves, and not with s); with rho = r_B, g = g_B and q = p_A:

            log2(1 + p/s) + log2((p*((sigma - rho)^2 + k) + s*k)/(p + s))
              = log2(p*(1 - rho*u)^2 + p*k*u^2 + k),

        with u = 1/sigma and k = g*q + 1 - rho^2.  This quadratic in u has
        leading coefficient p*(rho^2 + k) > 0 and its least value at u =
        rho/(rho^2 + k), that is sigma = (1 + g*q)/rho, and it is monotone on
        either side.  The box bounds s by its cap alone, and the floor of
        ``clamp`` lies below ((1 + g*q)/rho)^2 >= 1, so the constrained
        minimizer is that value clipped to the cap: the cap at rho = 0.

        The coordinates lay kinks of the objective on planes, where a lane
        at a kink moves along it by axis moves; in (r_A, r_B, log s_A) they
        are curved.  s_B leaves its cap where w = (1 + g*q)*sqrt(g_A),
        whatever r is.  A's effective power falls between L and R (see
        ``_edges``): R lies at t = log(mu) (mu < 1) or -log(mu), and L at t
        = 0 at the entries ``at_left``.
        """
        r, w, t = y
        np.minimum(np.maximum(r, 0.0, out=r), _RHO_MAX, out=r)
        np.maximum(w, 0.0, out=w)
        gap_a = _gap(r)
        root = np.sqrt(gap_a)
        np.minimum(w, _RHO_MAX * root, out=w)
        rho = np.minimum(w / root, _RHO_MAX)
        gap_b = _gap(rho)
        free = np.exp(t) * self._scale(gap_b)
        capped = np.square(self.tight / rho)
        return self._boxed(r, rho, free, capped, gap_a, gap_b)

    def coordinates(self, x: np.ndarray) -> np.ndarray:
        """The search coordinates (r, w, t) of box points ``x``; see ``place``."""
        t = np.log(x[2] / self._scale(x[5]))
        return np.array([x[0], x[1] * np.sqrt(x[4]), t])

    def _scale(self, gap_b):
        """The free variance at t = 0, from gap_b = 1 - r_B^2: gap_b/g_B, or
        L at the entries ``at_left``; see ``_edges``."""
        scale = gap_b / self.g_b
        if not self.at_left.any():
            return scale
        return np.where(self.at_left, self._edges(scale)[0], scale)

    def _edges(self, scale):
        """(L, R) = (max(off + R, 0), ratio*scale) at scale = gap_b/g_B: the
        free variance's effective power starts to fall at L and reaches 0 at
        R, the left and right of ``effective``."""
        right = self.ratio * scale
        return np.maximum(self.off + right, 0.0), right

    def nearer_left(self, x: np.ndarray) -> np.ndarray:
        """Whether the free variance of points ``x`` lies nearer L than R, in
        log; False where L = 0 (see ``_edges``).  All False where every mu is
        1, which puts ``_scale`` on its fast path: there off = 0 and ratio = 1,
        so R = 1*scale = scale and L = max(0 + R, 0) = R, bit for bit."""
        if self.all_one:
            return np.zeros(x.shape[1:], dtype=bool)
        left, right = self._edges(x[5] / self.g_b)
        return (left > 0.0) & (x[2] * x[2] < left * right)

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
        them there with ``clamp`` or check them with ``sigma_feasible``.
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

        log2(1 + p_star/s) - log2(gain*p_star_other + gap)
      + log2(1 + p + gain*p_other - (p + rho*sqrt(s))^2/(p + s)).

    The arguments broadcast.  The last argument is evaluated as
    (p*((sqrt(s) - rho)^2 + k) + s*k)/(p + s) with k = gain*p_other + gap, a
    sum of terms >= 0: the difference as written loses about p*2^-53 to
    cancellation, which at large powers would put the bound below the rate
    it bounds.  Where a log argument is <= 0 or a term overflows the share
    is not finite, and callers read it as +inf; they ignore numpy's
    floating-point warnings.
    """
    dev = np.sqrt(s) - rho
    k = gain * p_other + gap
    cond = (p * (dev * dev + k) + s * k) / (p + s)
    log_k = np.log2(k) if p_star_other is p_other else np.log2(gain * p_star_other + gap)
    return np.log2(1.0 + p_star / s) - log_k + np.log2(cond)


def _pattern_search(
    obj: _MuObjective, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pattern search from every start ("lane") at once; ``starts`` is
    (4, lanes) or (6, lanes), in the objective's (A, B) order, and ``obj``
    holds each lane's own channel and weight, so lanes of different
    channels, weights and sides of weight 1 share the objective calls.
    Returns the (values, points) the lanes end at.  Callers ignore numpy's
    floating-point warnings.

    A lane moves in the coordinates (r, w, t) of ``place``, with r in
    [0, _RHO_MAX] and w in [0, _RHO_MAX*sqrt(1 - r^2)].  Every _ANCHOR_POLLS
    polls it takes t = 0 afresh at the kink of the free variance's effective
    power nearer its point (``nearer_left``), so that a lane on that kink
    moves along it by axis moves.  Each step is one objective call that
    polls, for every live lane, the 18 moves of ``_POLL`` scaled by the
    lane's steps and twice its last accepted move (the pattern move of Hooke
    and Jeeves, which speeds a lane along a valley).  The lane takes its
    best strict improvement; if there is none, its steps shrink by 4.  They
    start at 0.15 and log(3); a lane stops once its log step is below
    _STEP_FLOOR, or after _POLL_CAP polls.  Every polled point is
    ``place``d in the box and its value is the objective there, so every
    end is a valid bound.  Only when a lane stops is its end written out
    and are the live lanes' constants gathered again (``take``).
    """
    x = obj.clamp(starts)
    val = obj(x)
    out_val, out_x = val.copy(), x.copy()
    ids = lane = np.arange(x.shape[1])  # lane of each live entry; its position
    shrinks = np.zeros(ids.size)
    moved = np.zeros((3, ids.size))  # each lane's last accepted move; 0 after a failed poll
    moves = _POLL.shape[1] + 1
    # Constants spread over each lane's moves: operands of one shape, numpy's fast loops.
    polled = obj.take(np.broadcast_to(ids[:, None], (ids.size, moves)), np.False_)
    for poll in range(_POLL_CAP):
        if poll % _ANCHOR_POLLS == 0:
            spread = np.broadcast_to(x[:, :, None], (6, ids.size, moves))
            polled.at_left = polled.nearer_left(spread)
            y = polled.coordinates(spread)[:, :, 0]
        # Candidates are (3, live lanes, moves): the scaled poll moves, then
        # the pattern move, each from its lane's point.
        steps = _FIRST_STEPS * 0.25**shrinks
        cand = np.empty((3, ids.size, moves))
        np.multiply(steps[:, :, None], _POLL[:, None, :], out=cand[:, :, :-1])
        np.multiply(moved, 2.0, out=cand[:, :, -1])
        cand += y[:, :, None]
        cand_x = polled.place(cand)
        cand_val = polled(cand_x)
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
        ids, x, y, val = ids[live], x[:, live], y[:, live], val[live]
        shrinks, moved, lane = shrinks[live], moved[:, live], np.arange(ids.size)
        polled = obj.take(np.broadcast_to(ids[:, None], (ids.size, moves)), polled.at_left[live])
    out_val[ids], out_x[:, ids] = val, x
    return out_val, out_x


def _tight_sum_certificate(ch: TwoUserChannel) -> "GenieParams | None":
    if not noisy_condition(ch)[0]:
        return None
    try:
        return noisy_certificate(ch)
    except CertificateUnavailableError:
        return None


def _smallest(vals: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest of ``vals`` (at least k entries, no
    nan), ties in index order: ``np.argsort(vals, kind="stable")[:k]``
    without sorting the rest.  Every entry up to the k-th smallest value is
    among those at or below it, which keep their index order for the stable
    sort."""
    kth = np.partition(vals, k - 1)[k - 1]
    near = np.flatnonzero(vals <= kth)
    return near[np.argsort(vals[near], kind="stable")[:k]]


def _probe_grid(ch: TwoUserChannel, objective: _MuObjective) -> np.ndarray:
    """Coarse feasible probes, ``place``d: 8 points per correlation and 8 log-spaced
    free variances, then a 16 x 16 manifold of correlations with the free variance
    at its scale, t = 0 (where the closed-form tight point of weight 1 lives; it
    often holds the minimizer).  The capped variance is in closed form, so the
    probes depend on the side of weight 1 the objective's weight is on, not on
    the weight; all but the grid's t-row is ``_PROBES``, built at import."""
    smax = 10.0 * max(ch.p1, ch.p2, 1.0 / ch.a, 1.0 / ch.b)
    free = np.geomspace(_SIGMA_FLOOR, smax, _GRID_POINTS)
    y = _PROBES.copy()
    y[2, :_PROBE_GAPS.size * _GRID_POINTS] = np.log(free * objective.g_b / _PROBE_GAPS).ravel()
    return objective.place(y)


def _mu_lines(requests) -> tuple[SupportingLine, ...]:
    """MU lines of (channel, mu) requests, in order.

    A request at mu == 1 on a noisy-interference channel takes the
    closed-form certificate (``capacity.noisy_certificate``), which lies in
    the box, as its line: its value is the achievable single-user-detection
    sum rate up to rounding, so no search can go lower.  All certificates
    are evaluated in one objective call.  Every other request starts one
    lane of a pattern search (``_pattern_search``, over the lanes of every
    such request) from each of the 4 best points of its channel's probe
    grid; the first of the best starts and lane ends wins.  A probe grid is
    built once per (channel, mu >= 1) pair, a side, and evaluated at every
    weight of that side in one objective call, with the weights as a
    column: the probes of a side do not depend on its weights.  ValueError
    where the bound overflows at every probe, at powers past about 1e154.
    """
    requests = tuple(requests)
    for ch, mu in requests:
        _require_regime(ch)
        _check_finite_pos("mu", mu)
    if not requests:
        return ()

    certs = {ch: _tight_sum_certificate(ch) for ch in {ch for ch, mu in requests if mu == 1.0}}
    tight = [i for i, (ch, mu) in enumerate(requests) if mu == 1.0 and certs[ch] is not None]
    best: list = [None] * len(requests)
    with np.errstate(all="ignore"):
        if tight:
            certified = _MuObjective.of([requests[i] for i in tight])
            points = np.array([_genie_point(certs[requests[i][0]]) for i in tight]).T
            xs = _with_gaps(certified.order(points))
            for i, val, x in zip(tight, certified(xs).tolist(), xs.T):
                best[i] = (val, x)
        sides: dict[tuple[TwoUserChannel, bool], list[int]] = {}
        for i, (ch, mu) in enumerate(requests):
            if best[i] is None:
                sides.setdefault((ch, mu >= 1.0), []).append(i)
        found: dict[int, list] = {}
        for (ch, _), side in sides.items():
            probed = _MuObjective(ch.a, ch.b, ch.p1, ch.p2, [[requests[i][1]] for i in side])
            grid = _probe_grid(ch, probed)
            for i, vals in zip(side, probed(grid)):
                found[i] = [(float(vals[j]), grid[:, j])
                            for j in _smallest(vals, 4) if math.isfinite(vals[j])]
                if not found[i]:
                    raise ValueError(f"the MU bound overflows at every genie probe at p1={ch.p1}, "
                                     f"p2={ch.p2}: powers this large are out of range")
        if found:
            searched = sorted(found)
            lanes = [requests[i] for i in searched for _ in found[i]]
            starts = np.array([x for i in searched for _, x in found[i]]).T
            values, points = _pattern_search(_MuObjective.of(lanes), starts)
            ends = zip(values.tolist(), points.T)
            for i in searched:
                best[i] = min(found[i] + [next(ends) for _ in found[i]], key=lambda c: c[0])
        objective = _MuObjective.of(requests)
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

    Each line is exactly ``optimize_constraint1(ch, mu)``: the same grid
    probes and starts per weight, and the same winner.  The probe grid of
    each side of weight 1 is evaluated at all of that side's weights in one
    objective call, and the pattern searches of all (weight, start) pairs,
    about 4 per weight, run in lockstep: each search step is one objective
    call that polls the 19 moves of every live lane, so the searches of a
    65-weight region take at most 301 calls (the start values, then at most
    300 polls, the cap of one lane).  FIG1's default region takes 58 calls
    in all, against 2,821 as 65 separate calls.
    """
    _require_regime(ch)
    return _mu_lines((ch, mu) for mu in mus)


def optimize_constraint1(ch: TwoUserChannel, mu: float) -> SupportingLine:
    """Minimize the MU-family bound on R1 + mu*R2 over the genie parameters.

    When mu == 1 and the channel has noisy interference, the line is the
    closed-form certificate (``capacity.noisy_certificate``), whose value is
    the single-user-detection sum rate up to rounding: one objective call
    and no search.  Otherwise a deterministic multi-start search over
    (rho1, rho2, free variance), with the capped variance in closed form
    (``_MuObjective.place``): a coarse feasible grid (8 points per
    coordinate, the variance log-spaced, plus a 16 x 16 manifold), then a
    pattern search (``_pattern_search``) from the 4 best grid points.  The
    searches run in lockstep, each step one objective call that polls 19
    moves per start, so a weight costs as many calls as its longest search
    (at most 302; median 43 on FIG1's default weights).  The result is
    always an upper bound on R1 + mu*R2 (every probe is feasible) and never
    exceeds the bound at any probed point.

    Equal to ``optimize_constraint1_many(ch, (mu,))[0]``; searching many
    weights in one optimize_constraint1_many call is much faster than one
    call per weight.
    """
    return _mu_lines(((ch, mu),))[0]


def sum_upper_bounds(channels) -> tuple[float | None, ...]:
    """Best available upper bound on R1 + R2 of each channel, in order, from
    the three line families; None where no family applies.

    The MU family is evaluated at weight 1; the one-sided families
    contribute at the admissible weight closest to 1 (weights >= 1 bound the
    sum directly, weights < 1 need the R2 cap to top up).  Noisy-interference
    channels take their closed-form certificates, all evaluated in one
    objective call; every other channel's probe grid takes one call, and
    their weight-1 MU searches run as one lockstep pattern search, each of
    whose objective calls polls the 19 moves of every channel's lanes, so
    the searches cost as many objective calls as the longest of them, not
    the sum over the channels.  Each bound equals ``sum_upper_bound`` of its
    channel.
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
