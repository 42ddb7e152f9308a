"""Weighted-sum-rate outer bounds for the two-user channel.

Three families of supporting lines R1 + w*R2 <= v are computed:

* MU: a genie gives each receiver a noisy look at its own transmit signal
  (correlation rho_i, variance sigma_i^2); the bound is minimized over the
  four genie parameters subject to a weight-dependent feasibility box.
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
from functools import cached_property

import numpy as np

from .channel import TwoUserChannel

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
class GenieParams:
    """Genie side-information parameters: noise correlations rho_i in [0, 1]
    and noise variances sigma_i^2 > 0."""

    rho1: float
    rho2: float
    sigma1_sq: float
    sigma2_sq: float

    def __post_init__(self):
        for name in ("rho1", "rho2"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        for name in ("sigma1_sq", "sigma2_sq"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")


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


def _require_weight(mu: float) -> None:
    if not (math.isfinite(mu) and mu > 0):
        raise ValueError(f"mu must be finite and > 0, got {mu}")


def sigma_limits(
    ch: TwoUserChannel, mu: float, rho1: float, rho2: float
) -> tuple[float, float]:
    """Upper limits of the (sigma1_sq, sigma2_sq) feasibility box.

    For mu >= 1 only sigma2_sq is capped, by (1 - rho1^2)/a; for mu < 1 only
    sigma1_sq is capped, by (1 - rho2^2)/b.  A zero gain makes the
    corresponding cap vacuous (+inf).
    """
    _require_weight(mu)
    if mu >= 1.0:
        s2_max = (1.0 - rho1 * rho1) / ch.a if ch.a > 0 else math.inf
        return math.inf, s2_max
    s1_max = (1.0 - rho2 * rho2) / ch.b if ch.b > 0 else math.inf
    return s1_max, math.inf


def sigma_feasible(ch: TwoUserChannel, mu: float, gp: GenieParams) -> bool:
    """Whether the genie variances lie in the weight-dependent feasibility box."""
    s1_max, s2_max = sigma_limits(ch, mu, gp.rho1, gp.rho2)
    return gp.sigma1_sq <= s1_max and gp.sigma2_sq <= s2_max


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
    """The MU objective of ``ch`` at weight ``mu``, and ``gp`` as its point;
    ValueError outside the MU regime or the feasibility box."""
    _require_regime(ch)
    if not sigma_feasible(ch, mu, gp):
        raise ValueError("genie parameters are outside the feasibility box")
    return _MuObjective(ch.a, ch.b, ch.p1, ch.p2, mu), _genie_point(gp)


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
    p1_star, p2_star = objective.effective(x)
    return float(p1_star), float(p2_star)


def eval_constraint1(ch: TwoUserChannel, mu: float, gp: GenieParams) -> float:
    """MU-family bound on R1 + mu*R2 at one feasible genie parameter point
    (no minimization).  Returns +inf at degenerate boundary parameters."""
    objective, x = _objective_at(ch, mu, gp)
    return float(objective(x))


def user1_genie_bound(ch: TwoUserChannel, rho1: float, sigma1: float) -> float:
    """Genie bound on user 1's rate alone, at full powers:

        0.5*log2(1 + p1/sigma1^2) - 0.5*log2(a*p2 + 1 - rho1^2)
      + 0.5*log2(1 + p1 + a*p2 - (p1 + rho1*sigma1)^2/(p1 + sigma1^2))

    For fixed rho1 this is minimized over sigma1 at rho1*sigma1 = 1 + a*p2,
    where it equals user 1's single-user-detection rate.  +inf where a log
    argument is <= 0.  rho1 must lie in [0, 1] and sigma1 be finite and > 0,
    as in ``GenieParams``.
    """
    if not 0.0 <= rho1 <= 1.0:
        raise ValueError(f"rho1 must lie in [0, 1], got {rho1}")
    if not (math.isfinite(sigma1) and sigma1 > 0.0):
        raise ValueError(f"sigma1 must be finite and > 0, got {sigma1}")
    share = _user_share(ch.p1, ch.p1, ch.a, ch.p2, ch.p2, rho1, sigma1 * sigma1)
    return float(0.5 * share)


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
_POLL_CAP = 140  # most polls of one pattern-search lane
_LOG_STEP = math.log(3.0)  # first step of the variances' logs
_FIRST_STEPS = np.array([[0.15], [0.15], [_LOG_STEP], [_LOG_STEP]])
# The 32 unit moves of the pattern search, as columns: the 8 axis moves
# +-e_i, then the 24 diagonal moves +-e_i +- e_j, i < j.
_EYE = np.eye(4)
_POLL = np.array([*_EYE, *-_EYE] + [
    s * _EYE[i] + t * _EYE[j]
    for i, j in itertools.combinations(range(4), 2) for s in (1, -1) for t in (1, -1)
]).T
# The constants of a _MuObjective with one value per entry, which ``take``
# gathers.
_ENTRY_VALUES = (
    "a", "b", "p1", "p2", "mu", "half_mu", "b_mu", "hi_left", "hi_den",
    "lo_left", "lo_den",
)


class _MuObjective:
    """The MU objective, entry by entry, of channels (a, b, p1, p2) at
    weights ``mu``: the one implementation of the MU bound, used by the
    search and, at one point, by ``eval_constraint1``, ``effective_powers``
    and (through ``_user_share``) ``user1_genie_bound``.

    Points are arrays with rows (rho1, rho2, sigma1_sq, sigma2_sq), or one
    such column.  The channel parameters and ``mu`` broadcast against a row:
    scalars for the probe grid of one channel at one weight, or one value
    per lane of the pattern search, whose lanes may belong to different
    channels.  Only the branches of the weights present are evaluated.  The
    sub-expressions free of the point are computed once, with the same
    operations in the same order as a one-point call, so each entry is
    bit-for-bit the value of a one-point call on its own channel.

    A call is the one way to evaluate it, at points of the feasibility box
    only: the search ``clamp``s every point it polls, and the one-point
    callers check theirs with ``sigma_feasible``.
    """

    def __init__(self, a, b, p1, p2, mu):
        mu = np.asarray(mu, dtype=float)
        # mu < 1 caps sigma1_sq; mu >= 1 caps sigma2_sq, and mu == 1 has no
        # sloped branch in its effective power.
        self.lo, self.one, self.hi = mu < 1.0, mu == 1.0, mu > 1.0
        self.any_lo, self.any_one, self.any_hi = (
            bool(self.lo.any()), bool(self.one.any()), bool(self.hi.any())
        )
        self.a, self.b, self.p1, self.p2, self.mu = a, b, p1, p2, mu
        self.half_mu = 0.5 * mu
        self.b_mu = b * mu
        self.hi_left = (1.0 - mu) * p1 / mu
        self.hi_den = self.b_mu - b
        self.lo_left = (mu - 1.0) * p2
        self.lo_den = a - a * mu

    @classmethod
    def of(cls, requests) -> "_MuObjective":
        """One entry per (channel, mu) request."""
        return cls(*np.array([(ch.a, ch.b, ch.p1, ch.p2, mu) for ch, mu in requests]).T)

    @cached_property
    def _stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """The per-entry constants as rows of one array, ``_ENTRY_VALUES``
        order, and the branch masks lo, one, hi as rows of another."""
        return (
            np.array([getattr(self, name) for name in _ENTRY_VALUES]),
            np.array([self.lo, self.one, self.hi]),
        )

    def take(self, idx) -> "_MuObjective":
        """The entries ``idx`` of an objective with one entry per lane,
        gathered from its stacked constants.  The any_* flags stay this
        objective's: a branch flagged for entries not taken is computed and
        then discarded by np.where, which changes no value."""
        values, masks = self._stacked
        sub = object.__new__(_MuObjective)
        # np.take returns C-ordered rows; values[:, idx] would be F-ordered,
        # every row strided.
        sub.__dict__.update(zip(_ENTRY_VALUES, np.take(values, idx, axis=1)))
        sub.lo, sub.one, sub.hi = np.take(masks, idx, axis=1)
        sub.any_lo, sub.any_one, sub.any_hi = self.any_lo, self.any_one, self.any_hi
        return sub

    def clamp(self, x: np.ndarray) -> np.ndarray:
        """Project points (rows rho1, rho2, s1, s2) into the feasibility box,
        whose variance caps s1_max, s2_max are +inf where the weight leaves
        that variance uncapped."""
        out = np.empty_like(x)
        r1, r2 = np.minimum(np.maximum(x[:2], 0.0), _RHO_MAX, out=out[:2])
        s1_max = s2_max = np.inf
        if self.any_lo:
            s1_max = (1.0 - r2 * r2) / self.b
            if self.any_one or self.any_hi:
                s1_max = np.where(self.lo, s1_max, np.inf)
        if self.any_one or self.any_hi:
            s2_max = (1.0 - r1 * r1) / self.a
            if self.any_lo:
                s2_max = np.where(self.lo, np.inf, s2_max)
        np.minimum(np.maximum(x[2], _SIGMA_FLOOR * 1e-2), s1_max, out=out[2])
        np.minimum(np.maximum(x[3], _SIGMA_FLOOR * 1e-2), s2_max, out=out[3])
        return out

    def effective(self, x: np.ndarray):
        """Effective powers (p1_star, p2_star) at points ``x``; see
        ``effective_powers``.  Points must lie in the box."""
        a, b, p1, p2 = self.a, self.b, self.p1, self.p2
        r1, r2, s1, s2 = x
        p1_star, p2_star = p1, p2
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.any_hi or self.any_one:
                gap2 = 1.0 - r2 * r2
            if self.any_hi:
                left = np.maximum(self.hi_left + gap2 / self.b_mu, 0.0)
                right = gap2 / self.b_mu
                mid = (gap2 - self.b_mu * s1) / self.hi_den
                sloped = np.where(s1 <= left, p1, np.where(s1 <= right, mid, 0.0))
                p1_star = np.where(self.hi, sloped, p1_star)
            if self.any_one:
                p1_star = np.where(
                    self.one, np.where(b * s1 <= gap2, p1, 0.0), p1_star
                )
            if self.any_lo:
                gap1 = 1.0 - r1 * r1
                left = np.maximum(self.lo_left + self.mu * gap1 / a, 0.0)
                right = self.mu * gap1 / a
                mid = (self.mu * gap1 - a * s2) / self.lo_den
                sloped = np.where(s2 <= left, p2, np.where(s2 <= right, mid, 0.0))
                p2_star = np.where(self.lo, sloped, p2_star)
        return p1_star, p2_star

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Objective values at points ``x``, which must lie in the box: put
        them there with ``clamp`` or check them with ``sigma_feasible``.
        Points at degenerate parameters come out +inf."""
        r1, r2, s1, s2 = x
        p1_star, p2_star = self.effective(x)
        val = 0.5 * _user_share(
            self.p1, p1_star, self.a, self.p2, p2_star, r1, s1
        ) + self.half_mu * _user_share(
            self.p2, p2_star, self.b, self.p1, p1_star, r2, s2
        )
        return np.where(np.isfinite(val), val, np.inf)


def _user_share(p, p_star, gain, p_other, p_star_other, rho, s):
    """Twice one user's share of the MU bound, in bits:

        log2(1 + p_star/s) - log2(gain*p_star_other + 1 - rho^2)
      + log2(1 + p + gain*p_other - (p + rho*sqrt(s))^2/(p + s)),

    +inf where a log argument is <= 0.  The arguments broadcast.  The last
    argument is evaluated as (p*((sqrt(s) - rho)^2 + k) + s*k)/(p + s) with
    k = gain*p_other + 1 - rho^2, a sum of terms >= 0: the difference as
    written loses about p*2^-53 to cancellation, which at large powers
    would put the bound below the rate it bounds.
    """
    gap = (1.0 - rho) * (1.0 + rho)
    shrink = gain * p_star_other + gap
    k = gain * p_other + gap
    dev = np.sqrt(s) - rho
    cond = (p * (dev * dev + k) + s * k) / (p + s)
    with np.errstate(divide="ignore", invalid="ignore"):
        share = np.log2(1.0 + p_star / s) - np.log2(shrink) + np.log2(cond)
    return np.where((shrink <= 0) | (cond <= 0), np.inf, share)


def _cap_rows(obj: _MuObjective, x: np.ndarray) -> np.ndarray:
    """(1 - rho2^2)/b and (1 - rho1^2)/a at points ``x``: the caps of
    sigma1_sq and sigma2_sq, whichever one the weight puts in force."""
    r = x[1::-1]
    return (1.0 - r * r) / np.array([obj.b, obj.a])


def _pattern_search(
    obj: _MuObjective, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pattern search from every start ("lane") at once; ``starts`` is
    (4, lanes), and ``obj`` holds each lane's own channel and weight, so
    lanes of different channels and weights share the objective calls.
    Returns the (values, points) the lanes end at.

    A lane moves in cap-scaled coordinates y = (rho1, rho2, log(sigma1_sq /
    cap1), log(sigma2_sq / cap2)), caps as in ``_cap_rows``, with the
    correlations in [0, _RHO_MAX] and the capped variance's log at most 0:
    a move of a correlation carries that variance along its cap.  Each step
    is one objective call that polls, for every live lane, the 32 moves of
    ``_POLL`` scaled by the lane's steps.  The lane takes its best strict
    improvement; if there is none, both steps shrink by 4.  They start at
    0.15 and log(3); a lane stops once its log step is below _STEP_FLOOR,
    or after _POLL_CAP polls.  Every polled point is ``clamp``ed and its
    value is the objective there, so every end is a valid bound.
    """
    x = obj.clamp(starts)
    val = obj(x)
    y = x.copy()
    y[2:] = np.log(x[2:] / _cap_rows(obj, x))
    out_val, out_x = val.copy(), x.copy()
    ids = np.arange(x.shape[1])  # lane of each live entry
    shrinks = np.zeros(ids.size)
    for _ in range(_POLL_CAP):
        # Candidates are (4, live lanes, moves); each lane's entry of the
        # objective broadcasts over its moves.
        polled = obj.take(ids[:, None])
        steps = _FIRST_STEPS * 0.25**shrinks
        cand = y[:, :, None] + steps[:, :, None] * _POLL[:, None, :]
        np.clip(cand[:2], 0.0, _RHO_MAX, out=cand[:2])
        # sigma1_sq is capped for mu < 1, sigma2_sq otherwise.
        cand[2:] = np.where([polled.lo, ~polled.lo], np.minimum(cand[2:], 0.0), cand[2:])
        cand_x = np.concatenate([cand[:2], np.exp(cand[2:]) * _cap_rows(polled, cand)])
        cand_x = polled.clamp(cand_x)
        cand_val = polled(cand_x)
        lane, best = np.arange(ids.size), np.argmin(cand_val, axis=1)
        better = cand_val[lane, best] < val
        y = np.where(better, cand[:, lane, best], y)
        x = np.where(better, cand_x[:, lane, best], x)
        val = np.where(better, cand_val[lane, best], val)
        shrinks += ~better
        out_val[ids], out_x[:, ids] = val, x
        live = _LOG_STEP * 0.25**shrinks >= _STEP_FLOOR
        if not live.any():
            break
        ids, y, x, val, shrinks = ids[live], y[:, live], x[:, live], val[live], shrinks[live]
    return out_val, out_x


def _tight_sum_certificate(ch: TwoUserChannel) -> "GenieParams | None":
    # Local import: capacity builds on this module.
    from .capacity import CertificateUnavailableError, noisy_certificate, noisy_condition

    holds, _ = noisy_condition(ch)
    if not holds or ch.a == 0.0 or ch.b == 0.0:
        return None
    try:
        return noisy_certificate(ch)
    except CertificateUnavailableError:
        return None


def _probe_rhos() -> tuple[np.ndarray, np.ndarray]:
    """The parts of the probe grid free of the channel: the (2, n) rho rows
    of the 8^4 grid, then of the both-caps manifold, and the (2, 16^2) cap
    numerators (1 - rho2^2, 1 - rho1^2) of the manifold."""
    axis = np.linspace(0.0, _RHO_MAX, _GRID_POINTS)
    fine = np.linspace(0.0, _RHO_MAX, 2 * _GRID_POINTS)
    grid = np.array(np.meshgrid(axis, axis, indexing="ij")).reshape(2, -1)
    manifold = np.array(np.meshgrid(fine, fine, indexing="ij")).reshape(2, -1)
    rhos = np.concatenate([np.repeat(grid, _GRID_POINTS**2, axis=1), manifold], axis=1)
    return rhos, 1.0 - manifold[::-1] * manifold[::-1]


_PROBE_RHOS, _MANIFOLD_GAPS = _probe_rhos()


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
    """Coarse feasible probes, (4, n): 8 points per parameter (sigma^2
    log-spaced), then the manifold where both variance caps bind (the
    closed-form tight point lives there; it often holds the minimizer).
    ``objective.clamp`` puts a point past the capped variance's limit on
    that limit, in the box of the objective's weight.  Only the sigma^2
    axis and the manifold's caps depend on the channel."""
    smax = 10.0 * max(ch.p1, ch.p2, 1.0 / ch.a, 1.0 / ch.b)
    sig_axis = np.geomspace(_SIGMA_FLOOR, smax, _GRID_POINTS)
    n = _GRID_POINTS**4
    probes = np.empty((4, _PROBE_RHOS.shape[1]))
    probes[:2] = _PROBE_RHOS
    # Grid point ((i*8 + j)*8 + k)*8 + l has sigma1^2 = sig_axis[k] and
    # sigma2^2 = sig_axis[l].
    probes[2, :n].reshape(-1, _GRID_POINTS, _GRID_POINTS)[:] = sig_axis[:, None]
    probes[3, :n].reshape(-1, _GRID_POINTS)[:] = sig_axis
    np.divide(_MANIFOLD_GAPS, [[ch.b], [ch.a]], out=probes[2:, n:])
    return objective.clamp(probes)


def _mu_lines(requests) -> tuple[SupportingLine, ...]:
    """MU lines of (channel, mu) requests, in order, from one pattern
    search over the lanes of every request (``_pattern_search``).

    Per request the candidates are the closed-form tight parameters (at
    mu == 1 on a noisy-interference channel), then the 4 best points of the
    channel's probe grid; each is the start of one lane.  The best start or
    lane end wins, the first strict improvement in candidate order.  Each
    probe grid is built and clamped once per (channel, mu >= 1) pair and
    shared by every weight of that side, whose boxes are the same.  A line
    reports its winner as it is: grid points and lane ends lie in the
    search's box, and the tight parameters, which may have a correlation
    above _RHO_MAX, pass ``sigma_feasible``; its value is the objective
    there.
    """
    requests = tuple(requests)
    for ch, mu in requests:
        _require_regime(ch)
        _require_weight(mu)
    if not requests:
        return ()

    certs: dict[TwoUserChannel, GenieParams | None] = {}
    grids: dict[tuple[TwoUserChannel, bool], np.ndarray] = {}
    candidates: list[list[tuple[float, np.ndarray]]] = []
    for ch, mu in requests:
        objective = _MuObjective(ch.a, ch.b, ch.p1, ch.p2, mu)
        found = []
        if mu == 1.0:
            if ch not in certs:
                certs[ch] = _tight_sum_certificate(ch)
            cert = certs[ch]
            if cert is not None and sigma_feasible(ch, mu, cert):
                x = _genie_point(cert)
                found.append((float(objective(x)), x))
        grid = grids.get((ch, mu >= 1.0))
        if grid is None:
            grid = grids[ch, mu >= 1.0] = _probe_grid(ch, objective)
        vals = objective(grid)
        for i in _smallest(vals, 4):
            if math.isfinite(vals[i]):
                found.append((float(vals[i]), grid[:, i]))
        if not found:
            raise RuntimeError("no feasible genie parameters found")  # unreachable
        candidates.append(found)

    lanes = [req for req, found in zip(requests, candidates) for _ in found]
    starts = np.array([x for found in candidates for _, x in found]).T
    ends, points = _pattern_search(_MuObjective.of(lanes), starts)

    best = []
    lane = 0
    for found in candidates:
        best_val, best_x = found[0]
        for val, x in found:
            if val < best_val:
                best_val, best_x = val, x
        for _ in found:
            if ends[lane] < best_val:
                best_val, best_x = float(ends[lane]), points[:, lane]
            lane += 1
        best.append((best_val, best_x))

    objective = _MuObjective.of(requests)
    xs = np.array([x for _, x in best]).T
    p1_stars, p2_stars = objective.effective(xs)
    lines = []
    for (_, mu), (val, _), x, p1_star, p2_star in zip(
        requests, best, xs.T.tolist(), p1_stars.tolist(), p2_stars.tolist()
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
    probes and starts per weight, and the same winner.  The pattern
    searches of all (weight, start) pairs, about 4 per weight, run in
    lockstep: each search step is one objective call that polls the 32
    moves of every live lane, so the searches of a 65-weight region take
    at most 140 calls, the cap of one lane; FIG1's default region takes
    207 calls in all, against 2,992 as 65 separate calls.
    """
    _require_regime(ch)
    return _mu_lines((ch, mu) for mu in mus)


def optimize_constraint1(ch: TwoUserChannel, mu: float) -> SupportingLine:
    """Minimize the MU-family bound on R1 + mu*R2 over the genie parameters.

    Deterministic multi-start search: a coarse feasible grid (8 points per
    parameter, sigma^2 log-spaced), then a pattern search in cap-scaled
    coordinates (``_pattern_search``) from the 4 best grid points.  When
    mu == 1 and the channel has noisy interference, the closed-form tight
    parameters are a fifth start, so the returned value is exact there.
    The searches run in lockstep, each step one objective call that polls
    32 moves per start, so a weight costs as many calls as its longest
    search (at most 140; 37-142 on FIG1's default weights, median 43).  The
    result is always an upper bound on R1 + mu*R2 (every probe is feasible)
    and never exceeds the bound at any probed point.

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
    sum directly, weights < 1 need the R2 cap to top up).  The weight-1 MU
    searches of all channels run as one lockstep pattern search, each of
    whose objective calls polls the moves of every channel's lanes, so a
    call costs as many objective calls as its longest search, not the sum
    over the channels.  Each bound equals ``sum_upper_bound`` of its
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
            cap2 = 0.5 * math.log2(1.0 + ch.p2)
            bounds.append(eval_constraint3(ch, hi2).value + (1.0 - hi2) * cap2)
        out.append(min(bounds) if bounds else None)
    return tuple(out)


def sum_upper_bound(ch: TwoUserChannel) -> float | None:
    """Best available upper bound on R1 + R2 from the three line families,
    or None when no family applies to the channel; see ``sum_upper_bounds``,
    which bounds many channels in one search."""
    return sum_upper_bounds((ch,))[0]
