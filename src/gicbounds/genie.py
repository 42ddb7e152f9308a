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
    base = 1.0 + ch.p1 + ch.a * ch.p2
    share = _user_share(ch.p1, ch.p1, ch.a, ch.p2, base, rho1, sigma1 * sigma1)
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
_SWEEP_TOL = 1e-9  # bits; convergence threshold for one descent sweep
_STEP_FLOOR = 1e-9


def _descent_moves() -> np.ndarray:
    """Move table of the coordinate descent, one row per halving count.

    Column 2*idx + k is the move of parameter idx in direction k (0 up,
    1 down): an additive step for the correlations, a factor
    exp(+-log_step) for the variances.  The steps start at 0.15 and log(3)
    and halve together while either exceeds _STEP_FLOOR.  The factors come
    from math.exp, not numpy's vectorized exp, which may round differently,
    and the steps from repeated halving: the lines depend on every bit of
    each move.
    """
    rows = []
    up_down = (1.0, -1.0)
    rho_step, log_step = 0.15, math.log(3.0)
    while rho_step > _STEP_FLOOR or log_step > _STEP_FLOOR:
        rows.append(
            [sign * rho_step for sign in up_down] * 2
            + [math.exp(sign * log_step) for sign in up_down] * 2
        )
        rho_step *= 0.5
        log_step *= 0.5
    return np.array(rows)


_MOVES = _descent_moves()
_HALVINGS = len(_MOVES)  # halvings after which a descent round ends
_CHAIN_MAX = 64  # most repeats of an accepted move polled in one call
_LOOKAHEAD = 32  # sweeps polled ahead per call (see _lockstep_descent)
# The constants of a _MuObjective with one value per entry, which ``take``
# gathers.
_ENTRY_VALUES = (
    "a", "b", "p1", "p2", "mu", "half_mu", "b_mu", "hi_left", "hi_den",
    "lo_left", "lo_den", "base1", "base2",
)


class _MuObjective:
    """The MU objective, entry by entry, of channels (a, b, p1, p2) at
    weights ``mu``: the one implementation of the MU bound, used by the
    search and, at one point, by ``eval_constraint1``, ``effective_powers``
    and (through ``_user_share``) ``user1_genie_bound``.

    Points are arrays with rows (rho1, rho2, sigma1_sq, sigma2_sq), or one
    such column.  The channel parameters and ``mu`` broadcast against a row:
    scalars for the probe grid of one channel at one weight, or one value
    per lane of the lockstep descent, whose lanes may belong to different
    channels.  Only the branches of the weights present are evaluated.  The
    sub-expressions free of the point are computed once, with the same
    operations in the same order as a one-point call, so each entry is
    bit-for-bit the value of a one-point call on its own channel.
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
        self.base1 = 1.0 + p1 + a * p2
        self.base2 = 1.0 + p2 + b * p1

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

    def caps(self, r1, r2):
        """Upper limits (s1_max, s2_max) of the feasibility box; +inf where
        the weight leaves that variance uncapped."""
        s1_max = s2_max = np.inf
        if self.any_lo:
            s1_max = (1.0 - r2 * r2) / self.b
            if self.any_one or self.any_hi:
                s1_max = np.where(self.lo, s1_max, np.inf)
        if self.any_one or self.any_hi:
            s2_max = (1.0 - r1 * r1) / self.a
            if self.any_lo:
                s2_max = np.where(self.lo, np.inf, s2_max)
        return s1_max, s2_max

    def clamp(self, x: np.ndarray) -> np.ndarray:
        """Project points (rows rho1, rho2, s1, s2) into the feasibility box."""
        out = np.empty_like(x)
        np.minimum(np.maximum(x[:2], 0.0), _RHO_MAX, out=out[:2])
        s1_max, s2_max = self.caps(out[0], out[1])
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

    def in_box(self, x: np.ndarray) -> np.ndarray:
        """Objective values at points ``x`` of the box; points at degenerate
        parameters come out +inf.  Every evaluation of the objective goes
        through here."""
        r1, r2, s1, s2 = x
        p1_star, p2_star = self.effective(x)
        val = 0.5 * _user_share(
            self.p1, p1_star, self.a, p2_star, self.base1, r1, s1
        ) + self.half_mu * _user_share(
            self.p2, p2_star, self.b, p1_star, self.base2, r2, s2
        )
        return np.where(np.isfinite(val), val, np.inf)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Objective values at points ``x``; points outside the box or at
        degenerate parameters come out +inf."""
        s1_max, s2_max = self.caps(x[0], x[1])
        val = self.in_box(x)
        return np.where((x[2] > s1_max) | (x[3] > s2_max), np.inf, val)

    def clamped(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``clamp(x)`` and the objective values there, the caps computed
        once: a clamped point lies in the box, so the box check of
        ``__call__`` would change nothing."""
        out = self.clamp(x)
        return out, self.in_box(out)


def _user_share(p, p_star, gain, p_star_other, base, rho, s):
    """Twice one user's share of the MU bound, in bits:

        log2(1 + p_star/s) - log2(gain*p_star_other + 1 - rho^2)
      + log2(base - (p + rho*sqrt(s))^2/(p + s)),

    with base = 1 + p + gain*p_other; +inf where a log argument is <= 0.
    The arguments broadcast.
    """
    shrink = gain * p_star_other + 1.0 - rho * rho
    lin = p + rho * np.sqrt(s)
    cond = base - lin * lin / (p + s)
    with np.errstate(divide="ignore", invalid="ignore"):
        share = np.log2(1.0 + p_star / s) - np.log2(shrink) + np.log2(cond)
    return np.where((shrink <= 0) | (cond <= 0), np.inf, share)


def _lockstep_descent(
    obj: _MuObjective, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Derivative-free coordinate descent from every start ("lane") at once.

    Each lane cycles through the four parameters, moving each one up and
    then down while that lowers its value, with every candidate clamped back
    into the feasibility box.  A sweep that gains less than _SWEEP_TOL
    halves the lane's steps; once they pass _STEP_FLOOR the lane restarts
    once more with fresh steps, unless that round gained less than
    _SWEEP_TOL.  A lane is a (channel, weight, start) triple: ``obj`` holds
    each lane's own channel and weight, so lanes of different channels share
    the objective calls.  ``starts`` is (4, lanes); returns the (values,
    points) the lanes end at.

    Each step is one objective call that polls, for every live lane, every
    move it might take next from its point: a chain of repeats of its
    current move, then one step of each later move of the sweep, then the
    moves of the sweeps that follow should none of these improve.  The lane
    takes the leading chain points that each improve on the one before or,
    if the first does not improve, the first other move that does, in
    polling order: exactly the moves, in the same order, that a search
    testing one candidate per call accepts.  The chain has one point unless
    the lane accepted on its last step; it doubles while the whole chain is
    accepted, up to _CHAIN_MAX.  A lane leaves the batch when it finishes.

    The sweeps polled ahead.  A lane at halving h, in a sweep that started
    at value sweep_start, polls sweeps k = 1..ahead after the rest of its
    sweep: sweep 1 at halving h + d, d = (sweep_start - val < _SWEEP_TOL),
    and each later one a halving further, the last no later than the last
    halving of the round (ahead <= _HALVINGS - h - d).  The quiet lanes of a
    call (their last sweep took no move and they are back at the start of a
    sweep, so d = 1) share _LOOKAHEAD sweeps; every other lane gets
    _LOOKAHEAD // (live lanes), so a wide batch polls ahead only its quiet
    lanes.  Should no remaining move of its sweep improve, the one-candidate
    search ends the sweep at the same point and value, adding d to h.  A
    lane that polls ahead has h + d < _HALVINGS, so the round goes on: the
    next sweep starts from the same point, with sweep_start = val, at
    halving h + d.  If it takes no move
    either, it gains nothing, so the one after is at halving h + d + 1, from
    the same point, and so on.  A polled move of sweep k is thus the point
    that sweep tests, with the same value.  For d = 0, sweep 1 repeats the
    current halving, and its moves from the current one on are points that
    the current sweep polls: they fail there, so they fail again and are not
    polled twice.  Hence the first polled move that improves is the next
    move the one-candidate search takes, and every point it tests before
    fails.  Taking a move of sweep k >= 1 leaves the lane at halving
    h + d + k - 1, at that move, with sweep_start its value before the move;
    each sweep passed ended below _HALVINGS halvings, so no round ended and
    restarted and round_start stay.  A lane that takes no move has passed
    its sweep and ``ahead`` more, each after the first gaining nothing: it
    is at halving h + d + ahead, at the start of a sweep from the same point
    and value, and the round-end rule runs there once, as it runs after the
    last of those sweeps (an earlier one ends at most h + d + ahead - 1 <
    _HALVINGS halvings).

    Why chain point k is the point k single steps reach.  Its moved
    coordinate is the k-fold np.add.accumulate (rho) or
    np.multiply.accumulate (sigma^2) of the step: the roundings of k single
    steps, while the clamp leaves that coordinate alone.  The clamp acts on
    each coordinate on its own and every point is clamped already, so an
    unmoved rho stays put, and so does an unmoved sigma^2 when the other
    sigma^2 moves, since the caps depend on the correlations only.  That
    leaves the capped sigma^2 s when the other user's rho r moves.  Along
    the chain r is monotone (rounding a sum or product with a fixed step
    is, and so is the clamp to [0, _RHO_MAX]), hence so is the rounded cap
    (1 - r*r)/gain.  With r <= _RHO_MAX and gain < 1 the cap is at least
    1 - _RHO_MAX**2 > 1.99e-6, above the sigma^2 floor of 1e-6, so s >= 1e-6
    and the floor never binds.  Single steps give s_k = min(s_{k-1}, cap_k):
    min(s_0, cap_k) for a falling cap, and s_0 = min(s_0, cap_k) for a
    rising one, since s_0 <= cap_0.  Clamping chain point k on its own gives
    min(s_0, cap_k), the same bits, as min and max round nothing.  Once the
    clamp changes the moved coordinate, it puts it on the same bound (0,
    _RHO_MAX, the floor or the cap, which that move leaves alone) at every
    later chain point, and with it the capped sigma^2: all of them are the
    first such point, cannot improve on it, and so cut the chain there, as
    a single step from that point, which returns it, stops the repeats.
    """
    x, val = obj.clamped(starts)
    out_val, out_x = val.copy(), x.copy()
    ids = np.arange(x.shape[1])  # lane of each live entry
    move = np.zeros_like(ids)  # column of _MOVES: 2*parameter + direction
    chain = np.ones_like(ids)  # repeats of the current move to poll
    halvings = np.zeros_like(ids)
    restarted = np.zeros(ids.shape, dtype=bool)
    quiet = np.zeros(ids.shape, dtype=bool)  # last sweep took no move
    sweep_start = val
    round_start = val
    while ids.size:
        # One step of each move from the current one to the end of the
        # sweep, lane by lane, the first being the chain's first point, then
        # every move of the next ``ahead`` sweeps: column 8*k + move is a move
        # of sweep k.  Sweep 1 of a lane whose sweep has gained _SWEEP_TOL
        # keeps the current halving, so its columns 8 + move..15 would repeat
        # polled points: that lane's columns skip them.
        gained = ~(sweep_start - val < _SWEEP_TOL)
        idle = quiet & (move == 0) & (sweep_start == val)
        share = np.where(idle, _LOOKAHEAD // max(1, np.count_nonzero(idle)), _LOOKAHEAD // ids.size)
        ahead = np.minimum(share, _HALVINGS - 1 + gained - halvings)
        skip = np.where(gained & (ahead > 0), 8 - move, 0)
        count = 8 * (1 + ahead) - move - skip
        first = np.cumsum(count) - count
        lane = np.repeat(np.arange(ids.size), count)
        pos = np.arange(lane.size) - first[lane]
        col = pos + move[lane] + skip[lane] * (pos >= 8)
        cand_move, sweep_k = col & 7, col >> 3
        n_single = lane.size
        cur = x[cand_move >> 1, lane]
        step = _MOVES[halvings[lane] + sweep_k - (gained[lane] & (sweep_k > 0)), cand_move]
        moved = np.where(cand_move < 4, cur + step, cur * step)
        # Repeats 2..chain of the current move, lane by lane, for the lanes
        # that accepted it on their last step.
        hot = np.flatnonzero(chain > 1)
        if hot.size:
            param = move[hot] >> 1
            walk = np.empty((hot.size, chain[hot].max() + 1))
            walk[:, 0] = x[param, hot]
            walk[:, 1:] = _MOVES[halvings[hot], move[hot]][:, None]
            walk = np.where(
                (param < 2)[:, None],
                np.add.accumulate(walk, axis=1),
                np.multiply.accumulate(walk, axis=1),
            )
            repeats = np.arange(walk.shape[1])
            hot_row, rep = np.nonzero((repeats >= 2) & (repeats <= chain[hot][:, None]))
            lane = np.concatenate([lane, hot[hot_row]])
            cand_move = np.concatenate([cand_move, move[hot][hot_row]])
            sweep_k = np.concatenate([sweep_k, np.zeros_like(hot_row)])
            moved = np.concatenate([moved, walk[hot_row, rep]])
        cols = np.arange(lane.size)
        cand = x[:, lane]
        cand[cand_move >> 1, cols] = moved
        cand, cand_val = obj.take(ids[lane]).clamped(cand)

        # Chain points taken: leading points that each improve on the last.
        better = cand_val[:n_single] < val[lane[:n_single]]
        taken = better[first].astype(int)
        after = first  # candidate holding the last chain point taken
        if hot.size:
            extra = cand_val[n_single:]
            last = np.empty_like(extra)
            last[1:] = extra[:-1]
            n_extra = chain[hot] - 1
            segment = np.cumsum(n_extra) - n_extra
            last[segment] = cand_val[first[hot]]
            miss = np.minimum.reduceat(np.where(extra < last, _CHAIN_MAX + 1, rep), segment)
            taken[hot] *= np.minimum(miss - 1, chain[hot])
            after = first.copy()
            after[hot] = np.where(taken[hot] > 1, n_single + segment + taken[hot] - 2, first[hot])
        # Otherwise the first other polled move that improves.
        later_at = np.minimum.reduceat(np.where(better, cols[:n_single], n_single), first)
        later = (taken == 0) & (later_at < n_single)
        pick = np.where(later, later_at, after)
        moves = later | (taken > 0)
        jump = sweep_k[pick]  # sweep of the move taken, 0 without one
        jumped = jump > 0
        halvings = halvings + np.where(moves, jump - (gained & jumped), ahead)
        # The last sweep passed is sweep jump - 1.
        quiet = np.where(jumped, (jump > 1) | (sweep_start == val), quiet)
        sweep_start = np.where(jumped, val, sweep_start)
        x = np.where(moves, cand[:, pick], x)
        val = np.where(moves, cand_val[pick], val)
        whole = taken == chain
        move = cand_move[pick] + (~whole & ~later)
        chain = np.where(whole, np.minimum(2 * chain, _CHAIN_MAX), np.where(later, 2, 1))
        swept = ~moves | (move == 8)
        if np.count_nonzero(swept):
            halvings = halvings + (swept & (sweep_start - val < _SWEEP_TOL))
            ended = swept & (halvings == _HALVINGS)
            done = ended & (restarted | (round_start - val < _SWEEP_TOL))
            fresh = ended & ~done
            restarted = restarted | fresh
            round_start = np.where(fresh, val, round_start)
            halvings = np.where(fresh, 0, halvings)
            quiet = np.where(swept, (sweep_start == val) | (~moves & (ahead > 0)), quiet)
            move = np.where(swept, 0, move)
            sweep_start = np.where(swept, val, sweep_start)
            if np.count_nonzero(done):
                out_val[ids[done]] = val[done]
                out_x[:, ids[done]] = x[:, done]
                keep = ~done
                ids, x, val = ids[keep], x[:, keep], val[keep]
                move, chain, halvings = move[keep], chain[keep], halvings[keep]
                restarted, quiet = restarted[keep], quiet[keep]
                sweep_start, round_start = sweep_start[keep], round_start[keep]
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
    """MU lines of (channel, mu) requests, in order, from one lockstep
    descent over the lanes of every request.

    Per request the candidates are the closed-form tight parameters (at
    mu == 1 on a noisy-interference channel), then the 4 best points of the
    channel's probe grid; each is the start of one lane.  The best start or
    lane end wins, the first strict improvement in candidate order.  Each
    probe grid is built and clamped once per (channel, mu >= 1) pair and
    shared by every weight of that side, whose boxes are the same.
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
    ends, points = _lockstep_descent(_MuObjective.of(lanes), starts)

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
    xs = objective.clamp(np.array([x for _, x in best]).T)
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
    probes and starts per weight, and the same winner.  The descents of all
    (weight, start) pairs, about 4 per weight, run in lockstep: each search
    step is one objective call that polls every move each descent may take
    next, so a 65-weight region takes about as many calls as its longest
    descent (about 130), not one per candidate of every descent (about
    160,000).
    """
    _require_regime(ch)
    return _mu_lines((ch, mu) for mu in mus)


def optimize_constraint1(ch: TwoUserChannel, mu: float) -> SupportingLine:
    """Minimize the MU-family bound on R1 + mu*R2 over the genie parameters.

    Deterministic multi-start search: a coarse feasible grid (8 points per
    parameter, sigma^2 log-spaced), then coordinate descent from the 4 best
    grid points.  When mu == 1 and the channel has noisy interference, the
    closed-form tight parameters are a fifth start, so the returned value
    is exact there.  The descents run in lockstep: each search step is one
    objective call that polls every move each start's descent may take
    next, so the search costs about as many calls as its longest descent
    (typically 30-55) rather than one per candidate of every start.  The
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
    searches of all channels run as one lockstep descent, each of whose
    objective calls polls the next moves of every channel's descents, so a
    call costs about as many objective calls as its longest descent, not
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
            cap2 = 0.5 * math.log2(1.0 + ch.p2)
            bounds.append(eval_constraint3(ch, hi2).value + (1.0 - hi2) * cap2)
        out.append(min(bounds) if bounds else None)
    return tuple(out)


def sum_upper_bound(ch: TwoUserChannel) -> float | None:
    """Best available upper bound on R1 + R2 from the three line families,
    or None when no family applies to the channel; see ``sum_upper_bounds``,
    which bounds many channels in one search."""
    return sum_upper_bounds((ch,))[0]
