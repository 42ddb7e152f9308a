"""Exact sum-rate capacity classifiers for the two-user channel.

Two regimes admit a closed-form sum-rate capacity:

* noisy interference: sqrt(a)*(b*p1+1) + sqrt(b)*(a*p2+1) <= 1, where
  single-user detection (treating interference as noise) is sum-rate
  optimal and a closed-form genie certificate makes the MU outer bound
  tight at weight 1;
* mixed corner: a > 1, 0 < b < 1 and (1-a*b)*p1 <= a-1 (or the same with
  the user roles swapped), where one user transmits at full single-user
  rate and the other at the rate both receivers can decode.

Everything else is reported as UNKNOWN, with the condition slacks attached
so callers can see how far the channel is from each regime.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum

from .channel import TwoUserChannel, tin_rates
from .genie import GenieParams
from .multiuser import symmetric_threshold

__all__ = [
    "VerdictKind",
    "CapacityVerdict",
    "CertificateUnavailableError",
    "noisy_condition",
    "noisy_certificate",
    "mixed_condition",
    "classify",
    "symmetric_noisy_threshold",
]

_SLACK_TOL = 1e-12


class VerdictKind(str, Enum):
    NOISY_INTERFERENCE = "NOISY_INTERFERENCE"
    MIXED_CORNER = "MIXED_CORNER"
    ZIC_NOISY = "ZIC_NOISY"
    UNKNOWN = "UNKNOWN"


class CertificateUnavailableError(ValueError):
    """The closed-form genie certificate does not exist for this channel."""


@dataclass(frozen=True)
class CapacityVerdict:
    """Outcome of the sum-rate capacity classification.

    ``condition_slack`` is LHS - RHS of the governing inequality (<= 0 when
    the verdict applies); ``slacks`` additionally records the slack of every
    regime that was checked, keyed 'noisy' and 'mixed'.
    """

    kind: VerdictKind
    sum_capacity: float | None = None
    certificate: GenieParams | None = None
    condition_slack: float = math.nan
    slacks: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind is not VerdictKind.UNKNOWN:
            if self.sum_capacity is None or self.sum_capacity < 0:
                raise ValueError("verdicts other than UNKNOWN need a capacity >= 0")


def noisy_condition(ch: TwoUserChannel) -> tuple[bool, float]:
    """Check sqrt(a)*(b*p1+1) + sqrt(b)*(a*p2+1) <= 1.

    Returns (holds, slack) with slack = LHS - 1; boundary equality counts
    as satisfied (tolerance 1e-12).
    """
    slack = (
        math.sqrt(ch.a) * (ch.b * ch.p1 + 1.0)
        + math.sqrt(ch.b) * (ch.a * ch.p2 + 1.0)
        - 1.0
    )
    return slack <= _SLACK_TOL, slack


def noisy_certificate(ch: TwoUserChannel) -> GenieParams:
    """Closed-form genie parameters that make the weight-1 MU bound collapse
    to the single-user-detection sum rate.

    The variances are roots of coupled quadratics; both share the same
    discriminant.  Root signs are chosen deterministically: among the sign
    pairs giving sigma_i^2 > 0 and rho_i in [0, 1], prefer the pair with
    rho1*sigma1 = 1 + a*p2 and rho2*sigma2 = 1 + b*p1 (the per-user bounds
    are minimized exactly there); (+,+) is probed first.
    """
    holds, slack = noisy_condition(ch)
    if not holds:
        raise CertificateUnavailableError(
            f"noisy-interference condition fails (slack {slack:.3g})"
        )
    if ch.a <= 0.0 or ch.b <= 0.0:
        raise CertificateUnavailableError(
            "the genie construction needs strictly positive crosstalk gains"
        )
    a, b = ch.a, ch.b
    u = a * (b * ch.p1 + 1.0) ** 2  # a*(1+b*p1)^2
    v = b * (a * ch.p2 + 1.0) ** 2  # b*(1+a*p2)^2
    k1 = v - u + 1.0
    k2 = u - v + 1.0
    disc = k1 * k1 - 4.0 * v  # equals k2*k2 - 4*u
    if disc < 0.0:
        if disc < -1e-12 * max(1.0, k1 * k1):
            raise CertificateUnavailableError(
                f"negative discriminant {disc:.3g}: no real certificate"
            )
        disc = 0.0
    root = math.sqrt(disc)

    target1 = 1.0 + a * ch.p2  # rho1*sigma1 should equal this
    target2 = 1.0 + b * ch.p1
    fallback = None
    for sign1 in (1.0, -1.0):
        s1 = (k1 + sign1 * root) / (2.0 * b)
        if s1 <= 0.0 or b * s1 > 1.0:
            continue
        rho2 = math.sqrt(max(1.0 - b * s1, 0.0))
        for sign2 in (1.0, -1.0):
            s2 = (k2 + sign2 * root) / (2.0 * a)
            if s2 <= 0.0 or a * s2 > 1.0:
                continue
            rho1 = math.sqrt(max(1.0 - a * s2, 0.0))
            gp = GenieParams(rho1=rho1, rho2=rho2, sigma1_sq=s1, sigma2_sq=s2)
            ok1 = abs(rho1 * math.sqrt(s1) - target1) <= 1e-9 * max(1.0, target1)
            ok2 = abs(rho2 * math.sqrt(s2) - target2) <= 1e-9 * max(1.0, target2)
            if ok1 and ok2:
                return gp
            if fallback is None:
                fallback = gp
    if fallback is not None:
        return fallback
    raise CertificateUnavailableError("no feasible root combination")


def mixed_condition(ch: TwoUserChannel) -> tuple[bool, float]:
    """Check the mixed-interference corner condition.

    Direct orientation: a > 1, 0 < b < 1 and (1-a*b)*p1 - (a-1) <= 0.
    The role-swapped orientation (b > 1, 0 < a < 1) is checked as well.
    Returns (holds, slack); slack is +inf when neither orientation's gain
    pattern applies.
    """
    if ch.a > 1.0 and 0.0 < ch.b < 1.0:
        slack = (1.0 - ch.a * ch.b) * ch.p1 - (ch.a - 1.0)
        return slack <= _SLACK_TOL, slack
    if ch.b > 1.0 and 0.0 < ch.a < 1.0:
        slack = (1.0 - ch.a * ch.b) * ch.p2 - (ch.b - 1.0)
        return slack <= _SLACK_TOL, slack
    return False, math.inf


def classify(ch: TwoUserChannel) -> CapacityVerdict:
    """Dispatch to the known sum-rate capacity regimes.

    Priority: noisy interference (including the one-sided a=0 or b=0
    channels, reported as ZIC_NOISY and carrying no genie certificate),
    then the mixed corner, else UNKNOWN.
    """
    noisy_holds, noisy_slack = noisy_condition(ch)
    mixed_holds, mixed_slack = mixed_condition(ch)
    slacks = {"noisy": noisy_slack, "mixed": mixed_slack}

    if noisy_holds:
        capacity = tin_rates(ch).sum
        if ch.a == 0.0 or ch.b == 0.0:
            return CapacityVerdict(
                kind=VerdictKind.ZIC_NOISY,
                sum_capacity=capacity,
                condition_slack=noisy_slack,
                slacks=slacks,
            )
        return CapacityVerdict(
            kind=VerdictKind.NOISY_INTERFERENCE,
            sum_capacity=capacity,
            certificate=noisy_certificate(ch),
            condition_slack=noisy_slack,
            slacks=slacks,
        )

    if mixed_holds:
        if ch.a > 1.0:
            capacity = 0.5 * math.log2(1.0 + ch.p1) + 0.5 * math.log2(
                1.0 + ch.p2 / (1.0 + ch.b * ch.p1)
            )
        else:
            capacity = 0.5 * math.log2(1.0 + ch.p2) + 0.5 * math.log2(
                1.0 + ch.p1 / (1.0 + ch.a * ch.p2)
            )
        return CapacityVerdict(
            kind=VerdictKind.MIXED_CORNER,
            sum_capacity=capacity,
            condition_slack=mixed_slack,
            slacks=slacks,
        )

    return CapacityVerdict(
        kind=VerdictKind.UNKNOWN,
        condition_slack=min(noisy_slack, mixed_slack),
        slacks=slacks,
    )


def symmetric_noisy_power_limit(a: float) -> float:
    """Largest symmetric power with noisy interference at gain a = b:
    (sqrt(a) - 2a)/(2a^2) for a <= 1/4, zero above: the uniform m-user
    threshold at m = 2."""
    return symmetric_threshold(2, a)


def symmetric_noisy_threshold(p: float) -> float:
    """Largest symmetric gain a = b (<= 1/4) whose noisy-interference power
    limit still admits power p1 = p2 = p.

    With t = sqrt(a), limit (sqrt(a) - 2a)/(2a^2) = p is the cubic
    2p t^3 + 2t - 1 = 0, whose one real root is the cancellation-free
    t = 2/sqrt(3p) * sinh(asinh(0.75*sqrt(3p))/3).  The limit decreases in
    a on (0, 1/4], so stepping a down one float at a time until the limit
    admits p puts the result on the feasible side of the boundary.  Powers
    above about 2.7e230, whose threshold squares below the normal floats,
    cannot be checked that way and raise ValueError.
    """
    if not (math.isfinite(p) and p > 0):
        raise ValueError(f"power must be finite and > 0, got {p}")
    x = math.sqrt(3.0 * p)
    t = 2.0 / x * math.sinh(math.asinh(0.75 * x) / 3.0)
    a = min(t * t, 0.25)
    if not a * a >= sys.float_info.min:
        raise ValueError(f"power {p} is too large for a representable gain threshold")
    while symmetric_noisy_power_limit(a) < p:
        a = math.nextafter(a, 0.0)
    return a
