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
from dataclasses import dataclass, field
from enum import Enum

from .channel import GenieParams, TwoUserChannel, _check_finite_pos, _noisy_sign, sigma_feasible
from .channel import single_user_capacities, tin_rates

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
    """Check sqrt(a)*(b*p1+1) + sqrt(b)*(a*p2+1) <= 1 exactly, equality
    included (``channel._noisy_sign``): (holds, the float slack LHS - 1)."""
    sign, slack = _noisy_sign(ch.a, ch.b, ch.p1, ch.p2)
    return sign <= 0, slack


def noisy_certificate(ch: TwoUserChannel) -> GenieParams:
    """Closed-form genie parameters that make the weight-1 MU bound collapse
    to the single-user-detection sum rate.

    With u = a*(1 + b*p1)^2, v = b*(1 + a*p2)^2, k1 = 1 + v - u,
    k2 = 1 + u - v and root = sqrt(k1^2 - 4v) = sqrt(k2^2 - 4u), the
    variances are the (+,+) roots s1 = (k1 + root)/(2b), s2 = (k2 + root)/(2a)
    and the correlations rho1 = sqrt(2v/(k1 + root)), rho2 =
    sqrt(2u/(k2 + root)), each capped at 1.  Then rho1^2*s1 = (1 + a*p2)^2
    and rho2^2*s2 = (1 + b*p1)^2, where the per-user bounds are minimized,
    with no subtraction to cancel.  In exact arithmetic a*s2 = 1 - rho1^2
    puts the point on the weight-1 box's cap, so the larger of rho1^2 and
    a*s2 is stepped down one float at a time until the point passes
    ``sigma_feasible`` and lies in the exact box, a*s2 <= 1 - rho1^2 as
    rationals.
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
    try:  # rho1^2*s1 = (1 + a*p2)^2: where a square overflows, so does s1 or s2
        u = a * (b * ch.p1 + 1.0) ** 2
        v = b * (a * ch.p2 + 1.0) ** 2
    except OverflowError:
        raise CertificateUnavailableError("the certificate's variances overflow") from None
    k1 = v - u + 1.0
    k2 = u - v + 1.0
    root = math.sqrt(max(k1 * k1 - 4.0 * v, 0.0))  # (1 - u - v)^2 - 4uv >= 0 exactly
    if not (k1 + root > 0.0 and k2 + root > 0.0):  # u or v is 1 in floats
        raise CertificateUnavailableError("the certificate's variances round to 0")
    s1 = (k1 + root) / (2.0 * b)
    s2 = (k2 + root) / (2.0 * a)
    if not (s1 < math.inf and s2 < math.inf):
        raise CertificateUnavailableError("the certificate's variances overflow")
    rho1 = min(math.sqrt(2.0 * v / (k1 + root)), 1.0)
    rho2 = min(math.sqrt(2.0 * u / (k2 + root)), 1.0)
    na, da = a.as_integer_ratio()
    while True:
        gp = GenieParams(rho1, rho2, s1, s2)
        # Each float is an integer over a power of 2: compare exactly.
        (ns, ds), (nr, dr) = s2.as_integer_ratio(), rho1.as_integer_ratio()
        if sigma_feasible(ch, 1.0, gp) and na * ns * dr * dr <= (dr * dr - nr * nr) * da * ds:
            return gp
        # rho1^2 + a*s2 is 1 up to rounding; a float step down of the larger
        # term lowers it by 2^-54 or more, so a few steps move each target by
        # a few ulps (stepping s2 alone takes thousands where rho1 is near 1).
        if rho1 * rho1 > 0.5:
            rho1 = math.nextafter(rho1, 0.0)
        else:
            s2 = math.nextafter(s2, 0.0)


def _certificate(ch: TwoUserChannel) -> GenieParams | None:
    """The noisy certificate of ``ch``, or None where it does not exist."""
    try:
        return noisy_certificate(ch)
    except CertificateUnavailableError:
        return None


def mixed_condition(ch: TwoUserChannel) -> tuple[bool, float]:
    """Check the mixed-interference corner condition.

    Direct orientation: a > 1, 0 < b < 1 and (1-a*b)*p1 - (a-1) <= 0.
    For b > 1, 0 < a < 1 the swapped channel is checked instead.
    Returns (holds, slack), ``holds`` decided exactly; the float slack is
    +inf when neither orientation's gain pattern applies.
    """
    if ch.a > 1.0 and 0.0 < ch.b < 1.0:
        slack = (1.0 - ch.a * ch.b) * ch.p1 - (ch.a - 1.0)
        (na, da), (nb, db), (n1, d1) = (x.as_integer_ratio() for x in (ch.a, ch.b, ch.p1))
        return (da * db - na * nb) * n1 <= (na - da) * db * d1, slack
    if ch.b > 1.0 and 0.0 < ch.a < 1.0:
        return mixed_condition(ch.swapped())
    return False, math.inf


def _verdict_kind(ch: TwoUserChannel) -> tuple[VerdictKind, dict[str, float]]:
    """The verdict kind of ``ch`` and its condition slacks, by ``classify``'s
    priority, from the two conditions alone: no certificate is built."""
    noisy_holds, noisy_slack = noisy_condition(ch)
    mixed_holds, mixed_slack = mixed_condition(ch)
    if noisy_holds:
        one_sided = ch.a == 0.0 or ch.b == 0.0
        kind = VerdictKind.ZIC_NOISY if one_sided else VerdictKind.NOISY_INTERFERENCE
    else:
        kind = VerdictKind.MIXED_CORNER if mixed_holds else VerdictKind.UNKNOWN
    return kind, {"noisy": noisy_slack, "mixed": mixed_slack}


def classify(ch: TwoUserChannel) -> CapacityVerdict:
    """Dispatch to the known sum-rate capacity regimes.

    Priority: noisy interference (including the one-sided a=0 or b=0
    channels, reported as ZIC_NOISY and carrying no genie certificate),
    then the mixed corner, else UNKNOWN; a certificate that overflows is None.
    """
    kind, slacks = _verdict_kind(ch)
    if kind is VerdictKind.UNKNOWN:
        return CapacityVerdict(kind=kind, condition_slack=min(slacks.values()), slacks=slacks)
    if kind is VerdictKind.MIXED_CORNER:
        # Oriented so that a > 1: user 1, whose receiver sees the strong
        # crosstalk, sends at its single-user rate; user 2 treats it as noise.
        strong = ch if ch.a > 1.0 else ch.swapped()
        return CapacityVerdict(
            kind=kind,
            sum_capacity=single_user_capacities(strong).r1 + tin_rates(strong).r2,
            condition_slack=slacks["mixed"],
            slacks=slacks,
        )
    return CapacityVerdict(
        kind=kind,
        sum_capacity=tin_rates(ch).sum,
        certificate=_certificate(ch),
        condition_slack=slacks["noisy"],
        slacks=slacks,
    )


def symmetric_noisy_threshold(p: float) -> float:
    """Largest symmetric gain a = b (<= 1/4) whose noisy-interference power
    limit still admits power p1 = p2 = p.

    With t = sqrt(a), limit (sqrt(a) - 2a)/(2a^2) = p is the cubic
    2p t^3 + 2t - 1 = 0, whose one real root is the cancellation-free
    t = 2/sqrt(3p) * sinh(asinh(0.75*sqrt(3p))/3), with sqrt(3p) as
    sqrt(3)*sqrt(p) so that no finite p overflows.  At huge p it carries the
    absolute rounding of asinh (about 1e-13 near p = 1e308) as a relative
    error, which one Newton step, t <- t - (2q t + (2t - 1))/(6q + 2) with
    q = p t^2 formed first so that nothing overflows, squares away: the start
    a = t^2 then lies at most 3 floats from the answer on 20,000 powers from
    1e-323 to 1e308, and on 20,000 from 1e-8 to 1e12.  The limit decreases in a
    on (0, 1/4], so a is stepped down one float at a time until the noisy
    condition holds exactly, then up while the next float still meets it.
    """
    _check_finite_pos("power", p)
    x = math.sqrt(3.0) * math.sqrt(p)
    t = 2.0 / x * math.sinh(math.asinh(0.75 * x) / 3.0)
    q = p * t * t
    t -= (2.0 * q * t + (2.0 * t - 1.0)) / (6.0 * q + 2.0)
    a = min(t * t, 0.25)
    while _noisy_sign(a, a, p, p)[0] > 0:
        a = math.nextafter(a, 0.0)
    while _noisy_sign(up := math.nextafter(a, 1.0), up, p, p)[0] <= 0:
        a = up
    return a
