"""The two-user channel model in standard form and the elementary
achievable-rate formulas.

All rates are in bits per channel use (log base 2).  Powers and gains are
linear; the direct gains and the noise variances are normalized to 1, so the
crosstalk is fully described by the power gains ``a`` and ``b``.  The closed
forms that the bound, capacity and m-user layers share live here too: the
genie parameters with their feasibility box, and the exact sign of the noisy
condition.  Everything here runs on ``math`` alone; the m-user model lives in
``multiuser``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "TwoUserChannel",
    "RatePoint",
    "GenieParams",
    "tin_rates",
    "single_user_capacities",
    "tdm_fdm_sum_rate",
    "sigma_limits",
    "sigma_feasible",
]


def _check_finite_nonneg(name: str, value: float) -> None:
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def _check_finite_pos(name: str, value: float) -> None:
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class TwoUserChannel:
    """Two-user Gaussian interference channel (a, b, p1, p2) in standard form.

    ``a`` is the crosstalk power gain into receiver 1, ``b`` the gain into
    receiver 2; ``p1``/``p2`` are the transmit power constraints in linear
    SNR units (unit noise variance).
    """

    a: float
    b: float
    p1: float
    p2: float

    def __post_init__(self):
        _check_finite_nonneg("a", self.a)
        _check_finite_nonneg("b", self.b)
        _check_finite_pos("p1", self.p1)
        _check_finite_pos("p2", self.p2)

    def swapped(self) -> "TwoUserChannel":
        """The same channel with the user roles exchanged."""
        return TwoUserChannel(a=self.b, b=self.a, p1=self.p2, p2=self.p1)


@dataclass(frozen=True)
class RatePoint:
    """A pair of user rates in bits per channel use."""

    r1: float
    r2: float

    def __post_init__(self):
        if self.r1 < 0 or self.r2 < 0:
            raise ValueError(f"rates must be nonnegative, got ({self.r1}, {self.r2})")

    @property
    def sum(self) -> float:
        return self.r1 + self.r2


_TWO_LN2 = 2.0 * math.log(2.0)


def _rate(snr: float) -> float:
    """0.5*log2(1 + snr), the one Gaussian rate.  log1p keeps the low bits
    of a small snr; its error (an ulp), the rounded constant's and the
    division's (half an ulp each) sum to a few ulps."""
    return math.log1p(snr) / _TWO_LN2


def tin_rates(ch: TwoUserChannel) -> RatePoint:
    """Single-user-detection rates, treating the cross signal as noise."""
    return RatePoint(_rate(ch.p1 / (1.0 + ch.a * ch.p2)), _rate(ch.p2 / (1.0 + ch.b * ch.p1)))


def single_user_capacities(ch: TwoUserChannel) -> RatePoint:
    """Interference-free point-to-point AWGN capacities of the two links."""
    return RatePoint(_rate(ch.p1), _rate(ch.p2))


def _tdm_rates(ch: TwoUserChannel, alpha: float) -> RatePoint:
    """Rates of orthogonal sharing: user 1 gets a fraction alpha of the
    channel with power p1/alpha, user 2 the rest with power p2/(1-alpha)."""
    return RatePoint(alpha * _rate(ch.p1 / alpha), (1.0 - alpha) * _rate(ch.p2 / (1.0 - alpha)))


def tdm_fdm_sum_rate(ch: TwoUserChannel, alpha: float) -> float:
    """Sum rate of orthogonal sharing at fraction alpha in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return _tdm_rates(ch, alpha).sum


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
            _check_finite_pos(name, getattr(self, name))


def sigma_limits(
    ch: TwoUserChannel, mu: float, rho1: float, rho2: float
) -> tuple[float, float]:
    """Upper limits of the (sigma1_sq, sigma2_sq) feasibility box.

    For mu >= 1 only sigma2_sq is capped, by (1 - rho1^2)/a; for mu < 1 only
    sigma1_sq is capped, by (1 - rho2^2)/b.  A zero gain makes the
    corresponding cap vacuous (+inf).
    """
    _check_finite_pos("mu", mu)
    if mu >= 1.0:
        s2_max = _gap(rho1) / ch.a if ch.a > 0 else math.inf
        return math.inf, s2_max
    s1_max = _gap(rho2) / ch.b if ch.b > 0 else math.inf
    return s1_max, math.inf


def _gap(r):
    """1 - r^2 for r in [0, 1], as (1 - r)*(1 + r), floats or arrays.  For r
    in [1/2, 1] the difference 1 - r is exact (Sterbenz), so the product is
    within two roundings of 1 - r^2 however near 1 r lies; 1 - r*r loses the
    absolute rounding of r*r, about 2^-53, to the cancellation."""
    return (1.0 - r) * (1.0 + r)


def sigma_feasible(ch: TwoUserChannel, mu: float, gp: GenieParams) -> bool:
    """Whether the genie variances lie in the weight-dependent feasibility box."""
    s1_max, s2_max = sigma_limits(ch, mu, gp.rho1, gp.rho2)
    return gp.sigma1_sq <= s1_max and gp.sigma2_sq <= s2_max


def _noisy_sign(a: float, b: float, p1: float, p2: float) -> tuple[int, float]:
    """The exact sign of L - 1, L = sqrt(a)(b*p1 + 1) + sqrt(b)(a*p2 + 1), and
    the float slack L - 1: the one decision of the noisy condition L <= 1.
    Four rounded steps per term on values >= 0, the sum and the - 1 make the
    slack err by at most gamma_7 (L + 1) < 2^-50 (L + 1), gamma_n =
    n 2^-53/(1 - n 2^-53) (Higham, Accuracy and Stability of Numerical
    Algorithms, lemma 3.3; an underflow adds 2^-1075 to a sum >= 1).  As
    slack + 2 >= (L + 1)/2, a slack outside the band 2^-40 (slack + 2) has
    the sign of L - 1.  Inside it, or at a nan or inf slack, integers from
    ``as_integer_ratio`` decide, scaled by the squared denominators: with
    x = a(b*p1 + 1)^2, y = b(a*p2 + 1)^2, r = 1 - x - y, L >= sqrt(x + y) > 1
    where r < 0, else L^2 - 1 = 2 sqrt(xy) - r has the sign of 4xy - r^2.
    """
    slack = math.sqrt(a) * (b * p1 + 1.0) + math.sqrt(b) * (a * p2 + 1.0) - 1.0
    if abs(slack) > 2.0**-40 * (slack + 2.0):
        return (1 if slack > 0.0 else -1), slack
    (na, da), (nb, db), (n1, d1), (n2, d2) = (v.as_integer_ratio() for v in (a, b, p1, p2))
    x = na * da * (nb * n1 + db * d1) ** 2 * d2 * d2
    y = nb * db * (na * n2 + da * d2) ** 2 * d1 * d1
    r = (da * db * d1 * d2) ** 2 - x - y
    return (1 if r < 0 else (4 * x * y > r * r) - (4 * x * y < r * r)), slack
