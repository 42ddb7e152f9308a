"""Channel models in standard form and the elementary achievable-rate formulas.

All rates are in bits per channel use (log base 2).  Powers and gains are
linear; the direct gains and the noise variances are normalized to 1, so the
crosstalk is fully described by the power gains ``a`` and ``b`` (2 users) or
by the off-diagonal entries of a gain matrix (m users).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TwoUserChannel",
    "RatePoint",
    "MUserChannel",
    "tin_rates",
    "single_user_capacities",
    "tdm_fdm_sum_rate",
    "m_user_interference_powers",
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


def tin_rates(ch: TwoUserChannel) -> RatePoint:
    """Single-user-detection rates, treating the cross signal as noise."""
    r1 = 0.5 * math.log2(1.0 + ch.p1 / (1.0 + ch.a * ch.p2))
    r2 = 0.5 * math.log2(1.0 + ch.p2 / (1.0 + ch.b * ch.p1))
    return RatePoint(r1, r2)


def single_user_capacities(ch: TwoUserChannel) -> RatePoint:
    """Interference-free point-to-point AWGN capacities of the two links."""
    return RatePoint(0.5 * math.log2(1.0 + ch.p1), 0.5 * math.log2(1.0 + ch.p2))


def _tdm_rates(ch: TwoUserChannel, alpha: float) -> RatePoint:
    """Rates of orthogonal sharing: user 1 gets a fraction alpha of the
    channel with power p1/alpha, user 2 the rest with power p2/(1-alpha)."""
    r1 = 0.5 * alpha * math.log2(1.0 + ch.p1 / alpha)
    r2 = 0.5 * (1.0 - alpha) * math.log2(1.0 + ch.p2 / (1.0 - alpha))
    return RatePoint(r1, r2)


def tdm_fdm_sum_rate(ch: TwoUserChannel, alpha: float) -> float:
    """Sum rate of orthogonal sharing at fraction alpha in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return _tdm_rates(ch, alpha).sum


def m_user_interference_powers(ch: MUserChannel) -> np.ndarray:
    """Total interference power Q_i = sum_{j != i} c_ji * P_j at each receiver,
    summed over the crosstalk gains alone: subtracting c_ii P_i from the full
    sum would cancel catastrophically when P_i dwarfs Q_i."""
    return (ch.gains - np.diag(np.diag(ch.gains))).T @ ch.powers
