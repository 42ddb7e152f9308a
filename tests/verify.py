"""Exact checks of the two-user noisy condition, two-user genie points,
m-user witnesses, the m-user necessary conditions, bound propagation and
stopping certificates, in rational arithmetic.

Every float is a dyadic rational, so ``fractions.Fraction`` decides the
noisy condition at float gains and powers, and evaluates the MU
feasibility box at a float genie point and both condition families at a
float rho vector, with no rounding at all: a genie point passes when it
lies in the exact box, and a witness when every exact slack is <= 0.  The
pair and receiver bounds of the m-user conditions are exact functions of
the channel, bound propagation is replayed with its box rounded outward,
and a stopping certificate of the phase-I solve, a point u and weights
w, passes when its dual bound, recomputed exactly, is positive.
Test-side only; the package does not import it.
"""

from __future__ import annotations

import math
from fractions import Fraction


def in_exact_box(ch, mu: float, gp) -> bool:
    """Whether genie parameters lie in the weight-``mu`` box exactly:
    correlations in [0, 1], variances > 0, and the capped variance at most
    its cap, a*sigma2_sq <= 1 - rho1^2 for mu >= 1 and b*sigma1_sq <=
    1 - rho2^2 for mu < 1 (no cap where that gain is 0)."""
    rho1, rho2, s1, s2 = (Fraction(x) for x in (gp.rho1, gp.rho2, gp.sigma1_sq, gp.sigma2_sq))
    if not (0 <= rho1 <= 1 and 0 <= rho2 <= 1 and s1 > 0 and s2 > 0):
        return False
    if mu >= 1.0:
        return Fraction(ch.a) * s2 <= 1 - rho1**2
    return Fraction(ch.b) * s1 <= 1 - rho2**2


def exact_noisy_sign(a, b, p1, p2) -> int:
    """The sign of sqrt(a)(b*p1 + 1) + sqrt(b)(a*p2 + 1) - 1, exactly.

    With x = a(b*p1 + 1)^2 and y = b(a*p2 + 1)^2 the LHS is sqrt(x) +
    sqrt(y).  For x > 1 it exceeds 1.  Otherwise 1 - sqrt(x) >= 0, so the
    sign is that of y - (1 - sqrt(x))^2 = 2 sqrt(x) - t, t = 1 + x - y:
    +1 for t < 0, and the sign of 4x - t^2 for t >= 0."""
    a, b, p1, p2 = (Fraction(v) for v in (a, b, p1, p2))
    x, y = a * (b * p1 + 1) ** 2, b * (a * p2 + 1) ** 2
    t = 1 + x - y
    if x > 1 or t < 0:
        return 1
    return (4 * x > t * t) - (4 * x < t * t)


def _exact_channel(gains, powers):
    """The gains c[j][i] = c_ji, the powers and 1 + Q_i as Fractions, with
    Q_i = sum_{j != i} c_ji P_j, and the receivers j != i of each i."""
    m = len(powers)
    c = [[Fraction(float(g)) for g in row] for row in gains]
    p = [Fraction(float(x)) for x in powers]
    others = [[j for j in range(m) if j != i] for i in range(m)]
    one_q = [1 + sum(c[j][i] * p[j] for j in others[i]) for i in range(m)]
    return c, p, one_q, others


def _unit_interval(values, what: str) -> list[Fraction]:
    exact = [Fraction(float(x)) for x in values]
    if not all(0 < x < 1 for x in exact):
        raise ValueError(f"every {what} must lie strictly in (0, 1)")
    return exact


def exact_slacks(gains, powers, rho) -> list[tuple[Fraction, Fraction]]:
    """Both slacks (LHS - RHS) of each receiver i, exactly:

        sum_{j != i} c_ji (1 + Q_j)^2 / rho_j^2 - (1 - rho_i^2)
        sum_{j != i} c_ij / (1 + Q_j - rho_j^2) - 1 / (P_i + (1 + Q_i)^2 / rho_i^2)

    with Q_i = sum_{j != i} c_ji P_j.  ``gains[j][i]`` is c_ji; every rho
    must lie strictly in (0, 1)."""
    c, p, one_q, others = _exact_channel(gains, powers)
    r_sq = [x**2 for x in _unit_interval(rho, "rho")]
    return [
        (
            sum((c[j][i] * one_q[j] ** 2 / r_sq[j] for j in others[i]), Fraction(0))
            - (1 - r_sq[i]),
            sum((c[i][j] / (one_q[j] - r_sq[j]) for j in others[i]), Fraction(0))
            - 1 / (p[i] + one_q[i] ** 2 / r_sq[i]),
        )
        for i in range(len(p))
    ]


def is_exact_witness(gains, powers, rho) -> bool:
    """True when every exact slack at rho is <= 0."""
    return all(s <= 0 for pair in exact_slacks(gains, powers, rho) for s in pair)


def pair_bound_exceeds(gains, powers, level) -> bool:
    """Whether some users i != j have A + B > 1 + level exactly, with
    A = sqrt(c_ji)(1 + Q_j) and B = sqrt(c_ij)(1 + Q_i); then the max slack
    exceeds ``level`` at every rho in (0, 1)^m.  A^2 = c_ji (1 + Q_j)^2 is
    rational, so the test compares squares: with r = (1 + level)^2 - A^2 - B^2,
    A + B > 1 + level iff r < 0 or 4 A^2 B^2 > r^2."""
    c, _, one_q, others = _exact_channel(gains, powers)
    target = (1 + Fraction(level)) ** 2
    for i, row in enumerate(others):
        for j in row:
            a_sq, b_sq = c[j][i] * one_q[j] ** 2, c[i][j] * one_q[i] ** 2
            r = target - a_sq - b_sq
            if r < 0 or 4 * a_sq * b_sq > r * r:
                return True
    return False


def receiver_bound(gains, powers) -> Fraction:
    """max_i W_i - 1 exactly, W_i = sum_{j != i} c_ji (1 + Q_j)^2: the max
    slack exceeds it at every rho in (0, 1)^m."""
    c, _, one_q, others = _exact_channel(gains, powers)
    return max(
        sum((c[j][i] * one_q[j] ** 2 for j in row), Fraction(0)) for i, row in enumerate(others)
    ) - 1


def exact_dual_bound(gains, powers, u, w) -> Fraction:
    """The dual bound of weights w >= 0 at a point u in (0, 1)^m, exactly:

        lb = (w.g + sum_j min(-s_j u_j, s_j (1 - u_j))) / sum(w),  s = w @ J,

    with g the 2m slacks at u in u = rho^2 (family 1, then family 2, the
    order of the phase-I solve's weights) and J their Jacobian.  Every slack
    is convex in u, so the max slack at every point of (0, 1)^m is at least
    lb: a positive lb proves that no rho in (0, 1)^m meets the conditions.
    """
    c, p, one_q, others = _exact_channel(gains, powers)
    u = _unit_interval(u, "u")
    w = [Fraction(float(x)) for x in w]
    m = len(p)
    if len(u) != m or len(w) != 2 * m or any(x < 0 for x in w):
        raise ValueError("need m points u and 2m weights w >= 0")
    k_sq = [x**2 for x in one_q]
    slacks, rows = [], []
    for i in range(m):  # family 1: sum_j c_ji K_j/u_j - (1 - u_i)
        slacks.append(sum((c[j][i] * k_sq[j] / u[j] for j in others[i]), Fraction(0)) - (1 - u[i]))
        rows.append([Fraction(1) if j == i else -c[j][i] * k_sq[j] / u[j] ** 2 for j in range(m)])
    for i in range(m):  # family 2: sum_j c_ij/(1 + Q_j - u_j) - u_i/(P_i u_i + K_i)
        rate = p[i] * u[i] + k_sq[i]
        slacks.append(
            sum((c[i][j] / (one_q[j] - u[j]) for j in others[i]), Fraction(0)) - u[i] / rate
        )
        rows.append([
            -k_sq[i] / rate**2 if j == i else c[i][j] / (one_q[j] - u[j]) ** 2
            for j in range(m)
        ])
    s = [sum((wk * row[j] for wk, row in zip(w, rows)), Fraction(0)) for j in range(m)]
    total = sum(wk * gk for wk, gk in zip(w, slacks)) + sum(
        min(-sj * uj, sj * (1 - uj)) for sj, uj in zip(s, u)
    )
    return total / sum(w)


def _outward(x: Fraction, up: bool) -> Fraction:
    """x rounded up or down to a dyadic rational of 256 significant bits."""
    if x == 0:
        return x
    shift = 256 - x.numerator.bit_length() + x.denominator.bit_length()
    scaled = x * Fraction(2) ** shift
    return (math.ceil(scaled) if up else math.floor(scaled)) / Fraction(2) ** shift


def propagation_empties(gains, powers, sweeps: int, band) -> bool:
    """Whether ``multiuser._propagation_empties``'s rules, in the same order
    and for the same number of sweeps, empty the box [0, 1]^m of u = rho^2
    with every slack relaxed to <= band, in rational arithmetic.  The box
    is empty once some lb_i > ub_i, ub_i <= 0 or lb_i >= 1 (u lies in
    (0, 1)^m), or once a rule's right side r_ji, r'_ji or 1 - b_i P_i is
    <= 0 where its numerator is positive.

    Each rule holds at every u of any box that meets the relaxed
    conditions, and each is monotone: a smaller box gives a smaller one.
    Exact bounds grow about m-fold in length with each rule, so each new
    bound is rounded outward to 256 significant bits.  That only loosens the box: when this one empties,
    so does the box of the same rules with no rounding at all, and no u in
    (0, 1)^m meets the relaxed conditions."""
    c, p, one_q, others = _exact_channel(gains, powers)
    m, s = len(p), Fraction(band)
    k_sq = [x**2 for x in one_q]
    m1 = [[c[j][i] * k_sq[j] if j != i else Fraction(0) for i in range(m)] for j in range(m)]
    lb, ub = [Fraction(0)] * m, [Fraction(1)] * m

    def box(low, high):
        return [_outward(x, False) for x in low], [_outward(x, True) for x in high]

    def empty():
        return any(lo > hi or hi <= 0 or lo >= 1 for lo, hi in zip(lb, ub))

    for _ in range(sweeps):
        # Family 1, on the box the sweep starts from.
        top = [1 + s - sum(m1[j][i] / ub[j] for j in range(m)) for i in range(m)]
        low = list(lb)
        for i in range(m):
            for j in others[i]:
                if m1[j][i] > 0:
                    r = top[i] + m1[j][i] / ub[j] - lb[i]
                    if r <= 0:
                        return True
                    low[j] = max(low[j], m1[j][i] / r)
        lb, ub = box(low, [min(hi, t) for hi, t in zip(ub, top)])
        if empty():
            return True
        # Family 2, on the box family 1 leaves: term[j][i] = c_ij/(1 + Q_j - lb_j).
        term = [[c[i][j] / (one_q[j] - lb[j]) for i in range(m)] for j in range(m)]
        b = [sum(term[j][i] for j in others[i]) - s for i in range(m)]
        low, high = list(lb), list(ub)
        for i in range(m):
            if b[i] > 0:
                if b[i] * p[i] >= 1:
                    return True
                low[i] = max(low[i], b[i] * k_sq[i] / (1 - b[i] * p[i]))
            rate = ub[i] / (p[i] * ub[i] + k_sq[i])
            for j in others[i]:
                if c[i][j] > 0:
                    r = rate - b[i] + term[j][i]
                    if r <= 0:
                        return True
                    high[j] = min(high[j], one_q[j] - c[i][j] / r)
        lb, ub = box(low, high)
        if empty():
            return True
    return False
