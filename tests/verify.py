"""Exact checks of m-user witnesses, in rational arithmetic.

Every float is a dyadic rational, so ``fractions.Fraction`` evaluates both
condition families at a float rho vector with no rounding at all: a
witness passes when every exact slack is <= 0.  Test-side only; the
package does not import it.
"""

from __future__ import annotations

from fractions import Fraction


def exact_slacks(gains, powers, rho) -> list[tuple[Fraction, Fraction]]:
    """Both slacks (LHS - RHS) of each receiver i, exactly:

        sum_{j != i} c_ji (1 + Q_j)^2 / rho_j^2 - (1 - rho_i^2)
        sum_{j != i} c_ij / (1 + Q_j - rho_j^2) - 1 / (P_i + (1 + Q_i)^2 / rho_i^2)

    with Q_i = sum_{j != i} c_ji P_j.  ``gains[j][i]`` is c_ji; every rho
    must lie strictly in (0, 1)."""
    m = len(powers)
    c = [[Fraction(float(g)) for g in row] for row in gains]
    p = [Fraction(float(x)) for x in powers]
    r_sq = [Fraction(float(x)) ** 2 for x in rho]
    if not all(0 < x < 1 for x in r_sq):
        raise ValueError("every rho must lie strictly in (0, 1)")
    others = [[j for j in range(m) if j != i] for i in range(m)]
    one_q = [1 + sum(c[j][i] * p[j] for j in others[i]) for i in range(m)]
    return [
        (
            sum((c[j][i] * one_q[j] ** 2 / r_sq[j] for j in others[i]), Fraction(0))
            - (1 - r_sq[i]),
            sum((c[i][j] / (one_q[j] - r_sq[j]) for j in others[i]), Fraction(0))
            - 1 / (p[i] + one_q[i] ** 2 / r_sq[i]),
        )
        for i in range(m)
    ]


def is_exact_witness(gains, powers, rho) -> bool:
    """True when every exact slack at rho is <= 0."""
    return all(s <= 0 for pair in exact_slacks(gains, powers, rho) for s in pair)
