"""Rate-region geometry: supporting lines in, boundary polylines out.

A region is an intersection of half-planes n1*R1 + n2*R2 <= v with
nonnegative normals, always including the two single-user caps, so it is
convex and bounded.  The boundary is the polyline from (0, ymax) to
(xmax, 0) traced along the upper-right frontier.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .channel import (
    RatePoint,
    TwoUserChannel,
    _tdm_rates,
    single_user_capacities,
    tin_rates,
)
from .genie import (
    SupportingLine,
    eta1_range,
    eta2_range,
    eval_constraint2,
    eval_constraint3,
    optimize_constraint1,  # noqa: F401  (a module attribute bench/tracing.py wraps)
    optimize_constraint1_many,
)

__all__ = ["RateRegion", "RegionError", "build_outer_region", "build_inner_region"]

_COLLINEAR_TOL = 1e-12
_CONTAIN_TOL = 1e-9
_ALPHA_POINTS = 33  # orthogonal-sharing fractions of the inner region


class RegionError(RuntimeError):
    """The stored constraints describe an empty region (upstream bug)."""


class RateRegion:
    """Convex rate region given by half-plane constraints.

    ``lines`` keeps the weighted supporting lines with their certificates;
    ``constraints`` holds every half-plane as (n1, n2, v), caps included.
    The region is immutable after construction.
    """

    def __init__(
        self,
        lines: tuple[SupportingLine, ...],
        constraints: tuple[tuple[float, float, float], ...],
    ):
        self.lines = tuple(lines)
        self.constraints = tuple(constraints)
        if not any(n1 > 0 and n2 == 0 for n1, n2, _ in self.constraints):
            raise ValueError("missing the R1 cap")
        if not any(n1 == 0 and n2 > 0 for n1, n2, _ in self.constraints):
            raise ValueError("missing the R2 cap")

    @classmethod
    def from_supporting_lines(
        cls, lines: tuple[SupportingLine, ...], cap1: float, cap2: float
    ) -> "RateRegion":
        constraints = [(1.0, 0.0, cap1), (0.0, 1.0, cap2)]
        constraints += [(1.0, ln.weight, ln.value) for ln in lines]
        return cls(tuple(lines), tuple(constraints))

    def contains(self, pt: RatePoint, tol: float = _CONTAIN_TOL) -> bool:
        """Whether the point satisfies every constraint with slack >= -tol."""
        return all(
            v - (n1 * pt.r1 + n2 * pt.r2) >= -tol for n1, n2, v in self.constraints
        )

    def support(self, d1: float, d2: float) -> float:
        """max of d1*R1 + d2*R2 over the region, for d1, d2 >= 0."""
        pts = [(0.0, 0.0)] + [(p.r1, p.r2) for p in self.boundary]
        return max(d1 * x + d2 * y for x, y in pts)

    @cached_property
    def boundary(self) -> tuple[RatePoint, ...]:
        """Vertices of the upper-right frontier, from the R2 axis to the R1
        axis, R1 nondecreasing and R2 nonincreasing.

        Computed as the lower envelope of the constraint lines
        y = (v - n1*x)/n2 (a concave piecewise-linear function): sort by
        slope, prune lines that never touch the envelope, intersect
        consecutive survivors, clip to the nonnegative quadrant.
        """
        cap1 = min(v / n1 for n1, n2, v in self.constraints if n2 == 0)
        cap2 = min(v / n2 for n1, n2, v in self.constraints if n1 == 0)
        if cap1 < 0 or cap2 < 0:
            raise RegionError("caps force an empty region")

        # (slope, intercept) pairs; the horizontal y = cap2 is flattest.
        lines = [(0.0, cap2)]
        for n1, n2, v in self.constraints:
            if n1 > 0 and n2 > 0:
                lines.append((-n1 / n2, v / n2))
        lines.sort(key=lambda ln: (-ln[0], ln[1]))

        def meet_x(l1, l2) -> float:
            return (l2[1] - l1[1]) / (l1[0] - l2[0])

        hull: list[tuple[float, float]] = []
        for s, t in lines:
            if hull and abs(s - hull[-1][0]) <= _COLLINEAR_TOL * max(1.0, abs(s)):
                continue  # same slope: the lower intercept is already in
            while len(hull) >= 2 and meet_x(hull[-1], (s, t)) <= meet_x(
                hull[-2], hull[-1]
            ):
                hull.pop()
            hull.append((s, t))

        def env(x: float) -> float:
            return min(t + s * x for s, t in hull)

        if env(0.0) < -_COLLINEAR_TOL:
            raise RegionError("constraints force an empty region")

        x_axis = min((-t / s for s, t in hull if s < 0.0), default=math.inf)
        x_end = min(cap1, x_axis)

        verts = [(0.0, max(env(0.0), 0.0))]
        for i in range(len(hull) - 1):
            x = meet_x(hull[i], hull[i + 1])
            if x <= 0.0 or x >= x_end:
                continue
            verts.append((x, env(x)))
        y_end = max(env(x_end), 0.0)
        verts.append((x_end, y_end))
        if y_end > _COLLINEAR_TOL:
            verts.append((x_end, 0.0))

        cleaned: list[tuple[float, float]] = []
        for x, y in verts:
            if (
                cleaned
                and abs(x - cleaned[-1][0]) <= _COLLINEAR_TOL
                and abs(y - cleaned[-1][1]) <= _COLLINEAR_TOL
            ):
                continue
            cleaned.append((x, y))
        return tuple(RatePoint(max(x, 0.0), max(y, 0.0)) for x, y in cleaned)


def build_outer_region(
    ch: TwoUserChannel, mu_grid: int = 65, eta_grid: int = 9
) -> RateRegion:
    """Sweep the three supporting-line families over weight grids and collect
    the half-planes together with the single-user caps.

    The MU weights are log-spaced over [1/64, 64] (mu_grid points, weight 1
    always included) and searched together in one lockstep call; the ETA
    weights cover their admissible intervals with eta_grid uniform points,
    endpoints included.
    """
    if not (0.0 < ch.a < 1.0 and 0.0 < ch.b < 1.0):
        raise ValueError("outer region requires 0 < a < 1 and 0 < b < 1")
    if mu_grid < 3:
        raise ValueError(f"mu_grid must be >= 3, got {mu_grid}")
    if eta_grid < 2:
        raise ValueError(f"eta_grid must be >= 2, got {eta_grid}")

    mus = sorted(set(np.exp2(np.linspace(-6.0, 6.0, mu_grid)).tolist()) | {1.0})
    lines = list(optimize_constraint1_many(ch, mus))
    lo1, hi1 = eta1_range(ch)
    if max(lo1, hi1) == math.inf:
        raise ValueError(f"the ETA1 weights, up to 1/b, overflow a float at b={ch.b}")
    # Python floats: a value that overflows reaches SupportingLine's check silently.
    lines += [eval_constraint2(ch, w) for w in np.linspace(lo1, hi1, eta_grid).tolist()]
    lo2, hi2 = eta2_range(ch)
    lines += [eval_constraint3(ch, w) for w in np.linspace(lo2, hi2, eta_grid).tolist()]

    caps = single_user_capacities(ch)
    return RateRegion.from_supporting_lines(tuple(lines), caps.r1, caps.r2)


def build_inner_region(ch: TwoUserChannel) -> RateRegion:
    """Achievable region: the comprehensive convex hull of the single-user
    corner points, the single-user-detection point and an orthogonal-sharing
    rate curve (time-sharing mixtures come free with the hull)."""
    caps = single_user_capacities(ch)
    alphas = np.linspace(0.0, 1.0, _ALPHA_POINTS + 2)[1:-1]
    rates = [tin_rates(ch)] + [_tdm_rates(ch, alpha) for alpha in alphas]
    pts = [(0.0, caps.r2), (caps.r1, 0.0)] + [(p.r1, p.r2) for p in rates]

    hull = _upper_hull(pts)
    constraints = [(1.0, 0.0, caps.r1), (0.0, 1.0, caps.r2)]
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        n1, n2 = y1 - y2, x2 - x1
        scale = max(abs(n1), abs(n2))
        if scale <= 0:
            continue
        n1, n2 = max(n1 / scale, 0.0), max(n2 / scale, 0.0)
        constraints.append((n1, n2, n1 * x1 + n2 * y1))
    return RateRegion((), tuple(constraints))


def _upper_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Upper-right convex chain from (0, ymax) to (xmax, 0).

    Points are sorted by x ascending with y descending on ties, so the chain
    starts at the top of the R2 axis and ends on the R1 axis; collinear
    middle points are dropped.
    """
    pts = sorted(set(points), key=lambda p: (p[0], -p[1]))
    chain: list[tuple[float, float]] = []
    for p in pts:
        while len(chain) >= 2:
            ox, oy = chain[-2]
            ax, ay = chain[-1]
            cross = (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox)
            if cross >= -_COLLINEAR_TOL:
                chain.pop()
            else:
                break
        chain.append(p)
    return chain
