"""Statistics and geometry used by the benchmark's end-to-end metrics and
output checks.  Pure functions on plain numbers, so they can be tested
without running the program."""

from __future__ import annotations

import math
import statistics

# A percentile is reported only when enough samples lie beyond it to be more
# than the few slowest operations: p90 needs 100 samples (10 beyond it).
P90_MIN_SAMPLES = 100


def percentile(values, q: float) -> float:
    """The q-th percentile (0 < q < 100) by linear interpolation between
    closest ranks; 0.0 for an empty sample."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def p90_or_none(values) -> float | None:
    """p90 of the sample, or None when it has fewer than 100 values."""
    if len(values) < P90_MIN_SAMPLES:
        return None
    return percentile(values, 90.0)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def polygon_area(boundary) -> float:
    """Area enclosed by a rate-region frontier and the two axes.

    ``boundary`` lists (r1, r2) vertices from the R2 axis to the R1 axis;
    the polygon is closed through the origin and the shoelace formula gives
    its area in bits^2.
    """
    pts = [(0.0, 0.0)] + [(float(x), float(y)) for x, y in boundary]
    twice = 0.0
    for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]):
        twice += x1 * y2 - x2 * y1
    return abs(twice) / 2.0


def outside_distance(boundary, point) -> float:
    """How far ``point`` lies outside the region bounded by the frontier
    ``boundary`` (same orientation as in polygon_area) and the axes; 0 or
    negative when it is inside.  The region is convex, so this is the
    largest signed distance past any frontier edge or cap."""
    px, py = point
    worst = max(
        px - max(x for x, _ in boundary),
        py - max(y for _, y in boundary),
        -px,
        -py,
    )
    for (x1, y1), (x2, y2) in zip(boundary, boundary[1:]):
        dx, dy = x2 - x1, y2 - y1
        length = math.hypot(dx, dy)
        if length == 0.0:
            continue
        # (-dy, dx) points away from the origin for a frontier traced with
        # R1 nondecreasing and R2 nonincreasing.
        worst = max(worst, ((px - x1) * -dy + (py - y1) * dx) / length)
    return worst


def ratio_to_reference(got: float, ref: float) -> float:
    """got / ref, reading 1.0 when both are equal (zero included) and
    1 + got, still finite and above 1, when only the reference is 0."""
    if got == ref:
        return 1.0
    return got / ref if ref else 1.0 + got
