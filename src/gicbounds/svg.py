"""Minimal SVG emission for rate-region plots: two polylines plus axes.

Hand-rolled on purpose; the CSV next to it is the canonical artifact and
this is only a quick visual check.
"""

from __future__ import annotations

from .channel import RatePoint

_W, _H = 640, 480
_MARGIN = 60
_STYLES = {"outer": "#c0392b", "inner": "#2471a3"}
_TICKS = 5  # tick intervals per axis


def _ticks(limit: float) -> list[float]:
    return [limit * i / _TICKS for i in range(_TICKS + 1)]


def region_svg(curves: dict[str, tuple[RatePoint, ...]]) -> str:
    """Render named rate polylines (bits/use on both axes) as an SVG string."""
    xmax = max(p.r1 for pts in curves.values() for p in pts) * 1.05 or 1.0
    ymax = max(p.r2 for pts in curves.values() for p in pts) * 1.05 or 1.0

    def sx(x: float) -> float:
        return _MARGIN + x / xmax * (_W - 2 * _MARGIN)

    def sy(y: float) -> float:
        return _H - _MARGIN - y / ymax * (_H - 2 * _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(xmax)}" y2="{sy(0)}" stroke="black"/>',
        f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(0)}" y2="{sy(ymax)}" stroke="black"/>',
    ]
    for t in _ticks(xmax):
        parts.append(
            f'<line x1="{sx(t)}" y1="{sy(0)}" x2="{sx(t)}" y2="{sy(0) + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{sx(t)}" y="{sy(0) + 20}" font-size="11" text-anchor="middle">'
            f"{t:.2f}</text>"
        )
    for t in _ticks(ymax):
        parts.append(
            f'<line x1="{sx(0) - 5}" y1="{sy(t)}" x2="{sx(0)}" y2="{sy(t)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{sx(0) - 8}" y="{sy(t) + 4}" font-size="11" text-anchor="end">'
            f"{t:.2f}</text>"
        )
    parts.append(
        f'<text x="{_W / 2}" y="{_H - 15}" font-size="13" text-anchor="middle">'
        "R1 [bits/use]</text>"
    )
    parts.append(
        f'<text x="18" y="{_H / 2}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 18 {_H / 2})">R2 [bits/use]</text>'
    )
    for i, (name, pts) in enumerate(sorted(curves.items())):
        coords = " ".join(f"{sx(p.r1):.2f},{sy(p.r2):.2f}" for p in pts)
        color = _STYLES.get(name, "#555555")
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_W - _MARGIN}" y="{_MARGIN + 18 * i}" font-size="12" '
            f'text-anchor="end" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
