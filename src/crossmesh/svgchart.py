"""Minimal self-contained SVG line charts for the experiment CLI.

No plotting dependency: the CLI emits CSV as the primary output and this
writer draws a static companion chart from ``(label, x, y)`` points.  One
rule sets both axes, widening one only where a tick step could not move a
tick; ticks are integer multiples k * step (see ``line_chart``).  Output
is deterministic for a fixed input.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError

_WIDTH, _HEIGHT = 720, 480
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#17becf", "#e377c2", "#7f7f7f", "#bcbd22")


def _nice_step(span: float) -> float:
    raw = span / 5.0
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _axis(values, pad: float) -> tuple[float, float]:
    """Bounds of the axis through ``values``, ``pad`` spans wider each side; see ``line_chart``."""
    lo, hi = min(values), max(values)
    ulp = math.ulp(max(abs(lo), abs(hi)))
    if hi - lo < 5.0 * max(ulp, sys.float_info.min):  # a fifth of it may move no tick, or underflow
        hi = lo + max(1.0, 10.0 * ulp)
    margin = pad * (hi - lo) if pad else 0.0  # 0 * inf would be nan
    return lo - margin, hi + margin


def _ticks(lo: float, hi: float) -> list[float]:
    step = _nice_step(hi - lo)
    ticks = (k * step for k in range(math.ceil(lo / step), math.floor(hi / step) + 2))
    return [t for t in ticks if lo <= t and t - hi <= 1e-9 * step]  # hi / step may round past an integer


def line_chart(points, *, title: str, xlabel: str, ylabel: str) -> str:
    """Render (label, x, y) points as an SVG document string.

    Each label's points, in input order, draw one polyline; the legend
    lists labels in order of first appearance.  ``_axis`` sets both axes
    by one rule: an axis spans its values, save that a span under 5 ulps
    of its largest magnitude or 5 smallest normal doubles (equal values,
    values a few ulps apart or of 2**53 and more, subnormal spans) becomes
    max(1, 10 ulps), so equal values below 2**49 get [v, v + 1]; y is then
    padded by 5 % of its span each side.  Ticks are the k * step in an
    axis (its top within 1e-9 step), step 1, 2 or 5 times a power of ten.
    ValueError for no points, DomainError if a bound is not finite.
    """
    points = [(str(label), float(x), float(y)) for label, x, y in points]
    if not points:
        raise ValueError("no points to chart")
    x_lo, x_hi = _axis([p[1] for p in points], 0.0)
    y_lo, y_hi = _axis([p[2] for p in points], 0.05)
    if not all(map(math.isfinite, (x_lo, x_hi, y_lo, y_hi, x_hi - x_lo, y_hi - y_lo))):
        raise DomainError(f"cannot chart x in [{x_lo}, {x_hi}], y in [{y_lo}, {y_hi}]: not finite")

    ml, mr, mt, mb = 64, 160, 40, 48
    pw, ph = _WIDTH - ml - mr, _HEIGHT - mt - mb

    def sx(x: float) -> float:
        return ml + pw * ((x - x_lo) / (x_hi - x_lo))

    def sy(y: float) -> float:
        return mt + ph * (1.0 - (y - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{ml + pw / 2:.1f}" y="22" text-anchor="middle" font-size="15">{title}</text>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>',
    ]
    for tx in _ticks(x_lo, x_hi):
        px = sx(tx)
        parts.append(f'<line x1="{px:.1f}" y1="{mt + ph}" x2="{px:.1f}" y2="{mt + ph + 5}" stroke="#333"/>')
        parts.append(f'<text x="{px:.1f}" y="{mt + ph + 18}" text-anchor="middle">{tx:g}</text>')
    for ty in _ticks(y_lo, y_hi):
        py = sy(ty)
        parts.append(f'<line x1="{ml - 5}" y1="{py:.1f}" x2="{ml}" y2="{py:.1f}" stroke="#333"/>')
        parts.append(f'<line x1="{ml}" y1="{py:.1f}" x2="{ml + pw}" y2="{py:.1f}" stroke="#ddd"/>')
        parts.append(f'<text x="{ml - 8}" y="{py + 4:.1f}" text-anchor="end">{ty:g}</text>')
    parts.append(f'<text x="{ml + pw / 2:.1f}" y="{_HEIGHT - 10}" text-anchor="middle">{xlabel}</text>')
    parts.append(
        f'<text x="18" y="{mt + ph / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {mt + ph / 2:.1f})">{ylabel}</text>'
    )
    series = {}
    for label, x, y in points:
        series.setdefault(label, []).append(f"{sx(x):.2f},{sy(y):.2f}")
    for i, (label, coords) in enumerate(series.items()):
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(f'<polyline points="{" ".join(coords)}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        ly = mt + 16 + 18 * i
        parts.append(f'<line x1="{ml + pw + 10}" y1="{ly - 4}" x2="{ml + pw + 34}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{ml + pw + 40}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
