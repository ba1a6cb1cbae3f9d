"""Minimal self-contained SVG line charts for the experiment CLI.

No plotting dependency: the CLI emits CSV as the primary output and this
writer produces a static companion chart.  Output is deterministic for a
fixed input.
"""

from __future__ import annotations

import math

from .errors import DomainError

_WIDTH, _HEIGHT = 720, 480
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#17becf", "#e377c2", "#7f7f7f", "#bcbd22")


def _nice_step(span: float) -> float:
    if span <= 0.0:
        return 1.0
    raw = span / 5.0
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-9 * step:
        out.append(0.0 if abs(v) < 1e-12 else v)
        v += step
    return out


def _fmt(v: float) -> str:
    return f"{v:g}"


def line_chart(series, *, title: str, xlabel: str, ylabel: str) -> str:
    """Render labelled (x, y) polyline series as an SVG document string.

    ``series`` is an iterable of (label, xs, ys) with equal-length numeric
    sequences; DomainError if a padded axis bound is not finite.
    """
    series = [(str(label), list(map(float, xs)), list(map(float, ys)))
              for label, xs, ys in series]
    pts = [(x, y) for _, xs, ys in series for x, y in zip(xs, ys)]
    if not pts:
        raise ValueError("cannot chart empty series")
    x_lo, x_hi = min(p[0] for p in pts), max(p[0] for p in pts)
    y_lo, y_hi = min(p[1] for p in pts), max(p[1] for p in pts)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad_y = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y
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
        parts.append(f'<text x="{px:.1f}" y="{mt + ph + 18}" text-anchor="middle">{_fmt(tx)}</text>')
    for ty in _ticks(y_lo, y_hi):
        py = sy(ty)
        parts.append(f'<line x1="{ml - 5}" y1="{py:.1f}" x2="{ml}" y2="{py:.1f}" stroke="#333"/>')
        parts.append(f'<line x1="{ml}" y1="{py:.1f}" x2="{ml + pw}" y2="{py:.1f}" stroke="#ddd"/>')
        parts.append(f'<text x="{ml - 8}" y="{py + 4:.1f}" text-anchor="end">{_fmt(ty)}</text>')
    parts.append(f'<text x="{ml + pw / 2:.1f}" y="{_HEIGHT - 10}" text-anchor="middle">{xlabel}</text>')
    parts.append(
        f'<text x="18" y="{mt + ph / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {mt + ph / 2:.1f})">{ylabel}</text>'
    )
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        ly = mt + 16 + 18 * i
        parts.append(f'<line x1="{ml + pw + 10}" y1="{ly - 4}" x2="{ml + pw + 34}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{ml + pw + 40}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
