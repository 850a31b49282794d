"""Minimal dependency-free SVG line plots (one plot per file, 800x600)."""

from __future__ import annotations

import math

WIDTH, HEIGHT = 800, 600
MARGIN = 70
# ticks step by 1, 2, 5 or 10 times a power of 10, the first of these that
# cuts the axis into at most TICK_STEPS steps
TICK_STEPS = 6


def _ticks(lo: float, hi: float):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / TICK_STEPS))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= TICK_STEPS:
            step *= mult
            break
    start = math.ceil(lo / step) * step
    out = []
    v = start
    while v <= hi + 1e-12 * span:
        out.append(v)
        v += step
    return out


def line_plot(path, xs, ys, title: str = "", xlabel: str = "",
              ylabel: str = "", logx: bool = False, logy: bool = False):
    """Write a single polyline with axes and tick labels to an SVG file."""
    tx = [math.log10(x) for x in xs] if logx else list(map(float, xs))
    ty = [math.log10(y) for y in ys] if logy else list(map(float, ys))
    x0, x1 = min(tx), max(tx)
    y0, y1 = min(ty), max(ty)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(v):
        return MARGIN + (v - x0) / (x1 - x0) * (WIDTH - 2 * MARGIN)

    def sy(v):
        return HEIGHT - MARGIN - (v - y0) / (y1 - y0) * (HEIGHT - 2 * MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="30" text-anchor="middle" '
        f'font-size="18">{title}</text>',
    ]
    # axes
    parts.append(
        f'<path d="M {MARGIN} {MARGIN} L {MARGIN} {HEIGHT - MARGIN} '
        f'L {WIDTH - MARGIN} {HEIGHT - MARGIN}" stroke="black" fill="none"/>')
    for v in _ticks(x0, x1):
        px = sx(v)
        label = f"{10.0 ** v:.3g}" if logx else f"{v:g}"
        parts.append(f'<line x1="{px:.1f}" y1="{HEIGHT - MARGIN}" '
                     f'x2="{px:.1f}" y2="{HEIGHT - MARGIN + 6}" stroke="black"/>')
        parts.append(f'<text x="{px:.1f}" y="{HEIGHT - MARGIN + 22}" '
                     f'text-anchor="middle" font-size="12">{label}</text>')
    for v in _ticks(y0, y1):
        py = sy(v)
        label = f"{10.0 ** v:.3g}" if logy else f"{v:g}"
        parts.append(f'<line x1="{MARGIN - 6}" y1="{py:.1f}" '
                     f'x2="{MARGIN}" y2="{py:.1f}" stroke="black"/>')
        parts.append(f'<text x="{MARGIN - 10}" y="{py + 4:.1f}" '
                     f'text-anchor="end" font-size="12">{label}</text>')
    pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(tx, ty))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="steelblue" '
                 f'stroke-width="2"/>')
    for a, b in zip(tx, ty):
        parts.append(f'<circle cx="{sx(a):.2f}" cy="{sy(b):.2f}" r="3" '
                     f'fill="steelblue"/>')
    parts.append(f'<text x="{WIDTH // 2}" y="{HEIGHT - 20}" '
                 f'text-anchor="middle" font-size="14">{xlabel}</text>')
    parts.append(f'<text x="20" y="{HEIGHT // 2}" text-anchor="middle" '
                 f'font-size="14" transform="rotate(-90 20 {HEIGHT // 2})">'
                 f'{ylabel}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
