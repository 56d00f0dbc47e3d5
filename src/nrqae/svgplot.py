"""Minimal deterministic SVG line plots, no plotting dependency.

Output is a plain SVG 1.1 string: fixed canvas, log-log axes, one
polyline per series, legend in the top-right corner. Numbers are formatted
with fixed precision so identical inputs give byte-identical files.
"""

from __future__ import annotations

import numpy as np

WIDTH = 640
HEIGHT = 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 24, 36, 48
PALETTE = ["#1b6ca8", "#c0392b", "#2e8b57", "#8e44ad", "#d35400", "#2c3e50"]


def _transform(value: float, lo: float, hi: float) -> float:
    value, lo, hi = np.log10(value), np.log10(lo), np.log10(hi)
    if hi <= lo:
        return 0.5
    return (value - lo) / (hi - lo)


def _ticks(lo: float, hi: float, count: int = 5):
    lo_e, hi_e = np.log10(lo), np.log10(hi)
    return [10.0 ** e for e in np.linspace(lo_e, hi_e, count)]


def line_plot(series: dict, title: str, xlabel: str, ylabel: str) -> str:
    """Log-log SVG for {label: (xs, ys)} series. Non-positive points are dropped."""
    cleaned = {}
    for label, (xs, ys) in series.items():
        pts = [(float(x), float(y)) for x, y in zip(xs, ys) if x > 0 and y > 0]
        if pts:
            cleaned[label] = pts
    if not cleaned:
        cleaned = {"(no data)": [(1.0, 1.0)]}
    all_x = [p[0] for pts in cleaned.values() for p in pts]
    all_y = [p[1] for pts in cleaned.values() for p in pts]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float) -> float:
        return MARGIN_L + plot_w * _transform(x, x_lo, x_hi)

    def py(y: float) -> float:
        return MARGIN_T + plot_h * (1.0 - _transform(y, y_lo, y_hi))

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
             f'viewBox="0 0 {WIDTH} {HEIGHT}">',
             f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
             f'<text x="{WIDTH / 2:.2f}" y="22" text-anchor="middle" '
             f'font-family="sans-serif" font-size="14">{title}</text>']
    axis = (f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
            f'y2="{HEIGHT - MARGIN_B}" stroke="#333333"/>'
            f'<line x1="{MARGIN_L}" y1="{HEIGHT - MARGIN_B}" x2="{WIDTH - MARGIN_R}" '
            f'y2="{HEIGHT - MARGIN_B}" stroke="#333333"/>')
    parts.append(axis)
    for tx in _ticks(x_lo, x_hi):
        x = px(tx)
        parts.append(f'<line x1="{x:.2f}" y1="{HEIGHT - MARGIN_B}" x2="{x:.2f}" '
                     f'y2="{HEIGHT - MARGIN_B + 5}" stroke="#333333"/>')
        parts.append(f'<text x="{x:.2f}" y="{HEIGHT - MARGIN_B + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">{tx:.3g}</text>')
    for ty in _ticks(y_lo, y_hi):
        y = py(ty)
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{y:.2f}" x2="{MARGIN_L}" '
                     f'y2="{y:.2f}" stroke="#333333"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{y + 3:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{ty:.3g}</text>')
    parts.append(f'<text x="{MARGIN_L + plot_w / 2:.2f}" y="{HEIGHT - 10}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="12">{xlabel}</text>')
    parts.append(f'<text x="16" y="{MARGIN_T + plot_h / 2:.2f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 16 {MARGIN_T + plot_h / 2:.2f})">{ylabel}</text>')
    for i, (label, pts) in enumerate(cleaned.items()):
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = MARGIN_T + 14 + 16 * i
        lx = WIDTH - MARGIN_R - 150
        parts.append(f'<line x1="{lx}" y1="{ly - 4:.2f}" x2="{lx + 18}" y2="{ly - 4:.2f}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{lx + 24}" y="{ly:.2f}" font-family="sans-serif" '
                     f'font-size="11">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
