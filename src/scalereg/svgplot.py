"""Minimal static SVG log-log plots (no plotting dependency).

Produces a fixed-size panel with decade gridlines, the data polyline,
and optional straight reference lines for the fitted and theoretical
slopes.  Output is a deterministic function of the inputs.
"""

from __future__ import annotations

import math

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 30, 50


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _decades(lo: float, hi: float):
    return range(math.ceil(math.log10(lo) - 1e-9),
                 math.floor(math.log10(hi) + 1e-9) + 1)


class _LogAxes:
    def __init__(self, xs, ys):
        pad = 0.05
        lx, ly = [math.log10(v) for v in xs], [math.log10(v) for v in ys]
        self.x0, self.x1 = min(lx) - pad, max(lx) + pad
        self.y0, self.y1 = min(ly) - pad, max(ly) + pad

    def px(self, x: float) -> float:
        f = (math.log10(x) - self.x0) / (self.x1 - self.x0)
        return _ML + f * (_W - _ML - _MR)

    def py(self, y: float) -> float:
        f = (math.log10(y) - self.y0) / (self.y1 - self.y0)
        return _H - _MB - f * (_H - _MT - _MB)


def _polyline(ax, pts, color, dash=""):
    coords = " ".join(f"{ax.px(x):.2f},{ax.py(y):.2f}" for x, y in pts)
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5"'
            f'{extra} points="{coords}"/>')


def loglog_svg(points, *, fitted_slope=None, theoretical_slope=None,
               title: str = "") -> str:
    """Render (m, median error) pairs on log-log axes; returns the SVG.

    Reference lines for the two slopes (when given) are anchored at the
    data midpoint, the theoretical one dashed.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if not pts or any(x <= 0 or y <= 0 for x, y in pts):
        raise ValueError("log-log plot needs positive finite points")
    ax = _LogAxes([p[0] for p in pts], [p[1] for p in pts])

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
             f'height="{_H}" viewBox="0 0 {_W} {_H}">',
             f'<rect width="{_W}" height="{_H}" fill="white"/>']
    for k in _decades(10 ** ax.x0, 10 ** ax.x1):
        gx = ax.px(10.0 ** k)
        parts.append(f'<line x1="{gx:.2f}" y1="{_MT}" x2="{gx:.2f}" '
                     f'y2="{_H - _MB}" stroke="#ddd"/>')
        parts.append(f'<text x="{gx:.2f}" y="{_H - _MB + 16}" '
                     f'font-size="11" text-anchor="middle">1e{k}</text>')
    for k in _decades(10 ** ax.y0, 10 ** ax.y1):
        gy = ax.py(10.0 ** k)
        parts.append(f'<line x1="{_ML}" y1="{gy:.2f}" x2="{_W - _MR}" '
                     f'y2="{gy:.2f}" stroke="#ddd"/>')
        parts.append(f'<text x="{_ML - 6}" y="{gy + 4:.2f}" font-size="11" '
                     f'text-anchor="end">1e{k}</text>')
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
                 f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>')

    # anchor the reference lines at the geometric midpoint of the data
    mid_lx = sum(math.log10(x) for x, _ in pts) / len(pts)
    mid_ly = sum(math.log10(y) for _, y in pts) / len(pts)
    lx0, lx1 = math.log10(pts[0][0]), math.log10(pts[-1][0])
    for slope, color, dash, label in (
            (fitted_slope, "#d62728", "", "fit"),
            (theoretical_slope, "#2ca02c", "6,4", "theory")):
        if slope is None or not math.isfinite(slope):
            continue
        ref = [(10 ** lx0, 10 ** (mid_ly + slope * (lx0 - mid_lx))),
               (10 ** lx1, 10 ** (mid_ly + slope * (lx1 - mid_lx)))]
        parts.append(_polyline(ax, ref, color, dash))
        parts.append(f'<text x="{_W - _MR - 6}" '
                     f'y="{ax.py(ref[1][1]) - 6:.2f}" font-size="11" '
                     f'text-anchor="end" fill="{color}">{label} '
                     f'{_fmt(slope)}</text>')

    parts.append(_polyline(ax, pts, "#1f77b4"))
    for x, y in pts:
        parts.append(f'<circle cx="{ax.px(x):.2f}" cy="{ax.py(y):.2f}" '
                     f'r="3" fill="#1f77b4"/>')

    parts.append(f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 12}" '
                 'font-size="12" text-anchor="middle">m</text>')
    parts.append(f'<text x="16" y="{(_MT + _H - _MB) / 2}" font-size="12" '
                 f'text-anchor="middle" transform="rotate(-90 16 '
                 f'{(_MT + _H - _MB) / 2})">median error</text>')
    if title:
        parts.append(f'<text x="{_W / 2}" y="20" font-size="13" '
                     f'text-anchor="middle">{title}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_loglog_svg(path, points, **kwargs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(loglog_svg(points, **kwargs))
