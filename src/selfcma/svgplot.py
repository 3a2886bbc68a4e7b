"""Minimal dual-axis SVG line charts, assembled as plain strings.

One chart per run log: the three covariance learning rates on a fixed
left axis, log10 of best fitness on the right axis, evaluations along x.
A machine-readable `<metadata>` element embeds the exact data extents so
tests (and downstream tools) can verify the plotted ranges without parsing
pixel coordinates.
"""
from __future__ import annotations

import math
from pathlib import Path
from xml.sax.saxutils import escape

from .adapt import BOX_HIGH
from .errors import EmptyInput
from .runlog import RunLog, format_float

WIDTH = 900
HEIGHT = 540
MARGIN_LEFT = 72
MARGIN_RIGHT = 84
MARGIN_TOP = 46
MARGIN_BOTTOM = 58

# series name, record column, stroke color, marker shape
RATE_SERIES = (
    ("c1", "c1", "#1b6ca8", "circle"),
    ("cmu", "cmu", "#c0392b", "square"),
    ("cc", "cc", "#2e8b57", "triangle"),
)
BEST_F_COLOR = "#444444"

# Values this small or negative are clamped before taking log10.
LOG_FLOOR = 1e-300


def _fmt(x: float) -> str:
    """Pixel coordinate with sub-pixel precision, short form."""
    return f"{x:.2f}"


def _x_mapper(evals):
    lo, hi = float(min(evals)), float(max(evals))
    if hi <= lo:
        lo, hi = lo - 1.0, hi + 1.0
    span = WIDTH - MARGIN_LEFT - MARGIN_RIGHT

    def to_px(v: float) -> float:
        return MARGIN_LEFT + (v - lo) / (hi - lo) * span

    return to_px, lo, hi


def _y_mapper(lo: float, hi: float):
    if hi <= lo:
        lo, hi = lo - 1.0, hi + 1.0
    span = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def to_px(v: float) -> float:
        return HEIGHT - MARGIN_BOTTOM - (v - lo) / (hi - lo) * span

    return to_px


def _polyline(points, color: str, width: float = 1.6) -> str:
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
    return (
        f'<polyline fill="none" stroke="{color}" '
        f'stroke-width="{width}" points="{coords}"/>'
    )


def _marker(shape: str, x: float, y: float, color: str) -> str:
    if shape == "circle":
        return f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3.2" fill="{color}"/>'
    if shape == "square":
        return (
            f'<rect x="{_fmt(x - 2.8)}" y="{_fmt(y - 2.8)}" '
            f'width="5.6" height="5.6" fill="{color}"/>'
        )
    return (
        f'<path d="M {_fmt(x)} {_fmt(y - 3.6)} L {_fmt(x + 3.3)} {_fmt(y + 2.7)} '
        f'L {_fmt(x - 3.3)} {_fmt(y + 2.7)} Z" fill="{color}"/>'
    )


def _text(x, y, s, anchor="middle", size=12, color="#222222", rotate=None):
    transform = f' transform="rotate({rotate} {_fmt(x)} {_fmt(y)})"' if rotate else ""
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" text-anchor="{anchor}" '
        f'font-family="sans-serif" font-size="{size}" fill="{color}"{transform}>'
        f"{escape(s)}</text>"
    )


def _nice_ticks(lo: float, hi: float, max_ticks: int = 8) -> list[float]:
    """Integer tick positions covering [lo, hi] with at most max_ticks labels."""
    lo_i, hi_i = math.floor(lo), math.ceil(hi)
    step = max(1, math.ceil((hi_i - lo_i) / max_ticks))
    return [float(v) for v in range(lo_i, hi_i + 1, step)]


def log10_best_f(log: RunLog) -> list[float]:
    """log10 of each record's best fitness, floored at LOG_FLOOR."""
    return [math.log10(max(r.best_f, LOG_FLOOR)) for r in log.records]


def emit_plot(log: RunLog, path, title: str = "") -> None:
    """Write one dual-axis SVG chart for a run log.

    Left axis: the adapted rates on [0, BOX_HIGH]. Right axis: log10 of
    the best objective value seen so far, at the records where it is finite
    (an objective that returns inf for a whole generation leaves an inf
    best). Markers are thinned so that long runs stay readable.
    """
    if len(log) == 0:
        raise EmptyInput("cannot plot an empty run log")
    evals = [r.evals for r in log.records]
    x_of, x_lo, x_hi = _x_mapper(evals)
    rate_y = _y_mapper(0.0, BOX_HIGH)
    best = [(e, v) for e, v in zip(evals, log10_best_f(log)) if math.isfinite(v)]
    if not best:
        raise EmptyInput("cannot plot a run log with no finite best_f")
    fvals = [v for _, v in best]
    f_lo, f_hi = math.floor(min(fvals)), math.ceil(max(fvals))
    f_y = _y_mapper(float(f_lo), float(f_hi))

    stride = max(1, len(evals) // 40)
    plot_bottom = HEIGHT - MARGIN_BOTTOM
    plot_right = WIDTH - MARGIN_RIGHT

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]

    extents = [
        f"evals={format_float(x_lo)}:{format_float(x_hi)}",
        f"log10_best_f={format_float(min(fvals))}:{format_float(max(fvals))}",
    ]
    for name, column, _, _ in RATE_SERIES:
        series = [getattr(r, column) for r in log.records]
        extents.append(
            f"{name}={format_float(min(series))}:{format_float(max(series))}"
        )
    parts.append(
        '<metadata id="series-extents">' + ";".join(extents) + "</metadata>"
    )

    if title:
        parts.append(_text(WIDTH / 2, MARGIN_TOP - 22, title, size=15))

    # axes frame
    parts.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" '
        f'width="{plot_right - MARGIN_LEFT}" height="{plot_bottom - MARGIN_TOP}" '
        f'fill="none" stroke="#888888"/>'
    )

    # x ticks: five evenly spaced evaluation counts
    for i in range(5):
        v = x_lo + (x_hi - x_lo) * i / 4
        px = x_of(v)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{plot_bottom}" x2="{_fmt(px)}" '
            f'y2="{plot_bottom + 5}" stroke="#888888"/>'
        )
        parts.append(_text(px, plot_bottom + 20, str(int(round(v)))))
    parts.append(_text((MARGIN_LEFT + plot_right) / 2, HEIGHT - 14, "evaluations"))

    # left ticks: the rate scale in steps of 0.1
    tick = 0.0
    while tick <= BOX_HIGH + 1e-9:
        py = rate_y(tick)
        parts.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{_fmt(py)}" x2="{MARGIN_LEFT}" '
            f'y2="{_fmt(py)}" stroke="#888888"/>'
        )
        parts.append(_text(MARGIN_LEFT - 9, py + 4, f"{tick:.1f}", anchor="end"))
        tick += 0.1
    parts.append(
        _text(18, (MARGIN_TOP + plot_bottom) / 2, "learning rate", rotate=-90)
    )

    # right ticks: integer log10 levels
    for v in _nice_ticks(f_lo, f_hi):
        py = f_y(v)
        parts.append(
            f'<line x1="{plot_right}" y1="{_fmt(py)}" x2="{plot_right + 5}" '
            f'y2="{_fmt(py)}" stroke="#888888"/>'
        )
        parts.append(_text(plot_right + 9, py + 4, f"{v:.0f}", anchor="start"))
    parts.append(
        _text(
            WIDTH - 16,
            (MARGIN_TOP + plot_bottom) / 2,
            "log10 best f",
            rotate=90,
        )
    )

    # best-f curve on the right axis
    f_points = [(x_of(e), f_y(v)) for e, v in best]
    parts.append(_polyline(f_points, BEST_F_COLOR, width=1.2))

    # rate curves with thinned markers on the left axis
    for name, column, color, shape in RATE_SERIES:
        series = [getattr(r, column) for r in log.records]
        points = [(x_of(e), rate_y(v)) for e, v in zip(evals, series)]
        parts.append(_polyline(points, color))
        for k in range(0, len(points), stride):
            parts.append(_marker(shape, points[k][0], points[k][1], color))

    # legend across the top
    legend_x = MARGIN_LEFT
    for name, _, color, shape in RATE_SERIES:
        parts.append(_marker(shape, legend_x, MARGIN_TOP - 10, color))
        parts.append(_text(legend_x + 10, MARGIN_TOP - 6, name, anchor="start"))
        legend_x += 70
    parts.append(
        f'<line x1="{legend_x}" y1="{MARGIN_TOP - 10}" x2="{legend_x + 22}" '
        f'y2="{MARGIN_TOP - 10}" stroke="{BEST_F_COLOR}" stroke-width="1.2"/>'
    )
    parts.append(_text(legend_x + 28, MARGIN_TOP - 6, "best f", anchor="start"))

    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")

