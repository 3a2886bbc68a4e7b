"""Minimal dual-axis SVG line charts, assembled as plain strings.

One chart per run log: the three covariance learning rates on a fixed
left axis, log10 of best fitness on the right axis, evaluations along x.
A machine-readable `<metadata>` element embeds the exact data extents so
tests (and downstream tools) can verify the plotted ranges without parsing
pixel coordinates.
"""
from __future__ import annotations

import math
from xml.sax.saxutils import escape

from .adapt import BOX_HIGH
from .errors import EmptyInput, MalformedLog
from .runlog import RunLog, format_float, write_text_atomic

WIDTH = 900
HEIGHT = 540
MARGIN_LEFT = 72
MARGIN_RIGHT = 84
MARGIN_TOP = 46
MARGIN_BOTTOM = 58

# record column, stroke color, marker shape
RATE_SERIES = (
    ("c1", "#1b6ca8", "circle"),
    ("cmu", "#c0392b", "square"),
    ("cc", "#2e8b57", "triangle"),
)
BEST_F_COLOR = "#444444"

# Values this small or negative are clamped before taking log10.
LOG_FLOOR = 1e-300


def _fmt(x: float) -> str:
    """Pixel coordinate with sub-pixel precision, short form."""
    return f"{x:.2f}"


def _mapper(lo: float, hi: float, origin: float, span: float):
    """Map [lo, hi] linearly onto origin .. origin + span pixels (a y axis has
    a negative span); returns the map and [lo, hi], a flat one widened by 1."""
    if hi <= lo:
        lo, hi = lo - 1.0, hi + 1.0

    def to_px(v: float) -> float:
        return origin + (v - lo) / (hi - lo) * span

    return to_px, lo, hi


def _line(x1, y1, x2, y2, style='stroke="#888888"') -> str:
    """Coordinates go in as given: pixel floats through `_fmt`, frame ints bare."""
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {style}/>'


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


def _text(x, y, s, anchor="middle", size=12, rotate=None):
    transform = f' transform="rotate({rotate} {_fmt(x)} {_fmt(y)})"' if rotate else ""
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" text-anchor="{anchor}" '
        f'font-family="sans-serif" font-size="{size}" fill="#222222"{transform}>'
        f"{escape(s)}</text>"
    )


def emit_plot(log: RunLog, path, title: str = "") -> None:
    """Write one dual-axis SVG chart for a run log.

    Left axis: the adapted rates on [0, BOX_HIGH]. Right axis: log10 of
    the best objective value seen so far, at the records where it is finite
    (an objective that returns inf for a whole generation leaves an inf
    best). Markers are thinned so that long runs stay readable.

    Raises:
        EmptyInput: if the log is empty or has no finite best_f.
        MalformedLog: naming the column and generation of a non-finite rate.
    """
    if len(log) == 0:
        raise EmptyInput("cannot plot an empty run log")
    rates = {}
    for column, _, _ in RATE_SERIES:
        rates[column] = [getattr(r, column) for r in log.records]
        for r, v in zip(log.records, rates[column]):
            if not math.isfinite(v):
                raise MalformedLog(f"cannot plot {column} = {v} at generation {r.gen}")
    evals = [r.evals for r in log.records]
    logf = (math.log10(max(r.best_f, LOG_FLOOR)) for r in log.records)
    best = [(e, v) for e, v in zip(evals, logf) if math.isfinite(v)]
    if not best:
        raise EmptyInput("cannot plot a run log with no finite best_f")
    fvals = [v for _, v in best]
    f_lo, f_hi = math.floor(min(fvals)), math.ceil(max(fvals))

    plot_bottom, plot_right = HEIGHT - MARGIN_BOTTOM, WIDTH - MARGIN_RIGHT
    x_of, x_lo, x_hi = _mapper(
        float(min(evals)), float(max(evals)), MARGIN_LEFT, plot_right - MARGIN_LEFT
    )
    y_span = MARGIN_TOP - plot_bottom
    rate_y = _mapper(0.0, BOX_HIGH, plot_bottom, y_span)[0]
    f_y = _mapper(float(f_lo), float(f_hi), plot_bottom, y_span)[0]

    extents = [
        f"evals={format_float(x_lo)}:{format_float(x_hi)}",
        f"log10_best_f={format_float(min(fvals))}:{format_float(max(fvals))}",
    ] + [f"{c}={format_float(min(s))}:{format_float(max(s))}" for c, s in rates.items()]
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        '<metadata id="series-extents">' + ";".join(extents) + "</metadata>",
    ]
    if title:
        parts.append(_text(WIDTH / 2, MARGIN_TOP - 22, title, size=15))
    parts.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" '
        f'width="{plot_right - MARGIN_LEFT}" height="{plot_bottom - MARGIN_TOP}" '
        f'fill="none" stroke="#888888"/>'
    )

    # x ticks: five evenly spaced evaluation counts
    for v in (x_lo + (x_hi - x_lo) * i / 4 for i in range(5)):
        px = x_of(v)
        parts.append(_line(_fmt(px), plot_bottom, _fmt(px), plot_bottom + 5))
        parts.append(_text(px, plot_bottom + 20, str(int(round(v)))))
    parts.append(_text((MARGIN_LEFT + plot_right) / 2, HEIGHT - 14, "evaluations"))

    # y ticks: the rate scale in steps of 0.1 on the left, integer log10
    # levels (at most 8 labels) on the right; then each axis's title
    f_step = max(1, math.ceil((f_hi - f_lo) / 8))
    mid_y = (MARGIN_TOP + plot_bottom) / 2
    for x0, label_dx, anchor, to_py, ticks, digits, name, name_x, rotate in (
        (MARGIN_LEFT - 5, -4, "end", rate_y, [i / 10 for i in range(10)], 1,
         "learning rate", 18, -90),
        (plot_right, 9, "start", f_y, range(f_lo, f_hi + 1, f_step), 0,
         "log10 best f", WIDTH - 16, 90),
    ):
        for v in ticks:
            py = to_py(v)
            parts.append(_line(x0, _fmt(py), x0 + 5, _fmt(py)))
            parts.append(_text(x0 + label_dx, py + 4, f"{v:.{digits}f}", anchor=anchor))
        parts.append(_text(name_x, mid_y, name, rotate=rotate))

    # best-f curve on the right axis
    parts.append(_polyline([(x_of(e), f_y(v)) for e, v in best], BEST_F_COLOR, 1.2))

    # rate curves with thinned markers on the left axis
    stride = max(1, len(evals) // 40)
    for column, color, shape in RATE_SERIES:
        points = [(x_of(e), rate_y(v)) for e, v in zip(evals, rates[column])]
        parts.append(_polyline(points, color))
        parts += [_marker(shape, x, y, color) for x, y in points[::stride]]

    # legend across the top
    legend_x = MARGIN_LEFT
    for column, color, shape in RATE_SERIES:
        parts.append(_marker(shape, legend_x, MARGIN_TOP - 10, color))
        parts.append(_text(legend_x + 10, MARGIN_TOP - 6, column, anchor="start"))
        legend_x += 70
    parts.append(_line(legend_x, MARGIN_TOP - 10, legend_x + 22, MARGIN_TOP - 10,
                       f'stroke="{BEST_F_COLOR}" stroke-width="1.2"'))
    parts.append(_text(legend_x + 28, MARGIN_TOP - 6, "best f", anchor="start"))

    parts.append("</svg>")
    write_text_atomic(path, "\n".join(parts) + "\n")
