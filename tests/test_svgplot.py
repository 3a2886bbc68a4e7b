"""SVG chart emission: well-formed XML, correct extents, stable bytes."""
import dataclasses
import hashlib
import math
import xml.etree.ElementTree as ET

import pytest

from selfcma import svgplot
from selfcma.errors import EmptyInput, MalformedLog
from selfcma.runlog import GenRecord, RunLog


def _parse_extents(svg_text: str) -> dict[str, tuple[float, float]]:
    """Read back the series extents that `emit_plot` embeds as metadata."""
    start = svg_text.index('<metadata id="series-extents">')
    start += len('<metadata id="series-extents">')
    end = svg_text.index("</metadata>", start)
    out: dict[str, tuple[float, float]] = {}
    for item in svg_text[start:end].split(";"):
        name, _, span = item.partition("=")
        lo, _, hi = span.partition(":")
        out[name] = (float(lo), float(hi))
    return out


def _log(n=30):
    recs = []
    for g in range(1, n + 1):
        recs.append(
            GenRecord(
                gen=g,
                evals=g * 10,
                best_f=10.0 ** (1 - 0.3 * g),
                median_f=10.0 ** (1.2 - 0.3 * g),
                sigma=0.5,
                c1=0.01 + 0.001 * g,
                cmu=0.4 - 0.002 * g,
                cc=0.3,
            )
        )
    return RunLog(recs)


def test_emitted_svg_is_valid_xml(tmp_path):
    path = tmp_path / "fig.svg"
    svgplot.emit_plot(_log(), path, title="median of 15 runs <&>")
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    assert root.get("width") == str(svgplot.WIDTH)
    body = path.read_text()
    assert "&lt;&amp;&gt;" in body  # title is escaped


def test_extents_match_data(tmp_path):
    log = _log(25)
    path = tmp_path / "fig.svg"
    svgplot.emit_plot(log, path)
    ext = _parse_extents(path.read_text())
    assert ext["evals"] == (10.0, 250.0)
    c1 = [r.c1 for r in log.records]
    assert ext["c1"] == (min(c1), max(c1))
    logf = [math.log10(r.best_f) for r in log.records]
    assert ext["log10_best_f"] == pytest.approx((min(logf), max(logf)), rel=1e-15)


def test_nonpositive_best_f_is_floored(tmp_path):
    recs = [
        GenRecord(1, 10, 1.0, 1.0, 1, 0.1, 0.1, 0.1),
        GenRecord(2, 20, 0.0, 1.0, 1, 0.1, 0.1, 0.1),
    ]
    path = tmp_path / "fig.svg"
    svgplot.emit_plot(RunLog(recs), path)
    ext = _parse_extents(path.read_text())
    assert ext["log10_best_f"][0] == -300.0
    ET.parse(path)


def test_non_finite_best_f_is_left_out(tmp_path):
    # an objective that returns inf for a whole generation leaves an inf
    # best; only the finite points are plotted
    recs = [
        GenRecord(1, 10, math.inf, math.inf, 1, 0.1, 0.1, 0.1),
        GenRecord(2, 20, 100.0, 100.0, 1, 0.1, 0.1, 0.1),
        GenRecord(3, 30, 1.0, 1.0, 1, 0.1, 0.1, 0.1),
    ]
    path = tmp_path / "fig.svg"
    svgplot.emit_plot(RunLog(recs), path)
    ET.parse(path)
    ext = _parse_extents(path.read_text())
    assert ext["log10_best_f"] == (0.0, 2.0)
    assert ext["evals"] == (10.0, 30.0)
    best_f_line = [
        line for line in path.read_text().splitlines()
        if "<polyline" in line and svgplot.BEST_F_COLOR in line
    ]
    assert len(best_f_line) == 1 and best_f_line[0].count(",") == 2


@pytest.mark.parametrize("best_f", [math.inf, math.nan])
def test_no_finite_best_f_rejected(tmp_path, best_f):
    recs = [GenRecord(g, 10 * g, best_f, 1.0, 1, 0.1, 0.1, 0.1) for g in (1, 2)]
    with pytest.raises(EmptyInput, match="no finite best_f"):
        svgplot.emit_plot(RunLog(recs), tmp_path / "fig.svg")
    assert not (tmp_path / "fig.svg").exists()


@pytest.mark.parametrize("column", ["c1", "cmu", "cc"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_rate_rejected_before_writing(tmp_path, column, bad):
    # a non-finite rate has no pixel position; the chart would carry "nan"
    recs = [GenRecord(g, 10 * g, 1.0, 1.0, 1, 0.1, 0.2, 0.3) for g in (1, 2, 3, 4)]
    for g in (3, 4):
        recs[g - 1] = dataclasses.replace(recs[g - 1], **{column: bad})
    with pytest.raises(MalformedLog, match=f"{column} = {bad} at generation 3$"):
        svgplot.emit_plot(RunLog(recs), tmp_path / "fig.svg")
    assert not (tmp_path / "fig.svg").exists()


def test_single_record_log_does_not_degenerate(tmp_path):
    path = tmp_path / "fig.svg"
    svgplot.emit_plot(RunLog([GenRecord(1, 10, 1.0, 1.0, 1, 0.1, 0.2, 0.3)]), path)
    ET.parse(path)
    text = path.read_text()
    assert "NaN" not in text and "nan" not in text


def test_all_series_present_with_markers(tmp_path):
    path = tmp_path / "fig.svg"
    svgplot.emit_plot(_log(), path)
    body = path.read_text()
    assert body.count("<polyline") == 4  # three rates plus best f
    for _, color, _ in svgplot.RATE_SERIES:
        assert color in body
    assert "<circle" in body and "<rect" in body and "<path" in body
    assert body.count("<text") >= 10


def test_emit_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    svgplot.emit_plot(_log(), a, title="t")
    svgplot.emit_plot(_log(), b, title="t")
    assert a.read_bytes() == b.read_bytes()


def _long_log():
    """1000 records whose first seven have an inf best_f: markers every 25th
    record, left-out best-f points and right-axis ticks four decades apart."""
    recs = []
    for g in range(1, 1001):
        best = math.inf if g <= 7 else 10.0 ** (12 - 0.03 * g)
        recs.append(
            GenRecord(
                g, 100 * g, best, best, 0.5,
                0.02 + 0.0004 * (g % 97), 0.3 - 0.0002 * g, 0.8 / (1 + 0.01 * g),
            )
        )
    return RunLog(recs)


@pytest.mark.parametrize(
    "log, title, digest",
    [
        (
            _log(),
            "median of 15 runs <&>",
            "2c63fb9f962cf6e7580f358962e9132b932a2b0b412d4cf8014f38e762c7ba3a",
        ),
        (
            RunLog([GenRecord(1, 10, 1.0, 1.0, 1, 0.1, 0.2, 0.3)]),
            "",
            "4f8485bbb6e01d2a299109059b3043cd5844fbf335099eb2bb5e5b3a6bfe1a85",
        ),
        (
            _long_log(),
            "",
            "2ea273d6b29884848a0cac3bd3212719a13301f6ace43e6b1d168d800a4a3e43",
        ),
    ],
    ids=["titled", "single-record", "long-with-inf"],
)
def test_emit_plot_bytes_are_pinned(tmp_path, log, title, digest):
    path = tmp_path / "fig.svg"
    svgplot.emit_plot(log, path, title=title)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_empty_log_rejected(tmp_path):
    with pytest.raises(EmptyInput):
        svgplot.emit_plot(RunLog([]), tmp_path / "fig.svg")
