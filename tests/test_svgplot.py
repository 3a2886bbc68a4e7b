"""SVG chart emission: well-formed XML, correct extents, stable bytes."""
import math
import xml.etree.ElementTree as ET

import pytest

from selfcma import svgplot
from selfcma.errors import EmptyInput
from selfcma.runlog import GenRecord, RunLog


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
    ext = svgplot.parse_extents(path.read_text())
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
    ext = svgplot.parse_extents(path.read_text())
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
    ext = svgplot.parse_extents(path.read_text())
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
    for _, _, color, _ in svgplot.RATE_SERIES:
        assert color in body
    assert "<circle" in body and "<rect" in body and "<path" in body
    assert body.count("<text") >= 10


def test_emit_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    svgplot.emit_plot(_log(), a, title="t")
    svgplot.emit_plot(_log(), b, title="t")
    assert a.read_bytes() == b.read_bytes()


def test_empty_log_rejected(tmp_path):
    with pytest.raises(EmptyInput):
        svgplot.emit_plot(RunLog([]), tmp_path / "fig.svg")
