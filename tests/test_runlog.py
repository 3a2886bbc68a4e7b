"""CSV round-trips, byte determinism, median aggregation, and atomic writes."""
import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selfcma as sc
from selfcma import svgplot
from selfcma.errors import EmptyInput, MalformedLog
from selfcma.runlog import (
    CSV_HEADER,
    WINDOWS,
    GenRecord,
    RunLog,
    aggregate_medians,
    format_float,
    lower_median,
    pooled_median,
    window_slice,
)


def _rec(gen, best, c1=0.1, reason=""):
    return GenRecord(
        gen=gen,
        evals=gen * 10,
        best_f=best,
        median_f=best * 2,
        sigma=0.5,
        c1=c1,
        cmu=0.2,
        cc=0.3,
        stop_reason=reason,
    )


def test_header_matches_contract():
    assert CSV_HEADER == "gen,evals,best_f,median_f,sigma,c1,cmu,cc,stop_reason"


def test_format_float_roundtrips_exactly():
    for x in (0.1, 1e-300, 3.0847265651690123, -7.25, 1e17 + 1.0):
        assert float(format_float(x)) == x


def _row_as_written_out(record):
    """A CSV row cell by cell: `str` for the int and str columns and
    `format(float(x), ".17g")` for the float ones."""
    cells = [
        format(float(v), ".17g") if isinstance(v, (float, np.floating)) else str(v)
        for v in dataclasses.astuple(record)
    ]
    return ",".join(cells)


def _cell_bits(record):
    # float.hex tells -0.0 from 0.0, which == does not
    return [
        (type(v), v.hex() if isinstance(v, float) else v)
        for v in dataclasses.astuple(record)
    ]


def test_row_codec_keeps_its_text_and_records():
    rng = np.random.default_rng(12)
    # random doubles over every exponent: random bit patterns, NaN dropped
    doubles = rng.integers(0, 2**64, 6000, dtype=np.uint64).view(np.float64)
    doubles = doubles[~np.isnan(doubles)].tolist()
    doubles += rng.standard_normal(600).tolist()
    doubles += [math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308]
    doubles += [0.0012345678, 1e16, 1e17 + 2.0, 1.0 / 3.0]
    records = [
        GenRecord(i, 100 * i, *doubles[6 * i : 6 * i + 6], "tol_x" if i % 3 else "")
        for i in range(len(doubles) // 6)
    ]
    # numpy scalars in the fields print as the numbers they hold
    records.append(
        GenRecord(
            np.int64(7), np.int64(700), np.float64(0.1), np.float32(0.1),
            np.float64(-0.0), np.float64(math.inf), np.float16(0.5), 0.25, "",
        )
    )
    for record in records:
        row = record.to_row()
        assert row == _row_as_written_out(record)
        back = GenRecord.from_row(row)
        parsed = GenRecord(
            *[
                (int if i < 2 else str if i == 8 else float)(cell)
                for i, cell in enumerate(row.split(","))
            ]
        )
        assert _cell_bits(back) == _cell_bits(parsed)
        assert back == parsed and hash(back) == hash(parsed)
        assert back.to_row() == row
    # a NaN cell prints like any float, and the reader refuses it
    nan_row = GenRecord(1, 2, 0.5, math.nan, 0.5, 0.1, 0.2, 0.3, "").to_row()
    assert nan_row == (
        "1,2,0.5,nan,0.5,0.10000000000000001,0.20000000000000001,0.29999999999999999,"
    )
    with pytest.raises(ValueError, match="^median_f is nan at generation 1$"):
        GenRecord.from_row(nan_row)


def test_csv_roundtrip(tmp_path):
    log = RunLog([_rec(1, 5.0), _rec(2, 1.25), _rec(3, 0.015625, reason="target_hit")])
    path = tmp_path / "run_000.csv"
    log.to_csv(path)
    back = RunLog.from_csv(path)
    assert back.records == log.records
    text = path.read_text()
    assert text.endswith("\n") and not text.endswith("\n\n")
    assert text.splitlines()[0] == CSV_HEADER
    assert text.splitlines()[-1].endswith(",target_hit")


def test_csv_bytes_are_deterministic(tmp_path):
    log = RunLog([_rec(i, 1.0 / (i + 1)) for i in range(20)])
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    log.to_csv(p1)
    log.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_rejects_bad_header(tmp_path):
    bad = tmp_path / "x.csv"
    bad.write_text("gen,evals\n1,2\n")
    with pytest.raises(ValueError):
        RunLog.from_csv(bad)


def test_csv_refuses_a_nan_cell(tmp_path):
    # a NaN cell would make every median over its column depend on run
    # order, since sorting NaN is undefined; inf sorts and is kept
    path = tmp_path / "run_000.csv"
    RunLog([_rec(1, math.inf), _rec(2, 1.0)]).to_csv(path)
    assert RunLog.from_csv(path).records[0].best_f == math.inf
    for column in ("best_f", "median_f", "sigma", "c1", "cmu", "cc"):
        log = RunLog([_rec(1, 4.0), _rec(2, 2.0), _rec(3, 1.0)])
        log.records[1] = dataclasses.replace(log.records[1], **{column: math.nan})
        log.to_csv(path)
        with pytest.raises(MalformedLog, match=f"{column} is nan at generation 2$"):
            RunLog.from_csv(path)


def test_column_extraction():
    log = RunLog([_rec(1, 4.0), _rec(2, 2.0)])
    np.testing.assert_array_equal(log.column("gen"), [1, 2])
    assert log.column("gen").dtype == np.int64
    np.testing.assert_array_equal(log.column("best_f"), [4.0, 2.0])
    with pytest.raises(KeyError):
        log.column("stop_reason")


@given(st.lists(st.integers(-100, 100), min_size=1, max_size=25))
@settings(max_examples=100, deadline=None)
def test_lower_median_properties(values):
    med = lower_median(values)
    assert med in values
    below = sum(1 for v in values if v <= med)
    assert below >= (len(values) + 1) // 2


def test_lower_median_is_lower_of_even_pair():
    assert lower_median([1.0, 2.0]) == 1.0
    assert lower_median([3, 1, 2, 9]) == 2
    with pytest.raises(EmptyInput):
        lower_median([])


def test_aggregate_medians_worked_example():
    logs = [
        RunLog([_rec(1, 1.0)]),
        RunLog([_rec(1, 2.0)]),
        RunLog([_rec(1, 9.0)]),
    ]
    agg = aggregate_medians(logs)
    assert len(agg) == 1
    assert agg.records[0].best_f == 2.0
    assert agg.records[0].stop_reason == ""


def test_aggregate_medians_respects_alive_runs():
    # index 1 only exists in the two longer runs: median of (8, 6) is 6
    logs = [
        RunLog([_rec(1, 1.0)]),
        RunLog([_rec(1, 2.0), _rec(2, 8.0)]),
        RunLog([_rec(1, 9.0), _rec(2, 6.0)]),
    ]
    agg = aggregate_medians(logs)
    assert len(agg) == 2
    assert agg.records[1].best_f == 6.0


def test_aggregate_medians_permutation_invariant():
    logs = [RunLog([_rec(1, float(v)), _rec(2, float(v * 2))]) for v in (5, 3, 8, 1)]
    a = aggregate_medians(logs)
    b = aggregate_medians(list(reversed(logs)))
    assert a.records == b.records
    with pytest.raises(EmptyInput):
        aggregate_medians([])


def test_pooled_median_windows():
    for k in range(41):
        expected = {
            "first quarter": (0, k // 4),
            "middle half": (k // 4, (3 * k) // 4),
            "final quarter": ((3 * k) // 4, k),
            "final tenth": ((9 * k) // 10, k),
        }
        assert set(WINDOWS) == set(expected)
        for window, bounds in expected.items():
            assert window_slice(window, k) == slice(*bounds), (window, k)

    # a 10-generation run with c1 = 0..9 and a 5-generation one with -5..-1;
    # e.g. the final tenth pools generation 9 of the first and 4 of the second
    logs = [
        RunLog([_rec(i, 1.0, c1=float(i)) for i in range(10)]),
        RunLog([_rec(i, 1.0, c1=float(i - 5)) for i in range(5)]),
    ]
    got = {window: pooled_median(logs, "c1", window) for window in WINDOWS}
    assert got == {
        "first quarter": 0.0,  # of -5, 0, 1
        "middle half": 3.0,  # of -4, -3, 2, 3, 4, 5, 6
        "final quarter": 7.0,  # of -2, -1, 7, 8, 9
        "final tenth": -1.0,  # of -1, 9
    }

    # three generations leave the first quarter empty in every run
    short = [RunLog([_rec(i, 1.0, c1=0.5) for i in range(3)])] * 2
    assert math.isnan(pooled_median(short, "c1", "first quarter"))
    assert pooled_median(short, "c1", "final quarter") == 0.5


def _experiment(out_dir):
    cfg = sc.ExperimentConfig(
        problem="sphere", dim=2, mode="plain", out_dir=str(out_dir), lam=4, runs=1,
        budget=40,
    )
    sc.run_experiment(cfg)


# Every file the package writes, by name, and how to make it in a directory.
_LOG = RunLog([_rec(1, 2.0), _rec(2, 1.0, reason="budget")])
WRITERS = {
    "run_000.csv": lambda d: _LOG.to_csv(d / "run_000.csv"),
    "summary.csv": _experiment,
    "config.txt": _experiment,
    "chart.svg": lambda d: svgplot.emit_plot(_LOG, d / "chart.svg"),
}


def _write_each(root):
    """Make each file in a directory of its own under root; its paths."""
    for name, write in WRITERS.items():
        (root / name).mkdir()
        write(root / name)
    return [root / name / name for name in WRITERS]


@pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
@pytest.mark.parametrize("name", WRITERS)
def test_failed_write_leaves_neither_target_nor_temp_file(
    tmp_path, monkeypatch, name, error
):
    real_replace = os.replace

    def replace(src, dst):
        if os.path.basename(dst) == name:
            raise error(f"refused {name}")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(error, match=f"refused {name}"):
        WRITERS[name](tmp_path)
    assert not (tmp_path / name).exists()
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("mask", [0o022, 0o077, 0o002], ids=oct)
def test_written_mode_is_the_masked_default(tmp_path, mask):
    old = os.umask(mask)
    try:
        paths = _write_each(tmp_path)
    finally:
        os.umask(old)
    for path in paths:
        mode = path.stat().st_mode & 0o777
        assert mode == 0o666 & ~mask, (path.name, oct(mode))


def test_written_bytes_hold_no_carriage_return(tmp_path):
    for path in _write_each(tmp_path):
        data = path.read_bytes()
        assert data.endswith(b"\n") and b"\r" not in data, path.name
