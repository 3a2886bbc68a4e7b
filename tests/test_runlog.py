"""CSV round-trips, byte determinism, and median aggregation."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
