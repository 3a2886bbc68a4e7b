"""Per-generation run traces, their CSV form, and the package's file writer.

One `GenRecord` per completed generation. Serialization is deliberately
rigid: fixed column order, floats printed with repr-exact precision,
trailing newline. Identical logs therefore produce byte-identical files on
every platform, which the determinism checks rely on. `write_text_atomic`
writes every run CSV, summary.csv, config.txt and chart whole, with LF newlines.
"""
from __future__ import annotations

import dataclasses
import math
import operator
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyInput, MalformedLog


def write_text_atomic(path, text: str) -> None:
    """Write text with LF newlines to a new `<name>.<random hex>.tmp` beside
    path (mode 0o666 as the process masks it), then rename it over path.
    An OSError about the temp file names path instead."""
    tmp = Path(f"{path}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def format_float(x: float) -> str:
    """x as a double in `%.17g` form: 17 significant digits with trailing
    zeros dropped, so that the text parses back to the same double. It is not
    the shortest such text: 0.0012345678 prints as 0.0012345678000000001."""
    return "%.17g" % x


@dataclass(frozen=True)
class GenRecord:
    """One generation's logged quantities; the fields are the CSV columns, in order."""

    gen: int
    evals: int
    best_f: float
    median_f: float
    sigma: float
    c1: float
    cmu: float
    cc: float
    stop_reason: str = ""

    def to_row(self) -> str:
        return _ROW_FORMAT % _values(self)

    @classmethod
    def from_row(cls, row: str) -> "GenRecord":
        parts = row.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise ValueError(f"expected {len(CSV_COLUMNS)} fields, got {len(parts)}")
        values = [parse(part) for parse, part in zip(_PARSERS, parts)]
        for name, value in zip(CSV_COLUMNS, values):
            # only NaN is unequal to itself; it has no place in a sorted
            # column, where inf (an objective may return it) has one
            if value != value:
                raise ValueError(f"{name} is nan at generation {values[0]}")
        return cls(*values)


# Dataclass field type (an annotation string, since the modules that read it
# defer evaluation) -> (parser from text, `%` conversion to text). The CSV
# cells here and `harness`'s config.txt values and CLI flags all go through
# it, and `format_float` prints a lone float with the same `%.17g`.
TYPE_CODECS = {
    "int": (int, "%s"),
    "float": (float, "%.17g"),
    "str": (str, "%s"),
}
_FIELDS = dataclasses.fields(GenRecord)
CSV_COLUMNS = tuple(f.name for f in _FIELDS)
CSV_HEADER = ",".join(CSV_COLUMNS)
_PARSERS, _CONVERSIONS = zip(*[TYPE_CODECS[f.type] for f in _FIELDS])
_ROW_FORMAT = ",".join(_CONVERSIONS)  # a whole row in one `%` format
# Numeric column -> the dtype of its array.
_DTYPES = {
    name: np.int64 if parse is int else float
    for name, parse in zip(CSV_COLUMNS, _PARSERS)
    if parse is not str
}
_values = operator.attrgetter(*CSV_COLUMNS)  # record -> tuple of its fields


@dataclass
class RunLog:
    """Ordered per-generation records of one run (or one aggregate of runs)."""

    records: list[GenRecord]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def column(self, name: str) -> np.ndarray:
        """One column across all records, as a float or int array."""
        if name not in _DTYPES:
            raise KeyError(f"no numeric column named {name!r}")
        return np.array([getattr(r, name) for r in self.records], dtype=_DTYPES[name])

    def to_csv_text(self) -> str:
        lines = [CSV_HEADER]
        lines += [r.to_row() for r in self.records]
        return "\n".join(lines) + "\n"

    def to_csv(self, path) -> None:
        write_text_atomic(path, self.to_csv_text())

    @classmethod
    def from_csv(cls, path) -> "RunLog":
        text = Path(path).read_text()
        lines = [ln for ln in text.split("\n") if ln != ""]
        if not lines or lines[0] != CSV_HEADER:
            raise MalformedLog(f"{path}: missing or wrong header")
        try:
            return cls(records=[GenRecord.from_row(ln) for ln in lines[1:]])
        except ValueError as exc:
            raise MalformedLog(f"{path}: {exc}") from exc


def lower_median(values):
    """Element at index (k - 1) // 2 of the sorted values (no interpolation)."""
    ordered = sorted(values)
    if not ordered:
        raise EmptyInput("median of zero values")
    return ordered[(len(ordered) - 1) // 2]


# Named shares of a run's generations, as (lo, hi, d): a run of k generations
# contributes generations k * lo // d up to, not including, k * hi // d.
# Integer bounds stay exact where a float share (0.9 * k) does not.
WINDOWS = {
    "first quarter": (0, 1, 4),
    "middle half": (1, 3, 4),
    "final quarter": (3, 4, 4),
    "final tenth": (9, 10, 10),
}


def window_slice(window: str, k: int) -> slice:
    """The generations of a k-generation run that fall in the named window."""
    lo, hi, d = WINDOWS[window]
    return slice(k * lo // d, k * hi // d)


def pooled_median(logs: list[RunLog], column: str, window: str) -> float:
    """Lower median of a column pooled over the named window of every run.

    nan when no run has a generation in the window.
    """
    pooled = []
    for log in logs:
        values = log.column(column)
        pooled.extend(values[window_slice(window, len(values))].tolist())
    return float(lower_median(pooled)) if pooled else math.nan


def aggregate_medians(logs: list[RunLog]) -> RunLog:
    """Column-wise lower-median across runs, per generation index.

    At each index only the runs still alive (long enough) contribute, so the
    aggregate is as long as the longest input log. The result's stop_reason
    fields are empty; a median of labels has no meaning.
    """
    if not logs:
        raise EmptyInput("no run logs to aggregate")
    longest = max(len(log) for log in logs)
    records = []
    for idx in range(longest):
        alive = [log.records[idx] for log in logs if len(log) > idx]
        columns = zip(*map(_values, alive))
        medians = [
            "" if parse is str else parse(lower_median(col))
            for parse, col in zip(_PARSERS, columns)
        ]
        records.append(GenRecord(*medians))
    return RunLog(records=records)
