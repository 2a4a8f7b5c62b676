"""Flat-file ingestion and emission: point sets, traces, summaries, tables."""

from __future__ import annotations

import csv
import json
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .config import Configuration
from .engine import IterationRecord

__all__ = [
    "ParseError",
    "load_points",
    "emit_trace",
    "trace_line",
    "write_json",
    "write_csv",
]


class ParseError(ValueError):
    """Input file could not be parsed; carries 1-based row/column context."""

    def __init__(self, path, message: str, row: int | None = None, col: int | None = None):
        self.path = str(path)
        self.row = row
        self.col = col
        where = self.path
        if row is not None:
            where += f":row {row}"
        if col is not None:
            where += f":col {col}"
        super().__init__(f"{where}: {message}")


def _points_from_rows(path, rows: list[list], first_data_row: int,
                      parse=float) -> Configuration:
    # ``parse`` turns a cell into a float, raising ValueError for a cell
    # that is not a number
    if not rows:
        raise ParseError(path, "no data rows")
    width = len(rows[0])
    try:
        # every cell in one map, into one flat array: a list per row, and
        # numpy's reading of nested lists, cost about half again as much
        coords = np.fromiter(map(parse, chain.from_iterable(rows)), float)
    except ValueError:
        coords = None
    if coords is None or len(set(map(len, rows))) > 1:
        # name the first ragged row or bad cell, row by row
        for r, row in enumerate(rows):
            if len(row) != width:
                raise ParseError(path, f"expected {width} columns, found {len(row)}",
                                 row=first_data_row + r)
            for c, cell in enumerate(row):
                try:
                    parse(cell)
                except ValueError:
                    raise ParseError(path, f"non-numeric cell {cell!r}",
                                     row=first_data_row + r, col=c + 1) from None
    try:
        return Configuration.from_points(coords.reshape(len(rows), width))
    except ValueError as exc:
        raise ParseError(path, str(exc)) from None


def _json_number(cell) -> float:
    # a JSON cell is a number only as a JSON number: float() would read the
    # string "1" or "nan" as one, and a bool is an int to Python
    if isinstance(cell, bool) or not isinstance(cell, (int, float)):
        raise ValueError
    return float(str(cell))  # an int beyond the floats reads as inf, as in a CSV


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def load_points(path, fmt: str | None = None) -> Configuration:
    """Load an (n, d) point set from a CSV or JSON file.

    CSV: one point per row, ``d`` numeric columns; a leading row none of
    whose cells is a number is a header and is skipped, while a leading row
    with some numeric cell is data, so a bad cell there is an error.  JSON:
    an array of equal-length arrays of JSON numbers (a string such as
    ``"1"``, a bool or null is no number).  Malformed input raises
    :class:`ParseError` with the offending row/column.
    """
    if fmt is None:
        fmt = "json" if str(path).endswith(".json") else "csv"
    if fmt == "json":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParseError(path, f"invalid JSON: {exc}") from None
        if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
            raise ParseError(path, "expected a JSON array of arrays")
        return _points_from_rows(path, data, 1, _json_number)
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ParseError(path, "empty file")
    first_data_row = 1
    if not any(_is_number(cell) for cell in rows[0]):
        rows = rows[1:]  # header
        first_data_row = 2
    return _points_from_rows(path, rows, first_data_row)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def trace_line(record: IterationRecord) -> str:
    """One JSON line per iteration, floats at full (17 digit) precision."""
    fields = [
        ("t", record.t),
        ("L", record.objective),
        ("d", record.diameter),
        ("rho", record.comp_diameter),
        ("max_move", record.max_move),
        ("M", record.n_components),
        ("closed", record.closed),
        ("singular", record.singular),
        ("stable", record.stable),
    ]
    return "{" + ",".join(f'"{k}":{_fmt(v)}' for k, v in fields) + "}"


def emit_trace(records: Iterable[IterationRecord], path) -> None:
    """Write iteration records as JSON Lines (empty input gives an empty file)."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(trace_line(record) + "\n")


def write_json(obj, path) -> None:
    """Write ``obj`` as indented JSON and a newline, in one write."""
    text = json.dumps(obj, indent=2, sort_keys=False) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_csv(header: Sequence[str], rows: Iterable[Sequence], path) -> None:
    """Write a small numeric table; floats are kept at full precision."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])
