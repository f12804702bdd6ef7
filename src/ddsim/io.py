"""Matrix file ingestion and deterministic JSON emission.

Accepted formats: JSON ``{"n": int, "rows": [[...], ...]}`` and CSV with
``n`` lines of ``n`` comma-separated decimal literals.  Emission formats
floats with 17 significant digits (round-trip exact for doubles) and is
byte-deterministic for a given document.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import MatrixParseError


def parse_csv_matrix(text: str) -> np.ndarray:
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise MatrixParseError("line 1, column 1: empty input")
    rows = []
    for i, line in enumerate(lines, start=1):
        fields = line.split(",")
        row = []
        for j, field in enumerate(fields, start=1):
            try:
                value = float(field.strip())
            except ValueError:
                raise MatrixParseError(
                    f"line {i}, column {j}: not a decimal literal: {field.strip()!r}"
                ) from None
            if not math.isfinite(value):
                raise MatrixParseError(f"line {i}, column {j}: non-finite value")
            row.append(value)
        rows.append(row)
    n = len(rows)
    for i, row in enumerate(rows, start=1):
        if len(row) != n:
            raise MatrixParseError(
                f"line {i}, column {len(row)}: expected {n} values for a "
                f"square matrix, got {len(row)}")
    return np.array(rows)


def parse_json_matrix(text: str) -> np.ndarray:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also an integer literal over the digit limit
        raise MatrixParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "n" not in doc or "rows" not in doc:
        raise MatrixParseError('expected an object with "n" and "rows"')
    n = doc["n"]
    rows = doc["rows"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise MatrixParseError('"n" must be a positive integer')
    if not isinstance(rows, list) or len(rows) != n:
        raise MatrixParseError(f'"rows" must hold {n} rows')
    for i, row in enumerate(rows, start=1):
        if not isinstance(row, list) or len(row) != n:
            raise MatrixParseError(f"row {i}: expected {n} values")
        for j, value in enumerate(row, start=1):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise MatrixParseError(f"row {i}, column {j}: not a number")
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an integer literal too large for a float
                finite = False
            if not finite:
                raise MatrixParseError(f"row {i}, column {j}: non-finite value")
    return np.array(rows, dtype=float)


def load_matrix(path, fmt: str | None = None) -> np.ndarray:
    """Read a square real matrix from ``path``; format by extension unless given."""
    p = Path(path)
    if fmt is None:
        fmt = "json" if p.suffix.lower() == ".json" else "csv"
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MatrixParseError(f"cannot read {p}: {exc}") from None
    if fmt == "json":
        return parse_json_matrix(text)
    if fmt == "csv":
        return parse_csv_matrix(text)
    raise MatrixParseError(f"unknown format {fmt!r}")


def format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError("cannot serialize non-finite value")
    return format(float(value), ".17g")


def _emit(obj, out: list):
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(",")
            if not isinstance(key, str):
                raise TypeError(f"non-string key: {key!r}")
            out.append(json.dumps(key))
            out.append(":")
            _emit(value, out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(doc) -> str:
    """Deterministic compact JSON with 17-significant-digit floats."""
    out: list = []
    _emit(doc, out)
    return "".join(out)


def matrix_rows(a) -> list:
    """Nested-list form of a real matrix for JSON emission."""
    return [[float(v) for v in row] for row in np.asarray(a, dtype=float)]


def complex_matrix_doc(a) -> dict:
    """Complex matrix as a {"re": rows, "im": rows} pair."""
    arr = np.asarray(a)
    return {"re": matrix_rows(arr.real), "im": matrix_rows(arr.imag)}
