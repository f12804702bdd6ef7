"""Matrix file ingestion and deterministic JSON emission.

Accepted formats: JSON ``{"n": int, "rows": [[...], ...]}`` and CSV with
``n`` lines of ``n`` comma-separated decimal literals, both read as UTF-8
with an optional byte-order mark at the start.  Emission formats floats
with 17 significant digits (round-trip exact for doubles) and is
byte-deterministic for a given document.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
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
        text = p.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise MatrixParseError(f"cannot read {p}: {exc}") from None
    if fmt == "json":
        return parse_json_matrix(text)
    if fmt == "csv":
        return parse_csv_matrix(text)
    raise MatrixParseError(f"unknown format {fmt!r}")


def dumps(doc) -> str:
    """Deterministic compact JSON of a document: text-keyed dicts, lists, numpy
    arrays (as their nested lists), text, bools, ints and finite floats, each
    float with 17 significant digits."""
    if isinstance(doc, float):
        if not math.isfinite(doc):
            raise ValueError("cannot serialize non-finite value")
        return format(doc, ".17g")
    if isinstance(doc, list):
        return "[" + ",".join(map(dumps, doc)) + "]"
    if isinstance(doc, dict):
        items = []
        for key, value in doc.items():
            if not isinstance(key, str):
                raise TypeError(f"non-string key: {key!r}")
            items.append(f"{encode_basestring_ascii(key)}:{dumps(value)}")
        return "{" + ",".join(items) + "}"
    if isinstance(doc, np.ndarray):
        return dumps(doc.tolist())
    if isinstance(doc, str):
        return encode_basestring_ascii(doc)
    if isinstance(doc, bool):
        return "true" if doc else "false"
    if isinstance(doc, int):
        return str(doc)
    raise TypeError(f"cannot serialize {type(doc).__name__}")
