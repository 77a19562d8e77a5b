"""Matrix text format and the built-in example catalog.

Matrices travel as JSON arrays of equal-length arrays of complex literals
(the grammar of :mod:`cubelin.scalars`), UTF-8, for example
``[["0","1"],["0","0"]]``.  Formatting always round-trips through parsing.
"""

from __future__ import annotations

import json

from .linalg import ScalarMatrix
from .scalars import ParseError, format_gaussian, parse_gaussian


class MatrixParseError(ValueError):
    """Malformed matrix text; the message pinpoints the offending cell."""


def parse_matrix(text: str) -> ScalarMatrix:
    """Parse a JSON array-of-arrays of complex literals exactly."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MatrixParseError(f"matrix is not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise MatrixParseError("matrix must be a JSON array of rows")
    rows = []
    width = None
    for i, row in enumerate(data):
        if not isinstance(row, list):
            raise MatrixParseError(f"row {i + 1} is not an array")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise MatrixParseError(
                f"ragged rows: row {i + 1} has {len(row)} entries, expected {width}"
            )
        entries = []
        for j, cell in enumerate(row):
            if not isinstance(cell, str):
                raise MatrixParseError(
                    f"entry at row {i + 1}, column {j + 1} must be a string literal"
                )
            try:
                entries.append(parse_gaussian(cell))
            except ParseError as exc:
                raise MatrixParseError(
                    f"bad literal at row {i + 1}, column {j + 1}: {exc}"
                ) from exc
        rows.append(entries)
    return ScalarMatrix(rows, cols=width)


def matrix_entries_text(M: ScalarMatrix) -> list[list[str]]:
    """Entries as canonical literal strings, row by row."""
    return [[format_gaussian(c) for c in row] for row in M.entries]


def format_matrix(M: ScalarMatrix) -> str:
    """Canonical JSON text; parse_matrix(format_matrix(M)) == M."""
    return json.dumps(matrix_entries_text(M))


_PAPER_MATRIX = (
    ("1", "i", "1", "1"),
    ("-i", "1", "-i", "-i"),
    ("-1", "-i", "1", "-1"),
    ("-1", "-i", "1", "-1"),
)

_BUILTIN_EXAMPLES: dict[str, tuple[tuple[str, ...], ...]] = {
    "paper-example": _PAPER_MATRIX,
    "shear-2": (("0", "1"), ("0", "0")),
    "zero-3": (("0", "0", "0"), ("0", "0", "0"), ("0", "0", "0")),
}


def builtin_example_names() -> list[str]:
    return sorted(_BUILTIN_EXAMPLES)


def builtin_example(name: str) -> ScalarMatrix:
    """Look up a matrix from the built-in catalog by name."""
    rows = _BUILTIN_EXAMPLES.get(name)
    if rows is None:
        available = ", ".join(builtin_example_names())
        raise ValueError(f"unknown example {name!r}; available: {available}")
    return ScalarMatrix(
        [[parse_gaussian(cell) for cell in row] for row in rows]
    )
