"""Shared matrix text format.

Files may open with comment lines starting with '#'.  The first data line
holds the dimension n; the next n data lines hold n space-separated
integers each, row-major.  Columns are the basis vectors unless the caller
transposes on ingest.
"""

from __future__ import annotations

from typing import Sequence

from .errors import MatrixFormatError
from .lattice import BasisMatrix

Rows = tuple[tuple[int, ...], ...]


def _data_lines(text: str) -> list[str]:
    return [line.strip() for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


def parse_matrix(text: str, rows_as_vectors: bool = False) -> Rows:
    """Parse the text format into row tuples (transposed when the rows are
    declared to be the vectors)."""
    lines = _data_lines(text)
    if not lines:
        raise MatrixFormatError("no data lines")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise MatrixFormatError(
            f"first data line must be the dimension, got {lines[0]!r}"
        ) from exc
    if n < 1:
        raise MatrixFormatError(f"dimension must be positive, got {n}")
    if len(lines) - 1 != n:
        raise MatrixFormatError(
            f"expected {n} matrix rows, found {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        try:
            row = tuple(map(int, line.split()))
        except ValueError as exc:
            raise MatrixFormatError(f"bad matrix row {line!r}") from exc
        if len(row) != n:
            raise MatrixFormatError(
                f"row {line!r} has {len(row)} entries, expected {n}")
        rows.append(row)
    if rows_as_vectors:
        rows = zip(*rows)
    return tuple(rows)


def parse_inline(text: str, rows_as_vectors: bool = False) -> Rows:
    """Parse an inline matrix, rows separated by semicolons."""
    parts = [p.strip() for p in text.split(";") if p.strip()]
    if not parts:
        raise MatrixFormatError("empty inline matrix")
    body = "\n".join(parts)
    return parse_matrix(f"{len(parts)}\n{body}", rows_as_vectors)


def format_matrix(rows: Sequence[Sequence[int]] | BasisMatrix) -> str:
    """Render rows in the text format (re-parses to the same matrix)."""
    if isinstance(rows, BasisMatrix):
        rows = rows.rows
    lines = [str(len(rows))]
    lines += [" ".join(str(v) for v in row) for row in rows]
    return "\n".join(lines)
