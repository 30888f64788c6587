"""Shared matrix text format.

Files may open with comment lines starting with '#'.  The first data line
holds the dimension n; the next n data lines hold n space-separated
integers each, row-major.  Columns are the basis vectors unless the caller
transposes on ingest.

An entry is a base-10 integer as Python's ``int()`` reads it.  The paper's
lattices have small entries (orthogonal block sums, Hajos bases with
entries 0/1/2, non-acute subsets with entries in [-3, 3]), so the reader
looks each token up in a table of the canonical spellings of -255..255,
a lookup that costs about half an ``int()`` call.  Any other token (``+2``,
``007``, ``1_0``, other Unicode digits, long entries, bad tokens) goes
through ``int()`` itself, so it reads, or fails, exactly as before.
"""

from __future__ import annotations

from typing import Sequence

from .errors import MatrixFormatError
from .lattice import BasisMatrix

Rows = tuple[tuple[int, ...], ...]


class _Ints(dict):
    """str(i) -> i; a token that is not a key is read by ``int()``."""

    __slots__ = ()

    def __missing__(self, token: str) -> int:
        return int(token)


_SMALL = range(-255, 256)
_INTS = _Ints(zip(map(str, _SMALL), _SMALL))


def _read_rows(lines: list[str], rows_as_vectors: bool) -> Rows:
    """Read n stripped lines of n integers each into row tuples
    (transposed when the rows are declared to be the vectors)."""
    n = len(lines)
    rows = []
    for line in lines:
        try:
            row = tuple(map(_INTS.__getitem__, line.split()))
        except ValueError as exc:
            raise MatrixFormatError(f"bad matrix row {line!r}") from exc
        if len(row) != n:
            raise MatrixFormatError(
                f"row {line!r} has {len(row)} entries, expected {n}")
        rows.append(row)
    if rows_as_vectors:
        rows = zip(*rows)
    return tuple(rows)


def parse_matrix(text: str, rows_as_vectors: bool = False) -> Rows:
    """Parse the text format into row tuples (transposed when the rows are
    declared to be the vectors).  One leading U+FEFF, the byte-order mark
    some editors write, is dropped; anywhere else it is a bad token."""
    text = text.removeprefix("\ufeff")
    lines = [line for line in map(str.strip, text.splitlines())
             if line and not line.startswith("#")]
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
    return _read_rows(lines[1:], rows_as_vectors)


def parse_inline(text: str, rows_as_vectors: bool = False) -> Rows:
    """Parse an inline matrix, one row per ';'-separated part.

    Blank parts are skipped, so the dimension is the number of rows.
    Inline text has no comments: a part that starts with '#' is a bad
    row, and a part with a line break inside it is refused."""
    parts = [part for part in map(str.strip, text.split(";")) if part]
    if not parts:
        raise MatrixFormatError("empty inline matrix")
    # a part holds a line break only where the whole text splits into
    # lines, so the parts are searched only then
    if len(text.splitlines()) > 1:
        for part in parts:
            if len(part.splitlines()) > 1:
                raise MatrixFormatError(
                    f"inline row {part!r} holds a line break")
    return _read_rows(parts, rows_as_vectors)


def format_matrix(rows: Sequence[Sequence[int]] | BasisMatrix) -> str:
    """Render rows in the text format (re-parses to the same matrix)."""
    if isinstance(rows, BasisMatrix):
        rows = rows.rows
    lines = [str(len(rows))]
    lines += [" ".join(str(v) for v in row) for row in rows]
    return "\n".join(lines)
