"""Comma-separated tables of float cells: the one writer of every CSV output.

Contract: each cell is written as repr(float(v)) of its value, byte for
byte, so a file is identical to one written by a per-cell repr loop.  Each
distinct float64 bit pattern is formatted only once and the rows are joined
from those strings.  Bit patterns, not values, are deduplicated, so -0.0
keeps its own text; every NaN prints as 'nan'.
"""

from __future__ import annotations

import numpy as np


def format_cells(values) -> np.ndarray:
    """repr(float(v)) of every cell of `values`, as a str object array of its shape."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return text[inverse.reshape(values.shape)]


def write_table(path, header: str | None, columns, blank=None) -> None:
    """Write equal-length columns as CSV rows, under `header` unless it is None.

    `columns` is a sequence of 1-D arrays, such as the transpose of a 2-D
    table, which is read as a view without a copy.  `blank`, if given, is a
    boolean mask of the table's (rows, columns) shape marking the cells left
    empty.
    """
    cells = format_cells(np.transpose(columns))
    if blank is not None:
        cells[blank] = ""
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(header + "\n")
        fh.writelines(",".join(row) + "\n" for row in cells.tolist())
