"""Comma-separated tables of float cells: the one formatter of every CSV
output, of the CSV rows that noise-sweep, mech-response and fit-gm print, and
of the data rows of the two bundled tables that tools/generate_sample_data.py
writes.

Contract: each cell is written as repr(float(v)) of its value, byte for
byte, so a file is identical to one written by a per-cell repr loop.  Each
distinct magnitude (float64 bit pattern with the sign bit cleared) is
formatted only once and the rows are joined from those strings.  A negative
cell gets "-" before its magnitude's text, since repr(-x) == "-" + repr(x)
for every float64 that is not NaN, -0.0 and -inf included; so -0.0 keeps
its own text '-0.0', and every NaN, whatever its sign bit or payload,
prints as 'nan'.  A raster of an odd function (a phase, a sine) holds each
magnitude with both signs, so this formats about half as many values as
one repr per bit pattern would.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

_MAGNITUDE = np.uint64(0x7FFF_FFFF_FFFF_FFFF)  # every bit but the sign bit


def format_cells(values) -> np.ndarray:
    """repr(float(v)) of every cell of `values`, as a str object array of its shape."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    mags, inverse = np.unique(values.view(np.uint64) & _MAGNITUDE, return_inverse=True)
    text = np.array(list(map(repr, mags.view(np.float64).tolist())), dtype=object)
    inverse = inverse.reshape(values.shape)
    cells = text[inverse]
    negative = np.signbit(values) & ~np.isnan(values)
    if negative.any():
        # one signed string per distinct negative magnitude, as many as there
        # are negative bit patterns
        ids, which = np.unique(inverse[negative], return_inverse=True)
        cells[negative] = ("-" + text[ids])[which]
    return cells


def rows(columns, text=None) -> Iterator[str]:
    """Each row of equal-length columns as a CSV line without its newline.

    `columns` is a sequence of 1-D arrays, such as the transpose of a 2-D
    table, which is read as a view without a copy.  `text`, if given, is an
    object array of the table's (rows, columns) shape: an entry that is not
    None is written as it is, in place of its float cell.  Every cell is
    formatted at the call; each line is joined when it is asked for.
    """
    cells = format_cells(np.transpose(columns))
    if text is not None:
        given = np.not_equal(text, None)
        cells[given] = text[given]
    return (",".join(row) for row in cells.tolist())


def write_table(path, header: str | None, columns, text=None) -> None:
    """Write rows(columns, text) to path, under `header` unless it is None."""
    lines = rows(columns, text)
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(header + "\n")
        fh.writelines(line + "\n" for line in lines)
