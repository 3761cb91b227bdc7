"""Comma-separated tables of float cells: the one formatter of every CSV
output, of the CSV rows that noise-sweep, mech-response and fit-gm print, and
of the data rows of the two bundled tables that tools/generate_sample_data.py
writes.

Contract: each cell is written as repr(float(v)) of its value, byte for
byte, so a file is identical to one written by a per-cell repr loop.  Each
distinct magnitude (float64 bit pattern with the sign bit cleared) is
formatted only once per table and the rows are joined from those strings.
A negative cell gets "-" before its magnitude's text, since repr(-x) ==
"-" + repr(x) for every float64 that is not NaN, -0.0 and -inf included; so
-0.0 keeps its own text '-0.0', and every NaN, whatever its sign bit or
payload, prints as 'nan'.  A raster of an odd function (a phase, a sine)
holds each magnitude with both signs, so this formats about half as many
values as one repr per bit pattern would.

A table is turned into lines a block of at most _BLOCK_CELLS cells (whole
rows, at least one) at a time, so no whole-table array of indices, cell
strings or row lists is held.  A table of one block, such as every table a
preset writes but a raster, maps its cells onto their distinct magnitudes
with np.unique's inverse, which is faster there than the searchsorted of
larger tables: on a 2001 x 8 table, sending it through their path made
table.rows 5-24% slower in the median.  A larger one takes its sorted distinct magnitudes
from one in-place sort of a masked copy, freed before any text is made,
and maps each block onto them with searchsorted.  Exporting beam-sim's
n = 1024 grating intensity so traces a peak of 9.2 MiB, where formatting it
whole took 49.2 MiB.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

_MAGNITUDE = np.uint64(0x7FFF_FFFF_FFFF_FFFF)  # every bit but the sign bit
_BLOCK_CELLS = 65536  # cells formatted and joined at a time


def _formatted(mags: np.ndarray) -> np.ndarray:
    """repr of each float64 magnitude, given as its bits, in a str object array."""
    return np.array(list(map(repr, mags.view(np.float64).tolist())), dtype=object)


def _cells(block: np.ndarray, ids: np.ndarray, formatted: np.ndarray, text) -> np.ndarray:
    """The cells of a block of rows, as a str object array: the text of each
    cell's magnitude, formatted[ids], with "-" before it where the cell is
    negative, and the entry of `text` where that is not None."""
    cells = formatted[ids]
    negative = np.signbit(block) & ~np.isnan(block)
    if negative.any():
        # one signed string per distinct negative magnitude, as many as there
        # are negative bit patterns
        signed, which = np.unique(ids[negative], return_inverse=True)
        cells[negative] = ("-" + formatted[signed])[which]
    if text is not None:
        given = np.not_equal(text, None)
        cells[given] = text[given]
    return cells


def rows(columns, text=None) -> Iterator[str]:
    """Each row of equal-length columns as a CSV line without its newline.

    `columns` is a sequence of 1-D arrays, such as the transpose of a 2-D
    table, which is read as a view without a copy.  `text`, if given, is an
    object array of the table's (rows, columns) shape: an entry that is not
    None is written as it is, in place of its float cell.  A table of one
    block is formatted at the call, and each line joined when it is asked
    for.  In a larger one, every distinct magnitude is formatted at the
    call, and a block's cells when its first line is asked for (see the
    module docstring).
    """
    values = np.ascontiguousarray(np.transpose(columns), dtype=np.float64)
    mags = values.view(np.uint64) & _MAGNITUDE
    if values.size <= _BLOCK_CELLS:
        mags, inverse = np.unique(mags, return_inverse=True)
        cells = _cells(values, inverse.reshape(values.shape), _formatted(mags), text)
        del values, mags, inverse  # while the lines are joined, only their strings are kept
        return map(",".join, cells.tolist())
    mags = mags.reshape(-1)
    mags.sort()
    first = np.empty(len(mags), dtype=bool)
    first[0] = True
    np.not_equal(mags[1:], mags[:-1], out=first[1:])
    mags = mags[first]
    del first
    formatted = _formatted(mags)
    step = max(1, _BLOCK_CELLS // values.shape[1])  # rows per block

    def blocks() -> Iterator[str]:
        for r in range(0, len(values), step):
            block = values[r:r + step]
            ids = np.searchsorted(mags, block.view(np.uint64) & _MAGNITUDE)
            cells = _cells(block, ids, formatted, None if text is None else text[r:r + step])
            yield from map(",".join, cells.tolist())

    return blocks()


def write_table(path, header: str | None, columns, text=None) -> None:
    """Write rows(columns, text) to path, under `header` unless it is None."""
    lines = rows(columns, text)
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(header + "\n")
        fh.writelines(line + "\n" for line in lines)
