"""Traced memory of one call, for the tests that bound a function's
temporaries."""

from __future__ import annotations

import tracemalloc


def traced_peak(fn, *args, **kwargs):
    """(peak, result): the peak of tracemalloc's traced memory, in bytes,
    while fn(*args, **kwargs) ran, and what it returned.

    Only allocations made during the call count; numpy reports its array
    buffers to tracemalloc, so the peak is that of the call's arrays.
    """
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, result
