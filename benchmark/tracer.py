"""Outside-in span tracer for the benchmark's traced runs.

The program is not edited: `Tracer.install` replaces chosen module-level
functions of `oamsense` with wrappers that record a span per call.  Calls
between the program's own functions go through module globals or module
attributes, so nested calls (for example `conversion_metrics` -> `make_lg`)
are wrapped too and each span knows its parent.

Spans are kept in memory as ``[name, start, end, parent, extras]`` lists and
written out once, when the run ends.  Self time is derived afterwards as a
span's duration minus the part of it that its direct children cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time


def result_pixels(args, kwargs, result, fn):
    """Pixels computed: n^2 of a returned field or mask."""
    n = getattr(result, "n", None)
    return {"pixels": n * n if n is not None else int(result.size)}


def written_bytes(args, kwargs, result, fn):
    """Size of the file a writer just produced (its `path` argument)."""
    path = inspect.signature(fn).bind(*args, **kwargs).arguments["path"]
    return {"bytes": os.path.getsize(path)}


class Tracer:
    """Records one span per call of each installed function."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None):
        """Return `fn` wrapped so each call appends a span named `name`.

        `count(args, kwargs, result, fn)` may return exact per-call counts
        (pixels, bytes), stored as the span's extras.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result, fn)
            return result

        return traced

    def install(self, targets) -> None:
        """Wrap each ``(module, attribute, count)`` target in place."""
        for module, attr, count in targets:
            original = getattr(module, attr)
            name = f"{module.__name__.rpartition('.')[2]}.{attr}"
            setattr(module, attr, self.wrap(name, original, count))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        """Write all spans, one JSON list per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans, offset: int = 0) -> list[float]:
    """Duration minus child coverage, for each span.

    `spans` may be a slice of a longer list whose parents are indices into
    that list; `offset` is the slice's start.  Children are clipped to their
    parent and merged, so overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span[3] - offset
        if parent >= 0:
            children.setdefault(parent, []).append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def summarize(spans, offset: int = 0) -> dict[str, dict[str, float]]:
    """Per function name: calls, self_s, total_s and summed extras.

    Spans whose parent lies before `offset` are treated as roots.  A
    `<name>.under.<ancestor>` count records calls made beneath each other
    traced function, e.g. `make_lg` calls made inside `conversion_metrics`.
    """
    selfs = self_times(spans, offset)
    out: dict[str, dict[str, float]] = {}
    for i, span in enumerate(spans):
        name, start, end, _, extras = span
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        row["total_s"] += end - start
        for key, value in (extras or {}).items():
            row[key] = row.get(key, 0) + value
        seen = set()
        parent = span[3] - offset
        while parent >= 0:
            ancestor = spans[parent][0]
            if ancestor not in seen:
                seen.add(ancestor)
                key = f"under.{ancestor}"
                row[key] = row.get(key, 0) + 1
            parent = spans[parent][3] - offset
    return out
