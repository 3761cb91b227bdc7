"""Tabulated mechanical-mode data for the torsional OAM sensor.

The physics modules consume effective single-mode parameters (frequency,
effective mass, effective lever arm, quality factor, optomechanical coupling)
of the suspended-pad / nanobeam structure.  Those parameters come from
finite-element sweeps or measurement, so here they are treated purely as
data: loaded from CSV, validated, and linearly interpolated along the
support length ``l_s``.

A mode has one shape, a MODE_DTYPE record, read by field name: a dataset is
a read-only array of them, checked and sorted by (branch, l_s) once when it
is built, so concurrent readers need no synchronization; an interpolated
grid is an array of them, evaluated in one vectorised pass over a branch's
knot columns, and one point is a single record.

File format of both tables: UTF-8, comma separated, blank lines skipped,
``#`` starting a comment line; the header row, then one row per point.  The
mode dataset (load_dataset) has the header HEADER, the tuned-crossing table
(load_crossings) CROSSING_HEADER::

    l_s_um,w_h_um,l_h_um,branch,omega_m_hz,m_eff_kg,r_eff_m,q_m,g_om_hz_per_m
    w_h_um,l_s_um,f_minus_hz,f_plus_hz

Every cell but ``branch`` is a finite number; the ``*_hz`` columns are
ordinary frequencies, which the loaders multiply by 2*pi.  Comment lines
before the header are the dataset's provenance note.  A fault raises
DatasetError as ``"{path}, line N: ..."``, naming the column of a bad cell,
or as ``"{path}: ..."`` for a file that is unreadable as UTF-8 or has no
header row or no data rows.
"""

from __future__ import annotations

import math
from importlib import resources

import numpy as np

TWO_PI = 2.0 * math.pi

#: Recognised mechanical branch labels.
BRANCHES = ("twist-like", "bounce-like", "hybrid-lower", "hybrid-upper")

HEADER = "l_s_um,w_h_um,l_h_um,branch,omega_m_hz,m_eff_kg,r_eff_m,q_m,g_om_hz_per_m"
CROSSING_HEADER = "w_h_um,l_s_um,f_minus_hz,f_plus_hz"

#: One mechanical branch at one geometry point; the fields follow the file's
#: columns.  l_s_um, w_h_um and l_h_um are the support length, hanger width
#: and hanger length (um); omega_m is the angular mode frequency (rad/s),
#: m_eff the effective mass (kg), r_eff the effective lever arm (m), q_m the
#: mechanical quality factor, and g_om the optomechanical coupling (rad/s per
#: metre of displacement).  The branch field is one character wider than the
#: longest label, so a longer label is cut to one that no check accepts.
MODE_DTYPE = np.dtype([
    ("l_s_um", np.float64), ("w_h_um", np.float64), ("l_h_um", np.float64),
    ("branch", f"U{max(map(len, BRANCHES)) + 1}"),
    ("omega_m", np.float64), ("m_eff", np.float64), ("r_eff", np.float64),
    ("q_m", np.float64), ("g_om", np.float64),
])


class DatasetError(ValueError):
    """Raised for malformed dataset files or invariant violations."""


def _row_fault(row: tuple) -> str | None:
    """The first invariant a row (Python values in MODE_DTYPE order) breaks, or None."""
    l_s, w_h, l_h, branch, omega_m, m_eff, r_eff, q_m, g_om = row
    for name, value in (("l_s_um", l_s), ("w_h_um", w_h), ("l_h_um", l_h)):
        if not value > 0.0:
            return f"geometry field {name} must be > 0"
    if branch not in BRANCHES:
        return f"unknown branch {branch!r}; expected one of {', '.join(BRANCHES)}"
    for name, value in (("omega_m", omega_m), ("m_eff", m_eff), ("r_eff", r_eff),
                        ("q_m", q_m)):
        if not value > 0.0:
            return f"record field {name} must be > 0"
    if not g_om >= 0.0:
        return "record field g_om must be >= 0"
    if math.inf in row:  # the one non-finite value the checks above let through
        return f"field {MODE_DTYPE.names[row.index(math.inf)]} must be finite"
    return None


class DeviceDataset:
    """Validated, immutable table of modes: one read-only MODE_DTYPE array.

    `records` may be any sequence of MODE_DTYPE rows.  Construction checks
    the rows in order and raises DatasetError for the first fault of the
    first faulty row, then sorts them by (branch, l_s) once, so each branch
    is a contiguous slice of `records`.  Within a branch the l_s values must
    be strictly increasing; that interval is the branch's interpolation
    domain.
    """

    def __init__(self, records, provenance: str = "") -> None:
        rows = np.array(records, dtype=MODE_DTYPE).reshape(-1)
        fault = next(filter(None, map(_row_fault, rows.tolist())), None)
        if fault is not None:
            raise DatasetError(fault)
        rows = rows[np.lexsort((rows["l_s_um"], rows["branch"]))]
        rows.flags.writeable = False
        names, starts = np.unique(rows["branch"], return_index=True)
        ends = [*starts[1:].tolist(), len(rows)]
        self._by_branch: dict[str, np.ndarray] = {}
        for branch, start, end in zip(names.tolist(), starts.tolist(), ends):
            ls = rows["l_s_um"][start:end].tolist()
            for a, b in zip(ls, ls[1:]):
                if not a < b:
                    raise DatasetError(
                        f"branch {branch!r}: l_s values must be strictly increasing "
                        f"(found {a} followed by {b})"
                    )
            self._by_branch[branch] = rows[start:end]
        self.records = rows
        self.provenance = provenance

    def branches(self) -> tuple[str, ...]:
        return tuple(self._by_branch)

    def records_for(self, branch: str) -> np.ndarray:
        """The branch's rows, sorted by l_s: a read-only slice of `records`."""
        rows = self._by_branch.get(branch)
        if rows is None:
            raise DatasetError(
                f"branch {branch!r} not present; dataset has {', '.join(self.branches())}"
            )
        return rows

    def domain(self, branch: str) -> tuple[float, float]:
        ls = self.records_for(branch)["l_s_um"]
        return ls[0].item(), ls[-1].item()


def _read_table(path, header: str,
                text: tuple[str, ...] = ()) -> tuple[str, list[tuple[int, list]]]:
    """Read a table file: its provenance note and (line number, cells) per data row.

    The note joins the comment lines before the header, without their ``#``.
    Each row has one cell per column of `header`: a str for the `text`
    columns, a finite float for every other.  Raises DatasetError for every
    fault of the file, as the module docstring states.
    """
    columns = header.split(",")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:  # OSError: missing, or a directory
        raise DatasetError(f"{path}: {exc}") from None
    notes: list[str] = []
    header_seen = False
    rows: list[tuple[int, list]] = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line.startswith("#") and not header_seen:
            notes.append(line.lstrip("#").strip())
        if not line or line.startswith("#"):
            continue
        where = f"{path}, line {line_no}"
        if not header_seen:
            if line != header:
                raise DatasetError(f"{where}: bad header; expected {header!r}")
            header_seen = True
            continue
        cells = line.split(",")
        if len(cells) != len(columns):
            raise DatasetError(f"{where}: expected {len(columns)} columns, found {len(cells)}")
        for k, (name, cell) in enumerate(zip(columns, cells)):
            if name in text:
                cells[k] = cell.strip()
                continue
            try:
                cells[k] = float(cell)
            except ValueError:
                cells[k] = math.nan  # not a number: the same fault as nan or inf
            if not math.isfinite(cells[k]):
                raise DatasetError(f"{where}: {name} = {cell.strip()!r} is not a finite number")
        rows.append((line_no, cells))
    if not header_seen:
        raise DatasetError(f"{path}: empty file (no header row)")
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    return "\n".join(notes), rows


def load_dataset(path) -> DeviceDataset:
    """Load and validate a dataset file; its rows may come in any order.

    Beyond the format, a row that breaks a DeviceDataset invariant, or
    repeats the (branch, l_s) of an earlier row, raises DatasetError naming
    the file and its line (and the earlier row's).
    """
    provenance, rows = _read_table(path, HEADER, text=("branch",))
    records: list[tuple] = []
    first_line: dict[tuple[str, float], int] = {}
    for line_no, (l_s, w_h, l_h, branch, omega_hz, m_eff, r_eff, q_m, g_om_hz) in rows:
        row = (l_s, w_h, l_h, branch, TWO_PI * omega_hz, m_eff, r_eff, q_m, TWO_PI * g_om_hz)
        fault = _row_fault(row)
        if fault is None and (branch, l_s) in first_line:
            fault = (f"repeats the {branch} row at l_s = {l_s} um "
                     f"of line {first_line[branch, l_s]}")
        if fault is not None:
            raise DatasetError(f"{path}, line {line_no}: {fault}")
        first_line[branch, l_s] = line_no
        records.append(row)
    return DeviceDataset(records, provenance=provenance)


def load_crossings(path) -> dict[float, np.ndarray]:
    """Load a tuned mode-crossing table (header CROSSING_HEADER) for coupling fits.

    Each row holds the two hybrid-branch frequencies in ordinary Hz.
    Returns the rows grouped by w_h (um), in increasing w_h: for each, an
    array of (l_s_um, omega_minus, omega_plus) rows in file order, with the
    frequencies in rad/s.
    """
    groups: dict[float, list[tuple[float, float, float]]] = {}
    for _, (w_h, l_s, f_lo, f_hi) in _read_table(path, CROSSING_HEADER)[1]:
        groups.setdefault(w_h, []).append((l_s, TWO_PI * f_lo, TWO_PI * f_hi))
    return {w_h: np.asarray(groups[w_h]) for w_h in sorted(groups)}


def interpolate(
    dataset: DeviceDataset,
    branch: str,
    l_s_um: float,
    q_m_override: float | None = None,
) -> np.void:
    """Piecewise-linear interpolation of one branch at support length l_s (um).

    The one-point case of interpolate_grid: its single MODE_DTYPE record.
    """
    return interpolate_grid(dataset, branch, (l_s_um,), q_m_override)[0]


def interpolate_grid(
    dataset: DeviceDataset,
    branch: str,
    l_s_values,
    q_m_override: float | None = None,
) -> np.ndarray:
    """Piecewise-linear interpolation of one branch at each l_s (um) of a grid.

    Returns a MODE_DTYPE array with one record per l_s: modes["omega_m"] is
    a column, modes[k] one point, and noise.budget takes the whole array.
    Each float field is interpolated over the whole grid by one np.interp
    call on the branch's knot columns, read straight from the dataset's
    table; that gives every point the bits a scalar query would, and since
    np.interp returns the tabulated value exactly at a knot, a tabulated l_s
    reproduces its stored record.  q_m_override, when given, replaces the
    interpolated quality factor (run-time override) and must be > 0.  A
    query outside the branch domain raises DatasetError naming the first
    such l_s.  The points are not validated one by one: between validated
    knots the interpolated values keep the knots' signs.
    """
    knots = dataset.records_for(branch)
    ls = knots["l_s_um"]
    lo, hi = ls[0].item(), ls[-1].item()
    grid = np.asarray(l_s_values, dtype=np.float64)
    outside = ~((lo <= grid) & (grid <= hi))
    if outside.any():
        l_s_um = grid[np.argmax(outside)].item()
        raise DatasetError(
            f"l_s = {l_s_um} um outside branch {branch!r} domain [{lo}, {hi}] um"
        )
    if q_m_override is not None and not q_m_override > 0.0:
        raise DatasetError("record field q_m must be > 0")
    modes = np.empty(grid.shape, dtype=MODE_DTYPE)
    modes["l_s_um"] = grid
    modes["branch"] = branch
    for name in ("w_h_um", "l_h_um", "omega_m", "m_eff", "r_eff", "q_m", "g_om"):
        modes[name] = np.interp(grid, ls, knots[name])
    if q_m_override is not None:
        modes["q_m"] = q_m_override
    return modes


def sample_dataset_path():
    """Path of the bundled illustrative device dataset."""
    return resources.files("oamsense").joinpath("data/sample_device.csv")


def load_sample_dataset() -> DeviceDataset:
    return load_dataset(sample_dataset_path())


def sample_anticrossing_path():
    """Path of the bundled synthetic mode-crossing table (for coupling fits)."""
    return resources.files("oamsense").joinpath("data/sample_anticrossing.csv")
