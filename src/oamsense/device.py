"""Tabulated mechanical-mode data for the torsional OAM sensor.

The physics modules consume effective single-mode parameters (frequency,
effective mass, effective lever arm, quality factor, optomechanical coupling)
of the suspended-pad / nanobeam structure.  Those parameters come from
finite-element sweeps or measurement, so here they are treated purely as
data: loaded from CSV, validated, and linearly interpolated along the
support length ``l_s``.

Datasets are immutable after loading; every record and the dataset itself
are frozen dataclasses, so concurrent readers need no synchronization.  A
record is one row of the file, with one field per column.  Interpolation
sorts a branch's records by l_s when called and evaluates a whole l_s grid
in one vectorised pass.

File format (UTF-8, comma separated, ``#`` starts a comment line)::

    l_s_um,w_h_um,l_h_um,branch,omega_m_hz,m_eff_kg,r_eff_m,q_m,g_om_hz_per_m

``omega_m_hz`` and ``g_om_hz_per_m`` are ordinary frequencies; the loader
multiplies them by 2*pi to obtain the angular quantities stored on records.
Leading comment lines are kept as the dataset's provenance note.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from typing import Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

#: Recognised mechanical branch labels.
BRANCHES = ("twist-like", "bounce-like", "hybrid-lower", "hybrid-upper", "see-saw")

HEADER = "l_s_um,w_h_um,l_h_um,branch,omega_m_hz,m_eff_kg,r_eff_m,q_m,g_om_hz_per_m"


class DatasetError(ValueError):
    """Raised for malformed dataset files or invariant violations."""


@dataclass(frozen=True)
class MechanicalModeRecord:
    """One mechanical branch at one geometry point: one row of a dataset file.

    The fields follow the file's columns.  l_s_um, w_h_um and l_h_um are the
    support length, hanger width and hanger length (um); omega_m is the
    angular mode frequency (rad/s), m_eff the effective mass (kg), r_eff the
    effective lever arm (m), q_m the mechanical quality factor, and g_om the
    optomechanical coupling (rad/s per metre of displacement).
    """

    l_s_um: float
    w_h_um: float
    l_h_um: float
    branch: str
    omega_m: float
    m_eff: float
    r_eff: float
    q_m: float
    g_om: float

    def __post_init__(self) -> None:
        for name in ("l_s_um", "w_h_um", "l_h_um"):
            if not getattr(self, name) > 0.0:
                raise DatasetError(f"geometry field {name} must be > 0")
        if self.branch not in BRANCHES:
            raise DatasetError(
                f"unknown branch {self.branch!r}; expected one of {', '.join(BRANCHES)}"
            )
        for name in ("omega_m", "m_eff", "r_eff", "q_m"):
            if not getattr(self, name) > 0.0:
                raise DatasetError(f"record field {name} must be > 0")
        if self.g_om < 0.0:
            raise DatasetError("record field g_om must be >= 0")


@dataclass(frozen=True)
class DeviceDataset:
    """Validated, immutable collection of mode records.

    Within each branch the l_s values are strictly increasing; that interval
    is the branch's interpolation domain.  The accessors below filter and
    sort `records` when called.
    """

    records: tuple[MechanicalModeRecord, ...]
    provenance: str = ""

    def __post_init__(self) -> None:
        for branch in self.branches():
            ls = [r.l_s_um for r in self.records_for(branch)]
            for a, b in zip(ls, ls[1:]):
                if not a < b:
                    raise DatasetError(
                        f"branch {branch!r}: l_s values must be strictly increasing "
                        f"(found {a} followed by {b})"
                    )

    def branches(self) -> tuple[str, ...]:
        return tuple(sorted({r.branch for r in self.records}))

    def records_for(self, branch: str) -> tuple[MechanicalModeRecord, ...]:
        """The branch's records, sorted by l_s."""
        recs = sorted((r for r in self.records if r.branch == branch), key=lambda r: r.l_s_um)
        if not recs:
            raise DatasetError(
                f"branch {branch!r} not present; dataset has {', '.join(self.branches())}"
            )
        return tuple(recs)

    def domain(self, branch: str) -> tuple[float, float]:
        recs = self.records_for(branch)
        return recs[0].l_s_um, recs[-1].l_s_um


def _parse_row(fields: Sequence[str], line_no: int) -> MechanicalModeRecord:
    if len(fields) != 9:
        raise DatasetError(f"line {line_no}: expected 9 columns, got {len(fields)}")
    try:
        l_s, w_h, l_h = (float(fields[i]) for i in range(3))
        branch = fields[3].strip()
        omega_hz, m_eff, r_eff, q_m, g_om_hz = (float(fields[i]) for i in range(4, 9))
    except ValueError as exc:
        raise DatasetError(f"line {line_no}: {exc}") from exc
    try:
        # the record's fields follow the file's columns
        return MechanicalModeRecord(l_s, w_h, l_h, branch, TWO_PI * omega_hz,
                                    m_eff, r_eff, q_m, TWO_PI * g_om_hz)
    except DatasetError as exc:
        raise DatasetError(f"line {line_no}: {exc}") from exc


def load_dataset(path) -> DeviceDataset:
    """Load and validate a dataset file.

    Raises DatasetError with the offending line number for malformed rows
    and non-positive values.  A repeated (branch, l_s) row is an error naming
    the file and the lines of both rows.  Rows may come in any order.
    """
    provenance_lines: list[str] = []
    header_seen = False
    records: list[MechanicalModeRecord] = []
    first_line: dict[tuple[str, float], int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if not header_seen:
                    provenance_lines.append(line.lstrip("#").strip())
                continue
            if not header_seen:
                if line != HEADER:
                    raise DatasetError(
                        f"line {line_no}: bad header; expected {HEADER!r}"
                    )
                header_seen = True
                continue
            record = _parse_row(line.split(","), line_no)
            key = (record.branch, record.l_s_um)
            if key in first_line:
                raise DatasetError(
                    f"{path}, line {line_no}: repeats the {record.branch} row at "
                    f"l_s = {record.l_s_um} um of line {first_line[key]}"
                )
            first_line[key] = line_no
            records.append(record)
    if not header_seen:
        raise DatasetError(f"{path}: empty file (no header row)")
    if not records:
        raise DatasetError(f"{path}: no data rows")
    return DeviceDataset(tuple(records), provenance="\n".join(provenance_lines))


CROSSING_HEADER = "w_h_um,l_s_um,f_minus_hz,f_plus_hz"


def load_crossings(path) -> dict[float, np.ndarray]:
    """Load a tuned mode-crossing table for coupling fits.

    File format: ``#`` comment lines, the header CROSSING_HEADER, then one
    row per point with the two hybrid-branch frequencies in ordinary Hz.
    Returns the rows grouped by w_h (um), in increasing w_h: for each, an
    array of (l_s_um, omega_minus, omega_plus) rows in file order, with the
    frequencies in rad/s.  A bad header or row raises DatasetError naming
    the file and line; a file without a header or without data rows raises
    it naming the file.
    """
    groups: dict[float, list[tuple[float, float, float]]] = {}
    header_seen = False
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                if line != CROSSING_HEADER:
                    raise DatasetError(
                        f"{path}, line {line_no}: bad header; expected {CROSSING_HEADER!r}"
                    )
                header_seen = True
                continue
            cells = line.split(",")
            try:
                if len(cells) != 4:
                    raise ValueError(f"expected 4 columns, found {len(cells)}")
                w_h, l_s, f_lo, f_hi = (float(v) for v in cells)
            except ValueError as exc:
                raise DatasetError(f"{path}, line {line_no}: {exc}") from exc
            groups.setdefault(w_h, []).append((l_s, TWO_PI * f_lo, TWO_PI * f_hi))
    if not header_seen:
        raise DatasetError(f"{path}: empty file (no header row)")
    if not groups:
        raise DatasetError(f"{path}: no data rows")
    return {w_h: np.asarray(groups[w_h]) for w_h in sorted(groups)}


def interpolate(
    dataset: DeviceDataset,
    branch: str,
    l_s_um: float,
    q_m_override: float | None = None,
) -> MechanicalModeRecord:
    """Piecewise-linear interpolation of one branch at support length l_s (um).

    The one-point case of interpolate_grid.
    """
    return interpolate_grid(dataset, branch, (l_s_um,), q_m_override)[0]


def interpolate_grid(
    dataset: DeviceDataset,
    branch: str,
    l_s_values,
    q_m_override: float | None = None,
) -> list[MechanicalModeRecord]:
    """Piecewise-linear interpolation of one branch at each l_s (um) of a grid.

    np.interp returns the tabulated value exactly at a knot, so a tabulated
    l_s reproduces its stored record.  q_m_override, when given, replaces the
    interpolated quality factor (run-time override).  A query outside the
    branch domain raises DatasetError naming the first such l_s.  Each field's
    column is built from the branch's records and interpolated over the whole
    grid by one np.interp call, which gives every point the bits a scalar
    query would.
    """
    recs = dataset.records_for(branch)
    lo, hi = recs[0].l_s_um, recs[-1].l_s_um
    grid = np.asarray(l_s_values, dtype=np.float64)
    outside = ~((lo <= grid) & (grid <= hi))
    if outside.any():
        l_s_um = grid[np.argmax(outside)].item()
        raise DatasetError(
            f"l_s = {l_s_um} um outside branch {branch!r} domain [{lo}, {hi}] um"
        )
    ls = np.array([r.l_s_um for r in recs])
    rows = [(r.w_h_um, r.l_h_um, r.omega_m, r.m_eff, r.r_eff, r.q_m, r.g_om) for r in recs]
    w_h, l_h, omega_m, m_eff, r_eff, q_m, g_om = (
        np.interp(grid, ls, column).tolist() for column in zip(*rows)
    )
    if q_m_override is not None:
        q_m = [q_m_override] * len(grid)
    return [
        MechanicalModeRecord(
            l_s_um=l_s_um,
            w_h_um=w_h[k],
            l_h_um=l_h[k],
            branch=branch,
            omega_m=omega_m[k],
            m_eff=m_eff[k],
            r_eff=r_eff[k],
            q_m=q_m[k],
            g_om=g_om[k],
        )
        for k, l_s_um in enumerate(grid.tolist())
    ]


def sample_dataset_path():
    """Path of the bundled illustrative device dataset."""
    return resources.files("oamsense").joinpath("data/sample_device.csv")


def load_sample_dataset() -> DeviceDataset:
    return load_dataset(sample_dataset_path())


def sample_anticrossing_path():
    """Path of the bundled synthetic mode-crossing table (for coupling fits)."""
    return resources.files("oamsense").joinpath("data/sample_anticrossing.csv")
