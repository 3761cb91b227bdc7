"""Tabulated mechanical-mode data for the torsional OAM sensor.

The physics modules consume effective single-mode parameters (frequency,
effective mass, effective lever arm, quality factor, optomechanical coupling)
of the suspended-pad / nanobeam structure.  Those parameters come from
finite-element sweeps or measurement, so here they are treated purely as
data: loaded from CSV, validated, and linearly interpolated along the
support length ``l_s``.

Datasets are immutable after loading; every record and the dataset itself
are frozen dataclasses, so concurrent readers need no synchronization.
Each branch's table (its records sorted by l_s, the l_s array and one
float64 column per interpolated field) is built once, when the dataset is
created; interpolation reads those columns and evaluates a whole l_s grid
in one vectorised pass.

File format (UTF-8, comma separated, ``#`` starts a comment line)::

    l_s_um,w_h_um,l_h_um,branch,omega_m_hz,m_eff_kg,r_eff_m,q_m,g_om_hz_per_m

``omega_m_hz`` and ``g_om_hz_per_m`` are ordinary frequencies; the loader
multiplies them by 2*pi to obtain the angular quantities stored on records.
Leading comment lines are kept as the dataset's provenance note.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, NamedTuple, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

#: Recognised mechanical branch labels.
BRANCHES = ("twist-like", "bounce-like", "hybrid-lower", "hybrid-upper", "see-saw")

HEADER = "l_s_um,w_h_um,l_h_um,branch,omega_m_hz,m_eff_kg,r_eff_m,q_m,g_om_hz_per_m"


class DatasetError(ValueError):
    """Raised for malformed dataset files or invariant violations."""


@dataclass(frozen=True)
class DeviceGeometry:
    """Geometric parameters of one device variant: the support length, hanger
    width and hanger length, in micrometres (the dataset's geometry columns).
    """

    l_s_um: float
    w_h_um: float
    l_h_um: float

    def __post_init__(self) -> None:
        for name in ("l_s_um", "w_h_um", "l_h_um"):
            if not getattr(self, name) > 0.0:
                raise DatasetError(f"geometry field {name} must be > 0")


@dataclass(frozen=True)
class MechanicalModeRecord:
    """One mechanical branch at one geometry point.

    omega_m is the angular mode frequency (rad/s), m_eff the effective mass
    (kg), r_eff the effective lever arm (m), q_m the mechanical quality
    factor, and g_om the optomechanical coupling (rad/s per metre of
    displacement).
    """

    geometry: DeviceGeometry
    branch: str
    omega_m: float
    m_eff: float
    r_eff: float
    q_m: float
    g_om: float

    def __post_init__(self) -> None:
        if self.branch not in BRANCHES:
            raise DatasetError(
                f"unknown branch {self.branch!r}; expected one of {', '.join(BRANCHES)}"
            )
        for name in ("omega_m", "m_eff", "r_eff", "q_m"):
            if not getattr(self, name) > 0.0:
                raise DatasetError(f"record field {name} must be > 0")
        if self.g_om < 0.0:
            raise DatasetError("record field g_om must be >= 0")


class _BranchTable(NamedTuple):
    """One branch's records sorted by l_s, their l_s values, and one float64
    column per interpolated field: w_h_um, l_h_um, omega_m, m_eff, r_eff,
    q_m and g_om, in that order."""

    records: tuple[MechanicalModeRecord, ...]
    l_s: np.ndarray
    columns: tuple[np.ndarray, ...]


def _branch_table(branch: str, records: Iterable[MechanicalModeRecord]) -> _BranchTable:
    recs = tuple(sorted(records, key=lambda r: r.geometry.l_s_um))
    ls = [r.geometry.l_s_um for r in recs]
    for a, b in zip(ls, ls[1:]):
        if not a < b:
            raise DatasetError(
                f"branch {branch!r}: l_s values must be strictly increasing "
                f"(found {a} followed by {b})"
            )
    rows = [(r.geometry.w_h_um, r.geometry.l_h_um, r.omega_m, r.m_eff, r.r_eff, r.q_m, r.g_om)
            for r in recs]
    columns = tuple(np.array(column, dtype=np.float64) for column in zip(*rows))
    return _BranchTable(recs, np.array(ls, dtype=np.float64), columns)


@dataclass(frozen=True)
class DeviceDataset:
    """Validated, immutable collection of mode records.

    Records are kept sorted by (l_s, branch).  Within each branch the l_s
    values are strictly increasing; that interval is the branch's
    interpolation domain.  The per-branch tables are built on creation and
    take no part in equality or repr.
    """

    records: tuple[MechanicalModeRecord, ...]
    provenance: str = ""
    _tables: dict[str, _BranchTable] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        tables = {
            branch: _branch_table(branch, (r for r in self.records if r.branch == branch))
            for branch in sorted({r.branch for r in self.records})
        }
        object.__setattr__(self, "_tables", tables)

    @classmethod
    def from_records(
        cls, records: Iterable[MechanicalModeRecord], provenance: str = ""
    ) -> "DeviceDataset":
        ordered = tuple(sorted(records, key=lambda r: (r.geometry.l_s_um, r.branch)))
        return cls(records=ordered, provenance=provenance)

    def branches(self) -> tuple[str, ...]:
        return tuple(self._tables)

    def _table(self, branch: str) -> _BranchTable:
        try:
            return self._tables[branch]
        except KeyError:
            raise DatasetError(
                f"branch {branch!r} not present; dataset has {', '.join(self.branches())}"
            ) from None

    def records_for(self, branch: str) -> tuple[MechanicalModeRecord, ...]:
        return self._table(branch).records

    def domain(self, branch: str) -> tuple[float, float]:
        recs = self.records_for(branch)
        return recs[0].geometry.l_s_um, recs[-1].geometry.l_s_um


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
        geometry = DeviceGeometry(l_s_um=l_s, w_h_um=w_h, l_h_um=l_h)
        return MechanicalModeRecord(
            geometry=geometry,
            branch=branch,
            omega_m=TWO_PI * omega_hz,
            m_eff=m_eff,
            r_eff=r_eff,
            q_m=q_m,
            g_om=TWO_PI * g_om_hz,
        )
    except DatasetError as exc:
        raise DatasetError(f"line {line_no}: {exc}") from exc


def load_dataset(path) -> DeviceDataset:
    """Load and validate a dataset file.

    Raises DatasetError with the offending line number for malformed rows,
    non-positive values, duplicate keys or non-monotone l_s.
    """
    provenance_lines: list[str] = []
    header_seen = False
    records: list[MechanicalModeRecord] = []
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
            records.append(_parse_row(line.split(","), line_no))
    if not header_seen:
        raise DatasetError(f"{path}: empty file (no header row)")
    if not records:
        raise DatasetError(f"{path}: no data rows")
    return DeviceDataset.from_records(records, provenance="\n".join(provenance_lines))


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
    branch domain raises DatasetError naming the first such l_s.  Each column
    is interpolated over the whole grid by one np.interp call, which gives
    every point the bits a scalar query would.
    """
    table = dataset._table(branch)
    recs, ls = table.records, table.l_s
    lo, hi = recs[0].geometry.l_s_um, recs[-1].geometry.l_s_um
    grid = np.asarray(l_s_values, dtype=np.float64)
    outside = ~((lo <= grid) & (grid <= hi))
    if outside.any():
        l_s_um = grid[np.argmax(outside)].item()
        raise DatasetError(
            f"l_s = {l_s_um} um outside branch {branch!r} domain [{lo}, {hi}] um"
        )
    w_h, l_h, omega_m, m_eff, r_eff, q_m, g_om = (
        np.interp(grid, ls, column).tolist() for column in table.columns
    )
    if q_m_override is not None:
        q_m = [q_m_override] * len(grid)
    return [
        MechanicalModeRecord(
            geometry=DeviceGeometry(l_s_um=l_s_um, w_h_um=w_h[k], l_h_um=l_h[k]),
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
