"""Output checks for each benchmark job.

`check(job, rc, stdout, result)` returns the job's headline numbers and a
list of problems; a job with any problem counts as failed.  Every job is
checked for:

* exit code 0 and every expected output file, with the expected shape
  (n x n rasters, one row per grid point);
* finite values throughout;
* physics invariants: 0 < F <= 1, 0 <= t_swg <= 1, eta = F * t_swg, the
  dominant azimuthal order equals the target l, tau_min > 0 and equal to the
  quadrature sum of its four terms, and a finite fit-gm residual.

`compare_reference` matches headline numbers against values recorded from
the program at the default seed (see record_reference.py).
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

#: Relative tolerance for headline numbers printed or written at full precision.
REF_REL_TOL = 1e-6


def ref_abs_tol(kind: str, key: str) -> float:
    """Absolute tolerance of one headline number printed rounded.

    The CLI prints beam-sim's fidelities, t_swg and eta to 4 decimals and
    its azimuthal order fractions to 6.  A difference of one unit in the
    last printed digit passes and one of two units fails; the half unit of
    slack absorbs float error in the difference.  Every other headline is
    held to `REF_REL_TOL` alone."""
    if kind != "beam-sim":
        return 0.0
    return 1.5e-6 if key.startswith("order_") else 1.5e-4

BUDGET_COLUMNS = 8
LAYOUT_HEADER = "x_m,y_m,diameter_nm,phase_rad,amplitude"
RESPONSE_HEADER = "omega_hz,abs_x1_m,arg_x1_rad,abs_x2_m,arg_x2_rad"
GM_HEADER = "w_h_um,g_m_hz,residual"
SWG_DIAMETERS_NM = tuple(float(d) for d in range(110, 211, 10))


class CheckFailed(Exception):
    """An output is missing, malformed or violates an invariant."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _table(path: Path, header: str | None, columns: int, rows: int | None) -> np.ndarray:
    """Read a CSV table with a header line; blank cells read as NaN."""
    _require(path.is_file(), f"{path.name}: missing")
    lines = path.read_text(encoding="utf-8").splitlines()
    _require(len(lines) >= 2, f"{path.name}: no data rows")
    if header is not None:
        _require(lines[0] == header, f"{path.name}: bad header {lines[0]!r}")
    body = lines[1:]
    if rows is not None:
        _require(len(body) == rows, f"{path.name}: {len(body)} rows, expected {rows}")
    data = np.empty((len(body), columns))
    for i, line in enumerate(body):
        cells = line.split(",")
        _require(len(cells) == columns, f"{path.name}: row {i + 1} has {len(cells)} cells")
        try:
            data[i] = [float(c) if c else math.nan for c in cells]
        except ValueError as exc:
            raise CheckFailed(f"{path.name}: row {i + 1}: {exc}") from None
    return data


def _finite(path: Path, values: np.ndarray) -> None:
    _require(bool(np.all(np.isfinite(values))), f"{path.name}: non-finite values")


def _raster(path: Path, n: int, lo: float, hi: float) -> None:
    """An n x n comma-separated matrix of finite values in [lo, hi].

    Parsed row by row, so checking adds little to the run's peak memory.
    """
    _require(path.is_file(), f"{path.name}: missing")
    rows = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rows += 1
            cells = line.split(",")
            _require(len(cells) == n, f"{path.name}: row {rows} has {len(cells)} cells")
            try:
                row = np.array(cells, dtype=float)
            except ValueError as exc:
                raise CheckFailed(f"{path.name}: row {rows}: {exc}") from None
            _require(bool(np.all(np.isfinite(row))), f"{path.name}: row {rows} not finite")
            _require(bool(np.all((row >= lo) & (row <= hi))),
                     f"{path.name}: row {rows} outside [{lo}, {hi}]")
    _require(rows == n, f"{path.name}: {rows} rows, expected {n}")


def _conversion(f: float, f_fixed: float, t: float, eta: float, eta_tol: float) -> None:
    _require(all(math.isfinite(v) for v in (f, f_fixed, t, eta)), "non-finite metrics")
    _require(0.0 < f <= 1.0 and 0.0 < f_fixed <= 1.0, f"fidelity {f}, {f_fixed} not in (0, 1]")
    _require(0.0 <= t <= 1.0, f"t_swg {t} not in [0, 1]")
    _require(abs(eta - f * t) <= eta_tol, f"eta {eta} != F * t_swg = {f * t}")


def _beam_sim(job, stdout: str, result) -> dict:
    def number(label: str) -> float:
        m = re.search(rf"^{label} = (\S+)", stdout, re.MULTILINE)
        _require(m is not None, f"stdout lacks {label}")
        return float(m.group(1))

    f, f_fixed, t, eta = (number(k) for k in ("fidelity_opt", "fidelity_fixed_waist",
                                              "t_swg", "eta"))
    # each printed to 4 decimals: F * t and eta differ by at most 1.5e-4
    _conversion(f, f_fixed, t, eta, eta_tol=2e-4)
    spectrum = {int(l): float(frac) for l, frac in
                re.findall(r"^(-?\d+),([0-9.eE+-]+)$", stdout, re.MULTILINE)}
    _require(len(spectrum) == 7, f"spectrum has {len(spectrum)} orders, expected 7")
    _require(all(0.0 <= v <= 1.0 for v in spectrum.values()), "spectrum outside [0, 1]")
    dominant = max(spectrum, key=spectrum.get)
    target = job.params["target_l"]
    _require(dominant == target, f"dominant order {dominant}, target {target}")
    n = job.params["n"]
    for name in ("intensity_swg.csv", "intensity_target.csv"):
        _raster(job.out / name, n, 0.0, math.inf)
    for name in ("phase_swg.csv", "phase_target.csv"):
        _raster(job.out / name, n, -math.pi, math.pi)
    return {"fidelity": f, "fidelity_fixed_waist": f_fixed, "t_swg": t, "eta": eta,
            **{f"order_{l}": v for l, v in sorted(spectrum.items())}}


def _lambda_scan(job, stdout: str, result) -> dict:
    p = job.params
    _require(len(result) == len(p["lambdas"]), "one result per wavelength expected")
    lo, hi = max(0.3 * p["w0"], 4.0 * p["pitch"]), 3.0 * p["w0"]
    headline = {}
    for i, ((lam, m), lam_in) in enumerate(zip(result, p["lambdas"])):
        _require(lam == lam_in, f"wavelength {i} is {lam}, expected {lam_in}")
        _conversion(m.fidelity, m.fidelity_fixed_waist, m.t_swg, m.eta, eta_tol=0.0)
        _require(lo <= m.w0_opt <= hi, f"w0_opt {m.w0_opt} outside [{lo}, {hi}]")
        headline.update({f"fidelity_{i}": m.fidelity, f"eta_{i}": m.eta,
                         f"w0_opt_{i}": m.w0_opt})
    return headline


def _budget(path: Path, rows: int, pulsed: bool) -> np.ndarray:
    data = _table(path, None, BUDGET_COLUMNS, rows)
    _finite(path, data[:, :7] if not pulsed else data)
    terms, tau_min = data[:, 1:5], data[:, 5]
    _require(bool(np.all(terms >= 0.0)), f"{path.name}: negative noise term")
    _require(bool(np.all(tau_min > 0.0)), f"{path.name}: tau_min not > 0")
    quad = np.sqrt(np.sum(terms**2, axis=1))
    _require(bool(np.allclose(tau_min, quad, rtol=1e-9, atol=0.0)),
             f"{path.name}: tau_min is not the quadrature sum of its terms")
    if pulsed:
        _require(bool(np.all(data[:, 7] > 0.0)), f"{path.name}: n_min not > 0")
    else:
        _require(bool(np.all(np.isnan(data[:, 7]))), f"{path.name}: CW n_min not blank")
    return data


def _noise_sweep(job, stdout: str, result) -> dict:
    path = job.out / "noise_sweep.csv"
    data = _budget(path, job.params["rows"], pulsed=False)
    _require(bool(np.all(np.diff(data[:, 0]) > 0.0)), f"{path.name}: l_s not increasing")
    best = int(np.argmin(data[:, 5]))
    return {"l_s_opt_um": float(data[best, 0]), "tau_min_opt": float(data[best, 5])}


def _pulse_budget(job, stdout: str, result) -> dict:
    ls = _budget(job.out / "pulse_ls_sweep.csv", job.params["rows"], pulsed=True)
    ncav = _budget(job.out / "pulse_ncav_sweep.csv", job.params["ncav_rows"], pulsed=True)
    return {"n_min_ls": float(np.min(ls[:, 7])), "n_min_ncav": float(np.min(ncav[:, 7]))}


def _mech_response(job, stdout: str, result) -> dict:
    path = job.out / "response.csv"
    data = _table(path, RESPONSE_HEADER, 5, job.params["rows"])
    _finite(path, data)
    _require(bool(np.all(np.diff(data[:, 0]) > 0.0)), f"{path.name}: frequency not increasing")
    _require(bool(np.all(data[:, [1, 3]] >= 0.0)), f"{path.name}: negative amplitude")
    peaks = re.findall(r"^([0-9.eE+-]+),([0-9.eE+-]+)$", stdout, re.MULTILINE)
    _require(len(peaks) >= 1, "no response peak reported")
    return {f"peak_{i}_hz": float(f) for i, (f, _) in enumerate(peaks)}


def _swg_gen(job, stdout: str, result) -> dict:
    m = re.search(r"^sites: (\d+)", stdout, re.MULTILINE)
    _require(m is not None, "stdout lacks the site count")
    sites = int(m.group(1))
    path = job.out / "layout.csv"
    data = _table(path, LAYOUT_HEADER, 5, sites)
    _finite(path, data)
    radius = job.params["aperture_m"] / 2.0
    _require(bool(np.all(data[:, 0] ** 2 + data[:, 1] ** 2 <= radius**2 * (1 + 1e-12))),
             f"{path.name}: pillar outside the aperture")
    _require(bool(np.all(np.isin(data[:, 2], SWG_DIAMETERS_NM))), f"{path.name}: bad diameter")
    _require(bool(np.all((data[:, 4] >= 0.0) & (data[:, 4] <= 1.0))),
             f"{path.name}: amplitude outside [0, 1]")
    return {"sites": float(sites)}


def _fit_gm(job, stdout: str, result) -> dict:
    path = job.out / "gm_fit.csv"
    data = _table(path, GM_HEADER, 3, None)
    _finite(path, data)
    _require(bool(np.all(data[:, 1] > 0.0)), f"{path.name}: g_m not > 0")
    _require(bool(np.all(data[:, 2] >= 0.0)), f"{path.name}: negative residual")
    return {f"g_m_hz_{i}": float(g) for i, g in enumerate(data[:, 1])}


_CHECKS = {
    "beam-sim": _beam_sim,
    "lambda-scan": _lambda_scan,
    "noise-sweep": _noise_sweep,
    "pulse-budget": _pulse_budget,
    "mech-response": _mech_response,
    "swg-gen": _swg_gen,
    "fit-gm": _fit_gm,
}


def check(job, rc: int, stdout: str, result) -> tuple[dict, list[str]]:
    """Headline numbers of one finished job, and the problems found.

    A failed job has no headline."""
    if rc != 0:
        return {}, [f"exit code {rc}"]
    try:
        return _CHECKS[job.kind](job, stdout, result), []
    except CheckFailed as exc:
        return {}, [str(exc)]


def compare_reference(kind: str, headline: dict, reference: dict) -> list[str]:
    """Problems where `headline` differs from the recorded `reference`."""
    if set(headline) != set(reference):
        return [f"headline keys {sorted(headline)} differ from reference {sorted(reference)}"]
    return [
        f"{key} = {headline[key]!r}, reference {reference[key]!r}"
        for key in sorted(reference)
        if not math.isclose(headline[key], reference[key], rel_tol=REF_REL_TOL,
                            abs_tol=ref_abs_tol(kind, key))
    ]
