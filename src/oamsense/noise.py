"""Noise-equivalent torque budget of the cavity-read-out torsion sensor.

Four noise sources are modelled, each expressed as a torque spectral density
in N m / sqrt(Hz) at the mechanical resonance:

* thermal Brownian motion      tau_th = sqrt(4 kB T omega_m m_eff r_eff^2 / Q_m)
* photon shot noise            tau_sn = m_eff omega_m^2 r_eff sqrt(S_sn)
                                        / ( |dT/dD| Q_m P_det g_om )
  with S_sn = 2 hbar omega0 P_det / eta_qe
* detector electronic noise    tau_dn = same as tau_sn with sqrt(S_sn) -> P_dn
* readout back-action          tau_ba = 2 hbar g_om r_eff sqrt(n_cav / kappa)

and combine in quadrature to the minimum detectable torque tau_min.  The
torque maps to incident optical power through

    tau = eta_conv * delta_l * P / omega_sig        (omega_sig = 2 pi c / lambda)

so the budget also reports the minimum detectable power and, for pulse-train
drives at repetition rate f_r = omega_m / 2 pi, the minimum photon number per
pulse.  |dT/dD| is the slope of the fibre-coupled cavity transmission dip
versus detuning; an inverted-Lorentzian dip of depth d is assumed with the
probe laser parked at the maximum-slope detuning, giving
|dT/dD|_max = (3 sqrt(3) / 4) d / kappa.

All functions are pure.  The torque terms and budget take a mode in its one
shape, device.MODE_DTYPE: one record for an operating point, or an array of
them for a grid (as device.interpolate_grid returns).  They read its fields
by name and run the same operations in the same order on both, so each grid
point gets the bits of a one-point call.  That holds because squares go
through _square (libm pow, as Python's ** uses) and square roots through
np.sqrt (correctly rounded, as math.sqrt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import table
from .constants import C, HBAR, KB

TWO_PI = 2.0 * math.pi

#: A device.MODE_DTYPE record (one point) or array (a grid); either reads a
#: field by name, mode["omega_m"], as a value or a column.
Modes = np.void | np.ndarray

# Slope prefactor of the symmetric dip T(D) = 1 - d / (1 + (2 D / kappa)^2):
# the extremum sits at D = +- kappa / (2 sqrt(3)) with |dT/dD| = (3 sqrt3/4) d/kappa.
MAX_SLOPE_FACTOR = 3.0 * math.sqrt(3.0) / 4.0


def _square(x):
    """x ** 2 with the bits of Python's float x ** 2, for floats and arrays.

    Python's ** calls libm pow.  NumPy's x ** 2 and np.power(x, 2.0) compute
    x * x instead, which differs from pow in the last bit for some inputs;
    np.float_power calls pow.
    """
    return np.float_power(x, 2.0)


@dataclass(frozen=True)
class OpticalReadout:
    """Cavity readout and detection chain.

    lambda0: probe wavelength (m); q_o: optical quality factor; dip_depth:
    on-resonance transmission contrast in (0, 1]; p_det: power at the
    detector (W); eta_qe: detector quantum efficiency in (0, 1]; p_dn:
    detector noise-equivalent power (W/sqrt(Hz)); n_cav: mean intracavity
    photon number of the probe.
    """

    lambda0: float
    q_o: float
    p_det: float
    dip_depth: float = 1.0
    eta_qe: float = 1.0
    p_dn: float = 0.0
    n_cav: float = 0.0

    def __post_init__(self) -> None:
        if not (self.lambda0 > 0.0 and self.q_o > 0.0 and self.p_det > 0.0):
            raise ValueError("lambda0, q_o and p_det must be > 0")
        if not 0.0 < self.dip_depth <= 1.0:
            raise ValueError("dip_depth must be in (0, 1]")
        if not 0.0 < self.eta_qe <= 1.0:
            raise ValueError("eta_qe must be in (0, 1]")
        if self.p_dn < 0.0 or self.n_cav < 0.0:
            raise ValueError("p_dn and n_cav must be >= 0")

    @property
    def omega0(self) -> float:
        """Cavity angular frequency 2 pi c / lambda0 (rad/s)."""
        return TWO_PI * C / self.lambda0

    @property
    def kappa(self) -> float:
        """Cavity energy decay rate omega0 / q_o (rad/s)."""
        return self.omega0 / self.q_o


@dataclass(frozen=True)
class CwModulation:
    """Continuous-wave drive, intensity modulated at the mechanical resonance
    omega_m, where budget takes both the drive and the measurement."""


@dataclass(frozen=True)
class PulseTrain:
    """Pulse-train drive at repetition rate f_rep (Hz).

    Pulse width << 1/f_rep is assumed.  f_rep = None means "resonant": the
    budget substitutes the mechanical mode frequency omega_m / 2 pi.
    """

    f_rep: float | None = None


@dataclass(frozen=True)
class SignalBeam:
    """Signal field whose OAM change exerts the torque.

    delta_l is the OAM change per photon; eta_conv the conversion efficiency
    of the OAM-changing element (fidelity times transmission); contrast is
    the modulated fraction of the power at the drive frequency (unity for
    full on/off modulation).
    """

    lambda_sig: float
    delta_l: float
    eta_conv: float = 1.0
    contrast: float = 1.0
    modulation: CwModulation | PulseTrain = CwModulation()

    def __post_init__(self) -> None:
        if not self.lambda_sig > 0.0:
            raise ValueError("lambda_sig must be > 0")
        if self.delta_l < 0.0:
            raise ValueError("delta_l must be >= 0")
        if not 0.0 < self.eta_conv <= 1.0:
            raise ValueError("eta_conv must be in (0, 1]")
        if not 0.0 < self.contrast <= 1.0:
            raise ValueError("contrast must be in (0, 1]")

    @property
    def omega_sig(self) -> float:
        return TWO_PI * C / self.lambda_sig

    @property
    def conversion(self) -> float:
        """Torque per photon-flux scale: eta_conv * contrast * delta_l."""
        return self.eta_conv * self.contrast * self.delta_l


@dataclass(frozen=True)
class NoiseBudget:
    """Noise-equivalent torques (N m / sqrt(Hz)), their quadrature sum,
    the equivalent incident optical power (W / sqrt(Hz)) and, for pulsed
    drives, the minimum photon number per pulse.

    Each field is a float for one operating point, or an array with one
    value per point for a grid; n_min is None for CW drives.
    """

    tau_th: float | np.ndarray
    tau_sn: float | np.ndarray
    tau_dn: float | np.ndarray
    tau_ba: float | np.ndarray
    tau_min: float | np.ndarray
    p_min: float | np.ndarray
    n_min: float | np.ndarray | None = None


def power_from_torque(tau, lambda_sig: float, delta_l: float, eta_conv: float = 1.0):
    """Incident power producing torque tau (a float or an array); infinite
    when delta_l*eta_conv = 0."""
    scale = eta_conv * delta_l
    if scale == 0.0:
        return np.full_like(tau, math.inf, dtype=np.float64)[()]
    return tau * (TWO_PI * C / lambda_sig) / scale


def tau_thermal(mode: Modes, t_kelvin: float):
    """Thermal noise-equivalent torque (N m / sqrt(Hz)) at temperature T."""
    if t_kelvin < 0.0:
        raise ValueError("temperature must be >= 0")
    return np.sqrt(4.0 * KB * t_kelvin * mode["omega_m"] * mode["m_eff"]
                   * _square(mode["r_eff"]) / mode["q_m"])


def transmission_slope(readout: OpticalReadout) -> float:
    """Maximum transduction slope |dT/dD| (per rad/s), at D = kappa / (2 sqrt 3)."""
    return MAX_SLOPE_FACTOR * readout.dip_depth / readout.kappa


def shot_noise_psd(readout: OpticalReadout) -> float:
    """Shot-noise power spectral density S = 2 hbar omega0 P_det / eta_qe (W^2/Hz)."""
    return 2.0 * HBAR * readout.omega0 * readout.p_det / readout.eta_qe


def _transduction_torque(mode: Modes, readout: OpticalReadout, power_noise: float):
    """Torque equivalent of an optical power noise density at the detector."""
    zero = np.asarray(mode["g_om"]) == 0.0
    if zero.any():
        k = np.argmax(zero)  # the first point without coupling
        raise ValueError(
            f"g_om = 0 for the {np.ravel(mode['branch'])[k]} mode at "
            f"l_s = {np.ravel(mode['l_s_um'])[k]} um: "
            "the cavity does not transduce its motion, so no readout noise budget exists"
        )
    slope = transmission_slope(readout)
    return (
        mode["m_eff"]
        * _square(mode["omega_m"])
        * mode["r_eff"]
        * power_noise
        / (slope * mode["q_m"] * readout.p_det * mode["g_om"])
    )


def tau_shot(mode: Modes, readout: OpticalReadout):
    """Photon shot-noise equivalent torque (N m / sqrt(Hz))."""
    return _transduction_torque(mode, readout, math.sqrt(shot_noise_psd(readout)))


def tau_detector(mode: Modes, readout: OpticalReadout):
    """Detector electronic-noise equivalent torque (N m / sqrt(Hz))."""
    return _transduction_torque(mode, readout, readout.p_dn)


def tau_backaction(mode: Modes, readout: OpticalReadout):
    """Radiation-pressure back-action torque 2 hbar g_om r_eff sqrt(n_cav/kappa)."""
    return 2.0 * HBAR * mode["g_om"] * mode["r_eff"] * math.sqrt(readout.n_cav / readout.kappa)


def quadrature_tau_min(tau_th, tau_sn, tau_dn, tau_ba):
    """Quadrature combination of the four noise-equivalent torques."""
    return np.sqrt(_square(tau_th) + _square(tau_sn) + _square(tau_dn) + _square(tau_ba))


def min_photons_per_pulse(tau_min, beam: SignalBeam, f_rep, bandwidth_hz: float = 1.0):
    """Minimum detectable photons per pulse for a resonant pulse train.

    Inverts the torque/power relation for a pulse train whose repetition rate
    matches the drive frequency: n_min = tau_min sqrt(B) / (eta_conv delta_l
    hbar f_rep).  tau_min must come from a budget evaluated at omega_m =
    2 pi f_rep.  The measurement bandwidth B (Hz) multiplies the
    root-spectral-density torque; it defaults to 1 Hz.  tau_min and f_rep
    may be floats or arrays.
    """
    if np.any(f_rep <= 0.0):
        raise ValueError("f_rep must be > 0")
    if bandwidth_hz <= 0.0:
        raise ValueError("bandwidth_hz must be > 0")
    scale = beam.conversion
    if scale == 0.0:
        return np.full_like(tau_min, math.inf, dtype=np.float64)[()]
    return tau_min * math.sqrt(bandwidth_hz) / (scale * HBAR * f_rep)


def budget(
    mode: Modes,
    readout: OpticalReadout,
    t_kelvin: float,
    beam: SignalBeam,
    bandwidth_hz: float = 1.0,
) -> NoiseBudget:
    """Full noise budget of one operating point, or of every point of a grid.

    `mode` is one MODE_DTYPE record, giving a budget of scalars, or a
    grid's array from device.interpolate_grid, giving one array per field.
    The drive and measurement are taken at the mechanical resonance omega_m.
    For a PulseTrain beam the repetition rate defaults to omega_m / 2 pi and
    the minimum photon number per pulse is filled in; for CW beams n_min is
    None.  A point with g_om = 0 raises ValueError naming its branch and
    l_s (the first such point of a grid).
    """
    th = tau_thermal(mode, t_kelvin)
    sn = tau_shot(mode, readout)
    dn = tau_detector(mode, readout)
    ba = tau_backaction(mode, readout)
    tau_min = quadrature_tau_min(th, sn, dn, ba)
    p_min = power_from_torque(tau_min, beam.lambda_sig, beam.delta_l,
                              beam.eta_conv * beam.contrast)
    n_min = None
    if isinstance(beam.modulation, PulseTrain):
        f_rep = beam.modulation.f_rep
        if f_rep is None:
            f_rep = mode["omega_m"] / TWO_PI
        n_min = min_photons_per_pulse(tau_min, beam, f_rep, bandwidth_hz)
    return NoiseBudget(
        tau_th=th, tau_sn=sn, tau_dn=dn, tau_ba=ba,
        tau_min=tau_min, p_min=p_min, n_min=n_min,
    )


def detected_power_for_ncav(readout: OpticalReadout, n_cav: float) -> float:
    """Detected probe power implied by an intracavity photon number.

    The energy n_cav hbar omega0 decays at rate kappa and is routed to the
    detector, so P_det = n_cav hbar omega0 kappa.  Used wherever n_cav is the
    swept quantity and the readout power must follow it.
    """
    return n_cav * HBAR * readout.omega0 * readout.kappa


def readout_at_ncav(readout: OpticalReadout, n_cav: float) -> OpticalReadout:
    """Readout re-tuned to a new intracavity photon number, p_det tied along."""
    return replace(readout, n_cav=n_cav, p_det=detected_power_for_ncav(readout, n_cav))


@dataclass(frozen=True)
class NcavScan:
    """Result of a photon-number sweep of the readout."""

    n_cav: np.ndarray
    budgets: NoiseBudget  # one array per field, one value per n_cav
    best_n_cav: float
    best_n_min: float
    best_index: int


def optimize_ncav(
    mode: np.void,
    readout: OpticalReadout,
    t_kelvin: float,
    beam: SignalBeam,
    n_cav_grid,
    bandwidth_hz: float = 1.0,
) -> NcavScan:
    """Evaluate the pulsed budget of one MODE_DTYPE record across an
    intracavity photon-number grid.

    The detected power is tied to each grid point (see detected_power_for_ncav)
    so shot and detector terms fall with n_cav while back-action grows.
    Returns the full curve and its minimiser.
    """
    grid = np.asarray(n_cav_grid, dtype=float)
    if grid.size == 0 or np.any(grid <= 0.0):
        raise ValueError("n_cav grid must be non-empty and positive")
    if not isinstance(beam.modulation, PulseTrain):
        raise ValueError("optimize_ncav requires a pulse-train beam")
    points = [budget(mode, readout_at_ncav(readout, n), t_kelvin, beam, bandwidth_hz)
              for n in grid]
    budgets = NoiseBudget(*(np.array([getattr(b, f.name) for b in points])
                            for f in fields(NoiseBudget)))
    i = int(np.argmin(budgets.n_min))
    return NcavScan(
        n_cav=grid, budgets=budgets,
        best_n_cav=float(grid[i]), best_n_min=float(budgets.n_min[i]), best_index=i,
    )


#: Columns of a budget sweep after its axis value.
BUDGET_COLUMNS = ("tau_th", "tau_sn", "tau_dn", "tau_ba", "tau_min", "p_min_w", "n_min")


def budget_table(axis_name: str, axis_values, budgets: NoiseBudget):
    """Header, columns and text cells (see table.rows) of a budget sweep, as
    budget returns for a grid: one row per axis value, n_min blank if CW."""
    b = budgets
    cw = b.n_min is None
    columns = [axis_values, b.tau_th, b.tau_sn, b.tau_dn, b.tau_ba, b.tau_min, b.p_min,
               np.zeros(len(axis_values)) if cw else b.n_min]
    text = np.full((len(axis_values), len(columns)), None, dtype=object)
    text[:, -1] = "" if cw else None
    return ",".join((axis_name,) + BUDGET_COLUMNS), columns, text


def write_budget_sweep(path, axis_name: str, axis_values, budgets: NoiseBudget) -> None:
    """Write budget_table(axis_name, axis_values, budgets) as CSV: axis_name is
    'l_s_um' for the support-length sweep and 'n_cav' for photon-number sweeps."""
    table.write_table(path, *budget_table(axis_name, axis_values, budgets))
