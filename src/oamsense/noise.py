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

All functions are pure; sweeps evaluate deterministically in input order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import table
from .constants import C, HBAR, KB
from .device import MechanicalModeRecord

TWO_PI = 2.0 * math.pi

# Slope prefactor of the symmetric dip T(D) = 1 - d / (1 + (2 D / kappa)^2):
# the extremum sits at D = +- kappa / (2 sqrt(3)) with |dT/dD| = (3 sqrt3/4) d/kappa.
MAX_SLOPE_FACTOR = 3.0 * math.sqrt(3.0) / 4.0


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
    drives, the minimum photon number per pulse."""

    tau_th: float
    tau_sn: float
    tau_dn: float
    tau_ba: float
    tau_min: float
    p_min: float
    n_min: float | None = None


def torque_from_power(p_w: float, lambda_sig: float, delta_l: float, eta_conv: float = 1.0) -> float:
    """Torque tau = eta_conv * delta_l * P / omega exerted by power P (W)."""
    if p_w < 0.0 or delta_l < 0.0 or eta_conv < 0.0:
        raise ValueError("arguments must be >= 0")
    return eta_conv * delta_l * p_w / (TWO_PI * C / lambda_sig)


def power_from_torque(tau: float, lambda_sig: float, delta_l: float, eta_conv: float = 1.0) -> float:
    """Incident power producing torque tau; infinite when delta_l*eta_conv = 0."""
    scale = eta_conv * delta_l
    if scale == 0.0:
        return math.inf
    return tau * (TWO_PI * C / lambda_sig) / scale


def tau_thermal(mode: MechanicalModeRecord, t_kelvin: float) -> float:
    """Thermal noise-equivalent torque (N m / sqrt(Hz)) at temperature T."""
    if t_kelvin < 0.0:
        raise ValueError("temperature must be >= 0")
    return math.sqrt(4.0 * KB * t_kelvin * mode.omega_m * mode.m_eff * mode.r_eff**2 / mode.q_m)


def transmission_slope(readout: OpticalReadout) -> float:
    """Maximum transduction slope |dT/dD| (per rad/s), at D = kappa / (2 sqrt 3)."""
    return MAX_SLOPE_FACTOR * readout.dip_depth / readout.kappa


def shot_noise_psd(readout: OpticalReadout) -> float:
    """Shot-noise power spectral density S = 2 hbar omega0 P_det / eta_qe (W^2/Hz)."""
    return 2.0 * HBAR * readout.omega0 * readout.p_det / readout.eta_qe


def _transduction_torque(mode: MechanicalModeRecord, readout: OpticalReadout, power_noise: float) -> float:
    """Torque equivalent of an optical power noise density at the detector."""
    if mode.g_om == 0.0:
        raise ValueError(
            f"g_om = 0 for the {mode.branch} mode at l_s = {mode.l_s_um} um: "
            "the cavity does not transduce its motion, so no readout noise budget exists"
        )
    slope = transmission_slope(readout)
    return (
        mode.m_eff
        * mode.omega_m**2
        * mode.r_eff
        * power_noise
        / (slope * mode.q_m * readout.p_det * mode.g_om)
    )


def tau_shot(mode: MechanicalModeRecord, readout: OpticalReadout) -> float:
    """Photon shot-noise equivalent torque (N m / sqrt(Hz))."""
    return _transduction_torque(mode, readout, math.sqrt(shot_noise_psd(readout)))


def tau_detector(mode: MechanicalModeRecord, readout: OpticalReadout) -> float:
    """Detector electronic-noise equivalent torque (N m / sqrt(Hz))."""
    return _transduction_torque(mode, readout, readout.p_dn)


def tau_backaction(mode: MechanicalModeRecord, readout: OpticalReadout) -> float:
    """Radiation-pressure back-action torque 2 hbar g_om r_eff sqrt(n_cav/kappa)."""
    return 2.0 * HBAR * mode.g_om * mode.r_eff * math.sqrt(readout.n_cav / readout.kappa)


def quadrature_tau_min(tau_th: float, tau_sn: float, tau_dn: float, tau_ba: float) -> float:
    """Quadrature combination of the four noise-equivalent torques."""
    return math.sqrt(tau_th**2 + tau_sn**2 + tau_dn**2 + tau_ba**2)


def min_photons_per_pulse(
    tau_min: float, beam: SignalBeam, f_rep: float, bandwidth_hz: float = 1.0
) -> float:
    """Minimum detectable photons per pulse for a resonant pulse train.

    Inverts the torque/power relation for a pulse train whose repetition rate
    matches the drive frequency: n_min = tau_min sqrt(B) / (eta_conv delta_l
    hbar f_rep).  tau_min must come from a budget evaluated at omega_m =
    2 pi f_rep.  The measurement bandwidth B (Hz) multiplies the
    root-spectral-density torque; it defaults to 1 Hz.
    """
    if f_rep <= 0.0:
        raise ValueError("f_rep must be > 0")
    if bandwidth_hz <= 0.0:
        raise ValueError("bandwidth_hz must be > 0")
    scale = beam.conversion
    if scale == 0.0:
        return math.inf
    return tau_min * math.sqrt(bandwidth_hz) / (scale * HBAR * f_rep)


def budget(
    mode: MechanicalModeRecord,
    readout: OpticalReadout,
    t_kelvin: float,
    beam: SignalBeam,
    bandwidth_hz: float = 1.0,
) -> NoiseBudget:
    """Full noise budget of one operating point.

    The drive and measurement are taken at the mechanical resonance omega_m.
    For a PulseTrain beam the repetition rate defaults to omega_m / 2 pi and
    the minimum photon number per pulse is filled in; for CW beams n_min is
    None.
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
            f_rep = mode.omega_m / TWO_PI
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
    n_min: np.ndarray
    budgets: tuple[NoiseBudget, ...]
    best_n_cav: float
    best_n_min: float
    best_index: int


def optimize_ncav(
    mode: MechanicalModeRecord,
    readout: OpticalReadout,
    t_kelvin: float,
    beam: SignalBeam,
    n_cav_grid,
    bandwidth_hz: float = 1.0,
) -> NcavScan:
    """Evaluate the pulsed budget across an intracavity photon-number grid.

    The detected power is tied to each grid point (see detected_power_for_ncav)
    so shot and detector terms fall with n_cav while back-action grows.
    Returns the full curve and its minimiser.
    """
    grid = np.asarray(n_cav_grid, dtype=float)
    if grid.size == 0 or np.any(grid <= 0.0):
        raise ValueError("n_cav grid must be non-empty and positive")
    if not isinstance(beam.modulation, PulseTrain):
        raise ValueError("optimize_ncav requires a pulse-train beam")
    budgets = tuple(
        budget(mode, readout_at_ncav(readout, n), t_kelvin, beam, bandwidth_hz)
        for n in grid
    )
    n_min = np.array([b.n_min for b in budgets])
    i = int(np.argmin(n_min))
    return NcavScan(
        n_cav=grid, n_min=n_min, budgets=budgets,
        best_n_cav=float(grid[i]), best_n_min=float(n_min[i]), best_index=i,
    )


#: Columns of a budget row after its sweep-axis value (see budget_row).
BUDGET_COLUMNS = ("tau_th", "tau_sn", "tau_dn", "tau_ba", "tau_min", "p_min_w", "n_min")
BUDGET_SWEEP_HEADER = ",".join(("l_s_um",) + BUDGET_COLUMNS)


def budget_row(x, b: NoiseBudget) -> str:
    """CSV row of one budget: axis value x, then BUDGET_COLUMNS (n_min blank if CW)."""
    cells = (x, b.tau_th, b.tau_sn, b.tau_dn, b.tau_ba, b.tau_min, b.p_min, b.n_min)
    # float() first: the repr of a NumPy scalar is not a plain number
    return ",".join("" if v is None else repr(float(v)) for v in cells)


def write_budget_sweep(path, axis_name: str, axis_values, budgets) -> None:
    """Write one row per budget, as budget_row formats it, under a header
    keyed by a sweep axis.

    The canonical support-length sweep uses axis_name 'l_s_um'; photon-number
    sweeps use 'n_cav'.
    """
    pairs = list(zip(axis_values, budgets))
    cells = np.array([(x, b.tau_th, b.tau_sn, b.tau_dn, b.tau_ba, b.tau_min, b.p_min,
                       0.0 if b.n_min is None else b.n_min) for x, b in pairs],
                     dtype=np.float64).reshape(len(pairs), 1 + len(BUDGET_COLUMNS))
    blank = np.zeros(cells.shape, dtype=bool)
    blank[:, -1] = [b.n_min is None for _, b in pairs]  # CW: no photon number
    table.write_table(path, ",".join((axis_name,) + BUDGET_COLUMNS), cells.T, blank)
