"""Regenerate the bundled sample data tables.

The device table is anchored at every externally known operating value
(branch frequencies 4.81 / 5.96 MHz, crossing at l_s = 10 um, couplings
16 / 32 GHz/nm, bounce effective mass 27 pg) and filled with smooth
illustrative curves elsewhere.  The twist-branch effective mass and lever
arm at the l_s = 10 um operating point are calibrated so that

* the CW budget (T = 4 K, Q_m = Q_o = 1e6, P_det = 0.1 uW, lambda0 =
  1428 nm) returns tau_min = 3.22e-21 N m / rtHz, and
* under the pulsed idealized readout (Q_m = 1e8, n_cav = 1e-3, tied
  detected power) shot noise equals back-action noise, which places the
  photon-number optimum of the n_cav sweep at the nominal n_cav = 1e-3.

Run from the repository root:  python tools/generate_sample_data.py
"""

from __future__ import annotations

import math
import pathlib
import sys
from collections.abc import Iterator

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from oamsense import device, mechanics, noise, table

TWO_PI = 2.0 * math.pi
DATA_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "oamsense" / "data"

F_CROSS = 5.96e6        # Hz, both branches at the crossing
F_SLOPE = -0.575e6      # Hz per um, twist branch tuning rate (4.81 MHz at 12 um)
LS_CROSS = 10.0         # um
G_CROSS_HZ_PER_M = 16e18   # 16 GHz/nm, equal-coupling value at the crossing
G_BOUNCE_HZ_PER_M = 32e18  # 32 GHz/nm, off-resonance bounce coupling
M_BOUNCE = 27e-15       # kg
Q_M_FILE = 1e6
TAU_TARGET = 3.22e-21   # N m / rtHz, CW operating-point budget

CW = dict(t_k=4.0, q_m=1e6, p_det=1e-7, p_dn=2.5e-12, n_cav=0.0)
PULSED = dict(t_k=0.01, q_m=1e8, p_dn=3.8e-17, n_cav=1e-3)


def _mode(m_eff: float, r_eff: float, q_m: float) -> np.void:
    """The twist-like mode at the crossing, as one device.MODE_DTYPE record."""
    row = (LS_CROSS, 7.0, 1.0, "twist-like", TWO_PI * F_CROSS, m_eff, r_eff, q_m,
           TWO_PI * G_CROSS_HZ_PER_M)
    return np.array(row, dtype=device.MODE_DTYPE)[()]


def calibrate() -> tuple[float, float]:
    """Solve (m_eff, r_eff) at the operating point from the two conditions."""
    base = noise.OpticalReadout(lambda0=1.428e-6, q_o=1e6, p_det=1.0)

    # Condition 1: tau_sn = tau_ba under the pulsed tied readout.
    # tau_sn is linear in m_eff at fixed r_eff and tau_ba is independent of it.
    tied = noise.readout_at_ncav(
        noise.OpticalReadout(lambda0=1.428e-6, q_o=1e6, p_det=1.0,
                             p_dn=PULSED["p_dn"]),
        PULSED["n_cav"],
    )
    probe = _mode(m_eff=1e-13, r_eff=1e-4, q_m=PULSED["q_m"])
    m_eff = 1e-13 * noise.tau_backaction(probe, tied) / noise.tau_shot(probe, tied)

    # Condition 2: the CW budget hits the target tau_min.  Every term of that
    # budget is proportional to r_eff, so one trial evaluation rescales exactly.
    cw_readout = noise.OpticalReadout(
        lambda0=1.428e-6, q_o=1e6, p_det=CW["p_det"], p_dn=CW["p_dn"], n_cav=CW["n_cav"]
    )
    trial = _mode(m_eff=m_eff, r_eff=1e-4, q_m=CW["q_m"])
    tau_trial = noise.quadrature_tau_min(
        noise.tau_thermal(trial, CW["t_k"]),
        noise.tau_shot(trial, cw_readout),
        noise.tau_detector(trial, cw_readout),
        noise.tau_backaction(trial, cw_readout),
    )
    r_eff = 1e-4 * TAU_TARGET / tau_trial
    return m_eff, r_eff


def device_rows(m_star: float, r_star: float) -> Iterator[str]:
    # The linear term in the twist lever arm cancels the frequency tilt of
    # tau_th ~ sqrt(omega) at the crossing, pinning the budget minimum there.
    tilt = 0.5 * (-F_SLOPE) / F_CROSS  # per um
    rows = []  # branch is a text cell: table.rows writes it over the nan
    for ls in np.arange(8.0, 18.0 + 0.5, 1.0):
        d = ls - LS_CROSS
        f_twist = F_CROSS + F_SLOPE * d
        m_twist = m_star * (1.0 + 0.02 * d * d)
        r_twist = r_star * (1.0 + tilt * d + 0.08 * d * d)
        g_twist = (1.0 + 15.0 * math.exp(-2.0 * d * d)) * 1e18
        rows.append((ls, 7.0, 1.0, math.nan, f_twist, m_twist, r_twist, Q_M_FILE, g_twist))

        r_bounce = r_star * (1.0 + 2.0 * d * d)
        g_bounce = G_BOUNCE_HZ_PER_M - (G_BOUNCE_HZ_PER_M - G_CROSS_HZ_PER_M) * math.exp(
            -2.0 * d * d
        )
        rows.append((ls, 7.0, 1.0, math.nan, F_CROSS, M_BOUNCE, r_bounce, Q_M_FILE, g_bounce))
    text = np.full((len(rows), len(rows[0])), None, dtype=object)
    text[:, 3] = ["twist-like", "bounce-like"] * (len(rows) // 2)
    return table.rows(np.transpose(rows), text)


def _write(name: str, notes: list[str], header: str, lines) -> pathlib.Path:
    """Write the `#` notes, the header and the data lines to DATA_DIR / name."""
    path = DATA_DIR / name
    path.write_text("\n".join([*(f"# {note}" for note in notes), header, *lines]) + "\n",
                    encoding="utf-8")
    return path


def write_device_table(m_star: float, r_star: float) -> pathlib.Path:
    provenance = [
        "Illustrative device parameter table for the suspended-pad torsion sensor.",
        "Anchors: twist branch 4.81 MHz at l_s = 12 um; branch crossing at",
        "l_s = 10 um where both branches sit at 5.96 MHz with equal coupling",
        "16 GHz/nm; off-resonance bounce coupling 32 GHz/nm and bounce effective",
        "mass 27 pg.  Every other point is a smooth interpolant, not solver",
        "output.  Twist-branch m_eff and r_eff at l_s = 10 um are CALIBRATED to",
        "the operating budget (tau_min = 3.22e-21 N m/rtHz at T = 4 K,",
        "Q_m = Q_o = 1e6, P_det = 0.1 uW, lambda0 = 1428 nm) and to shot/back-",
        "action balance at n_cav = 1e-3 under the pulsed single-photon readout.",
        "Film: 370 nm SiN with a 100 nm slot (1 GPa initial stress upstream).",
        "Generated by tools/generate_sample_data.py; do not edit by hand.",
    ]
    return _write("sample_device.csv", provenance, device.HEADER, device_rows(m_star, r_star))


def write_anticrossing_table() -> pathlib.Path:
    """Synthetic hybridized branch frequencies for coupling-extraction demos.

    The coupling decreases with hanger width; the values are illustrative.
    """
    groups = [(5.0, 1.8e6), (7.0, 1.2e6), (9.0, 0.8e6)]
    notes = [
        "Synthetic tuned-crossing table: hybrid branch frequencies vs support",
        "length for three hanger widths.  Coupling g_m/2pi decreases with",
        "hanger width (1.8, 1.2, 0.8 MHz); generated from the two-mode model",
        "by tools/generate_sample_data.py.  Illustrative, not solver output.",
    ]
    rows = []
    for w_h, g_hz in groups:
        for ls in np.arange(8.0, 12.0 + 0.25, 0.5):
            f1 = F_CROSS + F_SLOPE * (ls - LS_CROSS)
            model = mechanics.CoupledOscillator(
                m1=1.0, m2=1.0,
                omega1=TWO_PI * f1, omega2=TWO_PI * F_CROSS,
                g_m=TWO_PI * g_hz,
            )
            lo, hi = mechanics.hybrid_frequencies(model)
            rows.append((w_h, ls, lo / TWO_PI, hi / TWO_PI))
    return _write("sample_anticrossing.csv", notes, device.CROSSING_HEADER,
                  table.rows(np.transpose(rows)))


def main() -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    m_star, r_star = calibrate()
    print(f"calibrated operating point: m_eff = {m_star:.6e} kg, r_eff = {r_star:.6e} m")
    dev_path = write_device_table(m_star, r_star)
    print(f"wrote {dev_path}")

    # report the resulting operating-point budgets as a sanity check
    ds = device.load_dataset(dev_path)
    mode_cw = device.interpolate(ds, "twist-like", LS_CROSS, q_m_override=CW["q_m"])
    cw_readout = noise.OpticalReadout(
        lambda0=1.428e-6, q_o=1e6, p_det=CW["p_det"], p_dn=CW["p_dn"], n_cav=CW["n_cav"]
    )
    beam_cw = noise.SignalBeam(lambda_sig=8.4e-7, delta_l=1.0, eta_conv=0.83)
    b = noise.budget(mode_cw, cw_readout, CW["t_k"], beam_cw)
    print(f"CW check: tau_min = {b.tau_min:.6e} N m/rtHz, p_min = {b.p_min:.6e} W/rtHz")

    mode_p = device.interpolate(ds, "twist-like", LS_CROSS, q_m_override=PULSED["q_m"])
    tied = noise.readout_at_ncav(
        noise.OpticalReadout(lambda0=1.428e-6, q_o=1e6, p_det=1.0, p_dn=PULSED["p_dn"]),
        PULSED["n_cav"],
    )
    beam_p = noise.SignalBeam(
        lambda_sig=8.4e-7, delta_l=10.0, eta_conv=1.0, modulation=noise.PulseTrain()
    )
    bp = noise.budget(mode_p, tied, PULSED["t_k"], beam_p)
    print(f"pulsed check: n_min = {bp.n_min:.1f} photons/pulse "
          f"(tau_sn = {bp.tau_sn:.3e}, tau_ba = {bp.tau_ba:.3e})")

    ac_path = write_anticrossing_table()
    print(f"wrote {ac_path}")


if __name__ == "__main__":
    main()
