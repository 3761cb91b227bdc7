#!/usr/bin/env python3
"""Two-mode mechanics walkthrough.

The suspended pad (twist mode) and the cavity nanobeam (bounce mode) form a
pair of coupled oscillators.  This script drives the pad at the detuned
operating point, locates the response peaks, maps the avoided crossing as
the support length tunes the twist frequency through the bounce frequency,
and closes the loop by re-extracting the coupling rate from the crossing.
"""

import math

import numpy as np

from oamsense import device, mechanics

TWO_PI = 2.0 * math.pi

ds = device.load_sample_dataset()
print("bundled device table:", ", ".join(ds.branches()))
print(ds.provenance.splitlines()[0])
print()

# --- driven response at l_s = 12 um, where the modes are well separated ----
q_m = 500.0  # matching the solver convention used for response curves
twist = device.interpolate(ds, "twist-like", 12.0, q_m_override=q_m)
bounce = device.interpolate(ds, "bounce-like", 12.0, q_m_override=q_m)
model = mechanics.CoupledOscillator(
    m1=twist["m_eff"], m2=bounce["m_eff"],
    omega1=twist["omega_m"], omega2=bounce["omega_m"],
    gamma1=twist["omega_m"] / q_m, gamma2=bounce["omega_m"] / q_m,
    g_m=TWO_PI * 0.5e6,
)
grid = TWO_PI * np.linspace(4.0e6, 7.0e6, 3001)
curve = mechanics.response_curve(model, f_d=1e-15, omega_grid=grid)
peaks = mechanics.peak_indices(np.abs(curve.x2))
print("nanobeam response |x2| to a 1 fN drive on the pad (l_s = 12 um):")
for i in peaks:
    print(f"  peak at {curve.omega[i] / TWO_PI / 1e6:.3f} MHz, "
          f"|x2| = {abs(curve.x2[i]):.3e} m")
print("  (the directly driven twist peak is the taller one)")
print()

# --- avoided crossing as l_s tunes the twist branch through the bounce ----
g_m = TWO_PI * 1.2e6
print("hybridized mode frequencies vs support length (g_m/2pi = 1.2 MHz):")
print("  l_s_um   f_minus_MHz  f_plus_MHz   gap_MHz")
for ls in np.arange(8.0, 13.0, 1.0):
    t = device.interpolate(ds, "twist-like", ls)
    b = device.interpolate(ds, "bounce-like", ls)
    pair = mechanics.CoupledOscillator(
        m1=t["m_eff"], m2=b["m_eff"], omega1=t["omega_m"], omega2=b["omega_m"], g_m=g_m)
    lo, hi = mechanics.hybrid_frequencies(pair)
    print(f"  {ls:6.1f}   {lo / TWO_PI / 1e6:10.4f}  {hi / TWO_PI / 1e6:10.4f}"
          f"  {(hi - lo) / TWO_PI / 1e6:8.4f}")
print("  -> minimum gap at l_s = 10 um, the crossing point")
print()

# --- recover the coupling from synthetic crossing data --------------------
rows = []
for ls in np.arange(8.0, 12.5, 0.5):
    t = device.interpolate(ds, "twist-like", ls)
    b = device.interpolate(ds, "bounce-like", ls)
    pair = mechanics.CoupledOscillator(
        m1=1.0, m2=1.0, omega1=t["omega_m"], omega2=b["omega_m"], g_m=g_m)
    lo, hi = mechanics.hybrid_frequencies(pair)
    rows.append((ls, lo, hi))
fit = mechanics.fit_gm(
    np.asarray(rows),
    omega1_model=(TWO_PI * 11.7e6, -TWO_PI * 0.6e6),
    omega2=TWO_PI * 5.96e6,
)
print(f"coupling fit on the synthetic crossing: g_m/2pi = "
      f"{fit.g_m / TWO_PI / 1e6:.6f} MHz (true 1.200000 MHz), "
      f"residual {fit.residual_norm:.2e} rad/s")
