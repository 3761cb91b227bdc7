#!/usr/bin/env python3
"""Photon-counting limit for pulsed drives.

A pulse train with repetition rate equal to the mechanical frequency drives
the sensor resonantly; the resonant Fourier component of its power is
P = n hbar omega_c f_rep.  With an idealized but reachable device
(Q_m = 1e8, 10 mK, delta_l = 10 grating, superconducting-nanowire detector
noise) the budget converts to a minimum detectable photon number per pulse.
The readout back-action grows with the intracavity photon number while shot
and detector noise fall, so the photon-number sweep has an interior optimum.
"""

import numpy as np

from oamsense import device, noise

ds = device.load_sample_dataset()
base = noise.OpticalReadout(lambda0=1.428e-6, q_o=1e6, p_det=1.0, p_dn=3.8e-17)
readout = noise.readout_at_ncav(base, 1e-3)  # ties p_det to the cavity photons
beam = noise.SignalBeam(lambda_sig=840e-9, delta_l=10.0, eta_conv=1.0,
                        modulation=noise.PulseTrain())  # f_rep: mode resonance

mode = device.interpolate(ds, "twist-like", 10.0, q_m_override=1e8)
b = noise.budget(mode, readout, t_kelvin=0.01, beam=beam)
print(f"operating point (l_s = 10 um, n_cav = 1e-3):")
print(f"  detected readout power: {readout.p_det * 1e12:.3f} pW")
print(f"  tau_min = {b.tau_min:.3e} N m/rtHz")
print(f"  n_min   = {b.n_min:.0f} photons per pulse "
      f"(repetition {mode['omega_m'] / (2 * np.pi) / 1e6:.2f} MHz)")
print()

print("support-length sweep (n_cav = 1e-3):")
print("  l_s_um   n_min_photons")
grid = np.arange(8.0, 18.5, 2.0)
sweep = noise.budget(device.interpolate_grid(ds, "twist-like", grid, q_m_override=1e8),
                     readout, 0.01, beam)
for ls, n_min in zip(grid, sweep.n_min):
    print(f"  {ls:6.1f}   {n_min:12.0f}")
print()

scan = noise.optimize_ncav(mode, base, 0.01, beam, np.logspace(-5, -1, 41))
print("intracavity photon-number sweep at l_s = 10 um:")
print(f"  optimum n_cav = {scan.best_n_cav:.3e} -> n_min = {scan.best_n_min:.0f}")
edge_lo, edge_hi = scan.n_min[0], scan.n_min[-1]
print(f"  sweep edges: n_min = {edge_lo:.0f} at n_cav = {scan.n_cav[0]:.0e} "
      f"(detector/shot limited), {edge_hi:.0f} at n_cav = {scan.n_cav[-1]:.0e} "
      f"(back-action limited)")
