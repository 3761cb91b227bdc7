#!/usr/bin/env python3
"""Pillar-grating OAM conversion, end to end.

Generates the default hexagonal pillar layout (20 um aperture, 360 nm
lattice, 11 diameters stepping the transmission phase around one turn) and
exports it.  beams.grating_metrics then runs the one grating pipeline that
beam-sim also runs: layout, re-tune to the wavelength, mask, Gaussian input,
and the score against the design's own vortex mode LG_{0, delta_l}:
fidelity F, power transmission T and efficiency eta = F * T.  The demo prints
the azimuthal power spectrum of the converted beam, finishes with a
wavelength scan (the same pipeline per wavelength) showing the broadband
character of the grating, and writes intensity rasters under ./out for
plotting.
"""

import math
import pathlib

import numpy as np

from oamsense import beams, swg

out_dir = pathlib.Path("out")
out_dir.mkdir(exist_ok=True)

design = swg.SWGDesign()  # delta_l = 1 at 840 nm
layout = swg.generate_layout(design)
print(f"layout: {len(layout)} pillars "
      f"(area estimate {swg.expected_site_count(design):.0f}); "
      f"diameters {design.diameters[0]:.0f}..{design.diameters[-1]:.0f} nm")
swg.export_layout(layout, out_dir / "swg_layout.csv")

n, pitch, lam, w0 = 1024, 50e-9, 840e-9, 5e-6
metrics = beams.grating_metrics(design, lam, n, pitch, w0)
print(f"conversion to the l = {design.delta_l} vortex mode at 840 nm:")
print(f"  F (waist optimized)  = {metrics.fidelity:.3f} "
      f"(best reference waist {metrics.w0_opt * 1e6:.2f} um)")
print(f"  F (input waist)      = {metrics.fidelity_fixed_waist:.3f}")
print(f"  T (power)            = {metrics.t_swg:.3f}")
print(f"  eta = F * T          = {metrics.eta:.3f}")
print()

converted = metrics.output
fractions = beams.azimuthal_spectrum(converted, range(-2, 5))
print("azimuthal power spectrum of the transmitted beam:")
for l, frac in zip(range(-2, 5), fractions):
    bar = "#" * int(round(50 * frac))
    print(f"  l = {l:+d}: {frac:8.5f} {bar}")
ideal = (math.sin(math.pi / 11) / (math.pi / 11)) ** 2
print(f"  (11-level staircase bound for l = 1: {ideal:.5f})")
print()

beams.save_raster(np.abs(converted.amps) ** 2, out_dir / "swg_intensity.csv")
beams.save_raster(np.angle(converted.amps), out_dir / "swg_phase.csv")
print(f"wrote {out_dir / 'swg_intensity.csv'} and {out_dir / 'swg_phase.csv'}")
print()

lams = [740e-9, 790e-9, 840e-9, 890e-9, 940e-9]
scan = beams.fidelity_vs_wavelength(design, lams, n=512, pitch=80e-9, w0=w0)
print("fidelity across the band (broadband grating):")
for lam_i, m in scan:
    print(f"  {lam_i * 1e9:6.0f} nm: F = {m.fidelity:.3f}, eta = {m.eta:.3f}")
