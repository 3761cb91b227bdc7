"""Independent oracles used by the test suite.

These deliberately avoid the library's fast code paths: the coupled-mode
response is integrated in the time domain with a fixed-step fourth-order
scheme, mode overlaps are evaluated by dense 1-D radial quadrature, and the
waist search of conversion_metrics is repeated on full 2-D reference modes
instead of the library's radial projection.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def rk4_steady_state(model, f_d: float, omega_d: float,
                     decay_times: float = 20.0, steps_per_period: int = 50):
    """Steady-state complex amplitudes (x1, x2) by direct time integration.

    The equations of motion are stepped with classical RK4 at
    dt = 1 / (steps_per_period * f_max) for `decay_times` amplitude decay
    times, then the amplitudes are extracted by quadrature demodulation at
    the drive frequency over four full drive periods.
    """
    w1, w2, g1, g2 = model.omega1, model.omega2, model.gamma1, model.gamma2
    if g1 <= 0.0 or g2 <= 0.0 or omega_d <= 0.0:
        raise ValueError("oracle needs damped oscillators and a nonzero drive")
    c12 = math.sqrt(model.m2 / model.m1) * model.g_m**2
    c21 = math.sqrt(model.m1 / model.m2) * model.g_m**2
    fm = f_d / model.m1

    def deriv(t, x1, v1, x2, v2):
        drive = fm * cmath.exp(-1j * omega_d * t)
        return (
            v1,
            -w1 * w1 * x1 - g1 * v1 + c12 * x2 + drive,
            v2,
            -w2 * w2 * x2 - g2 * v2 + c21 * x1,
        )

    def rk4_step(t, dt, x1, v1, x2, v2):
        k1 = deriv(t, x1, v1, x2, v2)
        k2 = deriv(t + dt / 2, x1 + dt / 2 * k1[0], v1 + dt / 2 * k1[1],
                   x2 + dt / 2 * k1[2], v2 + dt / 2 * k1[3])
        k3 = deriv(t + dt / 2, x1 + dt / 2 * k2[0], v1 + dt / 2 * k2[1],
                   x2 + dt / 2 * k2[2], v2 + dt / 2 * k2[3])
        k4 = deriv(t + dt, x1 + dt * k3[0], v1 + dt * k3[1],
                   x2 + dt * k3[2], v2 + dt * k3[3])
        return (
            x1 + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
            v1 + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
            x2 + dt / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]),
            v2 + dt / 6 * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3]),
        )

    f_max = max(w1, w2, omega_d) / (2.0 * math.pi)
    dt = 1.0 / (steps_per_period * f_max)
    t_end = decay_times * max(2.0 / g1, 2.0 / g2)
    x1 = v1 = x2 = v2 = 0.0 + 0.0j
    t = 0.0
    for _ in range(int(t_end / dt) + 1):
        x1, v1, x2, v2 = rk4_step(t, dt, x1, v1, x2, v2)
        t += dt

    period = 2.0 * math.pi / omega_d
    m = max(int(round(period / dt)), 1)
    dt2 = period / m
    acc1 = acc2 = 0.0 + 0.0j
    for _ in range(4 * m):
        x1n, v1n, x2n, v2n = rk4_step(t, dt2, x1, v1, x2, v2)
        acc1 += 0.5 * (x1 * cmath.exp(1j * omega_d * t)
                       + x1n * cmath.exp(1j * omega_d * (t + dt2)))
        acc2 += 0.5 * (x2 * cmath.exp(1j * omega_d * t)
                       + x2n * cmath.exp(1j * omega_d * (t + dt2)))
        x1, v1, x2, v2 = x1n, v1n, x2n, v2n
        t += dt2
    return acc1 / (4 * m), acc2 / (4 * m)


def radial_fidelity(f_radial, l_f: int, g_radial, l_g: int,
                    r_max: float, n: int = 200_000) -> float:
    """Fidelity of two azimuthally pure fields f(r) e^{i l phi} by 1-D quadrature.

    Orthogonal azimuthal orders overlap to zero; equal orders reduce to radial
    integrals, evaluated with the trapezoid rule on a dense grid.
    """
    if l_f != l_g:
        return 0.0
    r = np.linspace(0.0, r_max, n)
    f = f_radial(r)
    g = g_radial(r)
    overlap = np.trapezoid(f * np.conj(g) * r, r)
    norm_f = np.trapezoid(np.abs(f) ** 2 * r, r)
    norm_g = np.trapezoid(np.abs(g) ** 2 * r, r)
    return float(abs(overlap) ** 2 / (norm_f * norm_g))


def lg_radial(p: int, l: int, w0: float):
    """Radial profile of LG_{p,l} at the waist (unnormalized)."""
    from scipy.special import eval_genlaguerre

    def profile(r):
        u = 2.0 * r**2 / w0**2
        return (np.sqrt(u) ** abs(l)) * eval_genlaguerre(p, abs(l), u) * np.exp(-(r**2) / w0**2)

    return profile


def random_stable_model(rng, mechanics_module):
    """Random damped, stable two-mode model in order-unity units."""
    w1 = rng.uniform(1.0, 2.0)
    w2 = rng.uniform(0.8, 1.25) * w1
    q1, q2 = rng.uniform(5.0, 30.0, size=2)
    m1, m2 = rng.uniform(0.5, 2.0, size=2)
    g = rng.uniform(0.0, 0.8) * math.sqrt(w1 * w2)
    return mechanics_module.CoupledOscillator(
        m1=m1, m2=m2, omega1=w1, omega2=w2,
        gamma1=w1 / q1, gamma2=w2 / q2, g_m=g,
    )


def grid_conversion_metrics(field_in, mask, target):
    """conversion_metrics (z_eval = 0) scoring each waist on a full 2-D grid.

    Every waist of the same golden-section search builds LG_{p,l} with
    make_lg and overlaps it with beams.fidelity, pixel by pixel.  Returns
    (fidelity, fidelity_fixed_waist, w0_opt).
    """
    from oamsense import beams

    out = beams.apply_mask(field_in, mask)

    def fid(w0):
        ref = beams.make_lg(out.n, out.pitch, out.lam, beams.LGIndex(target.p, target.l, w0))
        return beams.fidelity(out, ref)

    f_fixed = fid(target.w0)
    lo = max(0.3 * target.w0, 4.0 * field_in.pitch)
    w_opt = beams._golden_section(lambda w: -fid(w), lo, 3.0 * target.w0)
    f_opt = fid(w_opt)
    if f_fixed > f_opt:
        f_opt, w_opt = f_fixed, target.w0
    return f_opt, f_fixed, w_opt
