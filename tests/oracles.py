"""Independent oracles used by the test suite.

These deliberately avoid the library's fast code paths: the coupled-mode
response is integrated in the time domain with a fixed-step fourth-order
scheme, mode overlaps are evaluated by dense 1-D radial quadrature, and the
waist search of conversion_metrics is repeated on full 2-D reference modes
instead of the library's radial projection.  Raster export and spectral
upsampling keep their straightforward forms: one repr per cell, and the
zero-padded spectrum built and shifted as a centred array.  The budget
sweep, response curve and pillar layout are written row by row, with scalar
abs and np.angle per response point.  Dataset interpolation is done one l_s
at a time, re-sorting the branch's records and rebuilding each column for
every query.  The cavity dip is evaluated
point by point for finite-difference slopes, and an exported pillar layout
is read back with np.loadtxt.
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


def save_raster_per_cell(matrix, path) -> None:
    """Raster export formatting every cell with its own repr(float(v))."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in np.asarray(matrix):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def write_budget_sweep_per_row(path, axis_name, axis_values, budgets) -> None:
    """Budget sweep export formatting each row's cells with repr(float(v)),
    n_min left blank where it is None."""
    from oamsense import noise

    lines = [",".join((axis_name,) + noise.BUDGET_COLUMNS)]
    for x, b in zip(axis_values, budgets):
        cells = (x, b.tau_th, b.tau_sn, b.tau_dn, b.tau_ba, b.tau_min, b.p_min, b.n_min)
        lines.append(",".join("" if v is None else repr(float(v)) for v in cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def save_response_curve_per_row(curve, path) -> None:
    """Response-curve export taking scalar abs and np.angle of each point."""
    from oamsense import mechanics

    lines = [mechanics.RESPONSE_HEADER]
    for w, a1, a2 in zip(curve.omega, curve.x1, curve.x2):
        cells = (float(w) / (2.0 * math.pi), abs(a1), np.angle(a1), abs(a2), np.angle(a2))
        lines.append(",".join(repr(float(v)) for v in cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def export_layout_per_row(layout, path) -> None:
    """Layout export in (y, x) raster order, one repr per field of each pillar."""
    from oamsense import swg

    ordered = layout[np.lexsort((layout.x, layout.y))]
    lines = [swg.LAYOUT_HEADER] + [",".join(map(repr, row)) for row in ordered.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def fourier_upsample_centred(amps, factor):
    """Spectral zero padding on the fftshift-centred spectrum, shifting the
    padded array back before the 2-D inverse transform."""
    n = amps.shape[0]
    spectrum = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(amps)))
    big = np.zeros((n * factor, n * factor), dtype=np.complex128)
    lo = (n * factor - n) // 2
    big[lo:lo + n, lo:lo + n] = spectrum
    return np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(big))) * factor * factor


def interpolate_per_call(dataset, branch, l_s_um, q_m_override=None):
    """device.interpolate at one l_s, from the dataset's records alone.

    The branch's records are sorted and each field's column is rebuilt for
    the query, and np.interp runs on a scalar.  A tabulated l_s returns the
    stored record, or a copy with q_m replaced.
    """
    from oamsense import device

    recs = sorted((r for r in dataset.records if r.branch == branch),
                  key=lambda r: r.l_s_um)
    if not recs:
        raise device.DatasetError(f"branch {branch!r} not present")
    lo, hi = recs[0].l_s_um, recs[-1].l_s_um
    if not lo <= l_s_um <= hi:
        raise device.DatasetError(
            f"l_s = {l_s_um} um outside branch {branch!r} domain [{lo}, {hi}] um"
        )
    ls = np.array([r.l_s_um for r in recs])
    idx = int(np.searchsorted(ls, l_s_um))
    if idx < len(recs) and ls[idx] == l_s_um:
        hit = recs[idx]
        if q_m_override is None:
            return hit
        return device.MechanicalModeRecord(
            l_s_um=hit.l_s_um, w_h_um=hit.w_h_um, l_h_um=hit.l_h_um, branch=hit.branch,
            omega_m=hit.omega_m, m_eff=hit.m_eff, r_eff=hit.r_eff, q_m=q_m_override,
            g_om=hit.g_om,
        )

    def field(get):
        return float(np.interp(l_s_um, ls, np.array([get(r) for r in recs])))

    q_m = q_m_override if q_m_override is not None else field(lambda r: r.q_m)
    return device.MechanicalModeRecord(
        l_s_um=l_s_um,
        w_h_um=field(lambda r: r.w_h_um),
        l_h_um=field(lambda r: r.l_h_um),
        branch=branch,
        omega_m=field(lambda r: r.omega_m),
        m_eff=field(lambda r: r.m_eff),
        r_eff=field(lambda r: r.r_eff),
        q_m=q_m,
        g_om=field(lambda r: r.g_om),
    )


def transmission(readout, delta: float) -> float:
    """Dip transmission T(D) = 1 - d / (1 + (2 D / kappa)^2) at detuning D (rad/s)."""
    return 1.0 - readout.dip_depth / (1.0 + (2.0 * delta / readout.kappa) ** 2)


def load_layout(path):
    """Inverse of swg.export_layout: the LAYOUT_DTYPE record array of the file's rows."""
    from oamsense import swg

    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != swg.LAYOUT_HEADER:
            raise ValueError(f"bad layout header; expected {swg.LAYOUT_HEADER!r}")
        rows = np.loadtxt(fh, delimiter=",", dtype=swg.LAYOUT_DTYPE, ndmin=1)
    return rows.view(np.recarray)
