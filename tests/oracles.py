"""Independent oracles used by the test suite, and the closed forms that
only tests call: the single-oscillator susceptibility, the staircase vortex
mask and the power-to-torque map.

These deliberately avoid the library's fast code paths: the coupled-mode
response is integrated in the time domain with a fixed-step fourth-order
scheme, mode overlaps are evaluated by dense 1-D radial quadrature, and the
waist search of conversion_metrics is repeated as a fixed golden section,
on the radial projection or on full 2-D reference modes.  Raster export and
spectral upsampling keep their straightforward forms: one repr per cell,
and the zero-padded spectrum built and shifted as a centred array, or
padded in FFT order with every row of the full-size array transformed; the
azimuthal spectrum samples every ring at once and keeps every harmonic.
A pillar grating is scored on the whole grid: its n x n mask, the masked
field and the binning of every pixel at each wavelength.  LG modes, the
vortex mask and the pillar index are built from whole meshgrid arrays.
An LG radial profile is the full Laguerre * exp * sqrt(u)^|l| product at
every p.  The budget sweep, response curve and pillar layout are written
row by row, with scalar abs and np.angle per response point.  Dataset
interpolation is done one l_s at a time, re-sorting the branch's records
and rebuilding each column for every query, and the noise budget one
record at a time in Python floats, with math.sqrt and **.  The cavity dip
is evaluated point by point for finite-difference slopes, and an exported
pillar layout is read back with np.loadtxt.
"""

from __future__ import annotations

import cmath
import dataclasses
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


def susceptibility(omega, omega_i: float, gamma_i: float):
    """chi(omega) = (omega_i^2 - omega^2 - i gamma_i omega)^{-1}, in s^2.

    Accepts scalar or array omega.  For gamma_i = 0 an evaluation exactly at
    omega_i is a pole and raises mechanics.PoleError.
    """
    from oamsense import mechanics

    if not omega_i > 0.0:
        raise ValueError("omega_i must be > 0")
    omega = np.asarray(omega, dtype=float)
    den = omega_i**2 - omega**2 - 1j * gamma_i * omega
    if np.any(den == 0.0):
        raise mechanics.PoleError(f"undamped susceptibility pole at omega = {omega_i} rad/s")
    return 1.0 / den


def staircase_vortex_mask(n: int, pitch: float, delta_l: int, levels: int = 11) -> np.ndarray:
    """Spiral phase mask exp(i delta_l phi) about the grid centre, quantized
    to `levels` uniformly spaced phase steps.

    The leading azimuthal order of a `levels`-step staircase carries a power
    fraction sinc^2(pi / levels) of an input without azimuthal structure.
    """
    x = (np.arange(n) - n // 2) * pitch
    xx, yy = np.meshgrid(x, x, indexing="xy")
    phi = np.mod(delta_l * np.arctan2(yy, xx), 2.0 * math.pi)
    step = 2.0 * math.pi / levels
    quantized = np.round(phi / step) % levels * step
    return np.exp(1j * quantized)


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


def lg_radial_product(p: int, l: int, w0: float, r2):
    """Unnormalized LG_{p,l} radial profile at squared radii r2, with the
    generalized Laguerre polynomial evaluated for every p, p = 0 included."""
    from scipy.special import eval_genlaguerre

    u = 2.0 * r2 / w0**2
    radial = eval_genlaguerre(p, abs(l), u) * np.exp(-r2 / w0**2)
    if l != 0:
        radial = radial * np.sqrt(u) ** abs(l)
    return radial


def make_lg_meshgrid(n: int, pitch: float, lam: float, idx):
    """beams.make_lg on whole n x n arrays: the meshgrid pair, r^2, the
    radial profile of lg_radial_product, phi, the complex field, and its
    division by the square root of np.sum(np.abs(a) ** 2) * pitch^2."""
    from oamsense import beams

    beams._check_sampling(idx.w0, pitch)
    x = (np.arange(n) - n // 2) * pitch
    xx, yy = np.meshgrid(x, x, indexing="xy")
    radial = lg_radial_product(idx.p, idx.l, idx.w0, xx**2 + yy**2)
    if idx.l != 0:
        phi = np.arctan2(yy, xx)
        amps = radial * np.exp(1j * idx.l * phi)
    else:
        amps = radial.astype(np.complex128)
    p = float(np.sum(np.abs(amps) ** 2)) * pitch**2
    return beams.ScalarField(n=n, pitch=pitch, lam=lam, amps=amps / math.sqrt(p))


def vortex_mask_meshgrid(n: int, pitch: float, delta_l: int) -> np.ndarray:
    """beams.vortex_mask from the meshgrid pair."""
    x = (np.arange(n) - n // 2) * pitch
    xx, yy = np.meshgrid(x, x, indexing="xy")
    return np.exp(1j * delta_l * np.arctan2(yy, xx))


def pillar_index_meshgrid(layout, n: int, pitch: float):
    """swg.pillar_index with the footprint taken from the meshgrid pair and
    the query points gathered from it by the boolean footprint."""
    from scipy.spatial import cKDTree

    pos = np.column_stack([layout.x, layout.y])
    tree = cKDTree(pos)
    dists, _ = tree.query(pos[len(pos) // 2], k=2)
    lattice = float(dists[1])
    x = (np.arange(n) - n // 2) * pitch
    xx, yy = np.meshgrid(x, x, indexing="xy")
    r_sites = np.sqrt(np.sum(pos**2, axis=1))
    footprint = float(np.max(r_sites)) + lattice / 2.0
    inside = (xx**2 + yy**2) <= footprint**2
    _, nearest = tree.query(np.column_stack([xx[inside], yy[inside]]), k=1)
    return inside, nearest


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


def golden_section(fun, lo: float, hi: float, iters: int = 60) -> float:
    """Deterministic golden-section minimizer on [lo, hi]: the bracket shrinks
    by 1/phi per evaluation, 62 evaluations in all, whatever fun is."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def lg_fidelity_by_waist(field, p: int, l: int):
    """fidelity(field, make_lg(..., LGIndex(p, l, w0))) as a function of w0,
    by the library's radial projection of one field."""
    from oamsense import beams

    return beams._waist_fidelity(field.n, field.pitch, p, l)(
        field.amps.ravel(), float(np.sum(np.abs(field.amps) ** 2)))


def golden_section_waist(fid, target, pitch):
    """The waist search of conversion_metrics done by golden section: fid(w0)
    maximized over [max(0.3 w0, 4 pitch), 3 w0] about target.w0, the
    fixed-waist value kept when it is the better of the two.  Returns
    (fidelity, fidelity_fixed_waist, w0_opt)."""
    f_fixed = fid(target.w0)
    lo = max(0.3 * target.w0, 4.0 * pitch)
    w_opt = golden_section(lambda w: -fid(w), lo, 3.0 * target.w0)
    f_opt = fid(w_opt)
    if f_fixed > f_opt:
        f_opt, w_opt = f_fixed, target.w0
    return f_opt, f_fixed, w_opt


def grid_conversion_metrics(field_in, mask, target):
    """conversion_metrics (z_eval = 0) scoring each waist on a full 2-D grid.

    Every waist of a golden-section search builds LG_{p,l} with make_lg and
    overlaps it with beams.fidelity, pixel by pixel.  Returns (fidelity,
    fidelity_fixed_waist, w0_opt).
    """
    from oamsense import beams

    out = beams.apply_mask(field_in, mask)

    def fid(w0):
        ref = beams.make_lg(out.n, out.pitch, out.lam, beams.LGIndex(target.p, target.l, w0))
        return beams.fidelity(out, ref)

    return golden_section_waist(fid, target, field_in.pitch)


def waist_fidelity_full_grid(n, pitch, p, l):
    """beams._waist_fidelity over every pixel of the grid: bind(field) bins
    the whole n x n field and takes its power from the whole grid."""
    from oamsense import beams

    offsets = np.arange(n) - n // 2
    keys = (offsets[:, None] ** 2 + offsets[None, :] ** 2).ravel()
    phase = np.exp(-1j * l * np.arctan2(offsets[:, None], offsets[None, :])) if l != 0 else None
    counts = np.bincount(keys)
    present = np.flatnonzero(counts)
    counts = counts[present].astype(np.float64)
    r2 = present * pitch**2

    def bind(field):
        weighted = (field.amps * phase).ravel() if l != 0 else field.amps.ravel()
        proj = (np.bincount(keys, weights=weighted.real)[present]
                + 1j * np.bincount(keys, weights=weighted.imag)[present])
        power = float(np.sum(np.abs(field.amps) ** 2))

        def fid(w0):
            beams._check_sampling(w0, pitch)
            if power == 0.0:
                raise ValueError("zero-power field")
            radial = beams._lg_radial(p, l, w0, r2)
            ref_power = float(np.dot(counts, radial**2))
            if not math.isfinite(ref_power):
                raise ValueError(f"LG_({p},{l}) at w0 = {w0} is not finite on this grid")
            return float(np.abs(np.dot(radial, proj)) ** 2) / (power * ref_power)

        return fid

    return bind


def grating_scan_full_grid(design, lams, n, pitch, w0, z_eval=0.0):
    """beams.fidelity_vs_wavelength with every wavelength scored on the
    whole grid: the Gaussian and the pillar index built from meshgrid
    arrays, the n x n mask gathered, the input masked (and propagated) as an
    n x n field, every pixel binned, and the output kept.  Returns a list of
    ConversionMetrics, one per wavelength."""
    from oamsense import beams, swg

    layout = swg.generate_layout(design)
    index = pillar_index_meshgrid(layout, n, pitch)
    target = beams.LGIndex(p=0, l=design.delta_l * design.phase_sign, w0=w0)
    field_in = make_lg_meshgrid(n, pitch, lams[0], beams.LGIndex(p=0, l=0, w0=w0))
    p_in = field_in.total_power()
    by_waist = waist_fidelity_full_grid(n, pitch, target.p, target.l)
    lo = max(0.3 * target.w0, 4.0 * pitch)
    results = []
    for lam in lams:
        mask = swg.gather_mask(swg.retune_layout(design, layout, lam), index)
        out = beams.apply_mask(dataclasses.replace(field_in, lam=lam), mask)
        t_swg = out.total_power() / p_in
        if z_eval != 0.0:
            out = beams.propagate(out, z_eval)
        fid = by_waist(out)
        f_fixed = fid(target.w0)
        w_opt, f_neg = beams._brent_min(lambda w: -fid(w), lo, 3.0 * target.w0)
        f_opt = -f_neg
        if f_fixed > f_opt:
            f_opt, w_opt = f_fixed, target.w0
        results.append(beams.ConversionMetrics(
            fidelity=f_opt, fidelity_fixed_waist=f_fixed, w0_opt=w_opt, t_swg=t_swg,
            eta=f_opt * t_swg, output=out))
    return results


def save_raster_per_cell(matrix, path) -> None:
    """Raster export formatting every cell with its own repr(float(v))."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in np.asarray(matrix):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def write_budget_sweep_per_row(path, axis_name, axis_values, budgets) -> None:
    """Budget sweep export formatting each row's cells with repr(float(v)),
    n_min left blank where it is None.  `budgets` holds one array per field."""
    from oamsense import noise

    b = budgets
    lines = [",".join((axis_name,) + noise.BUDGET_COLUMNS)]
    for i, x in enumerate(axis_values):
        cells = (x, b.tau_th[i], b.tau_sn[i], b.tau_dn[i], b.tau_ba[i], b.tau_min[i],
                 b.p_min[i], None if b.n_min is None else b.n_min[i])
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


def fourier_upsample_all_rows(amps, factor):
    """Spectral zero padding in FFT order into the full-size array, whose
    every row, the zero ones too, goes through the axis-1 inverse transform."""
    n = amps.shape[0]
    big = np.zeros((n * factor, n * factor), dtype=np.complex128)
    rows = np.arange(n)
    rows[n // 2:] += n * factor - n
    big[np.ix_(rows, rows)] = np.fft.fft2(np.fft.ifftshift(amps))
    up = np.fft.ifft(np.fft.ifft(big, axis=1), axis=0)
    up *= factor * factor
    return np.fft.fftshift(up)


def azimuthal_spectrum_whole(field, l_values, up=None):
    """beams.azimuthal_spectrum with every step done on whole arrays: the
    all-row upsampling, every polar sample of every ring in one
    map_coordinates call per part, and the FFT of every ring kept.  `up`
    overrides the upsampling factor (2 up to n = 2048, else 1)."""
    from scipy.ndimage import map_coordinates

    l_values = np.asarray(list(l_values), dtype=int)
    total = field.total_power()
    n_theta = 1024
    if up is None:
        up = 2 if field.n <= 2048 else 1
    amps = fourier_upsample_all_rows(field.amps, up) if up > 1 else field.amps
    n = field.n * up
    pitch = field.pitch / up
    n_r = n // 2 - 1
    radii = (np.arange(n_r) + 0.5) * pitch
    theta = np.arange(n_theta) * (2.0 * math.pi / n_theta)
    rr = radii[:, None]
    cols = rr * np.cos(theta)[None, :] / pitch + n // 2
    rows = rr * np.sin(theta)[None, :] / pitch + n // 2
    coords = np.stack([rows.ravel(), cols.ravel()])
    polar = (
        map_coordinates(amps.real, coords, order=1, mode="nearest")
        + 1j * map_coordinates(amps.imag, coords, order=1, mode="nearest")
    ).reshape(n_r, n_theta)
    coeffs = np.fft.fft(polar, axis=1) / n_theta
    ring_weight = 2.0 * math.pi * radii * pitch
    fractions = np.empty(len(l_values))
    for i, l in enumerate(l_values):
        a_l = coeffs[:, l % n_theta]
        fractions[i] = float(np.sum(np.abs(a_l) ** 2 * ring_weight)) / total
    return fractions


def mode_record(**fields):
    """One device.MODE_DTYPE record from its nine fields, given by keyword."""
    from oamsense import device

    names = device.MODE_DTYPE.names
    if fields.keys() != set(names):
        raise TypeError(f"a mode record takes exactly the fields {', '.join(names)}")
    return np.array(tuple(fields[name] for name in names), dtype=device.MODE_DTYPE)[()]


def interpolate_per_call(dataset, branch, l_s_um, q_m_override=None):
    """device.interpolate at one l_s, from the dataset's records alone.

    The branch's rows are picked out and sorted for the query, and np.interp
    runs on a scalar once per field.  A tabulated l_s returns a copy of the
    stored row, with q_m replaced when an override is given.
    """
    from oamsense import device

    rows = [r for r in dataset.records.tolist() if r[3] == branch]
    rows = [dict(zip(device.MODE_DTYPE.names, r)) for r in sorted(rows, key=lambda r: r[0])]
    if not rows:
        raise device.DatasetError(f"branch {branch!r} not present")
    lo, hi = rows[0]["l_s_um"], rows[-1]["l_s_um"]
    if not lo <= l_s_um <= hi:
        raise device.DatasetError(
            f"l_s = {l_s_um} um outside branch {branch!r} domain [{lo}, {hi}] um"
        )
    ls = np.array([r["l_s_um"] for r in rows])
    idx = int(np.searchsorted(ls, l_s_um))
    if idx < len(rows) and ls[idx] == l_s_um:
        point = dict(rows[idx])
    else:
        point = {name: float(np.interp(l_s_um, ls, np.array([r[name] for r in rows])))
                 for name in ("w_h_um", "l_h_um", "omega_m", "m_eff", "r_eff", "q_m", "g_om")}
        point.update(l_s_um=l_s_um, branch=branch)
    if q_m_override is not None:
        point["q_m"] = q_m_override
    return mode_record(**point)


def torque_from_power(p_w: float, lambda_sig: float, delta_l: float,
                      eta_conv: float = 1.0) -> float:
    """Torque tau = eta_conv * delta_l * P / omega exerted by power P (W),
    the inverse of noise.power_from_torque."""
    from oamsense.constants import C

    if p_w < 0.0 or delta_l < 0.0 or eta_conv < 0.0:
        raise ValueError("arguments must be >= 0")
    return eta_conv * delta_l * p_w / (2.0 * math.pi * C / lambda_sig)


def budget_per_point(mode, readout, t_kelvin, beam, bandwidth_hz=1.0):
    """noise.budget of one device.MODE_DTYPE record, in Python floats.

    Every term is written out in the library's operation order with
    math.sqrt and **, so the result must match noise.budget bit for bit.
    """
    from oamsense import noise
    from oamsense.constants import C, HBAR, KB

    l_s_um, _, _, branch, omega_m, m_eff, r_eff, q_m, g_om = mode.item()
    if t_kelvin < 0.0:
        raise ValueError("temperature must be >= 0")
    if g_om == 0.0:
        raise ValueError(
            f"g_om = 0 for the {branch} mode at l_s = {l_s_um} um: "
            "the cavity does not transduce its motion, so no readout noise budget exists"
        )
    th = math.sqrt(4.0 * KB * t_kelvin * omega_m * m_eff * r_eff**2 / q_m)
    slope = noise.MAX_SLOPE_FACTOR * readout.dip_depth / readout.kappa

    def transduced(power_noise):
        return (m_eff * omega_m**2 * r_eff * power_noise
                / (slope * q_m * readout.p_det * g_om))

    sn = transduced(math.sqrt(2.0 * HBAR * readout.omega0 * readout.p_det / readout.eta_qe))
    dn = transduced(readout.p_dn)
    ba = 2.0 * HBAR * g_om * r_eff * math.sqrt(readout.n_cav / readout.kappa)
    tau_min = math.sqrt(th**2 + sn**2 + dn**2 + ba**2)
    scale = beam.eta_conv * beam.contrast * beam.delta_l
    p_min = math.inf if scale == 0.0 else tau_min * (2.0 * math.pi * C / beam.lambda_sig) / scale
    n_min = None
    if isinstance(beam.modulation, noise.PulseTrain):
        f_rep = beam.modulation.f_rep
        if f_rep is None:
            f_rep = omega_m / (2.0 * math.pi)
        if f_rep <= 0.0 or bandwidth_hz <= 0.0:
            raise ValueError("f_rep and bandwidth_hz must be > 0")
        n_min = (math.inf if scale == 0.0
                 else tau_min * math.sqrt(bandwidth_hz) / (scale * HBAR * f_rep))
    return noise.NoiseBudget(th, sn, dn, ba, tau_min, p_min, n_min)


def budget_columns_per_point(modes, readout, t_kelvin, beam, bandwidth_hz=1.0):
    """budget_per_point at each record of an array, stacked as noise.budget
    returns a grid: one array per field (n_min None for CW beams)."""
    from oamsense import noise

    points = [budget_per_point(m, readout, t_kelvin, beam, bandwidth_hz) for m in modes]
    columns = [np.array([getattr(b, name) for b in points], dtype=np.float64)
               for name in ("tau_th", "tau_sn", "tau_dn", "tau_ba", "tau_min", "p_min")]
    n_min = None
    if isinstance(beam.modulation, noise.PulseTrain):
        n_min = np.array([b.n_min for b in points], dtype=np.float64)
    return noise.NoiseBudget(*columns, n_min=n_min)


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
