"""Acceptance suite: one test per release criterion, each printing a
PASS line (visible with `pytest -s tests/test_acceptance.py`)."""

import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest

from oamsense import beams, cli, mechanics, noise, swg
from oracles import (lg_radial, mode_record, radial_fidelity, random_stable_model,
                     rk4_steady_state, staircase_vortex_mask, torque_from_power)

TWO_PI = 2.0 * math.pi


def report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_torque_power_conversion():
    """Torque <-> power conversion reproduces the operating power to 1%."""
    p_min = noise.power_from_torque(3.22e-21, 840e-9, 1.0, eta_conv=0.83)
    assert p_min == pytest.approx(8.70e-6, rel=0.01)
    tau_back = torque_from_power(p_min, 840e-9, 1.0, eta_conv=0.83)
    assert tau_back == pytest.approx(3.22e-21, rel=1e-12)
    report(1, f"p_min = {p_min:.4e} W/rtHz from tau = 3.22e-21 N m/rtHz (1%)")


def test_criterion_2_headline_budget(tmp_path):
    """CW preset: tau_min = 3.22e-21 at the operating l_s (5%), argmin near 10 um."""
    assert cli.main(["noise-sweep", "--preset", "paper-fig5",
                     "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "noise_sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [list(map(lambda v: float(v) if v else math.nan, r.split(",")))
            for r in lines[1:]]
    ls = np.array([r[header.index("l_s_um")] for r in rows])
    tau = np.array([r[header.index("tau_min")] for r in rows])
    at10 = int(np.argmin(np.abs(ls - 10.0)))
    assert tau[at10] == pytest.approx(3.22e-21, rel=0.05)
    argmin_ls = ls[int(np.argmin(tau))]
    assert abs(argmin_ls - 10.0) <= 1.0
    report(2, f"tau_min(10 um) = {tau[at10]:.4e}, argmin at l_s = {argmin_ls:g} um")


def test_criterion_3_pulsed_photon_number(tmp_path):
    """Pulsed preset: n_min within 2x of 3.9e3; interior n_cav optimum."""
    assert cli.main(["pulse-budget", "--preset", "paper-fig8",
                     "--out", str(tmp_path)]) == 0

    def col(name, fname):
        lines = (tmp_path / fname).read_text().splitlines()
        i = lines[0].split(",").index(name)
        return np.array([float(r.split(",")[i]) for r in lines[1:]])

    n_ls = col("n_min", "pulse_ls_sweep.csv")
    n_nc = col("n_min", "pulse_ncav_sweep.csv")
    best = min(np.min(n_ls), np.min(n_nc))
    assert 3.9e3 / 2.0 <= best <= 3.9e3 * 2.0
    i = int(np.argmin(n_nc))
    assert 0 < i < len(n_nc) - 1
    report(3, f"min n_min = {best:.0f} photons/pulse; interior n_cav optimum "
              f"at index {i} of {len(n_nc)}")


def test_criterion_4_mechanics_oracle_equivalence():
    """50 random stable models: frequency response matches time stepping."""
    rng = np.random.default_rng(20240809)
    worst_amp = worst_phase = 0.0
    for _ in range(50):
        model = random_stable_model(rng, mechanics)
        omega_d = rng.uniform(0.5, 1.3) * max(model.omega1, model.omega2)
        curve = mechanics.response_curve(model, 1.0, [omega_d])
        xf = (curve.x1[0], curve.x2[0])
        xt = rk4_steady_state(model, 1.0, omega_d)
        for f, t in zip(xf, xt):
            if f == 0.0:
                assert abs(t) < 1e-12
                continue
            worst_amp = max(worst_amp, abs(abs(t) / abs(f) - 1.0))
            worst_phase = max(worst_phase, abs(cmath.phase(t / f)))
    assert worst_amp < 1e-3
    assert worst_phase < 1e-3
    report(4, f"50 models: worst amplitude error {worst_amp:.2e}, "
              f"worst phase error {worst_phase:.2e} rad")


def test_criterion_5_anticrossing_algebra():
    """Degenerate splitting 2 g^2 to machine precision; exact fit round trip."""
    w0, g = 2.0 * math.pi * 5.96e6, 2.0 * math.pi * 1.2e6
    model = mechanics.CoupledOscillator(m1=1.0, m2=1.0, omega1=w0, omega2=w0, g_m=g)
    lo, hi = mechanics.hybrid_frequencies(model)
    assert hi**2 - lo**2 == pytest.approx(2.0 * g**2, rel=1e-13)

    g_true = TWO_PI * 0.5e6
    intercept, slope = TWO_PI * 11.71e6, -TWO_PI * 0.575e6
    omega2 = TWO_PI * 5.96e6
    rows = []
    for ls in np.arange(8.0, 12.5, 0.5):
        m = mechanics.CoupledOscillator(
            m1=1.0, m2=1.0, omega1=intercept + slope * ls, omega2=omega2, g_m=g_true)
        lo_f, hi_f = mechanics.hybrid_frequencies(m)
        rows.append((ls, lo_f, hi_f))
    fit = mechanics.fit_gm(np.asarray(rows), (intercept * 1.05, slope * 0.9), omega2)
    assert fit.g_m == pytest.approx(g_true, rel=1e-6)
    report(5, f"splitting exact; fit recovers g_m to {abs(fit.g_m / g_true - 1):.1e}")


def test_criterion_6_two_peak_response(tmp_path):
    """Response preset places the nanobeam peaks at 4.81 / 5.96 MHz."""
    assert cli.main(["mech-response", "--preset", "paper-fig2b",
                     "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "response.csv").read_text().splitlines()
    cols = lines[0].split(",")
    data = np.array([[float(v) for v in r.split(",")] for r in lines[1:]])
    f = data[:, cols.index("omega_hz")]
    x2 = data[:, cols.index("abs_x2_m")]
    step = f[1] - f[0]
    d = np.diff(x2)
    peaks = [i + 1 for i in range(len(d) - 1) if d[i] > 0 >= d[i + 1]]
    assert len(peaks) == 2
    assert abs(f[peaks[0]] - 4.81e6) <= step
    assert abs(f[peaks[1]] - 5.96e6) <= step
    report(6, f"peaks at {f[peaks[0]] / 1e6:.3f} and {f[peaks[1]] / 1e6:.3f} MHz "
              f"(grid step {step:.0f} Hz)")


def test_criterion_7_beam_optics_oracles():
    """Unitarity 1e-10; Rayleigh-range expansion 1%; vortex fidelity pi/4."""
    n, pitch, lam, w0 = 1024, 50e-9, 840e-9, 5e-6
    g = beams.make_gaussian(n, pitch, lam, w0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prop = beams.propagate(g, 40e-6)
    assert prop.total_power() == pytest.approx(g.total_power(), rel=1e-10)

    n2, pitch2, w2 = 512, 0.8e-6, 20e-6
    g2 = beams.make_gaussian(n2, pitch2, lam, w2)
    z_r = math.pi * w2**2 / lam
    out = beams.propagate(g2, z_r)
    xx, yy = np.meshgrid(out.axis(), out.axis(), indexing="xy")
    intensity = np.abs(out.amps) ** 2
    w_measured = math.sqrt(2.0 * float(np.sum(intensity * (xx**2 + yy**2))
                                       / np.sum(intensity)))
    assert w_measured == pytest.approx(w2 * math.sqrt(2.0), rel=0.01)

    masked = beams.apply_mask(g, beams.vortex_mask(n, pitch, 1))
    lg01 = beams.make_lg(n, pitch, lam, beams.LGIndex(0, 1, w0))
    f_grid = beams.fidelity(masked, lg01)
    f_oracle = radial_fidelity(lambda r: np.exp(-(r**2) / w0**2), 1,
                               lg_radial(0, 1, w0), 1, 8.0 * w0)
    assert f_grid == pytest.approx(math.pi / 4.0, abs=0.01)
    assert f_oracle == pytest.approx(math.pi / 4.0, abs=1e-4)
    assert f_grid == pytest.approx(f_oracle, rel=0.01)
    report(7, f"unitary; w(z_R)/w0 = {w_measured / w2:.4f}; "
              f"F(vortex, LG01) = {f_grid:.4f} vs pi/4")


def test_criterion_8_swg_model_fidelity():
    """Default pillar design: F within 0.10 of 0.90, eta within 0.10 of 0.83,
    11-level azimuthal purity >= 0.95."""
    n, pitch, lam, w0 = 1024, 50e-9, 840e-9, 5e-6
    design = swg.SWGDesign()
    layout = swg.generate_layout(design)
    mask = swg.layout_to_mask(layout, n, pitch)
    field_in = beams.make_gaussian(n, pitch, lam, w0)
    metrics = beams.conversion_metrics(field_in, mask, beams.LGIndex(0, 1, w0))
    assert abs(metrics.fidelity - 0.90) <= 0.10
    assert abs(metrics.eta - 0.83) <= 0.10

    out = beams.apply_mask(field_in, mask)
    frac = beams.azimuthal_spectrum(out, [1])[0]
    assert frac >= 0.95
    stair = beams.apply_mask(field_in, staircase_vortex_mask(n, pitch, 1, 11))
    frac_stair = beams.azimuthal_spectrum(stair, [1])[0]
    assert frac_stair == pytest.approx((math.sin(math.pi / 11) / (math.pi / 11)) ** 2,
                                       abs=5e-3)
    report(8, f"F = {metrics.fidelity:.3f}, eta = {metrics.eta:.3f}, "
              f"l=1 purity {frac:.3f} (staircase bound {frac_stair:.3f})")


def test_criterion_9_noise_budget_identities():
    """Quadrature identity exact; scaling laws hold to 1e-12 on random inputs."""
    rng = np.random.default_rng(99)
    beam = noise.SignalBeam(lambda_sig=840e-9, delta_l=1.0)
    checks = 0
    for _ in range(25):
        mode = mode_record(
            l_s_um=10.0, w_h_um=7.0, l_h_um=1.0,
            branch="twist-like",
            omega_m=TWO_PI * rng.uniform(1e6, 1e7),
            m_eff=rng.uniform(1e-15, 1e-12),
            r_eff=rng.uniform(1e-7, 1e-4),
            q_m=rng.uniform(1e3, 1e8),
            g_om=TWO_PI * rng.uniform(1e17, 1e20),
        )
        readout = noise.OpticalReadout(
            lambda0=1.428e-6, q_o=rng.uniform(1e5, 1e7),
            p_det=rng.uniform(1e-9, 1e-5), p_dn=rng.uniform(1e-17, 1e-11),
            n_cav=rng.uniform(1e-6, 1.0))
        t_k = rng.uniform(0.001, 300.0)
        b = noise.budget(mode, readout, t_k, beam)
        assert b.tau_min == math.sqrt(b.tau_th**2 + b.tau_sn**2
                                      + b.tau_dn**2 + b.tau_ba**2)

        r2 = mode.copy()
        r2["r_eff"] = 2.0 * mode["r_eff"]
        assert noise.tau_thermal(r2, t_k) == pytest.approx(
            2.0 * noise.tau_thermal(mode, t_k), rel=1e-12)
        for fn in (noise.tau_shot, noise.tau_detector, noise.tau_backaction):
            assert fn(r2, readout) == pytest.approx(2.0 * fn(mode, readout), rel=1e-12)
        q4 = mode.copy()
        q4["q_m"] = 4.0 * mode["q_m"]
        assert noise.tau_thermal(q4, t_k) == pytest.approx(
            0.5 * noise.tau_thermal(mode, t_k), rel=1e-12)
        assert noise.tau_shot(q4, readout) == pytest.approx(
            0.25 * noise.tau_shot(mode, readout), rel=1e-12)
        assert noise.tau_thermal(mode, 4.0 * t_k) == pytest.approx(
            2.0 * noise.tau_thermal(mode, t_k), rel=1e-12)
        n4 = dataclasses.replace(readout, n_cav=4.0 * readout.n_cav)
        assert noise.tau_backaction(mode, n4) == pytest.approx(
            2.0 * noise.tau_backaction(mode, readout), rel=1e-12)
        checks += 1
    assert checks == 25
    report(9, "quadrature identity exact; r_eff, Q_m, T, n_cav scalings at 1e-12")
