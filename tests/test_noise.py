import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oamsense import device, noise
from oamsense.constants import C, HBAR, KB
from oracles import (budget_per_point, mode_record, torque_from_power, transmission,
                     write_budget_sweep_per_row)

TWO_PI = 2.0 * math.pi


def make_mode(omega_hz=5e6, m_eff=27e-15, r_eff=1e-6, q_m=1e6, g_om_hz_per_m=32e18):
    return mode_record(
        l_s_um=10.0, w_h_um=7.0, l_h_um=1.0,
        branch="bounce-like",
        omega_m=TWO_PI * omega_hz,
        m_eff=m_eff,
        r_eff=r_eff,
        q_m=q_m,
        g_om=TWO_PI * g_om_hz_per_m,
    )


def make_readout(**kw):
    defaults = dict(lambda0=1.428e-6, q_o=1e6, p_det=1e-7, dip_depth=1.0,
                    eta_qe=1.0, p_dn=2.5e-12, n_cav=0.0)
    defaults.update(kw)
    return noise.OpticalReadout(**defaults)


def random_mode(rng):
    return make_mode(
        omega_hz=rng.uniform(1e6, 1e7),
        m_eff=rng.uniform(1e-15, 1e-12),
        r_eff=rng.uniform(1e-7, 1e-4),
        q_m=rng.uniform(1e3, 1e8),
        g_om_hz_per_m=rng.uniform(1e17, 1e20),
    )


class TestTorquePower:
    def test_zero_delta_l(self):
        assert torque_from_power(1.0, 840e-9, 0.0) == 0.0

    def test_inverse_of_operating_power(self):
        tau = torque_from_power(8.70e-6, 840e-9, 1.0, eta_conv=0.83)
        assert tau == pytest.approx(3.22e-21, rel=1e-3)

    def test_one_watt(self):
        omega = TWO_PI * C / 840e-9
        assert torque_from_power(1.0, 840e-9, 1.0) == pytest.approx(1.0 / omega)
        assert torque_from_power(1.0, 840e-9, 1.0) == pytest.approx(4.4594e-16, rel=1e-4)

    def test_round_trip(self):
        tau = 2.5e-21
        p = noise.power_from_torque(tau, 840e-9, 3.0, eta_conv=0.7)
        assert torque_from_power(p, 840e-9, 3.0, eta_conv=0.7) == pytest.approx(tau, rel=1e-14)

    def test_power_diverges_without_conversion(self):
        assert noise.power_from_torque(1e-21, 840e-9, 0.0) == math.inf

    def test_partial_modulation_contrast(self):
        ds = device.load_sample_dataset()
        mode = device.interpolate(ds, "twist-like", 10.0, q_m_override=1e6)
        full = noise.SignalBeam(lambda_sig=840e-9, delta_l=1.0, eta_conv=0.83)
        half = noise.SignalBeam(lambda_sig=840e-9, delta_l=1.0, eta_conv=0.83,
                                contrast=0.5)
        b_full = noise.budget(mode, make_readout(), 4.0, full)
        b_half = noise.budget(mode, make_readout(), 4.0, half)
        assert b_half.tau_min == b_full.tau_min
        assert b_half.p_min == pytest.approx(2.0 * b_full.p_min, rel=1e-12)


class TestTauThermal:
    def test_zero_temperature(self):
        assert noise.tau_thermal(make_mode(), 0.0) == 0.0

    def test_reference_value(self):
        # direct evaluation: T = 4 K, f = 5 MHz, m = 27 pg, r = 1 um, Q = 1e6
        mode = make_mode()
        expected = math.sqrt(4 * KB * 4.0 * TWO_PI * 5e6 * 27e-15 * 1e-12 / 1e6)
        got = noise.tau_thermal(mode, 4.0)
        assert got == pytest.approx(expected, rel=1e-15)
        assert got == pytest.approx(1.3689e-23, rel=1e-4)

    def test_scalings(self):
        mode = make_mode()
        assert noise.tau_thermal(mode, 16.0) == pytest.approx(
            2.0 * noise.tau_thermal(mode, 4.0), rel=1e-12)
        stiff = make_mode(q_m=1e8)
        assert noise.tau_thermal(stiff, 4.0) == pytest.approx(
            noise.tau_thermal(mode, 4.0) / 10.0, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        omega_hz=st.floats(1e5, 1e8), m_eff=st.floats(1e-16, 1e-11),
        r_eff=st.floats(1e-8, 1e-3), q_m=st.floats(1.0, 1e9),
        temps=st.lists(st.floats(0.0, 1e3), min_size=2, max_size=2),
    )
    def test_monotone_in_temperature(self, omega_hz, m_eff, r_eff, q_m, temps):
        mode = make_mode(omega_hz=omega_hz, m_eff=m_eff, r_eff=r_eff, q_m=q_m)
        t_lo, t_hi = sorted(temps)
        assert noise.tau_thermal(mode, t_lo) <= noise.tau_thermal(mode, t_hi)


class TestTransmissionSlope:
    def test_max_slope_matches_numeric_scan(self):
        # independent oracle: finite differences over a dense detuning grid
        readout = make_readout()
        deltas = np.linspace(-2 * readout.kappa, 2 * readout.kappa, 400001)
        t_vals = np.array([transmission(readout, d) for d in deltas])
        slopes = np.abs(np.gradient(t_vals, deltas))
        assert noise.transmission_slope(readout) == pytest.approx(np.max(slopes), rel=1e-6)
        # the steepest point sits at D = +- kappa / (2 sqrt 3)
        d_star = readout.kappa / (2.0 * math.sqrt(3.0))
        step = deltas[1] - deltas[0]
        assert abs(abs(deltas[np.argmax(slopes)]) - d_star) <= step

    def test_reference_value(self):
        readout = make_readout()
        assert readout.kappa == pytest.approx(1.319e9, rel=1e-3)
        assert noise.transmission_slope(readout) == pytest.approx(9.848e-10, rel=1e-3)

    def test_depth_and_qo_scaling(self):
        full = make_readout()
        half_q = make_readout(q_o=5e5)
        assert noise.transmission_slope(half_q) == pytest.approx(
            0.5 * noise.transmission_slope(full), rel=1e-12)
        shallow = make_readout(dip_depth=0.5)
        assert noise.transmission_slope(shallow) == pytest.approx(
            0.5 * noise.transmission_slope(full), rel=1e-12)


class TestTauShot:
    def test_psd_reference(self):
        readout = make_readout(p_det=1e-7, eta_qe=1.0)
        s = noise.shot_noise_psd(readout)
        assert s == pytest.approx(2.782e-26, rel=1e-3)
        assert math.sqrt(s) == pytest.approx(1.668e-13, rel=1e-3)

    def test_quantum_efficiency_scaling(self):
        mode = make_mode()
        base = noise.tau_shot(mode, make_readout(eta_qe=1.0))
        lossy = noise.tau_shot(mode, make_readout(eta_qe=0.25))
        assert lossy == pytest.approx(2.0 * base, rel=1e-12)

    def test_hand_evaluation(self):
        # spreadsheet-style re-derivation, independent of the library helpers
        mode = make_mode()
        readout = make_readout()
        omega0 = TWO_PI * C / 1.428e-6
        kappa = omega0 / 1e6
        slope = (3.0 * math.sqrt(3.0) / 4.0) / kappa
        s_sn = 2.0 * HBAR * omega0 * 1e-7
        by_hand = (
            27e-15 * (TWO_PI * 5e6) ** 2 * 1e-6 * math.sqrt(s_sn)
            / (slope * 1e6 * 1e-7 * (TWO_PI * 32e18))
        )
        assert noise.tau_shot(mode, readout) == pytest.approx(by_hand, rel=1e-12)


class TestTauDetector:
    def test_ratio_to_shot(self):
        mode = make_mode()
        for p_dn in (2.5e-12, 3.8e-17):
            readout = make_readout(p_dn=p_dn)
            ratio = noise.tau_detector(mode, readout) / noise.tau_shot(mode, readout)
            assert ratio == pytest.approx(p_dn / math.sqrt(noise.shot_noise_psd(readout)),
                                          rel=1e-12)


class TestTauBackaction:
    def test_zero_photons(self):
        assert noise.tau_backaction(make_mode(), make_readout(n_cav=0.0)) == 0.0

    def test_reference_value(self):
        mode = make_mode(g_om_hz_per_m=32e18, r_eff=1e-6)
        readout = make_readout(n_cav=1e-3)
        assert noise.tau_backaction(mode, readout) == pytest.approx(3.6923e-26, rel=1e-4)

    def test_sqrt_scaling(self):
        mode = make_mode()
        lo = noise.tau_backaction(mode, make_readout(n_cav=1e-3))
        hi = noise.tau_backaction(mode, make_readout(n_cav=1e-1))
        assert hi == pytest.approx(10.0 * lo, rel=1e-12)


class TestBudget:
    def test_pythagorean_combination(self):
        assert noise.quadrature_tau_min(3e-21, 4e-21, 0.0, 0.0) == pytest.approx(
            5e-21, rel=1e-15)

    def test_quadrature_identity(self):
        rng = np.random.default_rng(7)
        beam = noise.SignalBeam(lambda_sig=840e-9, delta_l=1.0)
        for _ in range(20):
            mode = random_mode(rng)
            readout = make_readout(n_cav=rng.uniform(0.0, 1.0))
            b = noise.budget(mode, readout, rng.uniform(0.0, 300.0), beam)
            recomputed = math.sqrt(b.tau_th**2 + b.tau_sn**2 + b.tau_dn**2 + b.tau_ba**2)
            assert b.tau_min == recomputed

    def test_operating_point_headline(self):
        ds = device.load_sample_dataset()
        mode = device.interpolate(ds, "twist-like", 10.0, q_m_override=1e6)
        beam = noise.SignalBeam(lambda_sig=840e-9, delta_l=1.0, eta_conv=0.83)
        b = noise.budget(mode, make_readout(), 4.0, beam)
        assert b.tau_min == pytest.approx(3.22e-21, rel=1e-6)
        assert b.p_min == pytest.approx(8.70e-6, rel=1e-2)
        assert b.n_min is None

    def test_sweep_minimizes_at_crossing(self):
        ds = device.load_sample_dataset()
        beam = noise.SignalBeam(lambda_sig=840e-9, delta_l=1.0, eta_conv=0.83)
        taus = {}
        for ls in np.arange(8.0, 18.25, 0.25):
            mode = device.interpolate(ds, "twist-like", ls, q_m_override=1e6)
            taus[ls] = noise.budget(mode, make_readout(), 4.0, beam).tau_min
        assert min(taus, key=taus.get) == pytest.approx(10.0, abs=0.5)

    def test_p_min_round_trip(self):
        ds = device.load_sample_dataset()
        mode = device.interpolate(ds, "twist-like", 10.0, q_m_override=1e6)
        beam = noise.SignalBeam(lambda_sig=840e-9, delta_l=1.0, eta_conv=0.83)
        b = noise.budget(mode, make_readout(), 4.0, beam)
        back = torque_from_power(b.p_min, beam.lambda_sig, beam.delta_l, beam.eta_conv)
        assert back == pytest.approx(b.tau_min, rel=1e-14)

    def test_scaling_properties(self):
        # every component is linear in r_eff; tau_th ~ Q^-1/2; sn, dn ~ Q^-1
        rng = np.random.default_rng(13)
        for _ in range(20):
            mode = random_mode(rng)
            readout = make_readout(n_cav=rng.uniform(1e-6, 1.0))
            doubled = mode.copy()
            doubled["r_eff"] = 2.0 * mode["r_eff"]
            for fn in (noise.tau_thermal, ):
                assert fn(doubled, 4.0) == pytest.approx(2.0 * fn(mode, 4.0), rel=1e-12)
            for fn in (noise.tau_shot, noise.tau_detector, noise.tau_backaction):
                assert fn(doubled, readout) == pytest.approx(2.0 * fn(mode, readout), rel=1e-12)
            qx = mode.copy()
            qx["q_m"] = 100.0 * mode["q_m"]
            assert noise.tau_thermal(qx, 4.0) == pytest.approx(
                noise.tau_thermal(mode, 4.0) / 10.0, rel=1e-12)
            assert noise.tau_shot(qx, readout) == pytest.approx(
                noise.tau_shot(mode, readout) / 100.0, rel=1e-12)
            assert noise.tau_detector(qx, readout) == pytest.approx(
                noise.tau_detector(mode, readout) / 100.0, rel=1e-12)


class TestPulsed:
    def pulsed_setup(self, delta_l=10.0):
        ds = device.load_sample_dataset()
        mode = device.interpolate(ds, "twist-like", 10.0, q_m_override=1e8)
        readout = noise.readout_at_ncav(
            make_readout(p_dn=3.8e-17, p_det=1.0), 1e-3)
        beam = noise.SignalBeam(lambda_sig=840e-9, delta_l=delta_l, eta_conv=1.0,
                                modulation=noise.PulseTrain())
        return mode, readout, beam

    def test_min_photons_scaling_and_identity(self):
        beam10 = noise.SignalBeam(lambda_sig=840e-9, delta_l=10.0,
                                  modulation=noise.PulseTrain())
        beam20 = noise.SignalBeam(lambda_sig=840e-9, delta_l=20.0,
                                  modulation=noise.PulseTrain())
        tau = 1.6e-23
        assert noise.min_photons_per_pulse(tau, beam20, 5.96e6) == pytest.approx(
            0.5 * noise.min_photons_per_pulse(tau, beam10, 5.96e6), rel=1e-12)
        # inverse pair: photons -> power -> torque -> photons, with the
        # resonant power of the pulse train P = n hbar omega_sig f_rep
        n = 12345.0
        f_rep = 5.96e6
        p = n * HBAR * beam10.omega_sig * f_rep
        tau_n = torque_from_power(p, beam10.lambda_sig, beam10.delta_l, beam10.eta_conv)
        assert noise.min_photons_per_pulse(tau_n, beam10, f_rep) == pytest.approx(n, rel=1e-12)

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0])
    def test_min_photons_rejects_nonpositive_bandwidth(self, bandwidth):
        beam = noise.SignalBeam(lambda_sig=840e-9, delta_l=10.0, modulation=noise.PulseTrain())
        with pytest.raises(ValueError, match="bandwidth_hz must be > 0"):
            noise.min_photons_per_pulse(1.6e-23, beam, 5.96e6, bandwidth_hz=bandwidth)

    def test_idealized_photon_number(self):
        mode, readout, beam = self.pulsed_setup()
        b = noise.budget(mode, readout, 0.01, beam)
        assert b.n_min is not None
        assert 3.9e3 / 2.0 <= b.n_min <= 3.9e3 * 2.0

    def test_detector_below_thermal_in_idealized_preset(self):
        mode, readout, beam = self.pulsed_setup()
        b = noise.budget(mode, readout, 0.01, beam)
        assert b.tau_dn < b.tau_th

    def test_ncav_optimum_interior_near_nominal(self):
        mode, readout, beam = self.pulsed_setup()
        grid = np.logspace(-5, -1, 41)
        scan = noise.optimize_ncav(mode, readout, 0.01, beam, grid)
        assert 0 < scan.best_index < len(grid) - 1
        assert 1e-3 / 3.0 <= scan.best_n_cav <= 1e-3 * 3.0

    def test_ncav_monotone_without_backaction(self):
        mode, readout, beam = self.pulsed_setup()
        feeble = mode.copy()
        feeble["g_om"] = 1e-3
        scan = noise.optimize_ncav(feeble, readout, 0.01, beam, np.logspace(-5, -1, 21))
        assert np.all(np.diff(scan.n_min) <= 1e-9 * scan.n_min[:-1])

    def test_ncav_single_point_grid(self):
        mode, readout, beam = self.pulsed_setup()
        scan = noise.optimize_ncav(mode, readout, 0.01, beam, [1e-3])
        assert scan.best_n_cav == 1e-3 and len(scan.n_min) == 1

    def test_optimize_requires_pulse_beam(self):
        mode, readout, _ = self.pulsed_setup()
        cw = noise.SignalBeam(lambda_sig=840e-9, delta_l=1.0)
        with pytest.raises(ValueError, match="pulse"):
            noise.optimize_ncav(mode, readout, 0.01, cw, [1e-3])


class TestZeroCoupling:
    def test_record_allowed_budget_rejected(self):
        mode = make_mode(g_om_hz_per_m=0.0)
        beam = noise.SignalBeam(lambda_sig=840e-9, delta_l=1.0)
        with pytest.raises(ValueError, match="g_om"):
            noise.budget(mode, make_readout(), 4.0, beam)

    def test_grid_names_first_uncoupled_point(self):
        modes = np.array([make_mode(g_om_hz_per_m=g) for g in (1e18, 0.0, 0.0)])
        modes["l_s_um"] = (9.0, 9.5, 10.0)
        beam = noise.SignalBeam(lambda_sig=840e-9, delta_l=1.0)
        with pytest.raises(ValueError, match="g_om = 0 for the bounce-like mode at l_s = 9.5 um"):
            noise.budget(modes, make_readout(), 4.0, beam)


def _hex(b):
    values = (b.tau_th, b.tau_sn, b.tau_dn, b.tau_ba, b.tau_min, b.p_min, b.n_min)
    return tuple(None if v is None else float(v).hex() for v in values)


_MODES = st.lists(st.builds(
    make_mode, omega_hz=st.floats(1e5, 1e8), m_eff=st.floats(1e-16, 1e-11),
    r_eff=st.floats(1e-8, 1e-3), q_m=st.floats(1.0, 1e9),
    g_om_hz_per_m=st.floats(1e15, 1e21)), min_size=1, max_size=30)


class TestColumnarBudget:
    """budget over a grid's columns against the per-point Python-float oracle."""

    # each case pins the parameter it covers; the rest are drawn at random
    CASES = {
        "cw": {},
        "pulse-auto-f_rep": {"modulation": noise.PulseTrain()},
        "pulse-explicit-f_rep": {"modulation": noise.PulseTrain(4.2e6)},
        "no-conversion": {"delta_l": 0.0, "modulation": noise.PulseTrain()},
        "no-backaction": {"n_cav": 0.0},
        "no-detector-noise": {"p_dn": 0.0},
    }

    @pytest.mark.parametrize("case", CASES)
    @settings(max_examples=40, deadline=None)
    @given(modes=_MODES, t_k=st.floats(0.0, 300.0), bandwidth=st.floats(0.01, 1e4),
           q_o=st.floats(1e3, 1e8), p_det=st.floats(1e-12, 1e-3),
           fractions=st.lists(st.floats(1e-3, 1.0), min_size=4, max_size=4),
           p_dn=st.floats(1e-18, 1e-10), n_cav=st.floats(1e-6, 1.0),
           delta_l=st.floats(0.5, 20.0))
    def test_matches_per_point_oracle(self, case, modes, t_k, bandwidth, q_o, p_det,
                                      fractions, p_dn, n_cav, delta_l):
        over = self.CASES[case]
        dip, eta_qe, eta_conv, contrast = fractions
        readout = make_readout(q_o=q_o, p_det=p_det, dip_depth=dip, eta_qe=eta_qe,
                               p_dn=over.get("p_dn", p_dn), n_cav=over.get("n_cav", n_cav))
        beam = noise.SignalBeam(lambda_sig=840e-9, delta_l=over.get("delta_l", delta_l),
                                eta_conv=eta_conv, contrast=contrast,
                                modulation=over.get("modulation", noise.CwModulation()))
        got = noise.budget(np.array(modes), readout, t_k, beam, bandwidth)
        want = [budget_per_point(m, readout, t_k, beam, bandwidth) for m in modes]
        assert [_hex(got.at(i)) for i in range(len(modes))] == [_hex(b) for b in want]
        assert [_hex(noise.budget(m, readout, t_k, beam, bandwidth)) for m in modes] == \
            [_hex(b) for b in want]
        if case == "no-conversion":
            assert np.all(got.p_min == math.inf) and np.all(got.n_min == math.inf)


# 0.9827323782383632 is one of the inputs where x * x and libm pow round apart
@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
@example([0.9827323782383632, 1.3350340678102797, 1e200, -3.0, 5e-324])
def test_square_has_python_pow_bits(values):
    # The byte-identical outputs were written with Python's x ** 2, which
    # calls libm pow; NumPy's x ** 2 computes x * x, whose last bit differs
    # from pow's for some inputs, so the budget squares with _square.
    def py_square(x):
        try:
            return x**2
        except OverflowError:
            return math.inf

    want = [py_square(v).hex() for v in values]
    with np.errstate(over="ignore"):
        assert [float(v).hex() for v in noise._square(np.array(values))] == want
        assert [float(noise._square(v)).hex() for v in values] == want


class TestSweepExport:
    def test_blank_n_min_for_cw(self, tmp_path):
        modes = np.array([make_mode()])
        beam = noise.SignalBeam(lambda_sig=840e-9, delta_l=1.0)
        budgets = noise.budget(modes, make_readout(), 4.0, beam)
        path = tmp_path / "sweep.csv"
        noise.write_budget_sweep(path, "l_s_um", [10.0], budgets)
        lines = path.read_text().splitlines()
        assert lines[0] == noise.BUDGET_SWEEP_HEADER
        assert lines[1].endswith(",")  # empty n_min column

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*[st.floats()] * 8)), st.booleans())
    @example([], True)
    @example([(-0.0, math.inf, -math.inf, math.nan, -0.0, 5e-324, -2.2250738585072014e-308,
               0.0),
              (10.0, 0.0, 1.0, 1.0, 1e300, -1e-300, 1.0, math.nan)], True)
    @example([(-0.0, math.inf, -math.inf, math.nan, -0.0, 5e-324, -2.2250738585072014e-308,
               -0.0),
              (10.0, 0.0, 1.0, 1.0, 1e300, -1e-300, 1.0, math.nan)], False)
    def test_file_matches_per_row_oracle(self, rows, cw):
        axis, *columns, n_min = np.array(rows, dtype=np.float64).reshape(len(rows), 8).T
        budgets = noise.NoiseBudget(*columns, n_min=None if cw else n_min)
        with tempfile.TemporaryDirectory() as tmp:
            fast, slow = Path(tmp) / "fast.csv", Path(tmp) / "slow.csv"
            noise.write_budget_sweep(fast, "n_cav", axis, budgets)
            write_budget_sweep_per_row(slow, "n_cav", axis, budgets)
            assert fast.read_bytes() == slow.read_bytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            noise.OpticalReadout(lambda0=-1.0, q_o=1e6, p_det=1e-7)
        with pytest.raises(ValueError):
            noise.SignalBeam(lambda_sig=840e-9, delta_l=-1.0)
