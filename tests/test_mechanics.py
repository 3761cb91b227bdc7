import cmath
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from oamsense import device, mechanics
from oracles import (  # noqa: F401
    fit_gm_least_squares,
    radial_fidelity,
    random_stable_model,
    rk4_steady_state,
    save_response_curve_per_row,
    susceptibility,
)

TWO_PI = 2.0 * math.pi


def model_fig2b(g_m_hz=5e5, q_m=500.0):
    """Well-separated pad/nanobeam pair from the bundled table at l_s = 12 um."""
    ds = device.load_sample_dataset()
    tw = device.interpolate(ds, "twist-like", 12.0, q_m_override=q_m)
    bo = device.interpolate(ds, "bounce-like", 12.0, q_m_override=q_m)
    return mechanics.CoupledOscillator(
        m1=tw["m_eff"], m2=bo["m_eff"],
        omega1=tw["omega_m"], omega2=bo["omega_m"],
        gamma1=tw["omega_m"] / q_m, gamma2=bo["omega_m"] / q_m,
        g_m=TWO_PI * g_m_hz,
    )


def coupling_standard_error(data, fit, fit_omega2):
    """Standard error of a fitted g_m: sqrt of the g_m entry of
    s^2 (J^T J)^-1, with J by central differences of the branch residuals."""
    def residuals(p):
        w1 = p[1] + p[2] * data[:, 0]
        w2 = p[3] if fit_omega2 else fit.omega2
        s, d = 0.5 * (w1**2 + w2**2), 0.5 * (w1**2 - w2**2)
        disc = np.sqrt(d * d + p[0] ** 4)
        return np.concatenate([np.sqrt(s - disc) - data[:, 1], np.sqrt(s + disc) - data[:, 2]])

    p = np.array([fit.g_m, fit.omega1_intercept, fit.omega1_slope, fit.omega2][:3 + fit_omega2])
    steps = 1e-6 * np.abs(p)
    jac = np.column_stack([(residuals(p + h) - residuals(p - h)) / (2.0 * h[k])
                           for k, h in enumerate(np.diag(steps))])
    dof = jac.shape[0] - jac.shape[1]
    return math.sqrt(np.linalg.inv(jac.T @ jac)[0, 0] * fit.residual_norm**2 / dof)


def response_at(model, f_d, omega_d):
    """(x1, x2) at one drive frequency, through response_curve as the CLI runs it."""
    curve = mechanics.response_curve(model, f_d, [omega_d])
    return complex(curve.x1[0]), complex(curve.x2[0])


class TestSusceptibility:
    def test_static_limit(self):
        assert susceptibility(0.0, 2.0, 0.1) == pytest.approx(0.25)

    def test_on_resonance(self):
        chi = susceptibility(3.0, 3.0, 0.5)
        assert chi == pytest.approx(1j / (0.5 * 3.0))

    def test_undamped_pole(self):
        with pytest.raises(mechanics.PoleError):
            susceptibility(3.0, 3.0, 0.0)


class TestDrivenResponse:
    def test_decoupled_limit(self):
        m = mechanics.CoupledOscillator(m1=1.0, m2=2.0, omega1=1.0, omega2=1.5,
                                        gamma1=0.1, gamma2=0.1, g_m=0.0)
        x1, x2 = response_at(m, 3.0, 0.7)
        assert x2 == 0.0
        chi1 = susceptibility(0.7, 1.0, 0.1)
        assert x1 == pytest.approx(chi1 * 3.0 / 1.0)

    def test_static_drive(self):
        m = mechanics.CoupledOscillator(m1=1.0, m2=2.0, omega1=1.0, omega2=1.5,
                                        gamma1=0.1, gamma2=0.1, g_m=0.8)
        _, x2 = response_at(m, 3.0, 0.0)
        expected = m.g_m**2 * 3.0 / (
            math.sqrt(m.m1 * m.m2) * (m.omega1**2 * m.omega2**2 - m.g_m**4)
        )
        assert abs(x2) == pytest.approx(expected, rel=1e-12)

    def test_matches_time_domain_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            m = random_stable_model(rng, mechanics)
            omega_d = rng.uniform(0.5, 1.3) * max(m.omega1, m.omega2)
            xf1, xf2 = response_at(m, 1.0, omega_d)
            xt1, xt2 = rk4_steady_state(m, 1.0, omega_d)
            for xf, xt in ((xf1, xt1), (xf2, xt2)):
                if xf == 0.0:
                    assert abs(xt) < 1e-12
                    continue
                assert abs(abs(xt) / abs(xf) - 1.0) < 1e-3
                assert abs(cmath.phase(xt / xf)) < 1e-3

    def test_undamped_degenerate_is_pole(self):
        m = mechanics.CoupledOscillator(m1=1.0, m2=1.0, omega1=1.0, omega2=1.5, g_m=0.5)
        lo, _ = mechanics.hybrid_frequencies(m)
        with pytest.raises(mechanics.PoleError):
            response_at(m, 1.0, lo)

    def test_coupling_reciprocity(self):
        # swapping the two oscillators (drive moved with them) leaves the
        # cross response unchanged: the off-diagonal terms share one g_m^2
        m = mechanics.CoupledOscillator(m1=0.7, m2=2.3, omega1=1.1, omega2=1.6,
                                        gamma1=0.07, gamma2=0.12, g_m=0.9)
        swapped = mechanics.CoupledOscillator(m1=m.m2, m2=m.m1, omega1=m.omega2,
                                              omega2=m.omega1, gamma1=m.gamma2,
                                              gamma2=m.gamma1, g_m=m.g_m)
        _, cross = response_at(m, 1.0, 1.3)
        _, cross_swapped = response_at(swapped, 1.0, 1.3)
        assert cross == pytest.approx(cross_swapped, rel=1e-12)

    def test_bare_resonance_finite_when_coupled(self):
        # the bare frequency of the undamped driven oscillator is not a pole of
        # the coupled system
        m = mechanics.CoupledOscillator(m1=1.0, m2=1.0, omega1=1.0, omega2=1.5, g_m=0.5)
        x1, x2 = response_at(m, 1.0, m.omega1)
        assert np.isfinite(abs(x1)) and np.isfinite(abs(x2))


class TestResponseCurve:
    def test_two_peaks_twist_stronger(self):
        m = model_fig2b()
        omega = TWO_PI * np.linspace(4.0e6, 7.0e6, 6001)
        curve = mechanics.response_curve(m, 1e-15, omega)
        peaks = mechanics.peak_indices(np.abs(curve.x2))
        assert len(peaks) == 2
        amp_twist, amp_bounce = (abs(curve.x2[i]) for i in peaks)
        assert amp_twist > amp_bounce

    def test_peaks_near_hybrid_frequencies(self):
        m = model_fig2b()
        omega = TWO_PI * np.linspace(4.0e6, 7.0e6, 6001)
        curve = mechanics.response_curve(m, 1e-15, omega)
        peaks = mechanics.peak_indices(np.abs(curve.x2))
        hybrids = mechanics.hybrid_frequencies(m)
        gamma = max(m.gamma1, m.gamma2)
        for idx, target in zip(peaks, hybrids):
            assert abs(curve.omega[idx] - target) < gamma / 2.0

    def test_zero_coupling_null_x2(self):
        m = mechanics.CoupledOscillator(m1=1.0, m2=1.0, omega1=1.0, omega2=1.5,
                                        gamma1=0.01, gamma2=0.01, g_m=0.0)
        curve = mechanics.response_curve(m, 1.0, np.linspace(0.5, 2.0, 101))
        assert np.all(curve.x2 == 0.0)

    def test_grid_must_increase(self):
        m = model_fig2b()
        with pytest.raises(ValueError):
            mechanics.response_curve(m, 1.0, np.array([1.0, 1.0, 2.0]))

    def test_high_frequency_rolloff_is_omega_fourth(self):
        m = mechanics.CoupledOscillator(m1=1.0, m2=1.0, omega1=1.0, omega2=1.5,
                                        gamma1=0.05, gamma2=0.05, g_m=0.7)
        omega = np.logspace(2, 4, 201)  # two decades far above resonance
        curve = mechanics.response_curve(m, 1.0, omega)
        slope = np.polyfit(np.log(omega), np.log(np.abs(curve.x2)), 1)[0]
        assert slope == pytest.approx(-4.0, abs=0.01)

    def test_export_format(self, tmp_path):
        m = model_fig2b()
        curve = mechanics.response_curve(m, 1.0, TWO_PI * np.linspace(4e6, 7e6, 11))
        path = tmp_path / "resp.csv"
        mechanics.save_response_curve(curve, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "omega_hz,abs_x1_m,arg_x1_rad,abs_x2_m,arg_x2_rad"
        assert len(lines) == 12
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == pytest.approx(4e6)

    # strictly increasing grids of 1-12 points, with amplitudes that may be
    # signed zeros, subnormals, infinite or NaN in either part
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        hnp.arrays(np.float64, n, elements=st.floats(allow_nan=False), unique=True),
        hnp.arrays(np.complex128, n, elements=st.complex_numbers()),
        hnp.arrays(np.complex128, n, elements=st.complex_numbers()),
    )))
    def test_export_matches_per_row_oracle(self, arrays):
        omega, x1, x2 = arrays
        curve = mechanics.ResponseCurve(omega=np.sort(omega), x1=x1, x2=x2)
        with tempfile.TemporaryDirectory() as tmp:
            fast, slow = Path(tmp) / "fast.csv", Path(tmp) / "slow.csv"
            mechanics.save_response_curve(curve, fast)
            save_response_curve_per_row(curve, slow)
            assert fast.read_bytes() == slow.read_bytes()

    def test_export_magnitude_is_scalar_abs(self, tmp_path):
        # paper-fig2b at 4.002 MHz: array np.abs of this x1 reads
        # 3.113376590688989e-17 with NumPy 2.4 on x86-64, scalar abs ...899e-17
        z = complex(3.113331019276642e-17, 1.6845173197709728e-19)
        curve = mechanics.ResponseCurve(omega=np.array([TWO_PI * 4.002e6]),
                                        x1=np.array([z]), x2=np.array([z]))
        mechanics.save_response_curve(curve, tmp_path / "fast.csv")
        save_response_curve_per_row(curve, tmp_path / "slow.csv")
        text = (tmp_path / "fast.csv").read_text()
        assert text == (tmp_path / "slow.csv").read_text()
        assert text.splitlines()[1].split(",")[1] == "3.11337659068899e-17"


class TestHybridFrequencies:
    def test_zero_coupling(self):
        m = mechanics.CoupledOscillator(m1=1.0, m2=1.0, omega1=2.0, omega2=1.5, g_m=0.0)
        assert mechanics.hybrid_frequencies(m) == (1.5, 2.0)

    def test_degenerate_splitting_exact(self):
        w0, g = 5.0, 1.25
        m = mechanics.CoupledOscillator(m1=1.0, m2=1.0, omega1=w0, omega2=w0, g_m=g)
        lo, hi = mechanics.hybrid_frequencies(m)
        assert lo == pytest.approx(math.sqrt(w0**2 - g**2), rel=1e-15)
        assert hi == pytest.approx(math.sqrt(w0**2 + g**2), rel=1e-15)
        assert hi**2 - lo**2 == pytest.approx(2.0 * g**2, rel=1e-13)

    def test_roots_of_inverse_susceptibility_product(self):
        # at gamma = 0 the hybrid frequencies are the zeros of
        # (chi1 chi2)^{-1} - g^4, located here by bisection
        m = mechanics.CoupledOscillator(m1=1.0, m2=1.0, omega1=1.0, omega2=1.4, g_m=0.6)

        def f(w):
            return (m.omega1**2 - w**2) * (m.omega2**2 - w**2) - m.g_m**4

        lo, hi = mechanics.hybrid_frequencies(m)
        for target, (a, b) in ((lo, (0.1, 1.2)), (hi, (1.2, 3.0))):
            for _ in range(200):
                mid = 0.5 * (a + b)
                if f(a) * f(mid) <= 0.0:
                    b = mid
                else:
                    a = mid
            assert 0.5 * (a + b) == pytest.approx(target, rel=1e-10)

    def test_sample_dataset_minimum_gap_at_crossing(self):
        ds = device.load_sample_dataset()
        g_m = TWO_PI * 1.2e6
        gaps = {}
        for ls in np.arange(8.0, 18.5, 1.0):
            tw = device.interpolate(ds, "twist-like", ls)
            bo = device.interpolate(ds, "bounce-like", ls)
            m = mechanics.CoupledOscillator(m1=tw["m_eff"], m2=bo["m_eff"],
                                            omega1=tw["omega_m"], omega2=bo["omega_m"],
                                            g_m=g_m)
            lo, hi = mechanics.hybrid_frequencies(m)
            gaps[ls] = hi - lo
        assert min(gaps, key=gaps.get) == 10.0

    def test_stability_invariant_enforced(self):
        with pytest.raises(ValueError, match="unstable"):
            mechanics.CoupledOscillator(m1=1.0, m2=1.0, omega1=1.0, omega2=1.0, g_m=1.5)


class TestFitGm:
    @staticmethod
    def synth(g_m, intercept, slope, omega2, ls, rng=None, noise=0.0):
        rows = []
        for l in ls:
            m = mechanics.CoupledOscillator(m1=1.0, m2=1.0,
                                            omega1=intercept + slope * l,
                                            omega2=omega2, g_m=g_m)
            lo, hi = mechanics.hybrid_frequencies(m)
            if noise:
                lo *= 1.0 + noise * rng.standard_normal()
                hi *= 1.0 + noise * rng.standard_normal()
            rows.append((l, lo, hi))
        return np.asarray(rows)

    def test_noiseless_round_trip(self):
        g_true = TWO_PI * 0.5e6
        intercept, slope = TWO_PI * 11.71e6, -TWO_PI * 0.575e6
        omega2 = TWO_PI * 5.96e6
        data = self.synth(g_true, intercept, slope, omega2, np.arange(8.0, 12.5, 0.5))
        result = mechanics.fit_gm(data, (intercept * 1.02, slope * 0.9), omega2)
        assert result.g_m == pytest.approx(g_true, rel=1e-6)
        assert result.residual_norm < 1e-3 * omega2

    def test_noisy_monte_carlo(self):
        g_true = TWO_PI * 1.5e6
        intercept, slope = TWO_PI * 11.71e6, -TWO_PI * 0.575e6
        omega2 = TWO_PI * 5.96e6
        ls = np.arange(8.0, 12.25, 0.25)
        rng = np.random.default_rng(20240809)
        errors = []
        for _ in range(100):
            data = self.synth(g_true, intercept, slope, omega2, ls, rng=rng, noise=1e-3)
            result = mechanics.fit_gm(data, (intercept, slope), omega2)
            errors.append(abs(result.g_m / g_true - 1.0))
        assert max(errors) < 0.02

    def test_zero_splitting_gives_zero(self):
        # crossing branches with no repulsion: data from sorted bare frequencies
        intercept, slope = 11.0, -1.0
        omega2 = 6.0
        rows = []
        for l in np.arange(3.0, 8.0, 0.5):
            w1 = intercept + slope * l
            rows.append((l, min(w1, omega2), max(w1, omega2)))
        result = mechanics.fit_gm(np.asarray(rows), (intercept, slope), omega2)
        assert result.g_m == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("scale", [1e100, 1e300])
    def test_overflowing_frequencies_raise_fit_error(self, scale):
        # fourth powers of these overflow; no RuntimeWarning comes first
        rows = np.array([[9.0, scale, scale], [10.0, scale, 1.1 * scale],
                         [11.0, scale, 1.2 * scale]])
        with pytest.raises(mechanics.FitError, match="overflow when squared") as info:
            mechanics.fit_gm(rows, (scale, 0.0), scale)
        assert math.isnan(info.value.residual_norm)

    def test_exact_fit_near_1e60_hz_gives_zero(self):
        # g_m = 0 reproduces these branches exactly from the start: an exact
        # fit resolves the coupling, as for test_zero_splitting_gives_zero
        rows = TWO_PI * np.array([[9.0 / TWO_PI, 1e60, 1e60], [10.0 / TWO_PI, 1e60, 1.1e60],
                                  [11.0 / TWO_PI, 1e60, 1.2e60]])
        result = mechanics.fit_gm(rows, (TWO_PI * 1e59, TWO_PI * 1e59), TWO_PI * 1e60,
                                  fit_omega2=True)
        assert result.g_m == 0.0
        assert result.residual_norm == 0.0

    def test_residual_above_coupling_raises_fit_error(self):
        # a lower branch above the upper one, near 1e60 Hz: no model reaches it
        rows = TWO_PI * np.array([[9.0 / TWO_PI, 1.2e60, 1e60], [10.0 / TWO_PI, 1.2e60, 1.1e60],
                                  [11.0 / TWO_PI, 1.2e60, 1.0e60]])
        with pytest.raises(mechanics.FitError, match="do not resolve g_m") as info:
            mechanics.fit_gm(rows, (TWO_PI * 1e59, TWO_PI * 1e59), TWO_PI * 1e60,
                             fit_omega2=True)
        assert info.value.residual_norm > 1e40

    def test_non_finite_start_raises_fit_error(self):
        # the tuned branch squares to inf at the start: no NaN reaches a result
        data = self.synth(TWO_PI * 0.5e6, TWO_PI * 11.71e6, -TWO_PI * 0.575e6,
                          TWO_PI * 5.96e6, np.arange(8.0, 12.5, 0.5))
        with pytest.raises(mechanics.FitError, match="did not converge") as info:
            mechanics.fit_gm(data, (1e200, 0.0), TWO_PI * 5.96e6)
        assert info.value.residual_norm == math.inf

    def test_evaluation_cap_raises_fit_error(self, monkeypatch):
        monkeypatch.setattr(mechanics, "FIT_MAX_EVALUATIONS", 3)
        intercept, slope, omega2 = TWO_PI * 11.71e6, -TWO_PI * 0.575e6, TWO_PI * 5.96e6
        data = self.synth(TWO_PI * 0.5e6, intercept, slope, omega2, np.arange(8.0, 12.5, 0.5))
        with pytest.raises(mechanics.FitError, match="did not converge: 3 evaluations") as info:
            mechanics.fit_gm(data, (intercept * 1.02, slope * 0.9), omega2)
        assert info.value.residual_norm > 0.0

    @settings(max_examples=100, deadline=None)
    @given(g_mhz=st.floats(0.2, 3.0), noise=st.floats(0.0, 1e-3),
           fit_omega2=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_least_squares_oracle(self, g_mhz, noise, fit_omega2, seed):
        # the oracle stops at least_squares' default tolerances: a relative
        # cost change of 1e-8.  Where the data barely resolve g_m, that
        # leaves the oracle's g_m up to ~1e-4 of itself off the minimum
        # (~4e-5 of its standard error), so g_m may differ by 1e-3 standard
        # errors there; the residual norm may exceed the oracle's only by
        # rounding of the branch frequencies
        rng = np.random.default_rng(seed)
        intercept, slope, omega2 = TWO_PI * 11.71e6, -TWO_PI * 0.575e6, TWO_PI * 5.96e6
        data = self.synth(TWO_PI * g_mhz * 1e6, intercept, slope, omega2,
                          np.arange(8.0, 12.25, 0.25), rng=rng, noise=noise)
        start = (intercept * (1.0 + 0.02 * rng.uniform(-1, 1)),
                 slope * (1.0 + 0.1 * rng.uniform(-1, 1)))
        w2 = omega2 * (1.0 + 0.01 * rng.uniform(-1, 1)) if fit_omega2 else omega2
        try:
            expected = fit_gm_least_squares(data, start, w2, fit_omega2=fit_omega2)
        except mechanics.FitError:
            with pytest.raises(mechanics.FitError, match="do not resolve g_m"):
                mechanics.fit_gm(data, start, w2, fit_omega2=fit_omega2)
            return
        result = mechanics.fit_gm(data, start, w2, fit_omega2=fit_omega2)
        floor = np.finfo(float).eps * float(np.linalg.norm(data[:, 1:]))
        assert result.residual_norm <= expected.residual_norm * (1.0 + 1e-9) + floor
        sigma = coupling_standard_error(data, result, fit_omega2)
        assert abs(result.g_m - expected.g_m) <= 1e-6 * expected.g_m + 1e-3 * sigma

    def test_too_few_points(self):
        with pytest.raises(ValueError, match=">= 3"):
            mechanics.fit_gm(np.zeros((2, 3)), (1.0, 0.0), 1.0)
