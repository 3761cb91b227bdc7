"""Two coupled oscillators: suspended-pad twist mode driven by torque,
nanobeam bounce mode driven through a spring-like coupling.

With displacements x1 (pad) and x2 (nanobeam), masses m1, m2, natural
angular frequencies omega1, omega2, damping rates gamma1, gamma2 and
coupling rate g_m, the equations of motion are

    x1'' = -omega1^2 x1 - gamma1 x1' + sqrt(m2/m1) g_m^2 x2 + (F_d/m1) e^{-i w t}
    x2'' = -omega2^2 x2 - gamma2 x2' + sqrt(m1/m2) g_m^2 x1

For an e^{-i w t} drive the susceptibility of each oscillator is
chi_i(w) = (omega_i^2 - w^2 - i gamma_i w)^{-1}, and the transformed system
solves to

    x2(w) = g_m^2 F_d / ( sqrt(m1 m2) ( (chi1 chi2)^{-1} - g_m^4 ) )

with x1 following from the same 2x2 linear system.  All operations here are
pure functions of their arguments and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import table


class PoleError(ValueError):
    """Undamped resonance queried exactly on a pole (unphysical request)."""


class FitError(RuntimeError):
    """Coupling fit failed or did not resolve g_m; carries the residual norm."""

    def __init__(self, message: str, residual_norm: float):
        super().__init__(message)
        self.residual_norm = residual_norm


@dataclass(frozen=True)
class CoupledOscillator:
    """Parameters of the two-mode model (SI: kg, rad/s)."""

    m1: float
    m2: float
    omega1: float
    omega2: float
    gamma1: float = 0.0
    gamma2: float = 0.0
    g_m: float = 0.0

    def __post_init__(self) -> None:
        for name in ("m1", "m2", "omega1", "omega2"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0")
        for name in ("gamma1", "gamma2", "g_m"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        # Static stability: the lower hybrid eigenvalue omega_minus^2 must stay
        # positive, i.e. omega1^2 omega2^2 > g_m^4.
        if not (self.omega1 * self.omega2) ** 2 > self.g_m**4:
            raise ValueError("unstable model: requires omega1^2 * omega2^2 > g_m^4")


@dataclass(frozen=True)
class ResponseCurve:
    """Complex displacement amplitudes on a strictly increasing frequency grid."""

    omega: np.ndarray  # rad/s
    x1: np.ndarray  # m, complex
    x2: np.ndarray  # m, complex

    def __post_init__(self) -> None:
        if not (len(self.omega) == len(self.x1) == len(self.x2)):
            raise ValueError("omega, x1, x2 must have equal lengths")
        if np.any(np.diff(self.omega) <= 0.0):
            raise ValueError("frequency grid must be strictly increasing")


def _quad(omega, omega_i, gamma_i):
    """Inverse susceptibility omega_i^2 - omega^2 - i gamma_i omega."""
    omega = np.asarray(omega, dtype=float)
    return omega_i**2 - omega**2 - 1j * gamma_i * omega


def _solve(model: CoupledOscillator, f_d: float, omega):
    """Solve the transformed 2x2 system at drive frequency/frequencies omega.

    Cramer's rule keeps x1 finite when the bare (uncoupled) resonance of
    oscillator 1 is queried with g_m > 0; the only genuine pole is a zero of
    the full determinant, which needs both oscillators undamped.
    """
    q1 = _quad(omega, model.omega1, model.gamma1)
    q2 = _quad(omega, model.omega2, model.gamma2)
    g2 = model.g_m**2
    det = q1 * q2 - g2 * g2
    # an undamped system driven on a hybrid eigenfrequency has no steady state;
    # the relative floor absorbs the rounding of sqrt-derived eigenfrequencies
    omega = np.asarray(omega, dtype=float)
    scale = (model.omega1**2 + omega**2) * (model.omega2**2 + omega**2) + g2 * g2
    if np.any(np.abs(det) <= 1e-12 * scale):
        raise PoleError("drive frequency sits on an undamped hybrid resonance")
    x1 = (f_d / model.m1) * q2 / det
    x2 = g2 * f_d / (math.sqrt(model.m1 * model.m2) * det)
    return x1, x2


def response_curve(model: CoupledOscillator, f_d: float, omega_grid) -> ResponseCurve:
    """Element-wise driven response over a strictly increasing rad/s grid."""
    omega = np.asarray(omega_grid, dtype=float)
    if np.any(np.diff(omega) <= 0.0):
        raise ValueError("frequency grid must be strictly increasing")
    x1, x2 = _solve(model, f_d, omega)
    return ResponseCurve(omega=omega, x1=x1, x2=x2)


def hybrid_frequencies(model: CoupledOscillator) -> tuple[float, float]:
    """Undamped hybridized eigenfrequencies (omega_minus, omega_plus).

    omega_pm^2 = (omega1^2 + omega2^2)/2 +- sqrt( ((omega1^2 - omega2^2)/2)^2 + g_m^4 )
    """
    s = 0.5 * (model.omega1**2 + model.omega2**2)
    d = 0.5 * (model.omega1**2 - model.omega2**2)
    disc = math.sqrt(d * d + model.g_m**4)
    return math.sqrt(s - disc), math.sqrt(s + disc)


def peak_indices(values) -> list[int]:
    """Interior local maxima found by sign changes of the discrete derivative."""
    y = np.asarray(values, dtype=float)
    d = np.diff(y)
    return [i + 1 for i in range(len(d) - 1) if d[i] > 0.0 >= d[i + 1]]


@dataclass(frozen=True)
class FitGmResult:
    g_m: float  # rad/s
    omega1_intercept: float  # rad/s at l_s = 0
    omega1_slope: float  # rad/s per um
    omega2: float  # rad/s
    residual_norm: float  # rad/s


#: Largest branch frequency (rad/s) fit_gm takes.  Its model squares the
#: frequencies and squares half their difference again, so their fourth
#: powers must stay finite; half the fourth root of the largest float64
#: leaves the fit room to move.
FIT_FREQUENCY_LIMIT = 0.5 * float(np.finfo(np.float64).max) ** 0.25


#: Relative tolerance of fit_gm's stopping rule.
FIT_TOLERANCE = 1e-15

#: Residual evaluations fit_gm may make before it gives up.
FIT_MAX_EVALUATIONS = 200


def fit_gm(
    anticrossing,
    omega1_model: tuple[float, float],
    omega2: float,
    fit_omega2: bool = False,
) -> FitGmResult:
    """Extract the mode coupling from tuned-crossing data.

    anticrossing is a sequence of (l_s_um, omega_minus, omega_plus) rows in
    rad/s.  omega1_model = (intercept, slope) is the starting affine model of
    the tuned branch, omega1(l_s) = intercept + slope * l_s_um; omega2 is the
    fixed branch.  The hybrid eigenfrequencies of hybrid_frequencies are
    fitted to the two branches by least squares over (g_m, intercept,
    slope), and over omega2 as well with fit_omega2.

    Method: damped Gauss-Newton (Levenberg-Marquardt; J. J. More, The
    Levenberg-Marquardt algorithm: implementation and theory, LNM 630, 1978)
    with the closed-form Jacobian of the branches and the damping scaled by
    the largest column norms of the Jacobian met so far.  The start is g_m
    from half the squared-frequency splitting at closest approach, the given
    omega1_model and omega2.  The model depends on g_m and omega2 only
    through g_m^4 and omega2^2, so the fit is unconstrained and returns
    their magnitudes; g_m >= 0 and omega2 >= 0 hold without bounds.  A start
    at g_m = 0 stays there, since every derivative in g_m vanishes.

    The fit stops when an accepted step lowers the sum of squares by at most
    FIT_TOLERANCE of it, or when a step is at most FIT_TOLERANCE of the
    scaled parameter vector.  More than FIT_MAX_EVALUATIONS residual
    evaluations, or a non-finite step or residual, raise FitError.

    Branch frequencies above FIT_FREQUENCY_LIMIT would overflow when
    squared; they raise FitError before any is squared.  A fit whose
    residual norm is at least the fitted g_m (both in rad/s) has not
    resolved the coupling, and raises FitError too, unless the fit is
    exact: branches that cross with no splitting give g_m = 0.
    """
    data = np.asarray(anticrossing, dtype=float)
    if data.ndim != 2 or data.shape[1] != 3 or data.shape[0] < 3:
        raise ValueError("need >= 3 rows of (l_s_um, omega_minus, omega_plus)")
    top = float(np.max(np.abs(data[:, 1:])))
    if top > FIT_FREQUENCY_LIMIT:
        raise FitError(f"frequencies up to {top:.4g} rad/s overflow when squared "
                       f"(limit {FIT_FREQUENCY_LIMIT:.4g} rad/s)", math.nan)
    # both branches on stacked rows: lower branch, then upper
    ls = np.tile(data[:, 0], 2)
    observed = np.concatenate([data[:, 1], data[:, 2]])
    sign = np.repeat([-1.0, 1.0], len(data))

    def residuals(params):
        """Residuals (lower - omega_minus, upper - omega_plus) and what the
        Jacobian reuses of them."""
        g, a, b = params[0], params[1], params[2]
        w2 = params[3] if fit_omega2 else omega2
        w1 = a + b * ls
        s = 0.5 * (w1**2 + w2**2)
        d = 0.5 * (w1**2 - w2**2)
        disc = np.sqrt(d * d + g**4)
        branch = np.sqrt(np.maximum(s + sign * disc, 0.0))
        return branch - observed, (g, w1, w2, d, disc, branch)

    def jacobian(parts):
        # d(omega_pm)/dp = (ds/dp +- dD/dp) / (2 omega_pm), D = sqrt(d^2 + g^4);
        # 0 where D = 0 and where the lower branch is clamped at 0
        g, w1, w2, d, disc, branch = parts
        inv_disc = np.divide(1.0, disc, out=np.zeros_like(disc), where=disc > 0.0)
        half_inv = np.divide(0.5, branch, out=np.zeros_like(branch), where=branch > 0.0)
        d_w1 = w1 + sign * (d * w1 * inv_disc)
        columns = [sign * (2.0 * g**3 * inv_disc), d_w1, d_w1 * ls]
        if fit_omega2:
            columns.append(w2 - sign * (d * w2 * inv_disc))
        return np.column_stack(columns) * half_inv[:, None]

    def fail(reason, norm):
        return FitError(f"coupling fit did not converge: {reason} "
                        f"(residual norm {norm:.4g} rad/s)", norm)

    # Half the squared-frequency splitting at closest approach estimates g_m^2.
    g_init = max(float(np.min(0.5 * (data[:, 2]**2 - data[:, 1]**2))), 0.0) ** 0.5
    x = np.array([g_init, omega1_model[0], omega1_model[1]]
                 + ([omega2] if fit_omega2 else []), dtype=float)
    eye = np.eye(len(x))
    with np.errstate(all="ignore"):  # non-finite values raise FitError below
        r, parts = residuals(x)
        cost = float(r @ r)
        if not math.isfinite(cost):
            raise fail("the start gives a non-finite residual", math.inf)
        jac = jacobian(parts)
        scale = np.linalg.norm(jac, axis=0)
        scale[scale == 0.0] = 1.0
        damping, growth = 1e-3, 2.0
        evaluations = 1
        while cost > 0.0:
            if evaluations >= FIT_MAX_EVALUATIONS:
                raise fail(f"{evaluations} evaluations", math.sqrt(cost))
            # minimise |J step + r|^2 + damping |scale * step|^2
            scaled = np.linalg.lstsq(
                np.vstack([jac / scale, math.sqrt(damping) * eye]),
                np.concatenate([-r, np.zeros(len(x))]), rcond=None)[0]
            step = scaled / scale
            if not np.all(np.isfinite(step)):
                raise fail("non-finite step", math.sqrt(cost))
            small = np.linalg.norm(scaled) <= FIT_TOLERANCE * np.linalg.norm(scale * x)
            r_new, parts_new = residuals(x + step)
            evaluations += 1
            cost_new = float(r_new @ r_new)
            if not math.isfinite(cost_new):
                raise fail("non-finite residual", math.sqrt(cost))
            linear = r + jac @ step
            predicted = cost - float(linear @ linear)
            if cost_new < cost and predicted > 0.0:
                ratio = (cost - cost_new) / predicted
                decrease = cost - cost_new
                x, r, cost = x + step, r_new, cost_new
                if decrease <= FIT_TOLERANCE * (cost + decrease) or small:
                    break
                jac = jacobian(parts_new)
                scale = np.maximum(scale, np.linalg.norm(jac, axis=0))
                damping *= max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
                growth = 2.0
            elif small:
                break
            else:
                damping *= growth
                growth *= 2.0
    norm = float(np.linalg.norm(r))
    g_m = abs(float(x[0]))
    if norm > 0.0 and norm >= g_m:
        raise FitError(f"residual norm {norm:.4g} rad/s is not below the fitted coupling "
                       f"{g_m:.4g} rad/s: the data do not resolve g_m", norm)
    return FitGmResult(
        g_m=g_m,
        omega1_intercept=float(x[1]),
        omega1_slope=float(x[2]),
        omega2=abs(float(x[3])) if fit_omega2 else float(omega2),
        residual_norm=norm,
    )


RESPONSE_HEADER = "omega_hz,abs_x1_m,arg_x1_rad,abs_x2_m,arg_x2_rad"


def save_response_curve(curve: ResponseCurve, path) -> None:
    """Write a response curve as CSV (frequencies in ordinary Hz).

    Magnitudes are np.hypot of the parts, which has the bits of scalar
    abs(complex); array np.abs can differ from it in the last bit.
    """
    x1, x2 = np.asarray(curve.x1), np.asarray(curve.x2)
    table.write_table(path, RESPONSE_HEADER, (
        np.asarray(curve.omega, dtype=np.float64) / (2.0 * math.pi),
        np.hypot(x1.real, x1.imag), np.angle(x1),
        np.hypot(x2.real, x2.imag), np.angle(x2),
    ))
