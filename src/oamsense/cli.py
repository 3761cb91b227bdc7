"""`oam-sense`: command-line front end.

Subcommands: mech-response, noise-sweep, pulse-budget, beam-sim, swg-gen,
fit-gm.  Runs are configured by flat INI-style files (``[section]`` headers,
``key = value`` lines, SI unit suffixes on keys) optionally layered on top of
a named preset; every output is a comma-separated table written atomically
(temp file + rename) under --out.  A fixed config yields byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import secrets
import sys
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import beams, device, mechanics, noise, swg

TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    """Missing or malformed configuration value."""


PRESETS: dict[str, dict[str, str]] = {
    # Driven two-mode response with well-separated resonances.
    "paper-fig2b": {
        "device.dataset": "bundled",
        "mechanics.l_s_um": "12",
        "mechanics.q_m": "500",
        "mechanics.g_m_hz": "5e5",
        "mechanics.f_d_n": "1e-15",
        "mechanics.f_min_hz": "4e6",
        "mechanics.f_max_hz": "7e6",
        "mechanics.n_points": "1501",
    },
    # CW torque-sensitivity sweep: cryogenic, direct detection.
    "paper-fig5": {
        "device.dataset": "bundled",
        "device.branch": "twist-like",
        "sweep.l_s_min_um": "8",
        "sweep.l_s_max_um": "18",
        "sweep.l_s_step_um": "0.25",
        "readout.lambda0_m": "1.428e-6",
        "readout.q_o": "1e6",
        "readout.dip_depth": "1",
        "readout.p_det_w": "1e-7",
        "readout.eta_qe": "1",
        "readout.p_dn_w": "2.5e-12",
        "readout.n_cav": "0",
        "environment.t_k": "4",
        "environment.q_m": "1e6",
        "beam.lambda_sig_m": "8.4e-7",
        "beam.delta_l": "1",
        "beam.eta_conv": "0.83",
        "beam.modulation": "cw",
    },
    # Pulsed photon-counting budget: idealized device, single-photon detector.
    "paper-fig8": {
        "device.dataset": "bundled",
        "device.branch": "twist-like",
        "sweep.l_s_min_um": "8",
        "sweep.l_s_max_um": "18",
        "sweep.l_s_step_um": "0.25",
        "sweep.n_cav_min": "1e-5",
        "sweep.n_cav_max": "1e-1",
        "sweep.n_cav_points": "41",
        "sweep.l_s_ncav_um": "10",
        "readout.lambda0_m": "1.428e-6",
        "readout.q_o": "1e6",
        "readout.dip_depth": "1",
        "readout.p_det_w": "auto",
        "readout.eta_qe": "1",
        "readout.p_dn_w": "3.8e-17",
        "readout.n_cav": "1e-3",
        "environment.t_k": "0.01",
        "environment.q_m": "1e8",
        "beam.lambda_sig_m": "8.4e-7",
        "beam.delta_l": "10",
        "beam.eta_conv": "1",
        "beam.modulation": "pulse",
        "beam.f_rep_hz": "auto",
        "beam.bandwidth_hz": "1",
    },
}


class RunConfig:
    """Flat section.key -> string store with typed, validating getters."""

    def __init__(self, values: dict[str, str]):
        self.values = dict(values)

    @classmethod
    def assemble(cls, preset: str | None, config_path: str | None) -> "RunConfig":
        values: dict[str, str] = {}
        if preset is not None:
            if preset not in PRESETS:
                raise ConfigError(
                    f"unknown preset {preset!r}; available: {', '.join(sorted(PRESETS))}"
                )
            values.update(PRESETS[preset])
        if config_path is not None:
            path = Path(config_path)
            if not path.exists():
                raise ConfigError(f"config file not found: {path}")
            parser = configparser.ConfigParser()
            parser.read(path)
            for section in parser.sections():
                for key, value in parser.items(section):
                    values[f"{section}.{key}"] = value
        return cls(values)

    def raw(self, key: str, default: str | None = None) -> str | None:
        return self.values.get(key, default)

    def get_float(self, key: str, default: float | None = None) -> float:
        raw = self.values.get(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"missing required config key: {key}")
            return default
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ConfigError(f"config key {key} = {raw!r} is not a finite number")
        return value

    def get_int(self, key: str, default: int | None = None) -> int:
        value = self.get_float(key, None if default is None else float(default))
        if not value.is_integer():
            raise ConfigError(f"config key {key} = {self.values[key]!r} is not an integer")
        return int(value)

    def get_bool(self, key: str, default: bool) -> bool:
        raw = self.values.get(key)
        if raw is None:
            return default
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"config key {key} = {raw!r} is not a boolean")


def _load_cfg_dataset(cfg: RunConfig) -> device.DeviceDataset:
    raw = cfg.raw("device.dataset")
    if raw is None:
        raise ConfigError("missing required config key: device.dataset "
                          "(path to a dataset file, or 'bundled')")
    if raw == "bundled":
        return device.load_sample_dataset()
    if not Path(raw).exists():
        raise ConfigError(f"config key device.dataset: file not found: {raw}")
    return device.load_dataset(raw)


def _readout(cfg: RunConfig) -> noise.OpticalReadout:
    p_det_auto = cfg.raw("readout.p_det_w") == "auto"
    n_cav = cfg.get_float("readout.n_cav", 0.0)
    readout = noise.OpticalReadout(
        lambda0=cfg.get_float("readout.lambda0_m", 1.428e-6),
        q_o=cfg.get_float("readout.q_o", 1e6),
        p_det=1.0 if p_det_auto else cfg.get_float("readout.p_det_w", 1e-7),
        dip_depth=cfg.get_float("readout.dip_depth", 1.0),
        eta_qe=cfg.get_float("readout.eta_qe", 1.0),
        p_dn=cfg.get_float("readout.p_dn_w", 2.5e-12),
        n_cav=n_cav,
    )
    if p_det_auto:
        if n_cav <= 0.0:
            raise ConfigError("readout.p_det_w = auto requires readout.n_cav > 0")
        readout = noise.readout_at_ncav(readout, n_cav)
    return readout


def _beam(cfg: RunConfig) -> noise.SignalBeam:
    kind = (cfg.raw("beam.modulation", "cw") or "cw").lower()
    if kind == "cw":
        modulation: noise.CwModulation | noise.PulseTrain = noise.CwModulation()
    elif kind == "pulse":
        resonant = cfg.raw("beam.f_rep_hz", "auto") == "auto"
        modulation = noise.PulseTrain(None if resonant else cfg.get_float("beam.f_rep_hz"))
    else:
        raise ConfigError(f"beam.modulation must be 'cw' or 'pulse', got {kind!r}")
    return noise.SignalBeam(
        lambda_sig=cfg.get_float("beam.lambda_sig_m", 8.4e-7),
        delta_l=cfg.get_float("beam.delta_l", 1.0),
        eta_conv=cfg.get_float("beam.eta_conv", 1.0),
        contrast=cfg.get_float("beam.contrast", 1.0),
        modulation=modulation,
    )


def _ls_grid(cfg: RunConfig, dataset: device.DeviceDataset, branch: str) -> np.ndarray:
    lo, hi = dataset.domain(branch)
    ls_min = cfg.get_float("sweep.l_s_min_um", lo)
    ls_max = cfg.get_float("sweep.l_s_max_um", hi)
    step = cfg.get_float("sweep.l_s_step_um", 0.25)
    if not (ls_min < ls_max and step > 0.0):
        raise ConfigError("sweep.l_s_* must satisfy min < max and step > 0")
    steps = (ls_max - ls_min) / step
    if not math.isclose(steps, round(steps), rel_tol=1e-9):
        raise ConfigError(
            f"config key sweep.l_s_step_um = {step!r} does not divide "
            f"the l_s range {ls_min!r}..{ls_max!r} um"
        )
    return np.linspace(ls_min, ls_max, round(steps) + 1)


def _atomic_write(path: Path, writer) -> None:
    """Run writer on a temp file unique to this call, then rename it to path.

    The temp file sits in the target directory, so concurrent runs into one
    directory do not collide and the rename is atomic; it is removed if the
    writer fails.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    try:
        writer(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # a no-op once renamed


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_mech_response(args) -> int:
    cfg = RunConfig.assemble(args.preset, args.config)
    dataset = _load_cfg_dataset(cfg)
    l_s = cfg.get_float("mechanics.l_s_um", 12.0)
    q_m = cfg.get_float("mechanics.q_m", 500.0)
    if q_m <= 0.0:
        raise ConfigError(f"config key mechanics.q_m = {cfg.raw('mechanics.q_m')!r} must be > 0")
    twist = device.interpolate(dataset, "twist-like", l_s, q_m_override=q_m)
    bounce = device.interpolate(dataset, "bounce-like", l_s, q_m_override=q_m)
    g_m = TWO_PI * cfg.get_float("mechanics.g_m_hz", 5e5)
    model = mechanics.CoupledOscillator(
        m1=twist.m_eff,
        m2=bounce.m_eff,
        omega1=twist.omega_m,
        omega2=bounce.omega_m,
        gamma1=twist.omega_m / q_m,
        gamma2=bounce.omega_m / q_m,
        g_m=g_m,
    )
    f_min = cfg.get_float("mechanics.f_min_hz", 0.7 * min(twist.omega_m, bounce.omega_m) / TWO_PI)
    f_max = cfg.get_float("mechanics.f_max_hz", 1.2 * max(twist.omega_m, bounce.omega_m) / TWO_PI)
    n_pts = cfg.get_int("mechanics.n_points", 1501)
    omega = TWO_PI * np.linspace(f_min, f_max, n_pts)
    curve = mechanics.response_curve(model, cfg.get_float("mechanics.f_d_n", 1e-15), omega)

    out = _out_dir(args)
    _atomic_write(out / "response.csv", lambda p: mechanics.save_response_curve(curve, p))

    if g_m == 0.0:
        print("warning: g_m = 0, nanobeam response x2 is identically zero", file=sys.stderr)
        peaks = mechanics.peak_indices(np.abs(curve.x1))
        label = "x1"
    else:
        peaks = mechanics.peak_indices(np.abs(curve.x2))
        label = "x2"
    print(f"# response peaks of |{label}| at l_s = {l_s} um (Q_m = {q_m})")
    print("peak_f_hz,peak_abs_m")
    for i in peaks:
        amp = abs(curve.x2[i]) if label == "x2" else abs(curve.x1[i])
        print(f"{float(curve.omega[i]) / TWO_PI!r},{float(amp)!r}")
    print(f"wrote {out / 'response.csv'}")
    return 0


class _LsSweep(NamedTuple):
    """Budgets over the sweep.l_s_* grid, and the inputs they were built from."""

    mode_at: Callable[[float], device.MechanicalModeRecord]
    readout: noise.OpticalReadout
    beam: noise.SignalBeam
    t_k: float
    bandwidth: float
    grid: np.ndarray
    budgets: list[noise.NoiseBudget]


def _ls_sweep(cfg: RunConfig, t_k_default: float) -> _LsSweep:
    """The set-up noise-sweep and pulse-budget share: one budget per l_s."""
    dataset = _load_cfg_dataset(cfg)
    branch = cfg.raw("device.branch", "twist-like")
    readout = _readout(cfg)
    beam = _beam(cfg)
    t_k = cfg.get_float("environment.t_k", t_k_default)
    q_m = cfg.get_float("environment.q_m", 0.0)
    if q_m < 0.0:
        raise ConfigError(f"config key environment.q_m = {cfg.raw('environment.q_m')!r} "
                          "must be > 0, or 0 for the dataset's Q")
    bandwidth = cfg.get_float("beam.bandwidth_hz", 1.0)
    grid = _ls_grid(cfg, dataset, branch)

    def mode_at(l_s: float) -> device.MechanicalModeRecord:
        return device.interpolate(dataset, branch, l_s, q_m_override=q_m or None)

    modes = device.interpolate_grid(dataset, branch, grid, q_m_override=q_m or None)
    budgets = [noise.budget(mode, readout, t_k, beam, bandwidth_hz=bandwidth) for mode in modes]
    return _LsSweep(mode_at, readout, beam, t_k, bandwidth, grid, budgets)


def cmd_noise_sweep(args) -> int:
    cfg = RunConfig.assemble(args.preset, args.config)
    sweep = _ls_sweep(cfg, t_k_default=4.0)
    out = _out_dir(args)
    _atomic_write(
        out / "noise_sweep.csv",
        lambda p: noise.write_budget_sweep(p, "l_s_um", sweep.grid, sweep.budgets),
    )
    i = int(np.argmin([b.tau_min for b in sweep.budgets]))
    print("# minimum of tau_min over the sweep")
    print(noise.BUDGET_SWEEP_HEADER)
    print(noise.budget_row(sweep.grid[i], sweep.budgets[i]))
    print(f"wrote {out / 'noise_sweep.csv'}")
    return 0


def cmd_pulse_budget(args) -> int:
    cfg = RunConfig.assemble(args.preset, args.config)
    sweep = _ls_sweep(cfg, t_k_default=0.01)
    if not isinstance(sweep.beam.modulation, noise.PulseTrain):
        raise ConfigError("pulse-budget requires beam.modulation = pulse")
    grid, budgets = sweep.grid, sweep.budgets
    out = _out_dir(args)
    _atomic_write(
        out / "pulse_ls_sweep.csv",
        lambda p: noise.write_budget_sweep(p, "l_s_um", grid, budgets),
    )
    i = int(np.argmin([b.n_min for b in budgets]))
    print(f"n_min over l_s: minimum {budgets[i].n_min:.4g} photons/pulse "
          f"at l_s = {grid[i]:g} um")

    l_s0 = cfg.get_float("sweep.l_s_ncav_um", 10.0)
    ncav_grid = np.logspace(
        math.log10(cfg.get_float("sweep.n_cav_min", 1e-5)),
        math.log10(cfg.get_float("sweep.n_cav_max", 1e-1)),
        cfg.get_int("sweep.n_cav_points", 41),
    )
    scan = noise.optimize_ncav(sweep.mode_at(l_s0), sweep.readout, sweep.t_k, sweep.beam,
                               ncav_grid, bandwidth_hz=sweep.bandwidth)
    _atomic_write(
        out / "pulse_ncav_sweep.csv",
        lambda p: noise.write_budget_sweep(p, "n_cav", scan.n_cav, scan.budgets),
    )
    print(f"n_min over n_cav (l_s = {l_s0:g} um): minimum {scan.best_n_min:.4g} "
          f"photons/pulse at n_cav = {scan.best_n_cav:.4g}")
    print(f"wrote {out / 'pulse_ls_sweep.csv'} and {out / 'pulse_ncav_sweep.csv'}")
    return 0


def _design(cfg: RunConfig, lam: float) -> swg.SWGDesign:
    return swg.SWGDesign(
        aperture_d=cfg.get_float("swg.aperture_d_m", 20e-6),
        lattice_a=cfg.get_float("swg.lattice_a_m", 360e-9),
        pillar_t=cfg.get_float("swg.pillar_t_m", 450e-9),
        delta_l=cfg.get_int("swg.delta_l", 1),
        design_lambda=cfg.get_float("swg.design_lambda_m", lam),
        phase_sign=cfg.get_int("swg.phase_sign", 1),
    )


def cmd_beam_sim(args) -> int:
    cfg = RunConfig.assemble(args.preset, args.config)
    n = cfg.get_int("grid.n", 1024)
    pitch = cfg.get_float("grid.pitch_m", 50e-9)
    lam = cfg.get_float("beam.lambda_sig_m", 8.4e-7)
    w0 = cfg.get_float("beam.w0_m", 5e-6)
    z_eval = cfg.get_float("swg.z_eval_m", 0.0)
    delta_l = cfg.get_int("swg.delta_l", 1)
    ideal = cfg.get_bool("swg.ideal_vortex", False)

    field_in = beams.make_gaussian(n, pitch, lam, w0)
    if ideal:
        mask = beams.vortex_mask(n, pitch, delta_l)
        target_l = delta_l
    else:
        design = _design(cfg, lam)
        layout = swg.retune_layout(design, swg.generate_layout(design), lam)
        mask = swg.layout_to_mask(layout, n, pitch)
        target_l = design.delta_l * design.phase_sign
    target = beams.LGIndex(p=0, l=target_l, w0=w0)
    metrics = beams.conversion_metrics(field_in, mask, target, z_eval=z_eval)
    out_field = metrics.output
    reference = beams.make_lg(n, pitch, lam, target)

    out = _out_dir(args)
    exports = {
        "intensity_swg.csv": np.abs(out_field.amps) ** 2,
        "phase_swg.csv": np.angle(out_field.amps),
        "intensity_target.csv": np.abs(reference.amps) ** 2,
        "phase_target.csv": np.angle(reference.amps),
    }
    for name, matrix in exports.items():
        _atomic_write(out / name, lambda p, m=matrix: beams.save_raster(m, p))

    print(f"fidelity_opt = {metrics.fidelity:.4f} (w0_opt = {metrics.w0_opt * 1e6:.3f} um)")
    print(f"fidelity_fixed_waist = {metrics.fidelity_fixed_waist:.4f}")
    print(f"t_swg = {metrics.t_swg:.4f}")
    print(f"eta = {metrics.eta:.4f}")
    l_values = list(range(target_l - 3, target_l + 4))
    fractions = beams.azimuthal_spectrum(out_field, l_values)
    print("l,power_fraction")
    for l, frac in zip(l_values, fractions):
        print(f"{l},{frac:.6f}")
    print(f"wrote rasters in {out}")
    return 0


def cmd_swg_gen(args) -> int:
    cfg = RunConfig.assemble(args.preset, args.config)
    design = _design(cfg, cfg.get_float("beam.lambda_sig_m", 8.4e-7))
    layout = swg.generate_layout(design)
    out = _out_dir(args)
    _atomic_write(out / "layout.csv", lambda p: swg.export_layout(layout, p))
    print(f"sites: {len(layout)} (area estimate {swg.expected_site_count(design):.0f})")
    print("diameter_nm,count")
    for d, count in zip(*np.unique(layout.diameter, return_counts=True)):
        print(f"{d:.0f},{count}")
    print(f"wrote {out / 'layout.csv'}")
    return 0


def cmd_fit_gm(args) -> int:
    cfg = RunConfig.assemble(args.preset, args.config)
    data_path = args.data
    if data_path == "bundled":
        data_path = device.sample_anticrossing_path()
    elif not Path(data_path).exists():
        raise ConfigError(f"fit-gm data file not found: {data_path}")

    groups = device.load_crossings(data_path)

    out = _out_dir(args)
    lines = ["w_h_um,g_m_hz,residual"]
    print("w_h_um,g_m_hz,residual")
    for w_h, rows in groups.items():
        try:
            if len(rows) < 3:
                raise mechanics.FitError(f"only {len(rows)} points (need >= 3)", math.nan)
            result = _fit_group(rows, cfg)
            line = f"{w_h!r},{result.g_m / TWO_PI!r},{result.residual_norm!r}"
        except mechanics.FitError as exc:
            line = f"{w_h!r},nan,error:{exc}"
        lines.append(line)
        print(line)
    _atomic_write(
        out / "gm_fit.csv",
        lambda p: Path(p).write_text("\n".join(lines) + "\n", encoding="utf-8"),
    )
    print(f"wrote {out / 'gm_fit.csv'}")
    return 0


def _fit_group(rows: np.ndarray, cfg: RunConfig) -> mechanics.FitGmResult:
    """Fit one tuned-crossing group, estimating the fixed branch if not given."""
    ls, w_lo, w_hi = rows[:, 0], rows[:, 1], rows[:, 2]
    f2_hz = cfg.get_float("fit.f2_hz", 0.0)
    if f2_hz > 0.0:
        omega2 = TWO_PI * f2_hz
        fit_omega2 = False
    else:
        # near the crossing the upper branch dips closest to the fixed branch
        omega2 = float(np.min(w_hi))
        fit_omega2 = True
    # diabatic reconstruction of the tuned branch: the point farther from omega2
    w1_guess = np.where(np.abs(w_hi - omega2) > np.abs(w_lo - omega2), w_hi, w_lo)
    slope, intercept = np.polyfit(ls, w1_guess, 1)
    return mechanics.fit_gm(
        rows, (float(intercept), float(slope)), omega2, fit_omega2=fit_omega2
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oam-sense",
        description="Torsional optomechanical OAM sensor: design sweeps and noise budgets",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "mech-response": (cmd_mech_response, "driven two-mode response curve"),
        "noise-sweep": (cmd_noise_sweep, "noise-equivalent torque budget vs support length"),
        "pulse-budget": (cmd_pulse_budget, "minimum photons per pulse vs l_s and n_cav"),
        "beam-sim": (cmd_beam_sim, "grating-converted beam, fidelity and spectra"),
        "swg-gen": (cmd_swg_gen, "pillar layout generation and export"),
        "fit-gm": (cmd_fit_gm, "extract mode coupling from crossing data"),
    }
    for name, (func, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="INI-style run configuration")
        p.add_argument("--preset", default=None, choices=sorted(PRESETS),
                       help="named parameter preset")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        if name == "fit-gm":
            p.add_argument("data", help="crossing data CSV "
                           "(w_h_um,l_s_um,f_minus_hz,f_plus_hz), or 'bundled'")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
