"""`oam-sense`: command-line front end.

Subcommands: mech-response, noise-sweep, pulse-budget, beam-sim, swg-gen,
fit-gm.  Runs are configured by flat INI-style files (``[section]`` headers,
``key = value`` lines, SI unit suffixes on keys) optionally layered on top of
a named preset.  The table ``KEYS`` is the list of config keys: each one's
type, bound, default and the subcommands that read it.  A config file may set
only the keys its subcommand reads, and every value is checked before any
output is written.  Every output is a comma-separated table written
atomically (temp file + rename) under --out; each float cell reads as
repr(float(v)), written by table.write_table (gm_fit.csv, whose error rows
carry text, is written line by line here).  A fixed config yields
byte-identical outputs.
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


Parser = Callable[[str], object]


def _number(integer: bool = False, gt: float | None = None, ge: float | None = None,
            le: float | None = None) -> Parser:
    """Parser of a finite float, or an integer, with optional bounds."""
    def parse(raw: str) -> float | int:
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError("is not a finite number")
        if integer and not value.is_integer():
            raise ValueError("is not an integer")
        if gt is not None and not value > gt:
            raise ValueError(f"must be > {gt:g}")
        if ge is not None and not value >= ge:
            raise ValueError(f"must be >= {ge:g}")
        if le is not None and not value <= le:
            raise ValueError(f"must be <= {le:g}")
        return int(value) if integer else value
    return parse


def _choice(values: dict[str, object], what: str) -> Parser:
    """Parser of one of the names in `values`, in any letter case."""
    def parse(raw: str) -> object:
        if raw.lower() not in values:
            raise ValueError(f"is not {what}")
        return values[raw.lower()]
    return parse


_FLOAT = _number()
_INT = _number(integer=True)
_POSITIVE = _number(gt=0.0)
_NONNEGATIVE = _number(ge=0.0)
_FRACTION = _number(gt=0.0, le=1.0)  # in (0, 1]
_BOOL = _choice({**dict.fromkeys(("1", "true", "yes", "on"), True),
                 **dict.fromkeys(("0", "false", "no", "off"), False)}, "a boolean")


def _int_where(test: Callable[[int], bool], what: str) -> Parser:
    """Parser of an integer for which test(value) holds."""
    def parse(raw: str) -> int:
        value = _INT(raw)
        if not test(value):
            raise ValueError(f"is not {what}")
        return value
    return parse


def _auto_or_positive(raw: str) -> float | str:
    return raw if raw == "auto" else _POSITIVE(raw)


class Key(NamedTuple):
    """A config key: its parser (with any bound), default and readers."""

    parse: Parser
    default: object  # None: the subcommand derives (or requires) the value
    commands: tuple[str, ...]


_MECH = ("mech-response",)
_BUDGET = ("noise-sweep", "pulse-budget")
_GRATING = ("beam-sim", "swg-gen")

KEYS: dict[str, Key] = {
    "device.dataset": Key(str, None, _MECH + _BUDGET),  # a dataset file, or 'bundled'
    "device.branch": Key(_choice({b: b for b in device.BRANCHES},
                                 f"one of {', '.join(device.BRANCHES)}"), "twist-like", _BUDGET),
    "mechanics.l_s_um": Key(_FLOAT, 12.0, _MECH),
    "mechanics.q_m": Key(_POSITIVE, 500.0, _MECH),
    "mechanics.g_m_hz": Key(_NONNEGATIVE, 5e5, _MECH),
    "mechanics.f_d_n": Key(_FLOAT, 1e-15, _MECH),
    "mechanics.f_min_hz": Key(_POSITIVE, None, _MECH),  # from the mode frequencies
    "mechanics.f_max_hz": Key(_POSITIVE, None, _MECH),
    "mechanics.n_points": Key(_number(integer=True, ge=2), 1501, _MECH),
    "sweep.l_s_min_um": Key(_FLOAT, None, _BUDGET),  # from the dataset domain
    "sweep.l_s_max_um": Key(_FLOAT, None, _BUDGET),
    "sweep.l_s_step_um": Key(_POSITIVE, 0.25, _BUDGET),
    "sweep.l_s_ncav_um": Key(_FLOAT, 10.0, ("pulse-budget",)),
    "sweep.n_cav_min": Key(_POSITIVE, 1e-5, ("pulse-budget",)),
    "sweep.n_cav_max": Key(_POSITIVE, 1e-1, ("pulse-budget",)),
    "sweep.n_cav_points": Key(_number(integer=True, ge=1), 41, ("pulse-budget",)),
    "readout.lambda0_m": Key(_POSITIVE, 1.428e-6, _BUDGET),
    "readout.q_o": Key(_POSITIVE, 1e6, _BUDGET),
    "readout.dip_depth": Key(_FRACTION, 1.0, _BUDGET),
    "readout.p_det_w": Key(_auto_or_positive, 1e-7, _BUDGET),
    "readout.eta_qe": Key(_FRACTION, 1.0, _BUDGET),
    "readout.p_dn_w": Key(_NONNEGATIVE, 2.5e-12, _BUDGET),
    "readout.n_cav": Key(_NONNEGATIVE, 0.0, _BUDGET),
    "environment.t_k": Key(_NONNEGATIVE, None, _BUDGET),  # per subcommand
    "environment.q_m": Key(_NONNEGATIVE, 0.0, _BUDGET),  # 0: the dataset's Q
    "beam.lambda_sig_m": Key(_POSITIVE, 8.4e-7, _BUDGET + _GRATING),
    "beam.delta_l": Key(_NONNEGATIVE, 1.0, _BUDGET),
    "beam.eta_conv": Key(_FRACTION, 1.0, _BUDGET),
    "beam.contrast": Key(_FRACTION, 1.0, _BUDGET),
    "beam.modulation": Key(_choice({"cw": "cw", "pulse": "pulse"}, "cw or pulse"), "cw", _BUDGET),
    "beam.f_rep_hz": Key(_auto_or_positive, "auto", _BUDGET),
    "beam.bandwidth_hz": Key(_POSITIVE, 1.0, _BUDGET),
    "beam.w0_m": Key(_POSITIVE, 5e-6, ("beam-sim",)),
    "grid.n": Key(_int_where(lambda n: n >= 32 and n & (n - 1) == 0, "a power of two >= 32"),
                  1024, ("beam-sim",)),
    "grid.pitch_m": Key(_POSITIVE, 50e-9, ("beam-sim",)),
    "swg.aperture_d_m": Key(_POSITIVE, 20e-6, _GRATING),
    "swg.lattice_a_m": Key(_POSITIVE, 360e-9, _GRATING),
    "swg.delta_l": Key(_INT, 1, _GRATING),
    "swg.design_lambda_m": Key(_number(ge=swg.LOOKUP_LAMBDA_RANGE[0],
                                       le=swg.LOOKUP_LAMBDA_RANGE[1]),
                               None, _GRATING),  # beam.lambda_sig_m
    "swg.phase_sign": Key(_int_where(lambda s: s in (-1, 1), "1 or -1"), 1, _GRATING),
    "swg.z_eval_m": Key(_FLOAT, 0.0, ("beam-sim",)),
    "swg.ideal_vortex": Key(_BOOL, False, ("beam-sim",)),
    "fit.f2_hz": Key(_FLOAT, 0.0, ("fit-gm",)),  # <= 0: fitted with the coupling
}


def resolve_config(command: str, preset: str | None, config_path: str | None) -> dict:
    """Every key `command` reads, parsed and bound-checked.

    A value comes from the config file, else the preset, else the table's
    default.  A file key that `command` does not read is an error; a preset
    key is not, since presets are shared across subcommands.
    """
    scope = {name: key for name, key in KEYS.items() if command in key.commands}
    raw = dict(PRESETS[preset]) if preset is not None else {}
    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.ConfigParser(default_section="")  # [DEFAULT] is a plain section
        try:
            parser.read(path)
            items = [(f"{s}.{k}", v) for s in parser.sections() for k, v in parser.items(s)]
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from None
        for name, value in items:
            if name not in scope:
                import difflib  # only on this error path

                hint = difflib.get_close_matches(name, scope, n=1)
                raise ConfigError(f"{path}: config key {name} is not read by {command}"
                                  + (f"; did you mean {hint[0]}?" if hint else ""))
            raw[name] = value
    cfg = {}
    for name, key in scope.items():
        try:
            cfg[name] = key.parse(raw[name]) if name in raw else key.default
        except ValueError as exc:
            raise ConfigError(f"config key {name} = {raw[name]!r} {exc}") from None
    return cfg


def _derived(cfg: dict, name: str, value):
    """cfg[name], or `value` where the table leaves the key to the subcommand."""
    return value if cfg[name] is None else cfg[name]


def _load_cfg_dataset(cfg: dict) -> device.DeviceDataset:
    raw = cfg["device.dataset"]
    if raw is None:
        raise ConfigError("missing required config key: device.dataset "
                          "(path to a dataset file, or 'bundled')")
    if raw == "bundled":
        return device.load_sample_dataset()
    if not Path(raw).exists():
        raise ConfigError(f"config key device.dataset: file not found: {raw}")
    return device.load_dataset(raw)


def _readout(cfg: dict) -> noise.OpticalReadout:
    p_det_auto = cfg["readout.p_det_w"] == "auto"
    n_cav = cfg["readout.n_cav"]
    readout = noise.OpticalReadout(
        lambda0=cfg["readout.lambda0_m"],
        q_o=cfg["readout.q_o"],
        p_det=1.0 if p_det_auto else cfg["readout.p_det_w"],
        dip_depth=cfg["readout.dip_depth"],
        eta_qe=cfg["readout.eta_qe"],
        p_dn=cfg["readout.p_dn_w"],
        n_cav=n_cav,
    )
    if p_det_auto:
        if n_cav <= 0.0:
            raise ConfigError("readout.p_det_w = auto requires readout.n_cav > 0")
        readout = noise.readout_at_ncav(readout, n_cav)
    return readout


def _beam(cfg: dict) -> noise.SignalBeam:
    if cfg["beam.modulation"] == "cw":
        modulation: noise.CwModulation | noise.PulseTrain = noise.CwModulation()
    else:
        f_rep = cfg["beam.f_rep_hz"]
        modulation = noise.PulseTrain(None if f_rep == "auto" else f_rep)
    return noise.SignalBeam(
        lambda_sig=cfg["beam.lambda_sig_m"],
        delta_l=cfg["beam.delta_l"],
        eta_conv=cfg["beam.eta_conv"],
        contrast=cfg["beam.contrast"],
        modulation=modulation,
    )


def _check_in_domain(key: str, l_s: float, dataset: device.DeviceDataset,
                     branch: str) -> None:
    """Raise ConfigError naming `key` if l_s lies outside the branch domain."""
    lo, hi = dataset.domain(branch)
    if not lo <= l_s <= hi:
        raise ConfigError(f"config key {key} = {l_s!r} is outside branch {branch!r} "
                          f"domain [{lo}, {hi}] um")


def _ls_grid(cfg: dict, dataset: device.DeviceDataset, branch: str) -> np.ndarray:
    lo, hi = dataset.domain(branch)
    ls_min = _derived(cfg, "sweep.l_s_min_um", lo)
    ls_max = _derived(cfg, "sweep.l_s_max_um", hi)
    step = cfg["sweep.l_s_step_um"]
    _check_in_domain("sweep.l_s_min_um", ls_min, dataset, branch)
    _check_in_domain("sweep.l_s_max_um", ls_max, dataset, branch)
    if not ls_min < ls_max:
        raise ConfigError("sweep.l_s_min_um must be < sweep.l_s_max_um")
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


def cmd_mech_response(args, cfg: dict) -> int:
    dataset = _load_cfg_dataset(cfg)
    l_s = cfg["mechanics.l_s_um"]
    q_m = cfg["mechanics.q_m"]
    for branch in ("twist-like", "bounce-like"):
        _check_in_domain("mechanics.l_s_um", l_s, dataset, branch)
    twist = device.interpolate(dataset, "twist-like", l_s, q_m_override=q_m)
    bounce = device.interpolate(dataset, "bounce-like", l_s, q_m_override=q_m)
    g_m = TWO_PI * cfg["mechanics.g_m_hz"]
    # Python floats: the model computes, and the messages below print, in float
    (m1, omega1), (m2, omega2) = ((r["m_eff"].item(), r["omega_m"].item())
                                  for r in (twist, bounce))
    try:
        model = mechanics.CoupledOscillator(m1=m1, m2=m2, omega1=omega1, omega2=omega2,
                                            gamma1=omega1 / q_m, gamma2=omega2 / q_m, g_m=g_m)
    except ValueError as exc:  # the modes and q_m are checked: g_m is what is left
        raise ConfigError(f"config key mechanics.g_m_hz = {cfg['mechanics.g_m_hz']!r} "
                          f"at mechanics.l_s_um = {l_s!r}: {exc}") from None
    f_min = _derived(cfg, "mechanics.f_min_hz", 0.7 * min(omega1, omega2) / TWO_PI)
    f_max = _derived(cfg, "mechanics.f_max_hz", 1.2 * max(omega1, omega2) / TWO_PI)
    if not f_min < f_max:
        raise ConfigError(f"mechanics.f_min_hz = {f_min!r} must be < "
                          f"mechanics.f_max_hz = {f_max!r}")
    omega = TWO_PI * np.linspace(f_min, f_max, cfg["mechanics.n_points"])
    curve = mechanics.response_curve(model, cfg["mechanics.f_d_n"], omega)

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
    """The budget over the sweep.l_s_* grid, and the inputs it was built from."""

    mode_at: Callable[[str, float], np.void]  # one MODE_DTYPE record
    readout: noise.OpticalReadout
    beam: noise.SignalBeam
    t_k: float
    bandwidth: float
    grid: np.ndarray
    budgets: noise.NoiseBudget  # one array per field, one value per l_s


def _ls_sweep(cfg: dict, t_k_default: float) -> _LsSweep:
    """The set-up noise-sweep and pulse-budget share: one budget call over
    the columns of the interpolated l_s grid."""
    dataset = _load_cfg_dataset(cfg)
    branch = cfg["device.branch"]
    if branch not in dataset.branches():
        raise ConfigError(f"config key device.branch = {branch!r} is not in the dataset, "
                          f"which has {', '.join(dataset.branches())}")
    readout = _readout(cfg)
    beam = _beam(cfg)
    t_k = _derived(cfg, "environment.t_k", t_k_default)
    q_m = cfg["environment.q_m"]
    bandwidth = cfg["beam.bandwidth_hz"]
    grid = _ls_grid(cfg, dataset, branch)

    def mode_at(key: str, l_s: float) -> np.void:
        _check_in_domain(key, l_s, dataset, branch)
        return device.interpolate(dataset, branch, l_s, q_m_override=q_m or None)

    modes = device.interpolate_grid(dataset, branch, grid, q_m_override=q_m or None)
    budgets = noise.budget(modes, readout, t_k, beam, bandwidth_hz=bandwidth)
    return _LsSweep(mode_at, readout, beam, t_k, bandwidth, grid, budgets)


def cmd_noise_sweep(args, cfg: dict) -> int:
    sweep = _ls_sweep(cfg, t_k_default=4.0)
    out = _out_dir(args)
    _atomic_write(
        out / "noise_sweep.csv",
        lambda p: noise.write_budget_sweep(p, "l_s_um", sweep.grid, sweep.budgets),
    )
    i = int(np.argmin(sweep.budgets.tau_min))
    print("# minimum of tau_min over the sweep")
    print(noise.BUDGET_SWEEP_HEADER)
    print(noise.budget_row(sweep.grid[i], sweep.budgets.at(i)))
    print(f"wrote {out / 'noise_sweep.csv'}")
    return 0


def cmd_pulse_budget(args, cfg: dict) -> int:
    sweep = _ls_sweep(cfg, t_k_default=0.01)
    if not isinstance(sweep.beam.modulation, noise.PulseTrain):
        raise ConfigError("pulse-budget requires beam.modulation = pulse")
    grid, budgets = sweep.grid, sweep.budgets
    l_s0 = cfg["sweep.l_s_ncav_um"]
    ncav_grid = np.logspace(math.log10(cfg["sweep.n_cav_min"]),
                            math.log10(cfg["sweep.n_cav_max"]), cfg["sweep.n_cav_points"])
    scan = noise.optimize_ncav(sweep.mode_at("sweep.l_s_ncav_um", l_s0), sweep.readout,
                               sweep.t_k, sweep.beam, ncav_grid, bandwidth_hz=sweep.bandwidth)

    out = _out_dir(args)
    _atomic_write(
        out / "pulse_ls_sweep.csv",
        lambda p: noise.write_budget_sweep(p, "l_s_um", grid, budgets),
    )
    _atomic_write(
        out / "pulse_ncav_sweep.csv",
        lambda p: noise.write_budget_sweep(p, "n_cav", scan.n_cav, scan.budgets),
    )
    i = int(np.argmin(budgets.n_min))
    print(f"n_min over l_s: minimum {budgets.n_min[i]:.4g} photons/pulse "
          f"at l_s = {grid[i]:g} um")
    print(f"n_min over n_cav (l_s = {l_s0:g} um): minimum {scan.best_n_min:.4g} "
          f"photons/pulse at n_cav = {scan.best_n_cav:.4g}")
    print(f"wrote {out / 'pulse_ls_sweep.csv'} and {out / 'pulse_ncav_sweep.csv'}")
    return 0


def _signal_in_lookup(cfg: dict) -> float:
    """beam.lambda_sig_m where a grating uses it: inside the lookup table's range."""
    lam = cfg["beam.lambda_sig_m"]
    lo, hi = swg.LOOKUP_LAMBDA_RANGE
    if not lo <= lam <= hi:
        raise ConfigError(f"config key beam.lambda_sig_m = {lam!r} is outside the grating "
                          f"lookup range [{lo}, {hi}] m")
    return lam


def _design(cfg: dict) -> swg.SWGDesign:
    design_lambda = cfg["swg.design_lambda_m"]
    return swg.SWGDesign(
        aperture_d=cfg["swg.aperture_d_m"],
        lattice_a=cfg["swg.lattice_a_m"],
        delta_l=cfg["swg.delta_l"],
        design_lambda=_signal_in_lookup(cfg) if design_lambda is None else design_lambda,
        phase_sign=cfg["swg.phase_sign"],
    )


def cmd_beam_sim(args, cfg: dict) -> int:
    n, pitch = cfg["grid.n"], cfg["grid.pitch_m"]
    lam, w0, z_eval = cfg["beam.lambda_sig_m"], cfg["beam.w0_m"], cfg["swg.z_eval_m"]
    target = beams.LGIndex(p=0, l=cfg["swg.delta_l"] * cfg["swg.phase_sign"], w0=w0)
    if cfg["swg.ideal_vortex"]:
        metrics = beams.conversion_metrics(beams.make_gaussian(n, pitch, lam, w0),
                                           beams.vortex_mask(n, pitch, target.l), target,
                                           z_eval=z_eval)
    else:
        metrics = beams.grating_metrics(_design(cfg), _signal_in_lookup(cfg), n, pitch, w0,
                                        z_eval)
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
    l_values = list(range(target.l - 3, target.l + 4))
    fractions = beams.azimuthal_spectrum(out_field, l_values)
    print("l,power_fraction")
    for l, frac in zip(l_values, fractions):
        print(f"{l},{frac:.6f}")
    print(f"wrote rasters in {out}")
    return 0


def cmd_swg_gen(args, cfg: dict) -> int:
    design = _design(cfg)
    layout = swg.generate_layout(design)
    out = _out_dir(args)
    _atomic_write(out / "layout.csv", lambda p: swg.export_layout(layout, p))
    print(f"sites: {len(layout)} (area estimate {swg.expected_site_count(design):.0f})")
    print("diameter_nm,count")
    for d, count in zip(*np.unique(layout.diameter, return_counts=True)):
        print(f"{d:.0f},{count}")
    print(f"wrote {out / 'layout.csv'}")
    return 0


def cmd_fit_gm(args, cfg: dict) -> int:
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
            result = _fit_group(rows, cfg["fit.f2_hz"])
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


def _fit_group(rows: np.ndarray, f2_hz: float) -> mechanics.FitGmResult:
    """Fit one tuned-crossing group, estimating the fixed branch if f2_hz <= 0."""
    ls, w_lo, w_hi = rows[:, 0], rows[:, 1], rows[:, 2]
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
        return args.func(args, resolve_config(args.command, args.preset, args.config))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
