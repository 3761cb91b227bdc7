"""`oam-sense`: command-line front end.

Subcommands: mech-response, noise-sweep, pulse-budget, beam-sim, swg-gen,
fit-gm.  Runs are configured by flat INI-style files (``[section]`` headers,
``key = value`` lines, SI unit suffixes on keys) optionally layered on top of
a named preset.  The table ``KEYS`` holds each config key as data: its
default, the subcommands that read it and its domain: a kind (float, int,
bool or str), bounds gt, ge and le, an auto flag, choices and a rule named
in RULES, from which Key.parse derives each check.  A config file may set
only the keys its subcommand reads, and every value is checked before any
output is written.  A subcommand reads only the keys it uses: changing one
changes stdout or an output file, or exits 2 naming the key.  So noise-sweep
is the CW budget (its n_min column is blank), and pulse-budget, the pulsed
one, is the only reader of beam.f_rep_hz and beam.bandwidth_hz; swg-gen
designs at beam.lambda_sig_m, and only beam-sim reads swg.design_lambda_m;
beam-sim's ideal vortex builds no pillar grating, so it exits 2 if
swg.aperture_d_m, swg.lattice_a_m or swg.design_lambda_m is set.  The
exception: with the bundled lookup, swg-gen's layout is the same at every
beam.lambda_sig_m.  A bound is physical where there is one: beam.delta_l
must be > 0, since a beam that carries no OAM change exerts no torque and
its budget's p_min_w would be inf on every row.  A pillar grating, in
beam-sim and in swg-gen alike, needs swg.aperture_d_m >= 2 * swg.lattice_a_m:
a smaller aperture holds only the pillar at its centre, and one pillar spans
no lattice to rasterize or to lay out.

Every output is a comma-separated table written by table.write_table, and
every CSV row printed to stdout comes from table.rows: a cell is
repr(float(v)), or text where its column says so (a blank CW n_min, a
fit-gm error).  A fixed config yields byte-identical outputs and stdout.

Every subcommand runs in one shape, in main.  COMMANDS names its handler and
output files.  Inside _outputs, which creates --out and gives a temp path in
it per file, the handler checks, computes, fills its temp files and returns
its stdout lines; it never prints to stdout.  main then renames the set into
--out, in a fixed order, and prints those lines and a "wrote" line.  A failed
run exits 2 with one error line, no stdout, and no output, temp file or --out
directory that it created, also when it runs out of memory, in this process
or in beam-sim's worker (a grid.n too large for the machine).  Config errors
come before --out is made; a handler's own checks (domain, sampling, lattice,
data file) come after, so when both are bad, the error names --out.

beam-sim runs in two halves on two cores: one worker forked after the config
checks builds the target mode and writes intensity_target.csv and
phase_target.csv, while this process scores the grating, takes the azimuthal
spectrum and writes intensity_swg.csv and phase_swg.csv.  The worker has
ended before the set is renamed or removed.  Before the fork, beam-sim fixes
glibc's mmap and trim thresholds for the process (_map_large_blocks), so its
n x n arrays are unmapped when freed and its peak memory does not depend on
what the process ran before.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import functools
import itertools
import math
import os
import sys
from collections.abc import Callable, Iterator, Sequence
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import beams, device, mechanics, noise, swg, table

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
        "beam.f_rep_hz": "auto",
        "beam.bandwidth_hz": "1",
    },
}


#: The rules an int key may name, besides its bounds; a name is its error's text.
RULES: dict[str, Callable[[int], bool]] = {
    "a power of two >= 32": lambda n: n >= 32 and n & (n - 1) == 0,
    "1 or -1": lambda s: s in (-1, 1),
}

#: The words a bool key reads, in any letter case.
BOOLEANS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
            **dict.fromkeys(("0", "false", "no", "off"), False)}


class Key(NamedTuple):
    """A config key: its default, its readers and its domain.  A number has bounds
    gt, ge and le, a rule named in RULES, and auto (the text "auto" is a value too);
    a str takes one of its choices, in any letter case, or else any text but ''."""

    default: object  # None: the subcommand derives (or requires) the value
    commands: tuple[str, ...]
    kind: type = float
    gt: float | None = None
    ge: float | None = None
    le: float | None = None
    auto: bool = False
    choices: tuple[str, ...] = ()
    rule: str | None = None

    def parse(self, raw: str) -> object:
        """The value raw gives this key, or ValueError with the rest of the error line."""
        if self.kind is bool:
            if raw.lower() not in BOOLEANS:
                raise ValueError("is not a boolean")
            return BOOLEANS[raw.lower()]
        if self.choices:
            if raw.lower() not in self.choices:
                raise ValueError(f"is not one of {', '.join(self.choices)}")
            return raw.lower()
        if self.kind is str:
            if not raw:
                raise ValueError("is empty")
            return raw
        if self.auto and raw == "auto":
            return raw
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError("is not a finite number")
        if self.kind is int and not value.is_integer():
            raise ValueError("is not an integer")
        if self.gt is not None and not value > self.gt:
            raise ValueError(f"must be > {self.gt:g}")
        if self.ge is not None and not value >= self.ge:
            raise ValueError(f"must be >= {self.ge:g}")
        if self.le is not None and not value <= self.le:
            raise ValueError(f"must be <= {self.le:g}")
        if self.rule is not None and not RULES[self.rule](int(value)):
            raise ValueError(f"is not {self.rule}")
        return int(value) if self.kind is int else value


_MECH = ("mech-response",)
_BUDGET = ("noise-sweep", "pulse-budget")
_GRATING = ("beam-sim", "swg-gen")

KEYS: dict[str, Key] = {
    "device.dataset": Key(None, _MECH + _BUDGET, str),  # a dataset file, or 'bundled'
    "device.branch": Key("twist-like", _BUDGET, str, choices=device.BRANCHES),
    "mechanics.l_s_um": Key(12.0, _MECH),
    "mechanics.q_m": Key(500.0, _MECH, gt=0.0),
    "mechanics.g_m_hz": Key(5e5, _MECH, ge=0.0),
    "mechanics.f_d_n": Key(1e-15, _MECH),
    "mechanics.f_min_hz": Key(None, _MECH, gt=0.0),  # from the mode frequencies
    "mechanics.f_max_hz": Key(None, _MECH, gt=0.0),
    "mechanics.n_points": Key(1501, _MECH, int, ge=2),
    "sweep.l_s_min_um": Key(None, _BUDGET),  # from the dataset domain
    "sweep.l_s_max_um": Key(None, _BUDGET),
    "sweep.l_s_step_um": Key(0.25, _BUDGET, gt=0.0),
    "sweep.l_s_ncav_um": Key(10.0, ("pulse-budget",)),
    "sweep.n_cav_min": Key(1e-5, ("pulse-budget",), gt=0.0),
    "sweep.n_cav_max": Key(1e-1, ("pulse-budget",), gt=0.0),
    "sweep.n_cav_points": Key(41, ("pulse-budget",), int, ge=2),
    "readout.lambda0_m": Key(1.428e-6, _BUDGET, gt=0.0),
    "readout.q_o": Key(1e6, _BUDGET, gt=0.0),
    "readout.dip_depth": Key(1.0, _BUDGET, gt=0.0, le=1.0),
    "readout.p_det_w": Key(1e-7, _BUDGET, gt=0.0, auto=True),
    "readout.eta_qe": Key(1.0, _BUDGET, gt=0.0, le=1.0),
    "readout.p_dn_w": Key(2.5e-12, _BUDGET, ge=0.0),
    "readout.n_cav": Key(0.0, _BUDGET, ge=0.0),
    "environment.t_k": Key(None, _BUDGET, ge=0.0),  # per subcommand
    "environment.q_m": Key(0.0, _BUDGET, ge=0.0),  # 0: the dataset's Q
    "beam.lambda_sig_m": Key(8.4e-7, _BUDGET + _GRATING, gt=0.0),
    "beam.delta_l": Key(1.0, _BUDGET, gt=0.0),  # 0 exerts no torque: p_min_w would be inf
    "beam.eta_conv": Key(1.0, _BUDGET, gt=0.0, le=1.0),
    "beam.contrast": Key(1.0, _BUDGET, gt=0.0, le=1.0),
    "beam.f_rep_hz": Key("auto", ("pulse-budget",), gt=0.0, auto=True),
    "beam.bandwidth_hz": Key(1.0, ("pulse-budget",), gt=0.0),
    "beam.w0_m": Key(5e-6, ("beam-sim",), gt=0.0),
    "grid.n": Key(1024, ("beam-sim",), int, rule="a power of two >= 32"),
    "grid.pitch_m": Key(50e-9, ("beam-sim",), gt=0.0),
    "swg.aperture_d_m": Key(None, _GRATING, gt=0.0),  # swg.SWGDesign's default
    "swg.lattice_a_m": Key(None, _GRATING, gt=0.0),  # swg.SWGDesign's default
    "swg.delta_l": Key(1, _GRATING, int),
    "swg.design_lambda_m": Key(None, ("beam-sim",), ge=swg.LOOKUP_LAMBDA_RANGE[0],
                               le=swg.LOOKUP_LAMBDA_RANGE[1]),  # beam.lambda_sig_m
    "swg.phase_sign": Key(1, _GRATING, int, rule="1 or -1"),
    "swg.z_eval_m": Key(0.0, ("beam-sim",)),
    "swg.ideal_vortex": Key(False, ("beam-sim",), bool),
    "fit.f2_hz": Key(0.0, ("fit-gm",)),  # <= 0: fitted with the coupling
}


def resolve_config(command: str, preset: str | None, config_path: str | None) -> dict:
    """Every key `command` reads, parsed and bound-checked.

    A value comes from the config file, else the preset, else the table's
    default.  A file key that `command` does not read is an error; a preset
    key is not, since presets are shared across subcommands.
    """
    scope = {name: key for name, key in KEYS.items() if command in key.commands}
    raw = dict(PRESETS[preset]) if preset is not None else {}
    if config_path == "":  # Path("") is the working directory
        raise ConfigError("--config is empty: give a config file")
    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.ConfigParser(default_section="")  # [DEFAULT] is a plain section
        try:
            with open(path, encoding="utf-8") as file:
                parser.read_file(file)
            items = [(f"{s}.{k}", v) for s in parser.sections() for k, v in parser.items(s)]
        except (configparser.Error, OSError, UnicodeDecodeError) as exc:  # OSError: a directory
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


def _check_ncav_power(cfg: dict, key: str, n_cav: float,
                      readout: noise.OpticalReadout) -> None:
    """Raise ConfigError naming `key` if the detected power tied to n_cav
    (noise.detected_power_for_ncav) underflows to 0."""
    if not noise.detected_power_for_ncav(readout, n_cav) > 0.0:
        raise ConfigError(f"config key {key} = {cfg[key]!r} gives a detected power "
                          "n_cav * hbar * omega0 * kappa that underflows to 0")


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
        _check_ncav_power(cfg, "readout.n_cav", n_cav, readout)
        readout = noise.readout_at_ncav(readout, n_cav)
    return readout


def _beam(cfg: dict, modulation: noise.CwModulation | noise.PulseTrain) -> noise.SignalBeam:
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


@contextlib.contextmanager
def _outputs(out: Path, names: Sequence[str]) -> Iterator[dict[str, Path]]:
    """Commit one run's output set: yield {name: temp path in out}, then
    rename every temp file to out / name, in the order of names.  Its one
    caller is main, around the subcommand's handler.

    Each temp name is unique to this call and sits in out itself, so
    concurrent runs into one directory do not collide and each rename is
    atomic.  A name is <name>.<pid>.<8 hex digits>.tmp.  The hex digits are
    four bytes of os.urandom, the source secrets.token_hex(4) reads; secrets
    itself is not imported, because it loads hashlib and with it OpenSSL's
    libcrypto, about 3.6 MB of memory in every process that runs the CLI.
    If anything fails (BaseException) before the renames, every temp file
    and every directory this call created for out is removed, and the
    exception propagates.
    """
    created = list(itertools.takewhile(lambda d: not d.exists(), (out, *out.parents)))
    temps = {name: out / f"{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp" for name in names}
    try:
        out.mkdir(parents=True, exist_ok=True)
        yield temps
        for name, tmp in temps.items():
            os.replace(tmp, out / name)
    except BaseException:
        for tmp in temps.values():
            tmp.unlink(missing_ok=True)
        for d in created:  # deepest first
            with contextlib.suppress(OSError):  # not empty: another run writes there
                d.rmdir()
        raise


def cmd_mech_response(args, cfg: dict, temps: dict[str, Path]) -> list[str]:
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
    mechanics.save_response_curve(curve, temps["response.csv"])
    label, x = "x2", curve.x2
    if g_m == 0.0:
        print("warning: g_m = 0, nanobeam response x2 is identically zero", file=sys.stderr)
        label, x = "x1", curve.x1
    amp = np.hypot(x.real, x.imag)  # the bits of save_response_curve's column
    peaks = mechanics.peak_indices(amp)
    return [f"# response peaks of |{label}| at l_s = {l_s} um (Q_m = {q_m})",
            "peak_f_hz,peak_abs_m", *table.rows((curve.omega[peaks] / TWO_PI, amp[peaks]))]


class _LsSweep(NamedTuple):
    """The budget over the sweep.l_s_* grid, and the inputs it was built from."""

    mode_at: Callable[[str, float], np.void]  # one MODE_DTYPE record
    readout: noise.OpticalReadout
    t_k: float
    grid: np.ndarray
    budgets: noise.NoiseBudget  # one array per field, one value per l_s


def _ls_sweep(cfg: dict, t_k_default: float, beam: noise.SignalBeam,
              bandwidth: float = 1.0) -> _LsSweep:
    """The set-up noise-sweep and pulse-budget share: one budget call over
    the columns of the interpolated l_s grid, for the subcommand's beam."""
    dataset = _load_cfg_dataset(cfg)
    branch = cfg["device.branch"]
    if branch not in dataset.branches():
        raise ConfigError(f"config key device.branch = {branch!r} is not in the dataset, "
                          f"which has {', '.join(dataset.branches())}")
    readout = _readout(cfg)
    t_k = _derived(cfg, "environment.t_k", t_k_default)
    q_m = cfg["environment.q_m"]
    grid = _ls_grid(cfg, dataset, branch)

    def mode_at(key: str, l_s: float) -> np.void:
        _check_in_domain(key, l_s, dataset, branch)
        return device.interpolate(dataset, branch, l_s, q_m_override=q_m or None)

    modes = device.interpolate_grid(dataset, branch, grid, q_m_override=q_m or None)
    budgets = noise.budget(modes, readout, t_k, beam, bandwidth_hz=bandwidth)
    return _LsSweep(mode_at, readout, t_k, grid, budgets)


def cmd_noise_sweep(args, cfg: dict, temps: dict[str, Path]) -> list[str]:
    sweep = _ls_sweep(cfg, 4.0, _beam(cfg, noise.CwModulation()))
    noise.write_budget_sweep(temps["noise_sweep.csv"], "l_s_um", sweep.grid, sweep.budgets)
    header, columns, text = noise.budget_table("l_s_um", sweep.grid, sweep.budgets)
    i = int(np.argmin(sweep.budgets.tau_min))
    return ["# minimum of tau_min over the sweep", header,
            next(table.rows([c[i:i + 1] for c in columns], text[i:i + 1]))]


def cmd_pulse_budget(args, cfg: dict, temps: dict[str, Path]) -> list[str]:
    f_rep, bandwidth = cfg["beam.f_rep_hz"], cfg["beam.bandwidth_hz"]
    beam = _beam(cfg, noise.PulseTrain(None if f_rep == "auto" else f_rep))
    sweep = _ls_sweep(cfg, 0.01, beam, bandwidth)
    grid, budgets = sweep.grid, sweep.budgets
    l_s0 = cfg["sweep.l_s_ncav_um"]
    ncav_grid = np.logspace(math.log10(cfg["sweep.n_cav_min"]),
                            math.log10(cfg["sweep.n_cav_max"]), cfg["sweep.n_cav_points"])
    for key, n_cav in (("sweep.n_cav_min", ncav_grid[0]), ("sweep.n_cav_max", ncav_grid[-1])):
        _check_ncav_power(cfg, key, n_cav, sweep.readout)
    if not cfg["sweep.n_cav_min"] < cfg["sweep.n_cav_max"]:
        raise ConfigError("sweep.n_cav_min must be < sweep.n_cav_max")
    scan = noise.optimize_ncav(sweep.mode_at("sweep.l_s_ncav_um", l_s0), sweep.readout,
                               sweep.t_k, beam, ncav_grid, bandwidth_hz=bandwidth)
    noise.write_budget_sweep(temps["pulse_ls_sweep.csv"], "l_s_um", grid, budgets)
    noise.write_budget_sweep(temps["pulse_ncav_sweep.csv"], "n_cav", scan.n_cav, scan.budgets)
    i = int(np.argmin(budgets.n_min))
    return [f"n_min over l_s: minimum {budgets.n_min[i]:.4g} photons/pulse "
            f"at l_s = {grid[i]:g} um",
            f"n_min over n_cav (l_s = {l_s0:g} um): minimum {scan.best_n_min:.4g} "
            f"photons/pulse at n_cav = {scan.best_n_cav:.4g}"]


def _signal_in_lookup(cfg: dict) -> float:
    """beam.lambda_sig_m where a grating uses it: inside the lookup table's range."""
    lam = cfg["beam.lambda_sig_m"]
    lo, hi = swg.LOOKUP_LAMBDA_RANGE
    if not lo <= lam <= hi:
        raise ConfigError(f"config key beam.lambda_sig_m = {lam!r} is outside the grating "
                          f"lookup range [{lo}, {hi}] m")
    return lam


def _design(cfg: dict, design_lambda: float) -> swg.SWGDesign:
    return swg.SWGDesign(
        aperture_d=_derived(cfg, "swg.aperture_d_m", swg.SWGDesign.aperture_d),
        lattice_a=_derived(cfg, "swg.lattice_a_m", swg.SWGDesign.lattice_a),
        delta_l=cfg["swg.delta_l"],
        design_lambda=design_lambda,
        phase_sign=cfg["swg.phase_sign"],
    )


#: A pitch within this relative distance of lattice/4 counts as at the limit:
#: the grating measures its lattice from pillar positions, which can read a
#: few ulps below swg.lattice_a_m.
_LATTICE_RTOL = 1e-9


def _lattice_key(cfg: dict, lattice: float) -> str:
    """swg.lattice_a_m, with its default value when the config leaves it unset."""
    return ("swg.lattice_a_m" if cfg["swg.lattice_a_m"] is not None
            else f"swg.lattice_a_m (default {lattice!r})")


def _check_resolves_lattice(cfg: dict, pitch: float, lattice: float) -> None:
    """Raise ConfigError naming the keys unless pitch < lattice/4 (swg.pillar_index)."""
    limit = lattice / 4.0
    if pitch > limit or math.isclose(pitch, limit, rel_tol=_LATTICE_RTOL):
        raise ConfigError(f"config key grid.pitch_m = {pitch!r} does not resolve the pillar "
                          f"lattice: it must be below {_lattice_key(cfg, lattice)} / 4 = "
                          f"{limit!r}")


def _check_holds_two_pillars(cfg: dict, aperture: float, lattice: float) -> None:
    """Raise ConfigError naming the keys unless aperture >= 2 * lattice: a
    smaller aperture holds only the pillar at its centre, which spans no
    lattice (swg.pillar_index) and is no grating (swg-gen)."""
    if aperture < 2.0 * lattice:
        key = (f"swg.aperture_d_m = {aperture!r}" if cfg["swg.aperture_d_m"] is not None
               else f"swg.aperture_d_m (default {aperture!r})")
        raise ConfigError(f"config key {key} holds one pillar: it must be at least 2 * "
                          f"{_lattice_key(cfg, lattice)} = {2.0 * lattice!r}")


#: glibc's mallopt parameters M_TRIM_THRESHOLD and M_MMAP_THRESHOLD, and the
#: block size from which malloc maps each block on its own once beam-sim runs.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MAPPED_FROM = 4 << 20


def _map_large_blocks() -> None:
    """Fix glibc's mmap threshold at _MAPPED_FROM, and its trim threshold at
    twice that, for the rest of the process.

    By default glibc raises the threshold to the size of each mapped block
    freed (up to 32 MiB), so after the first n x n field is freed, beam-sim's
    8 and 16 MiB arrays at n = 1024 are carved from the heap.  The holes they
    leave stay resident, and where they fall depends on the small objects
    allocated in between: in one process running beam-sim at n = 1024 again
    and again (the beam_sim benchmark), the peak memory read 137.3-140.6 MB
    (median 138.1) without this call and 127.9-131.0 MB (median 128.9) with
    it, in 10 alternating pairs.  With a fixed threshold a large array that
    no free heap block fits is mapped on its own and unmapped when freed,
    and the peak is that of the live arrays.  The trim threshold is fixed at
    twice as much, the pair glibc's own rule keeps: left at its 128 KiB
    default, the heap would be cut back and faulted in again around each
    2 MiB column block of the spectrum.  Elsewhere than glibc this does
    nothing; if glibc refuses a value, its own setting stays.
    """
    if "CS_GNU_LIBC_VERSION" not in getattr(os, "confstr_names", {}) \
            or not os.confstr("CS_GNU_LIBC_VERSION"):
        return
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 2 * _MAPPED_FROM)
    mallopt(_M_MMAP_THRESHOLD, _MAPPED_FROM)


def _save_rasters(field: beams.ScalarField, intensity_path: Path, phase_path: Path) -> None:
    """Write |a|^2 and arg a of a field as two rasters.

    |a| is squared in place: one n x n float array, where np.abs(a) ** 2
    makes two.  Both compute |a| * |a|, so the bits are the same.
    """
    intensity = np.abs(field.amps)
    intensity *= intensity
    beams.save_raster(intensity, intensity_path)
    del intensity
    beams.save_raster(np.angle(field.amps), phase_path)


def _write_target_rasters(n: int, pitch: float, lam: float, target: beams.LGIndex,
                          intensity_path: Path, phase_path: Path) -> None:
    """beam-sim's worker half: |LG|^2 and arg LG of the target mode, written
    to two temp files that the parent renames."""
    _save_rasters(beams.make_lg(n, pitch, lam, target), intensity_path, phase_path)


def cmd_beam_sim(args, cfg: dict, temps: dict[str, Path]) -> list[str]:
    """Score the grating (or the ideal vortex) and write its four rasters.

    Once every check has passed, one worker forked from this process builds
    the target mode and writes intensity_target.csv and phase_target.csv,
    while this process scores the grating, takes the azimuthal spectrum and
    writes the two *_swg.csv rasters.  The pool exits, joining the worker,
    before this handler returns or raises, so inside main's _outputs block:
    before the set is renamed or removed.
    """
    n, pitch = cfg["grid.n"], cfg["grid.pitch_m"]
    lam, w0, z_eval = cfg["beam.lambda_sig_m"], cfg["beam.w0_m"], cfg["swg.z_eval_m"]
    target = beams.LGIndex(p=0, l=cfg["swg.delta_l"] * cfg["swg.phase_sign"], w0=w0)
    if cfg["swg.ideal_vortex"]:
        for name in ("swg.aperture_d_m", "swg.lattice_a_m", "swg.design_lambda_m"):
            if cfg[name] is not None:
                raise ConfigError(f"config key {name} = {cfg[name]!r} describes a pillar "
                                  "grating, which swg.ideal_vortex = true replaces")
        design = None
    else:
        design = _design(cfg, _derived(cfg, "swg.design_lambda_m", _signal_in_lookup(cfg)))
        _check_resolves_lattice(cfg, pitch, design.lattice_a)
        _check_holds_two_pillars(cfg, design.aperture_d, design.lattice_a)
    if w0 < 4.0 * pitch:
        raise ConfigError(f"config key beam.w0_m = {w0!r} is under-sampled: it must be "
                          f">= 4 * grid.pitch_m = {4.0 * pitch!r}")

    # imported here, not at module top: only beam-sim uses them (about 20 ms)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    _map_large_blocks()  # before the fork, so the worker maps its blocks too
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
        targets = pool.submit(_write_target_rasters, n, pitch, lam, target,
                              temps["intensity_target.csv"], temps["phase_target.csv"])
        if design is None:
            metrics = beams.conversion_metrics(beams.make_gaussian(n, pitch, lam, w0),
                                               beams.vortex_mask(n, pitch, target.l),
                                               target, z_eval=z_eval)
        else:
            metrics = beams.grating_metrics(design, lam, n, pitch, w0, z_eval)
        # the spectrum's first pass (32 MiB at n = 1024), which also holds its
        # ring samples, is freed before the rasters are built
        l_values = list(range(target.l - 3, target.l + 4))
        fractions = beams.azimuthal_spectrum(metrics.output, l_values)
        _save_rasters(metrics.output, temps["intensity_swg.csv"], temps["phase_swg.csv"])
        try:
            targets.result()
        except BrokenProcessPool as exc:  # it ended without a result: killed or exited
            raise OSError(f"target raster worker: {exc}") from None
    return [f"fidelity_opt = {metrics.fidelity:.4f} (w0_opt = {metrics.w0_opt * 1e6:.3f} um)",
            f"fidelity_fixed_waist = {metrics.fidelity_fixed_waist:.4f}",
            f"t_swg = {metrics.t_swg:.4f}", f"eta = {metrics.eta:.4f}", "l,power_fraction",
            *(f"{l},{frac:.6f}" for l, frac in zip(l_values, fractions))]


def cmd_swg_gen(args, cfg: dict, temps: dict[str, Path]) -> list[str]:
    design = _design(cfg, _signal_in_lookup(cfg))
    _check_holds_two_pillars(cfg, design.aperture_d, design.lattice_a)
    layout = swg.generate_layout(design)
    swg.export_layout(layout, temps["layout.csv"])
    diameters, counts = np.unique(layout.diameter, return_counts=True)
    return [f"sites: {len(layout)} (area estimate {swg.expected_site_count(design):.0f})",
            "diameter_nm,count",
            *(f"{d:.0f},{count}" for d, count in zip(diameters, counts))]


def cmd_fit_gm(args, cfg: dict, temps: dict[str, Path]) -> list[str]:
    data_path = args.data
    if data_path == "bundled":
        data_path = device.sample_anticrossing_path()
    elif not data_path:  # Path("") is the working directory
        raise ConfigError("fit-gm data argument is empty: give a file, or 'bundled'")
    elif not Path(data_path).exists():
        raise ConfigError(f"fit-gm data file not found: {data_path}")

    groups = device.load_crossings(data_path)
    fits = np.full((len(groups), 3), math.nan)  # per group: w_h, g_m, residual
    text = np.full(fits.shape, None, dtype=object)  # or an error: residual
    for k, (w_h, rows) in enumerate(groups.items()):
        fits[k, 0] = w_h
        try:
            if len(rows) < 3:
                raise mechanics.FitError(f"only {len(rows)} points (need >= 3)", math.nan)
            result = _fit_group(rows, cfg["fit.f2_hz"])
            fits[k, 1:] = result.g_m / TWO_PI, result.residual_norm
        except mechanics.FitError as exc:
            text[k, 2] = f"error:{exc}"
    header = "w_h_um,g_m_hz,residual"
    table.write_table(temps["gm_fit.csv"], header, fits.T, text)
    return [header, *table.rows(fits.T, text)]


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


class Command(NamedTuple):
    """A subcommand: its handler, help text and output files in rename order."""

    run: Callable[[argparse.Namespace, dict, dict[str, Path]], list[str]]
    help: str
    outputs: tuple[str, ...]


COMMANDS: dict[str, Command] = {
    "mech-response": Command(cmd_mech_response, "driven two-mode response curve",
                             ("response.csv",)),
    "noise-sweep": Command(cmd_noise_sweep, "noise-equivalent torque budget vs support length",
                           ("noise_sweep.csv",)),
    "pulse-budget": Command(cmd_pulse_budget, "minimum photons per pulse vs l_s and n_cav",
                            ("pulse_ls_sweep.csv", "pulse_ncav_sweep.csv")),
    "beam-sim": Command(cmd_beam_sim, "grating-converted beam, fidelity and spectra",
                        ("intensity_swg.csv", "phase_swg.csv",
                         "intensity_target.csv", "phase_target.csv")),
    "swg-gen": Command(cmd_swg_gen, "pillar layout generation and export", ("layout.csv",)),
    "fit-gm": Command(cmd_fit_gm, "extract mode coupling from crossing data", ("gm_fit.csv",)),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The oam-sense argument parser, built once per process: COMMANDS and
    PRESETS do not change after import."""
    parser = argparse.ArgumentParser(
        prog="oam-sense",
        description="Torsional optomechanical OAM sensor: design sweeps and noise budgets",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", default=None, help="INI-style run configuration")
        p.add_argument("--preset", default=None, choices=sorted(PRESETS),
                       help="named parameter preset")
        p.add_argument("--out", type=Path, default="out",
                       help="output directory (default: ./out)")
        if name == "fit-gm":
            p.add_argument("data", help="crossing data CSV "
                           "(w_h_um,l_s_um,f_minus_hz,f_plus_hz), or 'bundled'")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        cfg = resolve_config(args.command, args.preset, args.config)
        with _outputs(args.out, command.outputs) as temps:
            lines = command.run(args, cfg, temps)
    # MemoryError: a grid too large for the machine, in this process or a worker
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    paths = [str(args.out / name) for name in command.outputs]
    # 1-2 outputs are named; 3+ (today only beam-sim's rasters) by their directory
    wrote = " and ".join(paths) if len(paths) <= 2 else f"rasters in {args.out}"
    print(*lines, f"wrote {wrote}", sep="\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
