"""Seeded job lists for the three benchmark workloads.

A run repeats passes.  A pass is the workload's fixed job list; pass k of a
seed draws its values from ``random.Random(f"{workload}:{seed}:{k}")``, so
one seed always yields byte-identical inputs.  The drawn values never change
the amount of work: grid sizes, sweep steps, point counts and the job mix
are fixed, and only physical parameters move.

The program receives nothing but the generated INI files and call
arguments, written under the pass's ``inputs`` directory.

* beam_sim     - one `oam-sense beam-sim` on the default pillar grating at
                 n = 1024, with seeded waist and wavelength.  The measured
                 hot spot: waist search, raster export, azimuthal spectrum.
* lambda_scan  - `beams.fidelity_vs_wavelength` on the default design at
                 n = 512, pitch 80 nm, five seeded wavelengths in
                 700-1000 nm, z_eval = 0.  A smaller working set than
                 beam_sim, one retune + mask per wavelength, no export.
* design_sweep - 100 CLI jobs cycling noise-sweep (fine l_s step),
                 mech-response, swg-gen and fit-gm bundled.  Never touches
                 `beams`.  pulse-budget is left out of the cycle: every
                 pulse-budget job fails its checks today, because
                 `noise.write_budget_sweep` writes `np.float64(...)` cells
                 into pulse_ncav_sweep.csv under NumPy 2.  The self-test
                 `KnownDefect` turns into an unexpected success once that is
                 fixed; then put it back into SWEEP_CYCLE and re-record
                 reference.json.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("beam_sim", "lambda_scan", "design_sweep")

BEAM_N = 1024
SCAN_N = 512
SCAN_PITCH_M = 80e-9
SCAN_W0_M = 5e-6
SCAN_BANDS_NM = tuple((700 + 60 * i, 760 + 60 * i) for i in range(5))
SWEEP_CYCLE = ("noise-sweep", "mech-response", "swg-gen", "fit-gm")
SWEEP_JOBS = 100
NOISE_STEP_UM = 0.005  # 2001 l_s points per noise-sweep job
APERTURES_UM = (16.0, 18.0, 20.0, 22.0, 24.0)


@dataclass(frozen=True)
class Job:
    """One call into the program.

    `argv` is the `oam-sense` argument list; it is empty for the direct
    `fidelity_vs_wavelength` call of lambda_scan, whose arguments are in
    `params`.  `params` also holds what the output checks need to know.
    """

    kind: str
    argv: tuple[str, ...]
    out: Path
    params: dict = field(default_factory=dict)


def _write_ini(path: Path, sections: dict[str, dict[str, float | int | str]]) -> None:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}"
                     for key, value in values.items())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cli_job(kind, inputs: Path, out: Path, name: str, preset, sections, params) -> Job:
    argv = [kind]
    if kind == "fit-gm":
        argv.append("bundled")
    if preset:
        argv += ["--preset", preset]
    if sections:
        config = inputs / f"{name}.ini"
        _write_ini(config, sections)
        argv += ["--config", str(config)]
    argv += ["--out", str(out)]
    return Job(kind=kind, argv=tuple(argv), out=out, params=params)


def _beam_sim(rng: random.Random, inputs: Path, outputs: Path) -> list[Job]:
    w0 = rng.uniform(4.5e-6, 5.5e-6)
    lam = rng.uniform(760e-9, 920e-9)
    sections = {"grid": {"n": BEAM_N}, "beam": {"w0_m": w0, "lambda_sig_m": lam}}
    params = {"n": BEAM_N, "target_l": 1, "w0": w0}
    return [_cli_job("beam-sim", inputs, outputs / "j000", "j000", None, sections, params)]


def _lambda_scan(rng: random.Random, inputs: Path, outputs: Path) -> list[Job]:
    lambdas = [rng.uniform(lo, hi) * 1e-9 for lo, hi in SCAN_BANDS_NM]
    params = {"lambdas": lambdas, "n": SCAN_N, "pitch": SCAN_PITCH_M, "w0": SCAN_W0_M}
    (inputs / "j000.json").write_text(json.dumps(params, sort_keys=True) + "\n",
                                      encoding="utf-8")
    return [Job(kind="lambda-scan", argv=(), out=outputs / "j000", params=params)]


def sweep_job(kind: str, i: int, rng: random.Random, inputs: Path, outputs: Path) -> Job:
    """Job `i` of a design_sweep pass, of the given CLI subcommand."""
    name = f"j{i:03d}"
    out = outputs / name
    if kind == "noise-sweep":
        sections = {
            "sweep": {"l_s_step_um": NOISE_STEP_UM},
            "environment": {"t_k": rng.uniform(2.0, 6.0),
                            "q_m": rng.uniform(5e5, 2e6)},
            "readout": {"p_det_w": rng.uniform(5e-8, 2e-7)},
        }
        params = {"rows": int(round((18.0 - 8.0) / NOISE_STEP_UM)) + 1}
        return _cli_job(kind, inputs, out, name, "paper-fig5", sections, params)
    if kind == "pulse-budget":
        sections = {
            "environment": {"t_k": rng.uniform(0.005, 0.02),
                            "q_m": rng.uniform(5e7, 2e8)},
            "readout": {"n_cav": rng.uniform(5e-4, 2e-3)},
        }
        params = {"rows": 41, "ncav_rows": 41}
        return _cli_job(kind, inputs, out, name, "paper-fig8", sections, params)
    if kind == "mech-response":
        sections = {"mechanics": {"g_m_hz": rng.uniform(3e5, 7e5),
                                  "q_m": rng.uniform(300.0, 800.0),
                                  "l_s_um": rng.uniform(10.0, 14.0)}}
        params = {"rows": 1501}
        return _cli_job(kind, inputs, out, name, "paper-fig2b", sections, params)
    if kind == "swg-gen":
        aperture = APERTURES_UM[(i // len(SWEEP_CYCLE)) % len(APERTURES_UM)]
        aperture_m = aperture * 1e-6 * rng.uniform(0.999, 1.001)
        sections = {
            "swg": {"aperture_d_m": aperture_m,
                    "delta_l": rng.choice((1, 2, 3)),
                    "phase_sign": rng.choice((-1, 1))},
            "beam": {"lambda_sig_m": rng.uniform(760e-9, 920e-9)},
        }
        params = {"aperture_m": aperture_m}
        return _cli_job(kind, inputs, out, name, None, sections, params)
    return _cli_job(kind, inputs, out, name, None, None, {})


def _design_sweep(rng: random.Random, inputs: Path, outputs: Path) -> list[Job]:
    return [sweep_job(SWEEP_CYCLE[i % len(SWEEP_CYCLE)], i, rng, inputs, outputs)
            for i in range(SWEEP_JOBS)]


_MAKERS = {"beam_sim": _beam_sim, "lambda_scan": _lambda_scan, "design_sweep": _design_sweep}


def make_pass(workload: str, seed: int, k: int, pass_dir: Path) -> list[Job]:
    """Generate pass `k` of `workload` under `pass_dir` and return its jobs."""
    inputs = pass_dir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}:{k}")
    return _MAKERS[workload](rng, inputs, pass_dir / "outputs")


def execute(job: Job):
    """Run one job in this process; return (exit code, stdout, call result).

    Module attributes are looked up at call time, so functions a tracer has
    wrapped are the ones called.
    """
    import contextlib
    import io

    import oamsense

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        if job.kind == "lambda-scan":
            p = job.params
            result = oamsense.beams.fidelity_vs_wavelength(
                oamsense.swg.SWGDesign(), p["lambdas"], n=p["n"], pitch=p["pitch"],
                w0=p["w0"], z_eval=0.0,
            )
            return 0, stdout.getvalue(), result
        rc = oamsense.cli.main(list(job.argv))
    return rc, stdout.getvalue(), None
