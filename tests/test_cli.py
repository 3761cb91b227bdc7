import ast
import configparser
import hashlib
import importlib.util
import itertools
import math
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import oamsense
from oamsense import beams, cli, device, noise, swg
from oracles import (budget_columns_per_point, budget_per_point, interpolate_per_call,
                     load_layout, save_raster_per_cell, write_budget_sweep_per_row)
from test_imports import benchmark_traced

TWO_PI = 2.0 * math.pi


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def _src_env():
    """The environment for a child interpreter that imports this oamsense."""
    src = str(Path(oamsense.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def column(path, name):
    header, rows = read_csv(path)
    i = header.index(name)
    return np.array([float(r[i]) if r[i] else np.nan for r in rows])


@pytest.mark.parametrize("argv, name, digest", [
    # the paper-fig5 sweep as written before its cells were passed
    # through float(): plain floats must keep their exact repr
    (["noise-sweep", "--preset", "paper-fig5"], "noise_sweep.csv",
     "74816333d8871e416d971e1499a957b84fcc7e0cf1db3834c68b56ef2fc556b1"),
    # outputs whose every input passes through an interpolated mode record
    (["pulse-budget", "--preset", "paper-fig8"], "pulse_ls_sweep.csv",
     "6088c575cefda3f7a535bebe06b90955bb6a9688a2f8b6118cc441105fae8d47"),
    (["pulse-budget", "--preset", "paper-fig8"], "pulse_ncav_sweep.csv",
     "4320fbc7d10de90ee373d6bac991cf2ccb6c6680747d41cf484f7cd765a56aee"),
    (["mech-response", "--preset", "paper-fig2b"], "response.csv",
     "89d6f319799f9d0cd776ac7fca234c20a0862541a163667aaf6a3aaee1c69eee"),
    # as written line by line, before gm_fit.csv went through table.write_table
    (["fit-gm", "bundled"], "gm_fit.csv",
     "bb9e6900b607772e615bc3cd9c395b1580123006f143d35f0fbb705bec371573"),
    # beam-sim's rasters on a small grid, as written by the handler that
    # committed and printed its own output set
    (["beam-sim", "--config", "grating.cfg"], "intensity_swg.csv",
     "92358a44cb1f12b94ada3856888ee6d6a34e97c0bf649b67451cc152ed5438fb"),
    (["beam-sim", "--config", "grating.cfg"], "phase_swg.csv",
     "d8745219fa883cab45f068e44afd3d76682f7b550805724d74fc1487e0c49b22"),
    (["beam-sim", "--config", "grating.cfg"], "intensity_target.csv",
     "3784a5bfb5c3177b31de6fa7e3a74241ae1bcfc08068de24ae481c7649072e4f"),
    (["beam-sim", "--config", "grating.cfg"], "phase_target.csv",
     "e09a559bc465af33cfd03c9cc7006aa06636e3ccd36e8496704a1c6d13f305e8"),
    (["beam-sim", "--config", "vortex.cfg"], "intensity_swg.csv",
     "7fe11aab6870049634b04949f470435ee89f22d4b778b443ba927327e68789f4"),
    (["beam-sim", "--config", "vortex.cfg"], "phase_swg.csv",
     "3727c95827fbde4248963e189d318b96e9b3c62d23c64ddad581087e5471fe44"),
    (["beam-sim", "--config", "vortex.cfg"], "intensity_target.csv",
     "3784a5bfb5c3177b31de6fa7e3a74241ae1bcfc08068de24ae481c7649072e4f"),
    (["beam-sim", "--config", "vortex.cfg"], "phase_target.csv",
     "e09a559bc465af33cfd03c9cc7006aa06636e3ccd36e8496704a1c6d13f305e8"),
], ids=["noise-sweep-fig5", "pulse-budget-ls", "pulse-budget-ncav", "mech-response", "fit-gm",
        "beam-sim-intensity-swg", "beam-sim-phase-swg", "beam-sim-intensity-target",
        "beam-sim-phase-target", "vortex-intensity-swg", "vortex-phase-swg",
        "vortex-intensity-target", "vortex-phase-target"])
def test_output_bytes_unchanged(tmp_path, monkeypatch, argv, name, digest):
    monkeypatch.chdir(tmp_path)
    write_beam_configs(tmp_path)
    assert cli.main(argv + ["--out", "out"]) == 0
    assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest


def write_beam_configs(path):
    """grating.cfg and vortex.cfg: beam-sim on a 64-point grid, on the pillar
    grating and on the ideal vortex."""
    grid = "[grid]\nn = 64\npitch_m = 80e-9\n[beam]\nw0_m = 1.5e-6\n"
    (path / "grating.cfg").write_text(grid)
    (path / "vortex.cfg").write_text(grid + "[swg]\nideal_vortex = true\n")


def write_partial_crossings(path):
    """A crossing file of two groups: w_h = 7 um, nine points synthesized
    from the two-mode model with g_m = 1 MHz, and w_h = 9 um, starved at two."""
    from oamsense import mechanics
    lines = ["w_h_um,l_s_um,f_minus_hz,f_plus_hz"]
    for ls in np.arange(8.0, 12.5, 0.5):
        f1 = 5.96e6 - 0.575e6 * (ls - 10.0)
        m = mechanics.CoupledOscillator(m1=1.0, m2=1.0, omega1=TWO_PI * f1,
                                        omega2=TWO_PI * 5.96e6, g_m=TWO_PI * 1e6)
        lo, hi = mechanics.hybrid_frequencies(m)
        lines.append(f"7.0,{ls},{lo / TWO_PI!r},{hi / TWO_PI!r}")
    lines.append("9.0,9.0,5.0e6,6.0e6")
    lines.append("9.0,10.0,5.1e6,6.1e6")
    path.write_text("\n".join(lines) + "\n")


# sha256 of stdout, run in a fresh directory with --out out (stdout names
# it), as printed when each summary row was formatted by hand
@pytest.mark.parametrize("argv, digest", [
    (["noise-sweep", "--preset", "paper-fig5"],
     "f11c9cc555f677ccc4214eb09b629505f45b6b3c66ba1024eef10c58316d56e3"),
    (["mech-response", "--preset", "paper-fig2b"],
     "e82d95bc221a821dcb7dc8dd029a062caf2a85a294b9c2980dab8f3dd22da554"),
    (["fit-gm", "bundled"],
     "75bc3c707f3b11651ed106a7c367cb47d283c6d47a5b97e5ad286a00981a89a6"),
    # one row of each kind: a fit, and an error: cell for the starved group
    (["fit-gm", "cross.csv"],
     "264b37334a76acf12f4b42f8be32494b24e0f28cd3dbe24c555fff82ff26a3b3"),
    # the "wrote ... and ..." and "wrote rasters in ..." forms
    (["pulse-budget", "--preset", "paper-fig8"],
     "e927071561e8a7f6b405693b5287c83ffa33e5e2d768d1b7496baeccacef1fec"),
    (["swg-gen"],
     "2953074c8c2486182f2068a2be2990054b9613576f875f9f3824b18eddbc4212"),
    (["beam-sim", "--config", "grating.cfg"],
     "83bb0377eef60633d7d5d01b3846efff4ad267d381e6df0f9778c50ebbe2679b"),
    (["beam-sim", "--config", "vortex.cfg"],
     "e72434c94a91ebb5faaacc43e5831a560c184099a585b2fd40ef38ab426a583e"),
], ids=["noise-sweep-fig5", "mech-response", "fit-gm", "fit-gm-starved-group",
        "pulse-budget-fig8", "swg-gen", "beam-sim", "beam-sim-vortex"])
def test_stdout_bytes_unchanged(tmp_path, monkeypatch, capsys, argv, digest):
    monkeypatch.chdir(tmp_path)
    write_partial_crossings(tmp_path / "cross.csv")
    write_beam_configs(tmp_path)
    assert cli.main(argv + ["--out", "out"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestMechResponse:
    def test_fig2b_preset_two_peaks(self, tmp_path, capsys):
        assert cli.main(["mech-response", "--preset", "paper-fig2b",
                         "--out", str(tmp_path)]) == 0
        f = column(tmp_path / "response.csv", "omega_hz")
        x2 = column(tmp_path / "response.csv", "abs_x2_m")
        step = f[1] - f[0]
        d = np.diff(x2)
        peaks = [i + 1 for i in range(len(d) - 1) if d[i] > 0 >= d[i + 1]]
        assert len(peaks) == 2
        assert abs(f[peaks[0]] - 4.81e6) <= step
        assert abs(f[peaks[1]] - 5.96e6) <= step
        out = capsys.readouterr().out
        assert "peak_f_hz" in out

    def test_zero_coupling_warns(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[mechanics]\ng_m_hz = 0\n")
        code = cli.main(["mech-response", "--preset", "paper-fig2b",
                         "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        captured = capsys.readouterr()
        assert "identically zero" in captured.err
        x2 = column(tmp_path / "response.csv", "abs_x2_m")
        assert np.all(x2 == 0.0)
        x1 = column(tmp_path / "response.csv", "abs_x1_m")
        d = np.diff(x1)
        peaks = [i + 1 for i in range(len(d) - 1) if d[i] > 0 >= d[i + 1]]
        assert len(peaks) == 1

    def test_missing_dataset_names_key(self, tmp_path, capsys):
        code = cli.main(["noise-sweep", "--out", str(tmp_path)])
        assert code == 2
        assert "device.dataset" in capsys.readouterr().err


class TestNoiseSweep:
    def test_fig5_preset_headline(self, tmp_path):
        assert cli.main(["noise-sweep", "--preset", "paper-fig5",
                         "--out", str(tmp_path)]) == 0
        path = tmp_path / "noise_sweep.csv"
        ls = column(path, "l_s_um")
        tau = column(path, "tau_min")
        p_min = column(path, "p_min_w")
        at10 = int(np.argmin(np.abs(ls - 10.0)))
        assert tau[at10] == pytest.approx(3.22e-21, rel=0.05)
        assert p_min[at10] == pytest.approx(8.70e-6, rel=0.01)
        assert abs(ls[int(np.argmin(tau))] - 10.0) <= 1.0
        # CW sweep leaves the photon column blank
        _, rows = read_csv(path)
        assert all(r[-1] == "" for r in rows)

    def test_zero_temperature_kills_thermal_column(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[environment]\nt_k = 0\n")
        assert cli.main(["noise-sweep", "--preset", "paper-fig5",
                         "--config", str(cfg), "--out", str(tmp_path)]) == 0
        tau_th = column(tmp_path / "noise_sweep.csv", "tau_th")
        assert np.all(tau_th == 0.0)

    @pytest.mark.parametrize("argv", [
        ["noise-sweep", "--preset", "paper-fig5"],
        ["pulse-budget", "--preset", "paper-fig8"],
    ], ids=["noise-sweep", "pulse-budget"])
    def test_zero_oam_change_is_refused(self, tmp_path, capsys, argv):
        # once noise-sweep wrote 41 inf p_min_w cells with exit 0: a beam
        # that carries no OAM change exerts no torque
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[beam]\ndelta_l = 0\n")
        code = cli.main(argv + ["--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: config key beam.delta_l = '0' must be > 0\n"
        assert not (tmp_path / "out").exists()

    def test_deterministic_outputs(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert cli.main(["noise-sweep", "--preset", "paper-fig5",
                             "--out", str(out)]) == 0
        assert (out_a / "noise_sweep.csv").read_bytes() == \
            (out_b / "noise_sweep.csv").read_bytes()

    def test_fine_sweep_matches_per_call_interpolation(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[sweep]\nl_s_step_um = 0.005\n")
        argv = ["noise-sweep", "--preset", "paper-fig5", "--config", str(cfg)]
        assert cli.main(argv + ["--out", str(tmp_path / "grid")]) == 0

        def per_call(dataset, branch, l_s_values, q_m_override=None):
            return np.array([interpolate_per_call(dataset, branch, l_s, q_m_override)
                             for l_s in l_s_values])

        monkeypatch.setattr(device, "interpolate_grid", per_call)
        assert cli.main(argv + ["--out", str(tmp_path / "oracle")]) == 0
        grid = (tmp_path / "grid" / "noise_sweep.csv").read_bytes()
        assert grid.count(b"\n") == 2002
        assert grid == (tmp_path / "oracle" / "noise_sweep.csv").read_bytes()

    @pytest.mark.parametrize("argv, files", [
        (["noise-sweep", "--preset", "paper-fig5"], ["noise_sweep.csv"]),
        (["pulse-budget", "--preset", "paper-fig8"],
         ["pulse_ls_sweep.csv", "pulse_ncav_sweep.csv"]),
    ], ids=["noise-sweep-fine", "pulse-budget"])
    def test_same_bytes_as_oracle_chain(self, tmp_path, monkeypatch, capsys, argv, files):
        # per-call interpolation, per-point Python-float budgets, per-row writer
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[sweep]\nl_s_step_um = 0.005\n" if argv[0] == "noise-sweep" else "")
        argv = argv + ["--config", str(cfg)]
        assert cli.main(argv + ["--out", str(tmp_path / "lib")]) == 0
        printed = capsys.readouterr().out

        def grid(dataset, branch, l_s_values, q_m_override=None):
            return np.array([interpolate_per_call(dataset, branch, l_s, q_m_override)
                             for l_s in l_s_values])

        def budget(modes, *args, **kwargs):
            if np.ndim(modes) == 0:
                return budget_per_point(modes, *args, **kwargs)
            return budget_columns_per_point(modes, *args, **kwargs)

        monkeypatch.setattr(device, "interpolate", interpolate_per_call)
        monkeypatch.setattr(device, "interpolate_grid", grid)
        monkeypatch.setattr(noise, "budget", budget)
        monkeypatch.setattr(noise, "write_budget_sweep", write_budget_sweep_per_row)
        assert cli.main(argv + ["--out", str(tmp_path / "oracle")]) == 0
        assert capsys.readouterr().out == printed.replace(str(tmp_path / "lib"),
                                                          str(tmp_path / "oracle"))
        for name in files:
            got = (tmp_path / "lib" / name).read_bytes()
            assert got.count(b"\n") in (42, 2002)
            assert got == (tmp_path / "oracle" / name).read_bytes()

    def test_summary_row_is_the_csv_minimum_row(self, tmp_path, capsys):
        assert cli.main(["noise-sweep", "--preset", "paper-fig5",
                         "--out", str(tmp_path)]) == 0
        printed = capsys.readouterr().out.splitlines()
        lines = (tmp_path / "noise_sweep.csv").read_text().splitlines()
        i = int(np.argmin(column(tmp_path / "noise_sweep.csv", "tau_min")))
        assert printed[1:3] == [lines[0], lines[1 + i]]

    def test_fig8_preset_gives_the_cw_budget(self, tmp_path):
        # the subcommand fixes the drive: on the pulsed preset noise-sweep
        # leaves n_min blank, and pulse-budget writes the pulsed l_s table
        assert cli.main(["noise-sweep", "--preset", "paper-fig8",
                         "--out", str(tmp_path / "cw")]) == 0
        assert cli.main(["pulse-budget", "--preset", "paper-fig8",
                         "--out", str(tmp_path / "pulsed")]) == 0
        cw_header, cw = read_csv(tmp_path / "cw" / "noise_sweep.csv")
        pulsed_header, pulsed = read_csv(tmp_path / "pulsed" / "pulse_ls_sweep.csv")
        assert cw_header == pulsed_header and cw_header[-1] == "n_min"
        assert len(cw) == 41
        assert [r[:-1] for r in cw] == [r[:-1] for r in pulsed]
        assert all(r[-1] == "" for r in cw)
        assert all(float(r[-1]) > 0.0 for r in pulsed)

    def test_zero_coupling_dataset_fails_cleanly(self, tmp_path, capsys):
        lines = device.sample_dataset_path().read_text(encoding="utf-8").splitlines()
        header = lines.index(device.HEADER)
        rows = [r.split(",") for r in lines[header + 1:] if r]
        for r in rows:
            r[-1] = "0"
        data = tmp_path / "no_coupling.csv"
        data.write_text("\n".join([device.HEADER] + [",".join(r) for r in rows]) + "\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[device]\ndataset = {data}\n")
        code = cli.main(["noise-sweep", "--preset", "paper-fig5", "--config", str(cfg),
                         "--out", str(tmp_path)])
        assert code == 2
        assert "g_om" in capsys.readouterr().err

    def test_repeated_dataset_row_names_file_and_lines(self, tmp_path, capsys):
        text = device.sample_dataset_path().read_text(encoding="utf-8")
        lines = text.splitlines()
        row = next(r for r in lines if r.startswith("12.0,") and ",twist-like," in r)
        data = tmp_path / "repeated.csv"
        data.write_text(text + row + "\n", encoding="utf-8")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[device]\ndataset = {data}\n")
        code = cli.main(["noise-sweep", "--preset", "paper-fig5", "--config", str(cfg),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {data}, line {len(lines) + 1}: repeats the twist-like row at "
            f"l_s = 12.0 um of line {lines.index(row) + 1}\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("column, cell", [
        ("m_eff_kg", "inf"), ("g_om_hz_per_m", "nan"), ("l_s_um", "inf"),
    ])
    def test_non_finite_dataset_cell_names_file_line_and_column(self, tmp_path, capsys,
                                                                column, cell):
        # once these loaded, and noise-sweep wrote inf and nan cells with exit 0
        lines = device.sample_dataset_path().read_text(encoding="utf-8").splitlines()
        header = lines.index(device.HEADER)
        cells = lines[header + 1].split(",")
        cells[device.HEADER.split(",").index(column)] = cell
        lines[header + 1] = ",".join(cells)
        data = tmp_path / "non_finite.csv"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[device]\ndataset = {data}\n")
        code = cli.main(["noise-sweep", "--preset", "paper-fig5", "--config", str(cfg),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {data}, line {header + 2}: "
                                f"{column} = {cell!r} is not a finite number\n")
        assert not (tmp_path / "out").exists()


class TestPulseBudget:
    def test_fig8_preset(self, tmp_path):
        assert cli.main(["pulse-budget", "--preset", "paper-fig8",
                         "--out", str(tmp_path)]) == 0
        n_ls = column(tmp_path / "pulse_ls_sweep.csv", "n_min")
        n_nc = column(tmp_path / "pulse_ncav_sweep.csv", "n_min")
        for n_min in (np.nanmin(n_ls), np.nanmin(n_nc)):
            assert 3.9e3 / 2.0 <= n_min <= 3.9e3 * 2.0
        # interior minimum of the intracavity-photon sweep
        i = int(np.nanargmin(n_nc))
        assert 0 < i < len(n_nc) - 1
        # photon minimum sits at the mode crossing
        ls = column(tmp_path / "pulse_ls_sweep.csv", "l_s_um")
        assert ls[int(np.nanargmin(n_ls))] == pytest.approx(10.0, abs=0.5)

    def test_every_cell_is_a_number(self, tmp_path):
        assert cli.main(["pulse-budget", "--preset", "paper-fig8",
                         "--out", str(tmp_path)]) == 0
        for name in ("pulse_ls_sweep.csv", "pulse_ncav_sweep.csv"):
            _, rows = read_csv(tmp_path / name)
            assert rows
            for row in rows:
                for cell in row:
                    float(cell)

    def test_delta_l_scaling(self, tmp_path):
        out10 = tmp_path / "d10"
        out20 = tmp_path / "d20"
        assert cli.main(["pulse-budget", "--preset", "paper-fig8",
                         "--out", str(out10)]) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[beam]\ndelta_l = 20\n")
        assert cli.main(["pulse-budget", "--preset", "paper-fig8",
                         "--config", str(cfg), "--out", str(out20)]) == 0
        n10 = column(out10 / "pulse_ls_sweep.csv", "n_min")
        n20 = column(out20 / "pulse_ls_sweep.csv", "n_min")
        assert np.allclose(n20, 0.5 * n10, rtol=1e-12)

    def test_repetition_rate_tracks_mode(self, tmp_path):
        # n_min = tau_min / (eta delta_l hbar f) with f = omega_m / 2 pi per row
        from oamsense import device
        from oamsense.constants import HBAR

        assert cli.main(["pulse-budget", "--preset", "paper-fig8",
                         "--out", str(tmp_path)]) == 0
        path = tmp_path / "pulse_ls_sweep.csv"
        ls = column(path, "l_s_um")
        tau = column(path, "tau_min")
        n_min = column(path, "n_min")
        ds = device.load_sample_dataset()
        for k in (0, 10, 20):
            mode = device.interpolate(ds, "twist-like", float(ls[k]))
            f_rep = mode["omega_m"] / TWO_PI
            assert n_min[k] == pytest.approx(tau[k] / (10.0 * HBAR * f_rep), rel=1e-9)


class TestBeamSim:
    def test_default_swg_run(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[grid]\nn = 512\npitch_m = 80e-9\n")
        assert cli.main(["beam-sim", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        eta = float(next(l for l in out.splitlines() if l.startswith("eta")).split("=")[1])
        assert abs(eta - 0.83) <= 0.10
        for name in ("intensity_swg.csv", "phase_swg.csv",
                     "intensity_target.csv", "phase_target.csv"):
            assert (tmp_path / name).exists()

    def test_ideal_vortex_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[grid]\nn = 512\npitch_m = 80e-9\n[swg]\nideal_vortex = true\n")
        assert cli.main(["beam-sim", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        fixed = float(next(l for l in out.splitlines()
                           if l.startswith("fidelity_fixed")).split("=")[1])
        assert fixed == pytest.approx(math.pi / 4.0, abs=0.01)

    def test_ideal_vortex_honours_phase_sign(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[grid]\nn = 512\npitch_m = 80e-9\n"
                       "[swg]\nideal_vortex = true\nphase_sign = -1\n")
        assert cli.main(["beam-sim", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        fixed = float(next(l for l in lines if l.startswith("fidelity_fixed")).split("=")[1])
        assert fixed == pytest.approx(math.pi / 4.0, abs=0.01)
        start = lines.index("l,power_fraction") + 1
        spectrum = {int(l): float(f) for l, f in (row.split(",") for row in lines[start:-1])}
        assert sorted(spectrum) == list(range(-4, 3))
        assert max(spectrum, key=spectrum.get) == -1

    @pytest.mark.parametrize("key, value", [
        ("aperture_d_m", "2e-05"), ("lattice_a_m", "3.6e-07"), ("design_lambda_m", "8.4e-07"),
    ])
    def test_ideal_vortex_rejects_grating_keys(self, tmp_path, capsys, key, value):
        # no pillar grating is built, so a grating key is refused even when
        # set to the value the grating would take without it
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[swg]\nideal_vortex = true\n{key} = {value}\n")
        assert cli.main(["beam-sim", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: config key swg.{key} = {float(value)!r} describes a pillar grating, "
            "which swg.ideal_vortex = true replaces\n"
        )
        assert not (tmp_path / "out").exists()

    def test_one_grating_pipeline(self, tmp_path, monkeypatch):
        # beam-sim and the wavelength scan both score the grating through
        # one scan, once per run and once per scan
        calls = []
        grating_scan = beams._grating_scan

        def counting(design, lams, *args, **kwargs):
            calls.append(list(lams))
            return grating_scan(design, lams, *args, **kwargs)

        monkeypatch.setattr(beams, "_grating_scan", counting)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[grid]\nn = 256\npitch_m = 80e-9\n[beam]\nw0_m = 2.5e-6\n")
        assert cli.main(["beam-sim", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert calls == [[8.4e-7]]
        beams.fidelity_vs_wavelength(swg.SWGDesign(), [800e-9, 840e-9, 880e-9], n=256,
                                     pitch=80e-9, w0=2.5e-6)
        assert calls == [[8.4e-7], [800e-9, 840e-9, 880e-9]]

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_higher_order_design(self, tmp_path, capsys):
        # evaluate a little past the grating so the vortex core opens up
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[grid]\nn = 512\npitch_m = 80e-9\n"
                       "[swg]\ndelta_l = 10\nz_eval_m = 5e-5\n")
        assert cli.main(["beam-sim", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if "," in l and not l.startswith("l,")]
        spectrum = {int(r.split(",")[0]): float(r.split(",")[1])
                    for r in rows if r.split(",")[0].lstrip("-").isdigit()}
        assert max(spectrum, key=spectrum.get) == 10
        # donut radius grows with the order: compare intensity-weighted radius
        i10 = np.loadtxt(tmp_path / "intensity_swg.csv", delimiter=",")
        cfg1 = tmp_path / "run1.cfg"
        cfg1.write_text("[grid]\nn = 512\npitch_m = 80e-9\n"
                        "[swg]\ndelta_l = 1\nz_eval_m = 5e-5\n")
        out1 = tmp_path / "one"
        assert cli.main(["beam-sim", "--config", str(cfg1), "--out", str(out1)]) == 0
        i1 = np.loadtxt(out1 / "intensity_swg.csv", delimiter=",")
        x = (np.arange(512) - 256) * 80e-9
        xx, yy = np.meshgrid(x, x, indexing="xy")
        r = np.hypot(xx, yy)
        assert np.sum(i10 * r) / np.sum(i10) > np.sum(i1 * r) / np.sum(i1)

    def test_masks_and_propagates_once(self, tmp_path):
        # the scored field is the one exported and analysed: the grating's
        # transmission is taken once, on its footprint, and the masked
        # field propagated once
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[grid]\nn = 128\n[swg]\ndelta_l = 10\nz_eval_m = 5e-5\n")
        script = (
            "import collections, sys\n"
            "from oamsense import beams, cli, swg\n"
            "calls = collections.Counter()\n"
            "def counted(module, name):\n"
            "    original = getattr(module, name)\n"
            "    def wrapper(*args, **kwargs):\n"
            "        calls[name] += 1\n"
            "        return original(*args, **kwargs)\n"
            "    setattr(module, name, wrapper)\n"
            "counted(swg, 'pillar_transmission')\n"
            "counted(beams, 'propagate')\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(calls['pillar_transmission'], calls['propagate'], code)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "beam-sim", "--config", str(cfg),
             "--out", str(tmp_path / "out")],
            cwd=tmp_path, env=_src_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.stdout.splitlines()[-1] == "1 1 0"
        assert proc.stderr.count("BandLimitWarning") == 1

    def test_rasters_match_per_cell_writer(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[grid]\nn = 256\npitch_m = 80e-9\n")
        fast, slow = tmp_path / "fast", tmp_path / "slow"
        assert cli.main(["beam-sim", "--config", str(cfg), "--out", str(fast)]) == 0
        monkeypatch.setattr(beams, "save_raster", save_raster_per_cell)
        assert cli.main(["beam-sim", "--config", str(cfg), "--out", str(slow)]) == 0
        for name in ("intensity_swg.csv", "phase_swg.csv",
                     "intensity_target.csv", "phase_target.csv"):
            assert (fast / name).read_bytes() == (slow / name).read_bytes()

    def test_target_rasters_are_the_target_mode(self, tmp_path):
        # the worker writes |LG|^2 and arg LG of the run's target mode
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[grid]\nn = 64\npitch_m = 80e-9\n[beam]\nw0_m = 1.5e-6\n"
                       "[swg]\ndelta_l = 2\nphase_sign = -1\n")
        out = tmp_path / "out"
        assert cli.main(["beam-sim", "--config", str(cfg), "--out", str(out)]) == 0
        assert multiprocessing.active_children() == []
        reference = beams.make_lg(64, 80e-9, 8.4e-7, beams.LGIndex(0, -2, 1.5e-6))
        for name, matrix in (("intensity_target.csv", np.abs(reference.amps) ** 2),
                             ("phase_target.csv", np.angle(reference.amps))):
            beams.save_raster(matrix, tmp_path / name)
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()
        assert sorted(p.name for p in out.iterdir()) == sorted(cli.COMMANDS["beam-sim"].outputs)

    @pytest.mark.parametrize("text, message", [
        # a waist under 4 pitches, on the grating and on the ideal vortex
        ("[grid]\npitch_m = 8e-8\n[beam]\nw0_m = 3e-7\n",
         "config key beam.w0_m = 3e-07 is under-sampled: it must be >= 4 * grid.pitch_m "
         "= 3.2e-07"),
        ("[grid]\npitch_m = 8e-8\n[beam]\nw0_m = 3e-7\n[swg]\nideal_vortex = true\n",
         "config key beam.w0_m = 3e-07 is under-sampled: it must be >= 4 * grid.pitch_m "
         "= 3.2e-07"),
        # a pitch that does not resolve the default lattice, one at its limit
        # (the grating measures 360 nm a few ulps short and rejects it too) and
        # one that does not resolve a lattice the config sets
        ("[grid]\npitch_m = 1e-7\n",
         "config key grid.pitch_m = 1e-07 does not resolve the pillar lattice: it must be "
         "below swg.lattice_a_m (default 3.6e-07) / 4 = 9e-08"),
        ("[grid]\npitch_m = 9e-8\n",
         "config key grid.pitch_m = 9e-08 does not resolve the pillar lattice: it must be "
         "below swg.lattice_a_m (default 3.6e-07) / 4 = 9e-08"),
        ("[grid]\npitch_m = 1.1e-7\n[swg]\nlattice_a_m = 4e-7\n",
         "config key grid.pitch_m = 1.1e-07 does not resolve the pillar lattice: it must be "
         "below swg.lattice_a_m / 4 = 1e-07"),
    ], ids=["w0-grating", "w0-vortex", "pitch-default", "pitch-at-limit", "pitch-set-lattice"])
    def test_sampling_limits_name_their_keys(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert cli.main(["beam-sim", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_lattice_limit_passes_only_resolved_pitches(self):
        # the largest pitch the edge check passes is one the grating accepts,
        # including lattices whose measured spacing reads below lattice_a
        cfg = {"swg.lattice_a_m": None}

        def passes(pitch, lattice):
            try:
                cli._check_resolves_lattice(cfg, pitch, lattice)
            except cli.ConfigError:
                return False
            return True

        short = 0
        for lattice in [360e-9, *np.linspace(320e-9, 1000e-9, 35).tolist()]:
            limit = lattice / 4.0
            layout = swg.generate_layout(swg.SWGDesign(lattice_a=lattice))
            assert not passes(limit, lattice)
            try:
                swg.pillar_index(layout, 32, limit)
            except ValueError:
                short += 1
            pitch = limit * (1.0 - cli._LATTICE_RTOL)
            while not passes(pitch, lattice):
                pitch = np.nextafter(pitch, 0.0)
            while passes(np.nextafter(pitch, 1.0), lattice):
                pitch = np.nextafter(pitch, 1.0)
            swg.pillar_index(layout, 32, float(pitch))
        assert short >= 1

    @pytest.mark.parametrize("found", [False, True], ids=["new-out", "found-out"])
    @pytest.mark.parametrize("case", ["edge", "parent-raises", "worker-raises", "worker-dies"])
    def test_failed_run_leaves_nothing(self, tmp_path, capsys, monkeypatch, case, found):
        save_raster = beams.save_raster

        def failing_worker(matrix, path):  # the parent writes only the *_swg rasters
            if "_target" in Path(path).name:
                if case == "worker-dies":
                    os._exit(3)
                raise OSError("injected worker failure")
            save_raster(matrix, path)

        def failing_parent(*args, **kwargs):
            raise ValueError("injected parent failure")

        w0 = "3e-7" if case == "edge" else "1.5e-6"
        if case == "parent-raises":
            monkeypatch.setattr(beams, "azimuthal_spectrum", failing_parent)
        elif case.startswith("worker"):
            monkeypatch.setattr(beams, "save_raster", failing_worker)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[grid]\nn = 64\npitch_m = 80e-9\n[beam]\nw0_m = {w0}\n")
        if found:
            out = tmp_path / "out"
            out.mkdir()
            (out / "keep.txt").write_text("not beam-sim's")
        else:
            out = tmp_path / "new" / "out"
        threads = threading.enumerate()
        assert cli.main(["beam-sim", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert {"edge": "config key beam.w0_m", "parent-raises": "injected parent failure",
                "worker-raises": "injected worker failure",
                "worker-dies": "target raster worker"}[case] in err
        assert multiprocessing.active_children() == []
        assert threading.enumerate() == threads
        if found:
            assert [p.name for p in out.iterdir()] == ["keep.txt"]
        else:
            assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_failed_run_waits_for_the_worker(self, tmp_path, capsys, monkeypatch):
        # the parent fails at once while the worker is still writing into a
        # found --out: the temp files are removed only once the worker has ended
        save_raster = beams.save_raster

        def slow_worker(matrix, path):
            if "_target" in Path(path).name:
                time.sleep(0.5)
            save_raster(matrix, path)

        def failing_parent(*args, **kwargs):
            raise ValueError("injected parent failure")

        monkeypatch.setattr(beams, "save_raster", slow_worker)
        monkeypatch.setattr(beams, "grating_metrics", failing_parent)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[grid]\nn = 64\npitch_m = 80e-9\n[beam]\nw0_m = 1.5e-6\n")
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main(["beam-sim", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: injected parent failure\n"
        assert multiprocessing.active_children() == []
        assert list(out.iterdir()) == []

    def test_large_arrays_are_mapped_after_beam_sim(self, tmp_path):
        # once beam-sim has run, an 8 MiB array allocated after a 16 MiB one
        # was freed is mapped on its own, not carved from the heap: glibc's
        # mmap threshold no longer follows the largest block freed.  A fresh
        # interpreter, since malloc serves any request from a free heap block
        # that fits, and this one's heap may hold such blocks
        if not (hasattr(os, "confstr_names") and "CS_GNU_LIBC_VERSION" in os.confstr_names
                and os.confstr("CS_GNU_LIBC_VERSION")):
            pytest.skip("the mmap threshold is glibc's")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[grid]\nn = 64\npitch_m = 80e-9\n[beam]\nw0_m = 1.5e-6\n")
        script = (
            "import ctypes, sys\n"
            "import numpy as np\n"
            "from oamsense import cli\n"
            "class MallInfo2(ctypes.Structure):\n"
            "    _fields_ = [(name, ctypes.c_size_t) for name in ('arena', 'ordblks', 'smblks',\n"
            "        'hblks', 'hblkhd', 'usmblks', 'fsmblks', 'uordblks', 'fordblks', 'keepcost')]\n"
            "libc = ctypes.CDLL(None)\n"
            "if not hasattr(libc, 'mallinfo2'):\n"
            "    sys.exit('skip: mallinfo2 needs glibc 2.33')\n"
            "libc.mallinfo2.restype = MallInfo2\n"
            "code = cli.main(sys.argv[1:])\n"
            "big = np.ones(1 << 20, dtype=np.complex128)  # 16 MiB\n"
            "del big\n"
            "mapped = libc.mallinfo2().hblkhd\n"
            "field = np.ones(1 << 20)  # 8 MiB\n"
            "print(code, libc.mallinfo2().hblkhd - mapped >= field.nbytes)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "beam-sim", "--config", str(cfg),
             "--out", str(tmp_path / "out")],
            cwd=tmp_path, env=_src_env(), capture_output=True, text=True, timeout=120,
        )
        if proc.stderr.startswith("skip:"):
            pytest.skip(proc.stderr.strip())
        assert proc.stdout.splitlines()[-1] == "0 True", proc.stderr


class TestSwgGen:
    def test_defaults(self, tmp_path, capsys):
        assert cli.main(["swg-gen", "--out", str(tmp_path)]) == 0
        layout = load_layout(tmp_path / "layout.csv")
        out = capsys.readouterr().out
        hist_rows = [l for l in out.splitlines()
                     if "," in l and l.split(",")[0].replace(".", "").isdigit()]
        assert len(hist_rows) == 11
        counts = [int(r.split(",")[1]) for r in hist_rows]
        assert max(counts) < 2 * min(counts)  # near-uniform azimuth coverage
        estimate = swg.expected_site_count(swg.SWGDesign())
        assert abs(len(layout) - estimate) / estimate < 0.02

    def test_default_layout_bytes_unchanged(self, tmp_path):
        # sha256 of the default layout as written when a layout was a list of
        # per-pillar objects
        assert cli.main(["swg-gen", "--out", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "layout.csv").read_bytes()).hexdigest()
        assert digest == "3205491cc0f1b1b5990c405d8e546f45febb7434159ce014824c7111b312942f"

    def test_zero_shift_histogram(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[swg]\ndelta_l = 0\n")
        assert cli.main(["swg-gen", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        hist_rows = [l for l in out.splitlines()
                     if "," in l and l.split(",")[0].replace(".", "").isdigit()]
        assert len(hist_rows) == 1


class TestFitGm:
    def test_bundled_noiseless_recovery(self, tmp_path, capsys):
        assert cli.main(["fit-gm", "bundled", "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "gm_fit.csv")
        assert header == ["w_h_um", "g_m_hz", "residual"]
        assert len(rows) == 3
        expected = {5.0: 1.8e6, 7.0: 1.2e6, 9.0: 0.8e6}
        for row in rows:
            w_h, g_hz = float(row[0]), float(row[1])
            assert g_hz == pytest.approx(expected[w_h], rel=1e-5)

    def test_partial_failure_keeps_going(self, tmp_path, capsys):
        data = tmp_path / "cross.csv"
        write_partial_crossings(data)
        assert cli.main(["fit-gm", str(data), "--out", str(tmp_path)]) == 0
        # stdout prints the file's lines, then where it wrote them
        lines = (tmp_path / "gm_fit.csv").read_text().splitlines()
        assert capsys.readouterr().out.splitlines()[:-1] == lines
        header, rows = read_csv(tmp_path / "gm_fit.csv")
        assert len(rows) == 2
        good = next(r for r in rows if r[0] == "7.0")
        bad = next(r for r in rows if r[0] == "9.0")
        assert float(good[1]) == pytest.approx(1e6, rel=1e-4)
        assert bad[1] == "nan" and "error" in bad[2]

    @pytest.mark.filterwarnings("error")
    def test_overflowing_frequencies_are_a_group_error(self, tmp_path, capsys):
        # once these squared to inf and failed with "Initial guess is outside
        # of provided bounds", after two overflow RuntimeWarnings
        data = tmp_path / "cross.csv"
        data.write_text("w_h_um,l_s_um,f_minus_hz,f_plus_hz\n"
                        "7.0,9.0,1e300,1e300\n7.0,10.0,1e300,1.1e300\n"
                        "7.0,11.0,1e300,1.2e300\n")
        assert cli.main(["fit-gm", str(data), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        header, rows = read_csv(tmp_path / "gm_fit.csv")
        assert header == ["w_h_um", "g_m_hz", "residual"]
        assert [row[:2] for row in rows] == [["7.0", "nan"]]
        assert rows[0][2].startswith("error:frequencies up to 7.54e+300 rad/s "
                                     "overflow when squared")

    @pytest.mark.filterwarnings("error")
    def test_unresolved_coupling_is_a_group_error(self, tmp_path, capsys):
        # once written as g_m = 1.6e-11 Hz with a residual of 2.5e45
        data = tmp_path / "cross.csv"
        data.write_text("w_h_um,l_s_um,f_minus_hz,f_plus_hz\n"
                        "7.0,9.0,1e60,1e60\n7.0,10.0,1e60,1.1e60\n"
                        "7.0,11.0,1e60,1.2e60\n")
        assert cli.main(["fit-gm", str(data), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        header, rows = read_csv(tmp_path / "gm_fit.csv")
        assert header == ["w_h_um", "g_m_hz", "residual"]
        assert [row[:2] for row in rows] == [["7.0", "nan"]]
        assert re.fullmatch(r"error:residual norm \S+ rad/s is not below the fitted coupling "
                            r"\S+ rad/s: the data do not resolve g_m", rows[0][2])

    def test_bad_row_names_file_and_line(self, tmp_path, capsys):
        data = tmp_path / "cross.csv"
        data.write_text("# comment\nw_h_um,l_s_um,f_minus_hz,f_plus_hz\n"
                        "7.0,9.0,5.0e6,6.0e6\n7.0,9.5,5.1e6\n")
        assert cli.main(["fit-gm", str(data), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{data}, line 4" in err
        assert "expected 4 columns, found 3" in err

    def test_nan_cell_names_file_line_and_column(self, tmp_path, capsys):
        # once this reached the fit and failed naming neither file nor line
        data = tmp_path / "cross.csv"
        data.write_text("w_h_um,l_s_um,f_minus_hz,f_plus_hz\n"
                        "7.0,9.0,5.0e6,6.0e6\n7.0,9.5,nan,6.1e6\n")
        out = tmp_path / "out"
        assert cli.main(["fit-gm", str(data), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {data}, line 3: f_minus_hz = 'nan' is not a finite number\n"
        assert not out.exists()

    def test_missing_file(self, tmp_path, capsys):
        assert cli.main(["fit-gm", str(tmp_path / "nope.csv"),
                         "--out", str(tmp_path)]) == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("", "empty file (no header row)"),
        ("w_h_um,l_s_um,f_minus_hz,f_plus_hz\n", "no data rows"),
    ])
    def test_no_data_rows_fails_cleanly(self, tmp_path, capsys, text, message):
        data = tmp_path / "cross.csv"
        data.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["fit-gm", str(data), "--out", str(out)]) == 2
        assert f"{data}: {message}" in capsys.readouterr().err
        assert not (out / "gm_fit.csv").exists()


class TestConfigHandling:
    def test_unknown_preset_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["noise-sweep", "--preset", "nope", "--out", str(tmp_path)])

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["noise-sweep", "--preset", "paper-fig5",
                         "--config", str(tmp_path / "none.cfg"), "--out", str(tmp_path)])
        assert code == 2
        assert "config file not found" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["directory", "undecodable"])
    def test_unreadable_config_file_names_it(self, tmp_path, capsys, kind):
        # neither falls back to the defaults: a file that cannot be opened
        # or decoded as UTF-8 is an error that names it
        path = tmp_path / "run.cfg"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe[beam]\nlambda_sig_m = 8.4e-7\n")
        before = sorted(tmp_path.rglob("*"))
        assert cli.main(["swg-gen", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(path) in captured.err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("kind", ["directory", "undecodable"])
    @pytest.mark.parametrize("command", ["noise-sweep", "fit-gm"])
    def test_unreadable_data_file_names_it(self, tmp_path, capsys, command, kind):
        # device.dataset and fit-gm's data file, as --config above
        path = tmp_path / "data.csv"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe" + device.HEADER.encode() + b"\n")
        if command == "fit-gm":
            argv = ["fit-gm", str(path)]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"[device]\ndataset = {path}\n")
            argv = ["noise-sweep", "--preset", "paper-fig5", "--config", str(cfg)]
        before = sorted(tmp_path.rglob("*"))
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command, preset, section, key, value", [
        ("noise-sweep", "paper-fig5", "environment", "t_k", "nan"),
        ("swg-gen", None, "swg", "delta_l", "1.5"),
        ("noise-sweep", "paper-fig5", "readout", "p_det_w", "abc"),
        ("pulse-budget", "paper-fig8", "beam", "f_rep_hz", "fast"),
        ("noise-sweep", "paper-fig5", "environment", "q_m", "-5"),
        ("mech-response", "paper-fig2b", "mechanics", "q_m", "-5"),
        ("mech-response", "paper-fig2b", "mechanics", "q_m", "0"),
        ("mech-response", "paper-fig2b", "mechanics", "n_points", "0"),
        ("noise-sweep", "paper-fig5", "sweep", "l_s_step_um", "0"),
        ("pulse-budget", "paper-fig8", "sweep", "n_cav_min", "0"),
        ("pulse-budget", "paper-fig8", "sweep", "n_cav_max", "-1"),
        ("pulse-budget", "paper-fig8", "sweep", "n_cav_points", "0"),
        ("pulse-budget", "paper-fig8", "sweep", "n_cav_points", "1"),
        ("beam-sim", None, "swg", "ideal_vortex", "maybe"),
        ("pulse-budget", "paper-fig8", "beam", "bandwidth_hz", "0"),
        ("pulse-budget", "paper-fig8", "beam", "bandwidth_hz", "-1"),
        ("noise-sweep", "paper-fig5", "device", "branch", "twist"),
        ("beam-sim", None, "grid", "pitch_m", "0"),
        ("beam-sim", None, "beam", "w0_m", "-1e-6"),
        ("noise-sweep", "paper-fig5", "readout", "q_o", "0"),
        ("noise-sweep", "paper-fig5", "environment", "t_k", "-1"),
        ("swg-gen", None, "swg", "aperture_d_m", "0"),
        ("noise-sweep", "paper-fig5", "readout", "lambda0_m", "0"),
        ("noise-sweep", "paper-fig5", "beam", "lambda_sig_m", "0"),
        ("swg-gen", None, "swg", "lattice_a_m", "0"),
        ("noise-sweep", "paper-fig5", "readout", "dip_depth", "0"),
        ("noise-sweep", "paper-fig5", "readout", "eta_qe", "1.5"),
        ("noise-sweep", "paper-fig5", "beam", "eta_conv", "1.0001"),
        ("noise-sweep", "paper-fig5", "beam", "contrast", "-0.5"),
        ("noise-sweep", "paper-fig5", "readout", "p_dn_w", "-1e-12"),
        ("pulse-budget", "paper-fig8", "readout", "n_cav", "-1"),
        ("noise-sweep", "paper-fig5", "beam", "delta_l", "-1"),
        ("mech-response", "paper-fig2b", "mechanics", "f_min_hz", "-1e6"),
        ("mech-response", "paper-fig2b", "mechanics", "f_max_hz", "0"),
        ("swg-gen", None, "swg", "phase_sign", "0"),
        ("beam-sim", None, "swg", "phase_sign", "2"),
        ("beam-sim", None, "grid", "n", "0"),
        ("beam-sim", None, "grid", "n", "16"),
        ("beam-sim", None, "grid", "n", "1000"),
        ("pulse-budget", "paper-fig8", "beam", "f_rep_hz", "-1"),
        ("pulse-budget", "paper-fig8", "beam", "f_rep_hz", "0"),
        ("noise-sweep", "paper-fig5", "readout", "p_det_w", "-1"),
        ("noise-sweep", "paper-fig5", "readout", "p_det_w", "0"),
        ("mech-response", "paper-fig2b", "mechanics", "g_m_hz", "-5e5"),
        ("beam-sim", None, "swg", "design_lambda_m", "-1e-6"),
        ("beam-sim", None, "swg", "design_lambda_m", "1.5e-6"),
        ("noise-sweep", "paper-fig5", "device", "branch", "see-saw"),
    ])
    def test_bad_value_names_key(self, tmp_path, capsys, command, preset, section, key,
                                 value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        if preset is not None:
            argv += ["--preset", preset]
        assert cli.main(argv) == 2
        assert f"config key {section}.{key} = {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, preset, section, key, value", [
        ("mech-response", "paper-fig2b", "mechanics", "l_s_um", "50"),
        ("noise-sweep", "paper-fig5", "sweep", "l_s_min_um", "2"),
        ("noise-sweep", "paper-fig5", "sweep", "l_s_max_um", "20"),
        ("pulse-budget", "paper-fig8", "sweep", "l_s_ncav_um", "50"),
    ])
    def test_l_s_outside_domain_names_key(self, tmp_path, capsys, command, preset, section,
                                          key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        assert cli.main([command, "--preset", preset, "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 2
        assert (f"error: config key {section}.{key} = {float(value)!r} is outside branch "
                f"'twist-like' domain [8.0, 18.0] um") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, text, value", [
        ("swg-gen", "lambda_sig_m = 1.5e-6\n", 1.5e-6),
        ("beam-sim", "lambda_sig_m = 1.5e-6\n", 1.5e-6),
        ("beam-sim", "lambda_sig_m = 6.5e-7\n", 6.5e-7),
        ("beam-sim", "lambda_sig_m = 1.5e-6\n[swg]\ndesign_lambda_m = 8.4e-7\n", 1.5e-6),
    ])
    def test_signal_wavelength_outside_lookup_names_key(self, tmp_path, capsys, command,
                                                         text, value):
        # the grating is designed at, or evaluated at, the signal wavelength
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[beam]\n" + text)
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert (f"error: config key beam.lambda_sig_m = {value!r} is outside the grating "
                f"lookup range [7e-07, 1e-06] m") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, preset, text", [
        ("noise-sweep", "paper-fig5", ""),
        ("pulse-budget", "paper-fig8", ""),
        ("beam-sim", None, "[grid]\nn = 128\npitch_m = 80e-9\n[swg]\nideal_vortex = true\n"),
    ])
    def test_signal_wavelength_outside_lookup_accepted_without_grating(
            self, tmp_path, command, preset, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[beam]\nlambda_sig_m = 1.5e-6\n" + text)
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        if preset is not None:
            argv += ["--preset", preset]
        assert cli.main(argv) == 0

    def test_unstable_coupling_names_key(self, tmp_path, capsys):
        # g_m^4 >= omega1^2 omega2^2 at the preset's l_s: no stable two-mode model
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[mechanics]\ng_m_hz = 1e7\n")
        assert cli.main(["mech-response", "--preset", "paper-fig2b", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 2
        assert ("error: config key mechanics.g_m_hz = 10000000.0 at mechanics.l_s_um = 12.0: "
                "unstable model") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("values", [
        "f_min_hz = 6e6\nf_max_hz = 5e6\n", "f_min_hz = 5e6\nf_max_hz = 5e6\n",
        "f_min_hz = 9e6\n",
    ])
    def test_frequency_range_names_both_keys(self, tmp_path, capsys, values):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[mechanics]\n" + values)
        assert cli.main(["mech-response", "--preset", "paper-fig2b", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "mechanics.f_min_hz = " in err and "must be < mechanics.f_max_hz = " in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("values", [
        "n_cav_min = 1e-1\nn_cav_max = 1e-5\n", "n_cav_min = 1e-3\nn_cav_max = 1e-3\n",
        "n_cav_min = 0.2\n",
    ])
    def test_ncav_range_names_both_keys(self, tmp_path, capsys, values):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[sweep]\n" + values)
        assert cli.main(["pulse-budget", "--preset", "paper-fig8", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: sweep.n_cav_min must be < sweep.n_cav_max\n"
        assert not (tmp_path / "out").exists()

    def test_benchmark_traced_names_resolve(self):
        # benchmark/run.py wraps these module attributes by name; it is read,
        # not imported, so a rename fails here rather than in a traced run
        import importlib

        names = benchmark_traced()
        assert ("noise", "budget") in names and len(names) >= 10
        for module, fn in names:
            assert callable(getattr(importlib.import_module(f"oamsense.{module}"), fn, None)), \
                f"benchmark traces oamsense.{module}.{fn}, which does not exist"

    def test_ncav_point_outside_domain_writes_nothing(self, tmp_path, capsys):
        # the n_cav scan runs before either pulse-budget file is written
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[sweep]\nl_s_ncav_um = 50\n")
        assert cli.main(["pulse-budget", "--preset", "paper-fig8", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key", [
        ("readout", "n_cav"), ("sweep", "n_cav_min"), ("sweep", "n_cav_max"),
    ])
    def test_underflowing_ncav_names_key(self, tmp_path, capsys, section, key):
        # p_det_w = auto ties p_det = n_cav * hbar * omega0 * kappa, which is 0 here
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[{section}]\n{key} = 1e-300\n")
        assert cli.main(["pulse-budget", "--preset", "paper-fig8", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: config key {section}.{key} = 1e-300 gives a detected power "
            "n_cav * hbar * omega0 * kappa that underflows to 0\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, preset, section, key", [
        ("noise-sweep", "paper-fig5", "enviroment", "t_k"),
        ("noise-sweep", "paper-fig5", "environment", "t_kk"),
        ("swg-gen", None, "swg", "pillar_t_m"),
        ("noise-sweep", "paper-fig5", "mechanics", "q_m"),
        ("noise-sweep", "paper-fig5", "DEFAULT", "t_k"),
    ], ids=["section-typo", "key-typo", "removed-key", "other-subcommand", "default-section"])
    def test_unread_file_key_rejected(self, tmp_path, capsys, command, preset, section, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[{section}]\n{key} = 300\n")
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        if preset is not None:
            argv += ["--preset", preset]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"{cfg}: config key {section}.{key} is not read by {command}" in err
        if section == "enviroment":
            assert "did you mean environment.t_k?" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["noise-sweep", "--preset", "paper-fig8"],
        ["fit-gm", "bundled", "--preset", "paper-fig5"],
    ], ids=["noise-sweep-fig8", "fit-gm-fig5"])
    def test_preset_keys_of_other_subcommands_allowed(self, tmp_path, argv):
        assert cli.main(argv + ["--out", str(tmp_path)]) == 0

    def test_config_without_section_header(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t_k = 300\n")
        assert cli.main(["noise-sweep", "--preset", "paper-fig5", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 2
        assert f"error: {cfg}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_every_preset_key_is_declared(self):
        for preset in cli.PRESETS.values():
            assert set(preset) <= set(cli.KEYS)

    def test_benchmark_inputs_are_read_by_their_subcommand(self, tmp_path, monkeypatch):
        path = Path(__file__).resolve().parents[1] / "benchmark" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
        spec.loader.exec_module(workloads)
        configs = 0
        for name in workloads.WORKLOADS:
            for job in workloads.make_pass(name, 1, 0, tmp_path / name):
                if "--config" not in job.argv:
                    continue
                parser = configparser.ConfigParser()
                parser.read(job.argv[job.argv.index("--config") + 1])
                for section in parser.sections():
                    for key in parser.options(section):
                        assert job.kind in cli.KEYS[f"{section}.{key}"].commands
                configs += 1
        assert configs > 0

    def test_config_overrides_preset(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[sweep]\nl_s_min_um = 9\nl_s_max_um = 11\nl_s_step_um = 1\n")
        assert cli.main(["noise-sweep", "--preset", "paper-fig5",
                         "--config", str(cfg), "--out", str(tmp_path)]) == 0
        ls = column(tmp_path / "noise_sweep.csv", "l_s_um")
        assert list(ls) == [9.0, 10.0, 11.0]

    def test_step_must_divide_range(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[sweep]\nl_s_step_um = 0.3\n")
        code = cli.main(["noise-sweep", "--preset", "paper-fig5",
                         "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "sweep.l_s_step_um = 0.3 does not divide" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("values, rows", [
        ({"sweep.l_s_min_um": "8", "sweep.l_s_max_um": "18", "sweep.l_s_step_um": "0.25"}, 41),
        ({"sweep.l_s_step_um": "0.005"}, 2001),
        ({}, 41),
    ], ids=["preset", "fine", "dataset-domain"])
    def test_dividing_steps_accepted(self, tmp_path, values, rows):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[sweep]\n" + "".join(f"{k.split('.')[1]} = {v}\n"
                                              for k, v in values.items()))
        dataset = device.load_sample_dataset()
        resolved = cli.resolve_config("noise-sweep", None, str(cfg))
        grid = cli._ls_grid(resolved, dataset, "twist-like")
        assert len(grid) == rows
        assert (grid[0], grid[-1]) == dataset.domain("twist-like")

    def test_branch_in_any_letter_case(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[device]\nbranch = Twist-Like\n")
        assert cli.resolve_config("noise-sweep", None, str(cfg))["device.branch"] == "twist-like"

    def test_zero_environment_q_m_uses_dataset(self, tmp_path):
        base = "[device]\ndataset = bundled\n"
        for name, text in (("zero", base + "[environment]\nq_m = 0\n"), ("unset", base)):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(text)
            assert cli.main(["noise-sweep", "--config", str(cfg),
                             "--out", str(tmp_path / name)]) == 0
        zero = (tmp_path / "zero" / "noise_sweep.csv").read_bytes()
        assert zero == (tmp_path / "unset" / "noise_sweep.csv").read_bytes()


# One valid value per config key that differs from the value of each base
# config below; where a base already holds the first value, the second is
# used.  device.dataset gets a modified copy of the bundled file.
PERTURBED = {
    "device.branch": "bounce-like",
    "mechanics.l_s_um": "11",
    "mechanics.q_m": "400",
    "mechanics.g_m_hz": "4e5",
    "mechanics.f_d_n": "2e-15",
    "mechanics.f_min_hz": "4.5e6",
    "mechanics.f_max_hz": "6.5e6",
    "mechanics.n_points": "1001",
    "sweep.l_s_min_um": "9",
    "sweep.l_s_max_um": "17",
    "sweep.l_s_step_um": "0.5",
    "sweep.l_s_ncav_um": "11",
    "sweep.n_cav_min": "1e-4",
    "sweep.n_cav_max": "1e-2",
    "sweep.n_cav_points": "21",
    "readout.lambda0_m": "1.55e-6",
    "readout.q_o": "5e5",
    "readout.dip_depth": "0.5",
    "readout.p_det_w": "2e-7",
    "readout.eta_qe": "0.5",
    "readout.p_dn_w": "5e-12",
    "readout.n_cav": "2e-3",
    "environment.t_k": "2",
    "environment.q_m": "5e5",
    "beam.lambda_sig_m": "9e-7",
    "beam.delta_l": "2",
    "beam.eta_conv": "0.5",
    "beam.contrast": "0.5",
    "beam.f_rep_hz": "5e6",
    "beam.bandwidth_hz": "2",
    "beam.w0_m": "8e-7",
    "grid.n": "128",
    "grid.pitch_m": "5e-8",
    "swg.aperture_d_m": "2.5e-6",
    "swg.lattice_a_m": "3e-7",
    "swg.delta_l": "2",
    "swg.design_lambda_m": "8e-7",
    "swg.phase_sign": "-1",
    "swg.z_eval_m": "3e-6",
    "swg.ideal_vortex": ("true", "false"),
    "fit.f2_hz": ("6e6", "5.9e6"),
}

# A small beam-sim run, evaluated past the grating: at z = 0 the signal
# wavelength does not act on the ideal vortex.
_BEAM_SIM = {"grid.n": "64", "grid.pitch_m": "6e-8", "beam.w0_m": "1e-6", "swg.z_eval_m": "2e-6"}

# A base config of each subcommand and branch: (subcommand, preset, file keys).
BASES = {
    "mech-response": ("mech-response", "paper-fig2b", {}),
    "noise-sweep": ("noise-sweep", "paper-fig5", {}),
    "noise-sweep-auto-p_det": ("noise-sweep", "paper-fig8", {}),
    "pulse-budget": ("pulse-budget", "paper-fig8", {}),
    "beam-sim-grating": ("beam-sim", None, {**_BEAM_SIM, "swg.aperture_d_m": "3e-6"}),
    "beam-sim-ideal-vortex": ("beam-sim", None, {**_BEAM_SIM, "swg.ideal_vortex": "true"}),
    "swg-gen": ("swg-gen", None, {}),
    "fit-gm-fitted-f2": ("fit-gm", None, {}),
    "fit-gm-fixed-f2": ("fit-gm", None, {"fit.f2_hz": "6e6"}),
}


def _write_config(path, keys):
    sections = {}
    for name, value in keys.items():
        section, key = name.split(".")
        sections.setdefault(section, []).append(f"{key} = {value}\n")
    path.write_text("".join(f"[{s}]\n" + "".join(lines) for s, lines in sections.items()))


class TestKeysRead:
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_every_key_in_scope_changes_the_run(self, tmp_path, capsys):
        # a run reads only the keys it uses: a change to any key in scope
        # changes stdout or an output file, or exits 2 naming the key
        lines = device.sample_dataset_path().read_text(encoding="utf-8").splitlines()
        header = lines.index(device.HEADER)
        rows = [r.split(",") for r in lines[header + 1:] if r]
        for r in rows:
            r[5] = repr(1.5 * float(r[5]))  # m_eff_kg
        dataset = tmp_path / "heavier.csv"
        dataset.write_text("\n".join(lines[:header + 1] + [",".join(r) for r in rows]) + "\n")
        perturbed = {**PERTURBED, "device.dataset": str(dataset)}
        runs = itertools.count()

        def run(command, preset, keys):
            k = next(runs)
            out, cfg = tmp_path / f"out{k}", tmp_path / f"run{k}.cfg"
            _write_config(cfg, keys)
            argv = [command] + (["bundled"] if command == "fit-gm" else [])
            argv += (["--preset", preset] if preset else []) + ["--config", str(cfg)]
            code = cli.main(argv + ["--out", str(out)])
            captured = capsys.readouterr()
            files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else None
            return code, (captured.out.replace(str(out), "<out>"), files), captured.err, cfg

        seen, ignored, rejected = set(), set(), set()
        for base_id, (command, preset, keys) in BASES.items():
            code, reference, err, cfg = run(command, preset, keys)
            assert code == 0, err
            base = cli.resolve_config(command, preset, str(cfg))
            for name in base:
                values = perturbed[name]
                candidates = (values,) if isinstance(values, str) else values
                value = next(v for v in candidates if cli.KEYS[name].parse(v) != base[name])
                code, result, err, _ = run(command, preset, {**keys, name: value})
                if code == 2:
                    assert name in err and result[1] is None, (base_id, name, err)
                    rejected.add((base_id, name))
                else:
                    assert code == 0, (base_id, name, err)
                    if result == reference:
                        ignored.add((command, name))
                seen.add(name)
        assert seen == set(cli.KEYS)
        # the ideal vortex builds no pillar grating, so it refuses a grating key
        assert rejected == {("beam-sim-grating", "swg.ideal_vortex")} | {
            ("beam-sim-ideal-vortex", name)
            for name in ("swg.aperture_d_m", "swg.lattice_a_m", "swg.design_lambda_m")}
        # the one exemption: the bundled lookup table gives one layout at
        # every design wavelength (tests/test_swg.py), so swg-gen's signal
        # wavelength moves nothing; the benchmark's swg-gen jobs set it
        assert ignored == {("swg-gen", "beam.lambda_sig_m")}


class TestEntryPoint:
    def test_module_run_is_warning_free(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "oamsense.cli", "mech-response",
             "--preset", "paper-fig2b", "--out", str(tmp_path / "out")],
            cwd=tmp_path, env=_src_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert (tmp_path / "out" / "response.csv").exists()

    def test_module_run_of_beam_sim(self, tmp_path, capsys):
        # the forked worker adds no warning and no second copy of stdout
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[grid]\nn = 256\npitch_m = 80e-9\n")
        argv = ["beam-sim", "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0
        expected = capsys.readouterr().out
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "oamsense.cli", *argv],
            cwd=tmp_path, env=_src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout == expected

    def test_package_import_leaves_scipy_unloaded(self, tmp_path):
        # beam-sim imports its worker pool when it runs, so neither the
        # package nor the cli module loads it
        script = ("import sys, oamsense, oamsense.cli\n"
                  "lazy = ('scipy', 'multiprocessing', 'concurrent')\n"
                  "print(sorted(m for m in sys.modules if m.split('.')[0] in lazy))")
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=_src_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout == "[]\n"

    def test_cli_reachable_from_package(self):
        assert oamsense.cli is cli
        assert "cli" in oamsense.__all__


class TestOutputFiles:
    def test_out_under_regular_file(self, tmp_path, capsys):
        # every subcommand fails before it prints a row or starts the worker
        blocker = tmp_path / "file"
        blocker.write_text("x")
        for argv in (["mech-response", "--preset", "paper-fig2b"],
                     ["noise-sweep", "--preset", "paper-fig5"],
                     ["pulse-budget", "--preset", "paper-fig8"],
                     ["beam-sim"], ["swg-gen"], ["fit-gm", "bundled"]):
            code = cli.main(argv + ["--out", str(blocker / "sub")])
            assert code == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    @pytest.mark.parametrize("argv, text, message", [
        (["mech-response", "--preset", "paper-fig2b"], "[mechanics]\ng_m_hz = 1e7\n",
         "config key mechanics.g_m_hz"),
        (["noise-sweep", "--preset", "paper-fig5"], "[sweep]\nl_s_min_um = 2\n",
         "config key sweep.l_s_min_um"),
        (["pulse-budget", "--preset", "paper-fig8"], "[sweep]\nl_s_ncav_um = 50\n",
         "config key sweep.l_s_ncav_um"),
        (["beam-sim"], "[grid]\npitch_m = 8e-8\n[beam]\nw0_m = 3e-7\n", "config key beam.w0_m"),
        (["swg-gen"], "[beam]\nlambda_sig_m = 1.5e-6\n", "config key beam.lambda_sig_m"),
        (["fit-gm", "missing.csv"], "", "fit-gm data file not found"),
    ], ids=["mech-response", "noise-sweep", "pulse-budget", "beam-sim", "swg-gen", "fit-gm"])
    def test_failed_handler_check_leaves_nothing(self, tmp_path, capsys, argv, text, message):
        # a check that only the handler makes fails after main has created
        # a new nested --out: the run exits 2 and removes it again
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        argv = [str(tmp_path / a) if a == "missing.csv" else a for a in argv]
        before = sorted(tmp_path.rglob("*"))
        assert cli.main(argv + ["--config", str(cfg), "--out",
                                str(tmp_path / "new" / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err
        assert sorted(tmp_path.rglob("*")) == before
        assert multiprocessing.active_children() == []

    def test_out_is_checked_before_the_handler(self, tmp_path, capsys):
        # --out is created before a handler's own checks run, so when both
        # are bad, the error names --out
        blocker = tmp_path / "file"
        blocker.write_text("x")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[beam]\nlambda_sig_m = 1.5e-6\n")
        assert cli.main(["swg-gen", "--config", str(cfg), "--out", str(blocker / "sub")]) == 2
        err = capsys.readouterr().err
        assert str(blocker) in err and "lambda_sig_m" not in err

    def test_one_run_shape(self):
        # main alone commits the output set and prints to stdout: no handler
        # enters _outputs or prints without file=sys.stderr, and every
        # handler in COMMANDS is a cmd_* function of cli
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        functions = [f for f in tree.body if isinstance(f, ast.FunctionDef)]

        def calls(func, name):
            return [node for node in ast.walk(func) if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name) and node.func.id == name]

        assert [f.name for f in functions if calls(f, "_outputs")] == ["main"]
        assert len(calls(tree, "_outputs")) == 1
        to_stdout = [f"{f.name}:{call.lineno}" for f in functions if f.name.startswith("cmd_")
                     for call in calls(f, "print")
                     if not any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr"
                                for k in call.keywords)]
        assert to_stdout == []
        for command in cli.COMMANDS.values():
            assert command.run.__name__.startswith("cmd_")
            assert getattr(cli, command.run.__name__) is command.run

    def test_atomic_write_temp_names(self, tmp_path):
        # cli._outputs: temp names are unique per call and sit in the target
        # directory, and a failure leaves nothing
        seen = []
        for _ in range(2):
            with pytest.raises(RuntimeError), cli._outputs(tmp_path, ["out.csv"]) as temps:
                seen.append(temps["out.csv"])
                temps["out.csv"].write_text("partial")
                raise RuntimeError("writer failed")
        assert seen[0] != seen[1]
        assert all(p.parent == tmp_path for p in seen)
        assert list(tmp_path.iterdir()) == []
        with cli._outputs(tmp_path, ["out.csv"]) as temps:
            temps["out.csv"].write_text("done")
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    @pytest.mark.parametrize("found", [False, True], ids=["new-out", "found-out"])
    @pytest.mark.parametrize("argv, owner, writer, failing", [
        (["mech-response", "--preset", "paper-fig2b"], "mechanics", "save_response_curve",
         "response.csv"),
        (["noise-sweep", "--preset", "paper-fig5"], "noise", "write_budget_sweep",
         "noise_sweep.csv"),
        # the second file, once the first is complete
        (["pulse-budget", "--preset", "paper-fig8"], "noise", "write_budget_sweep",
         "pulse_ncav_sweep.csv"),
        (["beam-sim", "--config", "beam.cfg"], "beams", "save_raster", "phase_swg.csv"),
        (["swg-gen"], "swg", "export_layout", "layout.csv"),
        (["fit-gm", "bundled"], "table", "write_table", "gm_fit.csv"),
    ], ids=["mech-response", "noise-sweep", "pulse-budget-second-file", "beam-sim", "swg-gen",
            "fit-gm"])
    def test_failed_write_leaves_nothing(self, tmp_path, capsys, monkeypatch, argv, owner,
                                         writer, failing, found):
        # the writer of one file leaves it half written and raises: the run
        # exits 2, and every file and directory it made is gone
        (tmp_path / "beam.cfg").write_text("[grid]\nn = 64\npitch_m = 80e-9\n"
                                           "[beam]\nw0_m = 1.5e-6\n")
        argv = [str(tmp_path / a) if a == "beam.cfg" else a for a in argv]
        out = tmp_path / "out" if found else tmp_path / "new" / "out"
        if found:
            out.mkdir()
            (out / "keep.txt").write_text("not this run's")
        before = sorted(tmp_path.rglob("*"))
        target = getattr(cli, owner)
        original = getattr(target, writer)

        def half_write(*args, **kwargs):
            path = next((a for a in args if isinstance(a, Path)), None)
            if path is None or not path.name.startswith(failing + "."):
                return original(*args, **kwargs)
            path.write_bytes(b"partial")
            raise OSError("injected writer failure")

        monkeypatch.setattr(target, writer, half_write)
        assert cli.main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: injected writer failure\n"
        assert sorted(tmp_path.rglob("*")) == before
        assert multiprocessing.active_children() == []
