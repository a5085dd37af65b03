"""End-to-end checks of the command-line interface.

These drive ``main(argv)`` directly and only assert on wiring: exit
codes, emitted files, flag precedence and printed summaries.  The
physics behind each subcommand is covered by the module tests.
"""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import squid_horizon
from squid_horizon import cli, config, errors, experiments, lattice
from squid_horizon.cli import main

from conftest import REF_CELL_SPEED
from test_config import valid_documents
from test_csv import reference_csv


@pytest.fixture(autouse=True)
def isolated_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SQUID_HORIZON_OUT", raising=False)
    return tmp_path


def child_env():
    """Environment for a child interpreter that imports this copy of the
    package.  The child may start in another directory, where a relative
    PYTHONPATH such as "src" no longer resolves, so the tree under test goes
    first by its absolute path."""
    env = dict(os.environ)
    src = str(Path(squid_horizon.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


def write_variant(path, **changes):
    """Dump the default configuration with dotted-path overrides applied."""
    data = config.config_to_dict(config.default_config())
    for dotted, value in changes.items():
        section, key = dotted.split("__")
        data[section][key] = value
    path.write_text(json.dumps(data, indent=2))
    return path


class TestValidate:
    def test_defaults_pass(self, tmp_path, capsys):
        assert main(["validate", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count(" pass") == 6
        assert "FAIL" not in out
        payload = json.loads((tmp_path / "validity.json").read_text())
        assert payload["overall_pass"] is True
        assert len(payload["checks"]) == 6

    def test_small_ground_capacitance_fails_impedance(self, tmp_path,
                                                      capsys):
        cfg = write_variant(tmp_path / "c.json",
                            array__ground_capacitance=5e-18)
        code = main(["validate", "--config", str(cfg),
                     "--out", str(tmp_path)])
        assert code == 1
        captured = capsys.readouterr()
        failed = [line for line in captured.out.splitlines()
                  if "FAIL" in line]
        assert len(failed) == 1
        assert failed[0].startswith("impedance")
        payload = json.loads((tmp_path / "validity.json").read_text())
        assert payload["overall_pass"] is False

    def test_infinite_value_is_written_as_null(self, tmp_path, capsys):
        # beta_L overflows to inf; strict JSON has no Infinity literal.
        cfg = write_variant(tmp_path / "c.json",
                            squid__loop_inductance=1e308)
        code = main(["validate", "--config", str(cfg),
                     "--out", str(tmp_path)])
        assert code == 1
        assert "screening             inf" in capsys.readouterr().out

        def refuse(name):
            raise ValueError("non-standard JSON constant %s" % name)

        payload = json.loads((tmp_path / "validity.json").read_text(),
                             parse_constant=refuse)
        screening = payload["checks"][0]
        assert screening["name"] == "screening"
        assert screening["value"] is None
        assert screening["passed"] is False
        assert payload["overall_pass"] is False

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["validate", "--config", str(tmp_path / "absent.json")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("option, name", [
        ("--out", "taken"), ("--out", "taken/sub"), ("--config", ".")],
        ids=["out-is-a-file", "out-under-a-file", "config-is-a-directory"])
    def test_unusable_path_is_a_config_error(self, tmp_path, capsys, option,
                                             name):
        (tmp_path / "taken").write_text("")
        code = main(["validate", option, str(tmp_path / name)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_misspelled_key(self, tmp_path, capsys):
        data = config.config_to_dict(config.default_config())
        data["array"]["ground_capacitence"] = 1e-17
        del data["array"]["ground_capacitance"]
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(data))
        code = main(["validate", "--config", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "ground_capacitence" in err
        assert "ground_capacitance" in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{\"array\": {\n")
        code = main(["validate", "--config", str(path)])
        assert code == 2
        assert "line" in capsys.readouterr().err

    def test_bad_workers_flag(self, tmp_path, capsys):
        # No subcommand takes the former pool size flag any more.
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--workers", "0", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_bad_emit_flag(self, tmp_path, capsys):
        code = main(["validate", "--emit", "png", "--out", str(tmp_path)])
        assert code == 2


class TestOutputLocation:
    def test_out_flag_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SQUID_HORIZON_OUT", str(tmp_path / "env"))
        cfg = write_variant(tmp_path / "c.json",
                            output__directory=str(tmp_path / "cfg"))
        flag_dir = tmp_path / "flag"
        assert main(["validate", "--config", str(cfg),
                     "--out", str(flag_dir)]) == 0
        assert (flag_dir / "validity.json").exists()
        assert not (tmp_path / "cfg").exists()
        assert not (tmp_path / "env").exists()

    def test_config_directory_beats_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SQUID_HORIZON_OUT", str(tmp_path / "env"))
        cfg = write_variant(tmp_path / "c.json",
                            output__directory=str(tmp_path / "cfg"))
        assert main(["validate", "--config", str(cfg)]) == 0
        assert (tmp_path / "cfg" / "validity.json").exists()
        assert not (tmp_path / "env").exists()

    def test_environment_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SQUID_HORIZON_OUT", str(tmp_path / "env"))
        assert main(["validate"]) == 0
        assert (tmp_path / "env" / "validity.json").exists()

    def test_default_is_working_directory(self, tmp_path):
        assert main(["validate"]) == 0
        assert (tmp_path / "validity.json").exists()


class TestProfile:
    def test_prints_horizon_and_writes_csv(self, tmp_path, capsys):
        assert main(["profile", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "black horizon" in out
        assert "T_H" in out
        assert (tmp_path / "profile.csv").exists()
        assert not (tmp_path / "profile.svg").exists()

    def test_no_horizon_is_reported_not_fatal(self, tmp_path, capsys):
        # 1e6 m/s is slower than both plateau speeds, 3.90e6 and 3.51e6 m/s.
        path = write_variant(tmp_path / "slow.json", pulse__velocity=1.0e6)
        assert main(["profile", "--config", str(path),
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "no horizons found" in out
        assert "horizon at" not in out

    def test_emit_controls_artifacts(self, tmp_path):
        assert main(["profile", "--out", str(tmp_path),
                     "--emit", "csv,svg"]) == 0
        assert (tmp_path / "profile.csv").exists()
        assert (tmp_path / "profile.svg").exists()

    def test_emit_nothing(self, tmp_path):
        assert main(["profile", "--out", str(tmp_path), "--emit", ""]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_deterministic_output(self, tmp_path):
        for sub in ("a", "b"):
            assert main(["profile", "--out", str(tmp_path / sub),
                         "--emit", "csv,svg"]) == 0
        for name in ("profile.csv", "profile.svg"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()


class TestSimulate:
    @pytest.fixture()
    def small_cfg(self, tmp_path):
        data = config.config_to_dict(config.default_config())
        data["array"]["n_cells"] = 600
        data["solver"].update(n_steps=400, record_every=100)
        path = tmp_path / "small.json"
        path.write_text(json.dumps(data))
        return path

    def test_runs_and_reports_drift(self, tmp_path, small_cfg, capsys):
        code = main(["simulate", "--config", str(small_cfg),
                     "--out", str(tmp_path), "--emit", "csv,bin,svg"])
        assert code == 0
        out = capsys.readouterr().out
        assert "energy drift" in out
        assert "400 steps of 600 cells" in out
        for name in ("trajectory.csv", "trajectory.sqhz", "trajectory.svg"):
            assert (tmp_path / name).exists()

    def test_csv_has_expected_rows(self, tmp_path, small_cfg):
        main(["simulate", "--config", str(small_cfg),
              "--out", str(tmp_path)])
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        # Header plus (initial snapshot + 4 records) * 600 nodes.
        assert len(lines) == 1 + 5 * 600

    def test_csv_text_is_percent_formatting(self, tmp_path, small_cfg):
        main(["simulate", "--config", str(small_cfg),
              "--out", str(tmp_path), "--emit", "csv,bin"])
        times, potentials, currents, volts = lattice.read_trajectory_binary(
            tmp_path / "trajectory.sqhz")
        n_rec, n = potentials.shape
        expected = reference_csv(
            "t,node,A,I,V", "%.12e,%d,%.12e,%.12e,%.12e",
            np.repeat(times, n), np.tile(np.arange(n), n_rec),
            potentials.ravel(), currents.ravel(), volts.ravel())
        assert (tmp_path / "trajectory.csv").read_bytes() == expected

    def test_current_dependent_inductance(self, tmp_path):
        # The CLI's stretch run gives the library's bytes with the stretch
        # on, and other bytes than the run with it off.
        path = write_variant(tmp_path / "stretch.json", array__n_cells=300,
                             solver__n_steps=300, solver__record_every=100,
                             solver__current_dependent_inductance=True)
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path), "--emit", "csv"]) == 0
        written = (tmp_path / "trajectory.csv").read_bytes()
        cfg = config.load_config(path)
        array, squid, pulse = cfg.array, cfg.squid, cfg.pulse
        a = array.cell_length
        dt = lattice.stable_timestep(array, squid, pulse,
                                     cfg.solver.courant_fraction)
        state = lattice.gaussian_packet(
            array, squid, pulse, 0.25 * array.n_cells * a,
            cli._SIM_SIGMA_CELLS * a, cli._SIM_CARRIER_KA,
            cli._SIM_AMPLITUDE, dt)
        for stretch in (True, False):
            solver = dataclasses.replace(
                cfg.solver, dt=dt, current_dependent_inductance=stretch)
            library = tmp_path / ("library-%s.csv" % stretch)
            lattice.write_trajectory_csv(
                library, lattice.run(state, array, squid, pulse, solver))
            assert (library.read_bytes() == written) == stretch

    def test_driven_boundary_rejected(self, tmp_path, capsys):
        # The half-open end is gone: the error names the two that remain.
        path = write_variant(tmp_path / "driven.json",
                             solver__boundary="driven")
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path), "--emit", ""]) == 2
        err = capsys.readouterr().err
        assert "reflecting" in err and "absorbing" in err
        assert [p.name for p in tmp_path.iterdir()] == ["driven.json"]


class TestDispersion:
    def test_measures_standard_points(self, tmp_path, capsys):
        assert main(["dispersion", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "measured 7 points" in out
        lines = (tmp_path / "dispersion.csv").read_text().splitlines()
        assert lines[0] == "k,omega_analytic,omega_measured,rel_error"
        assert len(lines) == 8


class TestBudget:
    def test_reports_targets(self, tmp_path, capsys):
        assert main(["budget", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "initial T_H" in out
        assert "photons per traversal" in out
        assert "MISSED" not in out
        assert (tmp_path / "budget_trace.csv").exists()

    def test_reports_every_written_file(self, tmp_path, capsys):
        assert main(["budget", "--out", str(tmp_path),
                     "--emit", "csv,svg"]) == 0
        wrote = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("wrote ")]
        assert wrote == ["wrote %s" % (tmp_path / "budget_trace.csv"),
                         "wrote %s" % (tmp_path / "budget_trace.svg")]
        assert (tmp_path / "budget_trace.svg").exists()


class TestReproduce:
    def test_fig2(self, tmp_path, capsys):
        code = main(["reproduce", "fig2", "--out", str(tmp_path),
                     "--emit", "csv,svg"])
        assert code == 0
        assert "horizon at xi" in capsys.readouterr().out
        assert (tmp_path / "fig2_profile.csv").exists()
        assert (tmp_path / "fig2_profile.svg").exists()

    def test_fig3(self, tmp_path, capsys):
        assert main(["reproduce", "fig3", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("Z/R_Q") == 4
        assert (tmp_path / "fig3_impedance.csv").exists()

    def test_budget_alias(self, tmp_path):
        assert main(["reproduce", "budget", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "budget_trace.csv").exists()

    def test_trapping_runs_both_scenarios(self, tmp_path, capsys):
        code = main(["reproduce", "trapping", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "pulse: forward_behind trapped" in out
        assert "static: forward_behind crossed" in out
        assert (tmp_path / "trapping_pulse.csv").exists()
        assert (tmp_path / "trapping_static.csv").exists()

    def test_trapping_without_a_horizon(self, tmp_path, capsys):
        # 9e6 m/s outruns both plateau speeds, 3.90e6 and 3.51e6 m/s.
        path = write_variant(tmp_path / "fast.json", pulse__velocity=9.0e6)
        code = main(["reproduce", "trapping", "--config", str(path),
                     "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "horizon" in err

    def test_failed_command_leaves_no_directory(self, tmp_path):
        # The output directory is made by the first file written into it.
        path = write_variant(tmp_path / "fast.json", pulse__velocity=9.0e6)
        code = main(["reproduce", "trapping", "--config", str(path),
                     "--out", str(tmp_path / "made" / "here")])
        assert code == 1
        assert not (tmp_path / "made").exists()

    @pytest.mark.parametrize("target, names",
                             [("fig3", ["fig3_impedance.csv"]),
                              ("trapping", ["trapping_pulse.csv",
                                            "trapping_static.csv"])])
    def test_csv_text_is_percent_formatting(self, tmp_path, monkeypatch,
                                            target, names):
        calls = {}

        def recording(path, header, fmt, *columns):
            calls[Path(path).name] = reference_csv(header, fmt, *columns)
            real_write_csv(path, header, fmt, *columns)

        real_write_csv = cli.write_csv
        monkeypatch.setattr(cli, "write_csv", recording)
        assert main(["reproduce", target, "--out", str(tmp_path)]) == 0
        assert sorted(calls) == names
        for name in names:
            assert (tmp_path / name).read_bytes() == calls[name]

    def test_rejects_unknown_target(self):
        with pytest.raises(SystemExit):
            main(["reproduce", "fig9"])


class TestSweep:
    def write_sweep(self, path, values=(0.0, 0.1, 0.2)):
        spec = {"axes": [{"path": "pulse.dc_offset",
                          "values": list(values)}],
                "outputs": ["cell_speed", "horizon_count"]}
        path.write_text(json.dumps(spec))
        return path

    def test_grid_roundtrip(self, tmp_path, capsys):
        spec = self.write_sweep(tmp_path / "sweep.json")
        code = main(["sweep", "--config", str(spec), "--out", str(tmp_path)])
        assert code == 0
        assert "evaluated 3 points (0 failed)" in capsys.readouterr().out
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "pulse.dc_offset,cell_speed,horizon_count,error"
        assert len(lines) == 4

    def test_requires_config(self, capsys):
        assert main(["sweep"]) == 2
        assert "sweep" in capsys.readouterr().err

    def test_point_failures_are_not_fatal(self, tmp_path, capsys):
        spec = self.write_sweep(tmp_path / "sweep.json",
                                values=(0.0, 0.45))
        code = main(["sweep", "--config", str(spec), "--out", str(tmp_path)])
        assert code == 0
        assert "(1 failed)" in capsys.readouterr().out

    def test_bad_workers_flag(self, tmp_path, capsys):
        # Sweeps run serially; the former pool size flag is an argparse
        # error now, before any file is read or written.
        spec = self.write_sweep(tmp_path / "sweep.json")
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(spec), "--out", str(tmp_path),
                  "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_bad_emit_flag(self, tmp_path, capsys):
        spec = self.write_sweep(tmp_path / "sweep.json")
        code = main(["sweep", "--config", str(spec), "--out", str(tmp_path),
                     "--emit", "png"])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_arithmetic_error_is_recorded_per_point(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(
            {"axes": [{"path": "array.ground_capacitance",
                       "values": [5e-17, 1e-320]}],
             "outputs": ["cell_speed"]}))
        code = main(["sweep", "--config", str(path), "--out", str(tmp_path)])
        assert code == 0
        assert "evaluated 2 points (1 failed)" in capsys.readouterr().out
        with open(tmp_path / "sweep.csv", newline="") as fh:
            header, good, bad = csv.reader(fh)
        assert header[-1] == "error"
        assert good[-1] == ""
        assert bad[-1].startswith("NonFinite:")

    def test_sweep_file_is_a_directory(self, tmp_path, capsys):
        code = main(["sweep", "--config", str(tmp_path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_non_string_axis_path(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"axes": [{"path": 3, "values": [1]}],
                                    "outputs": ["cell_speed"]}))
        code = main(["sweep", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("emit", ["", "svg"], ids=["none", "svg"])
@pytest.mark.parametrize("argv", [
    ["profile"], ["simulate"], ["dispersion"], ["budget"],
    ["reproduce", "fig2"], ["reproduce", "fig3"], ["reproduce", "trapping"]],
    ids=lambda argv: "-".join(argv))
def test_every_written_file_is_announced(tmp_path, capsys, argv, emit):
    if argv == ["simulate"]:
        small = write_variant(tmp_path / "small.json", array__n_cells=600,
                              solver__n_steps=400, solver__record_every=100)
        argv = argv + ["--config", str(small)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out), "--emit", emit]) == 0
    wrote = [line[len("wrote "):]
             for line in capsys.readouterr().out.splitlines()
             if line.startswith("wrote ")]
    # A command that writes nothing leaves no directory behind.
    assert out.exists() == bool(wrote)
    assert sorted(wrote) == sorted(str(path) for path in
                                   (out.iterdir() if wrote else ()))
    # The trapping study has no SVG.
    assert {Path(path).suffix for path in wrote} == \
        ({".svg"} if emit and argv[:2] != ["reproduce", "trapping"] else set())


VANISHING_CELL_SPEED = {"junction__critical_current": 1.27e-228,
                        "squid__loop_inductance": 1e150,
                        "array__ground_capacitance": 1.98e117,
                        "array__cell_length": 5.2e-279}


class TestArithmeticLimits:
    @pytest.mark.parametrize("command", ["validate", "profile", "budget",
                                         "dispersion"])
    def test_underflowing_capacitance_is_an_error(self, tmp_path, capsys,
                                                  command):
        # L*C0 underflows to zero, so the cell speed and the line impedance
        # are infinite: an error line, not a traceback, a numpy warning or
        # a "no black horizon" verdict.
        cfg = write_variant(tmp_path / "c.json",
                            array__ground_capacitance=1e-320)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", str(cfg),
                         "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "not finite" in err

    @pytest.mark.parametrize("command, changes, message", [
        # 2*C_J*Phi_0 underflows to zero: the plasma frequency was a
        # ZeroDivisionError.
        pytest.param("validate", {
            "junction__critical_current": 5e-324,
            "junction__capacitance": 5e-324, "squid__loop_inductance": 0.0,
            "array__ground_capacitance": 5e-324, "array__cell_length": 5e-324,
            "pulse__steepness": 5e-324},
            "plasma frequency is zero or not finite",
            id="subnormal-capacitances"),
        # L*C0 overflows and a/sqrt(L*C0) underflows to zero: the pulse
        # speed ratio was a ZeroDivisionError, the profile's L*C0 overflowed
        # with a warning, and the budget's profile speeds were all zero, a
        # line without a horizon.
        pytest.param("validate", VANISHING_CELL_SPEED,
                     "cell speed a/sqrt(L*C0) is zero or not finite",
                     id="vanishing-cell-speed"),
        pytest.param("profile", VANISHING_CELL_SPEED,
                     "cell speed a/sqrt(L*C0) is zero or not finite",
                     id="profile-vanishing-cell-speed"),
        pytest.param("budget", VANISHING_CELL_SPEED,
                     "cell speed a/sqrt(L*C0) is zero or not finite",
                     id="budget-vanishing-cell-speed"),
        # The cell pitch is below the float spacing at the front, so the
        # comoving grid collapses onto one float beside it and the front's
        # window is empty: the scan was a ZeroDivisionError.
        pytest.param("budget", {"pulse__front_position": 1e20},
                     "no black horizon at t = 0.000e+00 s",
                     id="budget-collapsed-grid"),
        # The phase slope per cell over a cell length of 5e-324 m
        # overflows.
        pytest.param("dispersion", {"array__cell_length": 5e-324},
                     "wavenumber k is zero or not finite",
                     id="dispersion-subnormal-cell-length")])
    def test_validate_arithmetic_limits_are_errors(self, tmp_path, capsys,
                                                   command, changes,
                                                   message):
        cfg = write_variant(tmp_path / "c.json", **changes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", str(cfg),
                         "--out", str(tmp_path), "--emit", ""])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: " + message)
        assert err.count("\n") == 1

    @pytest.mark.parametrize("cell_length", [1e-200, 1e-300])
    def test_tiny_cell_length_measures_the_default_curve(
            self, tmp_path, capsys, cell_length):
        # The phase is fitted on cell indices: on positions in metres their
        # squares underflowed and the least-squares fit failed.  k a, and so
        # every relative error, is the default's.
        cfg = write_variant(tmp_path / "c.json",
                            array__cell_length=cell_length)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["dispersion", "--config", str(cfg),
                         "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert captured.out.startswith(
            "measured 7 points, worst relative error 4.737e-03\n")

    @staticmethod
    def small_line_outputs(out, command, **changes):
        """stdout and the bytes of every file command writes into out on a
        600-cell, 400-step line."""
        cfg = write_variant(out.with_suffix(".json"), array__n_cells=600,
                            solver__n_steps=400, **changes)
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = main(command + ["--config", str(cfg), "--out", str(out),
                                   "--emit", "csv,svg,bin"])
        assert code == 0
        files = {path.name: path.read_bytes() for path in out.iterdir()}
        return printed.getvalue().replace(str(out), "<out>"), files

    @pytest.mark.parametrize("capacitance", [1e300, 5e-324])
    @pytest.mark.parametrize("command", [["simulate"], ["dispersion"],
                                         ["reproduce", "trapping"]],
                             ids=["simulate", "dispersion", "trapping"])
    def test_junction_capacitance_does_not_enter_the_ladder(
            self, tmp_path, command, capacitance):
        # C_J enters only the plasma frequency, which the ladder equations
        # do not contain, so the lattice runs alike at any C_J, the ends of
        # the float range included.
        default = self.small_line_outputs(tmp_path / "default", command)
        assert default[1]
        assert self.small_line_outputs(
            tmp_path / "variant", command,
            junction__capacitance=capacitance) == default

    # Examples, cells and steps per command: the lattice commands run their
    # lines, and dispersion sizes its own, seven of them per example.
    LIMITS = {"validate": (150, 20_000, 2 ** 63 - 1),
              "profile": (150, 20_000, 2 ** 63 - 1),
              "budget": (150, 20_000, 2 ** 63 - 1),
              "simulate": (150, 2_000, 200),
              "dispersion": (25, 2_000, 200)}

    @pytest.mark.parametrize("command", LIMITS)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_valid_configs_exit_with_a_code(self, tmp_path, capsys, command):
        # Every accepted document ends in exit 0, 1 or 2 with no exception
        # escaping main, and a run that succeeds prints no NaN or infinity.
        # The one directory of the test is reused by every example.
        examples, max_cells, max_steps = self.LIMITS[command]

        @settings(derandomize=True, database=None, deadline=None,
                  max_examples=examples)
        @given(doc=valid_documents(max_cells=max_cells, max_steps=max_steps))
        def exits_with_a_code(doc):
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps(doc))
            code = main([command, "--config", str(cfg),
                         "--out", str(tmp_path / "out"), "--emit", ""])
            out = capsys.readouterr().out
            assert code in (0, 1, 2)
            if code == 0:
                assert not re.search(r"\b(nan|inf)\b", out, re.IGNORECASE)

        exits_with_a_code()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_valid_sweeps_record_typed_errors(self, tmp_path, capsys):
        # Every sweep over valid values exits 0, each failed point records a
        # typed error or a ValueError, and no output cell reads NaN or
        # infinity.  On random devices every point fails, so half the bases
        # are the reference device with the pulse at 0.9 to 1 of its cell
        # speed, above the speed under the front's crest, where some points
        # reach the photon budget.
        typed = {name for name, value in vars(errors).items()
                 if isinstance(value, type)} | {"ValueError"}
        default = config.config_to_dict(config.default_config())
        axes = [(section, key) for section in ("pulse", "array")
                for key in default[section]]
        documents = valid_documents(max_cells=2_000, max_steps=200)

        @st.composite
        def sweeps(draw):
            if draw(st.booleans()):
                fraction = draw(st.floats(0.9, 1.0, exclude_max=True))
                base = dict(default, pulse=dict(
                    default["pulse"], velocity=fraction * REF_CELL_SPEED))
            else:
                base = draw(documents)
            paths = draw(st.lists(st.sampled_from(axes), min_size=1,
                                  max_size=2, unique=True))
            return {"base": base,
                    "axes": [{"path": "%s.%s" % path,
                              "values": [doc[path[0]][path[1]] for doc in
                                         draw(st.lists(documents, min_size=1,
                                                       max_size=2))]}
                             for path in paths],
                    "outputs": list(draw(st.permutations(
                        experiments._SWEEP_OUTPUTS)))}

        @settings(derandomize=True, database=None, deadline=None,
                  max_examples=100)
        @given(doc=sweeps())
        def records_typed_errors(doc):
            spec = tmp_path / "sweep.json"
            spec.write_text(json.dumps(doc))
            code = main(["sweep", "--config", str(spec),
                         "--out", str(tmp_path / "out")])
            capsys.readouterr()
            assert code == 0
            with open(tmp_path / "out" / "sweep.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            for row in rows:
                assert row["error"].partition(":")[0] in typed | {""}
                for name in doc["outputs"]:
                    assert math.isfinite(float(row[name] or 0.0))

        records_typed_errors()


class TestEntryPoint:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "squid_horizon.cli", "validate",
             "--out", str(tmp_path)],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert "pass" in proc.stdout


# Run every subcommand in a fresh interpreter where any scipy import fails,
# so importing the CLI and refining horizons must not need scipy.  Each run
# writes to its own directory under the first argument.
COLD_START = """
import json, sys
sys.modules["scipy"] = None  # makes any scipy import raise ImportError
from squid_horizon import cli
out, small, sweep = sys.argv[1], sys.argv[2], sys.argv[3]
runs = {"validate": ["validate"], "fig3": ["reproduce", "fig3"],
        "simulate": ["simulate", "--config", small], "profile": ["profile"],
        "budget": ["budget"], "fig2": ["reproduce", "fig2"],
        "trapping": ["reproduce", "trapping"],
        "sweep": ["sweep", "--config", sweep]}
print(json.dumps([cli.main(argv + ["--out", out + "/" + name])
                  for name, argv in runs.items()]))
"""


class TestColdStart:
    def test_no_scipy_at_run_time(self, tmp_path):
        data = config.config_to_dict(config.default_config())
        data["array"]["n_cells"] = 200
        data["solver"].update(n_steps=100, record_every=50)
        small = tmp_path / "small.json"
        small.write_text(json.dumps(data))
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({
            "axes": [{"path": "pulse.amplitude", "values": [0.1, 0.2]}],
            "outputs": ["horizon_count", "photon_count"]}))
        proc = subprocess.run(
            [sys.executable, "-c", COLD_START, str(tmp_path / "child"),
             str(small), str(sweep)],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [0] * 8
        assert main(["profile", "--out", str(tmp_path / "here")]) == 0
        assert (tmp_path / "child" / "profile" / "profile.csv").read_bytes() \
            == (tmp_path / "here" / "profile.csv").read_bytes()
