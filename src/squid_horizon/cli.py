"""Command-line entry point.

Subcommands cover the validity audit, the geometric horizon summary, a
lattice demonstration run, the dispersion measurement, the emission
budget, the canned reference studies, and the sweep engine.  Exit codes:
0 success, 1 failed validation or runtime error, 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import (circuit, config, dispersion, experiments, geometry, lattice,
               svgplot)
from ._csv import write_csv
from .constants import FLUX_QUANTUM
from .errors import ConfigError, SquidHorizonError

__all__ = ["main"]

# Demonstration probe for `simulate`: a rightward Gaussian packet launched
# a quarter of the way along the line.
_SIM_SIGMA_CELLS = 20
_SIM_CARRIER_KA = 0.1
_SIM_AMPLITUDE = 1.0e-6

# Band positions sampled by `dispersion`, as k a values.
_DISPERSION_KA = (0.1, 0.2, 0.3, 0.5, 1.0, 1.5, 2.0)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="configuration file (JSON); defaults to the "
                             "shipped reference device")
    common.add_argument("--out", metavar="DIR",
                        help="output directory (overrides the configuration "
                             "and SQUID_HORIZON_OUT)")
    common.add_argument("--emit", metavar="FLAGS",
                        help="comma-separated output formats: csv,svg,bin")

    parser = argparse.ArgumentParser(
        prog="squid-horizon",
        description="Analogue-horizon toolkit for flux-biased SQUID lines")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[common],
                   help="audit the configuration against model limits")
    sub.add_parser("profile", parents=[common],
                   help="velocity profile, horizons and temperature")
    sub.add_parser("simulate", parents=[common],
                   help="lattice run with a demonstration packet")
    sub.add_parser("dispersion", parents=[common],
                   help="measured versus analytic dispersion")
    sub.add_parser("budget", parents=[common],
                   help="temperature and photon budget")
    repro = sub.add_parser("reproduce", parents=[common],
                           help="regenerate a bundled reference study")
    repro.add_argument("target",
                       choices=("fig2", "fig3", "budget", "trapping"))
    sub.add_parser("sweep", parents=[common],
                   help="evaluate a parameter grid from a sweep file")
    return parser


def _apply_flags(cfg: config.RunConfig, args) -> config.RunConfig:
    if args.emit is not None:
        flags = [f for f in args.emit.split(",") if f]
        cfg = config.apply_override(cfg, {"output.emit": flags})
    return cfg


def _load_config(args) -> config.RunConfig:
    if args.config is not None:
        cfg = config.load_config(args.config)
    else:
        cfg = config.default_config()
    return _apply_flags(cfg, args)


def _out_dir(args, cfg: config.RunConfig) -> Path:
    """The output directory; the first file written there creates it."""
    return Path(args.out or cfg.output.directory or
                os.environ.get("SQUID_HORIZON_OUT") or ".")


def _write(out: Path, emit, flag: str, name: str, writer, *args,
           **kwargs) -> None:
    """Write out/name with writer(path, *args, **kwargs) and announce it,
    when flag is among the emitted formats."""
    if flag in emit:
        path = out / name
        out.mkdir(parents=True, exist_ok=True)
        writer(path, *args, **kwargs)
        print("wrote %s" % path)


def _cmd_validate(args) -> int:
    cfg = _load_config(args)
    report = circuit.validity_report(cfg.array, cfg.squid, cfg.pulse,
                                     cfg.max_signal_frequency)
    out = _out_dir(args, cfg)
    print("%-12s %12s %12s  %s" % ("check", "value", "threshold", "status"))
    for check in report.checks:
        print("%-12s %12.5g %12.5g  %s"
              % (check.name, check.value, check.threshold,
                 "pass" if check.passed else "FAIL"))
    # Strict JSON has no Infinity or NaN: such a value is written as null.
    payload = {
        "overall_pass": report.overall_pass,
        "checks": [{"name": c.name,
                    "value": c.value if math.isfinite(c.value) else None,
                    "threshold": c.threshold, "passed": c.passed}
                   for c in report.checks],
    }
    path = out / "validity.json"
    out.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               allow_nan=False) + "\n")
    print("wrote %s" % path)
    if not report.overall_pass:
        print("validation FAILED", file=sys.stderr)
        return 1
    return 0


def _cmd_profile(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    c_ahead = circuit.cell_velocity(
        cfg.array, cfg.squid,
        cfg.pulse.dc_offset * FLUX_QUANTUM)
    profile = geometry.velocity_profile(cfg.array, cfg.squid, cfg.pulse, 0.0)
    horizons = geometry.find_horizons(profile)
    print("flow speed u = %.6e m/s, c ahead of front = %.6e m/s"
          % (profile.flow_speed, c_ahead))
    if not horizons:
        print("no horizons found")
    for h in horizons:
        line = "%s horizon at xi = %.6e m, |dc/dxi| = %.6e 1/s" \
            % (h.kind, h.position, abs(h.gradient))
        if h.kind == "black":
            temp = geometry.hawking_temperature(h)
            line += ", T_H = %.6e K" % temp
        print(line)

    emit = cfg.output.emit
    _write(out, emit, "csv", "profile.csv", write_csv, "xi,c,u",
           "%.12e,%.12e,%.12e", profile.positions, profile.speed,
           [profile.flow_speed] * len(profile.speed))
    _write(out, emit, "svg", "profile.svg", svgplot.line_plot,
           [(profile.positions, profile.speed, "c(xi)"),
            (profile.positions,
             np.full_like(profile.positions, profile.flow_speed), "u")],
           title="Propagation speed against the flow",
           xlabel="xi (m)", ylabel="speed (m/s)",
           vlines=[(h.position, h.kind) for h in horizons])
    return 0


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    array, squid, pulse, solver = cfg.array, cfg.squid, cfg.pulse, cfg.solver
    dt = solver.dt if solver.dt is not None else \
        lattice.stable_timestep(array, squid, pulse, solver.courant_fraction)
    solver = dataclasses.replace(solver, dt=dt)
    center = 0.25 * array.n_cells * array.cell_length
    state = lattice.gaussian_packet(array, squid, pulse, center,
                                    _SIM_SIGMA_CELLS * array.cell_length,
                                    _SIM_CARRIER_KA, _SIM_AMPLITUDE, dt)
    trajectory = lattice.run(state, array, squid, pulse, solver)
    print("ran %d steps of %d cells, dt = %.6e s, boundary = %s"
          % (solver.n_steps, array.n_cells, dt, solver.boundary))
    print("energy drift = %.3e" % trajectory.energy_drift)

    emit = cfg.output.emit
    _write(out, emit, "csv", "trajectory.csv", lattice.write_trajectory_csv,
           trajectory)
    _write(out, emit, "bin", "trajectory.sqhz",
           lattice.write_trajectory_binary, trajectory)
    _write(out, emit, "svg", "trajectory.svg", svgplot.line_plot,
           [(trajectory.positions, trajectory.potentials[-1], "final"),
            (trajectory.positions, trajectory.potentials[0], "initial")],
           title="Node potential before and after",
           xlabel="x (m)", ylabel="A (V)")
    return 0


def _cmd_dispersion(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    flux_dc = cfg.pulse.dc_offset * FLUX_QUANTUM
    omega_max = 2.0 / circuit.cell_time(cfg.array, cfg.squid, flux_dc)
    freqs = [omega_max * math.sin(0.5 * ka) for ka in _DISPERSION_KA]
    curve = dispersion.measure_dispersion(cfg.array, cfg.squid, flux_dc,
                                          freqs)
    worst = float(np.max(curve.relative_errors))
    print("measured %d points, worst relative error %.3e" % (len(curve),
                                                             worst))

    emit = cfg.output.emit
    _write(out, emit, "csv", "dispersion.csv",
           dispersion.write_dispersion_csv, curve)
    k_dense = np.linspace(0.0, math.pi / cfg.array.cell_length, 200)
    w_dense = dispersion.omega_analytic(k_dense, curve.cell_time,
                                        curve.cell_length)
    _write(out, emit, "svg", "dispersion.svg", svgplot.line_plot,
           [(k_dense, w_dense, "analytic"),
            (curve.wavenumbers, curve.omega_measured, "measured")],
           title="Lattice dispersion", xlabel="k (1/m)",
           ylabel="omega (rad/s)")
    return 0


def _cmd_budget(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    report = experiments.temperature_budget(cfg)
    print("initial T_H = %.6f K" % report.initial_temperature)
    print("T ratio after 1000 cells = %.6f" % report.temperature_ratio_1000)
    print("expected photons per traversal = %.6f" % report.photon_count)
    for name, ok in sorted(report.targets_met.items()):
        print("target %-12s %s" % (name, "met" if ok else "MISSED"))
    budget = report.budget
    emit = cfg.output.emit
    _write(out, emit, "csv", "budget_trace.csv", geometry.write_horizon_trace,
           budget)
    _write(out, emit, "svg", "budget_trace.svg", svgplot.line_plot,
           [(budget.times, budget.temperatures, "T_H (K)")],
           title="Horizon temperature along the traversal",
           xlabel="t (s)", ylabel="T_H (K)")
    return 0


def _cmd_reproduce(args) -> int:
    if args.target == "budget":
        return _cmd_budget(args)
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    emit = cfg.output.emit
    if args.target == "trapping":
        for scenario in ("pulse", "static"):
            report = experiments.wavepacket_trapping(cfg, scenario=scenario)
            for outcome in report.outcomes:
                when = ("" if outcome.crossing_time is None
                        else " at t = %.3e s" % outcome.crossing_time)
                print("%s: %s %s%s" % (scenario, outcome.name,
                                       outcome.verdict, when))
            traces = report.traces
            _write(out, emit, "csv", "trapping_%s.csv" % scenario, write_csv,
                   "packet,t,xi_offset", "%s,%.12e,%.12e",
                   [name for name, (times, _) in traces.items()
                    for _ in times],
                   np.concatenate([times for times, _ in traces.values()]),
                   np.concatenate([offs for _, offs in traces.values()]))
    elif args.target == "fig2":
        result = experiments.reproduce_fig2(cfg)
        print("plateau c/c0 = %.6f, u/c0 = %.6f" % (result.plateau_ratio,
                                                    result.flow_ratio))
        print("horizon at xi = %.6e m (flux %.6f of a quantum)"
              % (result.horizon_position, result.horizon_flux_fraction))
        rel, ratio = result.offsets, result.speed_ratios
        flow = result.flow_ratio
        _write(out, emit, "csv", "fig2_profile.csv", write_csv,
               "xi,c_over_c0,u_over_c0", "%.12e,%.12e,%.12e", rel, ratio,
               [flow] * len(rel))
        _write(out, emit, "svg", "fig2_profile.svg", svgplot.line_plot,
               [(rel, ratio, "c(xi)/c(0)"),
                (rel, np.full_like(rel, flow), "u/c(0)")],
               title="Speed profile across the moving front",
               xlabel="xi (m)", ylabel="speed / c(0)",
               vlines=[(result.horizon_position - cfg.pulse.front_position,
                        "horizon")])
    else:
        result = experiments.reproduce_fig3(cfg)
        for cap, icept in zip(result.capacitances, result.intercepts):
            print("C0 = %8.3g F: Z/R_Q at zero flux = %.4f" % (cap, icept))
        fractions, ratios = result.flux_fractions, result.ratios
        labels = ["%g aF" % (cap * 1e18) for cap in result.capacitances]
        _write(out, emit, "csv", "fig3_impedance.csv", write_csv,
               ",".join(["flux_fraction"] +
                        ["ratio_" + l.replace(" ", "") for l in labels]),
               ",".join(["%.12e"] * (1 + len(ratios))), fractions, *ratios)
        _write(out, emit, "svg", "fig3_impedance.svg", svgplot.line_plot,
               [(fractions, row, "C0 = " + label)
                for row, label in zip(ratios, labels)],
               title="Line impedance over the resistance quantum",
               xlabel="flux / flux quantum", ylabel="Z / R_Q")
    return 0


def _cmd_sweep(args) -> int:
    if not args.config:
        raise ConfigError("sweep needs --config pointing at a sweep file")
    spec = experiments.load_sweep(args.config)
    spec = dataclasses.replace(spec, base=_apply_flags(spec.base, args))
    result = experiments.run_sweep(spec)
    out = _out_dir(args, spec.base)
    path = out / "sweep.csv"
    out.mkdir(parents=True, exist_ok=True)
    experiments.write_sweep_csv(path, result)
    failures = sum(1 for p in result.points if p.error is not None)
    print("evaluated %d points (%d failed)" % (len(result.points), failures))
    print("wrote %s" % path)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "profile": _cmd_profile,
    "simulate": _cmd_simulate,
    "dispersion": _cmd_dispersion,
    "budget": _cmd_budget,
    "reproduce": _cmd_reproduce,
    "sweep": _cmd_sweep,
}


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ConfigError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (SquidHorizonError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
