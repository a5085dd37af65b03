"""What the benchmark under perfbench/ relies on in the package.

perfbench/selftest.py checks these as well, but only in CI; here a change
that breaks them fails the Tier-1 suite.  The tests read perfbench/ and
change nothing in it.
"""

import importlib.util
import sys
import types
from pathlib import Path

import pytest

import squid_horizon as sh
from squid_horizon import cli, config, experiments, lattice

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_expected_function():
    # Each name in tracer.EXPECTED is a public function defined in its own
    # module; a missing one would read 0 in every per-layer metric.
    assert load_tracer().Tracer().absent == ()


def test_pulse_speed_reads_three_fields(ref_squid):
    # perfbench/oracles.py::check_simulate rebuilds the energy density from
    # the dumps and passes only these three fields.
    arr = sh.ArrayParams(n_cells=200, cell_length=2.5e-7,
                         ground_capacitance=5.0e-17)
    uniform = sh.FluxPulse(amplitude=0.0)
    dt = lattice.stable_timestep(arr, ref_squid, uniform)
    packet = lattice.gaussian_packet(arr, ref_squid, uniform,
                                     center=50 * arr.cell_length,
                                     sigma=6 * arr.cell_length,
                                     carrier_ka=0.2, amplitude=1e-6, dt=dt)
    traj = lattice.run(packet, arr, ref_squid, uniform,
                       lattice.SolverConfig(n_steps=400, dt=dt,
                                            record_every=50))
    bare = types.SimpleNamespace(energy_density=traj.energy_density,
                                 times=traj.times, positions=traj.positions)
    speed = lattice.measure_pulse_speed(bare)
    assert speed > 0.0
    assert speed == lattice.measure_pulse_speed(traj)


@pytest.mark.parametrize("name", ["simulate-front", "dispersion-drive",
                                  "sweep-grid"])
def test_workload_inputs_are_accepted(tmp_path, monkeypatch, name):
    # Every key, flag and axis path the benchmark writes must still parse;
    # a dropped one would fail each of its runs.
    workloads = load_workloads(monkeypatch)
    assert name in workloads.WORKLOADS
    workload = workloads.generate(name, 5, tmp_path, workloads.TINY)
    args = cli._build_parser().parse_args(
        list(workload.argv) + ["--out", str(tmp_path / "out")])
    if args.command == "sweep":
        spec = experiments.load_sweep(args.config)
        for path, values in spec.axes:
            config.apply_override(spec.base, {path: values[0]})
        cli._apply_flags(spec.base, args)
    else:
        cli._apply_flags(config.load_config(args.config), args)


@pytest.mark.parametrize("name, expected", [
    ("simulate-front", {"lattice.run.calls": 1,
                        "lattice.run.cell_steps": 1600 * 1000}),
    ("dispersion-drive", {"dispersion.points": 7}),
])
def test_traced_workload_counts(tmp_path, monkeypatch, capsys, name,
                                expected):
    # A capture that meets a changed signature is skipped and its metrics
    # read 0, so a new argument layout of lattice.run or
    # measure_dispersion would otherwise zero these counts silently.
    tracer_module = load_tracer()
    workloads = load_workloads(monkeypatch)
    workload = workloads.generate(name, 5, tmp_path, workloads.TINY)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        code = cli.main(list(workload.argv)
                        + ["--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0
    metrics = tracer_module.layer_metrics(tracer.take())
    assert {key: metrics[key] for key in expected} == expected
