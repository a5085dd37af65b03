"""What the benchmark under perfbench/ relies on in the package.

perfbench/selftest.py checks these as well, but only in CI; here a change
that breaks them fails the Tier-1 suite.  The tests read perfbench/ and
change nothing in it.
"""

import importlib.util
import types
from pathlib import Path

import squid_horizon as sh
from squid_horizon import lattice

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
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
