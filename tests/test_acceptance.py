"""Acceptance gate for the toolkit.

Each test covers one numbered criterion, prints exactly one pass/fail
line, and enforces the stated runtime budget.  The criteria pin the
reference device (2 uA junctions at a 1 THz plasma frequency, 50 aF
ground capacitance, 0.25 um pitch) against closed-form scales, the
lattice solver against independent oracles, and the emission budget
against its design targets.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy.constants import c as LIGHT_SPEED

from squid_horizon import (bias, circuit, config, dispersion, experiments,
                           geometry, lattice)
from squid_horizon.constants import FLUX_QUANTUM as PHI0


CRITICAL_CURRENT = 2.0e-6
PLASMA_OMEGA = 2.0 * math.pi * 1.0e12
JUNCTION_CAPACITANCE = 2.0 * math.pi * CRITICAL_CURRENT / (
    PHI0 * PLASMA_OMEGA ** 2)
LOOP_INDUCTANCE = 1.0e-11
CELL_LENGTH = 2.5e-7
GROUND_CAPACITANCE = 5.0e-17
N_CELLS = 4800

JUNCTION = circuit.JunctionParams(critical_current=CRITICAL_CURRENT,
                                  capacitance=JUNCTION_CAPACITANCE)
SQUID = circuit.SquidParams(junction=JUNCTION,
                            loop_inductance=LOOP_INDUCTANCE)


def make_array(n_cells=N_CELLS):
    return circuit.ArrayParams(n_cells=n_cells, cell_length=CELL_LENGTH,
                               ground_capacitance=GROUND_CAPACITANCE)


def cell_speed():
    return circuit.cell_velocity(make_array(16), SQUID, 0.0)


def gradient_cap():
    """Horizon speed-gradient target: a tenth of the zero-flux plasma rate."""
    return circuit.effective_plasma_frequency(SQUID, 0.0) / (2.0 * math.pi *
                                                             10.0)


def reference_pulse():
    """0.2 flux-quantum tanh front at 0.95 of the line speed, steepness set
    so the horizon speed gradient equals the cap."""
    u = 0.95 * cell_speed()
    s0 = geometry.steepness_for_gradient_cap(make_array(), SQUID, 0.2, 0.0,
                                             u, gradient_cap())
    return bias.FluxPulse(amplitude=0.2, velocity=u, steepness=s0)


class _Criterion:
    """Collects named sub-checks and emits one summary line."""

    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget = budget_s
        self.failures = []
        self.started = time.perf_counter()

    def check(self, ok, message):
        if not ok:
            self.failures.append(message)

    def conclude(self):
        elapsed = time.perf_counter() - self.started
        self.check(elapsed < self.budget,
                   "runtime %.2f s over the %.0f s budget"
                   % (elapsed, self.budget))
        status = "PASS" if not self.failures else "FAIL"
        print("criterion %02d %-22s %s" % (self.number, self.label, status))
        assert not self.failures, "; ".join(self.failures)


def test_01_velocity_scale():
    crit = _Criterion(1, "velocity-scale", 1.0)
    ratio = LIGHT_SPEED / cell_speed()
    crit.check(60.0 <= ratio <= 120.0,
               "light-speed ratio %.1f outside [60, 120]" % ratio)
    crit.conclude()


def test_02_horizon_temperature():
    crit = _Criterion(2, "horizon-temperature", 1.0)
    profile = geometry.velocity_profile(make_array(), SQUID,
                                        reference_pulse(), 0.0)
    temperature = geometry.hawking_temperature(
        geometry.emitting_horizon(geometry.find_horizons(profile)))
    crit.check(abs(temperature - 0.121) <= 0.002,
               "temperature %.4f K outside 121 +/- 2 mK" % temperature)
    crit.conclude()


def test_03_photon_budget():
    crit = _Criterion(3, "photon-budget", 10.0)
    pulse = reference_pulse()
    array = make_array()
    rate = bias.calibrate_broadening(pulse, array, SQUID,
                                     target_decay=0.1, n_cells=1000)
    widened = dataclasses.replace(pulse, broadening=rate)
    budget = geometry.photons_per_pulse(array, SQUID, widened,
                                        line_length_cells=N_CELLS)
    crit.check(0.7 <= budget.expected_count <= 1.3,
               "count %.3f outside [0.7, 1.3]" % budget.expected_count)
    crit.conclude()


def test_04_impedance_intercepts():
    crit = _Criterion(4, "impedance-intercepts", 1.0)
    result = experiments.reproduce_fig3(
        config.apply_override(config.default_config(), {"output.emit": []}))
    targets = (0.624, 0.883, 1.974, 2.791)
    for target, intercept in zip(targets, result.intercepts):
        crit.check(abs(intercept / target - 1.0) <= 0.01,
                   "zero-flux intercept %.4f not within 1%% of %.3f"
                   % (intercept, target))
    for row in result.ratios:
        crit.check(bool(np.all(np.diff(row) > 0.0)),
                   "impedance curve not monotone in flux")
        crit.check(row[-1] / row[0] > 5.0,
                   "curve does not diverge toward the half-quantum pole")
    crit.conclude()


def test_05_front_horizon():
    crit = _Criterion(5, "front-horizon", 1.0)
    result = experiments.reproduce_fig2(
        config.apply_override(config.default_config(), {"output.emit": []}))
    profile = geometry.velocity_profile(make_array(), SQUID,
                                        reference_pulse(), 0.0)
    horizons = geometry.find_horizons(profile)
    crit.check(len(horizons) == 1,
               "expected a single horizon, found %d" % len(horizons))
    crit.check(abs(result.horizon_flux_fraction - 0.1412) <= 0.002,
               "horizon flux %.4f outside 0.1412 +/- 0.002"
               % result.horizon_flux_fraction)
    crit.check(abs(result.plateau_ratio - 0.8995) <= 1.0e-3,
               "plateau speed ratio %.5f outside 0.8995 +/- 0.001"
               % result.plateau_ratio)
    crit.conclude()


@pytest.mark.parametrize("flux_fraction", [0.0, 0.2])
def test_06_packet_speed(flux_fraction):
    crit = _Criterion(6, "packet-speed", 60.0)
    n = 4200
    array = make_array(n)
    level = bias.FluxPulse(amplitude=0.0, dc_offset=flux_fraction)
    dt = lattice.stable_timestep(array, SQUID, level)
    packet = lattice.gaussian_packet(array, SQUID, level,
                                     center=1000 * CELL_LENGTH,
                                     sigma=20 * CELL_LENGTH,
                                     carrier_ka=0.1, amplitude=1e-6, dt=dt)
    expected = cell_speed() * math.sqrt(math.cos(math.pi * flux_fraction))
    steps = int(round(2000 * CELL_LENGTH / expected / dt))
    trajectory = lattice.run(packet, array, SQUID, level,
                             lattice.SolverConfig(n_steps=steps, dt=dt,
                                                  record_every=steps // 24))
    speed = lattice.measure_pulse_speed(trajectory)
    crit.check(abs(speed / expected - 1.0) <= 0.01,
               "flux %.1f: speed %.4e not within 1%% of %.4e"
               % (flux_fraction, speed, expected))
    crit.conclude()


def test_07_dispersion_fit():
    crit = _Criterion(7, "dispersion-fit", 300.0)
    inductance = circuit.josephson_inductance(SQUID, 0.0)
    omega_max = 2.0 / math.sqrt(inductance * GROUND_CAPACITANCE)
    narrow = (0.1, 0.2, 0.3)
    frequencies = [omega_max * math.sin(0.5 * ka) for ka in narrow + (2.0,)]
    curve = dispersion.measure_dispersion(make_array(16), SQUID, 0.0,
                                          frequencies)
    ka = curve.wavenumbers * CELL_LENGTH
    for target in narrow:
        idx = int(np.argmin(np.abs(ka - target)))
        crit.check(curve.relative_errors[idx] <= 0.01,
                   "ka = %.1f error %.2e above 1%%"
                   % (target, curve.relative_errors[idx]))
    idx = int(np.argmin(np.abs(ka - 2.0)))
    crit.check(abs(ka[idx] - 2.0) < 0.05,
               "no measured point near ka = 2 (got %.3f)" % ka[idx])
    crit.check(curve.relative_errors[idx] <= 0.02,
               "ka = 2 error %.2e above 2%%" % curve.relative_errors[idx])
    crit.conclude()


def test_08_step_reflection():
    crit = _Criterion(8, "step-reflection", 60.0)
    n = 1000
    array = make_array(n)
    interface = 500 * CELL_LENGTH
    step = bias.FluxPulse(amplitude=0.2, velocity=0.0, steepness=1e9,
                          front_position=interface)
    dt = lattice.stable_timestep(array, SQUID, step)
    packet = lattice.gaussian_packet(array, SQUID, step,
                                     center=700 * CELL_LENGTH,
                                     sigma=20 * CELL_LENGTH, carrier_ka=0.1,
                                     amplitude=1e-6, dt=dt, direction=-1)
    steps = int(round(450 * CELL_LENGTH / cell_speed() / dt))
    trajectory = lattice.run(packet, array, SQUID, step,
                             lattice.SolverConfig(n_steps=steps, dt=dt,
                                                  record_every=steps))
    density = trajectory.energy_density[-1]
    reflected = density[trajectory.positions > interface].sum()
    measured = math.sqrt(reflected / density.sum())
    z_ratio = 1.0 / math.sqrt(math.cos(0.2 * math.pi))
    analytic = (z_ratio - 1.0) / (z_ratio + 1.0)
    crit.check(abs(measured / analytic - 1.0) <= 0.02,
               "reflection %.5f not within 2%% of %.5f"
               % (measured, analytic))
    crit.conclude()


def test_09_model_reduction():
    crit = _Criterion(9, "model-reduction", 30.0)
    beta = 0.01
    loop = beta * PHI0 / (2.0 * math.pi * CRITICAL_CURRENT)
    squid = circuit.SquidParams(junction=JUNCTION, loop_inductance=loop)
    flux = 0.2 * PHI0
    amp = 5.0e-4

    # initial circulating phase at its flux-pinned equilibrium
    circulating = math.pi * 0.2
    for _ in range(80):
        circulating = math.pi * 0.2 - 0.5 * beta * math.sin(circulating)

    omega_ps = circuit.effective_plasma_frequency(squid, flux)
    dt = 0.02 / PLASMA_OMEGA
    n_steps = int(round(100.0 * 2.0 * math.pi / omega_ps / dt))
    full = circuit.single_squid_dynamics(
        squid, 0.0, flux,
        circuit.SquidState(common_phase=amp, circulating_phase=circulating),
        dt=dt, n_steps=n_steps)
    reduced = circuit.reduced_junction_dynamics(
        squid, 0.0, flux, initial_phase=amp, initial_rate=0.0,
        dt=dt, n_steps=n_steps)
    divergence = float(np.max(np.abs(full.common_phase - reduced.phase)))
    crit.check(divergence < 1.0e-3,
               "trajectories diverge by %.2e rad over 100 periods"
               % divergence)
    crit.conclude()


def test_10_conservation_suite(tmp_path):
    crit = _Criterion(10, "conservation-suite", 300.0)
    uniform = bias.FluxPulse(amplitude=0.0)

    # energy drift on a static-inductance line over 1e4 steps
    array = make_array(1000)
    dt = lattice.stable_timestep(array, SQUID, uniform)
    packet = lattice.gaussian_packet(array, SQUID, uniform,
                                     center=500 * CELL_LENGTH,
                                     sigma=20 * CELL_LENGTH, carrier_ka=0.1,
                                     amplitude=1e-6, dt=dt)
    trajectory = lattice.run(packet, array, SQUID, uniform,
                             lattice.SolverConfig(n_steps=10000, dt=dt,
                                                  record_every=500))
    crit.check(trajectory.energy_drift < 1.0e-6,
               "energy drift %.2e over 1e4 steps" % trajectory.energy_drift)

    # linear superposition of two counter-propagating packets
    array = make_array(800)
    dt = lattice.stable_timestep(array, SQUID, uniform)
    first = lattice.gaussian_packet(array, SQUID, uniform,
                                    center=200 * CELL_LENGTH,
                                    sigma=15 * CELL_LENGTH, carrier_ka=0.1,
                                    amplitude=1e-6, dt=dt)
    second = lattice.gaussian_packet(array, SQUID, uniform,
                                     center=600 * CELL_LENGTH,
                                     sigma=15 * CELL_LENGTH, carrier_ka=0.2,
                                     amplitude=2e-6, dt=dt, direction=-1)
    combined = lattice.LatticeState(0.0,
                                    first.potential + second.potential,
                                    first.momentum + second.momentum)
    solver = lattice.SolverConfig(n_steps=1500, dt=dt, record_every=1500)
    runs = [lattice.run(s, array, SQUID, uniform, solver)
            for s in (first, second, combined)]
    residual = np.max(np.abs(runs[2].final_state.potential -
                             runs[0].final_state.potential -
                             runs[1].final_state.potential))
    scale = np.max(np.abs(runs[2].final_state.potential))
    crit.check(residual / scale < 1.0e-12,
               "superposition residual %.2e" % (residual / scale))

    # second-order convergence under timestep halving
    array = make_array(600)
    base_dt = lattice.stable_timestep(array, SQUID, uniform)
    finals = []
    for k in range(3):
        dtk = base_dt / 2 ** k
        pk = lattice.gaussian_packet(array, SQUID, uniform,
                                     center=200 * CELL_LENGTH,
                                     sigma=15 * CELL_LENGTH, carrier_ka=0.3,
                                     amplitude=1e-6, dt=dtk)
        run = lattice.run(pk, array, SQUID, uniform,
                          lattice.SolverConfig(n_steps=800 * 2 ** k, dt=dtk,
                                               record_every=800 * 2 ** k))
        finals.append(run.final_state.potential.copy())
    order = math.log2(np.max(np.abs(finals[0] - finals[1])) /
                      np.max(np.abs(finals[1] - finals[2])))
    crit.check(order >= 1.9, "convergence order %.2f below 1.9" % order)

    # inverse-metric determinant identity det = -1/c^2
    profile = geometry.velocity_profile(make_array(), SQUID,
                                        reference_pulse(), 0.0)
    worst = 0.0
    for xi in np.linspace(-6e-6, 6e-6, 41):
        det = geometry.effective_metric(profile, xi).determinant
        speed = profile.speed_at(xi)
        worst = max(worst, abs(det * speed * speed + 1.0))
    crit.check(worst < 1.0e-12,
               "metric determinant identity violated by %.2e" % worst)

    # two runs of one sweep write identical bytes, rows in row-major order
    offsets, capacitances = (0.0, 0.1, 0.2, 0.3), (5e-17, 1e-17)
    spec = experiments.SweepSpec(
        base=config.default_config(),
        axes=(("pulse.dc_offset", offsets),
              ("array.ground_capacitance", capacitances)),
        outputs=("cell_speed", "impedance_ratio"))
    paths = []
    for run in (1, 2):
        path = tmp_path / ("sweep_%d.csv" % run)
        experiments.write_sweep_csv(path, experiments.run_sweep(spec))
        paths.append(path.read_bytes())
    crit.check(paths[0] == paths[1], "repeated sweep wrote different bytes")
    rows = [line.split(",")[:2]
            for line in paths[0].decode().splitlines()[1:]]
    crit.check(rows == [["%.12e" % f, "%.12e" % c]
                        for f in offsets for c in capacitances],
               "sweep rows are not in row-major grid order")
    crit.conclude()


def test_11_horizon_trapping():
    crit = _Criterion(11, "horizon-trapping", 300.0)
    report = experiments.wavepacket_trapping(config.default_config())
    outcomes = {o.name: o for o in report.outcomes}
    behind = outcomes["forward_behind"]
    ahead = outcomes["backward_ahead"]
    crit.check(not behind.crossed,
               "packet behind the horizon escaped within the window")
    crit.check(ahead.crossed,
               "permitted-direction packet failed to cross")
    crit.conclude()
