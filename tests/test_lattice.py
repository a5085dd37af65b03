import dataclasses
import math
import warnings
from contextlib import nullcontext

import numpy as np
import pytest

import squid_horizon as sh
from squid_horizon import bias, circuit, errors, lattice
from squid_horizon.constants import FLUX_QUANTUM

from conftest import REF_CELL_SPEED

CELL_LENGTH = 2.5e-7
CELL_TIME = 6.413910453805204e-14


def make_array(n):
    return sh.ArrayParams(n_cells=n, cell_length=CELL_LENGTH,
                          ground_capacitance=5.0e-17)


@pytest.fixture
def uniform():
    return sh.FluxPulse(amplitude=0.0)


def assert_two_half_runs_match_one(squid, pulse, boundary):
    arr = make_array(128)
    rng = np.random.default_rng(11)
    state = lattice.LatticeState(0.0, rng.standard_normal(128) * 1e-6,
                                 rng.standard_normal(128) * 1e-27)
    dt = lattice.stable_timestep(arr, squid, pulse)
    whole, first = (
        lattice.run(state, arr, squid, pulse,
                    lattice.SolverConfig(n_steps=steps, dt=dt,
                                         boundary=boundary))
        for steps in (400, 200))
    second = lattice.run(first.final_state, arr, squid, pulse,
                         lattice.SolverConfig(n_steps=200, dt=dt,
                                              boundary=boundary))
    # one SI round trip of the momentum costs a couple of ulps
    scale = np.max(np.abs(whole.final_state.potential))
    np.testing.assert_allclose(second.final_state.potential,
                               whole.final_state.potential,
                               rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(second.final_state.momentum,
                               whole.final_state.momentum, rtol=1e-10)


def assert_mirror_symmetric_bitwise(squid, pulse, boundary):
    rng = np.random.default_rng(3)
    n = 128
    pot = rng.standard_normal(n)
    mom = rng.standard_normal(n)
    arr = make_array(n)
    cfg = lattice.SolverConfig(n_steps=500, boundary=boundary)
    fwd = lattice.run(lattice.LatticeState(0.0, pot, mom),
                      arr, squid, pulse, cfg)
    rev = lattice.run(lattice.LatticeState(0.0, pot[::-1].copy(),
                                           mom[::-1].copy()),
                      arr, squid, pulse, cfg)
    assert np.array_equal(rev.final_state.potential,
                          fwd.final_state.potential[::-1])


def assert_linear(squid, pulse, boundary):
    rng = np.random.default_rng(5)
    n = 128
    arr = make_array(n)
    cfg = lattice.SolverConfig(n_steps=500, boundary=boundary)
    p1, m1 = rng.standard_normal(n), rng.standard_normal(n)
    p2, m2 = rng.standard_normal(n), rng.standard_normal(n)
    alpha, beta = 0.37, -1.4
    out1 = lattice.run(lattice.LatticeState(0.0, p1, m1),
                       arr, squid, pulse, cfg)
    out2 = lattice.run(lattice.LatticeState(0.0, p2, m2),
                       arr, squid, pulse, cfg)
    combo = lattice.run(
        lattice.LatticeState(0.0, alpha * p1 + beta * p2,
                             alpha * m1 + beta * m2),
        arr, squid, pulse, cfg)
    expected = (alpha * out1.final_state.potential +
                beta * out2.final_state.potential)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(combo.final_state.potential - expected)) < 1e-12 * scale


class TestConfigValidation:
    def test_courant_fraction_cap(self):
        with pytest.raises(ValueError):
            lattice.SolverConfig(n_steps=10, courant_fraction=0.6)

    @pytest.mark.parametrize("boundary", ["periodic", "driven"])
    def test_unknown_boundary(self, boundary):
        with pytest.raises(ValueError):
            lattice.SolverConfig(n_steps=10, boundary=boundary)

    @pytest.mark.parametrize("dt", [0.0, -1e-15, math.nan, math.inf,
                                    -math.inf])
    def test_non_positive_or_non_finite_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            lattice.SolverConfig(n_steps=10, dt=dt)

    @pytest.mark.parametrize("value", [10.5, 10.0, math.nan, math.inf, "10"])
    @pytest.mark.parametrize("field", ["n_steps", "record_every",
                                       "check_every"])
    def test_non_integral_count_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            lattice.SolverConfig(**{"n_steps": 10, field: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = lattice.SolverConfig(n_steps=np.int64(10),
                                   record_every=np.int32(2),
                                   check_every=np.uint8(4))
        assert (cfg.n_steps, cfg.record_every, cfg.check_every) == (10, 2, 4)

    def test_oversized_dt_rejected(self, ref_squid, uniform):
        arr = make_array(64)
        cfg = lattice.SolverConfig(n_steps=10, dt=CELL_TIME)
        with pytest.raises(errors.CourantViolation):
            lattice.run(lattice.zero_state(arr), arr, ref_squid, uniform, cfg)

    def test_stable_timestep_reference(self, ref_squid, uniform):
        dt = lattice.stable_timestep(make_array(64), ref_squid, uniform)
        assert dt == pytest.approx(0.2 * CELL_TIME, rel=1e-12)

    def test_stable_timestep_uses_smallest_flux(self, ref_squid):
        # with a dc offset the stiffest cell sits at the offset flux
        pulse = sh.FluxPulse(amplitude=0.2, dc_offset=0.1, velocity=1.0e6,
                             steepness=1.0e6)
        dt = lattice.stable_timestep(make_array(64), ref_squid, pulse)
        expected = 0.2 * CELL_TIME / math.sqrt(math.cos(0.1 * math.pi))
        assert dt == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("dc_offset, amplitude",
                             [(0.0, 0.0), (0.0, 0.2), (0.1, 0.2),
                              (0.3, 0.15), (0.25, 0.0)])
    def test_stable_timestep_is_courant_fraction_of_cell_time(
            self, ref_squid, dc_offset, amplitude):
        arr = make_array(64)
        pulse = sh.FluxPulse(amplitude=amplitude, dc_offset=dc_offset)
        smallest = min(dc_offset, dc_offset + amplitude)
        cell_time = sh.cell_time(arr, ref_squid,
                                 smallest * FLUX_QUANTUM)
        for fraction in (0.2, 0.1, 0.5):
            assert (lattice.stable_timestep(arr, ref_squid, pulse, fraction)
                    == fraction * cell_time)


class TestStep:
    def test_single_node_kick_is_symmetric(self, ref_squid, uniform):
        arr = make_array(9)
        pot = np.zeros(9)
        pot[4] = 1.0e-6
        state = lattice.LatticeState(0.0, pot, np.zeros(9))
        dt = lattice.stable_timestep(arr, ref_squid, uniform)
        after = lattice.run(state, arr, ref_squid, uniform,
                            lattice.SolverConfig(n_steps=1, dt=dt)).final_state
        delta = after.potential - pot
        assert delta[3] == delta[5]
        assert delta[3] > 0.0
        assert delta[4] < 0.0
        assert delta[4] == pytest.approx(-2.0 * delta[3], rel=1e-12)
        assert np.all(delta[[0, 1, 6, 7, 8]] == 0.0)

    def test_two_half_runs_match_one(self, ref_squid, uniform):
        assert_two_half_runs_match_one(ref_squid, uniform, "reflecting")


class TestConservationAndSymmetry:
    def test_zero_state_stays_zero(self, ref_squid, uniform):
        arr = make_array(64)
        traj = lattice.run(lattice.zero_state(arr), arr, ref_squid, uniform,
                           lattice.SolverConfig(n_steps=200))
        assert np.all(traj.final_state.potential == 0.0)
        assert np.all(traj.energies == 0.0)

    @pytest.mark.parametrize("seed", [7, 19])
    def test_energy_drift_bound(self, ref_squid, uniform, seed):
        rng = np.random.default_rng(seed)
        n = 256
        state = lattice.LatticeState(0.0, rng.standard_normal(n) * 1e-6,
                                     rng.standard_normal(n) * 1e-27)
        traj = lattice.run(state, make_array(n), ref_squid, uniform,
                           lattice.SolverConfig(n_steps=10000, record_every=500))
        assert traj.energy_drift < 1.0e-6

    def test_biased_line_also_conserves(self, ref_squid):
        pulse = sh.FluxPulse(amplitude=0.0, dc_offset=0.2)
        rng = np.random.default_rng(23)
        n = 128
        state = lattice.LatticeState(0.0, rng.standard_normal(n) * 1e-6,
                                     rng.standard_normal(n) * 1e-27)
        traj = lattice.run(state, make_array(n), ref_squid, pulse,
                           lattice.SolverConfig(n_steps=5000, record_every=250))
        assert traj.energy_drift < 1.0e-6

    def test_still_front_ignores_broadening(self, ref_squid):
        # s0/(1 + b*u*t) stays s0 when u = 0, so a broadening rate on a
        # still front changes nothing, bit for bit.
        rng = np.random.default_rng(29)
        n = 256
        arr = make_array(n)
        state = lattice.LatticeState(0.0, rng.standard_normal(n) * 1e-6,
                                     rng.standard_normal(n) * 1e-27)
        still, broadening = (
            lattice.run(state, arr, ref_squid,
                        sh.FluxPulse(amplitude=0.2, steepness=2.0e5,
                                     front_position=0.5 * n * CELL_LENGTH,
                                     broadening=b),
                        lattice.SolverConfig(n_steps=400, record_every=100))
            for b in (0.0, 444.0))
        assert np.array_equal(still.potentials, broadening.potentials)
        assert np.array_equal(still.currents, broadening.currents)
        assert np.array_equal(still.energies, broadening.energies)
        assert np.array_equal(still.final_state.momentum,
                              broadening.final_state.momentum)

    def test_mirror_symmetry_bitwise(self, ref_squid, uniform):
        assert_mirror_symmetric_bitwise(ref_squid, uniform, "reflecting")

    def test_linearity(self, ref_squid, uniform):
        assert_linear(ref_squid, uniform, "reflecting")

    def test_non_finite_state_detected(self, ref_squid, uniform):
        n = 64
        pot = np.zeros(n)
        pot[10] = math.inf
        state = lattice.LatticeState(0.0, pot, np.zeros(n))
        with pytest.raises(errors.NonFinite):
            lattice.run(state, make_array(n), ref_squid, uniform,
                        lattice.SolverConfig(n_steps=300))

    @pytest.mark.parametrize("check_every, match", [
        (1, "overflowed at step 1"), (128, "overflowed during the run")],
        ids=["mid-run", "at-end"])
    def test_overflow_detected(self, ref_squid, uniform, check_every, match):
        # Alternating +-1e308 potentials overflow the first bond difference;
        # with fewer steps than check_every only the final check sees it.
        n = 16
        pot = np.where(np.arange(n) % 2, 1.0e308, -1.0e308)
        state = lattice.LatticeState(0.0, pot, np.zeros(n))
        cfg = lattice.SolverConfig(n_steps=10, check_every=check_every)
        with pytest.raises(errors.NonFinite, match=match):
            lattice.run(state, make_array(n), ref_squid, uniform, cfg)

    @pytest.mark.parametrize("critical_current, ground_capacitance, dt", [
        (2.0e-6, 1e-320, None), (2.0e-6, 1e12, 5e-324),
        (1e-200, 1e150, None)],
        ids=["cell-time-underflows", "rate-underflows", "cell-time-overflows"])
    def test_rate_unit_must_be_finite(self, uniform, critical_current,
                                      ground_capacitance, dt):
        # dt/sqrt(L(0) C0) of 0/0, of zero or of inf/inf: a typed error when
        # the March is made, not a ZeroDivisionError or a frozen line.
        squid = sh.SquidParams(
            junction=sh.JunctionParams(critical_current=critical_current,
                                       capacitance=1.5e-16),
            loop_inductance=1.0e-11)
        arr = sh.ArrayParams(n_cells=16, cell_length=CELL_LENGTH,
                             ground_capacitance=ground_capacitance)
        with pytest.raises(errors.NonFinite, match="dt/sqrt"):
            lattice.March(lattice.zero_state(arr), arr, squid, uniform,
                          lattice.SolverConfig(n_steps=10, dt=dt))

    def test_state_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="lengths differ"):
            lattice.LatticeState(0.0, np.zeros(8), np.zeros(7))

    def test_initial_state_of_another_line_rejected(self, ref_squid, uniform):
        with pytest.raises(ValueError, match="initial state has 8 cells, "
                                             "array has 16"):
            lattice.run(lattice.zero_state(make_array(8)), make_array(16),
                        ref_squid, uniform, lattice.SolverConfig(n_steps=10))


class TestConvergence:
    def test_second_order_with_moving_front(self, ref_squid):
        # a superluminal front sweeping over the packet exercises the
        # half-step inductance sampling; halving dt must still give O(dt^2)
        n = 400
        arr = make_array(n)
        front = sh.FluxPulse(amplitude=0.2, velocity=1.2 * REF_CELL_SPEED,
                             steepness=2.0e5, front_position=20 * CELL_LENGTH)
        dt0 = lattice.stable_timestep(arr, ref_squid, front)
        finals = []
        for refine in (1, 2, 4):
            dt = dt0 / refine
            pk = lattice.gaussian_packet(arr, ref_squid, front,
                                         center=200 * CELL_LENGTH,
                                         sigma=15 * CELL_LENGTH,
                                         carrier_ka=0.15, amplitude=1e-6, dt=dt)
            traj = lattice.run(pk, arr, ref_squid, front,
                               lattice.SolverConfig(n_steps=600 * refine, dt=dt))
            finals.append(traj.final_state.potential)
        e1 = np.max(np.abs(finals[0] - finals[1]))
        e2 = np.max(np.abs(finals[1] - finals[2]))
        assert math.log2(e1 / e2) > 1.9


class TestPackets:
    def test_one_way_construction(self, ref_squid, uniform):
        # after travelling 100 cells rightward, the energy left behind the
        # launch point is pure roundoff
        n = 800
        arr = make_array(n)
        dt = lattice.stable_timestep(arr, ref_squid, uniform)
        pk = lattice.gaussian_packet(arr, ref_squid, uniform,
                                     center=200 * CELL_LENGTH,
                                     sigma=20 * CELL_LENGTH,
                                     carrier_ka=0.1, amplitude=1e-6, dt=dt)
        steps = int(round(100 * CELL_LENGTH / REF_CELL_SPEED / dt))
        traj = lattice.run(pk, arr, ref_squid, uniform,
                           lattice.SolverConfig(n_steps=steps, dt=dt,
                                                record_every=steps))
        e = traj.energy_density[-1]
        stray = e[traj.positions < 150 * CELL_LENGTH].sum() / e.sum()
        assert stray < 1e-20

    def test_packet_speed_uniform(self, ref_squid, uniform):
        n = 800
        arr = make_array(n)
        dt = lattice.stable_timestep(arr, ref_squid, uniform)
        pk = lattice.gaussian_packet(arr, ref_squid, uniform,
                                     center=200 * CELL_LENGTH,
                                     sigma=20 * CELL_LENGTH,
                                     carrier_ka=0.1, amplitude=1e-6, dt=dt)
        steps = int(round(400 * CELL_LENGTH / REF_CELL_SPEED / dt))
        traj = lattice.run(pk, arr, ref_squid, uniform,
                           lattice.SolverConfig(n_steps=steps, dt=dt,
                                                record_every=steps // 24))
        speed = lattice.measure_pulse_speed(traj)
        assert speed == pytest.approx(REF_CELL_SPEED, rel=0.01)

    def test_packet_speed_biased(self, ref_squid):
        biased = sh.FluxPulse(amplitude=0.0, dc_offset=0.2)
        n = 800
        arr = make_array(n)
        dt = lattice.stable_timestep(arr, ref_squid, biased)
        pk = lattice.gaussian_packet(arr, ref_squid, biased,
                                     center=200 * CELL_LENGTH,
                                     sigma=20 * CELL_LENGTH,
                                     carrier_ka=0.1, amplitude=1e-6, dt=dt)
        slow = REF_CELL_SPEED * math.sqrt(math.cos(0.2 * math.pi))
        steps = int(round(400 * CELL_LENGTH / slow / dt))
        traj = lattice.run(pk, arr, ref_squid, biased,
                           lattice.SolverConfig(n_steps=steps, dt=dt,
                                                record_every=steps // 24))
        speed = lattice.measure_pulse_speed(traj)
        assert speed == pytest.approx(slow, rel=0.01)

    def test_leftward_packet_negative_speed(self, ref_squid, uniform):
        n = 600
        arr = make_array(n)
        dt = lattice.stable_timestep(arr, ref_squid, uniform)
        pk = lattice.gaussian_packet(arr, ref_squid, uniform,
                                     center=400 * CELL_LENGTH,
                                     sigma=20 * CELL_LENGTH,
                                     carrier_ka=0.1, amplitude=1e-6, dt=dt,
                                     direction=-1)
        steps = int(round(200 * CELL_LENGTH / REF_CELL_SPEED / dt))
        traj = lattice.run(pk, arr, ref_squid, uniform,
                           lattice.SolverConfig(n_steps=steps, dt=dt,
                                                record_every=steps // 12))
        assert lattice.measure_pulse_speed(traj) < -0.9 * REF_CELL_SPEED

    def test_packet_rejects_unstable_dt(self, ref_squid, uniform):
        arr = make_array(64)
        with pytest.raises(errors.CourantViolation):
            lattice.gaussian_packet(arr, ref_squid, uniform,
                                    center=32 * CELL_LENGTH,
                                    sigma=5 * CELL_LENGTH, carrier_ka=0.1,
                                    amplitude=1e-6, dt=1.01 * CELL_TIME)

    @pytest.mark.parametrize("shape, match", [
        ({"sigma": 0.0}, "sigma must be positive"),
        ({"direction": 0}, "direction must be"),
    ], ids=["sigma", "direction"])
    def test_packet_rejects_bad_shape(self, ref_squid, uniform, shape, match):
        arr = make_array(64)
        args = dict(center=32 * CELL_LENGTH, sigma=5 * CELL_LENGTH,
                    carrier_ka=0.1, amplitude=1e-6, dt=0.2 * CELL_TIME)
        args.update(shape)
        with pytest.raises(ValueError, match=match):
            lattice.gaussian_packet(arr, ref_squid, uniform, **args)

    def test_no_packet_from_one_record(self, ref_squid, uniform):
        arr = make_array(64)
        dt = lattice.stable_timestep(arr, ref_squid, uniform)
        pk = lattice.gaussian_packet(arr, ref_squid, uniform,
                                     center=32 * CELL_LENGTH,
                                     sigma=5 * CELL_LENGTH, carrier_ka=0.1,
                                     amplitude=1e-6, dt=dt)
        traj = lattice.run(pk, arr, ref_squid, uniform,
                           lattice.SolverConfig(n_steps=10, dt=dt))
        one = dataclasses.replace(traj, times=traj.times[:1],
                                  energy_density=traj.energy_density[:1])
        with pytest.raises(errors.NoPacket, match="fewer than two"):
            lattice.measure_pulse_speed(one)

    def test_no_packet_in_empty_run(self, ref_squid, uniform):
        arr = make_array(64)
        traj = lattice.run(lattice.zero_state(arr), arr, ref_squid, uniform,
                           lattice.SolverConfig(n_steps=50, record_every=10))
        with pytest.raises(errors.NoPacket):
            lattice.measure_pulse_speed(traj)

    def test_no_packet_for_spread_energy(self, ref_squid, uniform):
        rng = np.random.default_rng(2)
        n = 256
        state = lattice.LatticeState(0.0, rng.standard_normal(n) * 1e-6,
                                     np.zeros(n))
        traj = lattice.run(state, make_array(n), ref_squid, uniform,
                           lattice.SolverConfig(n_steps=200, record_every=40))
        with pytest.raises(errors.NoPacket):
            lattice.measure_pulse_speed(traj)


class TestReflection:
    def test_flux_step_matches_impedance_mismatch(self, ref_squid):
        # sharp 0 -> 0.2 flux-quantum step at a cell boundary; the energy
        # reflection follows the impedance ratio of the two line sections
        n = 1000
        arr = make_array(n)
        interface = 500 * CELL_LENGTH
        steppulse = sh.FluxPulse(amplitude=0.2, velocity=0.0, steepness=1e9,
                                 front_position=interface)
        dt = lattice.stable_timestep(arr, ref_squid, steppulse)
        pk = lattice.gaussian_packet(arr, ref_squid, steppulse,
                                     center=700 * CELL_LENGTH,
                                     sigma=20 * CELL_LENGTH,
                                     carrier_ka=0.1, amplitude=1e-6, dt=dt,
                                     direction=-1)
        steps = int(round(450 * CELL_LENGTH / REF_CELL_SPEED / dt))
        traj = lattice.run(pk, arr, ref_squid, steppulse,
                           lattice.SolverConfig(n_steps=steps, dt=dt,
                                                record_every=steps))
        e = traj.energy_density[-1]
        measured = e[traj.positions > interface].sum() / e.sum()
        z_ratio = 1.0 / math.sqrt(math.cos(0.2 * math.pi))
        analytic = ((z_ratio - 1.0) / (z_ratio + 1.0)) ** 2
        assert measured == pytest.approx(analytic, rel=0.02)


class TestAbsorbingBoundary:
    """Both ends take the same first-order Mur update, each with the rate
    of its own end cell."""

    @staticmethod
    def residual_energy(squid, pulse, carrier_ka, direction):
        # The fraction of a packet's energy left once it has run 450 cells
        # at the unbiased speed from the middle of a 600-cell line.
        n = 600
        arr = make_array(n)
        dt = lattice.stable_timestep(arr, squid, pulse)
        pk = lattice.gaussian_packet(arr, squid, pulse,
                                     center=300 * CELL_LENGTH,
                                     sigma=20 * CELL_LENGTH,
                                     carrier_ka=carrier_ka,
                                     amplitude=1e-6, dt=dt,
                                     direction=direction)
        steps = int(round(450 * CELL_LENGTH / REF_CELL_SPEED / dt))
        traj = lattice.run(pk, arr, squid, pulse,
                           lattice.SolverConfig(n_steps=steps, dt=dt,
                                                record_every=steps,
                                                boundary="absorbing"))
        return traj.energies[-1] / traj.energies[0]

    @pytest.mark.parametrize("carrier_ka", [0.1, 0.2, 0.3])
    def test_residual_energy(self, ref_squid, uniform, carrier_ka):
        assert self.residual_energy(ref_squid, uniform, carrier_ka, 1) < 0.01

    @pytest.mark.parametrize("carrier_ka", [0.1, 0.2, 0.3])
    def test_node_zero_absorbs_a_leftward_packet(self, ref_squid, uniform,
                                                 carrier_ka):
        assert self.residual_energy(ref_squid, uniform, carrier_ka, -1) < 0.01

    @pytest.mark.parametrize("direction", [1, -1])
    def test_biased_ends_absorb(self, ref_squid, direction):
        # Under a dc flux kappa is set by the biased end cell: 1.2e-6 of
        # the energy is left, where a kappa taken at zero flux leaves 3e-3.
        biased = sh.FluxPulse(amplitude=0.0, dc_offset=0.2)
        assert self.residual_energy(ref_squid, biased, 0.1, direction) < 1e-4

    def test_mirror_symmetry_bitwise(self, ref_squid, uniform):
        assert_mirror_symmetric_bitwise(ref_squid, uniform, "absorbing")

    def test_linearity(self, ref_squid, uniform):
        assert_linear(ref_squid, uniform, "absorbing")

    def test_two_half_runs_match_one(self, ref_squid, uniform):
        # The update reads only the potential of the step it ends.
        assert_two_half_runs_match_one(ref_squid, uniform, "absorbing")


class TestNonlinearOption:
    @pytest.mark.parametrize("name", ["still-tanh", "broadening-tanh"])
    def test_small_amplitude_matches_linear(self, ref_squid, name):
        # Below |I|/I_c = 1.8e-8 the inverse stretch 1 - r^2/6 rounds to
        # 1.0, so the stretch run, through its reused buffers, steps bit for
        # bit as the plain run does.
        n = 256
        arr = make_array(n)
        pulse = TestWindowedKernel.PULSES[name]
        dt = lattice.stable_timestep(arr, ref_squid, pulse)
        pk = lattice.gaussian_packet(arr, ref_squid, pulse,
                                     center=100 * CELL_LENGTH,
                                     sigma=15 * CELL_LENGTH,
                                     carrier_ka=0.15, amplitude=1e-10, dt=dt)
        runs = []
        for stretch in (False, True):
            march = lattice.March(pk, arr, ref_squid, pulse,
                                  lattice.SolverConfig(
                                      n_steps=400, dt=dt, boundary="absorbing",
                                      current_dependent_inductance=stretch))
            peak, rows = 0.0, []
            for _ in march:
                rows.append(march.potential.copy())
                peak = max(peak, float(np.abs(march.momentum).max()))
            # March keeps the momentum over dt.
            ratio = peak * (2.0 * math.pi * dt / FLUX_QUANTUM)
            assert 0.0 < ratio < 1.8e-8
            runs.append((np.array(rows), march.final_state))
        (plain, plain_final), (stretched, stretched_final) = runs
        assert stretched.tobytes() == plain.tobytes()
        for field in ("potential", "momentum"):
            assert (getattr(stretched_final, field).tobytes()
                    == getattr(plain_final, field).tobytes()), field

    def test_large_amplitude_slows_packet(self, ref_squid, uniform):
        # currents near critical stretch the inductance, so the nonlinear
        # packet lags the linear one
        n = 512
        arr = make_array(n)
        dt = lattice.stable_timestep(arr, ref_squid, uniform)
        # 15 mV puts the peak cell current near 0.3 of critical
        pk = lattice.gaussian_packet(arr, ref_squid, uniform,
                                     center=130 * CELL_LENGTH,
                                     sigma=20 * CELL_LENGTH,
                                     carrier_ka=0.1, amplitude=0.015, dt=dt)
        steps = int(round(250 * CELL_LENGTH / REF_CELL_SPEED / dt))
        cfg_lin = lattice.SolverConfig(n_steps=steps, dt=dt,
                                       record_every=steps // 12)
        cfg_non = lattice.SolverConfig(n_steps=steps, dt=dt,
                                       record_every=steps // 12,
                                       current_dependent_inductance=True)
        v_lin = lattice.measure_pulse_speed(
            lattice.run(pk, arr, ref_squid, uniform, cfg_lin))
        v_non = lattice.measure_pulse_speed(
            lattice.run(pk, arr, ref_squid, uniform, cfg_non))
        assert v_non < v_lin

    def test_over_critical_current(self, ref_squid, uniform):
        n = 256
        arr = make_array(n)
        dt = lattice.stable_timestep(arr, ref_squid, uniform)
        pk = lattice.gaussian_packet(arr, ref_squid, uniform,
                                     center=100 * CELL_LENGTH,
                                     sigma=15 * CELL_LENGTH,
                                     carrier_ka=0.1, amplitude=1.0, dt=dt)
        with pytest.raises(errors.OverCritical):
            lattice.run(pk, arr, ref_squid, uniform,
                        lattice.SolverConfig(n_steps=200, dt=dt,
                                             current_dependent_inductance=True))


class TestPhaseLaw:
    """Under the current-dependent inductance run reads a cell's I/I_c^s
    from its momentum M = q/dt as |M| * 2 pi dt/Phi_0, since
    L * I_c^s = Phi_0/(2 pi) at every flux; the ratio it replaced is the
    recorded current over circuit's critical current at the cell's flux."""

    @pytest.mark.parametrize("critical_current, ground_capacitance", [
        (2.0e-6, 5.0e-17), (3.7e-7, 1.3e-15)])
    def test_matches_current_over_critical_current(self, critical_current,
                                                   ground_capacitance):
        squid = sh.SquidParams(
            junction=sh.JunctionParams(critical_current=critical_current,
                                       capacitance=1.5e-16),
            loop_inductance=1.0e-11)
        arr = sh.ArrayParams(n_cells=16, cell_length=CELL_LENGTH,
                             ground_capacitance=ground_capacitance)
        dt = lattice.stable_timestep(arr, squid, sh.FluxPulse(amplitude=0.0))
        rng = np.random.default_rng(29)
        fraction = np.concatenate(([0.0, 0.45],
                                   rng.uniform(0.0, 0.45, 20000)))
        mom = rng.standard_normal(fraction.size)  # momentum over dt
        current = ((dt / circuit.josephson_inductance(squid, 0.0)) * mom
                   / circuit.relative_inductance(fraction))
        ratio = np.abs(current) / circuit.squid_critical_current(
            squid, fraction * FLUX_QUANTUM)
        np.testing.assert_allclose(
            np.abs(mom) * (2.0 * math.pi * dt / FLUX_QUANTUM), ratio,
            rtol=4e-15, atol=0.0)


class TestRecording:
    def test_cadence(self, ref_squid, uniform):
        n = 128
        arr = make_array(n)
        dt = lattice.stable_timestep(arr, ref_squid, uniform)
        pk = lattice.gaussian_packet(arr, ref_squid, uniform,
                                     center=40 * CELL_LENGTH,
                                     sigma=8 * CELL_LENGTH,
                                     carrier_ka=0.2, amplitude=1e-6, dt=dt)
        cfg = lattice.SolverConfig(n_steps=100, dt=dt, record_every=25)
        traj = lattice.run(pk, arr, ref_squid, uniform, cfg)
        np.testing.assert_allclose(np.diff(traj.times), 25 * dt, rtol=1e-9)
        assert len(traj.times) == 5
        # Each record is the iterable's state at its step.
        march = lattice.March(pk, arr, ref_squid, uniform, cfg)
        seen = []
        for m in march:
            if m % 25 == 0:
                slot = len(seen)
                seen.append(m)
                assert traj.times[slot] == march.step_times[m]
                assert (traj.potentials[slot].tobytes()
                        == march.potential.tobytes())
        assert seen == [0, 25, 50, 75, 100]

    @pytest.mark.parametrize("n_steps, record_every", [
        (1, 0), (1, 1), (10, 0), (10, 1), (10, 3), (10, 5), (10, 20),
        (64, 64), (65, 64), (600, 100)])
    def test_record_times(self, ref_squid, uniform, n_steps, record_every):
        # Every cadence-th step from the first, and the end of the run.
        arr = make_array(16)
        start = 1.3e-12
        state = lattice.LatticeState(start, np.zeros(16), np.zeros(16))
        dt = lattice.stable_timestep(arr, ref_squid, uniform)
        traj = lattice.run(state, arr, ref_squid, uniform,
                           lattice.SolverConfig(n_steps=n_steps, dt=dt,
                                                record_every=record_every))
        cadence = record_every or n_steps
        steps = sorted(set(range(0, n_steps, cadence)) | {n_steps})
        expected = np.array([start + k * dt for k in steps])
        assert traj.times.tobytes() == expected.tobytes()
        assert traj.final_state.time == start + n_steps * dt

    def test_positions_are_cell_centres(self, ref_squid, uniform):
        arr = make_array(16)
        traj = lattice.run(lattice.zero_state(arr), arr, ref_squid, uniform,
                           lattice.SolverConfig(n_steps=1))
        expected = (np.arange(16) + 0.5) * CELL_LENGTH
        np.testing.assert_allclose(traj.positions, expected, rtol=1e-15)

    def test_density_sums_to_energy(self, ref_squid, uniform):
        n = 256
        arr = make_array(n)
        rng = np.random.default_rng(13)
        state = lattice.LatticeState(0.0, rng.standard_normal(n) * 1e-6,
                                     rng.standard_normal(n) * 1e-27)
        traj = lattice.run(state, arr, ref_squid, uniform,
                           lattice.SolverConfig(n_steps=100, record_every=20))
        np.testing.assert_allclose(traj.energy_density.sum(axis=1),
                                   traj.energies, rtol=1e-12)


class TestMarch:
    """The iterable behind run keeps numpy's floating-point warnings off
    while it is open, and only then; a consumer's write to the potential
    at a yield is stepped on and kept in the final state."""

    @pytest.mark.parametrize("boundary", ["reflecting", "absorbing"])
    def test_write_at_last_yield_is_in_final_state(self, ref_squid, uniform,
                                                   boundary):
        arr = make_array(64)
        march = lattice.March(lattice.zero_state(arr), arr, ref_squid, uniform,
                              lattice.SolverConfig(n_steps=10,
                                                   boundary=boundary))
        for m in march:
            if m == 10:
                march.potential[0] += 1e-6
        assert march.final_state.potential[0] == 1e-6
        assert np.all(march.final_state.potential[1:] == 0.0)

    @pytest.mark.parametrize("boundary", ["reflecting", "absorbing"])
    def test_write_between_steps_is_stepped(self, ref_squid, uniform,
                                            boundary):
        # A write at yield m is the state step m starts from: the same run
        # split there, the write made at the first part's last yield, agrees.
        arr = make_array(64)
        rng = np.random.default_rng(44)
        state = lattice.LatticeState(0.0, rng.standard_normal(64) * 1e-6,
                                     rng.standard_normal(64) * 1e-27)
        dt = lattice.stable_timestep(arr, ref_squid, uniform)

        def march(initial, steps, write_at):
            run = lattice.March(initial, arr, ref_squid, uniform,
                                lattice.SolverConfig(n_steps=steps, dt=dt,
                                                     boundary=boundary))
            for m in run:
                if m == write_at:
                    run.potential[0] += 1e-6
            return run.final_state

        whole = march(state, 40, 15)
        split = march(march(state, 15, 15), 25, None)
        np.testing.assert_allclose(whole.potential, split.potential,
                                   rtol=1e-12, atol=1e-20)

    @pytest.mark.parametrize("case", ["completes", "overflows",
                                      "over-critical"])
    def test_error_state_restored_after_a_run(self, ref_squid, uniform,
                                              case):
        n = 16
        arr = make_array(n)
        pot = np.zeros(n)
        stretch = case == "over-critical"
        if case == "overflows":
            pot = np.where(np.arange(n) % 2, 1.0e308, -1.0e308)
        elif stretch:
            pot[8] = 1.0  # one volt across two cells drives them past I_c
        cfg = lattice.SolverConfig(n_steps=10,
                                   current_dependent_inductance=stretch)
        raises = {"overflows": pytest.raises(errors.NonFinite),
                  "over-critical": pytest.raises(errors.OverCritical)}
        before = np.geterr()
        with warnings.catch_warnings(), raises.get(case, nullcontext()):
            warnings.simplefilter("error")
            lattice.run(lattice.LatticeState(0.0, pot, np.zeros(n)),
                        arr, ref_squid, uniform, cfg)
        assert np.geterr() == before

    def test_early_exit_restores_error_state(self, ref_squid, uniform):
        n = 64
        arr = make_array(n)
        rng = np.random.default_rng(43)
        state = lattice.LatticeState(0.0, rng.standard_normal(n) * 1e-6,
                                     rng.standard_normal(n) * 1e-27)
        cfg = lattice.SolverConfig(n_steps=200)
        before = np.geterr()
        march = lattice.March(state, arr, ref_squid, uniform, cfg)
        for m in march:
            assert np.geterr()["over"] == "ignore"
            if m == 70:
                break
        assert np.geterr() == before
        # A new iteration starts again from the initial state.
        assert list(march) == list(range(201))
        assert np.geterr() == before
        whole = lattice.run(state, arr, ref_squid, uniform, cfg)
        assert (march.final_state.potential.tobytes()
                == whole.final_state.potential.tobytes())


def reference_run(initial, arr, squid, pulse, config):
    """The leapfrog of lattice.run written plainly, with the momentum in
    March's unit M = mom/dt: the rate (dt/sqrt(L(0) C0))**2/(L/L(0)) of
    the whole line at every half step from a scalar time and both Mur
    coefficients at every step.  Returns the fields of a LatticeTrajectory
    by name, the final state's included, with the time and the potential
    of every step as step_times and step_potentials."""
    n = arr.n_cells
    dt = config.dt or lattice.stable_timestep(arr, squid, pulse,
                                              config.courant_fraction)
    cap = arr.ground_capacitance
    l_ref = circuit.josephson_inductance(squid, 0.0)
    rate_unit = (dt / circuit.cell_time(arr, squid, 0.0)) ** 2
    kin_unit = dt * dt / l_ref
    current_unit = -dt / l_ref
    positions = (np.arange(n) + 0.5) * arr.cell_length

    def bias_at(t):
        return circuit.relative_inductance(
            bias.flux_fraction_at(pulse, positions, t))

    def laplacian(pot):
        return np.diff(np.concatenate(([0.0], np.diff(pot), [0.0])))

    def mur_beta(end_rate):
        kappa = np.sqrt(end_rate)
        return (kappa - 1.0) / (kappa + 1.0)

    out = {key: [] for key in ("times", "potentials", "currents",
                               "energies", "energy_density",
                               "step_times", "step_potentials")}

    def record(t, pot, mom):
        ind = bias_at(t)
        mom_next = mom + laplacian(pot)
        kin = kin_unit * mom * mom_next / (2.0 * ind)
        d = np.diff(pot)
        bond = 0.5 * cap * d * d
        density = kin.copy()
        density[:-1] += 0.5 * bond
        density[1:] += 0.5 * bond
        out["times"].append(t)
        out["potentials"].append(pot.copy())
        out["currents"].append(current_unit * 0.5 * (mom + mom_next) / ind)
        out["energies"].append(kin.sum() + bond.sum())
        out["energy_density"].append(density)

    steps = config.n_steps
    cadence = config.record_every or steps
    record_steps = set(range(0, steps, cadence)) | {steps}
    pot = initial.potential.copy()
    mom = initial.momentum / dt
    t = initial.time
    for m in range(steps):
        if m in record_steps:
            record(t, pot, mom)
        out["step_times"].append(t)
        out["step_potentials"].append(pot.copy())
        mom = mom + laplacian(pot)
        rate = rate_unit / bias_at(t + 0.5 * dt)
        if config.current_dependent_inductance:
            # I/I_c^s from the momentum: TestPhaseLaw checks the law.
            rate = rate * circuit.inverse_inductance_stretch(
                np.abs(mom) * (2.0 * math.pi * dt / FLUX_QUANTUM))
        old = pot.copy()
        pot = pot + mom * rate
        if config.boundary == "absorbing":
            pot[0] = old[1] + mur_beta(rate[0]) * (pot[1] - old[0])
            pot[-1] = old[-2] + mur_beta(rate[-1]) * (pot[-2] - old[-1])
        t = initial.time + (m + 1) * dt
    record(t, pot, mom)
    out["step_times"].append(t)
    out["step_potentials"].append(pot.copy())
    out = {key: np.array(value) for key, value in out.items()}
    out["potential"] = pot
    out["momentum"] = mom * dt
    out["time"] = t
    return out


class TestWindowedKernel:
    """run evaluates the front only inside bias.front_window, keeps the
    plateau values elsewhere and takes the bias of a block of steps at
    once; none of it may change a bit against reference_run."""

    N = 480
    STEPS = 600  # not a multiple of lattice._BLOCK
    SPEED = 0.9 * REF_CELL_SPEED
    PULSES = {
        "broadening-tanh": sh.FluxPulse(
            amplitude=0.2, dc_offset=0.05, velocity=SPEED, steepness=3.2e6,
            front_position=150 * CELL_LENGTH, broadening=2.0e4),
        "gaussian-bump": sh.FluxPulse(
            amplitude=0.2, dc_offset=0.05, velocity=SPEED, steepness=1.6e6,
            front_position=150 * CELL_LENGTH, shape="gaussian"),
        "still-tanh": sh.FluxPulse(
            amplitude=0.2, dc_offset=0.05, steepness=3.2e6,
            front_position=240 * CELL_LENGTH),
        # More than two cells per half step: a record's window can reach
        # past the union window of its block's half steps.
        "racing-tanh": sh.FluxPulse(
            amplitude=0.2, dc_offset=0.05, velocity=40 * REF_CELL_SPEED,
            steepness=3.2e6, front_position=60 * CELL_LENGTH),
        # The windows of these two reach the ends of the line.
        "entering-tanh": sh.FluxPulse(
            amplitude=0.2, dc_offset=0.05, velocity=SPEED, steepness=3.2e6,
            front_position=-60 * CELL_LENGTH, broadening=2.0e4),
        "leaving-tanh": sh.FluxPulse(
            amplitude=0.2, dc_offset=0.05, velocity=SPEED, steepness=3.2e6,
            front_position=420 * CELL_LENGTH),
        # Past the last cell within a few blocks: the window shrinks to
        # zero width and stays there.
        "departed-tanh": sh.FluxPulse(
            amplitude=0.2, dc_offset=0.05, velocity=SPEED, steepness=3.2e6,
            front_position=470 * CELL_LENGTH, broadening=2.0e4),
    }

    @staticmethod
    def assert_same_bits(ref_squid, pulse, boundary, current_dependent,
                         start=0.0):
        n = TestWindowedKernel.N
        arr = make_array(n)
        rng = np.random.default_rng(41)
        state = lattice.LatticeState(start, rng.standard_normal(n) * 1e-4,
                                     rng.standard_normal(n) * 1e-27)
        cfg = lattice.SolverConfig(
            n_steps=TestWindowedKernel.STEPS, boundary=boundary,
            record_every=100, current_dependent_inductance=current_dependent)
        assert cfg.n_steps % lattice._BLOCK != 0
        kernel = lattice.run(state, arr, ref_squid, pulse, cfg)
        march = lattice.March(state, arr, ref_squid, pulse, cfg)
        every_step = {"step_potentials": np.array([march.potential.copy()
                                                   for _ in march]),
                      "step_times": march.step_times}
        reference = reference_run(state, arr, ref_squid, pulse, cfg)

        for field in ("times", "potentials", "currents", "energies",
                      "energy_density"):
            a, b = getattr(kernel, field), reference[field]
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), field
        for field, a in every_step.items():
            b = reference[field]
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), field
        for final in (kernel.final_state, march.final_state):
            for field in ("potential", "momentum"):
                a = getattr(final, field)
                assert a.tobytes() == reference[field].tobytes(), field
            assert (np.float64(final.time).tobytes()
                    == np.float64(reference["time"]).tobytes())

    def test_start_before_broadening_pole_rejected(self, ref_squid):
        # s0 / (1 + b*u*t) is negative before t = -1/(b*u): no front there.
        pulse = self.PULSES["broadening-tanh"]
        start = -2.0 / (pulse.broadening * pulse.velocity)
        arr = make_array(self.N)
        state = lattice.LatticeState(start, np.zeros(self.N),
                                     np.zeros(self.N))
        with pytest.raises(ValueError, match="broadening pole"):
            lattice.run(state, arr, ref_squid, pulse,
                        lattice.SolverConfig(n_steps=10))

    def test_start_within_half_step_of_pole_rejected(self, ref_squid):
        # The first half step is past the pole, the first record is not.
        pulse = self.PULSES["broadening-tanh"]
        arr = make_array(self.N)
        dt = lattice.stable_timestep(arr, ref_squid, pulse)
        start = -1.0 / (pulse.broadening * pulse.velocity) - 0.25 * dt
        state = lattice.LatticeState(start, np.zeros(self.N),
                                     np.zeros(self.N))
        with pytest.raises(ValueError, match="broadening pole"):
            lattice.run(state, arr, ref_squid, pulse,
                        lattice.SolverConfig(n_steps=10, dt=dt))

    @pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["still-tanh", "broadening-tanh"])
    def test_non_finite_start_rejected(self, ref_squid, name, start):
        # Neither a start before the pole nor a numpy warning: a typed error.
        state = lattice.LatticeState(start, np.zeros(self.N),
                                     np.zeros(self.N))
        with pytest.raises(errors.NonFinite, match="initial time"):
            lattice.March(state, make_array(self.N), ref_squid,
                          self.PULSES[name], lattice.SolverConfig(n_steps=10))

    @pytest.mark.parametrize("current_dependent", [False, True])
    @pytest.mark.parametrize("boundary", ["reflecting", "absorbing"])
    @pytest.mark.parametrize("name", sorted(PULSES))
    def test_whole_line_window_gives_same_bits(self, ref_squid, name,
                                               boundary, current_dependent):
        pulse = self.PULSES[name]
        positions = (np.arange(self.N) + 0.5) * CELL_LENGTH
        lo, hi, _, _ = bias.front_window(pulse, 0.0, positions)
        assert hi - lo < self.N // 2  # the window saves work to begin with
        self.assert_same_bits(ref_squid, pulse, boundary, current_dependent)

    def test_windows_reach_both_ends_of_the_line(self, ref_squid):
        positions = (np.arange(self.N) + 0.5) * CELL_LENGTH
        entering, leaving = (self.PULSES[name]
                             for name in ("entering-tanh", "leaving-tanh"))
        dt = lattice.stable_timestep(make_array(self.N), ref_squid, leaving)
        end = self.STEPS * dt
        # Wholly before the first cell, then over it, then past it.
        assert bias.front_window(entering, 0.0, positions)[:2] == (0, 0)
        lo, hi = bias.front_window(entering, 0.5 * end, positions)[:2]
        assert lo == 0 < hi < self.N
        assert bias.front_window(entering, end, positions)[0] > 0
        assert bias.front_window(leaving, 0.0, positions)[1] < self.N
        lo, hi = bias.front_window(leaving, 0.5 * end, positions)[:2]
        assert 0 < lo < hi == self.N
        assert bias.front_window(leaving, end, positions)[:2] == (
            self.N, self.N)

    def test_departed_front_leaves_empty_windows(self, ref_squid):
        # The last blocks' windows, as the March takes them, have zero
        # width: a reused rows buffer is checked at zero width as well.
        pulse = self.PULSES["departed-tanh"]
        positions = (np.arange(self.N) + 0.5) * CELL_LENGTH
        dt = lattice.stable_timestep(make_array(self.N), ref_squid, pulse)
        step_times = np.arange(self.STEPS) * dt
        windows = [bias.front_window(
            pulse, step_times[first:first + lattice._BLOCK] + 0.5 * dt,
            positions)[:2]
            for first in range(0, self.STEPS, lattice._BLOCK)]
        assert windows[0][0] < windows[0][1] == self.N
        assert windows[-4:] == [(self.N, self.N)] * 4

    @pytest.mark.parametrize("boundary", ["reflecting", "absorbing"])
    @pytest.mark.parametrize("name", sorted(PULSES))
    def test_later_start_gives_same_bits(self, ref_squid, name, boundary):
        # The blocks' times start from initial.time, as the loop's do.
        self.assert_same_bits(ref_squid, self.PULSES[name], boundary, True,
                              start=2.7e-12)


class TestExport:
    @pytest.fixture
    def small_traj(self, ref_squid, uniform):
        n = 32
        arr = make_array(n)
        dt = lattice.stable_timestep(arr, ref_squid, uniform)
        pk = lattice.gaussian_packet(arr, ref_squid, uniform,
                                     center=10 * CELL_LENGTH,
                                     sigma=3 * CELL_LENGTH,
                                     carrier_ka=0.3, amplitude=1e-6, dt=dt)
        return lattice.run(pk, arr, ref_squid, uniform,
                           lattice.SolverConfig(n_steps=40, dt=dt,
                                                record_every=10))

    def test_csv_layout(self, tmp_path, small_traj):
        path = tmp_path / "traj.csv"
        lattice.write_trajectory_csv(path, small_traj)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,node,A,I,V"
        assert len(lines) == 1 + 5 * 32
        first = lines[1].split(",")
        assert int(first[1]) == 0
        assert float(first[0]) == pytest.approx(small_traj.times[0], abs=0.0)

    def test_binary_roundtrip(self, tmp_path, small_traj):
        path = tmp_path / "traj.sqhz"
        lattice.write_trajectory_binary(path, small_traj)
        times, pots, currents, volts = lattice.read_trajectory_binary(path)
        np.testing.assert_array_equal(times, small_traj.times)
        np.testing.assert_array_equal(pots, small_traj.potentials)
        np.testing.assert_array_equal(currents, small_traj.currents)
        expected_v = np.diff(small_traj.potentials, axis=1, prepend=0.0)
        np.testing.assert_array_equal(volts, expected_v)

    def test_binary_bad_magic(self, tmp_path):
        path = tmp_path / "bad.sqhz"
        path.write_bytes(b"NOPE!" + b"\x00" * 20)
        with pytest.raises(errors.ParseError):
            lattice.read_trajectory_binary(path)

    def test_binary_truncated(self, tmp_path, small_traj):
        path = tmp_path / "trunc.sqhz"
        lattice.write_trajectory_binary(path, small_traj)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(errors.ParseError):
            lattice.read_trajectory_binary(path)

    def test_binary_truncated_header(self, tmp_path):
        path = tmp_path / "short.sqhz"
        path.write_bytes(b"SQHZ1\x00")
        with pytest.raises(errors.ParseError, match="truncated header"):
            lattice.read_trajectory_binary(path)
