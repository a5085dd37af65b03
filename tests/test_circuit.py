import math
import warnings

import numpy as np
import pytest
from scipy.constants import c as LIGHT_SPEED
from scipy.integrate import solve_ivp

import squid_horizon as sh
from squid_horizon import circuit, constants, errors
from squid_horizon.constants import FLUX_QUANTUM as PHI0, RESISTANCE_QUANTUM


class TestStaticRelations:
    def test_critical_current_unbiased(self, ref_squid):
        assert sh.squid_critical_current(ref_squid, 0.0) == pytest.approx(4.0e-6, rel=1e-12)

    def test_critical_current_biased(self, ref_squid):
        # 4e-6 * cos(0.2*pi) evaluated independently
        assert sh.squid_critical_current(ref_squid, 0.2 * PHI0) == pytest.approx(
            3.2360679774997897e-06, rel=1e-12)

    @pytest.mark.parametrize("fraction", [0.5, -0.5, 0.7, -1.2, math.nan])
    def test_critical_current_flux_range(self, ref_squid, fraction):
        with pytest.raises(errors.FluxOutOfRange):
            sh.squid_critical_current(ref_squid, fraction * PHI0)

    def test_critical_current_near_edge_ok(self, ref_squid):
        assert sh.squid_critical_current(ref_squid, 0.4999 * PHI0) > 0.0

    def test_plasma_frequency_reference(self, ref_squid):
        # Capacitance was chosen to put the zero-flux plasma frequency at 1 THz.
        omega = sh.effective_plasma_frequency(ref_squid, 0.0)
        assert omega / (2.0 * math.pi) == pytest.approx(1.0e12, rel=1e-9)

    def test_plasma_frequency_quoted_capacitance(self):
        # The rounded 0.154 fF capacitance still lands within half a percent.
        jj = sh.JunctionParams(critical_current=2.0e-6, capacitance=1.539e-16)
        sq = sh.SquidParams(junction=jj, loop_inductance=1.0e-11)
        omega = sh.effective_plasma_frequency(sq, 0.0)
        assert omega / (2.0 * math.pi) == pytest.approx(1.0e12, rel=5e-3)

    @pytest.mark.parametrize("fraction", [0.0, 0.1, 0.2, 0.3, 0.45])
    def test_plasma_frequency_flux_scaling(self, ref_squid, fraction):
        ratio = (sh.effective_plasma_frequency(ref_squid, fraction * PHI0) /
                 sh.effective_plasma_frequency(ref_squid, 0.0))
        assert ratio == pytest.approx(math.sqrt(math.cos(math.pi * fraction)), rel=1e-12)

    def test_inductance_zero_current(self, ref_squid):
        # Phi_0 / (2*pi*4e-6) = 82.28 pH
        assert sh.josephson_inductance(ref_squid, 0.0) == pytest.approx(
            8.227649461886334e-11, rel=1e-12)

    @pytest.mark.parametrize("fraction", [0.0, 0.15, 0.3, 0.45, -0.3])
    def test_inductance_critical_current_product(self, ref_squid, fraction):
        # L(0, flux) * I_c^s(flux) = Phi_0 / (2*pi) independent of flux
        flux = fraction * PHI0
        product = (sh.josephson_inductance(ref_squid, flux) *
                   sh.squid_critical_current(ref_squid, flux))
        assert product == pytest.approx(PHI0 / (2.0 * math.pi), rel=1e-14)

    def test_cell_velocity_reference(self, ref_array, ref_squid):
        c = sh.cell_velocity(ref_array, ref_squid, 0.0)
        assert c == pytest.approx(3.897778146429868e6, rel=1e-12)
        # two orders of magnitude under light speed, within the target band
        assert LIGHT_SPEED / 120.0 <= c <= LIGHT_SPEED / 60.0

    def test_junction_energies(self, ref_squid):
        e_j, e_c = sh.junction_energies(ref_squid, 0.0)
        assert e_j == pytest.approx(1.3164239139018133e-21, rel=1e-12)
        assert e_c == pytest.approx(4.1686126372240996e-23, rel=1e-12)
        assert e_j / e_c == pytest.approx(31.58, rel=1e-3)

    @pytest.mark.parametrize("loop_l, expected", [(1.0e-11, 0.0608), (1.0e-9, 6.08)])
    def test_beta_l(self, ref_junction, loop_l, expected):
        sq = sh.SquidParams(junction=ref_junction, loop_inductance=loop_l)
        assert sh.beta_l(sq) == pytest.approx(expected, rel=2e-3)

    def test_resistance_quantum(self):
        assert RESISTANCE_QUANTUM == pytest.approx(6.45e3, rel=1e-3)

    def test_constants_are_scipy_values_bit_for_bit(self):
        # The package writes the SI values as literals so that importing it
        # loads no scipy; they must stay the very floats scipy.constants has.
        from scipy import constants as sc
        pairs = [(constants._h, sc.h), (constants.ELECTRON_CHARGE, sc.e),
                 (constants.HBAR, sc.hbar), (constants.BOLTZMANN, sc.k),
                 (constants.FLUX_QUANTUM, sc.h / (2.0 * sc.e)),
                 (constants.RESISTANCE_QUANTUM, sc.h / (2.0 * sc.e) ** 2)]
        for ours, theirs in pairs:
            assert float(ours).hex() == float(theirs).hex()

    @pytest.mark.parametrize("c0, expected", [
        (1.0e-16, 0.624),
        (5.0e-17, 0.883),
        (1.0e-17, 1.974),
        (5.0e-18, 2.791),
    ])
    def test_array_impedance_zero_flux(self, ref_squid, c0, expected):
        arr = sh.ArrayParams(n_cells=4800, cell_length=2.5e-7, ground_capacitance=c0)
        ratio = sh.array_impedance(arr, ref_squid, 0.0) / RESISTANCE_QUANTUM
        assert ratio == pytest.approx(expected, rel=1e-2)

    def test_array_impedance_near_half_quantum(self, ref_array, ref_squid):
        ratio = sh.array_impedance(ref_array, ref_squid, 0.45 * PHI0) / RESISTANCE_QUANTUM
        assert ratio == pytest.approx(2.23, rel=1e-2)

    @pytest.mark.parametrize("fraction", [0.0, 0.1, 0.25, 0.4, 0.45])
    def test_impedance_flux_invariant(self, ref_array, ref_squid, fraction):
        # Z_A^2 * cos(pi*flux/Phi_0) does not depend on the flux
        z0 = sh.array_impedance(ref_array, ref_squid, 0.0)
        z = sh.array_impedance(ref_array, ref_squid, fraction * PHI0)
        assert z * z * math.cos(math.pi * fraction) == pytest.approx(z0 * z0, rel=1e-12)


class TestParameterValidation:
    VALID = {
        "JunctionParams": {"critical_current": 2e-6, "capacitance": 1.5e-16,
                           "normal_resistance": 100.0},
        "SquidParams": {"junction": sh.JunctionParams(2e-6, 1.5e-16),
                        "loop_inductance": 1e-11},
        "ArrayParams": {"n_cells": 10, "cell_length": 2.5e-7,
                        "ground_capacitance": 5e-17,
                        "environment_impedance": 50.0},
    }
    FIELDS = [(name, field) for name, kwargs in VALID.items()
              for field, value in kwargs.items() if isinstance(value, float)]

    def test_valid_parameters_accepted(self):
        for name, kwargs in self.VALID.items():
            getattr(sh, name)(**kwargs)

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name, field", FIELDS)
    def test_negative_or_non_finite_rejected(self, name, field, value):
        with pytest.raises(ValueError, match=field):
            getattr(sh, name)(**{**self.VALID[name], field: value})


    @pytest.mark.parametrize("value", [10.5, 10.0, math.nan, math.inf, "10"])
    def test_non_integral_cell_count_rejected(self, value):
        with pytest.raises(ValueError, match="n_cells"):
            sh.ArrayParams(**{**self.VALID["ArrayParams"], "n_cells": value})

    def test_numpy_integer_cell_count_accepted(self):
        arr = sh.ArrayParams(**{**self.VALID["ArrayParams"],
                                "n_cells": np.int64(10)})
        assert arr.n_cells == 10

class TestInductanceStretch:
    """The current law L(I) = L(0) asin(r)/r at r = I/I_c^s, which the
    leapfrog kernel applies through its inverse,
    inverse_inductance_stretch."""

    def test_half_pi_at_critical_current(self):
        np.testing.assert_allclose(
            1.0 / circuit.inverse_inductance_stretch(np.array([1.0, -1.0])),
            0.5 * math.pi, rtol=1e-12)

    def test_series_branch_continuous(self):
        # Straddle the 1e-6 switch to the series 1 - r^2/6.
        lo, hi = circuit.inverse_inductance_stretch(
            np.array([0.99e-6, 1.01e-6]))
        assert lo == pytest.approx(hi, rel=1e-12)
        assert circuit.inverse_inductance_stretch(np.array([0.0]))[0] == 1.0

    def test_monotone_in_current(self):
        inverse = circuit.inverse_inductance_stretch(
            np.linspace(0.0, 1.0, 101))
        assert np.all(np.diff(inverse) <= 0.0)

    def test_array_matches_elementwise_calls(self):
        # Relative currents on both sides of the 1e-6 series switch, up to
        # the critical current itself.
        rng = np.random.default_rng(5)
        ratios = np.concatenate([rng.uniform(-1.0, 1.0, 48),
                                 [0.0, 1.0, -1.0, 1e-7, -5e-7, 2e-6,
                                  0.999999, 0.5, 1e-3, -1e-3, 0.0, 0.1,
                                  0.9, -0.9, 1e-12, 0.3]])
        single = [circuit.inverse_inductance_stretch(np.array([r]))[0]
                  for r in ratios]
        np.testing.assert_array_equal(
            circuit.inverse_inductance_stretch(ratios), single)


class TestArrayInputs:
    """The static relations take a float or an array of flux; element i of
    an array call equals the scalar call on element i."""

    FRACTIONS = np.concatenate([np.linspace(-0.499, 0.499, 157),
                                [0.0, -0.0, 1e-9, 0.4999999, 0.2, 0.141733]])

    @staticmethod
    def assert_elementwise(func, *arrays):
        result = func(*arrays)
        scalars = [func(*(float(a[i]) for a in arrays))
                   for i in range(len(arrays[0]))]
        assert isinstance(result, np.ndarray)
        assert all(isinstance(v, float) for v in scalars)
        np.testing.assert_array_equal(result, np.array(scalars))

    @pytest.fixture
    def relations(self, ref_array, ref_squid):
        return {
            "squid_critical_current":
                lambda f: sh.squid_critical_current(ref_squid, f * PHI0),
            "josephson_inductance":
                lambda f: sh.josephson_inductance(ref_squid, f * PHI0),
            "cell_time":
                lambda f: sh.cell_time(ref_array, ref_squid, f * PHI0),
            "cell_velocity":
                lambda f: sh.cell_velocity(ref_array, ref_squid, f * PHI0),
            "array_impedance":
                lambda f: sh.array_impedance(ref_array, ref_squid, f * PHI0),
            "relative_inductance": circuit.relative_inductance,
        }

    @pytest.mark.parametrize("name", ["squid_critical_current",
                                      "josephson_inductance", "cell_time",
                                      "cell_velocity", "array_impedance",
                                      "relative_inductance"])
    def test_flux_array_matches_scalar_calls(self, relations, name):
        self.assert_elementwise(relations[name], self.FRACTIONS)

    def test_relative_inductance_is_the_scaled_law(self, ref_squid):
        # 1/cos(pi f) against L(f)/L(0) from the unscaled relation, away
        # from the pole, where f * Phi_0 / Phi_0 rounding is not magnified.
        f = self.FRACTIONS[np.abs(self.FRACTIONS) <= 0.45]
        scaled = (sh.josephson_inductance(ref_squid, f * PHI0)
                  / sh.josephson_inductance(ref_squid, 0.0))
        np.testing.assert_allclose(circuit.relative_inductance(f), scaled,
                                   rtol=1e-14)
        assert circuit.relative_inductance(0.0) == 1.0

    def test_cell_velocity_is_length_over_cell_time(self, ref_array,
                                                     ref_squid):
        flux = self.FRACTIONS * PHI0
        time = sh.cell_time(ref_array, ref_squid, flux)
        np.testing.assert_array_equal(
            sh.cell_velocity(ref_array, ref_squid, flux),
            ref_array.cell_length / time)
        for f, t in zip(flux, time):
            assert (sh.cell_velocity(ref_array, ref_squid, float(f)) ==
                    ref_array.cell_length / float(t))

    @pytest.mark.parametrize("name", ["squid_critical_current",
                                      "josephson_inductance", "cell_velocity",
                                      "array_impedance"])
    def test_one_flux_out_of_range_raises(self, relations, name):
        fractions = np.array([0.1, -0.2, 0.3, -0.5001, 0.6, 0.0])
        with pytest.raises(errors.FluxOutOfRange,
                           match=r"flux -0.5001 Phi_0 outside the open "
                                 r"interval \(-0.5, 0.5\)"):
            relations[name](fractions)
        fractions[3] = math.nan  # fails the range check, 0.6 comes after
        with pytest.raises(errors.FluxOutOfRange,
                           match=r"flux nan Phi_0 outside the open "
                                 r"interval \(-0.5, 0.5\)"):
            relations[name](fractions)

    @pytest.mark.parametrize("flux", [0.1 * PHI0,
                                      np.array([0.0, 0.1, 0.2]) * PHI0],
                             ids=["float", "array"])
    @pytest.mark.parametrize("name", ["cell_velocity", "array_impedance"])
    def test_underflowing_capacitance_is_non_finite(self, ref_squid, flux,
                                                    name):
        tiny = sh.ArrayParams(n_cells=16, cell_length=2.5e-7,
                              ground_capacitance=1e-320)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.NonFinite, match="not finite"):
                getattr(sh, name)(tiny, ref_squid, flux)


class TestValidityReport:
    def test_reference_design_passes(self, ref_array, ref_squid, step_pulse):
        report = sh.validity_report(ref_array, ref_squid, step_pulse,
                                    max_signal_frequency=5.0e10)
        assert report.overall_pass
        names = [c.name for c in report.checks]
        assert names == ["screening", "signal_band", "peak_flux",
                         "impedance", "energy_ratio", "pulse_speed"]

    def test_pass_iff_value_within_threshold(self, ref_array, ref_squid, step_pulse):
        report = sh.validity_report(ref_array, ref_squid, step_pulse,
                                    max_signal_frequency=5.0e10)
        for check in report.checks:
            assert check.passed == (check.value <= check.threshold)

    def test_large_loop_flagged_not_raised(self, ref_junction, ref_array, step_pulse):
        sq = sh.SquidParams(junction=ref_junction, loop_inductance=1.0e-9)
        report = sh.validity_report(ref_array, sq, step_pulse,
                                    max_signal_frequency=5.0e10)
        assert not {c.name: c for c in report.checks}["screening"].passed
        assert not report.overall_pass

    def test_small_cell_capacitance_fails_impedance(self, ref_squid, step_pulse):
        arr = sh.ArrayParams(n_cells=4800, cell_length=2.5e-7,
                             ground_capacitance=5.0e-18)
        report = sh.validity_report(arr, ref_squid, step_pulse,
                                    max_signal_frequency=5.0e10)
        assert not {c.name: c for c in report.checks}["impedance"].passed

    def test_superluminal_pulse_flagged(self, ref_array, ref_squid):
        c = sh.cell_velocity(ref_array, ref_squid, 0.0)
        pulse = sh.FluxPulse(amplitude=0.2, velocity=1.05 * c, steepness=4.4e5)
        report = sh.validity_report(ref_array, ref_squid, pulse,
                                    max_signal_frequency=5.0e10)
        assert not {c.name: c for c in report.checks}["pulse_speed"].passed

    def test_fast_signal_flagged(self, ref_array, ref_squid, step_pulse):
        report = sh.validity_report(ref_array, ref_squid, step_pulse,
                                    max_signal_frequency=1.0e12)
        assert not {c.name: c for c in report.checks}["signal_band"].passed


def _full_rhs_reference(squid, drive, flux_ext, delta):
    """Independent right-hand side for solve_ivp cross-checks.

    Integrates in plasma time tau = omega_p t, with phase rates in units of
    omega_p, so that an absolute tolerance means the same thing for phases
    and rates.  ``drive`` and ``flux_ext`` still take SI time.
    """
    jj = squid.junction
    omega_p = math.sqrt(2.0 * math.pi * jj.critical_current /
                        (jj.capacitance * PHI0))
    bl = (2.0 * math.pi * squid.loop_inductance * jj.critical_current / PHI0)

    def rhs(tau, y):
        gp, gm, dgp, dgm = y
        t = tau / omega_p
        ibar = drive(t) / (2.0 * jj.critical_current)
        fbar = 2.0 * math.pi * flux_ext(t) / PHI0
        return [
            dgp,
            dgm,
            ibar - math.cos(gm) * math.sin(gp) - delta * dgp,
            (fbar - 2.0 * gm) / bl - math.cos(gp) * math.sin(gm) - delta * dgm,
        ]

    return rhs, omega_p


class TestSingleSquidDynamics:
    def test_settles_to_arcsine_fixed_point(self, ref_junction):
        # near-critical damping pulls the phase onto sin(g) = I/(2 I_c)
        jj = sh.JunctionParams(critical_current=2.0e-6,
                               capacitance=1.539339760883361e-16,
                               normal_resistance=1000.0)
        sq = sh.SquidParams(junction=jj, loop_inductance=1.0e-11)
        omega_p = math.sqrt(2.0 * math.pi * jj.critical_current / (jj.capacitance * PHI0))
        dt = 0.02 / omega_p
        drive = 1.0e-6
        traj = sh.single_squid_dynamics(sq, drive, 0.0, sh.SquidState(),
                                        dt=dt, n_steps=5000)
        target = math.asin(drive / (2.0 * jj.critical_current))
        assert traj.common_phase[-1] == pytest.approx(target, abs=1e-6)
        assert abs(traj.circulating_phase[-1]) < 1e-9

        delta = omega_p / (2.0 * math.pi * jj.critical_current * jj.normal_resistance / PHI0)
        rhs, _ = _full_rhs_reference(sq, lambda t: drive, lambda t: 0.0, delta)
        tau_end = omega_p * traj.times[-1]
        sol = solve_ivp(rhs, (0.0, tau_end), [0.0, 0.0, 0.0, 0.0],
                        method="RK45", rtol=1e-11, atol=1e-14,
                        t_eval=[tau_end])
        assert traj.common_phase[-1] == pytest.approx(sol.y[0, -1], abs=1e-8)

    def test_circulating_phase_tracks_slow_flux(self, ref_junction):
        jj = sh.JunctionParams(critical_current=2.0e-6,
                               capacitance=1.539339760883361e-16,
                               normal_resistance=1000.0)
        # loop sized for beta_L = 0.01
        loop = 0.01 * PHI0 / (2.0 * math.pi * jj.critical_current)
        sq = sh.SquidParams(junction=jj, loop_inductance=loop)
        assert sh.beta_l(sq) == pytest.approx(0.01, rel=1e-12)

        # A 0.3 Phi_0 step at t = 0: the damped circulating phase settles
        # onto pi times the flux fraction.
        omega_p = math.sqrt(2.0 * math.pi * jj.critical_current / (jj.capacitance * PHI0))
        dt = 0.02 / omega_p
        traj = sh.single_squid_dynamics(sq, 0.0, 0.3 * PHI0, sh.SquidState(),
                                        dt=dt, n_steps=25000)
        target = math.pi * 0.3
        assert traj.circulating_phase[-1] == pytest.approx(target, rel=0.02)

    def test_timestep_guard(self, ref_squid):
        jj = ref_squid.junction
        omega_p = math.sqrt(2.0 * math.pi * jj.critical_current / (jj.capacitance * PHI0))
        with pytest.raises(ValueError):
            sh.single_squid_dynamics(ref_squid, 0.0, 0.0, sh.SquidState(),
                                     dt=0.2 / omega_p, n_steps=10)

    @pytest.mark.parametrize("integrator", ["full", "reduced"])
    @pytest.mark.parametrize("settings, match", [
        ({"n_steps": 2.5}, "n_steps must be an integer of at least 1"),
        ({"n_steps": 0}, "n_steps must be an integer of at least 1"),
        ({"n_steps": -3}, "n_steps must be an integer of at least 1"),
        ({"dt": -1.0e-15}, "dt must be positive and finite"),
        ({"dt": 0.0}, "dt must be positive and finite"),
        ({"dt": math.nan}, "dt must be positive and finite"),
    ], ids=["fractional-steps", "zero-steps", "negative-steps",
            "negative-dt", "zero-dt", "nan-dt"])
    def test_step_settings_checked(self, ref_squid, integrator, settings,
                                   match):
        # Worded as SolverConfig words its own; a negative dt would
        # integrate backwards.
        args = dict(dt=0.02 / sh.effective_plasma_frequency(ref_squid, 0.0),
                    n_steps=10)
        args.update(settings)
        with pytest.raises(ValueError, match=match):
            if integrator == "full":
                sh.single_squid_dynamics(ref_squid, 0.0, 0.0, sh.SquidState(),
                                         **args)
            else:
                sh.reduced_junction_dynamics(ref_squid, 0.0, 0.0,
                                             initial_phase=0.0,
                                             initial_rate=0.0, **args)

    def test_non_finite_detected(self, ref_squid):
        jj = ref_squid.junction
        omega_p = math.sqrt(2.0 * math.pi * jj.critical_current / (jj.capacitance * PHI0))
        for current, flux in ((math.inf, 0.0), (0.0, math.nan)):
            with pytest.raises(errors.NonFinite, match="not finite"):
                sh.single_squid_dynamics(ref_squid, current, flux,
                                         sh.SquidState(), dt=0.02 / omega_p,
                                         n_steps=2000)

    @pytest.mark.parametrize("field", ["common_phase", "circulating_phase",
                                       "common_rate", "circulating_rate"])
    def test_non_finite_initial_state_rejected(self, ref_squid, field):
        omega_p = sh.effective_plasma_frequency(ref_squid, 0.0)
        with pytest.raises(errors.NonFinite, match="initial state"):
            sh.single_squid_dynamics(ref_squid, 0.0, 0.0,
                                     sh.SquidState(**{field: math.inf}),
                                     dt=0.02 / omega_p, n_steps=10)

    def test_zero_loop_inductance_rejected(self, ref_junction):
        sq = sh.SquidParams(junction=ref_junction, loop_inductance=0.0)
        omega_p = sh.effective_plasma_frequency(sq, 0.0)
        with pytest.raises(ValueError, match="positive loop inductance"):
            sh.single_squid_dynamics(sq, 0.0, 0.0, sh.SquidState(),
                                     dt=0.02 / omega_p, n_steps=10)

    @pytest.mark.parametrize("drive", [np.zeros(11), [0.0] * 11,
                                       lambda t: 0.0],
                             ids=["array", "list", "callable"])
    def test_sampled_drive_refused(self, ref_squid, drive):
        # A drive is a constant, never samples or a function of t.
        omega_p = sh.effective_plasma_frequency(ref_squid, 0.0)
        with pytest.raises(TypeError):
            sh.single_squid_dynamics(ref_squid, drive, 0.0, sh.SquidState(),
                                     dt=0.02 / omega_p, n_steps=10)


class TestReducedDynamics:
    @pytest.mark.parametrize("fraction", [0.0, 0.2])
    def test_small_oscillation_frequency(self, ref_squid, fraction):
        flux = fraction * PHI0
        omega = sh.effective_plasma_frequency(ref_squid, flux)
        dt = 0.02 / omega
        traj = sh.reduced_junction_dynamics(ref_squid, 0.0, flux,
                                            initial_phase=1.0e-3, initial_rate=0.0,
                                            dt=dt, n_steps=40000)
        # zero crossings of the phase give the oscillation period
        sign = np.sign(traj.phase)
        idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
        crossings = traj.times[idx] - traj.phase[idx] * (
            (traj.times[idx + 1] - traj.times[idx]) /
            (traj.phase[idx + 1] - traj.phase[idx]))
        periods = 2.0 * np.diff(crossings)
        measured = 2.0 * math.pi / periods.mean()
        assert measured == pytest.approx(omega, rel=1e-3)

    def test_energy_drift_bound(self, ref_squid):
        omega = sh.effective_plasma_frequency(ref_squid, 0.0)
        traj = sh.reduced_junction_dynamics(ref_squid, 0.0, 0.0,
                                            initial_phase=1.0e-3, initial_rate=0.0,
                                            dt=0.02 / omega, n_steps=10000)
        assert traj.energy_drift < 1.0e-8

    def test_moderate_amplitude_energy_bounded(self, ref_squid):
        omega = sh.effective_plasma_frequency(ref_squid, 0.0)
        traj = sh.reduced_junction_dynamics(ref_squid, 0.0, 0.0,
                                            initial_phase=0.5, initial_rate=0.0,
                                            dt=0.02 / omega, n_steps=20000)
        spread = np.ptp(traj.energy) / abs(traj.energy[0])
        assert spread < 1.0e-4

    def test_overcritical_drive_runs(self, ref_squid):
        ics = sh.squid_critical_current(ref_squid, 0.0)
        omega = sh.effective_plasma_frequency(ref_squid, 0.0)
        traj = sh.reduced_junction_dynamics(ref_squid, 1.5 * ics, 0.0,
                                            initial_phase=0.0, initial_rate=0.0,
                                            dt=0.02 / omega, n_steps=5000)
        assert abs(traj.phase[-1] - traj.phase[0]) > 4.0 * math.pi
        assert traj.phase[-1] > 4.0 * math.pi

    def test_timestep_guard(self, ref_squid):
        omega = sh.effective_plasma_frequency(ref_squid, 0.0)
        with pytest.raises(ValueError, match="dt must satisfy"):
            sh.reduced_junction_dynamics(ref_squid, 0.0, 0.0, initial_phase=0.0,
                                         initial_rate=0.0, dt=0.2 / omega,
                                         n_steps=10)

    @pytest.mark.parametrize("inputs, match", [
        ({"initial_rate": math.inf}, "initial state"),
        ({"initial_phase": math.inf}, "initial state"),
        ({"drive_current": math.inf}, "drive current is not finite"),
        ({"initial_rate": 1.0e200}, "non-finite samples"),
    ], ids=["inf-rate", "inf-phase", "inf-drive", "huge-rate"])
    def test_non_finite_raises(self, ref_squid, inputs, match):
        omega = sh.effective_plasma_frequency(ref_squid, 0.0)
        args = dict(drive_current=0.0, external_flux=0.0, initial_phase=0.1,
                    initial_rate=0.0, dt=0.02 / omega, n_steps=10)
        args.update(inputs)
        with pytest.raises(errors.NonFinite, match=match):
            sh.reduced_junction_dynamics(ref_squid, **args)

    def test_subcritical_drive_stays_bound(self, ref_squid):
        ics = sh.squid_critical_current(ref_squid, 0.0)
        omega = sh.effective_plasma_frequency(ref_squid, 0.0)
        traj = sh.reduced_junction_dynamics(ref_squid, 0.5 * ics, 0.0,
                                            initial_phase=0.0, initial_rate=0.0,
                                            dt=0.02 / omega, n_steps=5000)
        assert abs(traj.phase[-1] - traj.phase[0]) <= 4.0 * math.pi


def _equilibrium_circulating(flux_fraction, beta, common_phase=0.0):
    gm = math.pi * flux_fraction
    for _ in range(80):
        gm = math.pi * flux_fraction - 0.5 * beta * math.cos(common_phase) * math.sin(gm)
    return gm


class TestModelReduction:
    def test_full_matches_reduced_at_small_screening(self, ref_junction):
        # 20 oscillation periods at beta_L = 0.01, no damping, flux 0.2 Phi_0
        beta = 0.01
        loop = beta * PHI0 / (2.0 * math.pi * ref_junction.critical_current)
        sq = sh.SquidParams(junction=ref_junction, loop_inductance=loop)
        flux = 0.2 * PHI0
        amp = 5.0e-4

        gm0 = _equilibrium_circulating(0.2, beta)
        omega_ps = sh.effective_plasma_frequency(sq, flux)
        omega_p = math.sqrt(2.0 * math.pi * ref_junction.critical_current /
                            (ref_junction.capacitance * PHI0))
        dt = 0.02 / omega_p
        n = int(round(20.0 * 2.0 * math.pi / omega_ps / dt))

        full = sh.single_squid_dynamics(sq, 0.0, flux,
                                        sh.SquidState(common_phase=amp,
                                                      circulating_phase=gm0),
                                        dt=dt, n_steps=n)
        red = sh.reduced_junction_dynamics(sq, 0.0, flux,
                                           initial_phase=amp, initial_rate=0.0,
                                           dt=dt, n_steps=n)
        diff = np.max(np.abs(full.common_phase - red.phase))
        assert diff < 5.0e-4
