import numpy as np
import pytest

import squid_horizon as sh
from squid_horizon import errors
from squid_horizon.bias import calibrate_broadening, comoving_flux_fraction, flux_fraction_at
from squid_horizon.constants import FLUX_QUANTUM as PHI0


class TestPulseValidation:
    def test_amplitude_plus_offset_capped(self):
        with pytest.raises(errors.FluxOutOfRange):
            sh.FluxPulse(amplitude=0.45, dc_offset=0.1)

    def test_negative_steepness_rejected(self):
        with pytest.raises(ValueError):
            sh.FluxPulse(amplitude=0.2, steepness=-1.0)

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError):
            sh.FluxPulse(amplitude=0.2, shape="sawtooth")

    def test_zero_velocity_allowed(self):
        pulse = sh.FluxPulse(amplitude=0.2, velocity=0.0)
        assert pulse.velocity == 0.0

    def test_negative_velocity_rejected(self):
        with pytest.raises(ValueError):
            sh.FluxPulse(amplitude=0.2, velocity=-1.0)


class TestTanhProfile:
    def test_plateau_behind_front(self, step_pulse):
        # far behind the moving front the bias saturates at the full amplitude
        frac = flux_fraction_at(step_pulse, -1.0e-3, 0.0)
        assert frac == pytest.approx(0.2, rel=1e-12)

    def test_zero_far_ahead(self, step_pulse):
        assert flux_fraction_at(step_pulse, 1.0e-3, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_half_amplitude_at_front(self, step_pulse):
        assert flux_fraction_at(step_pulse, 0.0, 0.0) == pytest.approx(0.1, rel=1e-12)

    def test_monotone_decreasing(self, step_pulse):
        x = np.linspace(-5.0e-5, 5.0e-5, 2001)
        values = flux_fraction_at(step_pulse, x, 0.0)
        assert np.all(np.diff(values) <= 0.0)

    def test_front_translates_at_pulse_speed(self, step_pulse):
        t = 3.7e-10
        shift = step_pulse.velocity * t
        x = np.linspace(-2.0e-5, 2.0e-5, 501)
        early = flux_fraction_at(step_pulse, x, 0.0)
        late = flux_fraction_at(step_pulse, x + shift, t)
        np.testing.assert_allclose(late, early, rtol=0, atol=1e-14)

    def test_dc_offset_additive(self):
        pulse = sh.FluxPulse(amplitude=0.2, dc_offset=0.05, velocity=1.0e6,
                             steepness=4.4e5)
        assert flux_fraction_at(pulse, 1.0e-3, 0.0) == pytest.approx(0.05, rel=1e-12)
        assert flux_fraction_at(pulse, -1.0e-3, 0.0) == pytest.approx(0.25, rel=1e-12)


class TestGaussianProfile:
    def test_peak_at_front_position(self):
        pulse = sh.FluxPulse(amplitude=0.3, velocity=1.0e6, steepness=1.0e5,
                             shape="gaussian")
        assert flux_fraction_at(pulse, 0.0, 0.0) == pytest.approx(0.3, rel=1e-12)

    def test_symmetric_tails(self):
        pulse = sh.FluxPulse(amplitude=0.3, velocity=1.0e6, steepness=1.0e5,
                             shape="gaussian")
        left = flux_fraction_at(pulse, -7.0e-6, 0.0)
        right = flux_fraction_at(pulse, 7.0e-6, 0.0)
        assert left == pytest.approx(right, rel=1e-12)
        assert left < 0.3


class TestComovingFrame:
    def test_matches_lab_frame(self, step_pulse):
        t = 2.2e-10
        xi = np.linspace(-2.0e-5, 2.0e-5, 301)
        lab = flux_fraction_at(step_pulse, xi + step_pulse.velocity * t, t)
        com = comoving_flux_fraction(step_pulse, xi, t)
        np.testing.assert_allclose(com, lab, rtol=0, atol=1e-14)

    def test_static_without_broadening(self, step_pulse):
        xi = np.linspace(-2.0e-5, 2.0e-5, 301)
        early = comoving_flux_fraction(step_pulse, xi, 0.0)
        late = comoving_flux_fraction(step_pulse, xi, 1.0e-6)
        # bitwise identical when the front keeps its shape
        assert np.array_equal(early, late)

    def test_webers(self, step_pulse):
        assert sh.comoving_flux(step_pulse, -1.0e-3, 0.0) == pytest.approx(
            0.2 * PHI0, rel=1e-12)


class TestBroadening:
    def test_steepness_decays(self, step_pulse):
        pulse = sh.FluxPulse(amplitude=0.2, velocity=step_pulse.velocity,
                             steepness=step_pulse.steepness, broadening=400.0)
        t = 1.0e-9
        expected = step_pulse.steepness / (1.0 + 400.0 * pulse.velocity * t)
        assert pulse.steepness_at(t) == pytest.approx(expected, rel=1e-12)

    def test_front_height_preserved(self, step_pulse):
        pulse = sh.FluxPulse(amplitude=0.2, velocity=step_pulse.velocity,
                             steepness=step_pulse.steepness, broadening=400.0)
        # broadening stretches the front but the mid-point value stays put
        assert comoving_flux_fraction(pulse, 0.0, 5.0e-10) == pytest.approx(0.1, rel=1e-12)


class TestBroadeningCalibration:
    def test_matches_analytic_rate(self, ref_array, ref_squid, step_pulse):
        # pick the broadening that drops the horizon gradient by 10 percent
        # after the front crosses 1000 cells; the closed-form answer for a
        # tanh front is delta / ((1 - delta) * n * a) = 4000/9 per metre
        pulse = sh.FluxPulse(amplitude=0.2, velocity=step_pulse.velocity,
                             steepness=step_pulse.steepness)
        b = calibrate_broadening(pulse, ref_array, ref_squid,
                                 target_decay=0.1, n_cells=1000)
        assert b == pytest.approx(4000.0 / 9.0, rel=1e-3)

    def test_no_root_when_unreachable(self, ref_array, ref_squid, step_pulse):
        pulse = sh.FluxPulse(amplitude=0.2, velocity=step_pulse.velocity,
                             steepness=step_pulse.steepness)
        with pytest.raises(errors.NoRoot):
            calibrate_broadening(pulse, ref_array, ref_squid,
                                 target_decay=1.0 - 1e-12, n_cells=1)

    def test_calibrated_pulse_hits_target(self, ref_array, ref_squid, step_pulse):
        delta = 0.1
        n = 1000
        pulse = sh.FluxPulse(amplitude=0.2, velocity=step_pulse.velocity,
                             steepness=step_pulse.steepness)
        b = calibrate_broadening(pulse, ref_array, ref_squid,
                                 target_decay=delta, n_cells=n)
        cal = sh.FluxPulse(amplitude=0.2, velocity=pulse.velocity,
                           steepness=pulse.steepness, broadening=b)
        t_star = n * ref_array.cell_length / pulse.velocity

        prof0 = sh.velocity_profile(ref_array, ref_squid, cal, time=0.0)
        prof1 = sh.velocity_profile(ref_array, ref_squid, cal, time=t_star)
        t0 = sh.hawking_temperature(prof0)
        t1 = sh.hawking_temperature(prof1)
        assert t1 / t0 == pytest.approx(1.0 - delta, abs=2e-3)
