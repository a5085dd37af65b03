import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import squid_horizon as sh
from squid_horizon import bias, errors
from squid_horizon.bias import (calibrate_broadening, comoving_flux_fraction,
                                 comoving_window, flux_fraction_at,
                                 front_window)
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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["amplitude", "dc_offset", "velocity",
                                       "steepness", "front_position",
                                       "broadening"])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            sh.FluxPulse(**{"amplitude": 0.2, field: value})


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

    def test_column_of_times_matches_each_time(self):
        # The photon budget evaluates its rows this way.
        times = np.linspace(0.0, 1.3e-9, 7)
        xi = np.linspace(-2.0e-4, 2.0e-4, 401)
        rows = comoving_flux_fraction(MIDDLE, xi, times[:, np.newaxis])
        for row, t in zip(rows, times):
            assert row.tobytes() == comoving_flux_fraction(
                MIDDLE, xi, t).tobytes()

    def test_webers(self, step_pulse):
        assert sh.comoving_flux(step_pulse, -1.0e-3, 0.0) == pytest.approx(
            0.2 * PHI0, rel=1e-12)


@st.composite
def pulses(draw):
    """Tanh fronts and Gaussian bumps, still or moving, with and without
    broadening, steepness spread over five decades."""
    return sh.FluxPulse(
        amplitude=draw(st.floats(0.0, 0.3)),
        dc_offset=draw(st.floats(0.0, 0.19)),
        velocity=draw(st.one_of(st.just(0.0), st.floats(1.0e3, 1.0e7))),
        steepness=10.0 ** draw(st.floats(3.0, 8.0)),
        front_position=draw(st.floats(-2.0e-3, 2.0e-3)),
        broadening=draw(st.one_of(st.just(0.0), st.floats(1.0, 1.0e5))),
        shape=draw(st.sampled_from(["tanh", "gaussian"])))


@st.composite
def sorted_grids(draw):
    """Uniform grids and sorted scattered points (ties allowed)."""
    if draw(st.booleans()):
        pitch = 10.0 ** draw(st.floats(-9.0, -5.0))
        return (draw(st.floats(-2.0e-3, 2.0e-3))
                + np.arange(draw(st.integers(1, 300))) * pitch)
    return np.sort(np.array(draw(st.lists(st.floats(-3.0e-3, 3.0e-3),
                                          min_size=1, max_size=300))))


MIDDLE = sh.FluxPulse(amplitude=0.2, dc_offset=0.05, velocity=3.7e6,
                      steepness=4.4e5, broadening=444.0)
LINE = (np.arange(4800) + 0.5) * 2.5e-7


class TestFrontWindow:
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=300)
    @given(pulse=pulses(), t=st.floats(0.0, 1.0e-9), positions=sorted_grids())
    @example(pulse=MIDDLE, t=1.6e-10, positions=LINE)
    @example(pulse=MIDDLE, t=1.6e-10, positions=LINE - 6.0e-4)
    @example(pulse=MIDDLE, t=0.0, positions=LINE + 1.0e-3)
    @example(pulse=MIDDLE, t=0.0, positions=LINE - 1.3e-3)
    @example(pulse=sh.FluxPulse(amplitude=0.2, steepness=1.0e3,
                                shape="gaussian"),
             t=0.0, positions=LINE - 6.0e-4)
    # Gaussian tails beyond 37 are tiny but not yet zero:
    @example(pulse=sh.FluxPulse(amplitude=0.2, steepness=1.0e6,
                                shape="gaussian"),
             t=0.0, positions=np.linspace(-4.5e-5, 4.5e-5, 9001))
    def test_outside_is_exactly_the_plateau(self, pulse, t, positions):
        lo, hi, left, right = front_window(pulse, t, positions)
        values = flux_fraction_at(pulse, positions, t)
        n = len(positions)
        assert 0 <= lo <= hi <= n
        assert values[:lo].tobytes() == np.full(lo, left).tobytes()
        assert values[hi:].tobytes() == np.full(n - hi, right).tobytes()
        # No wider than the unsaturated samples plus one on each side.
        centre = pulse.front_position + pulse.velocity * t
        reach = bias._SATURATION[pulse.shape]
        near = np.abs(positions - centre) * pulse.steepness_at(t)
        assert hi - lo <= np.count_nonzero(near <= reach * (1 + 1e-9)) + 2

    def test_plateaus_of_each_shape(self):
        tanh = sh.FluxPulse(amplitude=0.2, dc_offset=0.05)
        assert front_window(tanh, 0.0, LINE)[2:] == (0.25, 0.05)
        bump = sh.FluxPulse(amplitude=0.2, dc_offset=0.05, shape="gaussian")
        assert front_window(bump, 0.0, LINE)[2:] == (0.05, 0.05)

    def test_no_window_before_the_broadening_pole(self):
        # s0 / (1 + b*u*t) changes sign at t = -1/(b*u) = -1e-10 s.
        pulse = sh.FluxPulse(amplitude=0.2, velocity=1.0e6, steepness=4.4e5,
                             broadening=1.0e4)
        assert front_window(pulse, -0.5e-10, LINE)[0] == 0
        with pytest.raises(ValueError, match="broadening pole"):
            front_window(pulse, -2.0e-10, LINE)

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=200)
    @given(pulse=pulses(),
           times=st.lists(st.floats(0.0, 1.0e-9), min_size=1, max_size=8),
           positions=sorted_grids())
    @example(pulse=MIDDLE, times=[1.0e-10, 1.6e-10, 2.0e-10],
             positions=LINE)
    def test_times_give_the_union_window(self, pulse, times, positions):
        # The lattice kernel asks for one window per block of steps.
        each = [front_window(pulse, t, positions) for t in times]
        union = front_window(pulse, np.array(times), positions)
        assert union == (min(w[0] for w in each), max(w[1] for w in each),
                         each[0][2], each[0][3])

    @pytest.mark.parametrize("pulse", [
        MIDDLE, sh.FluxPulse(amplitude=0.2, dc_offset=0.05, velocity=3.7e6,
                             steepness=4.4e5, shape="gaussian")],
        ids=["broadening-tanh", "gaussian"])
    def test_column_of_times_matches_each_time(self, pulse):
        # The lattice kernel evaluates a block of half steps this way.
        times = 1.0e-10 + np.arange(64) * 1.3e-14 + 0.65e-14
        lo, hi = front_window(pulse, times, LINE)[:2]
        rows = flux_fraction_at(pulse, LINE[lo:hi], times[:, np.newaxis])
        assert rows.shape == (64, hi - lo)
        for row, t in zip(rows, times):
            assert row.tobytes() == flux_fraction_at(
                pulse, LINE[lo:hi], t).tobytes()

    def test_no_union_window_when_any_time_is_before_the_pole(self):
        pulse = sh.FluxPulse(amplitude=0.2, velocity=1.0e6, steepness=4.4e5,
                             broadening=1.0e4)
        times = np.array([0.0, -0.5e-10, -2.0e-10, 1.0e-10])
        with pytest.raises(ValueError,
                           match=r"at t = -2e-10 s: before the broadening"):
            front_window(pulse, times, LINE)
        assert front_window(pulse, times[:2], LINE)[0] == 0

    def test_window_follows_the_front(self):
        # At 1e-10 s and 2e-10 s the front is near cells 1480 and 2960,
        # and broadening has widened its window.
        lo0, hi0, _, _ = front_window(MIDDLE, 1.0e-10, LINE)
        lo1, hi1, _, _ = front_window(MIDDLE, 2.0e-10, LINE)
        assert lo0 < 1480 < hi0 < lo1 < 2960 < hi1
        assert hi1 - lo1 > hi0 - lo0


# The reference line in the comoving frame, centred on the front.
XI = LINE - 0.5 * 4800 * 2.5e-7


class TestComovingWindow:
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=300)
    @given(pulse=pulses(), t=st.floats(0.0, 1.0e-9), xi=sorted_grids())
    @example(pulse=MIDDLE, t=1.6e-10, xi=XI)
    @example(pulse=MIDDLE, t=1.3e-9, xi=XI)
    @example(pulse=MIDDLE, t=0.0, xi=XI + 3.0e-4)
    @example(pulse=MIDDLE, t=0.0, xi=XI - 6.0e-4)
    @example(pulse=sh.FluxPulse(amplitude=0.2, steepness=1.0e3,
                                shape="gaussian"),
             t=0.0, xi=XI)
    # Gaussian tails beyond 37 are tiny but not yet zero:
    @example(pulse=sh.FluxPulse(amplitude=0.2, velocity=1.0e6,
                                steepness=1.0e6, shape="gaussian"),
             t=1.0e-9, xi=np.linspace(-4.5e-5, 4.5e-5, 9001))
    def test_outside_is_exactly_the_plateau(self, pulse, t, xi):
        lo, hi, left, right = comoving_window(pulse, t, xi)
        values = comoving_flux_fraction(pulse, xi, t)
        n = len(xi)
        assert 0 <= lo <= hi <= n
        assert values[:lo].tobytes() == np.full(lo, left).tobytes()
        assert values[hi:].tobytes() == np.full(n - hi, right).tobytes()
        # No wider than the unsaturated samples plus one on each side.
        reach = bias._SATURATION[pulse.shape]
        near = np.abs(xi - pulse.front_position) * pulse.steepness_at(t)
        assert hi - lo <= np.count_nonzero(near <= reach * (1 + 1e-9)) + 2

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=100)
    @given(pulse=pulses(), t=st.floats(0.0, 1.0e-9),
           later=st.floats(0.0, 1.0e-9), xi=sorted_grids())
    @example(pulse=MIDDLE, t=0.0, later=1.3e-9, xi=XI)
    def test_later_window_covers_earlier(self, pulse, t, later, xi):
        # The front widens as t grows, so the photon budget needs only
        # the window of its last sample.
        t, later = sorted((t, later))
        lo, hi = comoving_window(pulse, t, xi)[:2]
        lo_late, hi_late = comoving_window(pulse, later, xi)[:2]
        assert lo_late <= lo and hi <= hi_late

    def test_centred_on_the_front_at_every_time(self):
        # The lab window moves with the front; the comoving one stays put
        # and only widens.
        lo0, hi0, _, _ = comoving_window(MIDDLE, 0.0, XI)
        lo1, hi1, _, _ = comoving_window(MIDDLE, 1.3e-9, XI)
        assert lo1 < lo0 < 2400 < hi0 < hi1
        assert lo0 + hi0 == lo1 + hi1 == 4800

    def test_same_plateaus_as_the_lab_frame(self):
        for pulse in (MIDDLE, sh.FluxPulse(amplitude=0.2, dc_offset=0.05,
                                           shape="gaussian")):
            assert (comoving_window(pulse, 0.0, XI)[2:]
                    == front_window(pulse, 0.0, LINE)[2:])

    def test_no_window_before_the_broadening_pole(self):
        pulse = sh.FluxPulse(amplitude=0.2, velocity=1.0e6, steepness=4.4e5,
                             broadening=1.0e4)
        with pytest.raises(ValueError, match="broadening pole"):
            comoving_window(pulse, -2.0e-10, XI)


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

    @pytest.mark.parametrize("delta, n", [(0.1, 1000), (0.3, 250),
                                          (0.01, 4800)])
    def test_closed_form(self, ref_array, ref_squid, step_pulse, delta, n):
        # T_H follows s0 / (1 + b u t), so the ratio at t = n a / u is
        # 1 / (1 + b n a).
        pulse = sh.FluxPulse(amplitude=0.2, velocity=step_pulse.velocity,
                             steepness=step_pulse.steepness)
        b = calibrate_broadening(pulse, ref_array, ref_squid,
                                 target_decay=delta, n_cells=n)
        assert b == pytest.approx(
            delta / ((1.0 - delta) * n * ref_array.cell_length), rel=1e-12)

    @pytest.mark.parametrize("n", [0, -1000])
    def test_no_root_without_travel(self, ref_array, ref_squid, step_pulse, n):
        pulse = sh.FluxPulse(amplitude=0.2, velocity=step_pulse.velocity,
                             steepness=step_pulse.steepness)
        with pytest.raises(errors.NoRoot):
            calibrate_broadening(pulse, ref_array, ref_squid,
                                 target_decay=0.1, n_cells=n)

    @pytest.mark.parametrize("velocity_share, delta, match", [
        (1.0, 1.5, "target_decay must lie in"),
        (0.0, 0.1, "needs a moving pulse"),
    ], ids=["decay-above-one", "still-pulse"])
    def test_bad_input_rejected(self, ref_array, ref_squid, step_pulse,
                                velocity_share, delta, match):
        pulse = sh.FluxPulse(amplitude=0.2,
                             velocity=velocity_share * step_pulse.velocity,
                             steepness=step_pulse.steepness)
        with pytest.raises(ValueError, match=match):
            calibrate_broadening(pulse, ref_array, ref_squid,
                                 target_decay=delta, n_cells=1000)

    def test_no_horizon_when_too_slow(self, ref_array, ref_squid, step_pulse):
        pulse = sh.FluxPulse(amplitude=0.2, velocity=0.5 * step_pulse.velocity,
                             steepness=step_pulse.steepness)
        with pytest.raises(errors.NoHorizon):
            calibrate_broadening(pulse, ref_array, ref_squid,
                                 target_decay=0.1, n_cells=1000)

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
        t0 = sh.hawking_temperature(sh.emitting_horizon(sh.find_horizons(prof0)))
        t1 = sh.hawking_temperature(sh.emitting_horizon(sh.find_horizons(prof1)))
        assert t1 / t0 == pytest.approx(1.0 - delta, abs=2e-3)
