import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import squid_horizon as sh
from squid_horizon import errors
from squid_horizon.bias import comoving_flux_fraction
from squid_horizon.constants import BOLTZMANN, HBAR

from conftest import (REF_CELL_LENGTH, REF_CELL_SPEED,
                      REF_CRITICAL_CURRENT, REF_GROUND_CAPACITANCE,
                      REF_JUNCTION_CAPACITANCE, REF_LOOP_INDUCTANCE,
                      REF_PULSE_SPEED, REF_STEEPNESS)


# Reproducible property runs that leave no example database behind.
PROPERTY = settings(derandomize=True, database=None, deadline=None)


def reference_line():
    """The reference array and SQUID, for tests that draw many inputs."""
    junction = sh.JunctionParams(critical_current=REF_CRITICAL_CURRENT,
                                 capacitance=REF_JUNCTION_CAPACITANCE)
    squid = sh.SquidParams(junction=junction,
                           loop_inductance=REF_LOOP_INDUCTANCE)
    array = sh.ArrayParams(n_cells=4800, cell_length=REF_CELL_LENGTH,
                           ground_capacitance=REF_GROUND_CAPACITANCE,
                           environment_impedance=50.0)
    return array, squid


def sampled_profile(speed, flow_speed=2.0, positions=None):
    """Profile over the given samples, whose speed_at interpolates the same
    samples linearly; its steepness leaves the gradient step at a quarter
    of the smallest gap."""
    speed = np.asarray(speed, dtype=float)
    xs = (np.arange(len(speed), dtype=float) if positions is None
          else np.asarray(positions, dtype=float))
    return sh.VelocityProfile(positions=xs, speed=speed,
                              flow_speed=flow_speed,
                              speed_at=lambda xi: np.interp(xi, xs, speed),
                              steepness=0.1 / np.min(np.diff(xs)))


def reference_scan(xs, speed, u):
    """Plain-Python horizon scan: a sign change between consecutive
    nonzero samples lo and hi of c - u is one horizon, interpolated
    linearly across a grid cell or placed at the centre of the exact zeros
    in between.  Each is (lo, hi, position, kind, gradient)."""
    f = [c - u for c in speed]
    h = 0.25 * min(b - a for a, b in zip(xs, xs[1:]))

    def c(x):
        return float(np.interp(x, xs, speed))

    found = []
    last = None
    for j, fj in enumerate(f):
        if fj == 0.0:
            continue
        if last is not None and f[last] * fj < 0.0:
            if j == last + 1:
                root = xs[last] + (xs[j] - xs[last]) * f[last] / (f[last] - fj)
            else:
                root = 0.5 * (xs[last + 1] + xs[j - 1])
            d1 = (c(root + h) - c(root - h)) / (2.0 * h)
            d2 = (c(root + 0.5 * h) - c(root - 0.5 * h)) / h
            grad = (4.0 * d2 - d1) / 3.0
            found.append((last, j, root, "black" if grad > 0.0 else "white",
                          grad))
        last = j
    return found


def reference_budget(array, squid, pulse, samples):
    """photons_per_pulse from the public pieces, each sample on the full
    comoving line."""
    times = np.linspace(0.0, array.n_cells * array.cell_length
                        / pulse.velocity, samples)
    rows = []
    for t in times:
        profile = sh.velocity_profile(array, squid, pulse, t)
        blacks = [h for h in sh.find_horizons(profile) if h.kind == "black"]
        if not blacks:
            raise errors.NoHorizon("no black horizon at t = %.3e s" % t)
        temp = sh.hawking_temperature(blacks[0])
        rows.append((blacks[0].position, blacks[0].gradient, temp,
                     sh.radiated_power(temp)))
    positions, gradients, temperatures, powers = np.array(rows).T
    rates = powers / (BOLTZMANN * temperatures)
    return sh.PhotonBudget(float(np.trapezoid(rates, times)), times,
                           positions, gradients, temperatures, powers)


def budget_bits(budget_call):
    """Every number of a photon budget as bytes, or the NoHorizon raised."""
    try:
        budget = budget_call()
    except errors.NoHorizon:
        return "NoHorizon"
    return [np.asarray(getattr(budget, f.name)).tobytes()
            for f in dataclasses.fields(budget)]


@st.composite
def budget_pulses(draw):
    """Tanh fronts and Gaussian bumps, with and without broadening, whose
    speed sits between the two extreme line speeds or just outside them."""
    amplitude = draw(st.floats(0.02, 0.4))
    dc = draw(st.floats(0.0, 1.0)) * (0.45 - amplitude)
    hi, lo = math.cos(math.pi * dc), math.cos(math.pi * (dc + amplitude))
    depth = draw(st.one_of(st.floats(0.02, 0.98), st.floats(-0.05, 1.05)))
    q = lo + depth * (hi - lo)
    return sh.FluxPulse(
        amplitude=amplitude, dc_offset=dc,
        velocity=REF_CELL_SPEED * math.sqrt(q),
        steepness=10.0 ** draw(st.floats(5.5, 7.5)),
        front_position=draw(st.floats(-1.0e-4, 1.0e-4)),
        broadening=draw(st.one_of(st.just(0.0), st.floats(1.0, 2.0e3))),
        shape=draw(st.sampled_from(["tanh", "gaussian"])))


def line_speed(pulse, arg):
    """Line speed at t = 0 where the front's scaled coordinate is arg;
    arg = -inf or +inf gives the plateau behind or ahead, from the profile's
    own evaluator, since a profile's grid is finite."""
    array, squid = reference_line()
    xi = pulse.front_position + arg / pulse.steepness
    profile = sh.velocity_profile(array, squid, pulse, 0.0, [0.0])
    return float(profile.speed_at(np.array([xi]))[0])


OFFSET_FRONT = sh.FluxPulse(amplitude=0.2, dc_offset=0.05, velocity=1.0,
                            steepness=REF_STEEPNESS)
# Broadening that doubles the front's width over a 1200-cell traversal.
WIDENING = 1.0 / (1200 * REF_CELL_LENGTH)
# Cells 6 scaled units apart: samples at +-3, +-9, +-15, +-21, ...
COARSE = dataclasses.replace(OFFSET_FRONT, steepness=6.0 / REF_CELL_LENGTH)


@pytest.fixture
def ref_profile(ref_array, ref_squid, step_pulse):
    return sh.velocity_profile(ref_array, ref_squid, step_pulse)


class TestVelocityProfile:
    def test_speed_far_ahead(self, ref_profile):
        assert ref_profile.speed[-1] == pytest.approx(REF_CELL_SPEED, rel=1e-9)

    def test_speed_far_behind(self, ref_profile):
        # behind the front the line is biased at the full pulse amplitude
        expected = REF_CELL_SPEED * math.sqrt(math.cos(0.2 * math.pi))
        assert ref_profile.speed[0] == pytest.approx(expected, rel=1e-9)
        assert ref_profile.speed[0] / ref_profile.speed[-1] == pytest.approx(
            0.8994537199739336, rel=1e-9)

    def test_grid_centred_on_front(self, ref_profile, ref_array):
        mid = 0.5 * (ref_profile.positions[0] + ref_profile.positions[-1])
        assert mid == pytest.approx(0.0, abs=1e-12)
        assert len(ref_profile.positions) == ref_array.n_cells

    def test_evaluator_matches_grid(self, ref_profile):
        for i in [0, 1200, 2400, 4799]:
            xi = float(ref_profile.positions[i])
            assert ref_profile.speed_at(xi) == pytest.approx(
                ref_profile.speed[i], rel=1e-12)

    def test_samples_equal_evaluator_bitwise(self, ref_array, ref_squid,
                                             step_pulse):
        # The grid and the refinement evaluator share one circuit law, so
        # a crossing bracketed on the grid is refined on the same curve.
        # The times are those of the reference photon budget.
        pulse = sh.FluxPulse(amplitude=0.2, velocity=step_pulse.velocity,
                             steepness=step_pulse.steepness,
                             broadening=4000.0 / 9.0)
        traversal = ref_array.n_cells * ref_array.cell_length / pulse.velocity
        for t in np.linspace(0.0, traversal, 65):
            prof = sh.velocity_profile(ref_array, ref_squid, pulse, t)
            scalar = [prof.speed_at(xi) for xi in prof.positions.tolist()]
            np.testing.assert_array_equal(prof.speed, scalar)

    def test_custom_positions(self, ref_array, ref_squid, step_pulse):
        grid = np.linspace(-1.0e-5, 1.0e-5, 11)
        prof = sh.velocity_profile(ref_array, ref_squid, step_pulse,
                                   positions=grid)
        np.testing.assert_allclose(prof.positions, grid)

    @pytest.mark.parametrize("bad", ["duplicate", "reversed", "nan"])
    def test_positions_must_increase(self, ref_array, ref_squid, step_pulse,
                                     bad):
        # A doubled grid gave a horizon with a NaN gradient, classified
        # white; a reversed one failed inside the root search.
        grid = np.linspace(-1.0e-5, 1.0e-5, 11)
        positions = {"duplicate": np.repeat(grid, 2),
                     "reversed": grid[::-1],
                     "nan": np.where(grid == grid[3], math.nan, grid)}[bad]
        with pytest.raises(ValueError, match="strictly increasing"):
            sh.velocity_profile(ref_array, ref_squid, step_pulse,
                                positions=positions)

    def test_flow_speed_copied(self, ref_profile, step_pulse):
        assert ref_profile.flow_speed == step_pulse.velocity


class TestEffectiveMetric:
    @pytest.mark.parametrize("xi", [-5.0e-5, -1.0e-6, 0.0, 1.0e-6, 5.0e-5])
    def test_determinant(self, ref_profile, xi):
        metric = sh.effective_metric(ref_profile, xi)
        c = ref_profile.speed_at(xi)
        assert metric.determinant == pytest.approx(-1.0 / c ** 2, rel=1e-12)

    def test_components(self, ref_profile):
        xi = -2.0e-6
        metric = sh.effective_metric(ref_profile, xi)
        c = ref_profile.speed_at(xi)
        u = ref_profile.flow_speed
        expected = np.array([[1.0, -u], [-u, u * u - c * c]]) / c ** 2
        np.testing.assert_allclose(metric.components, expected, rtol=1e-14)

    def test_signature_flips_across_horizon(self, ref_profile):
        # the time-time component of the inverse metric keeps its sign but
        # the space-space entry changes sign where the flow goes supersonic
        inside = sh.effective_metric(ref_profile, -1.0e-5).components
        outside = sh.effective_metric(ref_profile, 1.0e-5).components
        assert inside[1, 1] > 0.0
        assert outside[1, 1] < 0.0

    def test_out_of_range(self, ref_profile):
        with pytest.raises(errors.OutOfRange):
            sh.effective_metric(ref_profile, 1.0)


class TestHorizons:
    def test_single_black_horizon(self, ref_profile):
        found = sh.find_horizons(ref_profile)
        assert len(found) == 1
        assert found[0].kind == "black"

    def test_horizon_position_closed_form(self, ref_profile):
        # tanh front: the horizon sits where cos(pi f) = (u/c0)^2, giving
        # f_h = 0.141730 and xi_h = atanh(1 - 2 f_h / 0.2) / s0
        horizon = sh.find_horizons(ref_profile)[0]
        assert horizon.position == pytest.approx(-1.01876624224012e-06, rel=1e-6)

    def test_horizon_flux_fraction(self, ref_profile, step_pulse):
        from squid_horizon.bias import comoving_flux_fraction
        horizon = sh.find_horizons(ref_profile)[0]
        frac = comoving_flux_fraction(step_pulse, horizon.position, 0.0)
        assert frac == pytest.approx(0.14172971084142186, rel=1e-6)

    def test_speed_equals_flow_at_horizon(self, ref_profile):
        horizon = sh.find_horizons(ref_profile)[0]
        c = ref_profile.speed_at(horizon.position)
        assert c == pytest.approx(ref_profile.flow_speed, rel=1e-9)

    def test_gradient_matches_closed_form(self, ref_profile):
        # dc/dxi = c0 pi sin(pi f_h) (amp s / 2) sech^2(s xi_h) / (2 sqrt(cos(pi f_h)))
        horizon = sh.find_horizons(ref_profile)[0]
        s = REF_STEEPNESS
        fh = 0.14172971084142186
        xi = math.atanh(1.0 - 2.0 * fh / 0.2) / s
        sech2 = 1.0 / math.cosh(s * xi) ** 2
        expected = (REF_CELL_SPEED * math.pi * math.sin(math.pi * fh) *
                    (0.2 * s / 2.0) * sech2 / (2.0 * math.sqrt(0.9025)))
        assert horizon.gradient == pytest.approx(expected, rel=1e-6)

    def test_profile_freed_without_the_cycle_collector(self, ref_array,
                                                       ref_squid,
                                                       step_pulse):
        # The root refinement must not tie the profile (and its full-line
        # arrays) into a reference cycle that only the collector can free.
        enabled = gc.isenabled()
        gc.disable()
        try:
            profile = sh.velocity_profile(ref_array, ref_squid, step_pulse)
            alive = weakref.ref(profile)
            assert len(sh.find_horizons(profile)) == 1
            del profile
            assert alive() is None
        finally:
            if enabled:
                gc.enable()

    def test_gaussian_pulse_makes_pair(self, ref_array, ref_squid):
        pulse = sh.FluxPulse(amplitude=0.3, velocity=0.9 * REF_CELL_SPEED,
                             steepness=1.0e5, shape="gaussian")
        prof = sh.velocity_profile(ref_array, ref_squid, pulse)
        found = sh.find_horizons(prof)
        assert len(found) == 2
        kinds = {h.kind for h in found}
        assert kinds == {"black", "white"}
        black = next(h for h in found if h.kind == "black")
        white = next(h for h in found if h.kind == "white")
        # the emitting horizon sits on the trailing slope of the dip
        assert black.position > white.position

    def test_static_pulse_has_no_horizon(self, ref_array, ref_squid):
        pulse = sh.FluxPulse(amplitude=0.2, velocity=0.0, steepness=REF_STEEPNESS)
        prof = sh.velocity_profile(ref_array, ref_squid, pulse)
        assert sh.find_horizons(prof) == ()

    def test_slow_pulse_has_no_horizon(self, ref_array, ref_squid):
        # slower than the speed everywhere behind the front: no crossing
        pulse = sh.FluxPulse(amplitude=0.2, velocity=0.5 * REF_CELL_SPEED,
                             steepness=REF_STEEPNESS)
        prof = sh.velocity_profile(ref_array, ref_squid, pulse)
        assert sh.find_horizons(prof) == ()

    @pytest.mark.parametrize("speed,position,kind,gradient", [
        ([3.0, 2.0, 1.0, 0.0], 1.0, "white", -1.0),
        ([0.0, 1.0, 2.0, 4.0], 2.0, "black", 1.5),
    ])
    def test_crossing_on_a_sample(self, speed, position, kind, gradient):
        found = sh.find_horizons(sampled_profile(speed))
        assert found == (sh.HorizonReport(position=position, kind=kind,
                                          gradient=gradient),)

    @pytest.mark.parametrize("speed", [[3.0, 2.0, 3.0], [1.0, 2.0, 1.0],
                                       [3.0, 2.0, 2.0, 4.0]])
    def test_touch_is_no_horizon(self, speed):
        assert sh.find_horizons(sampled_profile(speed)) == ()

    def test_zero_run_is_one_horizon(self):
        prof = sampled_profile([4.0, 3.0, 2.0, 2.0, 2.0, 1.0])
        found = sh.find_horizons(prof)
        assert len(found) == 1
        assert found[0].position == 3.0

    @pytest.mark.parametrize("curve,root,kind", [
        (lambda x: x * x - 2.0, math.sqrt(2.0), "black"),
        (np.cos, 0.5 * math.pi, "white"),
        (lambda x: np.exp(x) - 3.0, math.log(3.0), "black"),
    ], ids=["square", "cos", "exp"])
    def test_root_is_the_evaluators_root(self, curve, root, kind):
        # Samples at 0..3 bracket one crossing; its position is refined on
        # speed_at, not on the line through the two samples.
        u = 2.0
        xs = np.arange(4.0)
        prof = sh.VelocityProfile(positions=xs, speed=u + curve(xs),
                                  flow_speed=u,
                                  speed_at=lambda xi: u + curve(xi),
                                  steepness=0.1)
        (found,) = sh.find_horizons(prof)
        assert found.kind == kind
        assert found.position == pytest.approx(root, abs=1.0e-6)
        f = curve(xs)
        lo = int(np.flatnonzero(f[:-1] * f[1:] < 0.0)[0])
        linear = xs[lo] + f[lo] / (f[lo] - f[lo + 1])
        assert abs(linear - root) > 1.0e-3

    def test_nan_sample_is_not_read_as_no_horizon(self):
        # A NaN brackets both neighbouring cells, so refinement fails
        # loudly instead of the scan reporting an empty profile.
        prof = sh.VelocityProfile(positions=np.arange(4.0),
                                  speed=np.array([3.0, np.nan, 3.0, 3.0]),
                                  flow_speed=2.0,
                                  speed_at=lambda xi: math.nan,
                                  steepness=0.1)
        with pytest.raises(ValueError, match="NaN"):
            sh.find_horizons(prof)

    def test_emitting_horizon_prefers_black(self):
        white = sh.HorizonReport(position=-1.0, kind="white", gradient=-2.0)
        black = sh.HorizonReport(position=1.0, kind="black", gradient=1.0)
        assert sh.emitting_horizon((white, black)) is black
        assert sh.emitting_horizon((white,)) is white
        with pytest.raises(errors.NoHorizon, match="no c = u crossing"):
            sh.emitting_horizon(())

    def test_sample_crossing_has_a_temperature(self):
        prof = sampled_profile([3.0, 2.0, 1.0, 0.0])
        horizon = sh.emitting_horizon(sh.find_horizons(prof))
        assert sh.hawking_temperature(horizon) == pytest.approx(
            HBAR / (2.0 * math.pi * BOLTZMANN), rel=1e-15)

    @PROPERTY
    @given(amplitude=st.floats(0.02, 0.45),
           dc_share=st.floats(0.0, 1.0),
           depth=st.floats(0.01, 0.99),
           log_steepness=st.floats(5.0, 7.0),
           front=st.floats(-1.0e-4, 1.0e-4))
    @example(amplitude=0.2, dc_share=0.0,
             depth=(0.95 ** 2 - math.cos(0.2 * math.pi)) /
             (1.0 - math.cos(0.2 * math.pi)),
             log_steepness=math.log10(REF_STEEPNESS), front=0.0)
    def test_tanh_horizon_flux_closed_form(self, amplitude, dc_share, depth,
                                           log_steepness, front):
        # c = c0 sqrt(cos(pi f)), so c = u at cos(pi f_h) = (u/c0)^2.  The
        # example is the reference device, where f_h = 0.14173.
        array, squid = reference_line()
        dc = dc_share * (0.45 - amplitude)
        hi, lo = math.cos(math.pi * dc), math.cos(math.pi * (dc + amplitude))
        q = lo + depth * (hi - lo)
        steepness = 10.0 ** log_steepness
        pulse = sh.FluxPulse(amplitude=amplitude, dc_offset=dc,
                             velocity=REF_CELL_SPEED * math.sqrt(q),
                             steepness=steepness, front_position=front)
        found = sh.find_horizons(sh.velocity_profile(array, squid, pulse))
        assert len(found) == 1
        fh = comoving_flux_fraction(pulse, found[0].position, 0.0)
        # brentq stops within xtol = 1e-6 cell of the root, which moves
        # cos(pi f) by at most its slope there times xtol.
        xtol = 1.0e-6 * array.cell_length
        arg = steepness * (found[0].position - front)
        slope = (math.pi * math.sin(math.pi * fh) *
                 0.5 * amplitude * steepness / math.cosh(arg) ** 2)
        assert abs(math.cos(math.pi * fh) - q) <= slope * xtol

    @PROPERTY
    @given(amplitude=st.floats(0.02, 0.45),
           dc_share=st.floats(0.0, 1.0),
           depth=st.floats(0.02, 0.98),
           log_steepness=st.floats(4.5, 6.0),
           centre=st.floats(-1.0e-4, 1.0e-4))
    def test_gaussian_bump_mirror_pair(self, amplitude, dc_share, depth,
                                       log_steepness, centre):
        array, squid = reference_line()
        dc = dc_share * (0.45 - amplitude)
        hi, lo = math.cos(math.pi * dc), math.cos(math.pi * (dc + amplitude))
        q = lo + depth * (hi - lo)
        pulse = sh.FluxPulse(amplitude=amplitude, dc_offset=dc,
                             velocity=REF_CELL_SPEED * math.sqrt(q),
                             steepness=10.0 ** log_steepness,
                             front_position=centre, shape="gaussian")
        found = sh.find_horizons(sh.velocity_profile(array, squid, pulse))
        assert sorted(h.kind for h in found) == ["black", "white"]
        black = next(h for h in found if h.kind == "black")
        white = next(h for h in found if h.kind == "white")
        assert white.position < centre < black.position
        # Each root lies within xtol = 1e-6 cell of its exact, mirrored value.
        assert abs((black.position - centre) + (white.position - centre)) \
            <= 2.0e-6 * array.cell_length
        assert white.gradient == pytest.approx(-black.gradient, rel=1e-6)

    @PROPERTY
    @given(levels=st.lists(st.sampled_from([-1.5, -0.5, 0.0, 0.0, 0.5, 1.5]),
                           min_size=2, max_size=40),
           steps=st.lists(st.floats(0.1, 2.0), min_size=39, max_size=39))
    def test_scan_matches_reference(self, levels, steps):
        # The same brackets, kinds and zero-run centres as the reference;
        # a root inside a cell is refined on the linear interpolant, so it
        # lies within lane_brentq's tolerance of the linear root.
        u = 2.0
        xs = np.concatenate(([0.0], np.cumsum(steps[:len(levels) - 1])))
        speed = [u + level for level in levels]
        found = sh.find_horizons(sampled_profile(speed, u, xs))
        expected = reference_scan(xs.tolist(), speed, u)
        assert len(found) == len(expected)
        xtol = 1.0e-6 * np.min(np.diff(xs))
        for h, (lo, hi, root, kind, grad) in zip(found, expected):
            assert h.kind == kind
            if hi > lo + 1:
                assert h.position == root
            else:
                assert xs[lo] <= h.position <= xs[hi]
                assert abs(h.position - root) <= xtol
            assert h.gradient == pytest.approx(grad, rel=1e-5)

    @pytest.mark.parametrize("cell_steepness", [0.1, 1.0, 3.0, 9.0, 30.0])
    @pytest.mark.parametrize("arg", [-3.0, 0.3, 2.0, 7.0])
    def test_gradient_resolves_narrow_front(self, cell_steepness, arg):
        # c = c0 sqrt(cos(pi f)) and f = dc + (A/2)(1 - tanh(s (xi - xi0)))
        # give dc/dxi = (pi/2) c tan(pi f) (A s/2) sech^2(s (xi - xi0)).
        # With a*s up to 30 the grid pitch spans many scaled units; a step
        # of a quarter pitch read the horizon at 7 as white for a*s >= 9.
        array, squid = reference_line()
        array = dataclasses.replace(array, n_cells=300)
        pulse = dataclasses.replace(
            OFFSET_FRONT, steepness=cell_steepness / REF_CELL_LENGTH)
        pulse = dataclasses.replace(pulse, velocity=line_speed(pulse, arg))
        found = sh.find_horizons(sh.velocity_profile(array, squid, pulse))
        assert len(found) == 1 and found[0].kind == "black"
        f = comoving_flux_fraction(pulse, found[0].position, 0.0)
        s = pulse.steepness
        expected = (0.5 * math.pi * pulse.velocity * math.tan(math.pi * f) *
                    0.5 * pulse.amplitude * s /
                    math.cosh(s * (found[0].position - pulse.front_position))
                    ** 2)
        assert found[0].gradient == pytest.approx(expected, rel=1e-6)

    def test_budget_on_a_narrow_front(self):
        # The same narrow front keeps its black horizon at every sample.
        array, squid = reference_line()
        array = dataclasses.replace(array, n_cells=300)
        pulse = dataclasses.replace(OFFSET_FRONT,
                                    steepness=9.0 / REF_CELL_LENGTH)
        pulse = dataclasses.replace(pulse, velocity=line_speed(pulse, 7.0))
        budget = sh.photons_per_pulse(array, squid, pulse, samples=3)
        assert np.all(budget.gradients > 0.0)


def scipy_brentq(f, a, b, **kwargs):
    """scipy's brentq on one lane of f, evaluated through the array path."""
    from scipy.optimize import brentq
    lane = np.array([0])
    return brentq(lambda x: f(np.array([x]), lane)[0], a, b, **kwargs)


def lane_of(f, k):
    """Lane k of the lane function f, as a one-lane function."""
    return lambda x, lanes: f(x, np.full(len(x), k))


@st.composite
def smooth_brackets(draw):
    """Brackets about random roots of tanh plus a cubic, each lane with its
    own root, scale and bracket, and a shared tolerance."""
    n = draw(st.integers(1, 12))
    lane = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 2.0),
                     st.floats(0.0, 2.0), st.floats(0.01, 5.0),
                     st.floats(0.01, 5.0), st.booleans())
    root, log_scale, cubic, left, right, flip = map(
        np.array, zip(*draw(st.lists(lane, min_size=n, max_size=n))))
    scale = 10.0 ** log_scale
    sign = np.where(flip, -1.0, 1.0)

    def f(x, lanes):
        d = (x - root[lanes]) * scale[lanes]
        return sign[lanes] * (np.tanh(d) + cubic[lanes] * d ** 3)

    xtol = 10.0 ** draw(st.floats(-14.0, -3.0))
    return f, root - left, root + right, xtol


def horizon_bits(horizons):
    """Position, kind and gradient of each horizon, floats as hex."""
    return [(h.position.hex(), h.kind, h.gradient.hex()) for h in horizons]


GAUSSIAN_BUMP = dataclasses.replace(OFFSET_FRONT, shape="gaussian")


class TestLineHorizons:
    @PROPERTY
    @given(pulse=budget_pulses(), n_cells=st.integers(300, 4800),
           fraction=st.floats(0.0, 1.0))
    # Moving exactly at a plateau's speed: no crossing.
    @example(pulse=dataclasses.replace(
                 OFFSET_FRONT, velocity=line_speed(OFFSET_FRONT, math.inf)),
             n_cells=4800, fraction=0.5)
    # A still front: c > u = 0 everywhere.
    @example(pulse=dataclasses.replace(OFFSET_FRONT, velocity=0.0),
             n_cells=4800, fraction=0.5)
    # A Gaussian bump crossed at scaled coordinates -1 and +1.
    @example(pulse=dataclasses.replace(
                 GAUSSIAN_BUMP, velocity=line_speed(GAUSSIAN_BUMP, 1.0)),
             n_cells=4800, fraction=0.5)
    # A horizon at scaled coordinate 12 that broadening carries to 24 over
    # the 1200-cell traversal.
    @example(pulse=dataclasses.replace(
                 OFFSET_FRONT, broadening=WIDENING,
                 velocity=line_speed(OFFSET_FRONT, 12.0)),
             n_cells=1200, fraction=1.0)
    # A horizon at 15.5 between the samples at 15 and 21, the latter on
    # the plateau beyond the threshold of 20.
    @example(pulse=dataclasses.replace(COARSE,
                                       velocity=line_speed(COARSE, 15.5)),
             n_cells=300, fraction=0.5)
    def test_matches_full_line_scan(self, pulse, n_cells, fraction):
        # At t = 0 and at a time within the traversal of the line.
        array, squid = reference_line()
        array = dataclasses.replace(array, n_cells=n_cells)
        later = fraction * n_cells * array.cell_length / max(
            pulse.velocity, REF_CELL_SPEED)
        for time in (0.0, later):
            full = sh.find_horizons(
                sh.velocity_profile(array, squid, pulse, time))
            windowed = sh.geometry.line_horizons(array, squid, pulse, time)
            assert horizon_bits(windowed) == horizon_bits(full)

    @pytest.mark.parametrize("pulse, kinds", [
        (dataclasses.replace(OFFSET_FRONT,
                             velocity=line_speed(OFFSET_FRONT, math.inf)),
         []),
        (dataclasses.replace(OFFSET_FRONT, velocity=0.0), []),
        (dataclasses.replace(GAUSSIAN_BUMP,
                             velocity=line_speed(GAUSSIAN_BUMP, 1.0)),
         ["white", "black"]),
        (dataclasses.replace(COARSE, velocity=line_speed(COARSE, 15.5)),
         ["black"]),
    ])
    def test_examples_cover_their_cases(self, pulse, kinds):
        array, squid = reference_line()
        found = sh.geometry.line_horizons(array, squid, pulse)
        assert [h.kind for h in found] == kinds


class TestTraversalHorizons:
    @PROPERTY
    @given(pulse=budget_pulses(), n_cells=st.integers(300, 4800),
           samples=st.integers(2, 65))
    # Moving exactly at a plateau's speed: no crossing.
    @example(pulse=dataclasses.replace(
                 OFFSET_FRONT, velocity=line_speed(OFFSET_FRONT, math.inf)),
             n_cells=4800, samples=65)
    # A still front: c > u = 0 everywhere.
    @example(pulse=dataclasses.replace(OFFSET_FRONT, velocity=0.0),
             n_cells=4800, samples=65)
    # A Gaussian bump crossed at scaled coordinates -1 and +1.
    @example(pulse=dataclasses.replace(
                 GAUSSIAN_BUMP, velocity=line_speed(GAUSSIAN_BUMP, 1.0)),
             n_cells=4800, samples=65)
    # A horizon at scaled coordinate 12 that broadening carries to 24 over
    # the 1200-cell traversal, so the window is that of coordinate 24.
    @example(pulse=dataclasses.replace(
                 OFFSET_FRONT, broadening=WIDENING,
                 velocity=line_speed(OFFSET_FRONT, 12.0)),
             n_cells=1200, samples=65)
    def test_first_row_is_line_horizons(self, pulse, n_cells, samples):
        # Row 0 of the traversal's one scan and refine is bit for bit the
        # line's own t = 0 scan, in the window of the last, widest time.
        array, squid = reference_line()
        array = dataclasses.replace(array, n_cells=n_cells)
        if pulse.velocity > 0.0:
            first = sh.geometry.traversal_horizons(array, squid, pulse,
                                                   samples).initial
        else:  # no traversal: rows spanning a moving front's instead
            times = np.linspace(0.0, n_cells * array.cell_length
                                / REF_CELL_SPEED, samples)
            rows, roots, gradients = sh.geometry._window_horizons(
                array, squid, pulse, times)
            first = sh.geometry._reports(roots[rows == 0],
                                         gradients[rows == 0])
        assert horizon_bits(first) == horizon_bits(
            sh.geometry.line_horizons(array, squid, pulse))


class TestLaneBrentq:
    @PROPERTY
    @given(brackets=smooth_brackets())
    def test_bitwise_scipy(self, brackets):
        f, a, b, xtol = brackets
        roots = sh.geometry.lane_brentq(f, a, b, xtol=xtol)
        expected = [scipy_brentq(lane_of(f, k), a[k], b[k], xtol=xtol)
                    for k in range(len(a))]
        assert roots.tolist() == expected

    def test_converged_lanes_drop_out(self):
        # Brackets from 1e-6 to 10 wide need different iteration counts.
        root = np.array([0.3, -1.2, 2.5, 0.01])
        a = root - np.array([1.0e-6, 0.5, 4.0, 10.0])
        b = root + np.array([2.0e-6, 0.7, 1.0, 3.0])
        live = []

        def f(x, lanes):
            live.append(lanes.tolist())
            return np.tanh(x - root[lanes]) + (x - root[lanes]) ** 3

        roots = sh.geometry.lane_brentq(f, a, b, xtol=1.0e-12)
        assert live[0] == [0, 1, 2, 3, 0, 1, 2, 3]
        sizes = [len(lanes) for lanes in live[1:]]
        assert sizes == sorted(sizes, reverse=True)
        assert len(set(sizes)) >= 3
        assert roots.tolist() == [
            scipy_brentq(lane_of(f, k), a[k], b[k], xtol=1.0e-12)
            for k in range(4)]

    def test_exact_zero_at_either_end(self):
        # Lane 0 has its root at a, lane 1 at b, lane 2 inside.
        root = np.array([-1.0, 2.0, 0.25])
        a, b = np.array([-1.0, 0.0, 0.0]), np.array([1.0, 2.0, 1.0])

        def f(x, lanes):
            return x - root[lanes]

        roots = sh.geometry.lane_brentq(f, a, b)
        assert roots.tolist() == [-1.0, 2.0, 0.25]
        assert roots.tolist() == [scipy_brentq(lane_of(f, k), a[k], b[k])
                                  for k in range(3)]

    def test_nan_raises(self):
        def f(x, lanes):
            return np.where(x > 0.5, np.nan, x - 0.75)

        with pytest.raises(ValueError, match="NaN") as ours:
            sh.geometry.lane_brentq(f, [0.0], [1.0])
        with pytest.raises(ValueError, match="NaN") as theirs:
            scipy_brentq(f, 0.0, 1.0)
        assert str(ours.value) == str(theirs.value)

    def test_same_signs_raise(self):
        def f(x, lanes):
            return x * x + 1.0

        with pytest.raises(ValueError, match="different signs"):
            sh.geometry.lane_brentq(f, [-1.0, 0.0], [1.0, 2.0])

    def test_maxiter_raises(self, monkeypatch):
        def f(x, lanes):
            return x ** 3 - 0.5

        monkeypatch.setattr(sh.geometry, "_MAXITER", 2)
        with pytest.raises(RuntimeError) as ours:
            sh.geometry.lane_brentq(f, [0.0], [1.0])
        with pytest.raises(RuntimeError) as theirs:
            scipy_brentq(f, 0.0, 1.0, maxiter=2)
        assert str(ours.value) == str(theirs.value)


class TestTemperatureAndPower:
    def test_temperature_from_gradient(self):
        report = sh.HorizonReport(position=0.0, kind="black", gradient=1.0e11)
        # h / (4 pi^2 k_B) * 1e11, with h and k_B exact in the 2019 SI
        temp = sh.hawking_temperature(report)
        assert temp == pytest.approx(0.1215662471951891, rel=1e-12)

    def test_reference_design_temperature(self, ref_profile):
        temp = sh.hawking_temperature(
            sh.emitting_horizon(sh.find_horizons(ref_profile)))
        assert temp == pytest.approx(0.12156624712116852, rel=1e-6)

    def test_no_horizon_raises(self, ref_array, ref_squid):
        pulse = sh.FluxPulse(amplitude=0.2, velocity=0.0, steepness=REF_STEEPNESS)
        prof = sh.velocity_profile(ref_array, ref_squid, pulse)
        with pytest.raises(errors.NoHorizon):
            sh.hawking_temperature(sh.emitting_horizon(sh.find_horizons(prof)))

    def test_radiated_power_frozen(self):
        assert sh.radiated_power(0.120) == pytest.approx(
            6.814304291798379e-15, rel=1e-12)

    def test_power_scales_quadratically(self):
        assert sh.radiated_power(0.24) == pytest.approx(
            4.0 * sh.radiated_power(0.12), rel=1e-12)


class TestSteepnessCap:
    def test_reference_steepness(self, ref_array, ref_squid):
        s0 = sh.steepness_for_gradient_cap(ref_array, ref_squid,
                                           amplitude=0.2, dc_offset=0.0,
                                           velocity=REF_PULSE_SPEED, cap=1.0e11)
        assert s0 == pytest.approx(REF_STEEPNESS, rel=1e-6)

    def test_cap_attained(self, ref_array, ref_squid):
        cap = 4.0e10
        s0 = sh.steepness_for_gradient_cap(ref_array, ref_squid,
                                           amplitude=0.2, dc_offset=0.0,
                                           velocity=REF_PULSE_SPEED, cap=cap)
        pulse = sh.FluxPulse(amplitude=0.2, velocity=REF_PULSE_SPEED,
                             steepness=s0)
        prof = sh.velocity_profile(ref_array, ref_squid, pulse)
        horizon = sh.find_horizons(prof)[0]
        assert horizon.gradient == pytest.approx(cap, rel=1e-6)

    def test_no_horizon_when_too_slow(self, ref_array, ref_squid):
        with pytest.raises(errors.NoHorizon):
            sh.steepness_for_gradient_cap(ref_array, ref_squid,
                                          amplitude=0.2, dc_offset=0.0,
                                          velocity=0.5 * REF_CELL_SPEED,
                                          cap=1.0e11)


class TestPhotonBudget:
    @pytest.fixture
    def broadening_pulse(self, step_pulse):
        return sh.FluxPulse(amplitude=0.2, velocity=step_pulse.velocity,
                            steepness=step_pulse.steepness,
                            broadening=4000.0 / 9.0)

    def test_count_near_unity(self, ref_array, ref_squid, broadening_pulse):
        budget = sh.photons_per_pulse(ref_array, ref_squid, broadening_pulse)
        assert 0.7 <= budget.expected_count <= 1.3

    def test_temperature_follows_steepness_decay(self, ref_array, ref_squid,
                                                 broadening_pulse):
        budget = sh.photons_per_pulse(ref_array, ref_squid, broadening_pulse,
                                      samples=17)
        b = broadening_pulse.broadening
        u = broadening_pulse.velocity
        expected = budget.temperatures[0] / (1.0 + b * u * budget.times)
        np.testing.assert_allclose(budget.temperatures, expected, rtol=1e-6)
        assert budget.temperatures[-1] / budget.temperatures[0] == pytest.approx(
            15.0 / 23.0, rel=1e-6)

    @pytest.mark.parametrize("n_cells", [1200, 2400, 4800])
    def test_traversal_is_the_array(self, ref_array, ref_squid,
                                    broadening_pulse, n_cells):
        # The budget spans one pass along the array's own n_cells, so the
        # temperature at its end has decayed by 1 / (1 + b * n_cells * a).
        array = dataclasses.replace(ref_array, n_cells=n_cells)
        budget = sh.photons_per_pulse(array, ref_squid, broadening_pulse,
                                      samples=5)
        length = n_cells * array.cell_length
        assert budget.times[0] == 0.0
        assert budget.times[-1] == pytest.approx(
            length / broadening_pulse.velocity, rel=1e-15)
        assert budget.temperatures[-1] / budget.temperatures[0] == (
            pytest.approx(1.0 / (1.0 + broadening_pulse.broadening * length),
                          rel=1e-6))

    def test_static_pulse_rejected(self, ref_array, ref_squid):
        pulse = sh.FluxPulse(amplitude=0.2, velocity=0.0)
        with pytest.raises(ValueError):
            sh.photons_per_pulse(ref_array, ref_squid, pulse)

    @pytest.mark.parametrize("samples", [0, 1, 2.5, 65.0, math.nan, "65"])
    def test_single_sample_rejected(self, ref_array, ref_squid, step_pulse,
                                    samples):
        with pytest.raises(ValueError, match="2 samples"):
            sh.photons_per_pulse(ref_array, ref_squid, step_pulse,
                                 samples=samples)

    @PROPERTY
    @given(pulse=budget_pulses(), n_cells=st.integers(300, 1500),
           samples=st.integers(2, 9))
    @example(pulse=sh.FluxPulse(amplitude=0.2, velocity=REF_PULSE_SPEED,
                                steepness=REF_STEEPNESS,
                                broadening=4000.0 / 9.0),
             n_cells=4800, samples=65)
    # Moving exactly at a plateau's speed: no crossing, so NoHorizon.
    @example(pulse=dataclasses.replace(
                 OFFSET_FRONT, velocity=line_speed(OFFSET_FRONT, -math.inf)),
             n_cells=4800, samples=5)
    @example(pulse=dataclasses.replace(
                 OFFSET_FRONT, velocity=line_speed(OFFSET_FRONT, math.inf)),
             n_cells=4800, samples=5)
    # A horizon at scaled coordinate 12 that broadening carries to 24,
    # beyond the front's first window: only the last one holds it.
    @example(pulse=dataclasses.replace(
                 OFFSET_FRONT, broadening=WIDENING,
                 velocity=line_speed(OFFSET_FRONT, 12.0)),
             n_cells=1200, samples=9)
    # A horizon at 15.5 between the samples at 15 and 21, the latter on
    # the plateau beyond the threshold of 20: the extra sample brackets it.
    @example(pulse=dataclasses.replace(COARSE,
                                       velocity=line_speed(COARSE, 15.5)),
             n_cells=300, samples=3)
    def test_window_matches_full_line(self, pulse, n_cells, samples):
        # Every number of the windowed budget, or its NoHorizon, is the one
        # the full-line profiles give at each sample.
        array, squid = reference_line()
        array = dataclasses.replace(array, n_cells=n_cells)
        windowed = budget_bits(lambda: sh.photons_per_pulse(
            array, squid, pulse, samples))
        full = budget_bits(lambda: reference_budget(
            array, squid, pulse, samples))
        assert windowed == full

    def test_rate_is_power_over_kt(self, ref_array, ref_squid, broadening_pulse):
        budget = sh.photons_per_pulse(ref_array, ref_squid, broadening_pulse,
                                      samples=9)
        rates = budget.powers / (BOLTZMANN * budget.temperatures)
        count = np.trapezoid(rates, budget.times)
        assert budget.expected_count == pytest.approx(count, rel=1e-12)

    def test_trace_roundtrip(self, tmp_path, ref_array, ref_squid,
                             broadening_pulse):
        budget = sh.photons_per_pulse(ref_array, ref_squid, broadening_pulse,
                                      samples=9)
        path = tmp_path / "trace.csv"
        sh.write_horizon_trace(path, budget)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x_h,grad_c,T_H_K,power_W"
        assert len(lines) == 10
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_allclose(data[:, 0], budget.times, rtol=1e-11)
        np.testing.assert_allclose(data[:, 3], budget.temperatures, rtol=1e-11)
