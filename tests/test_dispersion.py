"""Dispersion relation: closed form, measured curve, and resolution flags."""

import csv
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import squid_horizon as sh
from squid_horizon import circuit, dispersion, lattice
from squid_horizon.cli import _DISPERSION_KA
from squid_horizon.constants import FLUX_QUANTUM
from squid_horizon.errors import BandLimit, FitFailure, OutOfBand

from conftest import REF_CELL_LENGTH, REF_CELL_SPEED, REF_PULSE_SPEED

# 2 / sqrt(L0 C0) for the reference cell at zero flux.
OMEGA_MAX = 31182225171438.945


def ramped_source(w, t):
    """The dispersion source per unit amplitude at time t: sin w t, ramped
    on as sin^2 over RAMP_PERIODS drive periods."""
    ramp_time = dispersion.RAMP_PERIODS * 2.0 * math.pi / w
    value = np.sin(w * t)
    if t < ramp_time:
        value *= np.sin(0.5 * math.pi / ramp_time * t) ** 2
    return value


def with_source(march, w, beta):
    """Iterate a "reflecting" march, writing at each yield m after the first
    what a dispersion point writes there: at both end nodes a Mur end with
    coefficient beta from the end values of yield m - 1, and at node 0 the
    ramped source's increment over the step,
    DRIVE_AMPLITUDE * (s(t_m) - s(t_(m-1))), one np.sin per step, added to
    that end's write."""
    times = march.step_times
    for m in march:
        pot = march.potential
        if m:
            source = (ramped_source(w, times[m])
                      - ramped_source(w, times[m - 1]))
            pot[0] = (kept[1] + beta * (pot[1] - kept[0])
                      + dispersion.DRIVE_AMPLITUDE * source)
            pot[-1] = kept[2] + beta * (pot[-2] - kept[3])
        kept = pot[[0, 1, -2, -1]]
        yield m


def reference_wavenumber(array, squid, flux, w):
    """One point of measure_dispersion by the whole-block algorithm: a
    settle run, then a fit run from its final state that keeps every step's
    window, projected on cos/sin of the drive afterwards.  Both runs write
    their source and ends as with_source does.  Returns k and the fit's step
    count."""
    pulse = sh.FluxPulse(amplitude=0.0, dc_offset=flux / FLUX_QUANTUM)
    dt = lattice.stable_timestep(array, squid, pulse,
                                 dispersion.COURANT_FRACTION)
    cell_time = circuit.cell_time(array, squid, flux)
    a = array.cell_length
    ka = 2.0 * math.asin(w * cell_time / 2.0)
    window_cells = int(math.ceil(dispersion.WINDOW_WAVELENGTHS
                                 * 2.0 * math.pi / ka))
    line = replace(array, n_cells=60 + window_cells + 60)
    period = 2.0 * math.pi / w
    settle_time = (line.n_cells * a / ((a / cell_time) * math.cos(0.5 * ka))
                   + dispersion.SETTLE_PERIODS * period)
    settle_steps = int(math.ceil(settle_time / dt))
    fit_steps = int(math.ceil(dispersion.FIT_PERIODS * period / dt))

    # At both ends the coefficient that the outgoing tone
    # exp i(k n - w m dt) satisfies with the leapfrog's k.
    kappa = dt / cell_time
    k_tone = 2.0 * math.asin(math.sin(0.5 * w * dt) / kappa)
    beta = (math.sin(0.5 * (w * dt - k_tone))
            / math.sin(0.5 * (w * dt + k_tone)))

    settle = lattice.March(lattice.zero_state(line), line, squid, pulse,
                           lattice.SolverConfig(n_steps=settle_steps, dt=dt,
                                                boundary="reflecting"))
    for _ in with_source(settle, w, beta):
        pass
    window = slice(60, 60 + window_cells)
    march = lattice.March(settle.final_state, line, squid, pulse,
                          lattice.SolverConfig(n_steps=fit_steps, dt=dt,
                                               boundary="reflecting"))
    samples = np.empty((fit_steps + 1, window_cells))
    for m in with_source(march, w, beta):
        samples[m] = march.potential[window]

    c = np.cos(w * march.step_times)
    s = np.sin(w * march.step_times)
    gram = np.array([[c @ c, c @ s], [c @ s, s @ s]])
    coef = np.linalg.solve(gram, np.vstack([samples.T @ c, samples.T @ s]))
    phase = np.unwrap(np.angle(coef[0] + 1j * coef[1]))
    slope = np.polyfit(march.positions[window], phase, 1)[0]
    return abs(slope), fit_steps


@pytest.fixture
def cell(ref_squid, ref_array):
    return circuit.cell_time(ref_array, ref_squid, 0.0), ref_array.cell_length


class TestAnalyticRelation:
    def test_zero_wavenumber(self, cell):
        assert dispersion.omega_analytic(0.0, *cell) == 0.0

    def test_zone_edge_value(self, cell):
        edge = math.pi / REF_CELL_LENGTH
        assert dispersion.omega_analytic(edge, *cell) == pytest.approx(
            OMEGA_MAX, rel=1e-12)

    def test_departure_from_linear(self, cell):
        # At ka = 0.3 the branch sits at sin(0.15)/0.15 of the linear slope.
        k = 0.3 / REF_CELL_LENGTH
        ratio = dispersion.omega_analytic(k, *cell) / (REF_CELL_SPEED * k)
        assert ratio == pytest.approx(0.9962542164906614, rel=1e-12)

    @pytest.mark.parametrize("ka", [0.05, 0.7, 1.9, 3.1])
    def test_even_in_k(self, cell, ka):
        k = ka / REF_CELL_LENGTH
        assert dispersion.omega_analytic(-k, *cell) == \
            dispersion.omega_analytic(k, *cell)

    def test_monotone_in_band(self, cell):
        k = np.linspace(0.0, math.pi / REF_CELL_LENGTH, 400)
        w = dispersion.omega_analytic(k, *cell)
        assert np.all(np.diff(w) >= 0.0)
        assert w[0] == 0.0

    def test_vectorized_matches_scalars(self, cell):
        k = np.array([0.1, 1.0, 2.5]) / REF_CELL_LENGTH
        w = dispersion.omega_analytic(k, *cell)
        for i, ki in enumerate(k):
            assert w[i] == dispersion.omega_analytic(float(ki), *cell)

    def test_beyond_zone_edge_rejected(self, cell):
        with pytest.raises(OutOfBand):
            dispersion.omega_analytic(1.01 * math.pi / REF_CELL_LENGTH, *cell)

    def test_continuum_error_grows_with_k(self, cell):
        k = np.linspace(0.05, 3.0, 60) / REF_CELL_LENGTH
        err = 1.0 - dispersion.omega_analytic(k, *cell) / (REF_CELL_SPEED * k)
        assert np.all(np.diff(err) > 0.0)


class TestCutoffScale:
    def test_reference_value(self, ref_array, ref_squid):
        # c(0) / omega_p(0) = 3897778.146 / (2 pi * 1e12)
        scale = dispersion.cutoff_scale(ref_array, ref_squid, 0.0)
        assert isinstance(scale, float)
        assert scale == pytest.approx(6.203506590798789e-07, rel=1e-12)
        assert scale > REF_CELL_LENGTH

    @pytest.mark.parametrize("fraction", [0.1, 0.2, 0.35, 0.45])
    def test_flux_independent(self, ref_array, ref_squid, fraction):
        # Speed and plasma frequency carry the same root-cosine factor.
        flux = fraction * FLUX_QUANTUM
        biased = dispersion.cutoff_scale(ref_array, ref_squid, flux)
        base = dispersion.cutoff_scale(ref_array, ref_squid, 0.0)
        assert biased == pytest.approx(base, rel=1e-12)

    def test_margin_grows_as_pitch_shrinks(self, ref_array, ref_squid):
        # Halving the pitch at fixed capacitance per length halves C0 too;
        # the cutoff-to-pitch margin then grows by sqrt(2).
        finer = sh.ArrayParams(
            n_cells=ref_array.n_cells, cell_length=ref_array.cell_length / 2,
            ground_capacitance=ref_array.ground_capacitance / 2,
            environment_impedance=ref_array.environment_impedance)
        coarse = dispersion.cutoff_scale(ref_array, ref_squid, 0.0)
        fine = dispersion.cutoff_scale(finer, ref_squid, 0.0)
        grow = (fine / finer.cell_length) / (coarse / ref_array.cell_length)
        assert grow == pytest.approx(math.sqrt(2.0), rel=1e-12)


class TestFrontSpectrum:
    def test_reference_front_is_smooth(self, ref_array, step_pulse):
        fraction = dispersion.front_spectral_fraction(step_pulse, ref_array)
        assert 0.0 < fraction < 1e-3
        assert dispersion.front_resolved(step_pulse, ref_array)

    def test_sharp_front_is_flagged(self, ref_array):
        sharp = sh.FluxPulse(amplitude=0.2, velocity=REF_PULSE_SPEED,
                             steepness=1.0e7)
        assert dispersion.front_spectral_fraction(sharp, ref_array) > 0.5
        assert not dispersion.front_resolved(sharp, ref_array)

    def test_flat_profile_has_no_content(self, ref_array):
        flat = sh.FluxPulse(amplitude=0.0, dc_offset=0.1)
        assert dispersion.front_spectral_fraction(flat, ref_array) == 0.0

    def test_gaussian_reference_is_smooth(self, ref_array):
        pulse = sh.FluxPulse(amplitude=0.2, velocity=REF_PULSE_SPEED,
                             steepness=4.36e5, shape="gaussian")
        assert dispersion.front_resolved(pulse, ref_array)

    def test_fraction_grows_with_steepness(self, ref_array):
        fractions = [
            dispersion.front_spectral_fraction(
                sh.FluxPulse(amplitude=0.2, velocity=REF_PULSE_SPEED,
                             steepness=s), ref_array)
            for s in (4.0e5, 1.5e6, 4.0e6, 1.0e7)]
        assert fractions == sorted(fractions)


class TestMeasuredCurve:
    def test_long_wavelength_points(self, ref_array, ref_squid):
        # Shuffled drive order also checks the curve comes back sorted.
        targets = [0.3, 0.1, 0.2]
        freqs = [OMEGA_MAX * math.sin(ka / 2) for ka in targets]
        curve = dispersion.measure_dispersion(ref_array, ref_squid, 0.0, freqs)
        assert len(curve) == 3
        assert np.all(np.diff(curve.wavenumbers) > 0.0)
        measured_ka = curve.wavenumbers * REF_CELL_LENGTH
        np.testing.assert_allclose(measured_ka, [0.1, 0.2, 0.3], rtol=0.01)
        assert np.all(curve.relative_errors < 0.01)

    def test_zone_interior_point(self, ref_array, ref_squid):
        # At ka near 2 the drive sits well below the linear slope; the
        # measured ratio must track sin(ka/2)/(ka/2).
        w = OMEGA_MAX * math.sin(1.0)
        curve = dispersion.measure_dispersion(ref_array, ref_squid, 0.0, [w])
        k = curve.wavenumbers[0]
        ratio = curve.omega_measured[0] / (REF_CELL_SPEED * k)
        predicted = math.sin(0.5 * k * REF_CELL_LENGTH) / \
            (0.5 * k * REF_CELL_LENGTH)
        assert ratio == pytest.approx(predicted, rel=0.02)

    def test_flux_biased_line(self, ref_array, ref_squid):
        flux = 0.2 * FLUX_QUANTUM
        cell_time = circuit.cell_time(ref_array, ref_squid, flux)
        w_max = 2.0 / cell_time
        curve = dispersion.measure_dispersion(
            ref_array, ref_squid, flux, [w_max * math.sin(0.1)])
        assert curve.wavenumbers[0] * REF_CELL_LENGTH == pytest.approx(
            0.2, rel=0.01)
        assert curve.relative_errors[0] < 0.01
        assert curve.cell_time == cell_time

    def test_wider_window_no_worse(self, ref_array, ref_squid, monkeypatch):
        w = OMEGA_MAX * math.sin(0.15)
        base = dispersion.measure_dispersion(ref_array, ref_squid, 0.0, [w])
        monkeypatch.setattr(dispersion, "WINDOW_WAVELENGTHS", 20.0)
        wide = dispersion.measure_dispersion(ref_array, ref_squid, 0.0, [w])
        assert wide.relative_errors[0] < 1e-3
        assert wide.relative_errors[0] <= 2.0 * base.relative_errors[0]

    def test_deterministic(self, ref_array, ref_squid):
        w = OMEGA_MAX * math.sin(1.0)
        first = dispersion.measure_dispersion(ref_array, ref_squid, 0.0, [w])
        second = dispersion.measure_dispersion(ref_array, ref_squid, 0.0, [w])
        assert np.array_equal(first.wavenumbers, second.wavenumbers)

    def test_empty_request(self, ref_array, ref_squid):
        curve = dispersion.measure_dispersion(ref_array, ref_squid, 0.0, [])
        assert len(curve) == 0
        assert curve.wavenumbers.shape == (0,)
        assert curve.omega_measured.shape == (0,)

    def test_drive_above_band_rejected(self, ref_array, ref_squid):
        with pytest.raises(BandLimit):
            dispersion.measure_dispersion(ref_array, ref_squid, 0.0,
                                          [0.96 * OMEGA_MAX])

    def test_nonpositive_drive_rejected(self, ref_array, ref_squid):
        for w in (0.0, -1.0e12, math.nan):
            with pytest.raises(ValueError,
                               match="drive frequency .* is not positive"):
                dispersion.measure_dispersion(ref_array, ref_squid, 0.0, [w])

    def test_silent_drive_fails_fit(self, ref_array, ref_squid,
                                    monkeypatch):
        monkeypatch.setattr(dispersion, "DRIVE_AMPLITUDE", 0.0)
        with pytest.raises(FitFailure):
            dispersion.measure_dispersion(ref_array, ref_squid, 0.0,
                                          [OMEGA_MAX * math.sin(1.0)])

    def test_residual_over_threshold_fails_fit(self, ref_array, ref_squid,
                                               monkeypatch):
        monkeypatch.setattr(dispersion, "RESIDUAL_THRESHOLD", 0.0)
        with pytest.raises(FitFailure, match="phase fit residual"):
            dispersion.measure_dispersion(ref_array, ref_squid, 0.0,
                                          [OMEGA_MAX * math.sin(0.1)])


class TestLeapfrogRelation:
    # The scheme's exact relation is sin(w dt/2) = (dt/sqrt(L C0))
    # sin(k a/2); the measured k stays within 1e-5 of its solution, far
    # inside the 1% that criterion 7 allows against the continuous-time
    # relation.

    @staticmethod
    def deviations(array, squid, dc_offset):
        assert {0.1, 0.2, 0.3, 2.0} <= set(_DISPERSION_KA)  # criterion 7's
        flux = dc_offset * FLUX_QUANTUM
        cell_time = circuit.cell_time(array, squid, flux)
        freqs = [2.0 / cell_time * math.sin(0.5 * ka)
                 for ka in _DISPERSION_KA]
        curve = dispersion.measure_dispersion(array, squid, flux, freqs)
        dt = lattice.stable_timestep(
            array, squid,
            sh.FluxPulse(amplitude=0.0, dc_offset=flux / FLUX_QUANTUM),
            dispersion.COURANT_FRACTION)
        k_leap = 2.0 / REF_CELL_LENGTH * np.arcsin(
            cell_time / dt * np.sin(0.5 * curve.omega_measured * dt))
        assert len(curve) == len(_DISPERSION_KA)
        return np.abs(curve.wavenumbers / k_leap - 1.0)

    @pytest.mark.parametrize("settle", [4.0, 8.0, 12.0])
    @pytest.mark.parametrize("dc_offset", [0.0, 0.1])
    def test_cli_points_within_1e_5(self, ref_array, ref_squid, monkeypatch,
                                    dc_offset, settle):
        # The ka = 2 point moves most with the settle length.  With both
        # ends matched to the tone the worst deviation at the CLI's points
        # is 4.2e-6 at 4 settle periods, 2.4e-6 at 8 and 5.1e-6 at 12
        # (ka = 2), at either flux.
        monkeypatch.setattr(dispersion, "SETTLE_PERIODS", settle)
        deviation = self.deviations(ref_array, ref_squid, dc_offset)
        assert np.max(deviation) <= 1e-5, deviation

    @pytest.mark.parametrize("ka, bound", [(2.1, 2e-5), (2.49, 1e-3)])
    def test_above_the_cli_points(self, ref_array, ref_squid, ka, bound):
        # Above ka = 2 the deviation grows towards the band limit: over
        # settle lengths of 4 to 12 periods it stays at or below 7.0e-6 at
        # ka = 2.1, and below 5e-4 at ka = 2.49 and at 0.95 of the band
        # edge (ka = 2.50).
        w = OMEGA_MAX * math.sin(0.5 * ka)
        curve = dispersion.measure_dispersion(ref_array, ref_squid, 0.0, [w])
        dt = lattice.stable_timestep(ref_array, ref_squid,
                                     sh.FluxPulse(amplitude=0.0),
                                     dispersion.COURANT_FRACTION)
        k_leap = 2.0 / REF_CELL_LENGTH * math.asin(
            2.0 / (OMEGA_MAX * dt) * math.sin(0.5 * w * dt))
        assert abs(curve.wavenumbers[0] / k_leap - 1.0) <= bound


class TestSource:
    @pytest.mark.parametrize("steps", [1, 63, 64, 65, 130])
    def test_kicks_match_one_sine_per_step(self, monkeypatch, steps):
        # One array of sines and ramps over all the steps, differenced, gives
        # the bits of one source value per step as Python floats.  The ramp
        # ends at step 100, so 130 steps also run past it.
        w, dt = 0.3 * OMEGA_MAX, 1.7e-15
        times = 2.0e-13 + np.arange(steps) * dt
        monkeypatch.setattr(dispersion, "RAMP_PERIODS",
                            (times[0] + 100.5 * dt) * w / (2.0 * math.pi))
        kicks = list(dispersion._source_kicks(w, times, dt))
        old, expected = ramped_source(w, times[0]), []
        for t in times:
            new = ramped_source(w, t + dt)
            expected.append(dispersion.DRIVE_AMPLITUDE * (new - old))
            old = new
        assert np.array(kicks).tobytes() == np.array(expected).tobytes()
        assert all(type(kick) is float for kick in kicks)


class TestEnds:
    """A dispersion point's ends, which it writes itself at each yield of a
    "reflecting" March over the kernel's free ends."""

    def test_ends_with_mur_coefficient_are_the_kernels(self, ref_array,
                                                       ref_squid):
        # With kappa = dt/sqrt(L C0) and the Mur coefficient, the end
        # writes give the "absorbing" kernel's trajectory bit for bit, a
        # kick added to its node 0 at each yield: the point's ends are the
        # kernel's arithmetic with another coefficient.  The packet runs
        # into the far end, and the kicks, as a source gives, leave through
        # the near end.
        line = replace(ref_array, n_cells=200)
        pulse = sh.FluxPulse(amplitude=0.0)
        dt = lattice.stable_timestep(line, ref_squid, pulse,
                                     dispersion.COURANT_FRACTION)
        kappa = dt / circuit.cell_time(line, ref_squid, 0.0)
        beta = (kappa - 1.0) / (kappa + 1.0)
        packet = lattice.gaussian_packet(
            line, ref_squid, pulse, 100 * REF_CELL_LENGTH,
            10 * REF_CELL_LENGTH, 0.5, 1e-6, dt)
        kicks = 1e-10 * np.random.default_rng(5).standard_normal(800)
        kicks = kicks.tolist()

        def march(boundary):
            return lattice.March(packet, line, ref_squid, pulse,
                                 lattice.SolverConfig(n_steps=800, dt=dt,
                                                      boundary=boundary))

        kernel, absorbed = march("absorbing"), []
        steps = iter(kernel)
        next(steps)
        for _, kick in zip(steps, kicks):
            kernel.potential[0] += kick
            absorbed.append(kernel.potential.copy())
        written = march("reflecting")
        written = [written.potential.copy() for _ in
                   dispersion._driven_ends(written, beta, kicks)]
        assert len(written) == 800
        assert np.array(absorbed).tobytes() == np.array(written).tobytes()
        # The packet has left through the far end; a reflecting end would
        # have returned all of it.
        assert np.max(np.abs(written[-1])) < 0.05 * np.max(np.abs(written[0]))

    @pytest.mark.parametrize("ka", [0.1, 0.5, 2.0])
    def test_far_end_passes_its_tone(self, ka):
        # Exact samples of the outgoing tone exp i(k n - w dt m), at the
        # drive's w for ka and the leapfrog's k for w, satisfy the far-end
        # update pot[-1] = old[-2] + beta (pot[-2] - old[-1]).
        kappa = 0.2
        w_dt = 2.0 * kappa * math.sin(0.5 * ka)
        k = 2.0 * math.asin(math.sin(0.5 * w_dt) / kappa)
        beta = dispersion._end_coefficient(w_dt, kappa)
        n, m = np.arange(8), np.arange(5)[:, np.newaxis]
        wave = np.exp(1j * (k * n - w_dt * m))
        updated = wave[:-1, -2] + beta * (wave[1:, -2] - wave[:-1, -1])
        np.testing.assert_allclose(updated, wave[1:, -1], rtol=0, atol=1e-13)

    def test_far_end_tends_to_mur(self):
        # As w and k go to 0 the tone's coefficient becomes the kernel's
        # Mur coefficient, with a remainder of order (w dt)^2.
        kappa = 0.2
        mur = (kappa - 1.0) / (kappa + 1.0)
        for w_dt in (1e-2, 1e-3, 1e-4):
            beta = dispersion._end_coefficient(w_dt, kappa)
            assert abs(beta - mur) <= w_dt ** 2


class TestStreamedFit:
    """Each point runs one March and sums the cos/sin projection of its fit
    window over blocks of steps instead of keeping every step's window."""

    @pytest.mark.parametrize("block", ["default", "one", "divisor"])
    @pytest.mark.parametrize("ka", [0.3, 1.5, 2.0])
    def test_matches_whole_block_reference(self, ref_array, ref_squid,
                                           monkeypatch, ka, block):
        # The CLI's points never end the fit on a block boundary; a block
        # size dividing the fit's fit_steps + 1 windows does.  At ka = 2
        # their count, 151, is prime, and the whole fit is one block.
        w = OMEGA_MAX * math.sin(0.5 * ka)
        expected, fit_steps = reference_wavenumber(ref_array, ref_squid, 0.0,
                                                   w)
        if block == "one":
            monkeypatch.setattr(dispersion, "_FIT_BLOCK", 1)
        elif block == "divisor":
            size = max((d for d in range(2, 65) if (fit_steps + 1) % d == 0),
                       default=fit_steps + 1)
            monkeypatch.setattr(dispersion, "_FIT_BLOCK", size)
        curve = dispersion.measure_dispersion(ref_array, ref_squid, 0.0, [w])
        assert curve.wavenumbers[0] == pytest.approx(expected, rel=1e-12)

    def test_fit_holds_no_step_by_window_block(self, ref_array, ref_squid):
        # At ka = 0.1 the fit's 2515 steps of a 629-cell window would take
        # 12 MiB; a 64-row block of it takes 0.3 MiB.
        w = OMEGA_MAX * math.sin(0.05)
        tracemalloc.start()
        try:
            dispersion.measure_dispersion(ref_array, ref_squid, 0.0, [w])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20, peak


class TestCsvExport:
    def test_layout_and_roundtrip(self, ref_array, ref_squid, tmp_path):
        w = OMEGA_MAX * math.sin(1.0)
        curve = dispersion.measure_dispersion(ref_array, ref_squid, 0.0, [w])
        path = tmp_path / "curve.csv"
        dispersion.write_dispersion_csv(path, curve)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "omega_analytic", "omega_measured",
                           "rel_error"]
        assert len(rows) == 1 + len(curve)
        k, w_ana, w_meas, rel = (float(v) for v in rows[1])
        assert k == pytest.approx(curve.wavenumbers[0], rel=1e-12)
        assert w_meas == pytest.approx(w, rel=1e-12)
        assert rel == pytest.approx(abs(w_meas - w_ana) / w_ana, rel=1e-6)
