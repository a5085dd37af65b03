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


def reference_wavenumber(array, squid, flux, w):
    """One point of measure_dispersion by the whole-block algorithm: a
    settle run, then a fit run that keeps every step's window, projected on
    cos/sin of the drive afterwards.  Returns k and the fit's step count."""
    pulse = sh.FluxPulse(amplitude=0.0, dc_offset=flux / FLUX_QUANTUM)
    dt = lattice.stable_timestep(array, squid, pulse,
                                 dispersion.COURANT_FRACTION)
    cell_time = circuit.cell_time(array, squid, flux)
    a = array.cell_length
    ka = 2.0 * math.asin(w * cell_time / 2.0)
    window_cells = int(math.ceil(dispersion.WINDOW_WAVELENGTHS
                                 * 2.0 * math.pi / ka))
    line = replace(array, n_cells=60 + window_cells + 60)
    drive = lattice.SineDrive(amplitude=dispersion.DRIVE_AMPLITUDE,
                              frequency=w)
    period = 2.0 * math.pi / w
    settle_time = (line.n_cells * a / ((a / cell_time) * math.cos(0.5 * ka))
                   + dispersion.SETTLE_PERIODS * period)
    settle_steps = int(math.ceil(settle_time / dt))
    fit_steps = int(math.ceil(dispersion.FIT_PERIODS * period / dt))

    warmup = lattice.run(lattice.zero_state(line), line, squid, pulse,
                         lattice.SolverConfig(n_steps=settle_steps, dt=dt,
                                              boundary="driven"),
                         drive=drive)
    window = slice(60, 60 + window_cells)
    march = lattice.March(warmup.final_state, line, squid, pulse,
                          lattice.SolverConfig(n_steps=fit_steps, dt=dt,
                                               boundary="driven"),
                          drive=drive)
    samples = np.empty((fit_steps + 1, window_cells))
    for m in march:
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
    ind = circuit.josephson_inductance(ref_squid, 0.0)
    return ind, ref_array.ground_capacitance, ref_array.cell_length


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
        report = dispersion.cutoff_scale(ref_array, ref_squid, 0.0)
        assert report.scale == pytest.approx(6.203506590798789e-07, rel=1e-12)
        assert report.cell_length == REF_CELL_LENGTH
        assert report.scale > report.cell_length

    @pytest.mark.parametrize("fraction", [0.1, 0.2, 0.35, 0.45])
    def test_flux_independent(self, ref_array, ref_squid, fraction):
        # Speed and plasma frequency carry the same root-cosine factor.
        flux = fraction * FLUX_QUANTUM
        biased = dispersion.cutoff_scale(ref_array, ref_squid, flux)
        base = dispersion.cutoff_scale(ref_array, ref_squid, 0.0)
        assert biased.scale == pytest.approx(base.scale, rel=1e-12)

    def test_margin_grows_as_pitch_shrinks(self, ref_array, ref_squid):
        # Halving the pitch at fixed capacitance per length halves C0 too;
        # the cutoff-to-pitch margin then grows by sqrt(2).
        finer = sh.ArrayParams(
            n_cells=ref_array.n_cells, cell_length=ref_array.cell_length / 2,
            ground_capacitance=ref_array.ground_capacitance / 2,
            environment_impedance=ref_array.environment_impedance)
        coarse = dispersion.cutoff_scale(ref_array, ref_squid, 0.0)
        fine = dispersion.cutoff_scale(finer, ref_squid, 0.0)
        grow = (fine.scale / fine.cell_length) / (coarse.scale /
                                                  coarse.cell_length)
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
        ind = circuit.josephson_inductance(ref_squid, flux)
        w_max = 2.0 / math.sqrt(ind * ref_array.ground_capacitance)
        curve = dispersion.measure_dispersion(
            ref_array, ref_squid, flux, [w_max * math.sin(0.1)])
        assert curve.wavenumbers[0] * REF_CELL_LENGTH == pytest.approx(
            0.2, rel=0.01)
        assert curve.relative_errors[0] < 0.01
        assert curve.inductance == pytest.approx(ind, rel=1e-12)

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
    @pytest.mark.parametrize("dc_offset", [0.0, 0.1])
    def test_measured_k_solves_leapfrog_relation(self, ref_array, ref_squid,
                                                 dc_offset):
        # The scheme's exact relation is sin(w dt/2) = (dt/sqrt(L C0))
        # sin(k a/2); the measured k stays within 2e-5 of its solution,
        # far inside the 1% that criterion 7 allows against the
        # continuous-time relation.
        assert {0.1, 0.2, 0.3, 2.0} <= set(_DISPERSION_KA)  # criterion 7's
        flux = dc_offset * FLUX_QUANTUM
        cell_time = circuit.cell_time(ref_array, ref_squid, flux)
        freqs = [2.0 / cell_time * math.sin(0.5 * ka)
                 for ka in _DISPERSION_KA]
        curve = dispersion.measure_dispersion(ref_array, ref_squid, flux,
                                              freqs)
        dt = lattice.stable_timestep(
            ref_array, ref_squid,
            sh.FluxPulse(amplitude=0.0, dc_offset=flux / FLUX_QUANTUM),
            dispersion.COURANT_FRACTION)
        k_leap = 2.0 / REF_CELL_LENGTH * np.arcsin(
            cell_time / dt * np.sin(0.5 * curve.omega_measured * dt))
        deviation = np.abs(curve.wavenumbers / k_leap - 1.0)
        assert len(curve) == len(_DISPERSION_KA)
        assert np.max(deviation) <= 2e-5, deviation


class TestStreamedFit:
    """Each point runs one March and sums the cos/sin projection of its fit
    window over blocks of steps instead of keeping every step's window."""

    @pytest.mark.parametrize("block", ["default", "one", "divisor"])
    @pytest.mark.parametrize("ka", [0.3, 1.5, 2.0])
    def test_matches_whole_block_reference(self, ref_array, ref_squid,
                                           monkeypatch, ka, block):
        # The CLI's points never end the fit on a block boundary; a block
        # size dividing the fit's fit_steps + 1 windows does.
        w = OMEGA_MAX * math.sin(0.5 * ka)
        expected, fit_steps = reference_wavenumber(ref_array, ref_squid, 0.0,
                                                   w)
        if block == "one":
            monkeypatch.setattr(dispersion, "_FIT_BLOCK", 1)
        elif block == "divisor":
            size = max(d for d in range(2, 65) if (fit_steps + 1) % d == 0)
            assert size < fit_steps + 1
            monkeypatch.setattr(dispersion, "_FIT_BLOCK", size)
        curve = dispersion.measure_dispersion(ref_array, ref_squid, 0.0, [w])
        assert curve.wavenumbers[0] == pytest.approx(expected, rel=1e-12)

    def test_fit_holds_no_step_by_window_block(self, ref_array, ref_squid):
        # At ka = 0.1 the fit's 5030 steps of a 629-cell window would take
        # 24 MiB; a 64-row block of it takes 0.3 MiB.
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
