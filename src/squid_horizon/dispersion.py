"""Lattice dispersion: analytic relation, measurement, and cutoff scales.

The discrete line carries waves with omega = (2/sqrt(L C0)) |sin(k a / 2)|,
linear at long wavelength with speed a/sqrt(L C0) and saturating at the zone
edge.  The measurement path drives a uniform line with a soft sinusoidal
source, demodulates the steady state at the drive frequency and fits the
spatial phase, which is how the relation would be mapped out on hardware.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import bias, circuit, lattice
from ._csv import write_csv
from .constants import FLUX_QUANTUM
from .errors import BandLimit, FitFailure, OutOfBand

__all__ = [
    "COURANT_FRACTION",
    "DRIVE_AMPLITUDE",
    "FIT_PERIODS",
    "FRONT_KA_LIMIT",
    "RESIDUAL_THRESHOLD",
    "SETTLE_PERIODS",
    "WINDOW_WAVELENGTHS",
    "CutoffReport",
    "DispersionCurve",
    "cutoff_scale",
    "front_spectral_fraction",
    "front_resolved",
    "measure_dispersion",
    "omega_analytic",
    "write_dispersion_csv",
]

# A front with over _POWER_TOLERANCE of its gradient power above half a radian
# per cell undercuts the smooth-geometry picture; front_resolved flags it.
FRONT_KA_LIMIT = 0.5
_POWER_TOLERANCE = 1e-3

# measure_dispersion drives node 0 with amplitude DRIVE_AMPLITUDE, settles
# for the group-delay crossing plus SETTLE_PERIODS drive periods and then
# fits FIT_PERIODS periods over a window of WINDOW_WAVELENGTHS wavelengths,
# stepping at COURANT_FRACTION of the cell time.  A phase fit whose rms
# residual exceeds RESIDUAL_THRESHOLD (rad) is a FitFailure.
DRIVE_AMPLITUDE = 1.0e-6
SETTLE_PERIODS = 4.0
FIT_PERIODS = 8.0
WINDOW_WAVELENGTHS = 10.0
COURANT_FRACTION = 0.1
RESIDUAL_THRESHOLD = 0.2
# The fit copies this many steps' windows before adding them to its
# projection in one product; a multiply-add per step costs three to four
# copies.
_FIT_BLOCK = 64


@dataclass(frozen=True)
class DispersionCurve:
    """Sampled dispersion points, sorted by wavenumber.

    ``omega_measured`` is NaN where a point carries no measurement.
    """

    wavenumbers: np.ndarray
    omega_analytic: np.ndarray
    omega_measured: np.ndarray
    inductance: float
    capacitance: float
    cell_length: float

    def __len__(self) -> int:
        return len(self.wavenumbers)

    @property
    def relative_errors(self) -> np.ndarray:
        return np.abs(self.omega_measured - self.omega_analytic) / self.omega_analytic


@dataclass(frozen=True)
class CutoffReport:
    """Shortest geometric scale c/omega_p versus the lattice pitch."""

    scale: float
    cell_length: float


def omega_analytic(k, inductance: float, capacitance: float,
                   cell_length: float):
    """Lattice frequency (2/sqrt(L C0)) |sin(k a / 2)| in rad/s; raises
    OutOfBand for |k| beyond the zone edge pi/a."""
    k = np.asarray(k, dtype=float)
    edge = math.pi / cell_length
    if np.any(np.abs(k) > edge * (1.0 + 1e-12)):
        raise OutOfBand("|k| exceeds the zone edge pi/a = %.4e 1/m" % edge)
    scale = 2.0 / math.sqrt(inductance * capacitance)
    out = scale * np.abs(np.sin(0.5 * k * cell_length))
    return float(out) if out.ndim == 0 else out


def cutoff_scale(array: circuit.ArrayParams, squid: circuit.SquidParams,
                 flux: float) -> CutoffReport:
    """Analogue short-distance scale c/omega_p at the given flux bias.

    Both the propagation speed and the plasma frequency scale with the same
    root-cosine flux factor, so the reported scale is flux-independent; it
    exceeding the cell length is what lets the smooth description apply.
    """
    speed = circuit.cell_velocity(array, squid, flux)
    omega = circuit.effective_plasma_frequency(squid, flux)
    return CutoffReport(scale=speed / omega, cell_length=array.cell_length)


def _point_wavenumber(array: circuit.ArrayParams, squid: circuit.SquidParams,
                      pulse: bias.FluxPulse, dt: float, cell_time: float,
                      w: float) -> float:
    # One point of measure_dispersion: its own driven line, stepped through
    # the settle and then the fit steps in one run.  Each fit step's window
    # is projected on cos/sin of the drive by least squares, exact for a pure
    # tone whether or not the fit covers whole periods; the projection is
    # summed over blocks of _FIT_BLOCK steps.
    a = array.cell_length
    omega_max = 2.0 / cell_time
    ka = 2.0 * math.asin(w / omega_max)
    wavelength_cells = 2.0 * math.pi / ka
    window_start = 60
    window_cells = int(math.ceil(WINDOW_WAVELENGTHS * wavelength_cells))
    n = window_start + window_cells + 60
    line = replace(array, n_cells=n)

    drive = lattice.SineDrive(amplitude=DRIVE_AMPLITUDE, frequency=w)
    v_group = (a / cell_time) * math.cos(0.5 * ka)
    period = 2.0 * math.pi / w
    settle_time = n * a / v_group + SETTLE_PERIODS * period
    settle_steps = int(math.ceil(settle_time / dt))
    fit_steps = int(math.ceil(FIT_PERIODS * period / dt))

    march = lattice.March(lattice.zero_state(line), line, squid, pulse,
                          lattice.SolverConfig(n_steps=settle_steps + fit_steps,
                                               dt=dt, boundary="driven"),
                          drive=drive)
    window = slice(window_start, window_start + window_cells)
    drive_phase = w * march.step_times[settle_steps:]
    basis = np.array([np.cos(drive_phase), np.sin(drive_phase)])
    projection = np.zeros((2, window_cells))
    block = np.empty((_FIT_BLOCK, window_cells))
    for k, _ in enumerate(itertools.islice(march, settle_steps, None)):
        row = k % _FIT_BLOCK
        block[row] = march.potential[window]
        if row == _FIT_BLOCK - 1 or k == fit_steps:
            projection += basis[:, k - row:k + 1] @ block[:row + 1]

    coef = np.linalg.solve(basis @ basis.T, projection)
    phasors = coef[0] + 1j * coef[1]
    if np.max(np.abs(phasors)) < 1e-9 * max(abs(DRIVE_AMPLITUDE), 1e-30):
        raise FitFailure("no steady wave at %.3e rad/s" % w)
    phase = np.unwrap(np.angle(phasors))
    x = march.positions[window]
    slope, intercept = np.polyfit(x, phase, 1)
    residual = phase - (slope * x + intercept)
    rms = float(np.sqrt(np.mean(residual ** 2)))
    if rms > RESIDUAL_THRESHOLD:
        raise FitFailure("phase fit residual %.3f rad at %.3e rad/s"
                         % (rms, w))
    return abs(slope)


def measure_dispersion(array: circuit.ArrayParams, squid: circuit.SquidParams,
                       flux_dc: float, frequencies) -> DispersionCurve:
    """Map the dispersion relation by driving uniform lines, one per point.

    Each drive frequency gets its own line, sized so the phase fit spans
    WINDOW_WAVELENGTHS wavelengths.  Raises BandLimit for drives above 95% of
    the band edge and FitFailure when the steady state yields no usable phase
    profile.
    """
    ind = circuit.josephson_inductance(squid, flux_dc)
    cap = array.ground_capacitance
    a = array.cell_length
    cell_time = circuit.cell_time(array, squid, flux_dc)
    omega_max = 2.0 / cell_time
    frequencies = [float(w) for w in frequencies]
    for w in frequencies:
        if w > 0.95 * omega_max:
            raise BandLimit("drive %.3e rad/s above 0.95 of the band edge "
                            "%.3e rad/s" % (w, omega_max))
        if not w > 0.0:  # NaN included
            raise ValueError("drive frequency %.3e rad/s is not positive"
                             % w)

    flux_fraction = flux_dc / FLUX_QUANTUM
    pulse = bias.FluxPulse(amplitude=0.0, dc_offset=flux_fraction)
    dt = lattice.stable_timestep(array, squid, pulse, COURANT_FRACTION)

    measured_k = [_point_wavenumber(array, squid, pulse, dt, cell_time, w)
                  for w in frequencies]
    k = np.array(measured_k)
    order = np.argsort(k)
    k = k[order]
    w_drive = np.array(frequencies)[order]
    return DispersionCurve(wavenumbers=k,
                           omega_analytic=omega_analytic(k, ind, cap, a),
                           omega_measured=w_drive, inductance=ind,
                           capacitance=cap, cell_length=a)


def front_spectral_fraction(pulse: bias.FluxPulse,
                            array: circuit.ArrayParams) -> float:
    """Fraction of the front-gradient power above ka = FRONT_KA_LIMIT, at
    t = 0: broadening to s0/(1 + b u t) only makes the front smoother."""
    a = array.cell_length
    s = pulse.steepness
    width = 1.0 / max(s, 1.0 / (array.n_cells * a))
    span = max(40.0 * width, 40.0 * a)
    m = 8192
    x = np.linspace(-span, span, m, endpoint=False)
    dx = 2.0 * span / m
    frac = bias.comoving_flux_fraction(pulse, x + pulse.front_position, 0.0)
    # Scalar spacing keeps the gradient of a constant profile exactly zero;
    # per-point spacings would inject rounding noise across the spectrum.
    gradient = np.gradient(frac, dx)
    power = np.abs(np.fft.rfft(gradient)) ** 2
    k = 2.0 * np.pi * np.fft.rfftfreq(m, d=dx)
    total = power.sum()
    if total == 0.0:
        return 0.0
    return float(power[k * a > FRONT_KA_LIMIT].sum() / total)


def front_resolved(pulse: bias.FluxPulse, array: circuit.ArrayParams) -> bool:
    """True when the bias front is smooth on the lattice scale."""
    return front_spectral_fraction(pulse, array) <= _POWER_TOLERANCE


def write_dispersion_csv(path, curve: DispersionCurve) -> None:
    """Write the curve as CSV: k, omega_analytic, omega_measured, rel_error."""
    write_csv(path, "k,omega_analytic,omega_measured,rel_error",
              "%.12e,%.12e,%.12e,%.12e", curve.wavenumbers,
              curve.omega_analytic, curve.omega_measured,
              curve.relative_errors)
