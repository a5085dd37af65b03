"""Lattice dispersion: the analytic relation and its measurement.

The discrete line carries waves with omega = (2/sqrt(L C0)) |sin(k a / 2)|,
linear at long wavelength with speed a/sqrt(L C0) and saturating at the zone
edge.  The measurement path drives a uniform line with a soft sinusoidal
source at node 0, demodulates the steady state at the drive frequency and
fits the spatial phase, which is how the relation would be mapped out on
hardware.
"""

from __future__ import annotations

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
    "RAMP_PERIODS",
    "RESIDUAL_THRESHOLD",
    "SETTLE_PERIODS",
    "WINDOW_WAVELENGTHS",
    "DispersionCurve",
    "measure_dispersion",
    "omega_analytic",
    "write_dispersion_csv",
]

# measure_dispersion drives node 0 of a "reflecting" March with amplitude
# DRIVE_AMPLITUDE, ramped on as sin^2 over RAMP_PERIODS drive periods, and
# writes both end nodes itself: at the yield after each step it writes each
# end over the kernel's free end by the first-order Mur update (Engquist &
# Majda 1977; Mur 1981), with the coefficient that passes the drive tone
# without reflection, so the line looks infinite to the drive, and adds the
# source's increment over the step to node 0 in the same write.  A point
# settles for the group-delay crossing plus SETTLE_PERIODS drive periods and
# then fits FIT_PERIODS periods over a window of WINDOW_WAVELENGTHS
# wavelengths, stepping at COURANT_FRACTION of the cell time.  A phase fit
# whose rms residual exceeds RESIDUAL_THRESHOLD (rad) is a FitFailure.
DRIVE_AMPLITUDE = 1.0e-6
RAMP_PERIODS = 10.0
SETTLE_PERIODS = 4.0
FIT_PERIODS = 8.0
WINDOW_WAVELENGTHS = 10.0
COURANT_FRACTION = 0.2
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
    cell_time: float
    cell_length: float

    def __len__(self) -> int:
        return len(self.wavenumbers)

    @property
    def relative_errors(self) -> np.ndarray:
        """|omega_measured - omega_analytic| / omega_analytic, against the
        continuous-time relation: its 4.7e-3 at ka = 2 is almost all the
        leapfrog's own time-step error, as the measured k holds the
        leapfrog's relation to 1e-5."""
        return np.abs(self.omega_measured - self.omega_analytic) / self.omega_analytic


def omega_analytic(k, cell_time: float, cell_length: float):
    """Lattice frequency (2/cell_time) |sin(k a / 2)| in rad/s, with
    cell_time = sqrt(L C0) as circuit.cell_time gives it; raises OutOfBand
    for |k| beyond the zone edge pi/a."""
    k = np.asarray(k, dtype=float)
    edge = math.pi / cell_length
    if np.any(np.abs(k) > edge * (1.0 + 1e-12)):
        raise OutOfBand("|k| exceeds the zone edge pi/a = %.4e 1/m" % edge)
    out = (2.0 / cell_time) * np.abs(np.sin(0.5 * k * cell_length))
    return float(out) if out.ndim == 0 else out


def _source_kicks(w: float, times: np.ndarray, dt: float):
    # The source's increment DRIVE_AMPLITUDE * (s(t + dt) - s(t)) over the
    # step from each of times, s(t) = r(t) sin w t with r(t) = sin^2(pi t /
    # (2 T)) up to T = RAMP_PERIODS periods and 1 after, as Python floats
    # read one by one from one array of s over [t0, times + dt].
    ramp_time = RAMP_PERIODS * 2.0 * math.pi / w
    t = np.concatenate((times[:1], times + dt))
    s = np.sin(w * t)
    ramp = t < ramp_time
    s[ramp] *= np.sin((0.5 * math.pi / ramp_time) * t[ramp]) ** 2
    return map(float, DRIVE_AMPLITUDE * np.diff(s))


def _end_coefficient(w_dt: float, kappa: float) -> float:
    # The end update pot[-1] = old[-2] + beta (pot[-2] - old[-1]) holds
    # exactly for the outgoing wave exp i(k n - w dt m) at node n and step m
    # (k in radians per cell) when
    # beta = sin((w dt - k)/2) / sin((w dt + k)/2), and its mirror at node 0
    # for the mirrored wave.  With k the leapfrog's wavenumber of the tone,
    # sin(w dt/2) = kappa sin(k/2), the ends pass the tone without
    # reflection; as w and k go to 0, beta goes to (kappa - 1)/(kappa + 1).
    k = 2.0 * math.asin(math.sin(0.5 * w_dt) / kappa)
    return math.sin(0.5 * (w_dt - k)) / math.sin(0.5 * (w_dt + k))


def _point_wavenumber(array: circuit.ArrayParams, squid: circuit.SquidParams,
                      pulse: bias.FluxPulse, dt: float, cell_time: float,
                      omega_max: float, w: float) -> float:
    # One point of measure_dispersion: its own line, stepped through the
    # settle and then the fit steps in one run.  At the yield after each
    # step the loop writes both ends from the values kept at the yield
    # before: pot[0] = old[1] + beta (pot[1] - old[0]) + kick, with the
    # step's source kick, and pot[-1] = old[-2] + beta (pot[-2] - old[-1]).
    # Each fit step's window is projected on cos/sin of the drive by least
    # squares, exact for a pure tone whether or not the fit covers whole
    # periods; the projection is summed over blocks of _FIT_BLOCK steps.
    ka = 2.0 * math.asin(w / omega_max)
    wavelength_cells = 2.0 * math.pi / ka
    window_start = 60
    window_cells = int(math.ceil(WINDOW_WAVELENGTHS * wavelength_cells))
    n = window_start + window_cells + 60
    line = replace(array, n_cells=n)

    period = 2.0 * math.pi / w
    # The crossing time n a / v_group with v_group = a cos(ka/2)/cell_time,
    # a cancelled: a speed that underflows would divide by zero.
    settle_time = n * cell_time / math.cos(0.5 * ka) + SETTLE_PERIODS * period
    settle_steps = int(math.ceil(settle_time / dt))
    fit_steps = int(math.ceil(FIT_PERIODS * period / dt))

    march = lattice.March(lattice.zero_state(line), line, squid, pulse,
                          lattice.SolverConfig(n_steps=settle_steps + fit_steps,
                                               dt=dt, boundary="reflecting"))
    kicks = _source_kicks(w, march.step_times[:-1], dt)
    beta = _end_coefficient(w * dt, dt / cell_time)
    window = slice(window_start, window_start + window_cells)
    drive_phase = w * march.step_times[settle_steps:]
    basis = np.array([np.cos(drive_phase), np.sin(drive_phase)])
    projection = np.zeros((2, window_cells))
    block = np.empty((_FIT_BLOCK, window_cells))
    steps = iter(march)
    next(steps)  # the initial state: each later yield follows one step
    pot = march.potential
    left0, left1 = pot.item(0), pot.item(1)
    right0, right1 = pot.item(-2), pot.item(-1)
    for m, kick in zip(steps, kicks):
        pot[0] = left0 = left1 + beta * (pot.item(1) - left0) + kick
        pot[-1] = right1 = right0 + beta * (pot.item(-2) - right1)
        left1, right0 = pot.item(1), pot.item(-2)
        if m >= settle_steps:
            k = m - settle_steps
            row = k % _FIT_BLOCK
            block[row] = pot[window]
            if row == _FIT_BLOCK - 1 or k == fit_steps:
                projection += basis[:, k - row:k + 1] @ block[:row + 1]

    coef = np.linalg.solve(basis @ basis.T, projection)
    phasors = coef[0] + 1j * coef[1]
    if np.max(np.abs(phasors)) < 1e-9 * max(abs(DRIVE_AMPLITUDE), 1e-30):
        raise FitFailure("no steady wave at %.3e rad/s" % w)
    phase = np.unwrap(np.angle(phasors))
    # On cell indices: the squares of positions in metres underflow on a
    # tiny cell length.
    cells = np.arange(window_cells) + (window_start + 0.5)
    slope, intercept = np.polyfit(cells, phase, 1)
    residual = phase - (slope * cells + intercept)
    rms = float(np.sqrt(np.mean(residual ** 2)))
    if rms > RESIDUAL_THRESHOLD:
        raise FitFailure("phase fit residual %.3f rad at %.3e rad/s"
                         % (rms, w))
    return circuit._finite_quotient(abs(float(slope)), array.cell_length,
                                    "wavenumber k")


def measure_dispersion(array: circuit.ArrayParams, squid: circuit.SquidParams,
                       flux_dc: float, frequencies) -> DispersionCurve:
    """Map the dispersion relation by driving uniform lines, one per point.

    Each drive frequency gets its own line, sized so the phase fit spans
    WINDOW_WAVELENGTHS wavelengths.  The measured k solves the leapfrog's own
    relation sin(w dt/2) = (dt/sqrt(L C0)) sin(k a/2) to within 1e-5 up to
    ka = 2.1, and to within 5e-4 from there to the band limit.  Raises
    BandLimit for drives above 95% of the band edge and FitFailure when the
    steady state yields no usable phase profile.
    """
    cell_time = circuit.cell_time(array, squid, flux_dc)
    omega_max = circuit._finite_quotient(2.0, cell_time,
                                         "band edge 2/sqrt(L*C0)")
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

    measured_k = [_point_wavenumber(array, squid, pulse, dt, cell_time,
                                    omega_max, w) for w in frequencies]
    k = np.array(measured_k)
    order = np.argsort(k)
    k = k[order]
    w_drive = np.array(frequencies)[order]
    a = array.cell_length
    return DispersionCurve(wavenumbers=k,
                           omega_analytic=omega_analytic(k, cell_time, a),
                           omega_measured=w_drive, cell_time=cell_time,
                           cell_length=a)


def write_dispersion_csv(path, curve: DispersionCurve) -> None:
    """Write the curve as CSV: k, omega_analytic, omega_measured, rel_error."""
    write_csv(path, "k,omega_analytic,omega_measured,rel_error",
              "%.12e,%.12e,%.12e,%.12e", curve.wavenumbers,
              curve.omega_analytic, curve.omega_measured,
              curve.relative_errors)
