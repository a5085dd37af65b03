"""Effective space-time geometry seen by small-signal waves on the line.

In the frame comoving with the flux front the long-wavelength field obeys a
wave equation in a flowing medium: the local propagation speed c(xi) is set
by the flux-tuned cell inductance while the medium streams backwards at the
front speed u.  Points where c(xi) = u are horizons; the gradient of c
there sets an emission temperature and the associated thermal power.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import bias, circuit
from ._csv import write_csv
from .constants import BOLTZMANN, HBAR
from .errors import NoHorizon, OutOfRange

# Elements per broadcast block of the photon budget's rows.  Larger
# temporaries, once freed, make glibc raise its mmap threshold and keep
# later allocations on the heap, which lifts the peak resident size.
_BLOCK_ELEMENTS = 8192

__all__ = [
    "VelocityProfile",
    "EffectiveMetric",
    "HorizonReport",
    "PhotonBudget",
    "velocity_profile",
    "effective_metric",
    "find_horizons",
    "emitting_horizon",
    "hawking_temperature",
    "radiated_power",
    "photons_per_pulse",
    "steepness_for_gradient_cap",
    "write_horizon_trace",
]


@dataclass(frozen=True)
class VelocityProfile:
    """Sampled propagation speed in the comoving frame at one instant.

    positions are comoving coordinates xi = x - u*t (m), speed is c(xi)
    (m/s) and flow_speed is the front speed u.  evaluator, when present,
    computes c at a float or an array of arbitrary xi and is used for
    sub-cell refinement.  spacing is the pitch of the grid the positions
    were taken from, which scales the refinement tolerance and gradient
    step; it defaults to the smallest gap between the positions, so a
    window cut from a grid must carry the whole grid's.
    """

    positions: np.ndarray
    speed: np.ndarray
    flow_speed: float
    time: float = 0.0
    evaluator: Optional[Callable] = field(
        default=None, repr=False, compare=False)
    spacing: Optional[float] = None

    def __post_init__(self) -> None:
        if self.spacing is None:
            object.__setattr__(self, "spacing", _grid_step(self.positions))

    def speed_at(self, xi):
        """c at comoving position xi, a float or an array."""
        if self.evaluator is not None:
            return self.evaluator(xi)
        out = np.interp(xi, self.positions, self.speed)
        return float(out) if np.ndim(out) == 0 else out


def _grid_step(positions) -> float:
    # Smallest gap between sorted positions; 1.0 for a single sample.
    xs = np.asarray(positions, dtype=float)
    return float(np.min(np.diff(xs))) if len(xs) > 1 else 1.0


@dataclass(frozen=True)
class EffectiveMetric:
    """Inverse effective metric (1/c^2) [[1, -u], [-u, u^2 - c^2]] at a point."""

    position: float
    flow_speed: float
    sound_speed: float

    @property
    def components(self) -> np.ndarray:
        u, c = self.flow_speed, self.sound_speed
        return np.array([[1.0, -u], [-u, u * u - c * c]]) / (c * c)

    @property
    def determinant(self) -> float:
        return float(np.linalg.det(self.components))


@dataclass(frozen=True)
class HorizonReport:
    """One horizon crossing: comoving position (m), kind, and the local
    speed gradient dc/dxi (1/s)."""

    position: float
    kind: str  # "black" or "white"
    gradient: float


@dataclass(frozen=True)
class PhotonBudget:
    """Emission history of one pulse traversal and the integrated count."""

    expected_count: float
    times: np.ndarray
    horizon_positions: np.ndarray
    gradients: np.ndarray
    temperatures: np.ndarray
    powers: np.ndarray


def velocity_profile(array: circuit.ArrayParams, squid: circuit.SquidParams,
                     pulse: bias.FluxPulse, time: float = 0.0,
                     positions: Optional[np.ndarray] = None
                     ) -> VelocityProfile:
    """Comoving propagation-speed profile c(xi) at the given time.

    The default grid covers n_cells cell centres centred on the front.  The
    samples and the attached evaluator take c from the same arithmetic, so
    horizon refinement is not limited by the grid pitch and sees the curve
    the grid samples bit for bit.
    """
    if positions is None:
        positions = _comoving_grid(array, pulse)
    else:
        positions = np.asarray(positions, dtype=float)
    evaluator = _speed_evaluator(array, squid, pulse, time)
    return VelocityProfile(positions=positions, speed=evaluator(positions),
                           flow_speed=pulse.velocity, time=time,
                           evaluator=evaluator)


def _comoving_grid(array: circuit.ArrayParams,
                   pulse: bias.FluxPulse) -> np.ndarray:
    # n_cells cell centres, centred on the front.
    a = array.cell_length
    n = array.n_cells
    return pulse.front_position + (np.arange(n) + 0.5 - 0.5 * n) * a


def _speed_evaluator(array: circuit.ArrayParams, squid: circuit.SquidParams,
                     pulse: bias.FluxPulse, time):
    # c(xi) at the given time; time may be a column of times against a
    # row of xi.
    def evaluator(xi):
        flux = bias.comoving_flux(pulse, xi, time)
        return circuit.cell_velocity(array, squid, flux)
    return evaluator


def effective_metric(profile: VelocityProfile, xi: float) -> EffectiveMetric:
    """Inverse effective metric at comoving position xi.

    Raises OutOfRange when xi lies outside the sampled profile.
    """
    lo = float(profile.positions[0])
    hi = float(profile.positions[-1])
    if not lo <= xi <= hi:
        raise OutOfRange("xi = %.4g m outside sampled range [%.4g, %.4g]"
                         % (xi, lo, hi))
    return EffectiveMetric(position=xi, flow_speed=profile.flow_speed,
                           sound_speed=profile.speed_at(xi))


def _gradient(profile: VelocityProfile, xi: float, h: float) -> float:
    # Centred difference with one Richardson step: O(h^4).  The four
    # probes take one call; each is the value a call with it alone gives.
    up, down, half_up, half_down = profile.speed_at(
        xi + np.array([h, -h, 0.5 * h, -0.5 * h])).tolist()
    d1 = (up - down) / (2.0 * h)
    d2 = (half_up - half_down) / h
    return (4.0 * d2 - d1) / 3.0


def _offset(xi: float, evaluator, u: float) -> float:
    # c(xi) - u as a module function: scipy keeps the function it is given
    # in a reference cycle, and a closure there would hold the profile.
    return evaluator(xi) - u


def find_horizons(profile: VelocityProfile) -> tuple[HorizonReport, ...]:
    """Locate all crossings of c(xi) = u in the sampled profile.

    Brackets sign changes between consecutive nonzero samples of c - u and
    refines each root: with the profile evaluator when available, by linear
    interpolation otherwise.  A sample where c equals u exactly is a root;
    a run of such samples between opposite signs is one horizon at the
    run's centre, and a touch with the same sign on both sides is none.
    The crossing is classified by its gradient: flow in the front frame
    streams towards -xi, so a crossing with dc/dxi > 0 traps the region
    behind it (black); the opposite sign releases nothing inwards (white).
    """
    # Imported here, not at module top: scipy.optimize takes longer to load
    # than most subcommands take to run, and only this refinement and the
    # broadening calibration need it.
    from scipy.optimize import brentq

    u = profile.flow_speed
    xs = np.asarray(profile.positions, dtype=float)
    f = np.asarray(profile.speed, dtype=float) - u
    spacing = profile.spacing
    # Brackets (lo, hi) are consecutive nonzero samples whose signs differ;
    # exact zeros lie strictly between them.  A NaN sample counts as nonzero
    # and brackets both its neighbours.  Without exact zeros, lo is
    # np.flatnonzero((f[:-1] != 0) & ~(f[:-1] * f[1:] >= 0)) and hi = lo + 1.
    nonzero = np.flatnonzero(f != 0.0)
    crossing = ~(f[nonzero[:-1]] * f[nonzero[1:]] >= 0.0)
    lo, hi = nonzero[:-1][crossing], nonzero[1:][crossing]
    interpolated = xs[lo] + (xs[hi] - xs[lo]) * f[lo] / (f[lo] - f[hi])
    reports = []
    for i, j, linear in zip(lo.tolist(), hi.tolist(), interpolated.tolist()):
        if j > i + 1:
            root = 0.5 * float(xs[i + 1] + xs[j - 1])
        elif profile.evaluator is not None:
            root = float(brentq(_offset, float(xs[i]), float(xs[j]),
                                args=(profile.evaluator, u),
                                xtol=1.0e-6 * spacing))
        else:
            root = linear
        grad = _gradient(profile, root, 0.25 * spacing)
        kind = "black" if grad > 0.0 else "white"
        reports.append(HorizonReport(position=root, kind=kind, gradient=grad))
    return tuple(reports)


def emitting_horizon(horizons) -> HorizonReport:
    """The emitter among found horizons: the first black one, else the
    first one; raises NoHorizon when there is none."""
    if not horizons:
        raise NoHorizon("profile has no c = u crossing")
    return next((h for h in horizons if h.kind == "black"), horizons[0])


def hawking_temperature(profile: VelocityProfile,
                        horizon: Optional[HorizonReport] = None) -> float:
    """Emission temperature hbar*|dc/dxi| / (2*pi*k_B) at the horizon (K).

    With no horizon given, uses the emitting horizon of the profile (see
    emitting_horizon); raises NoHorizon when the profile has none at all.
    """
    if horizon is None:
        horizon = emitting_horizon(find_horizons(profile))
    return HBAR * abs(horizon.gradient) / (2.0 * np.pi * BOLTZMANN)


def radiated_power(temperature: float) -> float:
    """One-dimensional thermal power (pi/12/hbar) (k_B T)^2 in watts."""
    kt = BOLTZMANN * temperature
    return np.pi * kt * kt / (12.0 * HBAR)


def photons_per_pulse(array: circuit.ArrayParams, squid: circuit.SquidParams,
                      pulse: bias.FluxPulse, line_length_cells: int,
                      samples: int = 65) -> PhotonBudget:
    """Expected photon number emitted while the front crosses the line.

    Integrates the emission rate power/(k_B T_H) over the traversal time
    line_length_cells * cell_length / u, with the temperature history taken
    from the (possibly broadening) comoving profile at samples evenly
    spaced times.  Only the cells of the front's window at the last, widest
    sample are evaluated: off it the profile is exactly flat at every
    sample, so each horizon equals find_horizons on the full
    velocity_profile.

    Raises ValueError for a still pulse, line_length_cells <= 0 or
    samples < 2, and NoHorizon at the first sample without a black horizon.
    """
    if pulse.velocity <= 0.0:
        raise ValueError("photon budget needs a moving pulse")
    if line_length_cells <= 0:
        raise ValueError("line_length_cells must be positive")
    if samples < 2:
        raise ValueError("photon budget needs at least 2 samples")
    total_time = line_length_cells * array.cell_length / pulse.velocity
    times = np.linspace(0.0, total_time, samples)

    grid = _comoving_grid(array, pulse)
    spacing = _grid_step(grid)
    lo, hi = bias.comoving_window(pulse, times[-1], grid)[:2]
    window = grid[lo:hi]
    rows = max(1, _BLOCK_ELEMENTS // len(window))

    positions = np.empty(samples)
    gradients = np.empty(samples)
    temperatures = np.empty(samples)
    powers = np.empty(samples)
    for i, t in enumerate(times):
        if i % rows == 0:  # the speeds of the next block of rows at once
            speeds = _speed_evaluator(array, squid, pulse,
                                      times[i:i + rows, np.newaxis])(window)
        profile = VelocityProfile(window, speeds[i % rows], pulse.velocity, t,
                                  _speed_evaluator(array, squid, pulse, t),
                                  spacing)
        found = find_horizons(profile)
        blacks = [h for h in found if h.kind == "black"]
        if not blacks:
            raise NoHorizon("no black horizon at t = %.3e s" % t)
        h = blacks[0]
        temp = hawking_temperature(profile, h)
        positions[i] = h.position
        gradients[i] = h.gradient
        temperatures[i] = temp
        powers[i] = radiated_power(temp)

    rates = powers / (BOLTZMANN * temperatures)
    count = float(np.trapezoid(rates, times))
    return PhotonBudget(expected_count=count, times=times,
                        horizon_positions=positions, gradients=gradients,
                        temperatures=temperatures, powers=powers)


def steepness_for_gradient_cap(array: circuit.ArrayParams,
                               squid: circuit.SquidParams,
                               amplitude: float, dc_offset: float,
                               velocity: float, cap: float) -> float:
    """Front steepness s0 whose horizon speed-gradient equals cap (1/s).

    For the tanh front the gradient at the horizon is proportional to s0
    (the horizon sits at a fixed flux value), so one probe profile at unit
    steepness fixes the scale.
    """
    probe = bias.FluxPulse(amplitude=amplitude, dc_offset=dc_offset,
                           velocity=velocity, steepness=1.0)
    span = np.linspace(-8.0, 8.0, 4001)
    profile = velocity_profile(array, squid, probe, 0.0,
                               positions=probe.front_position + span)
    found = find_horizons(profile)
    if not found:
        raise NoHorizon("no horizon for the requested amplitude and speed")
    return float(cap / abs(found[0].gradient))


def write_horizon_trace(path, budget: PhotonBudget) -> None:
    """Write the emission history as CSV with stable formatting."""
    write_csv(path, "t,x_h,grad_c,T_H_K,power_W",
              "%.12e,%.12e,%.12e,%.12e,%.12e", budget.times,
              budget.horizon_positions, budget.gradients,
              budget.temperatures, budget.powers)
