"""Effective space-time geometry seen by small-signal waves on the line.

In the frame comoving with the flux front the long-wavelength field obeys a
wave equation in a flowing medium: the local propagation speed c(xi) is set
by the flux-tuned cell inductance while the medium streams backwards at the
front speed u.  Points where c(xi) = u are horizons; the gradient of c
there sets an emission temperature and the associated thermal power.
"""

from __future__ import annotations

import numbers
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

# scipy.optimize.brentq's default relative tolerance and iteration cap.
_RTOL = 4.0 * np.finfo(float).eps
_MAXITER = 100

# Offsets of the gradient's four probes, in units of its step.
_PROBES = np.array([1.0, -1.0, 0.5, -0.5])

__all__ = [
    "VelocityProfile",
    "EffectiveMetric",
    "HorizonReport",
    "PhotonBudget",
    "TraversalHorizons",
    "velocity_profile",
    "effective_metric",
    "find_horizons",
    "line_horizons",
    "lane_brentq",
    "emitting_horizon",
    "hawking_temperature",
    "radiated_power",
    "photons_per_pulse",
    "traversal_horizons",
    "steepness_for_gradient_cap",
    "write_horizon_trace",
]


@dataclass(frozen=True)
class VelocityProfile:
    """Sampled propagation speed in the comoving frame at one instant.

    positions are comoving coordinates xi = x - u*t (m), speed is c(xi)
    (m/s) and flow_speed is the front speed u.  speed_at(xi) computes c at
    a float or an array of arbitrary xi, on which each horizon is refined
    below the grid pitch.  The smallest gap between the positions scales the
    refinement tolerance and the gradient step.  steepness is the front's
    inverse width s (1/m): the gradient step stays below 0.05/s, so the
    difference resolves a front narrower than the grid pitch.
    """

    positions: np.ndarray
    speed: np.ndarray
    flow_speed: float
    speed_at: Callable = field(repr=False, compare=False)
    steepness: float


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
    samples and speed_at take c from the same arithmetic, so horizon
    refinement is not limited by the grid pitch and sees the curve the
    grid samples bit for bit.  Raises ValueError for given positions that
    are not finite and strictly increasing.
    """
    if positions is None:
        positions = _comoving_grid(array, pulse)
    else:
        positions = np.asarray(positions, dtype=float)
        if not np.isfinite(positions).all() or (np.diff(positions) <= 0).any():
            raise ValueError("positions must be finite and strictly increasing")
    speed_at = _speed_evaluator(array, squid, pulse, time)
    return VelocityProfile(positions=positions, speed=speed_at(positions),
                           flow_speed=pulse.velocity, speed_at=speed_at,
                           steepness=pulse.steepness_at(time))


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


def lane_brentq(f, a, b, xtol=2.0e-12):
    """Roots of f in the brackets [a[k], b[k]], one numpy lane per bracket.

    Every lane takes the steps of scipy.optimize.brentq (Brent 1973, as
    written in scipy's brentq.c) with the same xtol, brentq's default rtol
    and its iteration cap, so each root is bitwise the one brentq finds for
    its bracket alone.
    f(x, lanes) returns the function at x[k] for bracket lanes[k]: it is
    called once for both ends, then once per iteration on the lanes that
    have not converged.

    Raises ValueError for a NaN value or a bracket whose ends have the same
    sign, and RuntimeError when a lane has not converged after _MAXITER
    iterations.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = len(a)
    lanes = np.arange(n)
    ends = _lane_values(f, np.concatenate((a, b)),
                        np.concatenate((lanes, lanes)))
    fpre, fcur = ends[:n], ends[n:]
    roots = np.where(fpre == 0.0, a, b)  # an exact zero at an end is a root
    live = (fpre != 0.0) & (fcur != 0.0)
    if np.any(live & (np.signbit(fpre) == np.signbit(fcur))):
        raise ValueError("f(a) and f(b) must have different signs")
    # Each state array is a copy that the loop may update in place.
    lanes, xpre, xcur, fpre, fcur = (v[live] for v in
                                     (lanes, a, b, fpre, fcur))
    xblk, fblk, spre, scur = (np.zeros(len(lanes)) for _ in range(4))
    for _ in range(_MAXITER):
        # Keep the root between xcur and xblk, with |f(xcur)| the smaller.
        # brentq.c also asks fpre and fcur to be nonzero: fpre is, and a
        # lane with fcur == 0 converges at xcur whatever the flip does.
        flip = np.signbit(fpre) != np.signbit(fcur)
        if flip.any():
            xblk[flip] = xpre[flip]
            fblk[flip] = fpre[flip]
            spre[flip] = scur[flip] = (xcur - xpre)[flip]
        swap = np.abs(fblk) < np.abs(fcur)
        if swap.any():
            x, fx = xcur[swap], fcur[swap]
            xcur[swap], fcur[swap] = xblk[swap], fblk[swap]
            xpre[swap] = xblk[swap] = x
            fpre[swap] = fblk[swap] = fx

        delta = (xtol + _RTOL * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        abs_sbis = np.abs(sbis)
        done = (fcur == 0.0) | (abs_sbis < delta)
        if done.all():  # also with no lanes left
            roots[lanes] = xcur
            return roots
        if done.any():
            roots[lanes[done]] = xcur[done]
            keep = ~done
            (lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta,
             sbis, abs_sbis) = (v[keep] for v in (
                 lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur,
                 delta, sbis, abs_sbis))

        # An inverse quadratic or secant step where it is short enough,
        # bisection elsewhere.
        abs_spre = np.abs(spre)
        short = (abs_spre > delta) & (np.abs(fcur) < np.abs(fpre))
        if short.any():
            # Lanes that will bisect may divide by zero here.
            with np.errstate(all="ignore"):
                secant = -fcur * (xcur - xpre) / (fcur - fpre)
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                quadratic = (-fcur * (fblk * dblk - fpre * dpre) /
                             (dblk * dpre * (fblk - fpre)))
            stry = np.where(xpre == xblk, secant, quadratic)
            short &= 2 * np.abs(stry) < np.minimum(abs_spre,
                                                   3 * abs_sbis - delta)
            spre = np.where(short, scur, sbis)
            scur = np.where(short, stry, sbis)
        else:
            spre, scur = sbis, sbis.copy()

        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur,
                               np.where(sbis > 0, delta, -delta))
        fcur = _lane_values(f, xcur, lanes)
    raise RuntimeError("Failed to converge after %d iterations." % _MAXITER)


def _lane_values(f, x, lanes):
    # f(x, lanes) as a copy the search may update in place, one value per
    # lane also from an evaluator that returns a constant; a NaN stops the
    # search, as in scipy's brentq.
    fx = np.broadcast_to(f(x, lanes), x.shape).astype(float)
    nan = np.isnan(fx)
    if nan.any():
        raise ValueError("The function value at x=%r is NaN; solver cannot "
                         "continue." % float(x[nan][0]))
    return fx


def _brackets(f, first_row=0):
    # Sign changes in each row of f = c - u, numbered from first_row, as
    # (row, lo, hi): lo and hi are consecutive nonzero samples of one row
    # whose signs differ, so exact zeros lie strictly between them.  A NaN
    # sample counts as nonzero and brackets both its neighbours.
    n = f.shape[1]
    flat = f.ravel()
    nonzero = np.flatnonzero(flat != 0.0)
    value = flat[nonzero]
    crossing = np.flatnonzero(~(value[:-1] * value[1:] >= 0.0))
    lo, hi = nonzero[crossing], nonzero[crossing + 1]
    row = lo // n
    same = row == hi // n  # a pair across the end of a row is none
    lo, hi, row = lo[same], hi[same], row[same]
    return row + first_row, lo - row * n, hi - row * n


def _horizons(xs, brackets, speed, u, spacing, steps):
    # Positions and gradients dc/dxi of the bracketed crossings of c = u.
    # speed(x, rows) is c at x[k] on sample row rows[k].  A run of exact
    # zeros between the bracket's ends is one horizon at the run's centre;
    # lane_brentq refines each crossing within one cell.  steps holds each
    # row's gradient step.
    rows, lo, hi = brackets
    if not len(rows):
        return np.empty(0), np.empty(0)
    roots = 0.5 * (xs[lo + 1] + xs[hi - 1])
    cell = np.flatnonzero(hi == lo + 1)
    roots[cell] = lane_brentq(
        lambda x, lanes: speed(x, rows[cell[lanes]]) - u,
        xs[lo[cell]], xs[hi[cell]], xtol=1.0e-6 * spacing)
    # Centred difference with one Richardson step: O(h^4).  One call takes
    # the four probes of every root.
    h = steps[rows]
    probes = roots[:, np.newaxis] + h[:, np.newaxis] * _PROBES
    up, down, half_up, half_down = speed(
        probes.ravel(), np.repeat(rows, 4)).reshape(-1, 4).T
    d1 = (up - down) / (2.0 * h)
    d2 = (half_up - half_down) / h
    return roots, (4.0 * d2 - d1) / 3.0


def _gradient_step(spacing: float, steepness):
    # A quarter of the grid pitch, and at most 0.05 of the front's scaled
    # unit 1/s.
    return np.minimum(0.25 * spacing, 0.05 / steepness)


def find_horizons(profile: VelocityProfile) -> tuple[HorizonReport, ...]:
    """Locate all crossings of c(xi) = u in the sampled profile.

    Brackets sign changes between consecutive nonzero samples of c - u and
    refines each root on the profile's speed_at (see lane_brentq).  A
    sample where c
    equals u exactly is a root; a run of such samples between opposite
    signs is one horizon at the run's centre, and a touch with the same
    sign on both sides is none.  The crossing is classified by its
    gradient: flow in the front frame streams towards -xi, so a crossing
    with dc/dxi > 0 traps the region behind it (black); the opposite sign
    releases nothing inwards (white).
    """
    u = profile.flow_speed
    xs = np.asarray(profile.positions, dtype=float)
    f = np.asarray(profile.speed, dtype=float) - u
    spacing = _grid_step(xs)
    step = _gradient_step(spacing, profile.steepness)
    roots, gradients = _horizons(
        xs, _brackets(f[np.newaxis]), lambda x, rows: profile.speed_at(x), u,
        spacing, np.array([step]))
    return _reports(roots, gradients)


def line_horizons(array: circuit.ArrayParams, squid: circuit.SquidParams,
                  pulse: bias.FluxPulse, time: float = 0.0
                  ) -> tuple[HorizonReport, ...]:
    """The line's horizons at the given time: bit for bit those of
    find_horizons(velocity_profile(array, squid, pulse, time)), found from
    the cells of the front's window only."""
    return _reports(*_window_horizons(array, squid, pulse,
                                      np.array([time], dtype=float))[1:])


def _reports(roots, gradients):
    return tuple(HorizonReport(position=root,
                               kind="black" if grad > 0.0 else "white",
                               gradient=grad)
                 for root, grad in zip(roots.tolist(), gradients.tolist()))


def _window_horizons(array, squid, pulse, times):
    # (rows, roots, gradients) of the line's crossings at each of the times
    # from the front's window at the last, widest time: off it the profile
    # is exactly flat at every time.  The first time is a block of its own,
    # and no row block is scanned after one with a row without a crossing,
    # so a line without a crossing at the first time scans one row.  A grid
    # that rounding collapses onto the front's centre has an empty window.
    grid = _comoving_grid(array, pulse)
    spacing = _grid_step(grid)
    lo, hi = bias.comoving_window(pulse, times[-1], grid)[:2]
    window = grid[lo:hi]
    per_block = max(1, _BLOCK_ELEMENTS // (len(window) or 1))
    edges = [0, *range(1, len(times), per_block), len(times)]
    blocks = []
    for first, stop in zip(edges, edges[1:]):
        speeds = _speed_evaluator(
            array, squid, pulse, times[first:stop, np.newaxis])(window)
        blocks.append(_brackets(speeds - pulse.velocity, first))
        if len(np.unique(blocks[-1][0])) < len(speeds):
            break  # a row without a crossing: no later row is needed

    def speed(x, rows):
        return _speed_evaluator(array, squid, pulse, times[rows])(x)

    brackets = tuple(np.concatenate(parts) for parts in zip(*blocks))
    roots, gradients = _horizons(
        window, brackets, speed, pulse.velocity, spacing,
        _gradient_step(spacing, pulse.steepness_at(times)))
    return brackets[0], roots, gradients


def emitting_horizon(horizons) -> HorizonReport:
    """The emitter among found horizons: the first black one, else the
    first one; raises NoHorizon when there is none."""
    if not horizons:
        raise NoHorizon("profile has no c = u crossing")
    return next((h for h in horizons if h.kind == "black"), horizons[0])


def hawking_temperature(horizon: HorizonReport) -> float:
    """Emission temperature hbar*|dc/dxi| / (2*pi*k_B) at the horizon (K).

    A profile's emitter is emitting_horizon(find_horizons(profile)).
    """
    return _temperature(horizon.gradient)


def _temperature(gradient):
    # hbar*|dc/dxi| / (2*pi*k_B) for a float or an array of gradients.
    return HBAR * abs(gradient) / (2.0 * np.pi * BOLTZMANN)


def radiated_power(temperature):
    """One-dimensional thermal power (pi/12/hbar) (k_B T)^2 in watts, for
    a float or an array of temperatures."""
    kt = BOLTZMANN * temperature
    return np.pi * kt * kt / (12.0 * HBAR)


@dataclass(frozen=True)
class TraversalHorizons:
    """The line's horizons at evenly spaced times of one traversal, from
    one scan and one refine.

    Crossing j lies at positions[j] (m) at time times[rows[j]], with the
    gradient dc/dxi gradients[j] (1/s).  Times after the first without a
    crossing may be left unscanned; t = 0 always is.
    """

    times: np.ndarray
    rows: np.ndarray
    positions: np.ndarray
    gradients: np.ndarray

    @property
    def initial(self) -> tuple[HorizonReport, ...]:
        """The horizons at t = 0: line_horizons' bit for bit."""
        first = self.rows == 0
        return _reports(self.positions[first], self.gradients[first])

    def budget(self) -> PhotonBudget:
        """The emission history of the first black horizon at every time.

        Raises NoHorizon at the first time without a black horizon.
        """
        times = self.times
        # The first black horizon of each time.
        black = np.flatnonzero(self.gradients > 0.0)
        sampled, first_black = np.unique(self.rows[black], return_index=True)
        if len(sampled) < len(times):
            missing = np.flatnonzero(~np.isin(np.arange(len(times)),
                                              sampled))[0]
            raise NoHorizon("no black horizon at t = %.3e s" % times[missing])
        emitter = black[first_black]

        temperatures = _temperature(self.gradients[emitter])
        powers = radiated_power(temperatures)
        rates = powers / (BOLTZMANN * temperatures)
        count = float(np.trapezoid(rates, times))
        return PhotonBudget(expected_count=count, times=times,
                            horizon_positions=self.positions[emitter],
                            gradients=self.gradients[emitter],
                            temperatures=temperatures, powers=powers)


def traversal_horizons(array: circuit.ArrayParams,
                       squid: circuit.SquidParams, pulse: bias.FluxPulse,
                       samples: int = 65) -> TraversalHorizons:
    """The line's horizons at samples evenly spaced times while the front
    crosses the line, n_cells * cell_length / u in all.

    Each time's horizons are line_horizons' at that time; all times are
    scanned from one window and refined together, and a line without a
    crossing at t = 0 is scanned at t = 0 only.

    Raises ValueError for a still pulse or samples that is not an integer
    of at least 2.
    """
    if pulse.velocity <= 0.0:
        raise ValueError("photon budget needs a moving pulse")
    if not isinstance(samples, numbers.Integral) or samples < 2:
        raise ValueError("photon budget needs an integer of at least 2 samples")
    total_time = array.n_cells * array.cell_length / pulse.velocity
    times = np.linspace(0.0, total_time, samples)
    return TraversalHorizons(times, *_window_horizons(array, squid, pulse,
                                                      times))


def photons_per_pulse(array: circuit.ArrayParams, squid: circuit.SquidParams,
                      pulse: bias.FluxPulse, samples: int = 65
                      ) -> PhotonBudget:
    """Expected photon number emitted while the front crosses the line.

    Integrates the emission rate power/(k_B T_H) over the traversal time
    n_cells * cell_length / u, with the temperature history taken
    from the (possibly broadening) comoving profile at samples evenly
    spaced times: traversal_horizons(array, squid, pulse, samples).budget().

    Raises ValueError for a still pulse or samples that is not an integer
    of at least 2, and NoHorizon at the first sample without a black
    horizon.
    """
    return traversal_horizons(array, squid, pulse, samples).budget()


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
