"""Travelling flux-bias pulse applied to the SQUID array.

The canonical pulse is a tanh step front moving in +x at constant speed u,
with the high-flux plateau trailing behind the front.  In the frame riding
with the front the profile is static unless front broadening is switched on,
in which case the steepness relaxes as s(t) = s0 / (1 + b*u*t).  A Gaussian
bump shape is available behind a flag for two-horizon studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import FLUX_QUANTUM
from .errors import FluxOutOfRange, NoHorizon, NoRoot

_SHAPES = ("tanh", "gaussian")

# Largest broadening rate the calibration returns (1/m).
BROADENING_MAX = 1.0e6

# Scaled front coordinate beyond which each shape sits exactly on its
# plateaus in float64: tanh is +-1 from 18.99 on and the Gaussian factor
# underflows to 0 from 38.6 on.
_SATURATION = {"tanh": 20.0, "gaussian": 40.0}


@dataclass(frozen=True)
class FluxPulse:
    """Moving external-flux profile, amplitudes in units of the flux quantum.

    Parameters
    ----------
    amplitude : float
        Height of the moving part of the profile, as a fraction of Phi_0.
    dc_offset : float
        Static flux applied to every loop, as a fraction of Phi_0.
    velocity : float
        Front speed in m/s.  Zero is allowed and gives a static profile.
    steepness : float
        Initial inverse width s0 of the front in 1/m.
    front_position : float
        Front centre at t = 0, in metres.
    broadening : float
        Broadening rate b in 1/m; the steepness decays as
        s0 / (1 + b * velocity * t).  Zero disables broadening.
    shape : str
        "tanh" (default) or "gaussian".
    """

    amplitude: float
    dc_offset: float = 0.0
    velocity: float = 0.0
    steepness: float = 1.0e6
    front_position: float = 0.0
    broadening: float = 0.0
    shape: str = "tanh"

    def __post_init__(self) -> None:
        # Written so that NaN fails every check.
        for name in ("amplitude", "dc_offset", "velocity", "broadening"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError("%s must be non-negative and finite" % name)
        if not 0.0 < self.steepness < math.inf:
            raise ValueError("steepness must be positive and finite")
        if not math.isfinite(self.front_position):
            raise ValueError("front_position must be finite")
        if self.dc_offset + self.amplitude >= 0.5:
            raise FluxOutOfRange(
                "peak flux %.4f Phi_0 reaches the half-quantum pole"
                % (self.dc_offset + self.amplitude)
            )
        if not np.isfinite(self.broadening * self.velocity):
            raise ValueError("broadening * velocity must be finite")
        if self.shape not in _SHAPES:
            raise ValueError("shape must be one of %s" % (_SHAPES,))

    def steepness_at(self, t: float) -> float:
        """Front steepness at time t, after broadening."""
        return self.steepness / (1.0 + self.broadening * self.velocity * t)

    def peak_fraction(self) -> float:
        """Largest flux anywhere on the line, as a fraction of Phi_0."""
        return self.dc_offset + self.amplitude


def _shape_fraction(pulse: FluxPulse, arg, out=None):
    # arg is the scaled front coordinate s * (distance from front centre).
    # Each step writes into out, which may be arg itself; without one each
    # step allocates, as the plain expression would.
    if pulse.shape == "tanh":
        moving = np.multiply(0.5 * pulse.amplitude, np.subtract(
            1.0, np.tanh(arg, out=out), out=out), out=out)
    else:
        # -0.5 * arg goes to a scratch of its own: out may be arg.
        moving = np.multiply(pulse.amplitude, np.exp(np.multiply(
            np.multiply(-0.5, arg), arg, out=out), out=out), out=out)
    return np.add(pulse.dc_offset, moving, out=out)


def flux_fraction_at(pulse: FluxPulse, x, t: float, out=None):
    """Flux through the loop at lab position x and time t, in units of Phi_0.

    Accepts scalar or array x.  Away from the front the profile is exactly
    one of two plateau values; front_window says where.  For an array x, t
    may be an array that broadcasts against it, such as a column of times;
    each element equals the call with that one time.  The result is
    written into out, a float array of the broadcast shape, when one is
    given; the bits are the same either way.
    """
    s = pulse.steepness_at(t)
    arg = np.multiply(s, np.subtract(
        np.asarray(x, dtype=float) - pulse.front_position,
        pulse.velocity * t, out=out), out=out)
    out = _shape_fraction(pulse, arg, out=out)
    if np.ndim(x) == 0:
        return float(out)
    return out


def front_window(pulse: FluxPulse, t,
                 positions) -> tuple[int, int, float, float]:
    """Index range of sorted lab positions where the front is not saturated.

    Returns (lo, hi, left, right): flux_fraction_at at time t is exactly
    left at positions[:lo] and exactly right at positions[hi:], so only
    positions[lo:hi] need evaluating.  The window is one sample wider on
    each side than the saturation threshold demands, and empty when the
    front lies wholly beyond the first or the last position.  t may be an
    array of times; the window is then the union of their windows, from
    the smallest lo to the largest hi.

    Raises ValueError when any t lies before the broadening pole
    t = -1/(b*u), where the steepness turns negative.
    """
    return _window(pulse, t, pulse.front_position + pulse.velocity * t,
                   positions)


def comoving_window(pulse: FluxPulse, t: float,
                    xi) -> tuple[int, int, float, float]:
    """front_window for sorted comoving coordinates xi = x - u*t.

    comoving_flux_fraction at time t is exactly left at xi[:lo] and exactly
    right at xi[hi:].  The front stays centred on front_position and only
    widens for t >= 0, so the window at the latest time of a traversal
    covers every earlier one.
    """
    return _window(pulse, t, pulse.front_position, xi)


def _window(pulse: FluxPulse, t, centre, positions):
    # searchsorted is monotone, so the window of the extreme edges is the
    # union of the windows of every time in t.
    s = np.asarray(pulse.steepness_at(t))
    pole = np.logical_not(s > 0.0)
    if pole.any():
        first = pole.argmax()
        raise ValueError("front steepness %g at t = %g s: before the "
                         "broadening pole" % (s.flat[first],
                                              np.ravel(t)[first]))
    half_width = _SATURATION[pulse.shape] / s
    n = len(positions)
    lo, hi = np.asarray(positions).searchsorted(
        [np.min(centre - half_width), np.max(centre + half_width)]).tolist()
    # A front wholly beyond either end leaves the window empty there.
    if hi > 0 and lo < n:
        lo, hi = max(lo - 1, 0), min(hi + 1, n)
    return (lo, hi,
            *_shape_fraction(pulse, np.array([-math.inf, math.inf])).tolist())


def comoving_flux_fraction(pulse: FluxPulse, xi, t: float):
    """Flux at comoving coordinate xi = x - u*t, in units of Phi_0.

    Evaluated directly in the front frame, so with broadening disabled the
    result is independent of t to the last bit.  For an array xi, t may be
    an array that broadcasts against it, such as a column of times; each
    element equals the call with that one time.
    """
    s = pulse.steepness_at(t)
    xi = np.asarray(xi, dtype=float)
    out = _shape_fraction(pulse, s * (xi - pulse.front_position))
    return float(out) if xi.ndim == 0 else out


def comoving_flux(pulse: FluxPulse, xi, t: float):
    """Flux at comoving coordinate xi = x - u*t, in Wb."""
    return FLUX_QUANTUM * comoving_flux_fraction(pulse, xi, t)


def calibrate_broadening(pulse: FluxPulse, array, squid, target_decay: float,
                         n_cells: int) -> float:
    """Broadening rate that makes the horizon temperature decay as requested.

    Returns b = target_decay / ((1 - target_decay) * n_cells * a), the rate
    at which T_H drops by target_decay (0.1 for ten percent) while the front
    travels n_cells cells: every horizon keeps its scaled front coordinate,
    so T_H follows the steepness s0/(1 + b*u*t).

    Raises ValueError for target_decay outside (0, 1) or a still pulse,
    NoHorizon when the line has no horizon at t = 0, and NoRoot when b
    lies outside (0, BROADENING_MAX], as it does for n_cells <= 0.
    """
    from . import geometry

    if not 0.0 < target_decay < 1.0:
        raise ValueError("target_decay must lie in (0, 1)")
    if pulse.velocity <= 0.0:
        raise ValueError("broadening calibration needs a moving pulse")
    if not geometry.line_horizons(array, squid, pulse):
        raise NoHorizon("no horizon on the line to calibrate")
    span = (1.0 - target_decay) * n_cells * array.cell_length
    if not target_decay <= BROADENING_MAX * span:
        raise NoRoot(
            "target decay %.3g not reachable with broadening in [0, %g]"
            % (target_decay, BROADENING_MAX)
        )
    return target_decay / span
