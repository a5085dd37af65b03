"""Travelling flux-bias pulse applied to the SQUID array.

The canonical pulse is a tanh step front moving in +x at constant speed u,
with the high-flux plateau trailing behind the front.  In the frame riding
with the front the profile is static unless front broadening is switched on,
in which case the steepness relaxes as s(t) = s0 / (1 + b*u*t).  A Gaussian
bump shape is available behind a flag for two-horizon studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.optimize import brentq

from .constants import FLUX_QUANTUM
from .errors import FluxOutOfRange, NoRoot

_SHAPES = ("tanh", "gaussian")

# Upper end of the broadening bracket used by the calibration search.
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
        if self.amplitude < 0.0 or self.dc_offset < 0.0:
            raise ValueError("amplitude and dc_offset must be non-negative")
        if self.dc_offset + self.amplitude >= 0.5:
            raise FluxOutOfRange(
                "peak flux %.4f Phi_0 reaches the half-quantum pole"
                % (self.dc_offset + self.amplitude)
            )
        if self.velocity < 0.0:
            raise ValueError("velocity must be non-negative")
        if self.steepness <= 0.0:
            raise ValueError("steepness must be positive")
        if self.broadening < 0.0:
            raise ValueError("broadening must be non-negative")
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

    @cached_property
    def _plateaus(self) -> tuple[float, float]:
        # front_window's left and right, cached: it runs every half step.
        return (float(_shape_fraction(self, -math.inf)),
                float(_shape_fraction(self, math.inf)))


def _shape_fraction(pulse: FluxPulse, arg):
    # arg is the scaled front coordinate s * (distance from front centre).
    if pulse.shape == "tanh":
        moving = 0.5 * pulse.amplitude * (1.0 - np.tanh(arg))
    else:
        moving = pulse.amplitude * np.exp(-0.5 * arg * arg)
    return pulse.dc_offset + moving


def flux_fraction_at(pulse: FluxPulse, x, t: float):
    """Flux through the loop at lab position x and time t, in units of Phi_0.

    Accepts scalar or array x.  Away from the front the profile is exactly
    one of two plateau values; front_window says where.
    """
    s = pulse.steepness_at(t)
    arg = s * (np.asarray(x, dtype=float) - pulse.front_position - pulse.velocity * t)
    out = _shape_fraction(pulse, arg)
    if np.ndim(x) == 0:
        return float(out)
    return out


def front_window(pulse: FluxPulse, t: float,
                 positions) -> tuple[int, int, float, float]:
    """Index range of sorted lab positions where the front is not saturated.

    Returns (lo, hi, left, right): flux_fraction_at at time t is exactly
    left at positions[:lo] and exactly right at positions[hi:], so only
    positions[lo:hi] need evaluating.  The window is one sample wider on
    each side than the saturation threshold demands.

    Raises ValueError before the broadening pole t = -1/(b*u), where the
    steepness turns negative.
    """
    s = pulse.steepness_at(t)
    if not s > 0.0:
        raise ValueError("front steepness %g at t = %g s: before the "
                         "broadening pole" % (s, t))
    centre = pulse.front_position + pulse.velocity * t
    half_width = _SATURATION[pulse.shape] / s
    lo, hi = np.asarray(positions).searchsorted(
        [centre - half_width, centre + half_width]).tolist()
    return (max(lo - 1, 0), min(hi + 1, len(positions))) + pulse._plateaus


def comoving_flux_fraction(pulse: FluxPulse, xi, t: float):
    """Flux at comoving coordinate xi = x - u*t, in units of Phi_0.

    Evaluated directly in the front frame, so with broadening disabled the
    result is independent of t to the last bit.
    """
    s = pulse.steepness_at(t)
    # [()] makes a 0-d array a numpy scalar, whose arithmetic costs a tenth
    # as much: horizon refinement passes one xi at a time, thousands of times.
    xi = np.asarray(xi, dtype=float)[()]
    out = _shape_fraction(pulse, s * (xi - pulse.front_position))
    return float(out) if xi.ndim == 0 else out


def comoving_flux(pulse: FluxPulse, xi, t: float):
    """Flux at comoving coordinate xi = x - u*t, in Wb."""
    return FLUX_QUANTUM * comoving_flux_fraction(pulse, xi, t)


def calibrate_broadening(pulse: FluxPulse, array, squid, target_decay: float,
                         n_cells: int) -> float:
    """Broadening rate that makes the horizon temperature decay as requested.

    Finds b such that the Hawking temperature of the comoving profile drops
    by target_decay (e.g. 0.1 for ten percent) after the front has travelled
    n_cells lattice cells.  The temperature is evaluated through the horizon
    machinery rather than the closed-form steepness law, so the calibration
    also exercises the profile and gradient code paths.

    Raises NoRoot when no b in [0, BROADENING_MAX] reaches the target.
    """
    from . import geometry

    if not 0.0 < target_decay < 1.0:
        raise ValueError("target_decay must lie in (0, 1)")
    if pulse.velocity <= 0.0:
        raise ValueError("broadening calibration needs a moving pulse")

    travel_time = n_cells * array.cell_length / pulse.velocity
    goal = 1.0 - target_decay

    def temperature(b: float, t: float) -> float:
        probe = replace(pulse, broadening=b)
        profile = geometry.velocity_profile(array, squid, probe, t)
        return geometry.hawking_temperature(profile)

    def objective(b: float) -> float:
        return temperature(b, travel_time) / temperature(b, 0.0) - goal

    lo, hi = 0.0, BROADENING_MAX
    f_lo, f_hi = objective(lo), objective(hi)
    if f_lo == 0.0:
        return lo
    if f_lo * f_hi > 0.0:
        raise NoRoot(
            "target decay %.3g not reachable with broadening in [0, %g]"
            % (target_decay, BROADENING_MAX)
        )
    return float(brentq(objective, lo, hi, rtol=1.0e-3))
