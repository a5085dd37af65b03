"""Lumped-element model of a dc-SQUID array transmission line.

A unit cell is a two-junction SQUID (treated as a single flux-tunable
Josephson inductance) in series with the line, shunted to ground by a cell
capacitance.  This module holds the static circuit relations (critical
current, plasma frequency, inductance, impedance, energy scales), a
model-validity audit, and two small time integrators for a single cell:
the full two-degree-of-freedom SQUID equations and the reduced single-phase
model they collapse to at small loop inductance.  The critical current,
inductance, cell time, cell speed and impedance take a float or an array of
flux, each element bitwise the float result.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bias import FluxPulse
from .constants import ELECTRON_CHARGE, FLUX_QUANTUM, RESISTANCE_QUANTUM
from .errors import FluxOutOfRange, NonFinite

__all__ = [
    "JunctionParams",
    "SquidParams",
    "ArrayParams",
    "SquidState",
    "SquidTrajectory",
    "ReducedTrajectory",
    "ValidityCheck",
    "ValidityReport",
    "squid_critical_current",
    "effective_plasma_frequency",
    "inverse_inductance_stretch",
    "josephson_inductance",
    "relative_inductance",
    "cell_time",
    "cell_velocity",
    "junction_energies",
    "beta_l",
    "array_impedance",
    "validity_report",
    "single_squid_dynamics",
    "reduced_junction_dynamics",
]


@dataclass(frozen=True)
class JunctionParams:
    """Single Josephson junction: critical current (A), capacitance (F),
    optional shunt/normal resistance (Ohm)."""

    critical_current: float
    capacitance: float
    normal_resistance: Optional[float] = None

    def __post_init__(self) -> None:
        # Written so that NaN fails every check.
        if not 0.0 < self.critical_current < math.inf:
            raise ValueError("critical_current must be positive and finite")
        if not 0.0 < self.capacitance < math.inf:
            raise ValueError("capacitance must be positive and finite")
        if self.normal_resistance is not None and \
                not 0.0 < self.normal_resistance < math.inf:
            raise ValueError("normal_resistance must be positive and finite "
                             "when given")


@dataclass(frozen=True)
class SquidParams:
    """Two identical junctions on a loop with geometric inductance (H)."""

    junction: JunctionParams
    loop_inductance: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.loop_inductance < math.inf:
            raise ValueError("loop_inductance must be non-negative and finite")


@dataclass(frozen=True)
class ArrayParams:
    """Transmission-line array: cell count, pitch (m), cell capacitance to
    ground (F) and the impedance of the external line/leads (Ohm)."""

    n_cells: int
    cell_length: float
    ground_capacitance: float
    environment_impedance: float = 50.0

    def __post_init__(self) -> None:
        if not isinstance(self.n_cells, numbers.Integral) or self.n_cells < 2:
            raise ValueError("n_cells must be an integer of at least 2")
        if not 0.0 < self.cell_length < math.inf:
            raise ValueError("cell_length must be positive and finite")
        if not 0.0 < self.ground_capacitance < math.inf:
            raise ValueError("ground_capacitance must be positive and finite")
        if not 0.0 <= self.environment_impedance < math.inf:
            raise ValueError("environment_impedance must be non-negative and "
                             "finite")


@dataclass(frozen=True)
class SquidState:
    """Phase-space point of one SQUID: common (average) junction phase,
    circulating (half-difference) phase, and their rates in rad/s."""

    common_phase: float = 0.0
    circulating_phase: float = 0.0
    common_rate: float = 0.0
    circulating_rate: float = 0.0


@dataclass(frozen=True)
class SquidTrajectory:
    """Sampled solution of the full two-phase SQUID equations."""

    times: np.ndarray
    common_phase: np.ndarray
    circulating_phase: np.ndarray
    common_rate: np.ndarray
    circulating_rate: np.ndarray


@dataclass(frozen=True)
class ReducedTrajectory:
    """Sampled solution of the reduced single-phase model with the energy
    diagnostic of the staggered integrator."""

    times: np.ndarray
    phase: np.ndarray
    rate: np.ndarray
    energy: np.ndarray
    energy_drift: float


def _namespace(value):
    # math keeps a float a float at a tenth of a ufunc's cost; it agrees
    # with numpy bitwise on cos and sqrt.
    return np if isinstance(value, np.ndarray) else math


def _require(valid, error, message, *values):
    # Raise error(message % values) at the first element that fails valid,
    # as NaN does.  Comparing floats gives a bool, so only arrays pay numpy.
    if not (valid if isinstance(valid, bool) else valid.all()):
        raise error(message % tuple(
            np.extract(np.logical_not(valid),
                       np.broadcast_to(v, np.shape(valid)))[0]
            for v in values))


def _flux_fraction(flux):
    # flux / Phi_0, inside (-0.5, 0.5) where the inductance is finite.
    fraction = flux / FLUX_QUANTUM
    _require(abs(fraction) < 0.5, FluxOutOfRange,
             "flux %.4g Phi_0 outside the open interval (-0.5, 0.5)", fraction)
    return fraction


def _finite_quotient(numerator: float, denominator, what: str):
    # A positive numerator over denominators >= 0, checked on the largest
    # quotient before a zero denominator raises (float) or warns (array).
    # A float quotient that underflows to zero is refused too; for an
    # array that would take a second pass, and no caller divides by one.
    if isinstance(denominator, np.ndarray):
        smallest = np.minimum.reduce(denominator, axis=None, initial=math.inf)
        if smallest > 0.0 and math.isfinite(numerator / smallest):
            return numerator / denominator
    elif denominator > 0.0 and 0.0 < numerator / denominator < math.inf:
        return numerator / denominator
    raise NonFinite("%s is zero or not finite: a product of the array and "
                    "junction parameters over- or underflows" % what)


def squid_critical_current(squid: SquidParams, flux):
    """Effective critical current 2*I_c*cos(pi*flux/Phi_0) of the SQUID.

    The SQUID behaves as one junction whose critical current is tuned by the
    loop flux.  Raises FluxOutOfRange at or beyond half a flux quantum,
    where the effective inductance diverges.
    """
    fraction = _flux_fraction(flux)
    return (2.0 * squid.junction.critical_current *
            _namespace(fraction).cos(math.pi * fraction))


def effective_plasma_frequency(squid: SquidParams, flux: float) -> float:
    """Plasma frequency (rad/s) of the flux-tuned SQUID.

    Uses the parallel capacitance of the two junctions, so at zero flux it
    coincides with the single-junction plasma frequency.  Raises NonFinite
    when its square is zero or infinite in float arithmetic.
    """
    ics = squid_critical_current(squid, flux)
    cj2 = 2.0 * squid.junction.capacitance
    return math.sqrt(_finite_quotient(2.0 * math.pi * ics, cj2 * FLUX_QUANTUM,
                                      "plasma frequency"))


def inverse_inductance_stretch(ratio: np.ndarray,
                               out: Optional[np.ndarray] = None) -> np.ndarray:
    """Factor r/asin(r) = L(0)/L(I) at r = I/I_c^s, for an array of r with
    |r| <= 1, with the series 1 - r^2/6 below |r| = 1e-6 to avoid 0/0.
    Written into out, a float array of r's shape other than r itself, when
    one is given."""
    inverse = np.abs(ratio, out=out)
    big = inverse >= 1.0e-6
    np.multiply(ratio, ratio, out=inverse)
    inverse /= -6.0
    inverse += 1.0
    np.arcsin(ratio, out=inverse, where=big)
    np.divide(ratio, inverse, out=inverse, where=big)
    return inverse


def josephson_inductance(squid: SquidParams, flux):
    """Flux-dependent Josephson inductance Phi_0/(2*pi*I_c^s) of one cell
    (H) at zero current; a current I stretches it by asin(r)/r, r = I/I_c^s."""
    return FLUX_QUANTUM / (2.0 * math.pi * squid_critical_current(squid, flux))


def relative_inductance(fraction, out=None):
    """Zero-current inductance L/L(0) = 1/cos(pi*f) at flux fraction f.

    The scaled form of josephson_inductance that the leapfrog kernel steps
    with.  f is not range-checked: callers pass flux fractions of a
    FluxPulse, which stay below half a quantum.  Written into out, a float
    array of f's shape that may be f itself, when one is given.
    """
    return np.divide(1.0, np.cos(np.multiply(math.pi, fraction, out=out),
                                 out=out), out=out)


def cell_time(array: ArrayParams, squid: SquidParams, flux):
    """Time sqrt(L*C0) a long wave takes to cross one cell (s).

    The line's one time scale: the speed is a/cell_time, the lattice band
    edge 2/cell_time and the leapfrog's Courant budget a fraction of it.
    """
    ind = josephson_inductance(squid, flux)
    return _namespace(ind).sqrt(ind * array.ground_capacitance)


def cell_velocity(array: ArrayParams, squid: SquidParams, flux):
    """Low-frequency propagation speed a/sqrt(L*C0) of the loaded line (m/s).

    Raises NonFinite when L*C0 underflows to zero, the speed overflows, or
    a float speed underflows to zero.
    """
    return _finite_quotient(array.cell_length,
                            cell_time(array, squid, flux),
                            "cell speed a/sqrt(L*C0)")


def junction_energies(squid: SquidParams, flux: float) -> tuple[float, float]:
    """Josephson and charging energy scales (E_J, E_C) in joules.

    E_J uses the flux-tuned critical current; E_C = e^2/(4*C_J) is the
    charging energy of the parallel pair.  Arrays with E_J >> E_C stay in
    the phase regime where the inductance picture applies.
    """
    ics = squid_critical_current(squid, flux)
    e_j = FLUX_QUANTUM * ics / (2.0 * math.pi)
    e_c = ELECTRON_CHARGE ** 2 / (4.0 * squid.junction.capacitance)
    return e_j, e_c


def beta_l(squid: SquidParams) -> float:
    """Screening parameter 2*pi*L_loop*I_c/Phi_0 of the loop."""
    return (2.0 * math.pi * squid.loop_inductance *
            squid.junction.critical_current / FLUX_QUANTUM)


def array_impedance(array: ArrayParams, squid: SquidParams, flux):
    """Quantum impedance of the biased line (Ohm), the phase-slip audit scale.

    Z_A = R_Q * sqrt(2*pi*e^2 / (Phi_0*C0*I_c) * sec(pi*flux/Phi_0)) with
    R_Q the superconducting resistance quantum and I_c the single-junction
    critical current.  Values approaching R_Q mark the onset of strong
    quantum phase slips.  This differs from the wave impedance sqrt(L/C0)
    by a constant factor pi*sqrt(2); ratios between flux settings agree.
    Raises NonFinite when a parameter product over- or underflows.
    """
    fraction = _flux_fraction(flux)
    e = ELECTRON_CHARGE
    # inner stays below 4e286 and cos(pi*fraction) above 1e-16 in range, so
    # Z_A is finite once the parameter product is nonzero.
    inner = _finite_quotient(2.0 * math.pi * e * e, FLUX_QUANTUM *
                             array.ground_capacitance *
                             squid.junction.critical_current, "line impedance")
    xp = _namespace(fraction)
    return RESISTANCE_QUANTUM * xp.sqrt(
        inner / xp.cos(math.pi * fraction))


@dataclass(frozen=True)
class ValidityCheck:
    """One audit entry; passes when value <= threshold."""

    name: str
    value: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.value <= self.threshold


@dataclass(frozen=True)
class ValidityReport:
    """Collected model-validity checks; failures are reported, not raised."""

    checks: tuple[ValidityCheck, ...]

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)


def validity_report(array: ArrayParams, squid: SquidParams, pulse: FluxPulse,
                    max_signal_frequency: float) -> ValidityReport:
    """Audit the configuration against the approximations of the model.

    Checks, each normalised so that value <= threshold passes:

    - screening: beta_L small enough to slave the circulating phase,
    - signal_band: signal frequencies a decade under the plasma frequency
      at peak flux,
    - peak_flux: stay clear of the half-quantum inductance pole,
    - impedance: environment plus line impedance at peak flux below the
      resistance quantum (phase-slip protection),
    - energy_ratio: charging energy below the Josephson energy at peak flux,
    - pulse_speed: front slower than the propagation speed on the dc plateau.

    max_signal_frequency is the largest angular frequency (rad/s) the run
    intends to resolve.
    """
    peak = pulse.peak_fraction()
    peak_flux = peak * FLUX_QUANTUM
    dc_flux = pulse.dc_offset * FLUX_QUANTUM

    omega_ps_peak = effective_plasma_frequency(squid, peak_flux)
    e_j, e_c = junction_energies(squid, peak_flux)
    z_total = (array.environment_impedance +
               array_impedance(array, squid, peak_flux))
    c_dc = cell_velocity(array, squid, dc_flux)

    checks = (
        ValidityCheck("screening", beta_l(squid), 0.1),
        ValidityCheck("signal_band",
                      max_signal_frequency / omega_ps_peak, 0.1),
        ValidityCheck("peak_flux", peak, 0.45),
        ValidityCheck("impedance", z_total / RESISTANCE_QUANTUM, 1.0),
        ValidityCheck("energy_ratio", e_c / e_j, 1.0),
        ValidityCheck("pulse_speed", pulse.velocity / c_dc, 1.0),
    )
    return ValidityReport(checks)


def _check_steps(dt: float, n_steps: int, omega: float, name: str) -> None:
    # n_steps and dt as lattice.SolverConfig checks them; dt <= 0.05/omega.
    if not isinstance(n_steps, numbers.Integral) or n_steps < 1:
        raise ValueError("n_steps must be an integer of at least 1")
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    if dt > 0.05 / omega:
        raise ValueError("dt must satisfy dt <= 0.05/%s = %.3e s"
                         % (name, 0.05 / omega))


def single_squid_dynamics(squid: SquidParams,
                          drive_current: float,
                          external_flux: float,
                          initial: SquidState,
                          dt: float,
                          n_steps: int) -> SquidTrajectory:
    """Integrate the full two-phase SQUID equations of motion.

    The common phase is driven by the bias current through the junction
    nonlinearity cos(circulating)*sin(common); the circulating phase is
    pinned to the applied loop flux with stiffness 2/beta_L.  Damping enters
    only when the junction has a normal resistance.  Classic fourth-order
    Runge-Kutta in plasma-frequency time; dt must not exceed 0.05/omega_p.
    drive_current (A) and external_flux (Wb) are constants.  Raises
    ValueError for bad n_steps or dt, and NonFinite for a non-finite initial
    state or drive and when the state overflows.
    """
    jj = squid.junction
    phi0 = FLUX_QUANTUM
    omega_p = effective_plasma_frequency(squid, 0.0)
    _check_steps(dt, n_steps, omega_p, "omega_p")
    blq = beta_l(squid)
    if blq <= 0.0:
        raise ValueError("full SQUID dynamics needs positive loop inductance")
    if jj.normal_resistance is None:
        delta = 0.0
    else:
        omega_c = 2.0 * math.pi * jj.critical_current * jj.normal_resistance / phi0
        delta = omega_p / omega_c

    ibar = float(drive_current) / (2.0 * jj.critical_current)
    fbar = 2.0 * math.pi * float(external_flux) / phi0
    # Checked here: a non-finite drive would reach sin/cos within a step.
    if not math.isfinite(ibar + fbar):
        raise NonFinite("drive current or external flux is not finite")

    h = dt * omega_p
    sin, cos = math.sin, math.cos

    def rhs(gp, gm, vp, vm):
        ap = ibar - cos(gm) * sin(gp) - delta * vp
        am = (fbar - 2.0 * gm) / blq - cos(gp) * sin(gm) - delta * vm
        return vp, vm, ap, am

    gp = initial.common_phase
    gm = initial.circulating_phase
    vp = initial.common_rate / omega_p
    vm = initial.circulating_rate / omega_p
    if not all(map(math.isfinite, (gp, gm, vp, vm))):
        raise NonFinite("initial state is not finite")

    out = np.empty((n_steps + 1, 4))
    out[0] = gp, gm, vp, vm
    for i in range(1, n_steps + 1):
        k1 = rhs(gp, gm, vp, vm)
        k2 = rhs(gp + 0.5 * h * k1[0], gm + 0.5 * h * k1[1],
                 vp + 0.5 * h * k1[2], vm + 0.5 * h * k1[3])
        k3 = rhs(gp + 0.5 * h * k2[0], gm + 0.5 * h * k2[1],
                 vp + 0.5 * h * k2[2], vm + 0.5 * h * k2[3])
        k4 = rhs(gp + h * k3[0], gm + h * k3[1],
                 vp + h * k3[2], vm + h * k3[3])
        gp += h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        gm += h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        vp += h / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        vm += h / 6.0 * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3])
        out[i] = gp, gm, vp, vm
        if not math.isfinite(gp + gm + vp + vm):
            raise NonFinite("state overflowed at step %d" % i)

    times = np.arange(n_steps + 1) * dt
    return SquidTrajectory(
        times=times,
        common_phase=out[:, 0],
        circulating_phase=out[:, 1],
        common_rate=out[:, 2] * omega_p,
        circulating_rate=out[:, 3] * omega_p,
    )


def reduced_junction_dynamics(squid: SquidParams,
                              drive_current: float,
                              external_flux: float,
                              initial_phase: float,
                              initial_rate: float,
                              dt: float,
                              n_steps: int) -> ReducedTrajectory:
    """Integrate the reduced single-phase model of the flux-tuned SQUID.

    Valid for beta_L << 1, where the circulating phase follows the applied
    flux and the cell reduces to one junction with critical current
    I_c^s(flux) and the matching plasma frequency.  Uses velocity-Verlet
    (kick-drift-kick), which is symplectic for static drives; the reported
    energy uses the half-step-consistent estimator
    v^2/2 - (dt*a)^2/8 + U, whose drift stays at round-off for bound motion.

    drive_current (A) and external_flux (Wb) are constants.  initial_rate
    is d(phase)/dt in rad/s.  dt must not exceed 0.05/omega_p^s at the
    flux.  Raises ValueError for bad n_steps or dt, and NonFinite for a
    non-finite initial state or drive current and when the trajectory
    overflows.
    """
    flux = float(external_flux)
    omega_ref = effective_plasma_frequency(squid, flux)
    _check_steps(dt, n_steps, omega_ref, "omega_p^s")
    ibar = float(drive_current) / squid_critical_current(squid, flux)
    if not math.isfinite(ibar):
        raise NonFinite("drive current is not finite")

    h = dt * omega_ref
    sin, cos = math.sin, math.cos

    def accel_and_potential(gamma: float) -> tuple[float, float]:
        return ibar - sin(gamma), 1.0 - cos(gamma) - ibar * gamma

    gamma = float(initial_phase)
    v = float(initial_rate) / omega_ref
    if not (math.isfinite(gamma) and math.isfinite(v)):
        raise NonFinite("initial state is not finite")

    phases = np.empty(n_steps + 1)
    rates = np.empty(n_steps + 1)
    energies = np.empty(n_steps + 1)

    a, u = accel_and_potential(gamma)
    phases[0], rates[0] = gamma, v
    energies[0] = 0.5 * v * v - h * h * a * a / 8.0 + u
    for i in range(1, n_steps + 1):
        v_half = v + 0.5 * h * a
        gamma += h * v_half
        a, u = accel_and_potential(gamma)
        v = v_half + 0.5 * h * a
        phases[i], rates[i] = gamma, v
        energies[i] = 0.5 * v * v - h * h * a * a / 8.0 + u
    if not (np.isfinite(phases).all() and np.isfinite(rates).all()
            and np.isfinite(energies).all()):
        raise NonFinite("trajectory contains non-finite samples")

    scale = max(abs(energies[0]), 1.0e-300)
    drift = abs(energies[-1] - energies[0]) / scale
    times = np.arange(n_steps + 1) * dt
    return ReducedTrajectory(
        times=times,
        phase=phases,
        rate=rates * omega_ref,
        energy=energies,
        energy_drift=float(drift),
    )
