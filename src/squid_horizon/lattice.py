"""Time-domain solver for the discrete transmission-line equations.

The line is integrated in a charge-like representation: the per-cell field
``A_n`` (volts) is the charge transported through cell n divided by the
ground capacitance, so adjacent-cell differences are capacitor voltages and
the conjugate momentum ``q_n = L_n C0 dA_n/dt`` is minus the branch flux.
Kirchhoff's laws then read

    dq_n/dt = A_{n+1} - 2 A_n + A_{n-1},      dA_n/dt = q_n / (L_n C0),

which a staggered leapfrog integrates exactly in its conservative structure:
``q`` lives on half steps and the cell inductance is sampled at the half
step, so a time-varying flux bias enters only through the ``A`` update.

Internally the solver is nondimensionalized (time in units of the inverse
zero-bias plasma frequency, inductance in units of the zero-bias cell
inductance) to keep both arrays near the drive amplitude; all public
interfaces are SI.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import bias, circuit
from ._csv import write_csv
from .constants import FLUX_QUANTUM
from .errors import (
    CourantViolation,
    NoPacket,
    NonFinite,
    OverCritical,
    ParseError,
)

__all__ = [
    "LatticeState",
    "LatticeTrajectory",
    "March",
    "SolverConfig",
    "gaussian_packet",
    "measure_pulse_speed",
    "read_trajectory_binary",
    "run",
    "stable_timestep",
    "write_trajectory_binary",
    "write_trajectory_csv",
    "zero_state",
]

_BOUNDARIES = ("reflecting", "absorbing", "driven")
_BINARY_MAGIC = b"SQHZ1"
_LOCALIZATION_THRESHOLD = 0.25  # largest participation ratio of a packet
# March evaluates the moving bias for this many steps at once.
_BLOCK = 64


@dataclass(frozen=True)
class LatticeState:
    """Snapshot of the line at one instant.

    ``momentum`` is staggered half a step behind ``time`` (leapfrog layout),
    so a state produced with timestep dt continues consistently only under
    the same dt.  Chained runs agree with an uninterrupted run to roundoff
    (momentum is stored in SI and rescaled internally).
    """

    time: float
    potential: np.ndarray
    momentum: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "potential",
                           np.asarray(self.potential, dtype=float))
        object.__setattr__(self, "momentum",
                           np.asarray(self.momentum, dtype=float))
        if self.potential.shape != self.momentum.shape:
            raise ValueError("potential and momentum lengths differ")

    @property
    def n_cells(self) -> int:
        return len(self.potential)


@dataclass(frozen=True)
class SolverConfig:
    """Stepping, boundary and recording settings for one run.

    dt = None picks courant_fraction * sqrt(L_min C0) with L_min the cell
    inductance at the smallest flux the bias reaches.  record_every = 0
    records only the initial and final snapshots.
    """

    n_steps: int
    dt: Optional[float] = None
    courant_fraction: float = 0.2
    boundary: str = "reflecting"
    record_every: int = 0
    current_dependent_inductance: bool = False
    check_every: int = 128

    def __post_init__(self):
        if not isinstance(self.n_steps, numbers.Integral) or self.n_steps < 1:
            raise ValueError("n_steps must be an integer of at least 1")
        if not 0.0 < self.courant_fraction <= 0.5:
            raise ValueError("courant_fraction must lie in (0, 0.5]")
        if self.boundary not in _BOUNDARIES:
            raise ValueError("boundary must be one of %s" % (_BOUNDARIES,))
        if (not isinstance(self.record_every, numbers.Integral)
                or self.record_every < 0):
            raise ValueError("record_every must be a non-negative integer")
        if (not isinstance(self.check_every, numbers.Integral)
                or self.check_every < 1):
            raise ValueError("check_every must be a positive integer")
        if self.dt is not None and not 0.0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")


@dataclass(frozen=True)
class LatticeTrajectory:
    """Recorded run output.

    Snapshot arrays have one row per recorded instant.  ``currents`` follow
    the I_n = -C0 dA_n/dt sign convention, centred in time to second order.
    """

    times: np.ndarray
    potentials: np.ndarray
    currents: np.ndarray
    energies: np.ndarray
    energy_density: np.ndarray
    positions: np.ndarray
    final_state: LatticeState

    @property
    def energy_drift(self) -> float:
        """Largest relative excursion of the recorded total energy."""
        e0 = self.energies[0]
        scale = max(abs(e0), 1e-300)
        return float(np.max(np.abs(self.energies - e0)) / scale)

    @cached_property
    def voltages(self) -> np.ndarray:
        """Capacitor voltages A_n - A_{n-1} of each record, referenced to the
        open left port."""
        return np.diff(self.potentials, prepend=0.0)


def zero_state(array: circuit.ArrayParams) -> LatticeState:
    n = array.n_cells
    return LatticeState(time=0.0, potential=np.zeros(n), momentum=np.zeros(n))


def stable_timestep(array: circuit.ArrayParams, squid: circuit.SquidParams,
                    pulse: bias.FluxPulse,
                    courant_fraction: float = 0.2) -> float:
    """Default timestep courant_fraction * sqrt(L_min C0).

    The bias sweeps flux fractions between the dc offset and offset plus
    amplitude, both non-negative, so the dc offset is the smallest flux and
    gives the stiffest cell, L_min.
    """
    return courant_fraction * circuit.cell_time(
        array, squid, pulse.dc_offset * FLUX_QUANTUM)


class _Scales:
    """Nondimensionalization constants shared by the stepping routines."""

    def __init__(self, array, squid):
        self.l_ref = circuit.josephson_inductance(squid, 0.0)
        self.t_ref = 1.0 / circuit.effective_plasma_frequency(squid, 0.0)
        self.cap = array.ground_capacitance
        self.chi = (self.t_ref / circuit.cell_time(array, squid, 0.0)) ** 2
        # momentum: q_physical = q_scaled * l_ref * cap / t_ref
        self.momentum_unit = self.l_ref * self.cap / self.t_ref
        # I/I_c^s = 2*pi*|q|/Phi_0 at every flux, since L*I_c^s = Phi_0/(2*pi)
        self.phase_unit = 2.0 * math.pi * self.momentum_unit / FLUX_QUANTUM


class March:
    """The leapfrog of one run, handed to its consumer step by step.

    Iterating yields m = 0, 1, ..., n_steps, each time from the initial
    state.  At each yield ``potential`` and the scaled ``momentum`` (half a
    step behind) are the live state at ``step_times[m]``.  ``momentum`` is
    to be read only; a consumer may add to ``potential`` before the next
    step, as a source at the driven end does (under the "driven" boundary
    node 0 is a free end and the far end absorbs).  ``final_state`` is
    taken after the last yield, so it holds such a write.  numpy's overflow
    and invalid warnings stay off until the iteration ends or is left.

    Raises ValueError for a start before the front's broadening pole,
    NonFinite for a start time that is not finite, and CourantViolation
    when the configured dt exceeds the stability budget; the iteration
    raises NonFinite for a state that is not finite and OverCritical for a
    cell current at critical under the current-dependent inductance.
    """

    def __init__(self, initial: LatticeState, array: circuit.ArrayParams,
                 squid: circuit.SquidParams, pulse: bias.FluxPulse,
                 config: SolverConfig):
        n = array.n_cells
        if initial.n_cells != n:
            raise ValueError("initial state has %d cells, array has %d"
                             % (initial.n_cells, n))

        self._scales = scales = _Scales(array, squid)
        budget = stable_timestep(array, squid, pulse, config.courant_fraction)
        dt = budget if config.dt is None else config.dt
        if dt > budget * (1.0 + 1e-12):
            raise CourantViolation("dt = %.3e s exceeds %.3g * sqrt(L_min C0) "
                                   "= %.3e s"
                                   % (dt, config.courant_fraction, budget))
        self._dtau = dt / scales.t_ref
        if not math.isfinite(initial.time):
            raise NonFinite("initial time is not finite")
        self.positions = (np.arange(n) + 0.5) * array.cell_length
        self.step_times = initial.time + np.arange(config.n_steps + 1) * dt
        # The first step comes half a step before the blocks' pole check.
        if not pulse.steepness_at(self.step_times[0]) > 0.0:
            raise ValueError("run starts at t = %g s, before the front's "
                             "broadening pole" % initial.time)
        self._run = (initial, pulse, config, dt)

    def __iter__(self):
        initial, pulse, config, dt = self._run
        scales, positions, step_times = (self._scales, self.positions,
                                         self.step_times)
        n, steps = len(positions), config.n_steps
        dtau, chi = self._dtau, scales.chi

        # The update steps each cell by rate = dtau/(L/L(0)).  A still front
        # never broadens (the law s0/(1 + b*u*t) has u = 0), so one rate serves
        # every half step.
        static_bias = pulse.velocity == 0.0
        if static_bias:
            rate = dtau / circuit.relative_inductance(
                bias.flux_fraction_at(pulse, positions, 0.0))
        else:
            rate = np.empty(n)  # filled by each block of steps

        self.potential = pot = initial.potential.copy()
        self.momentum = mom = initial.momentum / scales.momentum_unit
        if not (np.isfinite(pot).all() and np.isfinite(mom).all()):
            raise NonFinite("initial state is not finite")

        # The stepping writes into these buffers.  Free-end closure: the bond
        # differences sit between two zeros, so the Laplacian is symmetric
        # (this is what makes the product energy conserve), and its end cells
        # are d[0] - 0.0 and 0.0 - d[-1], signs of zero included.
        diffs = np.zeros(n + 1)
        bonds = diffs[1:-1]  # np.diff(pot)
        pot_right, pot_left = pot[1:], pot[:-1]
        diffs_right, diffs_left = diffs[1:], diffs[:-1]
        lap, work = np.empty(n), np.empty(n)
        kick = dtau * chi

        mur = config.boundary == "absorbing"
        open_right = config.boundary != "reflecting"
        stretch = config.current_dependent_inductance
        if stretch:
            # I/I_c^s of each cell, then its stretch and the stretched rate.
            rel, stretched = np.empty(n), np.empty(n)
        check_every = config.check_every

        def mur_beta(end_rate):
            # First-order Mur coefficient for an end cell stepped at end_rate:
            # kappa = dtau * sqrt(chi / (L/L(0))).
            kappa = math.sqrt(kick * end_rate)
            return (kappa - 1.0) / (kappa + 1.0)

        # The end rates the Mur coefficients were computed for; they change
        # only under the current-dependent inductance or when the front
        # reaches an end.
        left_end = right_end = None

        # An overflowing state is reported by the NonFinite checks below, not
        # by numpy's floating-point warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            for first in range(0, steps, _BLOCK):
                block = range(first, min(first + _BLOCK, steps))
                if not static_bias:
                    # Each half step's row of rates on the union of the rows'
                    # windows; outside it every cell sits exactly on one of the
                    # two plateaus at each of the half steps.
                    half_times = step_times[first:block.stop] + 0.5 * dt
                    lo, hi, left, right = bias.front_window(pulse, half_times,
                                                            positions)
                    rate[:lo], rate[hi:] = dtau / circuit.relative_inductance(
                        np.array([left, right]))
                    rate_rows = circuit.relative_inductance(
                        bias.flux_fraction_at(pulse, positions[lo:hi],
                                              half_times[:, np.newaxis]))
                    np.divide(dtau, rate_rows, out=rate_rows)

                for m in block:
                    yield m
                    np.subtract(pot_right, pot_left, out=bonds)
                    np.subtract(diffs_right, diffs_left, out=lap)
                    np.multiply(kick, lap, out=work)
                    mom += work
                    if not static_bias:
                        rate[lo:hi] = rate_rows[m - first]
                    rate_half = rate

                    if stretch:
                        np.abs(mom, out=rel)
                        rel *= scales.phase_unit
                        peak = float(rel.max())
                        if peak >= 1.0:
                            raise OverCritical("cell current reached %.3f of "
                                               "critical" % peak)
                        circuit.inductance_stretch(rel, out=stretched)
                        rate_half = np.divide(rate, stretched, out=stretched)

                    if mur:
                        left_old0, left_old1 = pot.item(0), pot.item(1)
                    if open_right:
                        right_old0, right_old1 = pot.item(-2), pot.item(-1)

                    np.multiply(mom, rate_half, out=work)
                    pot += work

                    if mur:
                        end = rate_half.item(0)
                        if end != left_end:
                            left_end, beta_left = end, mur_beta(end)
                        pot[0] = left_old1 + beta_left * (pot.item(1)
                                                          - left_old0)
                    if open_right:
                        end = rate_half.item(-1)
                        if end != right_end:
                            right_end, beta_right = end, mur_beta(end)
                        pot[-1] = right_old0 + beta_right * (pot.item(-2)
                                                             - right_old1)

                    if (m + 1) % check_every == 0 and not np.isfinite(pot).all():
                        raise NonFinite("state overflowed at step %d" % (m + 1))

            if not (np.isfinite(pot).all() and np.isfinite(mom).all()):
                raise NonFinite("state overflowed during the run")
            yield steps
            self.final_state = LatticeState(
                time=step_times.item(steps), potential=pot.copy(),
                momentum=mom * scales.momentum_unit)


def run(initial: LatticeState, array: circuit.ArrayParams,
        squid: circuit.SquidParams, pulse: bias.FluxPulse,
        config: SolverConfig) -> LatticeTrajectory:
    """Integrate the line under the given bias and return the recording:
    the state at every record_every-th step from the first, and at the last.
    Raises as March does."""
    march = March(initial, array, squid, pulse, config)
    scales, positions = march._scales, march.positions
    cap, chi = scales.cap, scales.chi
    kick = march._dtau * chi
    steps = config.n_steps
    recorded = {*range(0, steps, config.record_every or steps), steps}
    n_rec = len(recorded)
    rec_times, rec_energy = np.empty(n_rec), np.empty(n_rec)
    rec_pot, rec_cur, rec_density = np.empty((3, n_rec, array.n_cells))

    for slot, m in enumerate(filter(recorded.__contains__, march)):
        # Product-form energy: q^- q^+ / (2L) is exactly conserved for a
        # static bias, so the recorded drift measures only roundoff.
        pot, mom, t = march.potential, march.momentum, march.step_times[m]
        ind = circuit.relative_inductance(
            bias.flux_fraction_at(pulse, positions, t))
        bonds = np.diff(pot)
        mom_next = mom + kick * np.diff(bonds, prepend=0.0, append=0.0)
        kin = (cap / chi) * mom * mom_next / (2.0 * ind)
        bond = 0.5 * cap * bonds * bonds
        rec_times[slot] = t
        rec_pot[slot] = pot
        rec_cur[slot] = -(cap / scales.t_ref) * 0.5 * (mom + mom_next) / ind
        rec_energy[slot] = kin.sum() + bond.sum()
        rec_density[slot] = kin
        rec_density[slot, :-1] += 0.5 * bond
        rec_density[slot, 1:] += 0.5 * bond
    return LatticeTrajectory(
        times=rec_times, potentials=rec_pot, currents=rec_cur,
        energies=rec_energy, energy_density=rec_density,
        positions=positions, final_state=march.final_state)


def gaussian_packet(array: circuit.ArrayParams, squid: circuit.SquidParams,
                    pulse: bias.FluxPulse, center: float, sigma: float,
                    carrier_ka: float, amplitude: float, dt: float,
                    direction: int = 1) -> LatticeState:
    """One-way Gaussian wavepacket as an exact discrete solution.

    Builds the potential from a one-sided spectrum and back-steps each mode
    with the discrete dispersion of the leapfrog scheme at the given dt, so
    the counter-propagating remnant is at roundoff level.  The bias must be
    uniform over the packet support, and dt must match the run that will
    evolve the state.
    """
    n = array.n_cells
    a = array.cell_length
    x = (np.arange(n) + 0.5) * a
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")

    flux = bias.flux_fraction_at(pulse, center, 0.0) * FLUX_QUANTUM
    ind = circuit.josephson_inductance(squid, flux)
    cell_time = circuit.cell_time(array, squid, flux)
    # The zone-edge mode needs sin(w dt/2) = dt/cell_time <= 1 to stay real.
    if dt > cell_time:
        raise CourantViolation("dt = %.3e s unstable for the packet region"
                               % dt)

    envelope = amplitude * np.exp(-0.5 * ((x - center) / sigma) ** 2)
    field = envelope * np.cos(carrier_ka * (x - center) / a)

    spectrum = np.fft.fft(field)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=a)
    one_sided = np.zeros_like(spectrum)
    half = n // 2
    one_sided[1:half] = 2.0 * spectrum[1:half]
    one_sided[0] = spectrum[0]

    # Exact discrete frequency: sin(w dt/2) = (dt / sqrt(L C0)) sin(|k| a/2).
    arg = (dt / cell_time) * np.abs(np.sin(0.5 * k * a))
    omega_hat = (2.0 / dt) * np.arcsin(arg)

    now = np.fft.ifft(one_sided).real
    before = np.fft.ifft(one_sided * np.exp(1j * direction * omega_hat * dt)).real

    scales = _Scales(array, squid)
    ind_scaled = ind / scales.l_ref
    dtau = dt / scales.t_ref
    momentum = ind_scaled * (now - before) / dtau * scales.momentum_unit
    return LatticeState(time=0.0, potential=now, momentum=momentum)


def measure_pulse_speed(trajectory: LatticeTrajectory) -> float:
    """Signed packet velocity from a linear fit of the energy centroid.

    Raises NoPacket when the recorded energy is absent or not localized
    (participation ratio above 0.25).
    """
    density = trajectory.energy_density
    totals = density.sum(axis=1)
    peak = totals.max(initial=0.0)
    if peak <= 0.0:
        raise NoPacket("trajectory carries no energy")
    keep = totals > 1e-12 * peak
    if keep.sum() < 2:
        raise NoPacket("fewer than two usable records")

    density = density[keep]
    totals = totals[keep]
    times = trajectory.times[keep]
    n = density.shape[1]
    participation = totals ** 2 / (n * (density ** 2).sum(axis=1))
    worst = float(participation.max())
    if worst > _LOCALIZATION_THRESHOLD:
        raise NoPacket("energy not localized (participation ratio %.3f)"
                       % worst)

    centroids = density @ trajectory.positions / totals
    slope = np.polyfit(times, centroids, 1)[0]
    return float(slope)


def write_trajectory_csv(path, trajectory: LatticeTrajectory) -> None:
    """Row-per-node dump with columns t, node, A, I, V."""
    n_rec, n = trajectory.potentials.shape
    write_csv(path, "t,node,A,I,V", "%.12e,%d,%.12e,%.12e,%.12e",
              np.repeat(trajectory.times, n), np.tile(np.arange(n), n_rec),
              trajectory.potentials.ravel(), trajectory.currents.ravel(),
              trajectory.voltages.ravel())


def write_trajectory_binary(path, trajectory: LatticeTrajectory) -> None:
    """Columnar little-endian dump: header, times, then A, I, V blocks."""
    n_rec, n = trajectory.potentials.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack("<5sII", _BINARY_MAGIC, n, n_rec))
        fh.write(np.ascontiguousarray(trajectory.times, dtype="<f8").tobytes())
        for block in (trajectory.potentials, trajectory.currents,
                      trajectory.voltages):
            fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())


def read_trajectory_binary(path):
    """Read a binary dump back as (times, potentials, currents, voltages)."""
    with open(path, "rb") as fh:
        header = fh.read(13)
        if len(header) != 13:
            raise ParseError("truncated header in %s" % path)
        magic, n, n_rec = struct.unpack("<5sII", header)
        if magic != _BINARY_MAGIC:
            raise ParseError("bad magic %r in %s" % (magic, path))
        raw = fh.read()
    expected = n_rec + 3 * n_rec * n
    if len(raw) != 8 * expected:
        raise ParseError("expected %d floats in %s, found %d bytes"
                         % (expected, path, len(raw)))
    payload = np.frombuffer(raw, dtype="<f8")
    times = payload[:n_rec].copy()
    blocks = payload[n_rec:].reshape(3, n_rec, n).copy()
    return times, blocks[0], blocks[1], blocks[2]
