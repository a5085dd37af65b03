"""Bundled studies on the reference device and a parameter sweep engine.

The studies compute the canned reference results (speed profile,
impedance sweep, emission budget, packet trapping) from a configuration
and return them as data, with the curves each artifact is drawn from; the
command line decides which files to write.  The sweep engine evaluates
closed-form outputs over a one- or two-axis parameter grid with per-point
failure capture.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import bias, circuit, config, geometry, lattice
from .config import RunConfig
from .constants import FLUX_QUANTUM, RESISTANCE_QUANTUM
from .errors import ConfigError, NoHorizon, SquidHorizonError, UnknownKey

__all__ = [
    "BudgetReport",
    "Fig2Result",
    "Fig3Result",
    "PacketOutcome",
    "SweepResult",
    "SweepSpec",
    "TrappingReport",
    "load_sweep",
    "reproduce_fig2",
    "reproduce_fig3",
    "run_sweep",
    "temperature_budget",
    "wavepacket_trapping",
    "write_sweep_csv",
]

FIG3_CAPACITANCES = (1.0e-16, 5.0e-17, 1.0e-17, 5.0e-18)

# Trapping study geometry, in cells: launch distance from the horizon and
# packet width.  The verdict window is five traversal times d0/c(0).
TRAP_LAUNCH_CELLS = 150
TRAP_SIGMA_CELLS = 20
TRAP_CARRIER_KA = 0.1
TRAP_WINDOW_TRAVERSALS = 5.0


@dataclass(frozen=True)
class Fig2Result:
    """Comoving speed profile for the step pulse: c/c(0) at each offset
    xi - front_position, and its summary."""

    plateau_ratio: float
    flow_ratio: float
    horizon_position: float
    horizon_flux_fraction: float
    offsets: np.ndarray
    speed_ratios: np.ndarray


def reproduce_fig2(cfg: RunConfig) -> Fig2Result:
    """Speed profile across the moving front with its horizon.

    Returns c(xi)/c(0) and the constant flow ratio u/c(0); the single
    horizon of the monotone front sits where the two cross.
    """
    pulse, array, squid = cfg.pulse, cfg.array, cfg.squid
    c0 = circuit.cell_velocity(array, squid, pulse.dc_offset * FLUX_QUANTUM)
    span = 15.0 / pulse.steepness
    xi = pulse.front_position + np.linspace(-span, span, 1201)
    profile = geometry.velocity_profile(array, squid, pulse, 0.0,
                                        positions=xi)
    horizons = geometry.find_horizons(profile)
    if len(horizons) != 1:
        raise NoHorizon("expected exactly one horizon, found %d"
                        % len(horizons))
    horizon = horizons[0]
    flux_fraction = float(bias.comoving_flux_fraction(pulse,
                                                      horizon.position, 0.0))
    ratio = profile.speed / c0
    return Fig2Result(plateau_ratio=float(ratio[0]),
                      flow_ratio=pulse.velocity / c0,
                      horizon_position=horizon.position,
                      horizon_flux_fraction=flux_fraction,
                      offsets=xi - pulse.front_position, speed_ratios=ratio)


@dataclass(frozen=True)
class Fig3Result:
    """Impedance-to-resistance-quantum sweep over flux, one curve per C0."""

    capacitances: tuple
    flux_fractions: np.ndarray
    ratios: np.ndarray

    @property
    def intercepts(self) -> tuple:
        return tuple(float(v) for v in self.ratios[:, 0])


def reproduce_fig3(cfg: RunConfig) -> Fig3Result:
    """Z/R_Q versus flux for four ground capacitances at fixed junctions."""
    fractions = np.linspace(0.0, 0.49, 99)
    ratios = np.empty((len(FIG3_CAPACITANCES), len(fractions)))
    for i, cap in enumerate(FIG3_CAPACITANCES):
        array = dataclasses.replace(cfg.array, ground_capacitance=cap)
        ratios[i] = circuit.array_impedance(
            array, cfg.squid, fractions * FLUX_QUANTUM) / RESISTANCE_QUANTUM
    return Fig3Result(capacitances=FIG3_CAPACITANCES,
                      flux_fractions=fractions, ratios=ratios)


@dataclass(frozen=True)
class BudgetReport:
    """Emission budget of one traversal against the design targets, with
    the PhotonBudget it was computed from; temperature_ratio_1000 is NaN on
    a line shorter than 1000 cells."""

    initial_temperature: float
    temperature_ratio_1000: float
    photon_count: float
    traversal_time: float
    budget: geometry.PhotonBudget

    @property
    def targets_met(self) -> dict:
        # Design windows: ~121 mK start, 10% drop per 1000 cells, about
        # one photon per traversal.
        return {
            "temperature": abs(self.initial_temperature - 0.121) <= 0.002,
            "decay": abs(self.temperature_ratio_1000 - 0.90) <= 0.01,
            "count": 0.7 <= self.photon_count <= 1.3,
        }


def temperature_budget(cfg: RunConfig) -> BudgetReport:
    """Temperature history and photon count for the configured pulse."""
    # The float speed ahead of the front first: a line whose L*C0 over- or
    # underflows is a NonFinite error, not a line without a horizon.
    circuit.cell_velocity(cfg.array, cfg.squid,
                          cfg.pulse.dc_offset * FLUX_QUANTUM)
    budget = geometry.photons_per_pulse(cfg.array, cfg.squid, cfg.pulse)
    t0 = float(budget.temperatures[0])
    t_1000 = 1000.0 * cfg.array.cell_length / cfg.pulse.velocity
    ratio = (float(np.interp(t_1000, budget.times, budget.temperatures)) / t0
             if cfg.array.n_cells >= 1000 else math.nan)
    return BudgetReport(initial_temperature=t0, temperature_ratio_1000=ratio,
                        photon_count=budget.expected_count,
                        traversal_time=float(budget.times[-1]),
                        budget=budget)


@dataclass(frozen=True)
class PacketOutcome:
    """Verdict for one launched packet."""

    name: str
    crossed: bool
    crossing_time: Optional[float]
    final_offset: float

    @property
    def verdict(self) -> str:
        return "crossed" if self.crossed else "trapped"


@dataclass(frozen=True)
class TrappingReport:
    """Both packet verdicts of one trapping scenario; traces maps each
    packet's name to its record times and front-frame centroid offsets."""

    scenario: str
    horizon_offset: Optional[float]
    outcomes: tuple
    traces: dict


def _centroid_offsets(traj: lattice.LatticeTrajectory, flow: float,
                      reference: float) -> np.ndarray:
    density = traj.energy_density
    totals = density.sum(axis=1)
    centroids = (density @ traj.positions) / totals
    return centroids - flow * traj.times - reference


def wavepacket_trapping(cfg: RunConfig,
                        scenario: str = "pulse") -> TrappingReport:
    """Launch counter-propagating packets around the horizon and classify.

    In the "pulse" scenario a forward packet behind the horizon and a
    backward packet ahead of it are evolved in the lab frame for five
    traversal times; centroids are transformed to the front frame before
    the crossing test.  The "static" scenario repeats the geometry with no
    pulse, where both packets must cross.
    """
    if scenario not in ("pulse", "static"):
        raise ValueError("scenario must be 'pulse' or 'static'")
    array, squid = cfg.array, cfg.squid
    a = array.cell_length
    center = 0.5 * array.n_cells * a

    if scenario == "pulse":
        pulse = dataclasses.replace(cfg.pulse, front_position=center,
                                    broadening=0.0)
        if pulse.velocity <= 0.0:
            raise ValueError("the pulse scenario needs a moving front")
        span = 30.0 / pulse.steepness
        xi = center + np.linspace(-span, span, 2001)
        horizons = geometry.find_horizons(
            geometry.velocity_profile(array, squid, pulse, 0.0, positions=xi))
        if not horizons:
            raise NoHorizon("the pulse has no horizon to launch around")
        reference = horizons[0].position
    else:
        pulse = bias.FluxPulse(amplitude=0.0, dc_offset=cfg.pulse.dc_offset,
                               velocity=0.0, steepness=cfg.pulse.steepness,
                               front_position=center)
        reference = center

    c0 = circuit.cell_velocity(array, squid, pulse.dc_offset * FLUX_QUANTUM)
    d0 = TRAP_LAUNCH_CELLS * a
    sigma = TRAP_SIGMA_CELLS * a
    dt = lattice.stable_timestep(array, squid, pulse)
    window = TRAP_WINDOW_TRAVERSALS * d0 / c0
    n_steps = int(math.ceil(window / dt))
    record_every = max(1, n_steps // 60)
    solver = lattice.SolverConfig(n_steps=n_steps, dt=dt,
                                  boundary="absorbing",
                                  record_every=record_every)

    launches = (("forward_behind", reference - d0, +1),
                ("backward_ahead", reference + d0, -1))
    outcomes = []
    traces = {}
    for name, start, direction in launches:
        state = lattice.gaussian_packet(array, squid, pulse, start, sigma,
                                        TRAP_CARRIER_KA, 1.0e-6, dt,
                                        direction)
        traj = lattice.run(state, array, squid, pulse, solver)
        offsets = _centroid_offsets(traj, pulse.velocity, reference)
        traces[name] = (traj.times, offsets)
        sign = 1.0 if direction > 0 else -1.0
        crossed_mask = sign * offsets > 0.0
        if crossed_mask.any():
            first = int(np.argmax(crossed_mask))
            outcome = PacketOutcome(name=name, crossed=True,
                                    crossing_time=float(traj.times[first]),
                                    final_offset=float(offsets[-1]))
        else:
            outcome = PacketOutcome(name=name, crossed=False,
                                    crossing_time=None,
                                    final_offset=float(offsets[-1]))
        outcomes.append(outcome)

    return TrappingReport(
        scenario=scenario,
        horizon_offset=(reference - center if scenario == "pulse" else None),
        outcomes=tuple(outcomes), traces=traces)


_SWEEP_OUTPUTS = ("hawking_temperature", "impedance_ratio", "cell_speed",
                  "horizon_count", "photon_count")


@dataclass(frozen=True)
class SweepSpec:
    """Grid description: base configuration, up to two axes, outputs."""

    base: RunConfig
    axes: tuple
    outputs: tuple

    def __post_init__(self) -> None:
        if len(self.axes) > 2:
            raise ConfigError("at most two sweep axes are supported")
        paths = [path for path, _ in self.axes]
        for path, values in self.axes:
            config.resolve_path(path)
            if paths.count(path) > 1:
                raise ConfigError("axis %r is given more than once" % path)
            if len(values) == 0:
                raise ConfigError("axis %r has no values" % path)
        if not self.outputs:
            raise ConfigError("no outputs requested")
        for name in self.outputs:
            if name not in _SWEEP_OUTPUTS:
                raise ConfigError("unknown output %r; valid outputs: %s"
                                  % (name, ", ".join(_SWEEP_OUTPUTS)))


@dataclass(frozen=True)
class SweepPoint:
    coordinates: tuple
    outputs: dict
    error: Optional[str]


@dataclass(frozen=True)
class SweepResult:
    axis_paths: tuple
    output_names: tuple
    points: tuple


# The errors that fail one sweep point without stopping the sweep.
_POINT_ERRORS = (SquidHorizonError, ValueError, ArithmeticError)


def _evaluate_outputs(names: tuple, cfg: RunConfig) -> dict:
    # In request order, so a failing point records the first error it hits.
    # The line's t = 0 horizons are found once, on first use.  With
    # photon_count requested for a moving pulse they are row 0 of the
    # budget's traversal, bit for bit line_horizons', so the point makes one
    # scan and one refine.  Should that traversal raise, each output makes
    # its own call instead and so raises the error it raises alone.
    flux_dc = cfg.pulse.dc_offset * FLUX_QUANTUM
    traversal = horizons = None
    share = "photon_count" in names and cfg.pulse.velocity > 0.0
    outputs = {}
    for name in names:
        if share and name in ("horizon_count", "hawking_temperature",
                              "photon_count"):
            share = False
            try:
                traversal = geometry.traversal_horizons(cfg.array, cfg.squid,
                                                        cfg.pulse)
                horizons = traversal.initial
            except _POINT_ERRORS:
                pass
        if name in ("horizon_count", "hawking_temperature") and \
                horizons is None:
            horizons = geometry.line_horizons(cfg.array, cfg.squid, cfg.pulse)
        if name == "cell_speed":
            value = circuit.cell_velocity(cfg.array, cfg.squid, flux_dc)
        elif name == "impedance_ratio":
            value = (circuit.array_impedance(cfg.array, cfg.squid, flux_dc) /
                     RESISTANCE_QUANTUM)
        elif name == "horizon_count":
            value = float(len(horizons))
        elif name == "hawking_temperature":
            value = geometry.hawking_temperature(
                geometry.emitting_horizon(horizons))
        else:  # photon_count; SweepSpec has checked every name
            budget = (traversal.budget() if traversal is not None else
                      geometry.photons_per_pulse(cfg.array, cfg.squid,
                                                 cfg.pulse))
            value = budget.expected_count
        outputs[name] = value
    return outputs


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the grid in row-major order, one point after another,
    validating each point with all its coordinates in place; per-point
    failures are recorded, not raised."""
    paths = tuple(path for path, _ in spec.axes)
    points = []
    for coords in itertools.product(*[tuple(v) for _, v in spec.axes]):
        try:
            cfg = config.apply_override(spec.base, dict(zip(paths, coords)))
            outputs = _evaluate_outputs(spec.outputs, cfg)
            points.append(SweepPoint(coordinates=coords, outputs=outputs,
                                     error=None))
        except _POINT_ERRORS as exc:
            points.append(SweepPoint(coordinates=coords, outputs={},
                                     error="%s: %s" % (type(exc).__name__,
                                                       exc)))
    return SweepResult(axis_paths=paths,
                       output_names=tuple(spec.outputs),
                       points=tuple(points))


def write_sweep_csv(path, result: SweepResult) -> None:
    """One row per grid point; failed points keep their error message."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(result.axis_paths) +
                        list(result.output_names) + ["error"])
        for point in result.points:
            row = ["%.12e" % v if isinstance(v, float) else str(v)
                   for v in point.coordinates]
            for name in result.output_names:
                value = point.outputs.get(name)
                row.append("" if value is None else "%.12e" % value)
            row.append(point.error or "")
            writer.writerow(row)


def load_sweep(path) -> SweepSpec:
    """Parse a sweep description file.

    Layout: {"base": <configuration object, optional>, "axes":
    [{"path": "section.key", "values": [...]}], "outputs": [names]}.
    """
    path = Path(path)
    data = config.parse_json(path.read_text(), str(path))
    if not isinstance(data, dict):
        raise ConfigError("sweep file must hold a JSON object")
    known = {"base", "axes", "outputs"}
    for key in data:
        if key not in known:
            raise UnknownKey("unknown sweep key %r; valid keys: %s"
                             % (key, ", ".join(sorted(known))))
    base = config.from_dict(data.get("base", {}))
    axes = []
    for axis in data.get("axes", []):
        if not isinstance(axis, dict) or set(axis) != {"path", "values"}:
            raise ConfigError("each axis needs exactly 'path' and 'values'")
        if not isinstance(axis["path"], str):
            raise ConfigError("axis path must be a string, got %r"
                              % axis["path"])
        if not isinstance(axis["values"], list):
            raise ConfigError("axis values must form a list")
        axes.append((axis["path"], tuple(axis["values"])))
    outputs = data.get("outputs", [])
    if not isinstance(outputs, list):
        raise ConfigError("outputs must form a list")
    return SweepSpec(base=base, axes=tuple(axes), outputs=tuple(outputs))
