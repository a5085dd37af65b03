"""Outside-in tracer: spans around the package's public functions.

The tracer replaces each public function of the traced modules by a
wrapper, through the module attribute, so every call that looks the
function up on its module (``lattice.run(...)`` from the CLI, or a bare
``josephson_inductance(...)`` inside ``circuit``) records a span.  Nothing
in the package changes; uninstalling restores the original attributes.

A span is [name, parent index, start, end, capture].  ``capture`` holds the
few scalars (or references) a metric needs from the call's arguments and
return value; anything costly is derived after the repetition, outside the
timed calls.  Spans stay in memory for one repetition and are folded into
per-layer metrics by :func:`layer_metrics`.

A function the tracer cannot find is reported as absent and its metrics
read 0, so a later change that inlines or renames a function still gets
measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

import numpy as np

MODULES = ("lattice", "bias", "geometry", "circuit", "dispersion",
           "experiments", "config", "cli", "svgplot")

# tanh is exactly +-1.0 in float64 beyond |arg| ~ 19.06, so the front only
# does useful work for points inside this window.
TANH_SATURATION = 20.0


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _capture_run(args, kwargs, result):
    array = _arg(args, kwargs, 1, "array")
    config = _arg(args, kwargs, 4, "config")
    probes = _arg(args, kwargs, 6, "probe_nodes", ())
    return (array.n_cells, config.n_steps, config.record_every, len(probes))


def _capture_flux(args, kwargs, result):
    pulse, t = _arg(args, kwargs, 0, "pulse"), _arg(args, kwargs, 2, "t")
    return (pulse.steepness_at(t), pulse.front_position + pulse.velocity * t,
            _arg(args, kwargs, 1, "x"))


def _capture_horizons(args, kwargs, result):
    return (len(_arg(args, kwargs, 0, "profile").positions), len(result))


def _capture_file(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _capture_dispersion(args, kwargs, result):
    errors = result.relative_errors
    return (len(result), float(np.max(errors)) if len(errors) else 0.0)


def _capture_sweep(args, kwargs, result):
    expected = sum(1 for p in result.points
                   if p.error is not None and p.error.startswith("NoHorizon"))
    return (len(result.points), expected)


CAPTURES = {
    "lattice.run": _capture_run,
    "lattice.write_trajectory_csv": _capture_file,
    "bias.flux_fraction_at": _capture_flux,
    "geometry.find_horizons": _capture_horizons,
    "dispersion.measure_dispersion": _capture_dispersion,
    "experiments.run_sweep": _capture_sweep,
}

# Functions the per-layer metrics are derived from.
EXPECTED = (
    "lattice.run", "lattice.gaussian_packet", "lattice.write_trajectory_csv",
    "lattice.write_trajectory_binary", "bias.flux_fraction_at",
    "bias.comoving_flux_fraction", "bias.comoving_flux",
    "geometry.velocity_profile", "geometry.find_horizons",
    "geometry.photons_per_pulse", "geometry.hawking_temperature",
    "circuit.cell_velocity", "circuit.josephson_inductance",
    "circuit.array_impedance", "dispersion.measure_dispersion",
    "dispersion.write_dispersion_csv", "experiments.run_sweep",
    "experiments.write_sweep_csv", "experiments.load_sweep",
    "config.apply_override", "config.load_config", "config.loads_config",
    "cli.main", "svgplot.line_plot",
)


class Tracer:
    """Installs span-recording wrappers on the public functions of the
    package's modules."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._originals = []
        self._targets = []
        for short in MODULES:
            module = importlib.import_module("squid_horizon." + short)
            for attr, value in sorted(vars(module).items()):
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    self._targets.append((module, attr, "%s.%s" % (short, attr)))
        found = {name for _, _, name in self._targets}
        self.absent = tuple(name for name in EXPECTED if name not in found)

    def install(self) -> None:
        if self._originals:
            return
        for module, attr, name in self._targets:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals = []

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name, fn):
        capture = CAPTURES.get(name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if capture is not None:
                try:
                    span[4] = capture(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError,
                        OSError, ValueError):
                    pass  # a changed signature leaves the derived counts at 0
            return result

        return wrapper


# Per-layer metrics: name -> (unit, better).  Order is the report order.
PER_LAYER = {
    "lattice.run.calls": ("count", "lower"),
    "lattice.run.self_s": ("s", "lower"),
    "lattice.run.cell_steps": ("count", "lower"),
    "lattice.run.ns_per_cell_step": ("ns", "lower"),
    "lattice.run.us_per_step": ("us", "lower"),
    "lattice.run.record_mb_computed": ("MB", "lower"),
    "lattice.run.share": ("ratio", "lower"),
    "lattice.gaussian_packet.self_s": ("s", "lower"),
    "lattice.write_trajectory_csv.self_s": ("s", "lower"),
    "lattice.write_trajectory_csv.mb_per_s": ("MB/s", "higher"),
    "lattice.write_trajectory_binary.self_s": ("s", "lower"),
    "bias.flux_fraction_at.calls": ("count", "lower"),
    "bias.flux_fraction_at.self_s": ("s", "lower"),
    "bias.flux_fraction_at.points": ("count", "lower"),
    "bias.flux_fraction_at.useful_ratio": ("ratio", "higher"),
    "bias.comoving_flux_fraction.calls": ("count", "lower"),
    "bias.comoving_flux_fraction.self_s": ("s", "lower"),
    "bias.comoving_flux.calls": ("count", "lower"),
    "bias.share": ("ratio", "lower"),
    "geometry.velocity_profile.calls": ("count", "lower"),
    "geometry.velocity_profile.self_s": ("s", "lower"),
    "geometry.velocity_profile.calls_per_point": ("count", "lower"),
    "geometry.find_horizons.calls": ("count", "lower"),
    "geometry.find_horizons.self_s": ("s", "lower"),
    "geometry.find_horizons.cells_scanned": ("count", "lower"),
    "geometry.find_horizons.ns_per_cell": ("ns", "lower"),
    "geometry.find_horizons.useful_ratio": ("ratio", "higher"),
    "geometry.find_horizons.share": ("ratio", "lower"),
    "geometry.photons_per_pulse.calls": ("count", "lower"),
    "geometry.photons_per_pulse.self_s": ("s", "lower"),
    "geometry.hawking_temperature.calls": ("count", "lower"),
    "geometry.hawking_temperature.self_s": ("s", "lower"),
    "circuit.cell_velocity.calls": ("count", "lower"),
    "circuit.josephson_inductance.calls": ("count", "lower"),
    "circuit.array_impedance.calls": ("count", "lower"),
    "circuit.self_s": ("s", "lower"),
    "dispersion.measure_dispersion.self_s": ("s", "lower"),
    "dispersion.measure_dispersion.lattice_runs": ("count", "lower"),
    "dispersion.points": ("count", "higher"),
    "dispersion.max_rel_error": ("ratio", "lower"),
    "dispersion.write_dispersion_csv.self_s": ("s", "lower"),
    "experiments.run_sweep.self_s": ("s", "lower"),
    "experiments.run_sweep.points": ("count", "higher"),
    "experiments.run_sweep.expected_errors": ("count", "higher"),
    "experiments.run_sweep.s_per_point": ("s", "lower"),
    "experiments.write_sweep_csv.self_s": ("s", "lower"),
    "experiments.load_sweep.self_s": ("s", "lower"),
    "config.apply_override.calls": ("count", "lower"),
    "config.apply_override.self_s": ("s", "lower"),
    "config.load_config.self_s": ("s", "lower"),
    "config.loads_config.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "svgplot.line_plot.calls": ("count", "lower"),
    "svgplot.line_plot.self_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _ratio(num, den):
    return num / den if den else 0.0


def _useful_points(steepness, centre, x):
    arg = steepness * (np.asarray(x, dtype=float) - centre)
    return int(np.count_nonzero(np.abs(arg) < TANH_SATURATION)), int(arg.size)


def _record_bytes(n_cells, n_steps, record_every, n_probes):
    # Arrays lattice.run allocates for its recording: times, energies and
    # three (records x cells) blocks, plus per-step probe samples and times.
    cadence = record_every if record_every > 0 else n_steps
    n_rec = len(range(0, n_steps, cadence)) + 1
    floats = n_rec * (2 + 3 * n_cells) + (n_steps + 1) * (n_probes + 1)
    return 8.0 * floats


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one traced repetition (trace.overhead_s is
    filled in by the caller, which also times untraced repetitions)."""
    count = len(spans)
    dur = np.array([s[3] - s[2] for s in spans]) if count else np.zeros(0)
    child = np.zeros(count)
    for i, span in enumerate(spans):
        if span[1] >= 0:
            child[span[1]] += dur[i]
    self_time = dur - child

    calls, incl, own, caps = {}, {}, {}, {}
    for i, span in enumerate(spans):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur[i]
        own[name] = own.get(name, 0.0) + self_time[i]
        if span[4] is not None:
            caps.setdefault(name, []).append(span[4])

    def has_ancestor(i, test):
        parent = spans[i][1]
        while parent >= 0:
            if test(spans[parent][0]):
                return True
            parent = spans[parent][1]
        return False

    def outer_time(test):
        # Inclusive time of the outermost spans matching test.
        return float(sum(dur[i] for i, s in enumerate(spans)
                         if test(s[0]) and not has_ancestor(i, test)))

    total = incl.get("cli.main", 0.0)

    run = caps.get("lattice.run", [])
    cell_steps = sum(c[0] * c[1] for c in run)
    steps = sum(c[1] for c in run)
    flux = [_useful_points(*c) for c in caps.get("bias.flux_fraction_at", [])]
    flux_points = sum(p for _, p in flux)
    horizons = caps.get("geometry.find_horizons", [])
    scanned = sum(c[0] for c in horizons)
    brackets = sum(c[1] for c in horizons)
    csv_bytes = sum(caps.get("lattice.write_trajectory_csv", []))
    curves = caps.get("dispersion.measure_dispersion", [])
    sweeps = caps.get("experiments.run_sweep", [])
    points = sum(c[0] for c in sweeps)

    m = {
        "lattice.run.calls": calls.get("lattice.run", 0),
        "lattice.run.self_s": own.get("lattice.run", 0.0),
        "lattice.run.cell_steps": cell_steps,
        "lattice.run.ns_per_cell_step":
            1e9 * _ratio(incl.get("lattice.run", 0.0), cell_steps),
        "lattice.run.us_per_step":
            1e6 * _ratio(incl.get("lattice.run", 0.0), steps),
        "lattice.run.record_mb_computed":
            max((_record_bytes(*c) for c in run), default=0.0) / 1e6,
        "lattice.run.share":
            _ratio(outer_time(lambda n: n == "lattice.run"), total),
        "lattice.gaussian_packet.self_s":
            own.get("lattice.gaussian_packet", 0.0),
        "lattice.write_trajectory_csv.self_s":
            own.get("lattice.write_trajectory_csv", 0.0),
        "lattice.write_trajectory_csv.mb_per_s":
            _ratio(csv_bytes / 1e6, own.get("lattice.write_trajectory_csv", 0.0)),
        "lattice.write_trajectory_binary.self_s":
            own.get("lattice.write_trajectory_binary", 0.0),
        "bias.flux_fraction_at.calls": calls.get("bias.flux_fraction_at", 0),
        "bias.flux_fraction_at.self_s": own.get("bias.flux_fraction_at", 0.0),
        "bias.flux_fraction_at.points": flux_points,
        "bias.flux_fraction_at.useful_ratio":
            _ratio(sum(u for u, _ in flux), flux_points),
        "bias.comoving_flux_fraction.calls":
            calls.get("bias.comoving_flux_fraction", 0),
        "bias.comoving_flux_fraction.self_s":
            own.get("bias.comoving_flux_fraction", 0.0),
        "bias.comoving_flux.calls": calls.get("bias.comoving_flux", 0),
        "bias.share": _ratio(outer_time(lambda n: n.startswith("bias.")),
                             total),
        "geometry.velocity_profile.calls":
            calls.get("geometry.velocity_profile", 0),
        "geometry.velocity_profile.self_s":
            own.get("geometry.velocity_profile", 0.0),
        "geometry.velocity_profile.calls_per_point":
            _ratio(calls.get("geometry.velocity_profile", 0), points),
        "geometry.find_horizons.calls": calls.get("geometry.find_horizons", 0),
        "geometry.find_horizons.self_s": own.get("geometry.find_horizons", 0.0),
        "geometry.find_horizons.cells_scanned": scanned,
        "geometry.find_horizons.ns_per_cell":
            1e9 * _ratio(incl.get("geometry.find_horizons", 0.0), scanned),
        "geometry.find_horizons.useful_ratio":
            _ratio(brackets, scanned - len(horizons)),
        "geometry.find_horizons.share":
            _ratio(outer_time(lambda n: n == "geometry.find_horizons"), total),
        "geometry.photons_per_pulse.calls":
            calls.get("geometry.photons_per_pulse", 0),
        "geometry.photons_per_pulse.self_s":
            own.get("geometry.photons_per_pulse", 0.0),
        "geometry.hawking_temperature.calls":
            calls.get("geometry.hawking_temperature", 0),
        "geometry.hawking_temperature.self_s":
            own.get("geometry.hawking_temperature", 0.0),
        "circuit.cell_velocity.calls": calls.get("circuit.cell_velocity", 0),
        "circuit.josephson_inductance.calls":
            calls.get("circuit.josephson_inductance", 0),
        "circuit.array_impedance.calls": calls.get("circuit.array_impedance", 0),
        "circuit.self_s": sum(value for name, value in own.items()
                              if name.startswith("circuit.")),
        "dispersion.measure_dispersion.self_s":
            own.get("dispersion.measure_dispersion", 0.0),
        "dispersion.measure_dispersion.lattice_runs": sum(
            1 for i, s in enumerate(spans) if s[0] == "lattice.run" and
            has_ancestor(i, lambda n: n == "dispersion.measure_dispersion")),
        "dispersion.points": sum(c[0] for c in curves),
        "dispersion.max_rel_error": max((c[1] for c in curves), default=0.0),
        "dispersion.write_dispersion_csv.self_s":
            own.get("dispersion.write_dispersion_csv", 0.0),
        "experiments.run_sweep.self_s": own.get("experiments.run_sweep", 0.0),
        "experiments.run_sweep.points": points,
        "experiments.run_sweep.expected_errors": sum(c[1] for c in sweeps),
        "experiments.run_sweep.s_per_point":
            _ratio(incl.get("experiments.run_sweep", 0.0), points),
        "experiments.write_sweep_csv.self_s":
            own.get("experiments.write_sweep_csv", 0.0),
        "experiments.load_sweep.self_s": own.get("experiments.load_sweep", 0.0),
        "config.apply_override.calls": calls.get("config.apply_override", 0),
        "config.apply_override.self_s": own.get("config.apply_override", 0.0),
        "config.load_config.self_s": own.get("config.load_config", 0.0),
        "config.loads_config.self_s": own.get("config.loads_config", 0.0),
        "cli.main.self_s": own.get("cli.main", 0.0),
        "svgplot.line_plot.calls": calls.get("svgplot.line_plot", 0),
        "svgplot.line_plot.self_s": own.get("svgplot.line_plot", 0.0),
        "trace.spans": count,
        "trace.overhead_s": 0.0,
    }
    return {name: float(value) for name, value in m.items()}
