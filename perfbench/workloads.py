"""Seeded inputs for the three benchmark workloads.

Each workload is one `squid-horizon` subcommand run on a configuration or
sweep file generated here from the benchmark seed; the program under test
sees only those files.  The seed moves the physics (pulse amplitude and
speed, dc flux, grid values) inside ranges that leave the amount of work
unchanged, so run times from different seeds are comparable.

The reference device is written into every generated file in full, so the
benchmark keeps measuring the same device if the shipped defaults change.
Nothing here imports the package: the oracles compare the program against
closed forms computed from these same numbers.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from scipy.constants import e as ELECTRON_CHARGE
from scipy.constants import h as PLANCK

FLUX_QUANTUM = PLANCK / (2.0 * ELECTRON_CHARGE)

# Reference device: 2 uA junctions tuned to a 1 THz zero-flux plasma
# frequency, 0.25 um cells, 50 aF ground capacitance, 4800 cells.
DEVICE = {
    "junction": {"critical_current": 2.0e-6,
                 "capacitance": 1.539339760883361e-16,
                 "normal_resistance": None},
    "squid": {"loop_inductance": 1.0e-11},
    "array": {"n_cells": 4800, "cell_length": 2.5e-7,
              "ground_capacitance": 5.0e-17,
              "environment_impedance": 50.0},
}
# Front shape of the reference pulse: gradient-capped steepness and the
# broadening rate calibrated for a 10% temperature drop per 1000 cells.
STEEPNESS = 436228.3606298319
BROADENING = 444.4444444444444

# Carrier of the `simulate` probe packet, in k a (fixed by the CLI).
SIM_CARRIER_KA = 0.1
# Band positions the `dispersion` subcommand drives, in k a (fixed by the CLI).
DISPERSION_KA = (0.1, 0.2, 0.3, 0.5, 1.0, 1.5, 2.0)
SWEEP_OUTPUTS = ("cell_speed", "impedance_ratio", "horizon_count",
                 "hawking_temperature", "photon_count")

WORKLOADS = ("simulate-front", "dispersion-drive", "sweep-grid")


def zero_flux_inductance(device: dict = DEVICE) -> float:
    """Cell inductance Phi_0 / (2 pi * 2 I_c) at zero flux (H)."""
    ic = device["junction"]["critical_current"]
    return FLUX_QUANTUM / (2.0 * math.pi * 2.0 * ic)


def zero_flux_speed(device: dict = DEVICE) -> float:
    """Cell speed a / sqrt(L C0) at zero flux (m/s)."""
    arr = device["array"]
    return arr["cell_length"] / math.sqrt(zero_flux_inductance(device) *
                                          arr["ground_capacitance"])


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the benchmark uses FULL, the self-test TINY."""

    n_cells: int
    n_steps: int
    record_every: int
    n_amplitudes: int
    n_velocities: int


FULL = Sizes(n_cells=4800, n_steps=5000, record_every=500,
             n_amplitudes=4, n_velocities=8)
TINY = Sizes(n_cells=1600, n_steps=1000, record_every=100,
             n_amplitudes=2, n_velocities=4)


@dataclass(frozen=True)
class Workload:
    """Generated inputs of one workload: the CLI arguments (without --out),
    the parsed input document, and the number of operations one CLI call
    performs (a simulate run, a dispersion point, a grid point)."""

    name: str
    argv: tuple
    document: dict
    ops_per_call: int


def _device(sizes: Sizes) -> dict:
    dev = json.loads(json.dumps(DEVICE))
    dev["array"]["n_cells"] = sizes.n_cells
    return dev


def _pulse(amplitude: float, dc_offset: float, speed_ratio: float) -> dict:
    # The reference front at speed_ratio times the zero-flux cell speed.
    return {"amplitude": amplitude, "dc_offset": dc_offset,
            "velocity": speed_ratio * zero_flux_speed(),
            "steepness": STEEPNESS, "front_position": 0.0,
            "broadening": BROADENING, "shape": "tanh"}


def _simulate_front(rng: random.Random, sizes: Sizes) -> dict:
    # dc_offset = 0 keeps the smallest flux, hence dt, fixed; the packet
    # (launched a quarter along, moving at ~c0) outruns any front below c0.
    doc = _device(sizes)
    doc["pulse"] = _pulse(rng.uniform(0.15, 0.25), 0.0,
                          rng.uniform(0.88, 0.97))
    doc["solver"] = {"n_steps": sizes.n_steps, "dt": None,
                     "courant_fraction": 0.2, "boundary": "absorbing",
                     "record_every": sizes.record_every,
                     "current_dependent_inductance": False,
                     "check_every": 128}
    return doc


def _dispersion_drive(rng: random.Random, sizes: Sizes) -> dict:
    # Every time scale of the driven lines is proportional to sqrt(L C0),
    # so the dc flux moves the frequencies but not the step counts.
    doc = _device(sizes)
    doc["pulse"] = _pulse(0.2, rng.uniform(0.0, 0.1), 0.95)
    return doc


def _sweep_grid(rng: random.Random, sizes: Sizes) -> dict:
    # Work is set by how many points have a horizon (those pay the photon
    # budget), so the layout is fixed and only the values are drawn.  In
    # q = (u/c_zero-flux)^2 the velocities sit one per bin of width w; the
    # horizon threshold cos(pi A) of amplitude i sits in the gap below the
    # i highest velocities, so exactly 1 + 2 + ... + n_amplitudes points
    # have a horizon.  Every point keeps at least 0.2 w (about 0.012 in q)
    # from the boundary.
    n_a, n_v = sizes.n_amplitudes, sizes.n_velocities
    q_lo, q_hi = 0.50, 0.97
    width = (q_hi - q_lo) / n_v
    qs = [q_lo + (j + rng.uniform(0.1, 0.4)) * width for j in range(n_v)]
    thresholds = [q_lo + (n_v - i + rng.uniform(-0.4, -0.1)) * width
                  for i in range(1, n_a + 1)]
    amplitudes = sorted(math.acos(t) / math.pi for t in thresholds)
    velocities = [math.sqrt(q) * zero_flux_speed() for q in qs]
    base = _device(sizes)
    base["pulse"] = _pulse(0.2, 0.0, 0.95)
    return {"base": base,
            "axes": [{"path": "pulse.amplitude", "values": amplitudes},
                     {"path": "pulse.velocity", "values": velocities}],
            "outputs": list(SWEEP_OUTPUTS)}


def generate(name: str, seed: int, directory: Path,
             sizes: Sizes = FULL) -> Workload:
    """Write the workload's input file into directory and describe the run."""
    rng = random.Random("%s:%d" % (name, seed))
    directory.mkdir(parents=True, exist_ok=True)
    if name == "simulate-front":
        doc = _simulate_front(rng, sizes)
        path = directory / "simulate.json"
        argv = ("simulate", "--config", str(path), "--emit", "csv,bin,svg")
        ops = 1
    elif name == "dispersion-drive":
        doc = _dispersion_drive(rng, sizes)
        path = directory / "dispersion.json"
        argv = ("dispersion", "--config", str(path))
        ops = len(DISPERSION_KA)
    elif name == "sweep-grid":
        doc = _sweep_grid(rng, sizes)
        path = directory / "sweep.json"
        argv = ("sweep", "--config", str(path))
        ops = sizes.n_amplitudes * sizes.n_velocities
    else:
        raise ValueError("unknown workload %r; choose from %s"
                         % (name, ", ".join(WORKLOADS)))
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return Workload(name=name, argv=argv, document=doc, ops_per_call=ops)
