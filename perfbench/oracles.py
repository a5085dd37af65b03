"""Closed-form checks of each workload's output files.

The checks compare the program against physics, not against a digest of
today's output, so a refactor that moves results by a few ulps still
passes.  Each oracle returns a list with one entry per operation of the
CLI call (a simulate run, a dispersion point, a grid point): None when the
operation's output is correct, otherwise the reason it is not.  A typed
error the closed form predicts (NoHorizon for a grid point without a
crossing) is a correct outcome.
"""

from __future__ import annotations

import csv
import math
import struct
import types
import xml.etree.ElementTree as ElementTree
from pathlib import Path

import numpy as np
from scipy.constants import e as ELECTRON_CHARGE
from scipy.constants import hbar as HBAR
from scipy.constants import k as BOLTZMANN

from workloads import (DISPERSION_KA, FLUX_QUANTUM, SIM_CARRIER_KA,
                       SWEEP_OUTPUTS, zero_flux_inductance, zero_flux_speed)

# Relative tolerances.  CSV cells carry 13 significant digits.
CSV_RTOL = 1.0e-11
FORMULA_RTOL = 1.0e-9
# The sweep's horizon gradient comes from an O(h^4) finite difference and
# its photon count from a 65-sample trapezoid.
HORIZON_RTOL = 1.0e-4
PACKET_SPEED_RTOL = 0.01
DISPERSION_RTOL = 0.01
DISPERSION_RTOL_KA2 = 0.02


def _close(a, b, rtol, atol=0.0) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b))
                       <= atol + rtol * np.abs(np.asarray(b))))


def _read_binary(path: Path):
    # Documented layout: "<5sII" header (magic, cells, records), then the
    # times and the A, I, V blocks as little-endian float64.
    raw = path.read_bytes()
    magic, n, n_rec = struct.unpack("<5sII", raw[:13])
    if magic != b"SQHZ1":
        raise ValueError("bad magic %r" % magic)
    payload = np.frombuffer(raw[13:], dtype="<f8")
    if payload.size != n_rec * (1 + 3 * n):
        raise ValueError("binary dump holds %d floats, expected %d"
                         % (payload.size, n_rec * (1 + 3 * n)))
    blocks = payload[n_rec:].reshape(3, n_rec, n)
    return payload[:n_rec], blocks[0], blocks[1], blocks[2]


def check_simulate(out: Path, doc: dict) -> list:
    """One operation: dumps agree and are finite, the SVG parses, and the
    probe packet moves at c0 cos(ka/2) within 1%."""
    try:
        times, pot, cur, volts = _read_binary(out / "trajectory.sqhz")
        with open(out / "trajectory.csv") as fh:
            if fh.readline().strip() != "t,node,A,I,V":
                return ["trajectory.csv header changed"]
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
        ElementTree.parse(out / "trajectory.svg")
    except (OSError, ValueError, struct.error, ElementTree.ParseError) as exc:
        return ["unreadable output: %s" % exc]

    n_rec, n = pot.shape
    if n != doc["array"]["n_cells"] or table.shape != (n_rec * n, 5):
        return ["dump shape %s / csv %s" % (pot.shape, table.shape)]
    for block in (times, pot, cur, volts):
        if not np.isfinite(block).all():
            return ["non-finite values in the binary dump"]
    expect = np.column_stack([np.repeat(times, n), np.tile(np.arange(n), n_rec),
                              pot.ravel(), cur.ravel(), volts.ravel()])
    if not _close(table, expect, CSV_RTOL, atol=1e-300):
        return ["CSV and binary dumps disagree"]
    if not _close(volts, np.diff(pot, axis=1, prepend=0.0), 1e-12,
                  atol=1e-300):
        return ["V is not the difference of adjacent A"]

    # The packet lives in the zero-flux region ahead of the front, where
    # L = L0; its energy density is L0 I^2/2 + C0 V^2/2 per cell.
    arr = doc["array"]
    l0 = zero_flux_inductance(doc)
    density = 0.5 * l0 * cur * cur + 0.5 * arr["ground_capacitance"] * volts * volts
    trajectory = types.SimpleNamespace(
        energy_density=density, times=times,
        positions=(np.arange(n) + 0.5) * arr["cell_length"])
    from squid_horizon.lattice import measure_pulse_speed
    try:
        speed = measure_pulse_speed(trajectory)
    except (ValueError, RuntimeError) as exc:
        return ["packet speed not measurable: %s" % exc]
    expected = zero_flux_speed(doc) * math.cos(0.5 * SIM_CARRIER_KA)
    if abs(speed / expected - 1.0) > PACKET_SPEED_RTOL:
        return ["packet speed %.6e, expected %.6e" % (speed, expected)]
    return [None]


def check_dispersion(out: Path, doc: dict) -> list:
    """One operation per band point: the drive lands on the closed-form
    branch within 1% (2% at ka = 2) and the analytic column matches it."""
    n_points = len(DISPERSION_KA)
    try:
        with open(out / "dispersion.csv", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return ["unreadable output: %s" % exc] * n_points
    if not rows or rows[0] != ["k", "omega_analytic", "omega_measured",
                               "rel_error"]:
        return ["dispersion.csv header changed"] * n_points
    body = rows[1:]

    arr = doc["array"]
    a, cap = arr["cell_length"], arr["ground_capacitance"]
    f_dc = doc["pulse"]["dc_offset"]
    ind = zero_flux_inductance(doc) / math.cos(math.pi * f_dc)
    omega_max = 2.0 / math.sqrt(ind * cap)
    verdicts = []
    for i, ka in enumerate(DISPERSION_KA):
        if i >= len(body):
            verdicts.append("point ka=%g missing" % ka)
            continue
        try:
            k, w_ana, w_meas, rel = (float(v) for v in body[i])
        except ValueError:
            verdicts.append("row %d is not four numbers" % i)
            continue
        w_drive = omega_max * math.sin(0.5 * ka)
        w_branch = omega_max * abs(math.sin(0.5 * k * a))
        tol = DISPERSION_RTOL_KA2 if ka == 2.0 else DISPERSION_RTOL
        if not all(math.isfinite(v) for v in (k, w_ana, w_meas, rel)):
            verdicts.append("ka=%g: non-finite value" % ka)
        elif not _close(w_meas, w_drive, FORMULA_RTOL):
            verdicts.append("ka=%g: drive %.6e, expected %.6e"
                            % (ka, w_meas, w_drive))
        elif not _close(w_ana, w_branch, FORMULA_RTOL):
            verdicts.append("ka=%g: analytic %.6e, closed form %.6e"
                            % (ka, w_ana, w_branch))
        elif abs(w_drive - w_branch) / w_branch > tol:
            verdicts.append("ka=%g: relative error %.3e above %g"
                            % (ka, abs(w_drive - w_branch) / w_branch, tol))
        else:
            verdicts.append(None)
    if len(body) > n_points:
        verdicts[-1] = verdicts[-1] or "%d rows, expected %d" % (len(body),
                                                                 n_points)
    return verdicts


def horizon_expected(base: dict, amplitude: float, velocity: float) -> bool:
    """Closed-form horizon test (u/c_zero-flux)^2 in [cos pi(f+A), cos pi f]."""
    f_dc = base["pulse"]["dc_offset"]
    q = (velocity / zero_flux_speed(base)) ** 2
    return math.cos(math.pi * (f_dc + amplitude)) <= q <= math.cos(math.pi * f_dc)


def _sweep_closed_forms(base: dict, amplitude: float, velocity: float) -> dict:
    # c(xi) = c_zf sqrt(cos pi f) with f = f_dc + A/2 (1 - tanh s xi).
    arr, pulse = base["array"], base["pulse"]
    f_dc = pulse["dc_offset"]
    c_zf = zero_flux_speed(base)
    ic = base["junction"]["critical_current"]
    inner = (2.0 * math.pi * ELECTRON_CHARGE ** 2 /
             (FLUX_QUANTUM * arr["ground_capacitance"] * ic))
    out = {"cell_speed": c_zf * math.sqrt(math.cos(math.pi * f_dc)),
           "impedance_ratio": math.sqrt(inner / math.cos(math.pi * f_dc))}
    q = (velocity / c_zf) ** 2
    f_h = math.acos(q) / math.pi
    tanh = 1.0 - 2.0 * (f_h - f_dc) / amplitude
    s0 = pulse["steepness"]
    grad = (c_zf * math.pi * math.sin(math.pi * f_h) * amplitude * s0 *
            (1.0 - tanh * tanh) / (4.0 * math.sqrt(q)))
    t0 = HBAR * grad / (2.0 * math.pi * BOLTZMANN)
    # T_H follows the steepness s0 / (1 + b u t); the rate pi k_B T /(12 hbar)
    # integrates over the traversal n a / u to a logarithm.
    bu = pulse["broadening"] * velocity
    travel = arr["n_cells"] * arr["cell_length"] / velocity
    rate0 = math.pi * BOLTZMANN * t0 / (12.0 * HBAR)
    photons = rate0 * (math.log1p(bu * travel) / bu if bu > 0 else travel)
    out.update(horizon_count=1.0, hawking_temperature=t0,
               photon_count=photons)
    return out


def check_sweep(out: Path, doc: dict) -> list:
    """One operation per grid point, in grid order: coordinates echo the
    sweep file, horizon points match the closed forms, and points without
    a crossing report NoHorizon and nothing else."""
    amplitudes = doc["axes"][0]["values"]
    velocities = doc["axes"][1]["values"]
    grid = [(a_, v_) for a_ in amplitudes for v_ in velocities]
    try:
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return ["unreadable output: %s" % exc] * len(grid)
    header = ["pulse.amplitude", "pulse.velocity"] + list(SWEEP_OUTPUTS) + \
        ["error"]
    if not rows or rows[0] != header:
        return ["sweep.csv header changed"] * len(grid)
    body = rows[1:]
    verdicts = []
    for i, (amp, vel) in enumerate(grid):
        if i >= len(body) or len(body[i]) != len(header):
            verdicts.append("grid point %d missing or malformed" % i)
            continue
        row = dict(zip(header, body[i]))
        try:
            coords = (float(row["pulse.amplitude"]), float(row["pulse.velocity"]))
        except ValueError:
            verdicts.append("point %d: bad coordinates" % i)
            continue
        if not _close(coords, (amp, vel), CSV_RTOL):
            verdicts.append("point %d: coordinates %s" % (i, coords))
            continue
        values = [row[name] for name in SWEEP_OUTPUTS]
        if not horizon_expected(doc["base"], amp, vel):
            if row["error"].startswith("NoHorizon") and not any(values):
                verdicts.append(None)
            else:
                verdicts.append("point %d: expected NoHorizon, got %r"
                                % (i, row["error"] or values))
            continue
        if row["error"]:
            verdicts.append("point %d: unexpected error %r" % (i, row["error"]))
            continue
        try:
            got = {name: float(row[name]) for name in SWEEP_OUTPUTS}
        except ValueError:
            verdicts.append("point %d: missing output" % i)
            continue
        expect = _sweep_closed_forms(doc["base"], amp, vel)
        bad = [name for name in SWEEP_OUTPUTS
               if not math.isfinite(got[name]) or not _close(
                   got[name], expect[name],
                   FORMULA_RTOL if name in ("cell_speed", "impedance_ratio",
                                            "horizon_count")
                   else HORIZON_RTOL)]
        verdicts.append(None if not bad else "point %d: %s off the closed form"
                        % (i, ", ".join(bad)))
    if len(body) > len(grid):
        verdicts[-1] = verdicts[-1] or "%d rows, expected %d" % (len(body),
                                                                 len(grid))
    return verdicts


def check(workload: str, out: Path, doc: dict) -> list:
    """Dispatch to the workload's oracle."""
    if workload == "simulate-front":
        return check_simulate(out, doc)
    if workload == "dispersion-drive":
        return check_dispersion(out, doc)
    if workload == "sweep-grid":
        return check_sweep(out, doc)
    raise ValueError(workload)
