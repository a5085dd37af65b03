"""Self-test of the benchmark, at tiny problem sizes.

    python3 perfbench/selftest.py

Checks that
  * the metrics run.py reports are exactly those BENCHMARK.json names,
    each with its unit, for every workload, traced and untraced;
  * each oracle passes the program's real output and counts a
    deliberately corrupted copy of it in failed_fraction;
  * the tracer reports a function it cannot find as absent;
  * run.py refuses, with a non-zero exit and no result line, to run in a
    directory that holds only BENCHMARK.json and the benchmark's files.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import run
import workloads
from tracer import PER_LAYER

SCRATCH = run.ROOT / ".bench_work" / "selftest"


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit("selftest FAILED: " + message)
    print("ok  " + message)


def check_metric_names() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    coded = {"end_to_end": {k: u for k, (u, _) in run.END_TO_END.items()},
             "per_layer": {k: u for k, (u, _) in PER_LAYER.items()}}
    _expect(declared == coded, "BENCHMARK.json declares the metrics run.py "
            "reports, with the same units")
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result, _ = run.run_workload(name, seed=7, seconds=0.0,
                                         trace=trace, sizes=workloads.TINY)
            group = "per_layer" if trace else "end_to_end"
            units = {k: m["unit"] for k, m in result["metrics"].items()}
            finite = all(math.isfinite(m["value"])
                         for m in result["metrics"].values())
            _expect(units == declared[group] and finite and result["correct"]
                    and result["attempted"] >= 1,
                    "%s --trace %d prints every %s metric with its unit and "
                    "passes its oracle" % (name, trace, group))


def _produce(name: str) -> tuple:
    # One real CLI call at tiny size; returns the workload and its output.
    from squid_horizon import cli
    load = workloads.generate(name, 5, SCRATCH / name, workloads.TINY)
    out = SCRATCH / name / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(load.argv) + ["--out", str(out)])
    _expect(code == 0, "%s runs at tiny size" % name)
    return load, out


def _failed_fraction(load, out: Path) -> float:
    attempted, failed, _ = run.check_outputs(
        load, [{"dir": str(out), "code": 0, "count": 1, "error": None}])
    return failed / attempted


def _corrupt_copy(out: Path, label: str, edit) -> Path:
    copy = out.parent / ("corrupt-" + label)
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(out, copy)
    edit(copy)
    return copy


def _edit_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _scale_times(directory: Path, factor: float) -> None:
    # A consistent pair of dumps whose clock runs 5% fast: the packet speed
    # is off while the CSV and binary dumps still agree.
    path = directory / "trajectory.sqhz"
    raw = bytearray(path.read_bytes())
    n_rec = int.from_bytes(raw[9:13], "little")
    times = np.frombuffer(bytes(raw[13:13 + 8 * n_rec]), dtype="<f8") * factor
    raw[13:13 + 8 * n_rec] = times.astype("<f8").tobytes()
    path.write_bytes(bytes(raw))
    lines = (directory / "trajectory.csv").read_text().splitlines(True)
    body = ["%.12e,%s" % (float(line.split(",", 1)[0]) * factor,
                          line.split(",", 1)[1]) for line in lines[1:]]
    (directory / "trajectory.csv").write_text(lines[0] + "".join(body))


def _set_cell(row: int, column: int, transform):
    def edit(rows):
        rows[row][column] = transform(rows[row][column])
    return edit


def check_oracles() -> None:
    cases = {
        "simulate-front": [
            ("one CSV potential", lambda d: _edit_csv(
                d / "trajectory.csv",
                _set_cell(1 + 200, 2, lambda v: "%.12e" % (float(v) + 1e-3)))),
            ("clock of both dumps", lambda d: _scale_times(d, 1.05)),
            ("truncated binary dump", lambda d: (d / "trajectory.sqhz")
             .write_bytes((d / "trajectory.sqhz").read_bytes()[:-8])),
        ],
        "dispersion-drive": [
            ("measured frequency", lambda d: _edit_csv(
                d / "dispersion.csv",
                _set_cell(3, 2, lambda v: "%.12e" % (1.03 * float(v))))),
            ("measured wavenumber", lambda d: _edit_csv(
                d / "dispersion.csv",
                _set_cell(5, 0, lambda v: "%.12e" % (1.03 * float(v))))),
        ],
        "sweep-grid": [
            ("hawking temperature", lambda d: _edit_csv(
                d / "sweep.csv", _horizon_row_edit(5, 1.01))),
            ("photon count", lambda d: _edit_csv(
                d / "sweep.csv", _horizon_row_edit(6, 1.001))),
            ("NoHorizon point reported as a value", lambda d: _edit_csv(
                d / "sweep.csv", _no_horizon_row_edit())),
            ("missing grid point", lambda d: _edit_csv(
                d / "sweep.csv", lambda rows: rows.pop())),
        ],
    }
    for name, corruptions in cases.items():
        load, out = _produce(name)
        _expect(_failed_fraction(load, out) == 0.0,
                "%s oracle passes the real output" % name)
        for label, edit in corruptions:
            bad = _corrupt_copy(out, label.replace(" ", "-"), edit)
            fraction = _failed_fraction(load, bad)
            _expect(fraction > 0.0, "%s oracle counts a corrupted %s "
                    "(failed_fraction %.3g)" % (name, label, fraction))


def _horizon_row_edit(column: int, factor: float):
    def edit(rows):
        row = next(r for r in rows[1:] if not r[-1])
        row[column] = "%.12e" % (factor * float(row[column]))
    return edit


def _no_horizon_row_edit():
    def edit(rows):
        row = next(r for r in rows[1:] if r[-1])
        row[2:-1] = ["1.0"] * (len(row) - 3)
        row[-1] = ""
    return edit


def check_absent_function() -> None:
    # A function inlined or moved by a later change: the tracer must carry on.
    import tracer
    from squid_horizon import svgplot
    original = svgplot.line_plot
    svgplot.line_plot = lambda *args, **kwargs: original(*args, **kwargs)
    try:
        found = tracer.Tracer()
    finally:
        svgplot.line_plot = original
    _expect(found.absent == ("svgplot.line_plot",),
            "the tracer reports a function it cannot find as absent")


def check_bare_directory() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate-front",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    _expect(done.returncode != 0 and "{" not in done.stdout,
            "run.py exits %d without a result when the source tree is absent"
            % done.returncode)


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        check_metric_names()
        check_oracles()
        check_absent_function()
        check_bare_directory()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.parent.rmdir()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
