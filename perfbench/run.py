"""Benchmark of the `squid-horizon` command line, from the outside in.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # every workload, as a table

One run generates the workload's input file from the seed, times fresh
interpreters importing ``squid_horizon.cli`` (set-up), then starts one
workload process (worker.py) that repeats the workload's CLI call for S
seconds.  Every distinct output is checked against closed forms
(oracles.py).  With --trace 0 the run reports the end-to-end metrics; with
--trace 1 the per-layer metrics from a traced run (tracer.py).  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  The run reads and writes only inside the checkout, under
.bench_work/, which it removes before exiting.

BLAS is pinned to one thread in every child process; the sweep gets no
worker count, so the program's own default decides it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The simulate oracle measures packet speed with the package's own routine.
sys.path.insert(1, str(ROOT / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

END_TO_END = {
    "run_norm": ("cal", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}
SETUP_LAUNCHES = 7
# Every run must end within this many seconds.
RUN_LIMIT_S = 170.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup(env: dict, work: Path) -> list:
    """Seconds from starting an interpreter to `import squid_horizon.cli`
    done, one value per fresh interpreter.  CLOCK_MONOTONIC is shared by
    all processes, so the child's timestamp compares with ours."""
    code = "import squid_horizon.cli, time; print(repr(time.monotonic()))"
    values = []
    for _ in range(SETUP_LAUNCHES):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=work,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        values.append(float(done.stdout.split()[-1]) - start)
    return values


def _tail(samples: list):
    # Highest percentile with at least ten samples beyond it.
    n = len(samples)
    if n < 11:
        return None, None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def _context(samples: list, calibration: float) -> dict:
    import numpy
    import scipy
    lines = sum(len(p.read_text().splitlines())
                for p in (ROOT / "src").rglob("*.py"))
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    pct, value = _tail(samples)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": "1 (%s)" % ", ".join(sorted(THREAD_ENV)),
        "commit": commit,
        "src_lines": lines,
        "run_s": "median %.6f s over %d samples" % (statistics.median(samples),
                                                     len(samples)),
        "run_s_tail": ("p%.0f = %.6f s" % (pct, value)) if pct else
                      "n/a (fewer than 11 samples)",
        "calibration": "median %.6f s" % calibration,
    }


def check_outputs(load: workloads.Workload, outputs: list) -> tuple:
    """Run the workload's oracle on each distinct output directory and count
    its operations once per repetition that produced it.  Returns
    (attempted, failed, problems)."""
    attempted = failed = 0
    problems = []
    for output in outputs:
        verdicts = oracles.check(load.name, Path(output["dir"]), load.document)
        bad = [v for v in verdicts if v is not None]
        attempted += load.ops_per_call * output["count"]
        failed += len(bad) * output["count"]
        if output["code"] != 0:
            problems.append("exit code %s%s" % (
                output["code"],
                ": " + output["error"] if output["error"] else ""))
        problems.extend(bad[:3])
    return attempted, failed, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: workloads.Sizes = workloads.FULL) -> tuple:
    """One benchmark run; returns the result object and a context block."""
    began = time.monotonic()
    work = ROOT / ".bench_work" / ("%s-%d-%d" % (name, seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    try:
        load = workloads.generate(name, seed, work / "input", sizes)
        env = _child_env()
        setup = measure_setup(env, work)
        spec = {"root": str(ROOT), "argv": list(load.argv),
                "workdir": str(work), "seconds": seconds, "trace": trace}
        (work / "spec.json").write_text(json.dumps(spec))
        budget = RUN_LIMIT_S - (time.monotonic() - began)
        with open(work / "worker.err", "w") as err:
            done = subprocess.run(
                [sys.executable, str(HERE / "worker.py"),
                 str(work / "spec.json")],
                env=env, cwd=work, stdout=subprocess.DEVNULL, stderr=err,
                timeout=budget)
        if done.returncode != 0:
            raise RuntimeError("workload process exited with %d:\n%s"
                               % (done.returncode,
                                  (work / "worker.err").read_text()[-2000:]))
        result = json.loads((work / "result.json").read_text())

        attempted, failed, problems = check_outputs(load, result["outputs"])
        untraced = [r for r in result["reps"] if not r[0]]
        calibration = statistics.median(result["calibration_s"])
        run_norm = statistics.median(r[2] for r in untraced)
        if trace:
            layers = result["layers"]
            metrics = {key: statistics.median(m[key] for m in layers)
                       for key in PER_LAYER}
            # Compared in calibration units, so a change of machine speed
            # between repetitions does not read as tracing cost.
            traced = statistics.median(r[2] for r in result["reps"] if r[0])
            metrics["trace.overhead_s"] = (traced - run_norm) * calibration
            units = PER_LAYER
        else:
            metrics = {"run_norm": run_norm,
                       "setup_s": statistics.median(setup),
                       "peak_rss_mb": result["peak_rss_kib"] / 1024.0}
            units = END_TO_END
        context = _context([r[1] for r in untraced], calibration)
        context["absent"] = result["absent"]
        context["problems"] = problems
        return {"correct": failed == 0, "attempted": attempted,
                "failed": failed,
                "metrics": {key: {"value": metrics[key], "unit": units[key][0]}
                            for key in units}}, context
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def _print_report(name: str, result: dict, context: dict) -> None:
    print("workload %s" % name)
    for key, value in context.items():
        if value not in ([], None):
            print("  %-14s %s" % (key, value))
    for key, metric in result["metrics"].items():
        print("  %-44s %.6g %s" % (key, metric["value"], metric["unit"]))
    print("  %-44s %.6g (%d of %d operations)" % (
        "failed_fraction", result["failed"] / result["attempted"],
        result["failed"], result["attempted"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "squid_horizon" / "cli.py").is_file():
        print("no squid_horizon source tree under %s" % ROOT, file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result, context = run_workload(name, args.seed, args.seconds,
                                       bool(args.trace))
        _print_report(name, result, context)
    if args.workload != "all":
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
