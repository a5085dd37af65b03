"""Workload process: repeats one `squid-horizon` CLI call for a fixed time.

Run by run.py as ``python worker.py SPEC.json``.  The spec names the
source tree, the CLI arguments, a scratch directory, the measuring time
and whether to trace.  Each repetition calls ``squid_horizon.cli.main``
in this process and writes into its own output directory; outputs whose
bytes repeat an earlier repetition's are deleted after hashing, so run.py
checks each distinct output once and counts it for every repetition that
produced it.  With tracing on, repetitions alternate untraced and traced,
so the difference of their medians is the tracing overhead.

The result, written to result.json in the scratch directory, carries the
per-repetition wall times, the process's peak resident memory, and the
traced per-layer metrics.  Checking outputs is left to run.py so that it
does not count towards this process's memory.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# Calibration loop sizes: about 0.1 s in total on a 2-vCPU Xeon VM.
CAL_LOOP = 400000
CAL_ARRAY = 400


def _digest(directory: Path) -> str:
    sha = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        sha.update(path.name.encode() + b"\0")
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                sha.update(chunk)
    return sha.hexdigest()


def calibrate() -> float:
    """Wall time of a fixed mix of interpreter and small-array numpy work.

    On a shared host a virtual CPU can switch between a fast state and one
    about 1.5x slower, for seconds to minutes at a time, from contention
    this process cannot see.  Timing this loop right before and after each
    repetition, on the same CPU, gives the machine's speed at that moment."""
    import numpy as np
    start = time.perf_counter()
    acc = 0.0
    for i in range(CAL_LOOP):
        acc += (i * 0.5) % 7.0
    x = np.linspace(-30.0, 30.0, 4800)
    for _ in range(CAL_ARRAY):
        np.diff(np.cos(np.tanh(x)), prepend=0.0)
    return time.perf_counter() - start


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    from squid_horizon import cli

    if Path(cli.__file__).resolve().parents[2] != root:
        print("imported %s from outside %s" % (cli.__file__, root),
              file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        from tracer import Tracer, layer_metrics
        tracer = Tracer()

    work = Path(spec["workdir"])
    argv = list(spec["argv"])
    # One [traced, wall seconds, wall / calibration] triple per repetition.
    reps, layers, outputs = [], [], {}
    calibration = [calibrate()]
    deadline = time.perf_counter() + spec["seconds"]
    rep = 0
    with open(os.devnull, "w") as sink:
        while True:
            trace_this = tracer is not None and rep % 2 == 1
            out = work / ("rep-%d" % rep)
            if trace_this:
                tracer.install()
            error = None
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink):
                    code = cli.main(argv + ["--out", str(out)])
            except Exception:  # a crash is a failed repetition, not the end
                code, error = -1, traceback.format_exc(limit=5)
            elapsed = time.perf_counter() - start
            if trace_this:
                tracer.uninstall()
            calibration.append(calibrate())
            reps.append([trace_this, elapsed,
                         elapsed / statistics.mean(calibration[-2:])])
            if trace_this:
                layers.append(layer_metrics(tracer.take()))

            key = _digest(out) if out.is_dir() else "missing"
            key = "%s:%s" % (code, key)
            if key in outputs:
                outputs[key]["count"] += 1
                shutil.rmtree(out, ignore_errors=True)
            else:
                outputs[key] = {"dir": str(out), "code": code, "count": 1,
                                "error": error}
            rep += 1
            enough = rep >= (2 if tracer is not None else 1)
            if enough and time.perf_counter() >= deadline:
                break

    result = {
        "reps": reps,
        "calibration_s": calibration,
        "layers": layers,
        "absent": list(tracer.absent) if tracer is not None else [],
        "outputs": list(outputs.values()),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
