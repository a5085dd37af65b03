"""Every CLI artifact and printed summary, against recorded digests.

Each subcommand runs in process on the shipped defaults with
``--emit csv,svg,bin``, and ``sweep`` runs on ``data/artifact_sweep.json``.
The sha256 of every file it writes, and of its stdout with the output
directory replaced by ``<out>``, must equal the one recorded in
``data/artifact_digests.json``.

That file also records where the digests were taken: Python major.minor,
the numpy version and numpy's enabled CPU features.  numpy picks its
``tanh``, ``sin`` and ``cos`` kernels by CPU, so elsewhere the last bits
may move.  On another fingerprint, every artifact must keep its text with
each number replaced by ``#``, and each number of a CSV, JSON or ``.sqhz``
file must stay within 1e-11 of its column's largest magnitude: values at
the roundoff floor, such as the trajectory far from its packet, move by
their whole size under another kernel.  The references for that check are
in ``data/artifact_values.npz.xz``, each value rounded to 2**-40 of its
column's largest magnitude.  SVG and stdout numbers are rounded for
display and are compared only on a matching fingerprint.

A change that means to move an artifact records new digests with
``PYTHONPATH=src python tests/test_artifacts.py`` and says why.
"""

import contextlib
import hashlib
import io
import json
import lzma
import math
import re
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from squid_horizon.cli import main

DATA = Path(__file__).resolve().parent / "data"
DIGESTS = DATA / "artifact_digests.json"
VALUES = DATA / "artifact_values.npz.xz"
RUNS = {
    "validate": ["validate"],
    "profile": ["profile"],
    "simulate": ["simulate"],
    "dispersion": ["dispersion"],
    "budget": ["budget"],
    "fig2": ["reproduce", "fig2"],
    "fig3": ["reproduce", "fig3"],
    "trapping": ["reproduce", "trapping"],
    "sweep": ["sweep", "--config", str(DATA / "artifact_sweep.json")],
}
TOLERANCE = 1e-11  # of a column's largest magnitude
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
COMPARED = (".csv", ".json", ".sqhz")  # numbers checked off-fingerprint


def fingerprint() -> dict:
    """What the artifacts' last bits depend on."""
    from numpy._core._multiarray_umath import __cpu_features__
    return {"python": "%d.%d" % sys.version_info[:2],
            "numpy": np.__version__,
            "cpu_features": sorted(k for k, on in __cpu_features__.items()
                                   if on)}


def produce(out: Path) -> dict:
    """Run every command into its own directory under out; returns the
    bytes of each artifact and stdout by name, such as "simulate/stdout"."""
    blobs = {}
    for name, argv in RUNS.items():
        target = out / name
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = main(argv + ["--out", str(target),
                                "--emit", "csv,svg,bin"])
        assert code == 0, name
        blobs[name + "/stdout"] = printed.getvalue().replace(
            str(target), "<out>").encode()
        for path in sorted(target.iterdir()):
            blobs["%s/%s" % (name, path.name)] = path.read_bytes()
    return blobs


def split(name: str, blob: bytes):
    """The artifact with every number replaced by #, and its numbers as one
    array per column: the field of a CSV row, the block of a .sqhz file,
    the whole of any other file."""
    if name.endswith(".sqhz"):
        n_rec = struct.unpack("<5sII", blob[:13])[2]
        payload = np.frombuffer(blob[13:], dtype="<f8")
        return blob[:13], [payload[:n_rec]] + np.split(payload[n_rec:], 3)
    if not name.endswith(".csv"):
        numbers = [float(x) for x in NUMBER.findall(blob)]
        return NUMBER.sub(b"#", blob), [np.array(numbers)]
    columns = {}
    for line in blob.splitlines():
        for j, field in enumerate(line.split(b",")):
            columns.setdefault(j, []).extend(
                float(x) for x in NUMBER.findall(field))
    return (NUMBER.sub(b"#", blob),
            [np.array(columns[j]) for j in sorted(columns)])


def rounded(column: np.ndarray) -> np.ndarray:
    """column rounded to 2**-40 of its largest magnitude, as stored."""
    peak = float(np.max(np.abs(column), initial=0.0))
    if peak == 0.0:
        return column
    exponent = math.frexp(peak)[1] - 40
    return np.ldexp(np.rint(np.ldexp(column, -exponent)), exponent)


def record(blobs: dict) -> tuple:
    """The digest document and the reference columns for blobs."""
    digests, skeletons, values = {}, {}, {}
    for name, blob in sorted(blobs.items()):
        digests[name] = hashlib.sha256(blob).hexdigest()
        skeleton, columns = split(name, blob)
        skeletons[name] = hashlib.sha256(skeleton).hexdigest()
        if name.endswith(COMPARED):
            for j, column in enumerate(columns):
                values["%s|%d" % (name, j)] = rounded(column)
    document = {"fingerprint": fingerprint(), "sha256": digests,
                "sha256_numbers_masked": skeletons}
    return document, values


def moved(name: str, blob: bytes, document: dict, values) -> list:
    """How this artifact differs from the record beyond the tolerance, one
    line per difference; empty when it agrees."""
    skeleton, columns = split(name, blob)
    if hashlib.sha256(skeleton).hexdigest() != \
            document["sha256_numbers_masked"][name]:
        return ["%s: text or layout changed" % name]
    if not name.endswith(COMPARED):
        return []
    lines = []
    for j, column in enumerate(columns):
        reference = values["%s|%d" % (name, j)]
        peak = float(np.max(np.abs(reference), initial=0.0))
        far = np.abs(column - reference) > TOLERANCE * peak
        if far.any():
            lines.append("%s column %d: %d of %d values moved by more than "
                         "%g of %.6e" % (name, j, far.sum(), far.size,
                                         TOLERANCE, peak))
    return lines


def load_values() -> dict:
    with np.load(io.BytesIO(lzma.decompress(VALUES.read_bytes()))) as npz:
        return {key: npz[key] for key in npz.files}


@pytest.fixture(scope="module")
def blobs(tmp_path_factory):
    return produce(tmp_path_factory.mktemp("artifacts"))


def test_every_artifact_matches_the_record(blobs):
    document = json.loads(DIGESTS.read_text())
    assert sorted(blobs) == sorted(document["sha256"])
    changed = sorted(name for name, blob in blobs.items()
                     if hashlib.sha256(blob).hexdigest()
                     != document["sha256"][name])
    same_platform = document["fingerprint"] == fingerprint()
    if same_platform and not changed:
        return
    values = load_values()
    report = [line for name in (changed if same_platform else sorted(blobs))
              for line in moved(name, blobs[name], document, values)]
    if same_platform:
        report = ["digest changed: %s" % name for name in changed] + report
    assert not report, "\n".join(report)


class TestTolerantComparison:
    """The check made on another platform, on small artifacts."""

    CSV = (b"packet,t,xi\n"
           b"forward,1.000000000000e-12,-3.711427645202e-07\n"
           b"backward,2.000000000000e-12,1.250000000000e-06\n")

    @pytest.fixture
    def recorded(self):
        return record({"x/a.csv": self.CSV, "x/stdout": b"T = 1.5 K\n"})

    def test_identical_bytes_agree(self, recorded):
        assert moved("x/a.csv", self.CSV, *recorded) == []

    def test_last_digit_within_tolerance(self, recorded):
        blob = self.CSV.replace(b"5202e-07", b"5204e-07")
        assert moved("x/a.csv", blob, *recorded) == []

    def test_counts_values_that_moved(self, recorded):
        blob = self.CSV.replace(b"5202e-07", b"6202e-07").replace(
            b"2.000000000000e-12", b"2.000000100000e-12")
        assert moved("x/a.csv", blob, *recorded) == [
            "x/a.csv column 1: 1 of 2 values moved by more than 1e-11 of "
            "2.000000e-12",
            "x/a.csv column 2: 1 of 2 values moved by more than 1e-11 of "
            "1.250000e-06"]

    def test_text_must_match(self, recorded):
        blob = self.CSV.replace(b"backward", b"sideways")
        assert moved("x/a.csv", blob, *recorded) == [
            "x/a.csv: text or layout changed"]

    def test_display_numbers_are_not_compared(self, recorded):
        assert moved("x/stdout", b"T = 1.6 K\n", *recorded) == []
        assert moved("x/stdout", b"T = 1.6 mK\n", *recorded) == [
            "x/stdout: text or layout changed"]

    def test_rounding_keeps_40_bits_of_the_peak(self):
        column = np.array([3.0, -1.0 / 3.0, 1e-20, 0.0])
        kept = rounded(column)
        assert np.all(np.abs(kept - column) <= 2.0 ** -41 * 4.0)
        assert kept[2] == 0.0 and kept[0] == 3.0


def write_record() -> None:
    """Record the digests and reference values of this tree."""
    with tempfile.TemporaryDirectory() as tmp:
        document, values = record(produce(Path(tmp)))
    DATA.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    packed = io.BytesIO()
    np.savez(packed, **values)
    VALUES.write_bytes(lzma.compress(packed.getvalue(),
                                     preset=9 | lzma.PRESET_EXTREME))


if __name__ == "__main__":
    write_record()
