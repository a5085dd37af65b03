"""Run pytest with the given arguments under a stdlib line trace and print
each executable line of src/squid_horizon that no test reached, with the
function it belongs to.  Exits with pytest's status.

    PYTHONPATH=src python tests/unreached.py --continue-on-collection-errors
    PYTHONPATH=src python tests/unreached.py tests/test_acceptance.py \\
        tests/test_artifacts.py tests/test_cli.py

The name lies outside pytest's test_*.py pattern, so the suite does not
collect it.
"""

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "squid_horizon"


def traced(args) -> tuple:
    """pytest's exit status on args, and the (file, line) pairs of the
    package that ran."""
    prefix = str(PACKAGE)
    hit = set()

    def local(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def enter(frame, event, arg):
        # Trace only frames of the package; the rest run untraced.
        if frame.f_code.co_filename.startswith(prefix):
            hit.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    threading.settrace(enter)
    sys.settrace(enter)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, hit


def executable(co):
    """(line, function) pairs of a code object and those nested in it; a
    function's first line is its def, run by the enclosing code."""
    for _, _, line in co.co_lines():
        if line is not None and (co.co_name == "<module>"
                                 or line != co.co_firstlineno):
            yield line, co.co_qualname
    for const in co.co_consts:
        if hasattr(const, "co_lines"):
            yield from executable(const)


def main(args) -> int:
    code, hit = traced(args)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        lines = dict(executable(compile(source, str(path), "exec")))
        got = {n for f, n in hit if f == str(path)}
        for n in sorted(set(lines) - got):
            missed += 1
            print("%s:%d: %s: %s" % (path.relative_to(ROOT), n, lines[n],
                                     text[n - 1].strip()))
    print("%d executable lines not reached" % missed)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
