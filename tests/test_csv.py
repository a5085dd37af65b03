"""The CSV writer against a plain reference writer, byte for byte.

``write_csv`` formats ``%.12e``, ``%.2f`` and ``%d`` columns with numpy
once a file has a block of rows; the reference below is the per-row ``%``
it must reproduce exactly.  The property tests shrink the block to a few
rows, so that numpy formats their short columns across several blocks.
"""

import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from squid_horizon import _csv
from squid_horizon._csv import write_csv


def reference_csv(header, fmt, *columns):
    """The plain writer: ``header``, then ``fmt % row`` for every row."""
    return (header + "\n"
            + "".join(fmt % row + "\n" for row in zip(*columns))).encode()


def written(header, fmt, *columns, block=_csv._BLOCK_ROWS):
    """The bytes ``write_csv`` puts in a file, in blocks of ``block`` rows."""
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(_csv, "_BLOCK_ROWS", block):
        path = Path(tmp) / "out.csv"
        write_csv(path, header, fmt, *columns)
        return path.read_bytes()


blocks = st.integers(1, 8)


@st.composite
def decimal_edges(draw):
    """Doubles where 13-digit rounding is hardest: decimal ties
    d.dddddddddddd5e<k>, the 9.9999999999995e<k> rollovers and the powers
    of ten, each exactly or one ulp either side, with either sign."""
    k = draw(st.integers(-325, 308))
    kind = draw(st.sampled_from(["tie", "rollover", "power"]))
    if kind == "tie":
        text = "%d5e%d" % (draw(st.integers(10**12, 10**13 - 1)), k - 13)
    elif kind == "rollover":
        text = "99999999999995e%d" % (k - 13)
    else:
        text = "1e%d" % k
    value = float(text)
    step = draw(st.sampled_from([-np.inf, 0.0, np.inf]))
    if step:
        value = float(np.nextafter(value, step))
    return -value if draw(st.booleans()) else value


doubles = st.one_of(st.floats(allow_nan=True, allow_infinity=True,
                              allow_subnormal=True), decimal_edges())


@st.composite
def hundredths_edges(draw):
    """Doubles where rounding to hundredths is hardest: decimal ties
    n.nn5 below 1e6 (2.675 is stored just below its tie), binary ties
    such as 0.125, and the last values before seven integer digits, each
    exactly or one ulp either side, with either sign."""
    kind = draw(st.sampled_from(["decimal", "binary", "rollover"]))
    if kind == "decimal":
        value = float("%d5e-3" % draw(st.integers(0, 10**9)))
    elif kind == "binary":
        value = (draw(st.integers(0, 10**6))
                 + draw(st.sampled_from([0.125, 0.375, 0.625, 0.875])))
    else:
        value = draw(st.sampled_from([999.995, 999999.99, 999999.995,
                                      1e6]))
    step = draw(st.sampled_from([-np.inf, 0.0, np.inf]))
    if step:
        value = float(np.nextafter(value, step))
    return -value if draw(st.booleans()) else value


bit_patterns = st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
pixels = st.one_of(bit_patterns, st.floats(0.0, 1e6), hundredths_edges())
texts = st.text(st.characters(exclude_categories=("Cs",)), max_size=6)


class TestMatchesPercentFormatting:
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=300)
    @given(values=st.lists(doubles, max_size=40), block=blocks)
    @example(values=[0.0, -0.0, float("nan"), -float("nan"), float("inf"),
                     -float("inf"), 5e-324, -2.2250738585072014e-308,
                     1.7976931348623157e308, 1e-290, 9.999999999999999e-291,
                     1e290, 9.999999999999999e289], block=4)
    @example(values=[1.0000000000005, 1.0000000000015, 2.5e-7,
                     9.99999999999995, 99999999999999.5, 0.1, 1e22, 1e23],
             block=3)
    def test_doubles(self, values, block):
        column = np.array(values, dtype=np.float64)
        assert written("x", "%.12e", column, block=block) == \
            reference_csv("x", "%.12e", column)

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=300)
    @given(values=st.lists(pixels, max_size=40), block=blocks)
    @example(values=[0.0, -0.0, 0.125, 0.375, 2.675, 2.665, 0.005, 0.015,
                     1.005, 999.995, 999999.99, 999999.995,
                     999999.9999999999, 1e6, 5e-324, 1e300, -1e300,
                     float("nan"), -float("nan"), float("inf"),
                     -float("inf")], block=4)
    def test_fixed_two_decimals(self, values, block):
        column = np.array(values, dtype=np.float64)
        assert written("x", "%.2f", column, block=block) == \
            reference_csv("x", "%.2f", column)

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=200)
    @given(rows=st.lists(st.tuples(texts, doubles,
                                   st.integers(-2**63, 2**63 - 1)),
                         max_size=30), block=blocks)
    @example(rows=[("a", 0.0, 0), ("b", -1.5, -1), ("", 1e300, -10),
                   ("c,d", 3.0, 2**63 - 1), ("é\0ÿ", -0.0, -2**63)],
             block=2)
    def test_text_double_and_integer_columns(self, rows, block):
        names = [r[0] for r in rows]
        values = np.array([r[1] for r in rows], dtype=np.float64)
        counts = np.array([r[2] for r in rows], dtype=np.int64)
        fmt = "%s,%.12e,%d"
        assert written("s,x,n", fmt, names, values, counts,
                       block=block) == \
            reference_csv("s,x,n", fmt, names, values, counts)

    @pytest.mark.parametrize("rows", [0, 1, _csv._BLOCK_ROWS - 1,
                                      _csv._BLOCK_ROWS, _csv._BLOCK_ROWS + 1,
                                      2 * _csv._BLOCK_ROWS + 3])
    def test_block_edges(self, rows):
        rng = np.random.default_rng(rows)
        a = rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)
        a[::7] = 0.0
        a[1::11] = -0.0
        a[2::13] = np.nan
        nodes = rng.integers(-10**6, 10**6, rows)
        fmt = "%.12e,%d,%.12e"
        columns = (a, nodes, np.cumsum(np.ones(rows)) * 1e-12)
        assert written("a,n,t", fmt, *columns) == \
            reference_csv("a,n,t", fmt, *columns)

    def test_other_inputs_and_literals(self):
        columns = ([0.25] * 3,                            # a Python list
                   np.array([1, -2, 3], dtype=np.int8),   # small integers
                   np.array([0, 2**63, 2**64 - 1], dtype=np.uint64),
                   np.array([0.1, 1e-40, -3.0], dtype=np.float32),
                   [True, False, True],                   # bool as %d
                   [7, -8, 2**62 + 1],                    # ints as %.12e
                   np.array([1.5, 2.5, -0.5]))            # %.3f
        fmt = "<%.12e|,%d,%d,%.12e,x=%d%%,%.12e,%.3f>"
        assert written("h", fmt, *columns, block=2) == \
            reference_csv("h", fmt, *columns)


class TestCycle:
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=100)
    @given(times=st.lists(doubles, min_size=1, max_size=6),
           nodes=st.integers(1, 9), block=blocks)
    def test_matches_repeat_and_tile(self, times, nodes, block):
        # A trajectory's layout: each time held on its record's rows, and
        # the node index starting over on every record.
        t = np.array(times, dtype=np.float64)
        rows = len(t) * nodes
        cycles = (_csv.Cycle(t, rows, hold=nodes),
                  _csv.Cycle(np.arange(nodes), rows))
        assert written("t,n", "%.12e,%d", *cycles, block=block) == \
            reference_csv("t,n", "%.12e,%d", np.repeat(t, nodes),
                          np.tile(np.arange(nodes), len(t)))


class TestRejects:
    @pytest.mark.parametrize("fmt", ["%.12e", "%.12e,%d,%d", "%.12e%d"])
    def test_field_count_differs_from_columns(self, tmp_path, fmt):
        path = tmp_path / "f.csv"
        with pytest.raises(ValueError, match="fields for 2 columns"):
            write_csv(path, "a,b", fmt, [1.0], [2])
        assert not path.exists()

    def test_short_column(self, tmp_path):
        path = tmp_path / "s.csv"
        with pytest.raises(ValueError, match="differ in length"):
            write_csv(path, "a,b", "%.12e,%.12e", [1.0, 2.0], [3.0])
        assert not path.exists()
