"""The one CSV writer behind every column-shaped artifact, and the one
home of vectorised text.

numpy formats the ``%.12e``, ``%.2f`` and ``%d`` columns a block of rows at
a time, and the text is byte-identical to ``fmt % row``.  Each field
becomes a row of UTF-8 bytes padded with 0xFF, a byte UTF-8 never uses,
and the padding is dropped when the block is written.  A ``%.12e`` value
is left to Python's own ``%`` when it is not finite, lies outside
[1e-290, 1e290) (zeros excepted), or when its scaled mantissa is too close
to a rounding tie or to 10**13 for double arithmetic to decide.  A
``%.2f`` value is left to Python when it is negative (-0.0 included), not
below 1e6 or not finite, or when its value in hundredths is within 1e-6
of a rounding tie.  Any other field is formatted by Python value by value.
Text shorter than one block is formatted row by row with ``fmt % row``: on
a few rows numpy's per-call cost outweighs its speed, and its formatting
loops would add about 0.6 MiB to the resident memory of a process that
writes only small files.  A ``Cycle`` column, such as a record's time
repeated on each of its rows, is formatted once per distinct value.
"""

from __future__ import annotations

import numpy as np

_BLOCK_ROWS = 2048

# Correctly rounded powers of ten; _POW10[_POW10_BIAS + k] is 1e<k>.
_POW10_BIAS = 300
_POW10 = np.array([float("1e%d" % k) for k in range(-_POW10_BIAS, 309)])

_PAD = 0xFF
_E_WIDTH = len("-1.234567890123e-308")
_F_WIDTH = len("999999.99")
# A %.2f integer part's digit k from the left is a leading zero below these
# many hundredths; the units digit always stays.
_F_LEADING = 10 ** np.arange(7, 2, -1)
_MINUS, _ZERO = ord("-"), ord("0")


class Cycle:
    """A column of ``rows`` rows that runs through ``values``, each one
    held for ``hold`` consecutive rows, and starts over after the last:
    row k is ``values[k // hold % len(values)]``."""

    def __init__(self, values, rows: int, hold: int = 1):
        self.values = np.asarray(values)
        self.rows = rows
        self.hold = hold

    def __len__(self) -> int:
        return self.rows

    def __iter__(self):
        return iter(self.values[self.index(0, self.rows)])

    def index(self, start, stop) -> np.ndarray:
        """The index into values of rows start to stop."""
        return np.arange(start, stop) // self.hold % len(self.values)


def write_csv(path, header: str, fmt: str, *columns) -> None:
    """Write ``header``, then ``fmt % row`` for each row of the columns.

    ``fmt`` holds one field per column, joined by commas; the file is
    UTF-8.  Raises ``ValueError``, before the file is opened, if the field
    and column counts differ or the columns differ in length.
    """
    chunks = format_rows(fmt, *columns)
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode())
        fh.writelines(chunks)


def format_rows(fmt: str, *columns, end: str = "\n"):
    """``fmt % row + end`` for each row of the columns, as UTF-8 chunks.

    ``fmt`` holds one field per column, joined by commas, and ``end`` is
    one ASCII character.  Raises ``ValueError`` at once if the field and
    column counts differ or the columns differ in length.
    """
    fields = fmt.split(",")
    if len(fields) != len(columns):
        raise ValueError("fmt %r has %d fields for %d columns"
                         % (fmt, len(fields), len(columns)))
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise ValueError("columns differ in length: %s"
                         % sorted(len(c) for c in columns))
    rows = lengths.pop()
    if rows < _BLOCK_ROWS:
        return ["".join(fmt % row + end for row in zip(*columns)).encode()]
    formatters = [_formatter(f, c) for f, c in zip(fields, columns)]
    return (_block(formatters, start, min(start + _BLOCK_ROWS, rows), end)
            for start in range(0, rows, _BLOCK_ROWS))


def _block(formatters, start, stop, end) -> np.ndarray:
    """The UTF-8 text of rows start to stop."""
    comma = np.full((stop - start, 1), ord(","), np.uint8)
    blocks = []
    for field in formatters:
        blocks += [field(start, stop), comma]
    blocks[-1] = np.full_like(comma, ord(end))
    text = np.concatenate(blocks, axis=1)
    return text[text != _PAD]


def _formatter(field, column):
    """A function of (start, stop) giving the column's rows in that range
    as padded UTF-8, one (rows, width) uint8 row per value."""
    if isinstance(column, Cycle):
        text = _formatter(field, column.values)(0, len(column.values))
        return lambda start, stop: text[column.index(start, stop)]
    values = np.asarray(column)
    if field == "%.12e" and values.dtype.kind in "biuf":
        values = values.astype(np.float64, copy=False)
        return lambda start, stop: _exp12(values[start:stop])
    if field == "%.2f" and values.dtype.kind in "biuf":
        values = values.astype(np.float64, copy=False)
        return lambda start, stop: _fixed2(values[start:stop])
    if field == "%d" and values.dtype.kind in "iu":
        return lambda start, stop: _integers(values[start:stop])
    return lambda start, stop: _python(field, column[start:stop])


def _python(field, values, width=0) -> np.ndarray:
    """``field % v`` for each value, padded to ``width`` or the longest."""
    text = [(field % v).encode() for v in values]
    width = max([width, *map(len, text)])
    padded = b"".join(t.ljust(width, b"\xff") for t in text)
    return np.frombuffer(padded, np.uint8).reshape(len(text), width)


def _digits(v: np.ndarray, width: int) -> np.ndarray:
    """ASCII digits of the non-negative integers ``v``, most significant
    first, ``width`` per row with leading zeros."""
    out = np.empty((len(v), width), np.uint8)
    for j in range(width - 1, -1, -1):
        q = v // 10
        out[:, j] = v - 10 * q
        v = q
    out += _ZERO
    return out


def _integers(v: np.ndarray) -> np.ndarray:
    """``%d`` of an integer block."""
    mag = v.astype(np.uint64)
    negative = v < 0
    mag[negative] = -mag[negative]
    width = len(str(int(mag.max())))
    digits = _digits(mag, width)
    # Leading zeros are padding; the units digit always stays.
    digits[:, :-1][mag[:, None] < 10 ** np.arange(width - 1, 0, -1,
                                                  dtype=np.uint64)] = _PAD
    sign = np.where(negative, _MINUS, _PAD).astype(np.uint8)
    return np.concatenate([sign[:, None], digits], axis=1)


def _exp12(x: np.ndarray) -> np.ndarray:
    """``%.12e`` of a float64 block."""
    a = np.abs(x)
    zero = x == 0.0
    exact = (a >= 1e-290) & (a < 1e290)
    a = np.where(exact, a, 1.0)
    # log10 can be one off next to a power of ten; the scaled value tells.
    e = np.floor(np.log10(a)).astype(np.int64)
    s = a * _POW10[_POW10_BIAS + 12 - e]
    e += (s >= 1e13).astype(np.int64) - (s < 1e12)
    # Two roundings put s within 0.0023 of the exact |x| * 10**(12 - e), so
    # rint(s) is Python's mantissa unless s is within 0.01 of a tie.  A
    # mantissa of 10**13 would carry into the exponent.
    s = a * _POW10[_POW10_BIAS + 12 - e]
    mantissa = np.rint(s)
    near_tie = np.abs(s - np.floor(s) - 0.5) < 0.01
    fallback = ~(exact | zero) | near_tie | (mantissa >= 1e13)
    mantissa = np.where(zero, 0, mantissa).astype(np.int64)
    e[zero] = 0

    out = np.empty((len(x), _E_WIDTH), np.uint8)
    out[:, 0] = np.where(np.signbit(x), _MINUS, _PAD)
    digits = _digits(mantissa, 13)
    out[:, 1] = digits[:, 0]
    out[:, 2] = ord(".")
    out[:, 3:15] = digits[:, 1:]
    out[:, 15] = ord("e")
    out[:, 16] = np.where(e < 0, _MINUS, ord("+"))
    out[:, 17:] = _digits(np.abs(e), 3)
    out[out[:, 17] == _ZERO, 17] = _PAD
    if fallback.any():
        out[fallback] = _python("%.12e", x[fallback].tolist(), _E_WIDTH)
    return out


def _fixed2(x: np.ndarray) -> np.ndarray:
    """``%.2f`` of a float64 block."""
    fast = ~np.signbit(x) & (x < 1e6)
    # Below 1e6, x * 100 lies within 7.5e-9 of the exact number of
    # hundredths, so rint gives Python's digits unless it lies within 1e-6
    # of a tie.  Nine digits of hundredths make 1e6 or more.
    s = np.where(fast, x, 0.0) * 100.0
    hundredths = np.rint(s)
    fallback = (~fast | (np.abs(s - np.floor(s) - 0.5) < 1e-6)
                | (hundredths >= 1e8))
    hundredths = hundredths.astype(np.int64)

    out = np.empty((len(x), _F_WIDTH), np.uint8)
    digits = _digits(hundredths, 8)
    out[:, :6] = digits[:, :6]
    out[:, 6] = ord(".")
    out[:, 7:] = digits[:, 6:]
    out[:, :5][hundredths[:, None] < _F_LEADING] = _PAD
    if fallback.any():
        text = _python("%.2f", x[fallback].tolist(), _F_WIDTH)
        out = np.pad(out, ((0, 0), (0, text.shape[1] - _F_WIDTH)),
                     constant_values=_PAD)
        out[fallback] = text
    return out
