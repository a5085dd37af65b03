"""The one CSV writer behind every column-shaped artifact.

numpy formats the ``%.12e`` and ``%d`` columns a block of rows at a time,
and the text is byte-identical to ``fmt % row``.  Each field becomes a row
of UTF-8 bytes padded with 0xFF, a byte UTF-8 never uses, and the padding
is dropped when the block is written.  A ``%.12e`` value is left to
Python's own ``%`` when it is not finite, lies outside [1e-290, 1e290)
(zeros excepted), or when its scaled mantissa is too close to a rounding
tie or to 10**13 for double arithmetic to decide.  Any other field is
formatted by Python value by value.  A file shorter than one block is
written row by row with ``fmt % row``: on a few rows numpy's per-call cost
outweighs its speed, and its formatting loops would add about 0.6 MiB to
the resident memory of a process that writes only small files.
"""

from __future__ import annotations

import numpy as np

_BLOCK_ROWS = 2048

# Correctly rounded powers of ten; _POW10[_POW10_BIAS + k] is 1e<k>.
_POW10_BIAS = 300
_POW10 = np.array([float("1e%d" % k) for k in range(-_POW10_BIAS, 309)])

_PAD = 0xFF
_E_WIDTH = len("-1.234567890123e-308")
_MINUS, _ZERO = ord("-"), ord("0")


def write_csv(path, header: str, fmt: str, *columns) -> None:
    """Write ``header``, then ``fmt % row`` for each row of the columns.

    ``fmt`` holds one field per column, joined by commas; the file is
    UTF-8.  Raises ``ValueError``, before the file is opened, if the field
    and column counts differ or the columns differ in length.
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
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode())
        if rows < _BLOCK_ROWS:
            fh.write("".join(fmt % row + "\n"
                             for row in zip(*columns)).encode())
            return
        formatters = [_formatter(f, c) for f, c in zip(fields, columns)]
        for start in range(0, rows, _BLOCK_ROWS):
            text = _block(formatters, start, min(start + _BLOCK_ROWS, rows))
            fh.write(text[text != _PAD])


def _block(formatters, start, stop) -> np.ndarray:
    """Rows start to stop as one padded (rows, width) uint8 array."""
    comma = np.full((stop - start, 1), ord(","), np.uint8)
    blocks = []
    for field in formatters:
        blocks += [field(start, stop), comma]
    blocks[-1] = np.full_like(comma, ord("\n"))
    return np.concatenate(blocks, axis=1)


def _formatter(field, column):
    """A function of (start, stop) giving the column's rows in that range
    as padded UTF-8, one (rows, width) uint8 row per value."""
    values = np.asarray(column)
    if field == "%.12e" and values.dtype.kind in "biuf":
        values = values.astype(np.float64, copy=False)
        return lambda start, stop: _exp12(values[start:stop])
    if field == "%d" and values.dtype.kind in "iu":
        return lambda start, stop: _integers(values[start:stop])
    return lambda start, stop: _python(field, column[start:stop])


def _python(field, values, width=None) -> np.ndarray:
    """``field % v`` for each value, padded to ``width`` or the longest."""
    text = [(field % v).encode() for v in values]
    width = width or max(map(len, text))
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
