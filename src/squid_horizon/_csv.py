"""The one CSV writer behind every column-shaped artifact."""

from __future__ import annotations


def write_csv(path, header: str, fmt: str, *columns) -> None:
    """Write ``header``, then ``fmt % row`` for each row of the columns."""
    line = fmt + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(line % row for row in zip(*columns))
