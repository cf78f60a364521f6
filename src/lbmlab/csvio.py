"""CSV output with a fixed dialect: comma separated, '.' decimal, 17
significant digits, header row, LF line endings.  The 17-digit format makes
float round-trips bit-stable, which golden files rely on."""

from __future__ import annotations

from pathlib import Path

# The one number format: ``format_value`` and ``row_format`` both use it.
FLOAT_FORMAT = "%.17g"


def format_value(value) -> str:
    if isinstance(value, float):
        return FLOAT_FORMAT % value
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def row_format(column_types) -> str:
    """%-format of one CSV line whose columns are ints or floats, in the
    given order; ``row_format(types) % tuple(row)`` equals the line
    ``write_rows`` makes through ``format_value``."""
    return ",".join({int: "%d", float: FLOAT_FORMAT}[t] for t in column_types) + "\n"


def write_rows(fh, header, rows, fmt=None) -> None:
    """Write a header row and the data rows to an open text file.

    With ``fmt`` from ``row_format`` each row is formatted in one step;
    without it, value by value through ``format_value``.
    """
    fh.write(",".join(str(h) for h in header) + "\n")
    if fmt is None:
        for row in rows:
            fh.write(",".join(map(format_value, row)) + "\n")
    else:
        for row in rows:
            fh.write(fmt % tuple(row))


def write_csv(path, header, rows, fmt=None) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        write_rows(fh, header, rows, fmt)
