"""CSV output with a fixed dialect: comma separated, '.' decimal, 17
significant digits, header row, LF line endings.  The 17-digit format makes
float round-trips bit-stable, which golden files rely on."""

from __future__ import annotations

from pathlib import Path


def format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_rows(fh, header, rows) -> None:
    """Write a header row and the data rows to an open text file."""
    fh.write(",".join(str(h) for h in header) + "\n")
    for row in rows:
        fh.write(",".join(map(format_value, row)) + "\n")


def write_csv(path, header, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        write_rows(fh, header, rows)
