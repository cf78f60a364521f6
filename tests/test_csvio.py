import math

from lbmlab.csvio import FLOAT_FORMAT, format_value, row_format

VALUES = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1, 1 / 3)


def test_float_format_prints_17_significant_digits():
    # what format(value, ".17g") prints, which round-trips every float
    for value in VALUES:
        assert FLOAT_FORMAT % value == format(value, ".17g")
        assert float(FLOAT_FORMAT % value) == value or math.isnan(value)


def test_row_format_matches_value_by_value_formatting():
    row = (7, -3, *VALUES)
    fmt = row_format([int, int] + [float] * len(VALUES))
    assert fmt % row == ",".join(map(format_value, row)) + "\n"
