"""CSV output with a fixed dialect: comma separated, '.' decimal, 17
significant digits, header row, LF line endings.  The 17-digit format makes
float round-trips bit-stable, which golden files rely on.

Rows of mixed values go through ``format_value`` one value at a time.  Tables
of floats (checkpoints, moment fields) go through ``format_table``, which
prints a whole block of values with numpy and yields the very bytes of
``FLOAT_FORMAT % v`` for each value v.  The argument that it is exact:

* Let a = |v| be finite and nonzero, and E = floor(log10 a), so that the
  17 digits of ``%.17g`` are D = round_half_even(a * 10**k) with k = 16 - E,
  and 10**16 <= a * 10**k < 10**17.  For 0 <= k <= 22 the double 10**k is
  exact (5**22 < 2**53), and Dekker's two-product (Numer. Math. 18 (1971)
  224-242) splits the product into doubles p + err = a * 10**k with no
  rounding: p = fl(a * 10**k) and err is the exact remainder, as no partial
  product over- or underflows in that range.
* ``log10`` may put E one off near a power of ten.  E is corrected with the
  exact product: a * 10**k < 10**16 exactly when p < 10**16, or p == 10**16
  and err < 0 (10**16 and 10**17 are doubles, and rounding is monotone).
* Then p >= 10**16 > 2**53, so p is an even integer, and
  round_half_even(p + err) = p + rint(err): ``rint`` rounds ties to even,
  and p + n is even exactly when n is.  |err| <= ulp(p) / 2 <= 8, so int64
  holds the sum exactly.  No D rounds up to 10**17: the largest double below
  10**(E + 1) lies more than half a unit of D's last digit below it, for
  every E of the exact path (a test checks each one), so nothing carries.
* The digits of D, with trailing zeros stripped, are laid out as ``%g``
  does: positional when -4 <= E < 17, else d.ddde+XX.  A template per
  exponent, digit count, sign and separator gives the bytes of a cell.

Values outside 10**-6 <= a < 10**17 (k outside 0..22), non-finite ones and
subnormals go through ``FLOAT_FORMAT % v`` alone; +-0 print as "0" and "-0"
from their own template.  ``tests/test_csvio.py`` compares the two writers
byte for byte.
"""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np

# The one number format: ``format_value`` and ``format_table`` both print it.
FLOAT_FORMAT = "%.17g"

# Values per block of ``write_table``: each costs about 300 bytes of
# temporaries, so a block stays under 2 MB whatever the table's size.
BLOCK_VALUES = 4096


def format_value(value) -> str:
    if isinstance(value, float):
        return FLOAT_FORMAT % value
    return str(value)


def write_rows(fh, header, rows) -> None:
    """Write a header row and the data rows, value by value through
    ``format_value``, to an open text file."""
    fh.write(",".join(str(h) for h in header) + "\n")
    for row in rows:
        fh.write(",".join(map(format_value, row)) + "\n")


def write_table(fh, header, table) -> None:
    """Write a header row and the rows of a 2-D float array, the same bytes
    as ``write_rows`` makes of the same floats, in blocks of rows that keep
    the temporaries small."""
    table = np.asarray(table, dtype=float)
    fh.write(",".join(str(h) for h in header) + "\n")
    rows = max(1, BLOCK_VALUES // max(1, table.shape[1]))
    for start in range(0, table.shape[0], rows):
        fh.write(format_table(table[start:start + rows]))


def write_csv(path, header, rows) -> None:
    """Write a CSV file: ``rows`` is an iterable of rows, or a 2-D float
    array that goes through ``write_table``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        if isinstance(rows, np.ndarray):
            write_table(fh, header, rows)
        else:
            write_rows(fh, header, rows)


_DIGITS = 17
_MAX_K = 22                          # largest k with 10**k an exact double
_E_MIN, _E_MAX = 16 - _MAX_K, 16     # exponents of the exact path
_POW10 = 10.0 ** np.arange(_MAX_K + 1)
_SPLIT = 134217729.0                 # 2**27 + 1, Veltkamp's splitter


def _two_product(a, b):
    """p, err with p + err == a * b exactly (Dekker), for doubles whose
    partial products neither overflow nor underflow."""
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    return p, al * bl - (((p - ah * bh) - al * bh) - ah * bl)


def _out_of_range(p, err):
    """Whether the exact p + err lies outside [10**16, 10**17)."""
    wrong = (p <= 1e16) | (p >= 1e17)
    if wrong.any():                          # decide the ties with err
        wrong &= ((p < 1e16) | ((p == 1e16) & (err < 0))
                  | (p > 1e17) | ((p == 1e17) & (err >= 0)))
    return wrong


def _decimal(a):
    """(D, E, certified): the 17 digits D and the exponent E of
    ``%.17g`` of each a >= 0, where certified; placeholders elsewhere."""
    certified = (a >= np.finfo(float).tiny) & (a < np.inf)   # NaN fails both
    if not certified.all():
        a = np.where(certified, a, 1.0)
    exponent = np.floor(np.log10(a)).astype(np.int64)
    for correction in range(2):
        in_range = (exponent >= _E_MIN) & (exponent <= _E_MAX)
        if not in_range.all():
            certified &= in_range
            exponent[~in_range] = 0
            a = np.where(in_range, a, 1.0)
        p, err = _two_product(a, _POW10[16 - exponent])
        wrong = _out_of_range(p, err)
        if not wrong.any():
            break
        if correction:                       # log10 more than one off: print alone
            certified &= ~wrong
        else:                                # log10 one off: step E towards the truth
            exponent += np.where(p < 1e16, -1, 1) * wrong
    return p.astype(np.int64) + np.rint(err).astype(np.int64), exponent, certified


# A cell holds every byte a value may print, in print order, led by the
# separator that precedes it (',', or '\n' that ends the row before).  Its
# template zeroes the bytes the value does not print, and the zero bytes are
# deleted.  The 17 digits of D are there twice, so that "12.5" is kept as
# "12" of A, the point, and "5" of B; "000" before A are the zeros of 0.000d.
#   separator | "-" | "0." | "000" A: d0..d16 | "." | B: d1..d16 | "e+XX"
# "000" A and B are uint32 words of four digits each, written as such.
_SIGN, _ZEROS, _A, _POINT, _B, _EXP, _CELL = 1, 4, 7, 24, 28, 44, 48
_ALONE = len(FLOAT_FORMAT % -2.2250738585072014e-308)     # the longest output, 24
_ZERO_CLASS = _E_MAX - _E_MIN + 1    # template class of +-0; the others are E - _E_MIN


def _kept_slots(exponent, nd):
    """Slots of the cell that ``%.17g`` prints of a positive value with
    exponent E and nd significant digits, or of 0 when E is None."""
    if exponent is None:
        return [_A]
    if -4 <= exponent < 0:
        return [2, 3, *range(_ZEROS, _ZEROS - exponent - 1), *range(_A, _A + nd)]
    scientific = not -4 <= exponent < _DIGITS
    whole = 0 if scientific else exponent
    slots = list(range(_A, _A + whole + 1))
    if nd > whole + 1:
        slots += [_POINT, *range(_B + whole, _B + nd - 1)]
    return slots + (list(range(_EXP, _CELL)) if scientific else [])


def _templates():
    """Cell of every (class, nd, sign, separator), rows indexed as in
    ``format_table``: the bytes it prints, 0xff where a digit goes, else 0."""
    classes = (*range(_E_MIN, _E_MAX + 1), None)
    text = np.tile(np.frombuffer(b",-0." + b"\xff" * 20 + b"." + b"\0" * 3 + b"\xff" * 16
                                 + b"e+00", dtype=np.uint8), (len(classes), 1))
    for c, exponent in enumerate(classes[:-1]):
        text[c, _EXP:] = np.frombuffer(b"e%+03d" % exponent, dtype=np.uint8)
    keep = np.zeros((len(classes), _DIGITS, _CELL), dtype=bool)
    keep.reshape(-1)[[(c * _DIGITS + nd - 1) * _CELL + slot
                      for c, exponent in enumerate(classes)
                      for nd in range(1, _DIGITS + 1)
                      for slot in _kept_slots(exponent, nd)]] = True
    cells = np.where(keep, text[:, None], 0).astype(np.uint8)[:, :, None, None]
    cells = np.broadcast_to(cells, (len(classes), _DIGITS, 2, 2, _CELL)).copy()
    cells[..., 1, :, _SIGN] = ord("-")
    cells[..., 0] = ord(",")
    cells[..., 1, 0] = ord("\n")
    return cells.reshape(-1, _CELL)


def _quads():
    """The four ASCII digits of 0..9999, each as one little-endian uint32,
    and how many of them are trailing zeros (4 for 0)."""
    quad = np.arange(10_000, dtype=np.uint16)
    text = np.empty((quad.size, 4), dtype=np.uint8)
    zeros = np.zeros(quad.size, dtype=np.int64)
    for k in range(4):
        text[:, 3 - k] = ord("0") + quad // 10**k % 10
        zeros += quad % 10**(k + 1) == 0
    return text.view("<u4").ravel(), zeros


@functools.cache
def _tables():
    """Built at the first table written, so commands that write none do not
    pay for them; read-only, as every caller shares them."""
    tables = (_templates(), *_quads())
    for table in tables:
        table.flags.writeable = False
    return tables


def _split(x, unit):
    """x // unit and x % unit, for x >= 0."""
    high = x // unit
    return high, x - high * unit


def format_table(block) -> str:
    """The CSV lines of a 2-D float array: per value ``FLOAT_FORMAT % v``,
    joined by ',' within a row and ended by '\\n'."""
    block = np.asarray(block, dtype=float)
    rows, cols = block.shape
    if not block.size:
        return "\n" * rows
    templates, quad_text, quad_zeros = _tables()
    v = block.ravel()
    digits, exponent, certified = _decimal(np.abs(v))
    zero = v == 0
    digits[zero] = 0

    high, low = _split(digits, 10**8)        # D as d0 and four quads of digits
    d0, mid = _split(high, 10**8)
    quads = (d0, *_split(mid, 10**4), *_split(low, 10**4))
    tz = np.take(quad_zeros, quads[4])
    for q in (3, 2, 1):
        more = tz == 4 * (4 - q)
        if not more.any():
            break
        tz[more] += np.take(quad_zeros, quads[q][more])
    nd = _DIGITS - tz          # D >= 10**16, so d0 > 0 and tz < 17

    cls = np.where(certified, exponent - _E_MIN, _ZERO_CLASS)
    t = ((cls * _DIGITS + nd - 1) * 2 + np.signbit(v)) * 2
    t = (t.reshape(rows, cols) + (np.arange(cols) == 0)).ravel()
    cells = np.take(templates, t, axis=0)
    words = cells.view(np.uint32)
    for w, q in enumerate(quads):
        text = np.take(quad_text, q)
        words[:, _ZEROS // 4 + w] &= text
        if w:
            words[:, _B // 4 + w - 1] &= text
    alone = np.flatnonzero(~certified & ~zero)    # non-finite, subnormal or out of range
    if alone.size:
        text = np.array([(FLOAT_FORMAT % x).encode() for x in v[alone].tolist()],
                        dtype=f"S{_ALONE}")           # NUL-padded
        cells[alone, 1:] = 0
        cells[alone, 1:1 + _ALONE] = text.view(np.uint8).reshape(-1, _ALONE)
    return cells.tobytes().translate(None, b"\0")[1:].decode("ascii") + "\n"
