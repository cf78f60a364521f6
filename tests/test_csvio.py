"""The vectorized table writer against the per-value ``%`` writer it replaced.

``reference_lines`` below is that writer, kept here as the oracle: every line
``format_table`` makes must equal its line byte for byte, as must the
checkpoint and moment files the CLI writes with it.
"""

import math
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lbmlab import csvio
from lbmlab.cli import _write_moment_fields
from lbmlab.config import build_components, parse_config
from lbmlab.csvio import FLOAT_FORMAT, format_table, format_value, write_table
from lbmlab.fields import InitialField, SineComponent
from lbmlab.scheme import (
    SchemeParams,
    initialize_equilibrium,
    moments_of,
    run,
    save_checkpoint,
)

from test_kernel_layout import CASES, components, sine_state

VALUES = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1, 1 / 3)


def reference_lines(table, column_types=None) -> str:
    """One ``%`` format per row, ``%d`` for int columns and FLOAT_FORMAT for
    float ones: the writer of checkpoints and moment fields before
    ``format_table``."""
    table = np.asarray(table)
    column_types = column_types or [float] * table.shape[1]
    fmt = ",".join({int: "%d", float: FLOAT_FORMAT}[t] for t in column_types) + "\n"
    return "".join(fmt % tuple(row) for row in table.tolist())


def assert_matches_reference(values, cols=8):
    values = np.asarray(values, dtype=float).ravel()
    values = np.concatenate([values, np.zeros(-len(values) % cols)])
    table = values.reshape(-1, cols)
    assert format_table(table) == reference_lines(table)


def test_float_format_prints_17_significant_digits():
    # what format(value, ".17g") prints, which round-trips every float
    for value in VALUES:
        assert FLOAT_FORMAT % value == format(value, ".17g")
        assert float(FLOAT_FORMAT % value) == value or math.isnan(value)


def test_format_table_matches_value_by_value_formatting():
    row = (7, -3, *VALUES)
    assert format_table(np.array([row])) == ",".join(map(format_value, row)) + "\n"


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40),
       st.integers(1, 9))
def test_any_floats_match_the_reference(values, cols):
    assert_matches_reference(values, cols)


def test_random_bit_patterns_match_the_reference():
    rng = np.random.default_rng(20260601)
    assert_matches_reference(rng.integers(0, 2**64, 400_000, dtype=np.uint64)
                             .view(np.float64))


def test_log_uniform_values_of_both_signs_match_the_reference():
    rng = np.random.default_rng(20260602)
    magnitude = 10.0 ** rng.uniform(-12, 20, 400_000)
    assert_matches_reference(magnitude * rng.choice([-1.0, 1.0], magnitude.size))


def test_neighbours_of_every_power_of_ten_match_the_reference():
    # where log10 may put the decimal exponent one off
    powers = np.array([float(f"1e{e}") for e in range(-8, 18)])
    below, above = np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)
    values = np.concatenate([below, powers, above])
    values = np.concatenate([values, -values,
                             np.nextafter(below, 0.0), np.nextafter(above, np.inf)])
    assert_matches_reference(values, cols=3)


def test_no_value_rounds_up_to_a_power_of_ten():
    # why format_table needs no carry: below each power of ten 10**(E + 1)
    # of its exact path, E = -6..16, the largest double is more than half a
    # unit of the 17th significant digit away
    for n in range(csvio._E_MIN + 1, csvio._E_MAX + 2):
        power = Fraction(10) ** n
        below = float(power)
        if Fraction(below) >= power:
            below = math.nextafter(below, 0.0)
        assert power - Fraction(below) > Fraction(10) ** (n - 17) / 2


def test_exact_ties_round_to_even():
    # j + 1/4 at E = 15, j + 1/8 at E = 14, ...: the 17th digit is a tie,
    # which %.17g rounds to even
    rng = np.random.default_rng(20260603)
    values = []
    for exponent, denominator in ((15, 4), (14, 8), (13, 16), (12, 32)):
        whole = rng.integers(10**exponent, 2 * 10**exponent, 2_000).astype(float)
        odd = rng.integers(0, denominator // 2, whole.size) * 2 + 1
        values.append(whole + odd / denominator)
    values = np.concatenate(values)
    assert FLOAT_FORMAT % (1e15 + 0.25) == "1000000000000000.2"
    assert_matches_reference(np.concatenate([values, -values]))


def test_zeros_subnormals_and_non_finite_values():
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                2.2250738585072014e-308, math.inf, -math.inf, math.nan, 1e-06,
                1e17, 1e22, 1.7976931348623157e308]
    assert_matches_reference(specials, cols=len(specials))
    assert format_table(np.array([[0.0, -0.0]])) == "0,-0\n"
    # log10 says E = -6, but the double 1e-06 is below 10**-6
    assert format_table(np.array([[1e-06]])) == "9.9999999999999995e-07\n"


def test_integer_valued_columns_print_as_integers():
    # the index columns of moments.csv, stored as floats
    index = np.indices((300, 7)).reshape(2, -1).T
    mixed = np.concatenate([index, -index[:, :1], 2**53 - index[:, :1]], axis=1)
    assert format_table(mixed.astype(float)) == reference_lines(mixed, [int] * 4)


def test_write_table_writes_the_header_then_every_row(monkeypatch):
    monkeypatch.setattr(csvio, "BLOCK_VALUES", 12)   # blocks of three rows
    table = np.arange(28.0).reshape(7, 4) / 3
    out = []
    write_table(types.SimpleNamespace(write=out.append), ["a", "b", "c", "d"], table)
    assert "".join(out) == "a,b,c,d\n" + reference_lines(table)
    assert len(out) == 1 + 3
    assert format_table(np.empty((0, 4))) == ""


def reference_checkpoint(state, params, mm) -> str:
    nj = state.f.shape[-1]
    grid = "x".join(str(n) for n in state.grid_shape)
    return (f"# lbmlab-checkpoint grid={grid} J={nj - 1} "
            f"dt={format_value(params.dt)} lambda={format_value(mm.lam)} "
            f"step={state.steps}\n"
            + ",".join(f"f{j}" for j in range(nj)) + "\n"
            + reference_lines(state.f.reshape(-1, nj)))


def reference_moments(state, mm) -> str:
    grid, d = state.grid_shape, mm.d
    m = moments_of(state, mm)[..., :1 + d].reshape(-1, 1 + d)
    index = np.indices(grid).reshape(len(grid), -1).T
    rows = [(*i, *v) for i, v in zip(index.tolist(), m.tolist())]
    header = ["i", "j"][:len(grid)] + ["rho", "qx", "qy"][:1 + d]
    return ",".join(header) + "\n" + reference_lines(
        rows, [int] * len(grid) + [float] * (1 + d))


def assert_files_match_reference(tmp_path, state, params, mm):
    save_checkpoint(tmp_path / "checkpoint.csv", state, params, mm)
    _write_moment_fields(tmp_path / "moments.csv", types.SimpleNamespace(mm=mm), state)
    with open(tmp_path / "checkpoint.csv", newline="") as fh:
        assert fh.read() == reference_checkpoint(state, params, mm)
    with open(tmp_path / "moments.csv", newline="") as fh:
        assert fh.read() == reference_moments(state, mm)


FILE_CASES = [c for c in CASES
              if c[0] == "d1q3" or c[0] == "d2q5" and c[1] == 1.7 or c[3] == (97, 91)]


@pytest.mark.parametrize("lattice, lam, s, grid, steps", FILE_CASES,
                         ids=[f"{c[0]}-{'x'.join(map(str, c[3]))}" for c in FILE_CASES])
def test_run_files_match_the_reference_writer(tmp_path, lattice, lam, s, grid, steps):
    vs, mm, model = components(lattice, lam)
    dx = 1.0 / grid[0]
    s = np.broadcast_to(np.asarray(s), (vs.J - vs.d,)).copy()
    params = SchemeParams(dx=dx, dt=dx / lam, s=s)
    state = run(sine_state(vs, model, grid, dx), steps, vs, mm, model, params)
    assert_files_match_reference(tmp_path, state, params, mm)


def test_uniform_field_files_match_the_reference_writer(tmp_path, d2q9):
    vs, mm, model = d2q9
    field = InitialField(rho=SineComponent(1.0), velocity=(SineComponent(0.0),) * 2)
    state = initialize_equilibrium(model, vs, field.conserved((16, 8), 1 / 16))
    params = SchemeParams(dx=1 / 16, dt=1 / 16, s=np.full(6, 1.5))
    assert (moments_of(state, mm)[..., 1:3] == 0).all()   # a field of exact zeros
    assert_files_match_reference(tmp_path, state, params, mm)
    assert_files_match_reference(tmp_path, run(state, 3, vs, mm, model, params),
                                 params, mm)


def test_a_run_256_checkpoint_needs_no_value_alone(monkeypatch, tmp_path):
    # every population of the benchmark's run-256 state is printed by the
    # vectorized path; the per-value fallback would show as a call of
    # FLOAT_FORMAT % v
    bundle = build_components(parse_config("[grid]\nnx = 256\n"))
    W0 = bundle.field.conserved(bundle.grid_shape, bundle.params.dx)
    state = run(initialize_equilibrium(bundle.model, bundle.vs, W0), 8,
                bundle.vs, bundle.mm, bundle.model, bundle.params)
    alone = []

    class Counting(str):
        def __mod__(self, value):
            alone.append(value)
            return str.__mod__(self, value)

    monkeypatch.setattr(csvio, "FLOAT_FORMAT", Counting(FLOAT_FORMAT))
    f = state.f.reshape(-1, 9)
    text = "".join(format_table(f[i:i + 4096]) for i in range(0, len(f), 4096))
    assert alone == []
    format_table(np.array([[math.nan]]))
    assert len(alone) == 1                   # the count sees a value printed alone
    monkeypatch.undo()
    assert text == reference_lines(f)
    assert_files_match_reference(tmp_path, state, bundle.params, bundle.mm)
