import csv
import math

import pytest

from lbmlab import errors, scheme, verify
from lbmlab.cli import EXIT_CONFIG, EXIT_OK, main

SMALL_VERIFY = """\
[study]
resolutions = 16,32,64,128
coarse_steps = 20
viscosity_s = 1.5
viscosity_n = 32
"""

# The density turns non-positive entering step 7 at node (4, 0).
BLOW_UP = """\
[grid]
nx = 16
[scheme]
steps = 400
s = 1.99
[initial]
ux_offset = 0.6
ux_amplitude = 0.3
rho_amplitude = 0.3
"""

# 128 x 128 nodes collide in two blocks of 8,192; the density first turns
# non-positive in the second, entering step 32 at node (95, 0).
BLOW_UP_LATER_BLOCK = (BLOW_UP.replace("nx = 16", "nx = 128")
                       .replace("ux_offset = 0.6", "ux_offset = -0.6"))

D1Q3_RUN = "[lattice]\nname = d1q3\n[grid]\nnx = 16\n[scheme]\nsteps = 3\n"

# numpy's warnings from configs whose populations overflow
OVERFLOWS = pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                       "ignore:invalid value:RuntimeWarning",
                                       "ignore:divide by zero:RuntimeWarning")

STUDY_FILES = {
    "prop3": {"prop3.csv"},
    "prop4": {"prop4.csv"},
    "prop5": {"prop5.csv"},
    "prop6": {"prop6.csv", "mass.csv"},
    "viscosity": {"viscosity.csv"},
    "all": {"prop3.csv", "prop4.csv", "prop5.csv", "prop6.csv", "mass.csv",
            "viscosity.csv"},
}


def _cli(tmp_path, command, config_text, *extra):
    config = tmp_path / "run.ini"
    config.write_text(config_text)
    out = tmp_path / "out"
    return main([command, "--config", str(config), "--out", str(out), "--quiet",
                 *extra]), out


@pytest.mark.parametrize("section, key, value", [
    ("scheme", "lambda", "nan"),
    ("grid", "length", "inf"),
    ("scheme", "s", "1.5, -inf"),
])
def test_non_finite_value_is_config_error(tmp_path, capsys, section, key, value):
    code, out = _cli(tmp_path, "run", f"[{section}]\n{key} = {value}\n")
    assert code == EXIT_CONFIG
    assert f"key '{key}'" in capsys.readouterr().err
    assert not (out / "checkpoint.csv").exists()


@pytest.fixture(scope="module")
def verify_all(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("verify-all")
    code, out = _cli(tmp_path, "verify", SMALL_VERIFY, "--study", "all")
    return code, out


@pytest.mark.parametrize("study", sorted(STUDY_FILES))
def test_verify_writes_exactly_its_csvs(tmp_path, verify_all, study):
    if study == "all":
        code, out = verify_all
    else:
        code, out = _cli(tmp_path, "verify", SMALL_VERIFY, "--study", study)
    assert code == EXIT_OK
    assert {p.name for p in out.iterdir()} == STUDY_FILES[study] | {"summary.csv"}
    for name in STUDY_FILES[study]:
        # a single study reports exactly what the same study reports in 'all'
        assert (out / name).read_bytes() == (verify_all[1] / name).read_bytes()


@pytest.mark.parametrize("study", ["viscosity", "all"])
def test_viscometry_on_a_1d_lattice_is_config_error(tmp_path, capsys, study):
    code, _ = _cli(tmp_path, "verify", "[lattice]\nname = d1q3\n" + SMALL_VERIFY,
                   "--study", study)
    assert code == EXIT_CONFIG
    assert "2-D lattice" in capsys.readouterr().err


@pytest.mark.parametrize("config_text, code, stderr", [
    ("[scheme]\nsteps = 3\n", 0, ""),
    ("[scheme]\nstep = 3\n", 2,
     "config error: unknown key 'step' in section [scheme] (line 2)\n"),
    ("[scheme]\ns = 2.5\n", 3, "construction error: relaxation ratios"),
    ("[initial]\nrho0 = 0.1\nrho_amplitude = 0.3\n", 3,
     "construction error: equilibrium evaluation requires rho > 0"),
    (BLOW_UP, 4,
     "simulation diverged: non-positive density at node (4, 0) entering step 7\n"),
    # 2 cs2**2 underflows to 0, so the equilibria would be NaN
    ("[equilibrium]\ncs2 = 1e-300\n[grid]\nnx = 16\n", 2,
     "config error: key 'cs2': "),
    # with the default steps = 0, run returned the initial populations unchecked
    pytest.param("[initial]\nux_offset = 1e+308\n[grid]\nnx = 16\n", 4,
                 "simulation diverged: non-finite populations at node (0, 0) "
                 "after 0 steps\n", marks=OVERFLOWS),
])
def test_run_exit_codes(tmp_path, capsys, config_text, code, stderr):
    got, out = _cli(tmp_path, "run", config_text)
    assert got == code
    err = capsys.readouterr().err
    assert err.startswith(stderr) if stderr else err == ""
    assert (out / "checkpoint.csv").exists() == (code == EXIT_OK)


def test_blow_up_in_a_later_collide_block_names_its_node(tmp_path, capsys):
    assert scheme._chunks(128 * 128)[1][0] <= 95 * 128
    code, out = _cli(tmp_path, "run", BLOW_UP_LATER_BLOCK)
    assert code == 4
    assert capsys.readouterr().err == (
        "simulation diverged: non-positive density at node (95, 0) entering step 32\n")
    assert not (out / "checkpoint.csv").exists()


def test_failed_study_exits_5(tmp_path):
    config = ("[scheme]\ns = 2.0\n"
              "[study]\nresolutions = 16,32,64,128\ncoarse_steps = 20\n")
    code, out = _cli(tmp_path, "verify", config, "--study", "prop5")
    assert code == 5
    with open(out / "summary.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["experiment"] == "prop5" and row["passed"] == "fail"
    assert not 1.75 < float(row["fitted_slope"]) < 2.25


UNIFORM_VERIFY = """\
[initial]
rho_amplitude = 0
ux_amplitude = 0
uy_amplitude = 0
[study]
resolutions = 16,32,64,128
coarse_steps = 20
"""


def test_uniform_field_fails_without_a_traceback(tmp_path, capsys):
    # the mass residual of one grid is exactly 0: its running slopes are nan
    code, out = _cli(tmp_path, "verify", UNIFORM_VERIFY, "--study", "prop3")
    assert code == 5
    assert (out / "prop3.csv").exists()
    code = main(["verify", "--config", str(tmp_path / "run.ini"),
                 "--out", str(tmp_path / "prop6"), "--study", "prop6"])
    assert code == 5
    assert "residuals vanished" in capsys.readouterr().out
    with open(tmp_path / "prop6" / "mass.csv", newline="") as fh:
        slopes = [row["slope_running"] for row in csv.DictReader(fh)]
    assert slopes.count("nan") >= 2


def test_viscometry_near_s2_passes(tmp_path):
    # at N = 64 the decay at s = 1.95 is well resolved; no special case applies
    code, _ = _cli(tmp_path, "verify",
                   "[study]\nviscosity_s = 1.95\nviscosity_n = 64\n",
                   "--study", "viscosity")
    assert code == EXIT_OK


def test_viscometry_on_a_fine_grid_passes_within_the_rounding_floor(tmp_path):
    # at N = 4096 rounding alone puts measured_error near 3e-9 cs2 dt, above
    # VISCOSITY_ATOL; check (a) in per-step units leaves EIGENVALUE_ROUNDING
    # (about 1.9e-8 cs2 dt here) for it, as check (b) does
    code, _ = _cli(tmp_path, "verify",
                   "[study]\nviscosity_s = 1.8\nviscosity_n = 4096\n",
                   "--study", "viscosity")
    assert code == EXIT_OK


def test_viscosity_csv_has_one_finite_row_per_s(tmp_path):
    code, out = _cli(tmp_path, "verify",
                     "[study]\nviscosity_s = 1.5, 2.0\nviscosity_n = 32\n",
                     "--study", "viscosity")
    assert code == EXIT_OK
    with open(out / "viscosity.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(row["s_shear"]) for row in rows] == [1.5, 2.0]
    assert all(math.isfinite(float(v)) for row in rows for v in row.values())
    assert float(rows[1]["nu_predicted"]) == 0.0
    assert abs(float(rows[1]["nu_exact"])) < 1e-12


def test_viscometry_too_short_to_fit_is_config_error(tmp_path, capsys, monkeypatch):
    steps = []
    step = verify.step
    monkeypatch.setattr(verify, "step", lambda *args: steps.append(1) or step(*args))
    # the grid is checked before the first case steps, whichever s comes first
    for cases in ("", "viscosity_s = 2.0, 1.2\n"):
        code, _ = _cli(tmp_path, "verify", "[study]\nviscosity_n = 4\n" + cases,
                       "--study", "viscosity")
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: key 'viscosity_n': ")
    assert not steps


@pytest.mark.parametrize("config_text, key, extra", [
    ("[study]\nviscosity_n = 0\n", "viscosity_n", ("--study", "viscosity")),
    ("[study]\nviscosity_n = -32\n", "viscosity_n", ("--study", "viscosity")),
    ("[study]\nresolutions = 0,0,0,0\n", "resolutions", ("--study", "prop3")),
    ("[study]\nresolutions = -8,-16,-32,-64\n", "resolutions", ("--study", "prop3")),
    ("[study]\nviscosity_amplitude = 0.1\n", "viscosity_amplitude", ()),
    ("[scheme]\ndt = 0.015625\n", "dt", ()),
    ("[equilibrium]\nkind = anything\n", "kind", ()),
    ("[lattice]\nname = d1q3\n[grid]\nnx = 16\nny = 5\n[scheme]\nsteps = 2\n", "ny", ()),
    ("[study]\nname = prop9\n", "name", ()),
    (D1Q3_RUN + "[initial]\nrho_amplitude = 0\nux_amplitude = 0\nuy_offset = 0.5\n",
     "uy_offset", ()),
    (D1Q3_RUN + "[initial]\nuy_offset = 0.5\n", "uy_offset", ()),
    (D1Q3_RUN + "[initial]\nuy_amplitude = 0.5\n", "uy_amplitude", ()),
    (D1Q3_RUN + "[initial]\nuy_mode = 3\n", "uy_mode", ()),
    (D1Q3_RUN + "[initial]\nrho_amplitude = 0\nux_amplitude = 0\nuy_mode = 3\n",
     "uy_mode", ()),
    ("[study]\nviscosity_n = 16\nviscosity_s = 2.0\nviscosity_mode = 9\n",
     "viscosity_mode", ("--study", "viscosity")),
    # lambda**2 of the moment basis overflowed into a raw OverflowError
    ("[scheme]\nlambda = 1e+308\n", "lambda", ()),
    # k**2 underflowed to 0 (a raw ZeroDivisionError) or overflowed (a raw
    # LinAlgError from the decay fit) in the viscometer
    ("[grid]\nlength = 1e+308\n", "length", ("--study", "viscosity")),
    ("[grid]\nlength = 1e-300\n", "length", ("--study", "all")),
    ("[equilibrium]\ncs2 = 1e200\n", "cs2", ()),
])
def test_invalid_config_exits_2_naming_its_key(tmp_path, capsys, config_text, key,
                                               extra):
    command = "verify" if extra else "run"
    code, out = _cli(tmp_path, command, config_text, *extra)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"key '{key}'" in err
    assert not out.exists()


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_class_has_its_exit_code():
    expected = {
        errors.LbmError: 2,
        errors.ConfigError: 2,
        errors.GridTooCoarse: 2,
        errors.ConstructionError: 3,
        errors.InvalidVelocitySet: 3,
        errors.RankDeficient: 3,
        errors.SingularMomentMatrix: 3,
        errors.InvalidEquilibrium: 3,
        errors.NonPositiveDensity: 3,
        errors.ShapeError: 3,
        errors.ComponentMismatch: 3,
        errors.InvalidRelaxation: 3,
        errors.SimulationDiverged: 4,
    }
    classes = {errors.LbmError, *_subclasses(errors.LbmError)}
    assert {cls: cls.exit_code for cls in classes} == expected
    assert all(cls.label for cls in classes)
