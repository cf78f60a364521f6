import csv
import math
import os
import re
import signal
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbmlab import _team, cli, errors, scheme, verify
from lbmlab.cli import EXIT_CONFIG, EXIT_OK, EXIT_VERIFICATION, main
from lbmlab.config import _KEYS, STUDY_NAMES
from workers import aarch64, assert_no_worker_left, counting_forks, one_cpu, two_cpus

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
    if isinstance(config_text, bytes):
        config.write_bytes(config_text)
    else:
        config.write_text(config_text)
    out = tmp_path / "out"
    return main([command, "--config", str(config), "--out", str(out), "--quiet",
                 *extra]), out


@pytest.mark.parametrize("section, key, value", [
    ("scheme", "lambda", "nan"),
    ("equilibrium", "cs2", "inf"),
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


def test_a_density_that_underflows_the_jacobian_is_config_error(tmp_path, capsys):
    # verify once reported prop5 and prop6 slopes of nan with R^2 = 1, after
    # numpy warned of NaN from the equilibrium's Jacobian
    code, out = _cli(tmp_path, "verify", "[initial]\nrho0 = 1e-300\nrho_amplitude = 0\n",
                     "--study", "all")
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: key 'rho0': the least density ")
    assert not out.exists()


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
    ("[initial]\nrho0 = 0.1\nrho_amplitude = 0.3\n", 3,
     "construction error: equilibrium evaluation requires rho > 0"),
    (BLOW_UP, 4,
     "simulation diverged: non-positive density at node (4, 0) entering step 7\n"),
    # six steps wrote a checkpoint whose density was -0.839 at (4, 0)
    (BLOW_UP.replace("steps = 400", "steps = 6"), 4,
     "simulation diverged: non-positive density at node (4, 0) after 6 steps\n"),
    # 2 cs2**2 underflows to 0, so the equilibria would be NaN
    ("[equilibrium]\ncs2 = 1e-300\n[grid]\nnx = 16\n", 2,
     "config error: key 'cs2': "),
    # with the default steps = 0, run returned the initial populations unchecked
    pytest.param("[initial]\nux_offset = 1e+308\n[grid]\nnx = 16\n", 4,
                 "simulation diverged: non-finite density at node (0, 0) "
                 "after 0 steps\n", marks=OVERFLOWS),
    # ragged tables ended in a raw ValueError from numpy
    ("[lattice]\nvectors = 0; 1,0; -1\n", 3,
     "construction error: vectors must all have the same dimension\n"),
    ("[lattice]\nname = d1q3\nhigher_rows = 0,1,1; 1\n", 3,
     "construction error: higher_rows must have shape (1, 3), got row lengths [3, 1]\n"),
    # 2 cs2**2 rho**2 underflows to 0, so the equilibrium's Jacobian would be NaN
    ("[initial]\nrho0 = 1e-300\nrho_amplitude = 0\n", 2, "config error: key 'rho0': "),
    # a byte that is not UTF-8 ended in a raw UnicodeDecodeError with exit 1
    (b"[grid]\nnx = 8\xff\n", 2, "config error: not UTF-8 at byte offset 13 of "),
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


# s = 5e-324 predicts an infinite viscosity; only verify --study viscosity
# rejected it, and only after the s = 1.5 case had stepped
INFINITE_NU = ("[grid]\nnx = 16\n[scheme]\nsteps = 2\n"
               "[study]\nviscosity_s = 1.5, 5e-324\nviscosity_n = 16\n")


def test_viscometry_too_short_to_fit_is_config_error(tmp_path, capsys, monkeypatch):
    steps = []
    step = verify.step
    monkeypatch.setattr(verify, "step", lambda *args: steps.append(1) or step(*args))
    # the grid and every s are checked before the first case steps, whichever
    # s comes first
    for config_text, key in (("[study]\nviscosity_n = 4\n", "viscosity_n"),
                             ("[study]\nviscosity_n = 4\nviscosity_s = 2.0, 1.2\n",
                              "viscosity_n"),
                             (INFINITE_NU, "viscosity_s")):
        code, _ = _cli(tmp_path, "verify", config_text, "--study", "viscosity")
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: key '{key}': ")
    assert not steps


@pytest.mark.parametrize("config_text, message", [
    # verify ran the viscometry and a whole rung before it failed, naming no key
    pytest.param("[study]\nresolutions = 4,8,16,32\n",
                 "key 'resolutions': coarsest grid must be >= 8, got 4", id="resolutions"),
    # run and analyze accepted it
    pytest.param("[study]\nviscosity_n = 4\n",
                 "key 'viscosity_n': need at least 8 nodes, got 4", id="viscosity_n"),
])
@pytest.mark.parametrize("command, extra", [
    ("run", ()), ("analyze", ()), ("verify", ("--study", "all"))])
def test_study_grid_below_eight_nodes_fails_every_command(tmp_path, capsys, monkeypatch,
                                                          config_text, message,
                                                          command, extra):
    steps = []
    step = verify.step
    monkeypatch.setattr(verify, "step", lambda *args: steps.append(1) or step(*args))
    code, out = _cli(tmp_path, command, config_text, *extra)
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not steps and not out.exists()


@pytest.mark.parametrize("command, extra", [
    ("run", ()), ("analyze", ()), ("verify", ("--study", "prop3"))])
def test_infinite_predicted_viscosity_fails_every_command(tmp_path, capsys, command,
                                                         extra):
    code, out = _cli(tmp_path, command, INFINITE_NU, *extra)
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: key 'viscosity_s': ")
    assert not out.exists()


@pytest.mark.parametrize("config_text, key, extra", [
    ("[study]\nviscosity_n = 0\n", "viscosity_n", ("--study", "viscosity")),
    ("[study]\nviscosity_n = -32\n", "viscosity_n", ("--study", "viscosity")),
    ("[study]\nresolutions = 0,0,0,0\n", "resolutions", ("--study", "prop3")),
    ("[study]\nresolutions = -8,-16,-32,-64\n", "resolutions", ("--study", "prop3")),
    ("[study]\nviscosity_amplitude = 0.1\n", "viscosity_amplitude", ()),
    ("[scheme]\ndt = 0.015625\n", "dt", ()),
    ("[equilibrium]\nkind = anything\n", "kind", ()),
    # [grid] has nx alone: ny and length are unknown keys
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
    # whatever its value, [grid] length is an unknown key
    ("[grid]\nlength = 1e+308\n", "length", ("--study", "viscosity")),
    ("[grid]\nlength = 1e-300\n", "length", ("--study", "all")),
    ("[equilibrium]\ncs2 = 1e200\n", "cs2", ()),
    # a cs2 <= 0 was a construction error that named no key
    ("[equilibrium]\ncs2 = -1\n", "cs2", ()),
    ("[equilibrium]\ncs2 = 0\n", "cs2", ("--study", "prop3")),
    # run ignored an unstable viscometer rate, and verify named no key
    ("[study]\nviscosity_s = 2.5\n", "viscosity_s", ()),
    ("[study]\nviscosity_s = 1.5, 0\n", "viscosity_s", ("--study", "viscosity")),
    # a given uy_amplitude equal to the 2-D default passed on a 1-D lattice
    (D1Q3_RUN + "[initial]\nuy_amplitude = 0.001\n", "uy_amplitude", ()),
    # analyze printed an infinite viscosity, and verify passed with one
    ("[scheme]\nlambda = 100\ns = 1e-308\n[grid]\nnx = 1\n", "s", ()),
    ("[study]\nviscosity_s = 5e-324\nviscosity_n = 16\n", "viscosity_s",
     ("--study", "viscosity")),
    # an unstable [scheme] s was a construction error that listed the expanded
    # ratios and named no key
    ("[scheme]\ns = 2.5\n", "s", ()),
    ("[scheme]\ns = 0\n", "s", ("--study", "prop3")),
])
def test_invalid_config_exits_2_naming_its_key(tmp_path, capsys, config_text, key,
                                               extra):
    command = "verify" if extra else "run"
    code, out = _cli(tmp_path, command, config_text, *extra)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"key '{key}'" in err
    assert not out.exists()


D2Q5_TABLE = """\
[lattice]
vectors = 0,0; 1,0; 0,1; -1,0; 0,-1
higher_rows = 0,1,1,1,1; 0,1,-1,1,-1
[equilibrium]
weights = 0.3333333333333333, 0.16666666666666666, 0.16666666666666666, \
0.16666666666666666, 0.16666666666666666
cs2 = 0.3333333333333333
[scheme]
steps = 2
"""


@pytest.mark.parametrize("command", ["run", "analyze", "verify"])
@pytest.mark.parametrize("name", ["d3q27", "d1q3"])
def test_a_lattice_name_beside_other_vectors_is_config_error(tmp_path, capsys,
                                                             command, name):
    # both ran on the D2Q5 vectors, the name ignored; without it they still do
    config = D2Q5_TABLE.replace("[lattice]\n", f"[lattice]\nname = {name}\n")
    code, out = _cli(tmp_path, command, config)
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: key 'name': ")
    assert not out.exists()
    assert _cli(tmp_path, "run", D2Q5_TABLE)[0] == EXIT_OK


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# Grids of _team.WRITER_NODES nodes whose three steps pay for no stepping fork
# (_team.TEAM_UPDATES), so that a run command forks once, for its writer
WRITER_RUNS = {
    "d2q9": "[grid]\nnx = 128\n[scheme]\nsteps = 3\n",
    "d1q3": "[lattice]\nname = d1q3\n[grid]\nnx = 16384\n[scheme]\nsteps = 3\n",
}


def _run_on(tmp_path, config_text, monkeypatch, cpus):
    """Exit code, output directory and fork count of ``lbmlab run`` on one or
    two CPUs; the worker, if any, is gone and the mask unchanged after."""
    tmp_path.mkdir(exist_ok=True)
    with monkeypatch.context() as patch:
        if cpus == 1:
            one_cpu(patch)
        forks = counting_forks(patch)
        code, out = _cli(tmp_path, "run", config_text)
    assert_no_worker_left()
    return code, out, len(forks)


@pytest.mark.parametrize("lattice", ["d2q9", "d1q3"])
def test_run_writes_the_same_bytes_on_one_process_and_two(tmp_path, monkeypatch,
                                                          lattice):
    two_cpus()
    config_text = WRITER_RUNS[lattice]
    code, serial, forks = _run_on(tmp_path / "one", config_text, monkeypatch, 1)
    assert (code, forks) == (EXIT_OK, 0)
    code, forked, forks = _run_on(tmp_path / "two", config_text, monkeypatch, 2)
    assert (code, forks) == (EXIT_OK, 1)
    # a writer that dies: this process writes the moment fields itself
    parent, write = os.getpid(), cli._write_moment_fields

    def dying(*args):
        if os.getpid() != parent:
            os._exit(3)
        return write(*args)

    monkeypatch.setattr(cli, "_write_moment_fields", dying)
    code, rewritten, forks = _run_on(tmp_path / "dead", config_text, monkeypatch, 2)
    assert (code, forks) == (EXIT_OK, 1)
    for name in ("checkpoint.csv", "moments.csv"):
        expected = (serial / name).read_bytes()
        assert (forked / name).read_bytes() == expected
        assert (rewritten / name).read_bytes() == expected


def test_writer_forks_off_x86_64(tmp_path, monkeypatch):
    # unlike the stepping team, the writer needs no barrier, so it forks on a
    # machine whose store order run does not rely on
    two_cpus()
    config_text = WRITER_RUNS["d2q9"]
    code, serial, forks = _run_on(tmp_path / "one", config_text, monkeypatch, 1)
    assert (code, forks) == (EXIT_OK, 0)
    with monkeypatch.context() as patch:
        aarch64(patch)
        code, forked, forks = _run_on(tmp_path / "two", config_text, monkeypatch, 2)
    assert (code, forks) == (EXIT_OK, 1)
    for name in ("checkpoint.csv", "moments.csv"):
        assert (forked / name).read_bytes() == (serial / name).read_bytes()


def test_only_run_commands_of_writer_nodes_fork(tmp_path, monkeypatch):
    assert 127 * 127 < _team.WRITER_NODES <= 128 * 128 <= 16384
    assert 3 * 9 * 16384 < _team.TEAM_UPDATES
    two_cpus()
    forks = counting_forks(monkeypatch)
    below = WRITER_RUNS["d2q9"].replace("nx = 128", "nx = 127")
    assert _cli(tmp_path, "run", below)[0] == EXIT_OK
    assert _cli(tmp_path, "analyze", WRITER_RUNS["d2q9"])[0] == EXIT_OK
    assert _cli(tmp_path, "verify", SMALL_VERIFY, "--study", "all")[0] == EXIT_OK
    assert forks == []
    for config_text in WRITER_RUNS.values():
        assert _cli(tmp_path, "run", config_text)[0] == EXIT_OK
    assert forks == [1, 1]
    assert_no_worker_left()


def test_unwritable_moments_file_fails_alike_on_one_process_and_two(
        tmp_path, capsys, monkeypatch):
    two_cpus()
    (tmp_path / "out" / "moments.csv").mkdir(parents=True)
    failures = []
    for cpus in (1, 2):
        code, out, forks = _run_on(tmp_path, WRITER_RUNS["d2q9"], monkeypatch, cpus)
        failures.append((code, capsys.readouterr().err))
        assert forks == cpus - 1
    assert failures[0] == failures[1]
    assert failures[0] == (EXIT_CONFIG, f"error: [Errno 21] Is a directory: "
                                        f"'{out / 'moments.csv'}'\n")


def test_interrupt_while_writing_the_checkpoint_stops_the_writer(tmp_path,
                                                                  monkeypatch):
    two_cpus()
    forks = counting_forks(monkeypatch)

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "save_checkpoint", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _cli(tmp_path, "run", WRITER_RUNS["d2q9"])
    assert forks == [1]
    assert_no_worker_left()


def test_interrupt_while_waiting_for_the_writer_kills_it(tmp_path, monkeypatch):
    # the writer hangs; the first blocking wait for it is interrupted
    two_cpus()
    parent, waitpid, statuses = os.getpid(), os.waitpid, []

    def hanging(*args):
        if os.getpid() != parent:
            time.sleep(60)

    def interrupted(pid, options):
        if options == 0 and not statuses:
            statuses.append(None)
            raise KeyboardInterrupt
        pid, status = waitpid(pid, options)
        statuses.append(status)
        return pid, status

    monkeypatch.setattr(cli, "_write_moment_fields", hanging)
    with monkeypatch.context() as patch:
        patch.setattr(os, "waitpid", interrupted)
        with pytest.raises(KeyboardInterrupt):
            _cli(tmp_path, "run", WRITER_RUNS["d2q9"])
    assert len(statuses) == 2 and os.WTERMSIG(statuses[1]) == signal.SIGKILL
    assert_no_worker_left()


@pytest.mark.parametrize("error, stderr", [
    (MemoryError("Unable to allocate 7.45 GiB"),
     "error: out of memory: Unable to allocate 7.45 GiB\n"),
    (MemoryError(), "error: out of memory\n"),
])
def test_allocation_failure_exits_2_without_a_traceback(tmp_path, capsys, monkeypatch,
                                                        error, stderr):
    # a real allocation that large might succeed under overcommit, so the
    # failure is injected where run allocates the initial state
    def failing(*args):
        raise error

    monkeypatch.setattr(cli, "initialize_equilibrium", failing)
    code, out = _cli(tmp_path, "run", "[grid]\nnx = 16\n")
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == stderr
    assert not out.exists()


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


# The config fuzzer.  Values mix the ordinary with the extreme: zero, negative,
# subnormal, huge and non-finite.  nx, steps, viscosity_n and the ladder are
# capped, and the keys in CAPPED, whose defaults are not cheap, are always set,
# so that an example costs milliseconds.
EXTREMES = (0.0, -1.0, 5e-324, 1e-300, 1e-3, 0.5, 1.0, 1.5, 2.0, 3.0, 1e308,
            math.inf, math.nan)
fuzz_floats = st.sampled_from(EXTREMES) | st.floats(-3.0, 3.0)


def _listed(items, sep=","):
    return items.map(lambda values: sep.join(map(str, values)))


FUZZ_VALUES = {
    ("lattice", "name"): st.sampled_from(["d2q9", "d1q3", "D1Q3", "d3q19"]),
    ("lattice", "vectors"): st.sampled_from([
        "0,0; 1,0; 0,1; -1,0; 0,-1", "0; 1; -1", "0,0; 1,0; 1,0", "0,0,0; 1,0,0",
    ]) | _listed(st.lists(_listed(st.lists(st.integers(-2, 2), min_size=1,
                                           max_size=2)),
                          min_size=1, max_size=9), "; "),
    ("lattice", "higher_rows"): st.sampled_from(["0,1,1,1,1; 0,1,-1,1,-1", "0,1,1"])
    | _listed(st.lists(_listed(st.lists(fuzz_floats, min_size=1, max_size=5)),
                       min_size=1, max_size=4), "; "),
    ("equilibrium", "cs2"): fuzz_floats,
    ("equilibrium", "weights"): _listed(st.sampled_from([(1 / 3,) + (1 / 6,) * 4,
                                                          (2 / 3, 1 / 6, 1 / 6)])
                                        | st.lists(fuzz_floats, min_size=1, max_size=9)),
    ("scheme", "lambda"): fuzz_floats,
    ("scheme", "s"): _listed(st.lists(fuzz_floats, min_size=1, max_size=6)),
    ("scheme", "steps"): st.integers(-1, 8),
    ("grid", "nx"): st.integers(-1, 32),
    ("initial", "rho0"): fuzz_floats,
    ("initial", "rho_amplitude"): fuzz_floats,
    ("initial", "ux_offset"): fuzz_floats,
    ("initial", "ux_amplitude"): fuzz_floats,
    ("initial", "uy_offset"): fuzz_floats,
    ("initial", "uy_amplitude"): fuzz_floats,
    ("study", "name"): st.sampled_from([*STUDY_NAMES, "prop9"]),
    ("study", "resolutions"): st.sampled_from(["8,16,32,64"] * 4
                                              + ["8,16,32", "0,0,0,0"]),
    ("study", "coarse_steps"): st.sampled_from([20] * 4 + [19, -1]),
    ("study", "viscosity_s"): _listed(st.lists(fuzz_floats, min_size=1, max_size=2)),
    ("study", "viscosity_n"): st.integers(-1, 32),
}
CAPPED = {("grid", "nx"), ("study", "resolutions"), ("study", "coarse_steps"),
          ("study", "viscosity_n")}
ERROR_CLASSES = (errors.LbmError, *_subclasses(errors.LbmError))
EXIT_CODES = {EXIT_OK, EXIT_VERIFICATION} | {cls.exit_code for cls in ERROR_CLASSES}
TOKEN = re.compile(r"[^\s,=()']+")


@st.composite
def fuzz_configs(draw):
    keys = [(section, key) for section, key, _, _ in _KEYS]
    chosen = draw(st.sets(st.sampled_from(keys), max_size=4)) | CAPPED
    sections = {}
    for section, key in keys:          # canonical order
        if (section, key) in chosen:
            value = draw(FUZZ_VALUES[section, key])
            sections.setdefault(section, []).append(f"{key} = {value}\n")
    return "".join(f"[{section}]\n" + "".join(lines)
                   for section, lines in sections.items())


def _non_finite_numbers(path):
    bad = []
    for token in TOKEN.findall(path.read_text()):
        try:
            value = float(token)
        except ValueError:
            continue
        if not math.isfinite(value):
            bad.append(token)
    return bad


@OVERFLOWS
@settings(max_examples=200, derandomize=True, deadline=None)
@given(fuzz_configs())
def test_fuzzed_config_ends_in_a_documented_exit(config_text):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "fuzz.ini"
        config.write_text(config_text)
        for command in ("run", "analyze", "verify"):
            out = Path(tmp) / command
            code = main([command, "--config", str(config), "--out", str(out), "--quiet"])
            assert code in EXIT_CODES, (command, code)
            if code == EXIT_OK and command != "verify":
                for path in sorted(out.iterdir()):
                    assert not _non_finite_numbers(path), (command, path.name)
