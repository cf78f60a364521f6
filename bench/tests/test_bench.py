"""Tests of the benchmark harness: exact counts and the output checks.

Traced invocations run in child processes exactly as ``run.py`` starts them.
"""

import json
import math
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402

COUNTS = ("scheme.node_updates", "verify.run.calls", "verify.measure_viscosity.steps")


def _traced(workload, out):
    spec = {**run.base_spec(workload, out), "mode": "trace", "out": str(out / "cli")}
    return run.child(spec)


@pytest.fixture(scope="module")
def run_256(tmp_path_factory):
    """One traced run-256 invocation; its outputs are kept for corruption."""
    out = tmp_path_factory.mktemp("run-256")
    record = _traced("run-256", out)
    cfg, _, state = child._set_up(str(BENCH / "workloads" / "run-256.ini"))
    return record, out / "cli", cfg.steps, float(state.f.sum())


def test_counts_repeat_across_traced_runs(tmp_path):
    first = _traced("verify-refine", tmp_path / "a")
    second = _traced("verify-refine", tmp_path / "b")
    for name in COUNTS:
        assert first["layers"][name] > 0
        assert first["layers"][name] == second["layers"][name]
    assert first["missing_wrappers"] == []


def test_node_updates_of_run_256(run_256):
    record, _, steps, _ = run_256
    assert record["layers"]["scheme.node_updates"] == 256 * 256 * steps
    assert not [c for c in record["checks"] if not c[1]]


def _run_checks(outdir, run_256):
    _, _, steps, mass = run_256
    reference = json.loads((BENCH / "reference" / "run-256.json").read_text())
    return {name: ok for name, ok, _ in checks.check_run(outdir, steps, mass, reference)}


def _edit_checkpoint(path, row, edit):
    lines = path.read_text().splitlines(keepends=True)
    values = lines[row + 2].rstrip("\n").split(",")
    lines[row + 2] = ",".join(edit(values)) + "\n"
    path.write_text("".join(lines))


def _nan(values):
    return ["nan"] + values[1:]


def _swap(values):
    return [values[1], values[0]] + values[2:]


def _scale(values):
    return [repr(float(values[0]) * (1 + 1e-4))] + values[1:]


@pytest.mark.parametrize("check, corrupt", [
    ("checkpoint_finite", lambda d: _edit_checkpoint(d / "checkpoint.csv", 5, _nan)),
    ("checkpoint_steps", lambda d: (d / "checkpoint.csv").write_text(
        (d / "checkpoint.csv").read_text().replace(" step=", " step=1", 1))),
    ("mass_drift", lambda d: _edit_checkpoint(d / "checkpoint.csv", 7, _scale)),
    # swapping two populations of one node keeps the mass, so only the
    # fingerprint can see it
    ("fingerprint", lambda d: _edit_checkpoint(d / "checkpoint.csv", 0, _swap)),
    ("moments_rows", lambda d: (d / "moments.csv").write_text(
        "".join((d / "moments.csv").read_text().splitlines(keepends=True)[:-1]))),
])
def test_run_check_fails_on_corrupted_output(run_256, tmp_path, check, corrupt):
    outdir = tmp_path / "out"
    shutil.copytree(run_256[1], outdir)
    assert all(_run_checks(outdir, run_256).values())
    corrupt(outdir)
    results = _run_checks(outdir, run_256)
    assert results[check] is False
    if check == "fingerprint":
        assert results["mass_drift"] is True


def test_run_checks_fail_on_truncated_checkpoint(run_256, tmp_path):
    outdir = tmp_path / "out"
    shutil.copytree(run_256[1], outdir)
    path = outdir / "checkpoint.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:100]))
    assert not any(_run_checks(outdir, run_256).values())


@pytest.fixture
def verify_outputs(tmp_path):
    """The recorded verify-refine residual CSVs plus an all-pass summary."""
    outdir = tmp_path / "out"
    shutil.copytree(BENCH / "reference" / "verify-refine", outdir)
    (outdir / "summary.csv").write_text(
        "experiment,fitted_slope,r2,passed\n"
        + "".join(f"{name},1.0,1.0,pass\n" for name in checks.VERIFY_EXPERIMENTS))
    return outdir


def _verify_checks(outdir):
    reference = BENCH / "reference" / "verify-refine"
    return {name: ok for name, ok, _ in checks.check_verify(outdir, reference)}


def test_verify_checks_pass_on_recorded_outputs(verify_outputs):
    results = _verify_checks(verify_outputs)
    assert set(results) == set(checks.VERIFY_CHECKS)
    assert all(results.values())


def test_summary_check_fails_on_a_failed_row(verify_outputs):
    path = verify_outputs / "summary.csv"
    path.write_text(path.read_text().replace("viscosity,1.0,1.0,pass",
                                             "viscosity,1.0,1.0,fail"))
    assert _verify_checks(verify_outputs)["summary_all_pass"] is False


@pytest.mark.parametrize("name", checks.RESIDUAL_CSVS)
def test_residual_check_fails_on_a_changed_value(verify_outputs, name):
    path = verify_outputs / f"{name}.csv"
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[2].split(",")
    cells[3] = repr(math.nextafter(float(cells[3]), math.inf))
    lines[2] = ",".join(cells)
    path.write_text("".join(lines))
    results = _verify_checks(verify_outputs)
    assert results[f"{name}_matches_seed"] is False
    assert sum(not ok for ok in results.values()) == 1


def test_every_workload_has_a_host_probe():
    assert set(run.WORKLOADS) | {"setup"} == set(calibrate.PROBES)
    assert calibrate.probe("setup") > 0
