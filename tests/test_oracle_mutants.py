"""Mutation gate for the verification oracles.

Each mutant replaces one piece of text in a copy of ``src/`` and runs
``lbmlab verify`` on the default config against that copy, in a fresh
process, with the narrowest study that should catch it.  A mutant is caught
when the run exits 5 and its summary marks that study ``fail``.  A mutant
whose text is no longer in the source fails the test, so a refactor has to
carry its mutants along instead of dropping them.

The ``xfail(strict=True)`` mutants are wrong programs the default oracles
are known to miss; each stops being an expected failure, and so fails
loudly, once an oracle catches it.
"""

import csv
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from lbmlab.cli import EXIT_OK, EXIT_VERIFICATION

SRC = Path(__file__).resolve().parents[1] / "src"

COEFF = "coeff = params.dt * (1.0 / params.s - 0.5)"
PLAN = "plan = _stream_plan(tuple(map(tuple, vs.e.tolist())), grid)\n"
# The D2Q9 directions are ordered (0,0), the four axes, then (1,1), (-1,1),
# (-1,-1), (1,-1); swapping the stream plans of two diagonals streams both
# with one velocity component reversed.
SWAP_X = PLAN + "    plan = plan[:5] + (plan[6], plan[5]) + plan[7:]\n"
SWAP_Y = PLAN + "    plan = plan[:6] + (plan[7], plan[6]) + plan[8:]\n"

# Item H of ROADMAP.md closes these gaps: a refinement field that varies
# along y and distinct relaxation rates by default.
BLIND_SPOT = "ROADMAP item H: the default oracles miss this mutant"


def blind_spot(*args, id):
    return pytest.param(*args, id=id,
                        marks=pytest.mark.xfail(strict=True, reason=BLIND_SPOT))


MUTANTS = [
    pytest.param("analysis.py", COEFF, "coeff = params.dt * (1.0 / params.s)",
                 "prop6", id="mu-without-minus-half"),
    pytest.param("analysis.py", "(params.dt / params.s) * theta",
                 "(params.dt * params.s) * theta", "prop5",
                 id="lemma-dt-times-s"),
    pytest.param("scheme.py", PLAN, SWAP_X, "viscosity",
                 id="diagonal-x-reversed"),
    pytest.param("scheme.py", "s = params.s[:, None]\n",
                 "s = params.s[:, None] * (1 + 1e-7)\n", "viscosity",
                 id="collide-s-off-by-1e-7"),
    blind_spot("analysis.py", "for b in range(mm.d):\n        flux +=",
               "for b in range(1):\n        flux +=", "prop5",
               id="theta-without-y-derivatives"),
    blind_spot("analysis.py", COEFF, "coeff = params.dt * (1.0 / params.s[::-1] - 0.5)",
               "prop6", id="s-paired-with-the-wrong-moment"),
    blind_spot("scheme.py", PLAN, SWAP_Y, "prop4", id="diagonal-y-reversed"),
]


def _verify(tmp_path, study, module=None, old=None, new=None):
    """Exit code and per-study verdicts of ``lbmlab verify`` on the default
    config, run on a copy of ``src/`` with ``old`` replaced by ``new``."""
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    if module is not None:
        target = src / "lbmlab" / module
        target.write_text(target.read_text().replace(old, new))
    config = tmp_path / "default.ini"
    config.write_text("")
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "lbmlab.cli", "verify", "--quiet", "--study", study,
         "--config", str(config), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    if not (out / "summary.csv").exists():
        return proc.returncode, {}
    with open(out / "summary.csv", newline="") as fh:
        return proc.returncode, {row["experiment"]: row["passed"]
                                 for row in csv.DictReader(fh)}


@pytest.mark.parametrize("module, old",
                         [pytest.param(*p.values[:2], id=p.id) for p in MUTANTS])
def test_mutant_text_is_in_the_source(module, old):
    # checked apart from the mutant runs, which an xfail marker would excuse
    assert (SRC / "lbmlab" / module).read_text().count(old) == 1


def test_unmutated_source_passes(tmp_path):
    code, verdicts = _verify(tmp_path, "all")
    assert code == EXIT_OK and set(verdicts.values()) == {"pass"}


@pytest.mark.parametrize("module, old, new, study", MUTANTS)
def test_mutant_is_caught(tmp_path, module, old, new, study):
    code, verdicts = _verify(tmp_path, study, module, old, new)
    assert code == EXIT_VERIFICATION and verdicts[study] == "fail"
