"""Run code in a fresh Python interpreter, for tests whose reading must not
depend on what the suite ran before (imports, first-call allocations)."""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
# lbmlab from this checkout, and the test modules for their helpers
PYTHONPATH = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])


def fresh_python(code, *args, env=None):
    """What ``python -c code *args`` prints in a new interpreter run with
    ``env`` (by default this process's environment); a nonzero exit fails."""
    env = {**(os.environ if env is None else env), "PYTHONPATH": PYTHONPATH}
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
