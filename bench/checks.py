"""Output checks of the benchmark workloads.

Each check returns ``(name, ok, detail)``.  References were recorded from the
seed commit's outputs (see ``reference/``):

* ``run``: the checkpoint is reloaded with ``lbmlab.scheme.load_checkpoint``
  and compared, as a small fingerprint, with the recorded one.
* ``verify``: every ``summary.csv`` row must pass, and the refinement
  residual CSVs must equal the recorded ones value for value.  Viscosity is
  checked by its summary row only, because its oracle is expected to change.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import lbmlab.scheme
from lbmlab.errors import LbmError

# Float noise from reordered sums is allowed; a changed result is not.
FINGERPRINT_RTOL = 1e-10
MASS_DRIFT_MAX = 1e-12

VERIFY_EXPERIMENTS = ("prop3", "prop4", "prop5", "prop6", "mass", "viscosity")
RESIDUAL_CSVS = ("prop3", "prop4", "prop5", "prop6", "mass")

RUN_CHECKS = ("checkpoint_finite", "checkpoint_steps", "mass_drift",
              "fingerprint", "moments_rows")
VERIFY_CHECKS = ("summary_all_pass",) + tuple(f"{name}_matches_seed"
                                              for name in RESIDUAL_CSVS)


def fingerprint(f: np.ndarray) -> list[float]:
    """Per-population mean and RMS deviation, plus two sampled nodes."""
    flat = f.reshape(-1, f.shape[-1])
    mean = flat.mean(axis=0)
    rms = np.sqrt(((flat - mean) ** 2).mean(axis=0))
    return [float(x) for x in np.concatenate([mean, rms, flat[0], flat[len(flat) // 3]])]


def _close(a, b, rtol) -> bool:
    return len(a) == len(b) and all(
        abs(x - y) <= rtol * max(abs(y), 1e-300) for x, y in zip(a, b))


def check_run(outdir, steps: int, initial_mass: float, reference: dict):
    outdir = Path(outdir)
    try:
        state, info = lbmlab.scheme.load_checkpoint(outdir / "checkpoint.csv")
    except (OSError, ValueError, KeyError, LbmError) as exc:
        return [(name, False, f"checkpoint unreadable: {exc}") for name in RUN_CHECKS]
    f = state.f
    finite = bool(np.all(np.isfinite(f)))
    drift = abs(float(f.sum()) - initial_mass) / abs(initial_mass)
    fp = fingerprint(f)
    return [
        ("checkpoint_finite", finite, "" if finite else "non-finite populations"),
        ("checkpoint_steps", info["step"] == steps, f"step={info['step']}"),
        ("mass_drift", finite and drift <= MASS_DRIFT_MAX, f"drift={drift:.3e}"),
        ("fingerprint", finite and _close(fp, reference["fingerprint"], FINGERPRINT_RTOL),
         "" if finite else "non-finite populations"),
        _check_moments(outdir / "moments.csv", f.size // f.shape[-1]),
    ]


def _check_moments(path, nodes: int):
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        ok = len(rows) == nodes + 1 and all(
            math.isfinite(float(x)) for row in rows[1:] for x in row)
        detail = f"{len(rows) - 1} rows for {nodes} nodes"
    except (OSError, ValueError) as exc:
        ok, detail = False, str(exc)
    return ("moments_rows", ok, detail)


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _same_values(rows, ref_rows) -> bool:
    """Equal header and every cell equal as a float (nan equals nan)."""
    if len(rows) != len(ref_rows) or rows[:1] != ref_rows[:1]:
        return False
    for row, ref in zip(rows[1:], ref_rows[1:]):
        if len(row) != len(ref):
            return False
        for x, y in zip(row, ref):
            a, b = float(x), float(y)
            if not (a == b or (math.isnan(a) and math.isnan(b))):
                return False
    return True


def check_verify(outdir, reference_dir):
    outdir, reference_dir = Path(outdir), Path(reference_dir)
    try:
        summary = {row[0]: row[3] for row in _read_rows(outdir / "summary.csv")[1:]}
        ok = (set(summary) == set(VERIFY_EXPERIMENTS)
              and all(v == "pass" for v in summary.values()))
        results = [("summary_all_pass", ok, json.dumps(summary))]
    except (OSError, IndexError) as exc:
        results = [("summary_all_pass", False, str(exc))]
    for name in RESIDUAL_CSVS:
        try:
            ok = _same_values(_read_rows(outdir / f"{name}.csv"),
                              _read_rows(reference_dir / f"{name}.csv"))
            detail = "" if ok else "differs from the seed"
        except (OSError, ValueError) as exc:
            ok, detail = False, str(exc)
        results.append((f"{name}_matches_seed", ok, detail))
    return results
