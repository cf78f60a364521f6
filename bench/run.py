"""Benchmark of lbmlab, driven only through the CLI entry point ``lbmlab.cli.main``.

Run from the root of a checkout:

    python3 bench/run.py --workload run-256 --seed 1 --seconds 50 --trace 0

Closed loop with one client: each invocation of a workload is a fresh child
process (``child.py``), started after the previous one has ended, with BLAS
pinned to one thread.  The loop repeats invocations until ``--seconds`` have
passed (at least one) and reports medians.  Every input is a closed-form sine
field from the workload's config in ``workloads/``, so ``--seed`` is recorded
but changes nothing; the output checks compare against the seed commit's
results in ``reference/``.

The host is a share of a machine whose speed drifts, so every timed
invocation and set-up sample also times a fixed probe kernel of the benchmark
(``calibrate.py``), and ``wall_s``, ``mlups`` and ``setup_s`` are reported at
the probe's reference speed: each sample is scaled by reference / probe time
before the median is taken.  The unscaled figures are printed as comments.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes one untraced
and one traced invocation and prints the per-layer metrics; the spans of the
traced one are written to ``.bench_out/<workload>/spans.csv``.  The last line
of standard output is one JSON object: correct, attempted, failed (output
checks) and metrics.  The line before it records the run environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

# workload -> CLI command; the config is workloads/<workload>.ini
WORKLOADS = {"run-256": "run", "verify-default": "verify", "verify-refine": "verify"}

SETUPS_PER_RUN = 2
SETUP_SAMPLES = 12
CHILD_TIMEOUT_S = 170

END_TO_END = {"wall_s": "s", "mlups": "MLUPS", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "scheme.collide.ns_per_node": "ns",
    "scheme.stream.ns_per_node": "ns",
    "scheme.step.self_ns": "ns",
    "scheme.run.self_s": "s",
    "scheme.node_updates": "count",
    # computed from array sizes: populations in and out of collide and stream
    "scheme.step.bytes_per_node": "B",
    "kernel.moments_of.ns_per_node": "ns",
    "kernel.equilibrium_moments.ns_per_node": "ns",
    "kernel.relax.ns_per_node": "ns",
    "kernel.collide.ns_per_node": "ns",
    # derived: kernel.collide minus the three parts above
    "kernel.back_transform.ns_per_node": "ns",
    "scheme.save_checkpoint.s": "s",
    "scheme.save_checkpoint.mb_per_s": "MB/s",
    "scheme.load_checkpoint.s": "s",
    "csvio.write_csv.s": "s",
    "analysis.conservation_defect.calls": "count",
    "analysis.conservation_defect.s": "s",
    "analysis.technical_lemma_prediction.s": "s",
    "analysis.ns_flux_correction.s": "s",
    "analysis.euler_flux_divergence.s": "s",
    "verify.run.calls": "count",
    "verify.refinement.s": "s",
    "verify.measure_viscosity.s": "s",
    "verify.measure_viscosity.steps": "count",
    "verify.viscosity.sample_self_s": "s",
    "config.load_config.s": "s",
    "config.build_components.s": "s",
    "lattice.build_moment_matrix.s": "s",
    "equilibrium.build_equilibrium.s": "s",
    "import.s": "s",
    "trace.wall_s": "s",
    "trace.uncovered_frac": "frac",
    "trace.overhead_frac": "frac",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cache_sizes() -> dict:
    # glibc sysconf numbers of _SC_LEVEL{1_DCACHE,2_CACHE,3_CACHE}_SIZE
    out = {}
    for label, number in (("l1d", 188), ("l2", 191), ("l3", 194)):
        try:
            out[label] = os.sysconf(number)
        except (ValueError, OSError):
            out[label] = None
    return out


def child(spec: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{spec['mode']} child exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{spec['mode']} child exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _spread(values) -> str:
    return (f"median {statistics.median(values):.6g} of {len(values)}, "
            f"min {min(values):.6g}, max {max(values):.6g}")


def base_spec(workload: str, out: Path) -> dict:
    """Child spec of a workload; add ``mode`` (and ``out`` to run the CLI)."""
    command = WORKLOADS[workload]
    return {
        "workload": workload,
        "src": str(ROOT / "src"),
        "config": str(BENCH / "workloads" / f"{workload}.ini"),
        "command": command,
        "reference": str(BENCH / "reference" / (
            f"{workload}.json" if command == "run" else workload)),
        "spans": str(out / "spans.csv"),
    }


def measure(workload: str, seconds: float, trace: bool) -> tuple[dict, dict, list]:
    """Runs the children of one benchmark run; returns metrics, env, records."""
    out = OUT / workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    base = base_spec(workload, out)
    # The first child fills the page cache and the bytecode cache; it only
    # reports the environment.
    env = child({**base, "mode": "setup", "environment": True})["environment"]
    setups, runs = [], []

    def invoke(mode, k):
        inv_out = out / f"inv-{k}"
        rec = child({**base, "mode": mode, "out": str(inv_out)})
        shutil.rmtree(inv_out, ignore_errors=True)
        return rec

    # Set-up samples are interleaved with the invocations, so that both see
    # the same spells of host speed.
    start = time.monotonic()
    while not runs or (not trace and time.monotonic() - start < seconds):
        if not trace:
            setups += [child({**base, "mode": "setup"}) for _ in range(SETUPS_PER_RUN)]
        runs.append(invoke("run", len(runs)))
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(child({**base, "mode": "setup"}))
    records = setups + runs
    if trace:
        traced = invoke("trace", len(runs))
        records.append(traced)
        metrics = dict(traced["layers"])
        metrics["trace.overhead_frac"] = traced["wall_s"] / runs[0]["wall_s"] - 1.0
        metrics = {name: (metrics[name], unit) for name, unit in PER_LAYER.items()}
        if traced["missing_wrappers"]:
            print("missing wrappers: " + ", ".join(traced["missing_wrappers"]),
                  file=sys.stderr)
    else:
        # speed of the host during each invocation relative to the probe's
        # reference (see calibrate.py); times are reported at reference speed
        speed = [r["probe_reference_s"] / r["probe_s"] for r in runs]
        setup_speed = [r["probe_reference_s"] / r["probe_s"] for r in setups]
        raw = {
            "wall_s": [r["wall_s"] for r in runs],
            "mlups": [r["node_updates"] / r["stepping_s"] / 1e6 for r in runs],
            "setup_s": [r["setup_s"] for r in setups],
        }
        samples = {
            "wall_s": [w * v for w, v in zip(raw["wall_s"], speed)],
            "mlups": [m / v for m, v in zip(raw["mlups"], speed)],
            "setup_s": [t * v for t, v in zip(raw["setup_s"], setup_speed)],
            "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        }
        print(f"# host speed / reference: {_spread(speed)}; "
              f"during set-up: {_spread(setup_speed)}")
        for name, values in raw.items():
            print(f"# {name} before scaling to reference speed: {_spread(values)}")
        metrics = {}
        for name, unit in END_TO_END.items():
            metrics[name] = (statistics.median(samples[name]), unit)
            print(f"# {name}: {_spread(samples[name])}")
    return metrics, env, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lbmlab" / "__init__.py").is_file():
        print(f"bench: no lbmlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        metrics, env, records = measure(args.workload, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    checks = [c for r in records for c in r.get("checks", [])]
    failed = [c for c in checks if not c[1]]
    for name, ok, detail in failed:
        print(f"# check failed: {name} {detail}", file=sys.stderr)
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, git_commit=git_commit(), nproc=os.cpu_count(),
               cache_bytes=cache_sizes())
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {len(failed) / len(checks):.6g} ({len(failed)} of "
          f"{len(checks)} output checks)")
    (OUT / args.workload / "result.json").write_text(json.dumps(
        {"environment": env, "metrics": metrics, "records": records}, indent=1))
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
