"""One benchmark invocation in a fresh interpreter; prints one JSON line.

Started by ``run.py`` as ``python child.py '<json spec>'`` with PYTHONPATH set
to the checkout's ``src``.  Modes:

* ``setup``: time ``import lbmlab`` + ``load_config`` + ``build_components`` +
  ``initialize_equilibrium`` on the workload's config, then take one half of
  the "setup" host-speed probe (``calibrate.py``) and exit.
* ``run``: the same set-up, then one timed ``lbmlab.cli.main`` call,
  bracketed by the two halves of the host-speed probe (``calibrate.py``), and
  the output checks.  Only the stepping calls are wrapped, to time them and count
  the nodes collided, and no spans are kept (see ``tracing.Totals``).
* ``trace``: as ``run`` with every wrapper of ``tracing.WRAPPED`` installed,
  plus the ``kernel.*`` timings of public functions on the set-up state.
"""

import time

_T0 = time.perf_counter()
import lbmlab  # noqa: E402  (the import is part of the timed set-up)

_IMPORT_S = time.perf_counter() - _T0

import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import lbmlab.cli  # noqa: E402
import lbmlab.config  # noqa: E402
import lbmlab.equilibrium  # noqa: E402
import lbmlab.scheme  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402

KERNEL_REPEATS = 7


def _blas_threads():
    """Thread count OpenBLAS reports, or None when the library is not found."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment(cfg) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "config_sha256": hashlib.sha256(
            lbmlab.config.config_text(cfg).encode()).hexdigest(),
    }


def _median_ns(fn) -> float:
    times = []
    for _ in range(KERNEL_REPEATS):
        t = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t)
    return statistics.median(times)


def kernel_metrics(bundle, state) -> dict:
    """Public kernel functions timed on the workload's set-up state."""
    sch, eq = lbmlab.scheme, lbmlab.equilibrium
    vs, mm, model, params = bundle.vs, bundle.mm, bundle.model, bundle.params
    nodes = state.f.size // state.f.shape[-1]
    nc = mm.d + 1
    m = sch.moments_of(state, mm)
    m_eq = eq.equilibrium_moments(model, vs, mm, m[..., :nc])
    ns = {
        "moments_of": _median_ns(lambda: sch.moments_of(state, mm)),
        "equilibrium_moments": _median_ns(
            lambda: eq.equilibrium_moments(model, vs, mm, m[..., :nc])),
        "relax": _median_ns(lambda: sch.relaxation_ode_euler_step(
            m[..., nc:], m_eq[..., nc:], params.tau, params.dt)),
        "collide": _median_ns(lambda: sch.collide(state, mm, model, params)),
    }
    out = {f"kernel.{k}.ns_per_node": v / nodes for k, v in ns.items()}
    out["kernel.back_transform.ns_per_node"] = (
        ns["collide"] - ns["moments_of"] - ns["equilibrium_moments"] - ns["relax"]
    ) / nodes
    return out


def _set_up(config):
    cfg = lbmlab.config.load_config(config)
    bundle = lbmlab.config.build_components(cfg)
    W0 = bundle.field.conserved(bundle.grid_shape, bundle.params.dx)
    return cfg, bundle, lbmlab.scheme.initialize_equilibrium(bundle.model, bundle.vs, W0)


def _check(spec, cfg, initial_mass, exit_code):
    names = checks.RUN_CHECKS if spec["command"] == "run" else checks.VERIFY_CHECKS
    if exit_code != 0:
        return [(name, False, f"exit code {exit_code}") for name in names]
    if spec["command"] == "run":
        reference = json.loads(Path(spec["reference"]).read_text())
        return checks.check_run(spec["out"], cfg.steps, initial_mass, reference)
    return checks.check_verify(spec["out"], spec["reference"])


def main(spec) -> dict:
    src = Path(spec["src"]).resolve()
    if src not in Path(lbmlab.__file__).resolve().parents:
        raise SystemExit(f"lbmlab imported from {lbmlab.__file__}, not from {src}")
    traced = spec["mode"] == "trace"
    tracer = tracing.Tracer() if traced else tracing.Totals()
    if traced:
        tracer.install()
        root = tracer.begin("setup")
    t = time.perf_counter()
    cfg, bundle, state = _set_up(spec["config"])
    result = {"setup_s": _IMPORT_S + time.perf_counter() - t, "import_s": _IMPORT_S}
    if traced:
        tracer.end(root)
    if spec.get("environment"):
        result["environment"] = environment(cfg)
    if spec["mode"] == "setup":
        result["probe_s"] = calibrate.probe("setup")
        result["probe_reference_s"] = calibrate.reference_s("setup")
        return result

    initial_mass = float(state.f.sum())
    del state
    if not traced:
        tracer.install(tracing.STEPPING | tracing.COUNTED)
    argv = [spec["command"], "--config", spec["config"], "--out", spec["out"], "--quiet"]
    if spec["command"] == "verify":
        argv += ["--study", "all"]
    if not traced:
        probe_s = calibrate.probe(spec["workload"])
    root = tracer.begin("cli.main")
    t = time.perf_counter()
    try:
        exit_code = lbmlab.cli.main(argv)
    except Exception:  # the program crashed: record it as a failed run
        traceback.print_exc()
        exit_code = -1
    result["wall_s"] = time.perf_counter() - t
    tracer.end(root)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["exit_code"] = exit_code
    if not traced:
        result["probe_s"] = probe_s + calibrate.probe(spec["workload"])
        result["probe_reference_s"] = calibrate.reference_s(spec["workload"])
        tracer.uninstall()
        result["stepping_s"], result["node_updates"] = tracer.stepping()

    root = tracer.begin("check")
    result["checks"] = _check(spec, cfg, initial_mass, exit_code)
    tracer.end(root)
    if traced:
        tracer.uninstall()
        result["layers"] = tracing.layer_metrics(tracing.SpanTable(tracer))
        result["layers"].update(kernel_metrics(bundle, _set_up(spec["config"])[2]))
        result["layers"]["import.s"] = _IMPORT_S
        result["missing_wrappers"] = tracer.missing
        tracer.write(spec["spans"])
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
