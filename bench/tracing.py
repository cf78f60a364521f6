"""In-memory span recorder that wraps lbmlab from outside the package.

Callers inside lbmlab look functions up in their own module's globals (for
example ``verify.py`` does ``from .scheme import step``), so a function is
wrapped once per calling module, at the attribute that caller reads.  No file
under ``src/`` changes.  An attribute that does not exist is skipped and
reported, so a later refactor shows up as lost coverage rather than a crash.

A span has a name, start and end (ns), the index of its parent span (-1 for
a root), and two numbers of work.  ``work`` and ``nbytes`` are filled by
the optional per-name extractor below (lattice nodes touched, bytes of the
arrays in and out, or bytes written to a file).
"""

from __future__ import annotations

import csv
import functools
import importlib
import os
import time
from array import array
from collections import defaultdict


def _array_io(args, out):
    f = args[0].f
    return f.size // f.shape[-1], f.nbytes + out.f.nbytes


def _file_written(args, out):
    return 0, os.path.getsize(args[0])


# (module, attribute, span name, extractor)
WRAPPED = (
    ("lbmlab.scheme", "collide", "scheme.collide", _array_io),
    ("lbmlab.scheme", "stream", "scheme.stream", _array_io),
    ("lbmlab.scheme", "step", "scheme.step", None),
    ("lbmlab.scheme", "initialize_equilibrium", "scheme.initialize_equilibrium", None),
    ("lbmlab.scheme", "load_checkpoint", "scheme.load_checkpoint", None),
    ("lbmlab.verify", "run", "verify.run", None),
    ("lbmlab.verify", "step", "verify.step", None),
    ("lbmlab.verify", "measure_viscosity", "verify.measure_viscosity", None),
    ("lbmlab.verify", "study_prop3", "verify.refinement", None),
    ("lbmlab.verify", "study_conservation_laws", "verify.refinement", None),
    ("lbmlab.verify", "study_prop5", "verify.refinement", None),
    ("lbmlab.verify", "technical_lemma_prediction",
     "analysis.technical_lemma_prediction", None),
    ("lbmlab.verify", "ns_flux_correction", "analysis.ns_flux_correction", None),
    ("lbmlab.verify", "euler_flux_divergence", "analysis.euler_flux_divergence", None),
    ("lbmlab.analysis", "conservation_defect", "analysis.conservation_defect", None),
    ("lbmlab.cli", "load_config", "config.load_config", None),
    ("lbmlab.cli", "build_components", "config.build_components", None),
    ("lbmlab.cli", "initialize_equilibrium", "scheme.initialize_equilibrium", None),
    ("lbmlab.cli", "run", "cli.run", None),
    ("lbmlab.cli", "save_checkpoint", "scheme.save_checkpoint", _file_written),
    ("lbmlab.cli", "_write_moment_fields", "cli.write_moment_fields", None),
    ("lbmlab.cli", "write_csv", "csvio.write_csv", None),
    ("lbmlab.config", "load_config", "config.load_config", None),
    ("lbmlab.config", "build_components", "config.build_components", None),
    ("lbmlab.config", "build_moment_matrix", "lattice.build_moment_matrix", None),
    ("lbmlab.config", "build_equilibrium", "equilibrium.build_equilibrium", None),
)

# The untraced run keeps only what the end-to-end metrics need: the time of
# every stepping call (``run`` or a direct ``step``) and the nodes collided.
STEPPING = {"cli.run", "verify.run", "verify.step"}
COUNTED = {"scheme.collide"}


class Tracer:
    """Records spans in memory; ``install`` patches, ``uninstall`` restores.

    Spans are stored as columns of integer arrays, which the garbage
    collector does not traverse, so a run with many calls is not slowed by
    collections over a growing list of span objects.
    """

    COLUMNS = ("start_ns", "end_ns", "parent", "work", "nbytes")

    def __init__(self):
        self.names: list[str] = []
        self.cols = {c: array("q") for c in self.COLUMNS}
        self.missing: list[str] = []
        self._stack = [-1]
        self._saved: list[tuple] = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        cols = self.cols
        cols["parent"].append(self._stack[-1])
        cols["end_ns"].append(0)
        cols["work"].append(0)
        cols["nbytes"].append(0)
        self._stack.append(idx)
        cols["start_ns"].append(time.perf_counter_ns())
        return idx

    def end(self, idx: int) -> None:
        self.cols["end_ns"][idx] = time.perf_counter_ns()
        self._stack.pop()

    def record(self, idx: int, work: int, nbytes: int) -> None:
        self.cols["work"][idx] = work
        self.cols["nbytes"][idx] = nbytes

    def _wrap(self, fn, name, extract):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(token)
            if extract is not None:
                self.record(token, *extract(args, out))
            return out
        return wrapper

    def install(self, names=None) -> None:
        """Wrap every entry of WRAPPED, or only those whose span is in names."""
        for module_name, attr, span, extract in WRAPPED:
            if names is not None and span not in names:
                continue
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span, extract))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(("name",) + self.COLUMNS)
            out.writerows(zip(self.names, *(self.cols[c] for c in self.COLUMNS)))


class Totals(Tracer):
    """Sums time and work per span name instead of keeping spans.

    Used by the untraced run, whose peak memory must not grow with the
    number of calls.
    """

    def __init__(self):
        super().__init__()
        self.ns = defaultdict(int)
        self.work = defaultdict(int)

    def begin(self, name: str):
        return name, time.perf_counter_ns()

    def end(self, token) -> None:
        name, start = token
        self.ns[name] += time.perf_counter_ns() - start

    def record(self, token, work: int, nbytes: int) -> None:
        self.work[token[0]] += work

    def stepping(self) -> tuple[float, int]:
        """Seconds inside stepping calls and the nodes collided."""
        return (sum(self.ns[n] for n in STEPPING) * 1e-9,
                sum(self.work[n] for n in COUNTED))


class SpanTable:
    """Totals, self times and counts per span name, split by root span."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.start = tracer.cols["start_ns"]
        self.end = tracer.cols["end_ns"]
        self.parent = tracer.cols["parent"]
        self.work_col = tracer.cols["work"]
        self.nbytes_col = tracer.cols["nbytes"]
        n = len(self.names)
        self.dur = [e - s for s, e in zip(self.start, self.end)]
        self.by_name = defaultdict(list)
        child_ns = [0] * n
        self.root = [0] * n
        for i, (name, parent) in enumerate(zip(self.names, self.parent)):
            self.by_name[name].append(i)
            if parent < 0:
                self.root[i] = i
            else:
                self.root[i] = self.root[parent]
                child_ns[parent] += self.dur[i]
        self.self_ns = [d - c for d, c in zip(self.dur, child_ns)]

    def roots(self, name):
        return [i for i in self.by_name[name] if self.parent[i] < 0]

    def select(self, names, root=None, parent_name=None):
        names = (names,) if isinstance(names, str) else names
        out = []
        for i in sorted(i for name in names for i in self.by_name[name]):
            if root is not None and self.names[self.root[i]] != root:
                continue
            p = self.parent[i]
            if parent_name is not None and (p < 0 or self.names[p] != parent_name):
                continue
            out.append(i)
        return out

    def total_s(self, idx) -> float:
        return sum(self.dur[i] for i in idx) * 1e-9

    def self_s(self, idx) -> float:
        return sum(self.self_ns[i] for i in idx) * 1e-9

    def work(self, idx) -> int:
        return sum(self.work_col[i] for i in idx)

    def nbytes(self, idx) -> int:
        return sum(self.nbytes_col[i] for i in idx)

    def uncovered_s(self, root_idx: int) -> float:
        """Time of a root span that none of its direct children covers."""
        top = sum(d for d, p in zip(self.dur, self.parent) if p == root_idx)
        return (self.dur[root_idx] - top) * 1e-9


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(table: SpanTable) -> dict:
    """Per-layer metrics of one traced invocation (roots: setup, cli.main, check)."""
    collide = table.select("scheme.collide")
    stream = table.select("scheme.stream")
    steps = table.select(("scheme.step", "verify.step"))
    nodes = table.work(collide)
    save = table.select("scheme.save_checkpoint", root="cli.main")
    save_s = table.total_s(save)
    visc = table.select("verify.measure_viscosity")

    def setup_s(name):
        return table.total_s(table.select(name, root="setup"))

    def total(name):
        return table.total_s(table.select(name, root="cli.main"))

    main = table.roots("cli.main")[0]
    wall_s = table.dur[main] * 1e-9
    return {
        "scheme.collide.ns_per_node": _ratio(table.total_s(collide) * 1e9, nodes),
        "scheme.stream.ns_per_node": _ratio(table.total_s(stream) * 1e9,
                                            table.work(stream)),
        "scheme.step.self_ns": _ratio(table.self_s(steps) * 1e9, len(steps)),
        "scheme.run.self_s": table.self_s(table.select(("cli.run", "verify.run"))),
        "scheme.node_updates": nodes,
        "scheme.step.bytes_per_node": _ratio(
            table.nbytes(collide) + table.nbytes(stream), nodes),
        "scheme.save_checkpoint.s": save_s,
        "scheme.save_checkpoint.mb_per_s": _ratio(table.nbytes(save) / 1e6, save_s),
        "scheme.load_checkpoint.s": table.total_s(
            table.select("scheme.load_checkpoint", root="check")),
        "csvio.write_csv.s": total("csvio.write_csv"),
        "analysis.conservation_defect.calls": len(
            table.select("analysis.conservation_defect")),
        "analysis.conservation_defect.s": total("analysis.conservation_defect"),
        "analysis.technical_lemma_prediction.s": total(
            "analysis.technical_lemma_prediction"),
        "analysis.ns_flux_correction.s": total("analysis.ns_flux_correction"),
        "analysis.euler_flux_divergence.s": total("analysis.euler_flux_divergence"),
        "verify.run.calls": len(table.select("verify.run")),
        "verify.refinement.s": total("verify.refinement"),
        "verify.measure_viscosity.s": table.total_s(visc),
        "verify.measure_viscosity.steps": len(
            table.select("verify.step", parent_name="verify.measure_viscosity")),
        "verify.viscosity.sample_self_s": table.self_s(visc),
        "config.load_config.s": setup_s("config.load_config"),
        "config.build_components.s": setup_s("config.build_components"),
        "lattice.build_moment_matrix.s": setup_s("lattice.build_moment_matrix"),
        "equilibrium.build_equilibrium.s": setup_s("equilibrium.build_equilibrium"),
        "trace.wall_s": wall_s,
        "trace.uncovered_frac": _ratio(table.uncovered_s(main), wall_s),
    }
