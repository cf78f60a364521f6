"""Host-speed probe: fixed kernels of the benchmark's own, in Python and numpy.

The benchmark host is a few vCPUs of a shared machine whose speed drifts by up
to 1.6x over seconds to minutes (process CPU time drifts with wall time, so
this is not steal time).  Each timed invocation of lbmlab is bracketed by two
halves of a probe, and the end-to-end times are reported per invocation as
``wall * reference_s / probe_s``: seconds at the speed the host had when the
probe took ``reference_s``.  The probe is code of the benchmark, not of
lbmlab, so a change to lbmlab moves the reported times and a change of host
speed largely cancels.

A probe is a sequence of parts chosen to slow down as the workload does:
``run-256`` streams arrays larger than L2, so its probe is a D2Q9 BGK step on
the same grid; the ``verify-*`` workloads mix interpreter overhead with small
and mid-sized numpy calls on N x 8 grids, so their probe mixes a pure Python
loop with BGK steps on a 128 x 8 and a 512 x 8 grid (on the reference host,
each of the three parts alone tracked a verify invocation less closely than
their sum).  A set-up sample is mostly imports, so its probe is the Python
loop with a short small-grid part.
"""

from __future__ import annotations

import time

import numpy as np

_C = np.array([[0, 0], [1, 0], [0, 1], [-1, 0], [0, -1],
               [1, 1], [-1, 1], [-1, -1], [1, -1]])
_CF = _C.astype(float)
_W = np.array([4 / 9] + [1 / 9] * 4 + [1 / 36] * 4)

_VERIFY = (("python", 3_000_000), ("bgk", 128, 8, 600), ("bgk", 512, 8, 210))

# probe -> (parts of one half, reference seconds of both halves).  A
# workload's invocations are bracketed by two halves of the probe named after
# it; a set-up sample is followed by one half of the "setup" probe.  The
# reference is a round number of the order of the probe's time (on a 2-vCPU
# KVM host with Python 3.11, numpy 2.4 and OpenBLAS pinned to one thread, the
# verify and set-up probes took about 1.5x theirs); it only sets the scale of
# the reported seconds.
PROBES = {
    "run-256": ((("bgk", 256, 256, 24),), 1.0),
    "verify-default": (_VERIFY, 1.0),
    "verify-refine": (_VERIFY, 1.0),
    "setup": ((("python", 1_200_000), ("bgk", 64, 8, 200)), 0.1),
}


def _equilibrium(rho, u):
    cu = u @ _CF.T
    uu = (u * u).sum(-1)[..., None]
    return _W * rho[..., None] * (1 + 3 * cu + 4.5 * cu * cu - 1.5 * uu)


def _bgk(nx: int, ny: int, steps: int) -> None:
    x = np.arange(nx)[:, None] * (2 * np.pi / nx)
    rho = np.ones((nx, ny)) + 0.01 * np.sin(x)
    u = np.zeros((nx, ny, 2))
    u[..., 0] = 0.02 * np.sin(x)
    f = _equilibrium(rho, u)
    for _ in range(steps):
        rho = f.sum(-1)
        u = (f @ _CF) / rho[..., None]
        f = f + (_equilibrium(rho, u) - f) / 0.8
        f = np.stack([np.roll(f[..., i], tuple(_C[i]), (0, 1)) for i in range(9)], -1)
    mass = float(f.sum())
    if not abs(mass - nx * ny) < 1e-6 * nx * ny:
        raise RuntimeError(f"host probe lost mass: {mass} != {nx * ny}")


def _python(iterations: int) -> None:
    total = 0
    for i in range(iterations):
        total += i % 13
    if total != 78 * (iterations // 13) + sum(range(iterations % 13)):
        raise RuntimeError("host probe miscounted")


_KERNELS = {"bgk": _bgk, "python": _python}


def probe(name: str) -> float:
    """Seconds of one half of the probe ``name``."""
    t = time.perf_counter()
    for kind, *args in PROBES[name][0]:
        _KERNELS[kind](*args)
    return time.perf_counter() - t


def reference_s(name: str) -> float:
    return PROBES[name][1]
