"""Time stepping: moment-space relaxation followed by exact streaming.

One step is stream(collide(state)).  Collision is node-local: moments are
formed with M, the non-conserved ones are relaxed toward equilibrium with
per-moment ratios s_k, and populations are rebuilt with the precomputed
M^-1.  Streaming moves each population one link on the periodic grid
(f_j(x) <- f_j(x - e_j)) by copying at most 2^d contiguous blocks per
population, never by interpolation, so transport is exact: the CFL number is
1 in every direction by construction (v_j dt = e_j dx).

Both kernels compute on population-major storage, one row of nodes per
population (Wittmann et al., Comput. Math. Appl. 65 (2013)), so ``run``
steps without copying between layouts; see ``SchemeState``.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .csvio import format_value, write_rows
from .equilibrium import EquilibriumModel, _populations, equilibrium_distribution
from .errors import (
    ComponentMismatch,
    InvalidRelaxation,
    LbmError,
    ShapeError,
    SimulationDiverged,
)
from .lattice import MomentMatrix, VelocitySet

CHECK_INTERVAL = 64


@dataclass(frozen=True)
class SchemeParams:
    """Space step, time step and relaxation ratios s_k for k = d+1..J."""

    dx: float
    dt: float
    s: np.ndarray

    def __post_init__(self):
        if not (self.dx > 0 and self.dt > 0):
            raise InvalidRelaxation(f"dx and dt must be positive, got {self.dx}, {self.dt}")
        s = np.atleast_1d(np.asarray(self.s, dtype=float)).copy()
        if not np.all((s > 0.0) & (s <= 2.0)):
            raise InvalidRelaxation(
                f"relaxation ratios {s.tolist()} violate the stability bound 0 < s <= 2"
            )
        s.flags.writeable = False
        object.__setattr__(self, "s", s)

    @property
    def lam(self) -> float:
        return self.dx / self.dt

    @property
    def tau(self) -> np.ndarray:
        """Relaxation times tau_k = dt / s_k."""
        return self.dt / self.s


@dataclass
class SchemeState:
    """Populations on a periodic grid plus an integer step counter.

    ``f`` has shape (*grid_shape, J+1) in every state.  Its memory order
    depends on who made it: ``initialize_equilibrium``, ``step``, ``run`` and
    ``load_checkpoint`` return C-contiguous node-major arrays (the J+1
    populations of a node are adjacent), which is what flat sums and the CSV
    writers read.  ``collide`` and ``stream`` return a view of C-contiguous
    population-major storage of shape (J+1, nodes), so a run of them makes no
    copy between layouts; both accept either order.  Time is tracked as an
    integer count so long runs accumulate no floating-point drift in t.
    """

    f: np.ndarray
    steps: int = 0

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return self.f.shape[:-1]

    def time(self, dt: float) -> float:
        return self.steps * dt


def initialize_equilibrium(model: EquilibriumModel, vs: VelocitySet, W) -> SchemeState:
    """State with f = G(W(x)) at every node and the step counter at zero."""
    return SchemeState(f=equilibrium_distribution(model, vs, W), steps=0)


def moments_of(state, mm: MomentMatrix) -> np.ndarray:
    """Per-node moment vectors m = M f, shape (*grid, J+1)."""
    f = state.f if isinstance(state, SchemeState) else np.asarray(state, dtype=float)
    if f.shape[-1] != mm.M.shape[0]:
        raise ShapeError(
            f"expected {mm.M.shape[0]} populations per node, got {f.shape[-1]}"
        )
    return f @ mm.M.T


def relax_update(m, m_eq, s):
    # The update of relaxation_ode_euler_step(), which collide() evaluates in
    # place in the same order: both sides of the explicit-Euler identity must
    # evaluate the exact same expression so the results agree to the last bit.
    return m - s * (m - m_eq)


def relaxation_ode_euler_step(m, m_eq, tau, dt):
    """Explicit Euler step of d/dt (m - m_eq) = -(m - m_eq)/tau.

    Equals the collision update of a single moment bit-for-bit whenever the
    ratio s = dt/tau handed to collide was formed by this same division.
    """
    return relax_update(m, m_eq, dt / tau)


def _check_scales(mm: MomentMatrix, model: EquilibriumModel, params: SchemeParams):
    if not np.array_equal(model.velocities, mm.velocities):
        raise ComponentMismatch("equilibrium model and moment matrix use different velocities")
    if abs(params.lam - mm.lam) > 1e-12 * mm.lam:
        raise ComponentMismatch(
            f"params imply lam={params.lam!r} but the moment matrix was built with lam={mm.lam!r}"
        )


def _fail_at_first(bad: np.ndarray, problem: str, when: str) -> None:
    """Raise SimulationDiverged naming the first node where the mask ``bad`` holds."""
    if np.any(bad):
        node = tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
        raise SimulationDiverged(f"{problem} at node {node} {when}")


def _populations_first(f: np.ndarray) -> np.ndarray:
    """(J+1, *grid) view of populations f of shape (*grid, J+1)."""
    return f.transpose(f.ndim - 1, *range(f.ndim - 1))


def _populations_last(storage: np.ndarray) -> np.ndarray:
    """(*grid, J+1) view of storage of shape (J+1, *grid)."""
    return storage.transpose(*range(1, storage.ndim), 0)


def _node_major(state: SchemeState) -> SchemeState:
    """``state`` itself if its populations are C-contiguous, else a C-contiguous copy."""
    if state.f.flags.c_contiguous:
        return state
    return SchemeState(f=np.ascontiguousarray(state.f), steps=state.steps)


def collide(state: SchemeState, mm: MomentMatrix, model: EquilibriumModel,
            params: SchemeParams) -> SchemeState:
    """Node-local relaxation in moment space; conserved moments are copied.

    m*_k = m_k for k <= d, m*_k = m_k - s_k (m_k - m_eq,k) otherwise, then
    f* = M^-1 m*.  No neighbor access.  Computed population-major; the
    result's ``f`` is a view of (J+1, nodes) storage (see ``SchemeState``).
    """
    _check_scales(mm, model, params)
    nc = mm.d + 1
    if params.s.shape[0] != mm.J - mm.d:
        raise ShapeError(
            f"expected {mm.J - mm.d} relaxation ratios, got {params.s.shape[0]}"
        )
    f = state.f
    if f.shape[-1] != mm.M.shape[0]:
        raise ShapeError(
            f"expected {mm.M.shape[0]} populations per node, got {f.shape[-1]}"
        )
    grid = f.shape[:-1]
    m = mm.M @ _populations_first(f).reshape(f.shape[-1], -1)
    _fail_at_first((m[0] <= 0.0).reshape(grid), "non-positive density",
                   f"entering step {state.steps + 1}")
    # All of M, not M[nc:]: with one relaxed row numpy would take a matrix-vector
    # product, whose sums may round differently from f @ M.T's.
    relaxed = (mm.M @ _populations(model, m[:nc]))[nc:]
    # relax_update's m - s (m - m_eq), evaluated in place on the relaxed rows
    np.subtract(m[nc:], relaxed, out=relaxed)
    relaxed *= params.s[:, None]
    m[nc:] -= relaxed
    f_star = (mm.M_inv @ m).reshape(-1, *grid)
    return SchemeState(f=_populations_last(f_star), steps=state.steps)


def _shifted_blocks(shift: int, n: int):
    """(destination, source) slice pairs of a periodic shift along n nodes."""
    k = shift % n
    if k == 0:
        return ((slice(None), slice(None)),)
    return ((slice(k, None), slice(None, n - k)), (slice(None, k), slice(n - k, None)))


def stream(state: SchemeState, vs: VelocitySet) -> SchemeState:
    """Advect every population one lattice link: f_j(x) <- f_j(x - e_j).

    Each population is copied as at most 2^d periodic blocks, a permutation
    of storage with no arithmetic, so transported values are bit-identical.
    The result's ``f`` is a view of population-major storage.
    """
    f = state.f
    if f.shape[-1] != vs.J + 1:
        raise ShapeError(f"expected {vs.J + 1} populations per node, got {f.shape[-1]}")
    grid = f.shape[:-1]
    src = _populations_first(f)
    out = np.empty((vs.J + 1, *grid))
    for j, e in enumerate(vs.e.tolist()):
        out_j, src_j = out[j], src[j]
        for pairs in itertools.product(*map(_shifted_blocks, e, grid)):
            to, from_ = zip(*pairs)
            out_j[to] = src_j[from_]
    return SchemeState(f=_populations_last(out), steps=state.steps)


def _advance(state: SchemeState, vs: VelocitySet, mm: MomentMatrix,
             model: EquilibriumModel, params: SchemeParams) -> SchemeState:
    # looked up on the module at every call, where bench/tracing.py counts them
    new = stream(collide(state, mm, model, params), vs)
    new.steps = state.steps + 1
    return new


def step(state: SchemeState, vs: VelocitySet, mm: MomentMatrix,
         model: EquilibriumModel, params: SchemeParams) -> SchemeState:
    """One full update: collision then streaming; advances the step counter.

    The result is node-major, as ``run``'s.
    """
    return _node_major(_advance(state, vs, mm, model, params))


def run(state: SchemeState, n_steps: int, vs: VelocitySet, mm: MomentMatrix,
        model: EquilibriumModel, params: SchemeParams) -> SchemeState:
    """Apply n_steps full updates, checking for divergence every
    CHECK_INTERVAL steps and after the last.

    The populations stay population-major between steps and are made
    node-major once, before returning.
    """
    for i in range(n_steps):
        state = _advance(state, vs, mm, model, params)
        if (i + 1) % CHECK_INTERVAL == 0 or i + 1 == n_steps:
            check_finite(state)
    return _node_major(state)


def check_finite(state: SchemeState) -> None:
    """Raise SimulationDiverged naming the first node with a non-finite population."""
    _fail_at_first(~np.isfinite(state.f).all(axis=-1), "non-finite populations",
                   f"after {state.steps} steps")


def total_mass(state: SchemeState) -> float:
    return float(state.f.sum())


def total_momentum(state: SchemeState, mm: MomentMatrix) -> np.ndarray:
    v = mm.velocities  # (J+1, d)
    flat = state.f.reshape(-1, v.shape[0])
    return flat.sum(axis=0) @ v


def conservation_audit(initial: SchemeState, final: SchemeState,
                       mm: MomentMatrix) -> dict:
    """Relative drift of global mass and momentum between two states.

    Momentum drift is measured relative to max(|initial momentum|, mass * lam)
    per component so a zero-mean flow does not divide by zero.
    """
    mass0, mass1 = total_mass(initial), total_mass(final)
    mom0, mom1 = total_momentum(initial, mm), total_momentum(final, mm)
    mass_scale = abs(mass0)
    mom_scale = np.maximum(np.abs(mom0), mass_scale * mm.lam)
    return {
        "mass_drift": abs(mass1 - mass0) / mass_scale,
        "momentum_drift": np.abs(mom1 - mom0) / mom_scale,
        "mass_initial": mass0,
        "mass_final": mass1,
        "momentum_initial": mom0,
        "momentum_final": mom1,
    }


# Checkpoints: a '#' metadata line, a header row, then one CSV row per node in
# row-major node order with columns f0..fJ at 17 significant digits.

def save_checkpoint(path, state: SchemeState, params: SchemeParams,
                    mm: MomentMatrix) -> None:
    nj = state.f.shape[-1]
    grid = "x".join(str(n) for n in state.grid_shape)
    with open(path, "w", newline="\n") as fh:
        fh.write(
            f"# lbmlab-checkpoint grid={grid} J={nj - 1} "
            f"dt={format_value(params.dt)} lambda={format_value(mm.lam)} "
            f"step={state.steps}\n"
        )
        rows = map(np.ndarray.tolist, state.f.reshape(-1, nj))
        write_rows(fh, [f"f{j}" for j in range(nj)], rows)


def load_checkpoint(path) -> tuple[SchemeState, dict]:
    with open(path, "r", newline="") as fh:
        meta_line = fh.readline()
        header = fh.readline()
        body = fh.read()
    if not meta_line.startswith("# lbmlab-checkpoint"):
        raise LbmError(f"{path}: not a checkpoint file")
    meta = dict(re.findall(r"(\w+)=(\S+)", meta_line))
    missing = [key for key in ("grid", "J", "dt", "lambda", "step") if key not in meta]
    if missing:
        raise LbmError(f"{path}: metadata line lacks {', '.join(missing)}")
    grid_shape = _meta_value(path, meta, "grid",
                             lambda text: tuple(int(n) for n in text.split("x")))
    nj = _meta_value(path, meta, "J", int) + 1
    if len(header.strip().split(",")) != nj:
        raise LbmError(f"{path}: header does not match J={nj - 1}")
    rows = [line.split(",") for line in body.splitlines() if line]
    nodes = math.prod(grid_shape)
    if len(rows) != nodes:
        raise LbmError(
            f"{path}: expected {nodes} rows for grid {meta['grid']}, found {len(rows)}"
        )
    for i, row in enumerate(rows):
        if len(row) != nj:
            raise LbmError(
                f"{path}: row {i + 1} has {len(row)} columns, expected {nj}"
            )
    try:
        values = np.array([[float(x) for x in row] for row in rows])
    except ValueError as exc:
        raise LbmError(f"{path}: {exc}") from exc
    f = values.reshape(*grid_shape, nj)
    info = {
        "grid_shape": grid_shape,
        "J": nj - 1,
        "dt": _meta_value(path, meta, "dt", float),
        "lambda": _meta_value(path, meta, "lambda", float),
        "step": _meta_value(path, meta, "step", int),
    }
    return SchemeState(f=f, steps=info["step"]), info


def _meta_value(path, meta: dict, key: str, convert):
    """``convert(meta[key])``, or an LbmError naming the key if it does not parse."""
    try:
        return convert(meta[key])
    except ValueError as exc:
        raise LbmError(f"{path}: metadata {key}={meta[key]} does not parse") from exc
