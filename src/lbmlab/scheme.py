"""Time stepping: moment-space relaxation followed by exact streaming.

One step is stream(collide(state)).  Collision is node-local: moments are
formed with M, the non-conserved ones are relaxed toward equilibrium with
per-moment ratios s_k, and populations are rebuilt with the precomputed
M^-1.  Streaming is a pure index permutation (gather from x - e_j on the
periodic grid), never interpolation, so transport is exact: the CFL number
is 1 in every direction by construction (v_j dt = e_j dx).
"""

from __future__ import annotations

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

    ``f`` has shape (*grid_shape, J+1); time is tracked as an integer count
    so long runs accumulate no floating-point drift in t.
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
    # Shared by collide() and relaxation_ode_euler_step(): both sides of the
    # explicit-Euler identity must evaluate the exact same expression so the
    # results agree to the last bit.
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


def collide(state: SchemeState, mm: MomentMatrix, model: EquilibriumModel,
            params: SchemeParams) -> SchemeState:
    """Node-local relaxation in moment space; conserved moments are copied.

    m*_k = m_k for k <= d, m*_k = m_k - s_k (m_k - m_eq,k) otherwise, then
    f* = M^-1 m*.  No neighbor access.
    """
    _check_scales(mm, model, params)
    nc = mm.d + 1
    if params.s.shape[0] != mm.J - mm.d:
        raise ShapeError(
            f"expected {mm.J - mm.d} relaxation ratios, got {params.s.shape[0]}"
        )
    m = moments_of(state, mm)
    W = m[..., :nc]
    _fail_at_first(W[..., 0] <= 0.0, "non-positive density",
                   f"entering step {state.steps + 1}")
    m_eq = _populations(model, W) @ mm.M.T
    m_star = m.copy()
    m_star[..., nc:] = relax_update(m[..., nc:], m_eq[..., nc:], params.s)
    return SchemeState(f=m_star @ mm.M_inv.T, steps=state.steps)


def stream(state: SchemeState, vs: VelocitySet) -> SchemeState:
    """Advect every population one lattice link: f_j(x) <- f_j(x - e_j).

    Implemented as periodic rolls, i.e. a permutation of storage with no
    arithmetic, so transported values are bit-identical.
    """
    f = state.f
    if f.shape[-1] != vs.J + 1:
        raise ShapeError(f"expected {vs.J + 1} populations per node, got {f.shape[-1]}")
    out = np.empty_like(f)
    axes = tuple(range(f.ndim - 1))
    for j in range(vs.J + 1):
        shift = tuple(int(c) for c in vs.e[j])
        out[..., j] = np.roll(f[..., j], shift=shift, axis=axes)
    return SchemeState(f=out, steps=state.steps)


def step(state: SchemeState, vs: VelocitySet, mm: MomentMatrix,
         model: EquilibriumModel, params: SchemeParams) -> SchemeState:
    """One full update: collision then streaming; advances the step counter."""
    new = stream(collide(state, mm, model, params), vs)
    new.steps = state.steps + 1
    return new


def run(state: SchemeState, n_steps: int, vs: VelocitySet, mm: MomentMatrix,
        model: EquilibriumModel, params: SchemeParams,
        check_interval: int = 64) -> SchemeState:
    """Apply n_steps full updates, checking periodically for divergence."""
    for i in range(n_steps):
        state = step(state, vs, mm, model, params)
        if (i + 1) % check_interval == 0 or i + 1 == n_steps:
            check_finite(state)
    return state


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
    grid_shape = tuple(int(n) for n in meta["grid"].split("x"))
    nj = int(meta["J"]) + 1
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
        "dt": float(meta["dt"]),
        "lambda": float(meta["lambda"]),
        "step": int(meta["step"]),
    }
    return SchemeState(f=f, steps=info["step"]), info
