"""Equivalent-equation machinery: conservation defects and flux corrections.

The central object is the per-node defect vector

    theta_k = sum_j M_kj (dt f_eq,j + v_j^b d_b f_eq,j),

the rate at which free streaming drives each equilibrium moment away from
equilibrium.  The time derivative is not available from a single snapshot,
so it is eliminated with the leading-order inviscid balance laws
(dt rho = -div q, dt q = -div F); the substitution error is one order higher
than everything theta is used for, and it makes theta computable from a
spatial field alone.

Implementation constraint: the eliminated time derivative must reuse the
very same contracted flux array that enters theta, because the conserved
rows of theta then cancel to rounding (the Jacobian of the equilibrium
contracts to the identity on those rows).  Computing the two terms through
different code paths would leave an O(dx^4) mismatch instead of machine
noise.  ``conservation_defect`` forms theta one block of nodes at a time,
and the constraint holds per block: each block's dt W is taken from that
block's own flux array.

Every function takes plain arrays.  The caller picks the spatial
derivatives dW that enter theta: ``fd_gradients``, 4th-order centered
differences on the periodic grid, or exact derivatives such as
``InitialField.gradients`` of a closed-form profile, which bypass the
stencils.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .csvio import write_rows
from .equilibrium import (
    EquilibriumModel,
    _check_density,
    _check_set,
    _jacobian,
    equilibrium_moments,
    momentum_flux,
)
from .errors import MIN_NODES_PER_AXIS, GridTooCoarse, ShapeError
from .lattice import MomentMatrix, VelocitySet, lambda_tensor
from .scheme import SchemeParams, _chunks

# Most nodes ``conservation_defect`` works on at a time.  On D2Q9 a block's
# Jacobian, flux and their temporaries take about 0.8 MiB at 1,024 nodes, so
# the call's traced peak on a 256x256 grid is 1.18x theta's 4.5 MiB (7.1x over
# the whole grid at once; 1.10x in blocks of 512, 1.36x of 2,048, 2.43x of
# 8,192).  On a 2-vCPU Xeon, median of 8 interleaved rounds against the whole
# grid at once, in two sessions, blocks of 1,024 took 0.87-0.90x at 128x128,
# 0.66-0.94x at 256x256 and 0.78-0.84x at 512x512; blocks of 2,048 to 8,192
# were up to 5% faster at the two larger sizes and up to 13% slower at
# 128x128, blocks of 256 the slowest.
DEFECT_NODES = 1024


def fd_gradient(values: np.ndarray, axis: int, dx: float) -> np.ndarray:
    """4th-order centered first derivative along one axis of a periodic grid."""
    p1 = np.roll(values, -1, axis)
    m1 = np.roll(values, 1, axis)
    p2 = np.roll(values, -2, axis)
    m2 = np.roll(values, 2, axis)
    return (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * dx)


def divergence(T: np.ndarray, dx: float) -> np.ndarray:
    """sum_b d_b T[..., a, b] by ``fd_gradient``, shape (*grid, n), of a tensor
    field T of shape (*grid, n, d); the b terms are added in order."""
    out = np.zeros(T.shape[:-1])
    for a in range(T.shape[-2]):
        for b in range(T.shape[-1]):
            out[..., a] += fd_gradient(T[..., a, b], b, dx)
    return out


def fd_gradients(W: np.ndarray, dx: float) -> np.ndarray:
    """``fd_gradient`` of W along every grid axis, shape (d, *grid, d+1)."""
    return np.stack([fd_gradient(W, ax, dx) for ax in range(W.shape[-1] - 1)], axis=0)


def _require_usable(W: np.ndarray) -> None:
    d = W.shape[-1] - 1
    if W.ndim - 1 != d:
        raise ShapeError(
            f"field with {W.shape[-1]} components needs {d} grid axes, "
            f"got {W.ndim - 1}"
        )
    grid = W.shape[:-1]
    if any(n < MIN_NODES_PER_AXIS for n in grid):
        raise GridTooCoarse(
            f"grid {grid} has an axis below {MIN_NODES_PER_AXIS} nodes"
        )
    _check_density(W, "field contains non-positive density",
                   "field contains non-finite density")


def conservation_defect(W: np.ndarray, dW: np.ndarray, model: EquilibriumModel,
                        vs: VelocitySet, mm: MomentMatrix) -> np.ndarray:
    """Defect theta of every moment, shape (*grid, J+1), from a single snapshot.

    W holds the conserved variables on the periodic grid and dW their spatial
    derivatives, shape (d, *grid, d+1).  The streaming term is
    S_k = sum_b sum_j M_kj v_j^b (dG_j/dW_i) d_b W_i; the eliminated time
    derivative is dt W = -S restricted to the conserved rows, and
    theta = (M dG/dW) dt W + S.  The conserved rows of theta vanish
    identically (to rounding) because dt W reuses the same flux contraction.

    W, dW and the velocity set are checked once; theta's rows are then
    written one block of at most ``DEFECT_NODES`` nodes at a time, so the
    memory beyond theta is one block's worth (the Jacobian, the flux and
    their temporaries), plus a flat copy of W or dW where it cannot be
    flattened in place, as a broadcast view cannot.  einsum sums each
    node's terms in the same order whatever the block, so theta is the same
    to the last bit as one contraction over the whole grid.  The blocks are
    those of ``scheme._chunks``, never one node wide: the Jacobian's matmul
    would round a single node's row differently.
    """
    _require_usable(W)
    if dW.shape != (W.ndim - 1, *W.shape):
        raise ShapeError(f"derivatives of shape {dW.shape} do not fit a field "
                         f"of shape {W.shape}")
    _check_set(model, vs)
    nodes = W.size // W.shape[-1]
    W_flat = np.asarray(W, dtype=float).reshape(nodes, -1)
    dW_flat = dW.reshape(len(dW), nodes, -1)
    v = model.velocities
    nc = mm.d + 1
    theta = np.empty((nodes, mm.J + 1))
    for start, stop in _chunks(nodes, DEFECT_NODES):
        block = slice(start, stop)
        jac = _jacobian(model, W_flat[block])         # (block, J+1, d+1)
        flux = np.zeros((jac.shape[0], mm.J + 1))
        for b in range(mm.d):
            flux += np.einsum("kj,...ji,...i->...k", mm.M * v[:, b], jac,
                              dW_flat[b, block])
        dtW = -flux[..., :nc]
        np.add(np.einsum("kj,...ji,...i->...k", mm.M, jac, dtW), flux,
               out=theta[block])
    return theta.reshape(*W.shape[:-1], mm.J + 1)


def euler_flux_divergence(W: np.ndarray, dx: float, model: EquilibriumModel,
                          vs: VelocitySet) -> np.ndarray:
    """Inviscid balance-law divergences (div q, div F^a.), shape (*grid, d+1).

    Formed by centered differences of the momentum-flux values over the grid.
    """
    _require_usable(W)
    q = W[..., 1:]
    F = momentum_flux(model, vs, W)
    return divergence(np.concatenate([q[..., None, :], F], axis=-2), dx)


def ns_flux_correction(theta: np.ndarray, W: np.ndarray, model: EquilibriumModel,
                       vs: VelocitySet, mm: MomentMatrix,
                       params: SchemeParams) -> np.ndarray:
    """Momentum flux with the second-order correction, shape (*grid, d, d).

    Returns F[a,b] - dt sum_k (1/s_k - 1/2) Lambda[a,b,k] theta_k over the
    relaxed moments, where theta is ``conservation_defect`` of W; with s_k = 2
    everywhere the correction vanishes and the bare flux is returned.
    """
    lam_t = lambda_tensor(mm, vs)
    nc = mm.d + 1
    coeff = params.dt * (1.0 / params.s - 0.5)
    F = momentum_flux(model, vs, W)
    correction = np.einsum("k,abk,...k->...ab", coeff, lam_t[:, :, nc:],
                           theta[..., nc:])
    return F - correction


def technical_lemma_prediction(theta: np.ndarray, W: np.ndarray,
                               model: EquilibriumModel, vs: VelocitySet,
                               mm: MomentMatrix, params: SchemeParams) -> np.ndarray:
    """First-order prediction of the relaxed moments, m_eq - (dt/s) theta.

    Shape (*grid, J+1), where theta is ``conservation_defect`` of W; the
    conserved entries carry m_eq itself (= W).  Used to check that simulated
    moments follow this prediction to second order in dt.
    """
    pred = equilibrium_moments(model, vs, mm, W)
    nc = mm.d + 1
    pred[..., nc:] -= (params.dt / params.s) * theta[..., nc:]
    return pred


_PAIR_LABELS = {1: ("11",), 2: ("11", "12", "22")}
_PAIR_INDICES = {1: ((0, 0),), 2: ((0, 0), (0, 1), (1, 1))}


@dataclass(frozen=True)
class PdeReport:
    """Transport coefficients of the scheme's second-order equivalent equation.

    One row per relaxed moment k: its rate s_k, the coefficient
    mu_k = dt (1/s_k - 1/2), and the Lambda slice that routes theta_k into
    the momentum flux.  For the built-in bases the shear kinematic viscosity
    cs2 * dt * (1/s_shear - 1/2) is reported as a convenience.
    """

    lattice: str
    lam: float
    dt: float
    cs2: float
    moment_names: tuple[str, ...]
    ks: tuple[int, ...]
    s: tuple[float, ...]
    mu: tuple[float, ...]
    lambda_slices: np.ndarray          # (len(ks), n_pairs)
    pair_labels: tuple[str, ...]
    shear_moment: Optional[str] = None
    nu_shear: Optional[float] = None

    def to_csv(self) -> str:
        header = ["k", "s_k", "mu_k"] + [f"Lambda_{p}_k" for p in self.pair_labels]
        rows = [(k, self.s[i], self.mu[i], *self.lambda_slices[i])
                for i, k in enumerate(self.ks)]
        out = io.StringIO()
        write_rows(out, header, rows)
        return out.getvalue()

    def to_text(self) -> str:
        lines = [
            f"lattice       {self.lattice}",
            f"lambda        {self.lam:.17g}",
            f"dt            {self.dt:.17g}",
            f"cs2           {self.cs2:.17g}",
        ]
        if self.nu_shear is not None:
            lines.append(
                f"shear viscosity prediction  nu = cs2*dt*(1/s-1/2) = "
                f"{self.nu_shear:.17g}  (moment '{self.shear_moment}')"
            )
        lines.append("")
        header = f"{'k':>2} {'moment':>16} {'s_k':>10} {'mu_k':>24} " + " ".join(
            f"{'Lambda_' + p:>24}" for p in self.pair_labels
        )
        lines.append(header)
        for i, k in enumerate(self.ks):
            row = (
                f"{k:>2} {self.moment_names[k]:>16} {self.s[i]:>10.6g} "
                f"{self.mu[i]:>24.17g} "
                + " ".join(f"{x:>24.17g}" for x in self.lambda_slices[i])
            )
            lines.append(row)
        return "\n".join(lines) + "\n"


def pde_report(vs: VelocitySet, mm: MomentMatrix, model: EquilibriumModel,
               params: SchemeParams) -> PdeReport:
    """Tabulate mu_k = dt (1/s_k - 1/2) and the Lambda slices per relaxed moment."""
    nc = mm.d + 1
    lam_t = lambda_tensor(mm, vs)
    pairs = _PAIR_INDICES[mm.d]
    ks = tuple(range(nc, mm.J + 1))
    mu = tuple(float(params.dt * (1.0 / sk - 0.5)) for sk in params.s)
    slices = np.array([[lam_t[a, b, k] for (a, b) in pairs] for k in ks])
    shear_moment = None
    nu = None
    if mm.shear_index is not None:
        shear_moment = mm.names[mm.shear_index]
        s_shear = float(params.s[mm.shear_index - nc])
        nu = float(model.cs2 * params.dt * (1.0 / s_shear - 0.5))
    return PdeReport(
        lattice=vs.name,
        lam=mm.lam,
        dt=params.dt,
        cs2=model.cs2,
        moment_names=mm.names,
        ks=ks,
        s=tuple(float(x) for x in params.s),
        mu=mu,
        lambda_slices=slices,
        pair_labels=_PAIR_LABELS[mm.d],
        shear_moment=shear_moment,
        nu_shear=nu,
    )
