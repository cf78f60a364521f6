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
noise.

Spatial derivatives default to 4th-order centered differences on the
periodic grid; fields built from closed-form profiles carry exact
derivative callbacks that bypass the stencils.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .csvio import write_rows
from .equilibrium import (
    EquilibriumModel,
    equilibrium_jacobian,
    equilibrium_moments,
    momentum_flux,
)
from .errors import GridTooCoarse, NonPositiveDensity, ShapeError
from .lattice import MomentMatrix, VelocitySet, lambda_tensor
from .scheme import SchemeParams

MIN_NODES_PER_AXIS = 8


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


@dataclass(frozen=True)
class SmoothField:
    """Conserved variables W(x) on a periodic grid with spacing dx.

    ``grad_fn``, when given, returns the exact spatial derivatives with shape
    (d, *grid, d+1) and replaces the finite-difference stencils.
    """

    W: np.ndarray
    dx: float
    grad_fn: Optional[Callable[[], np.ndarray]] = None

    def __post_init__(self):
        d = self.W.shape[-1] - 1
        if self.W.ndim - 1 != d:
            raise ShapeError(
                f"field with {self.W.shape[-1]} components needs {d} grid axes, "
                f"got {self.W.ndim - 1}"
            )

    @property
    def d(self) -> int:
        return self.W.shape[-1] - 1

    def gradients(self) -> np.ndarray:
        if self.grad_fn is not None:
            return np.asarray(self.grad_fn(), dtype=float)
        return np.stack(
            [fd_gradient(self.W, ax, self.dx) for ax in range(self.d)], axis=0
        )


@dataclass(frozen=True)
class DefectField:
    """Per-node defect vectors theta, shape (*grid, J+1), of ``field``.

    The conserved rows vanish identically (to rounding) because the time
    derivative was eliminated with the same flux contraction.
    """

    theta: np.ndarray
    field: SmoothField


def _require_usable(field: SmoothField) -> None:
    grid = field.W.shape[:-1]
    if any(n < MIN_NODES_PER_AXIS for n in grid):
        raise GridTooCoarse(
            f"grid {grid} has an axis below {MIN_NODES_PER_AXIS} nodes"
        )
    if np.any(field.W[..., 0] <= 0.0):
        raise NonPositiveDensity("field contains non-positive density")


def conservation_defect(field: SmoothField, model: EquilibriumModel,
                        vs: VelocitySet, mm: MomentMatrix) -> DefectField:
    """Defect theta of every moment, from a single spatial snapshot.

    The streaming term is S_k = sum_b sum_j M_kj v_j^b (dG_j/dW_i) d_b W_i;
    the eliminated time derivative is dt W = -S restricted to the conserved
    rows, and theta = (M dG/dW) dt W + S.
    """
    _require_usable(field)
    jac = equilibrium_jacobian(model, vs, field.W)   # (*grid, J+1, d+1)
    dW = field.gradients()                           # (d, *grid, d+1)
    v = model.velocities
    nc = mm.d + 1
    flux = np.zeros(field.W.shape[:-1] + (mm.J + 1,))
    for b in range(mm.d):
        flux += np.einsum("kj,...ji,...i->...k", mm.M * v[:, b], jac, dW[b])
    dtW = -flux[..., :nc]
    theta = np.einsum("kj,...ji,...i->...k", mm.M, jac, dtW) + flux
    return DefectField(theta=theta, field=field)


def euler_flux_divergence(field: SmoothField, model: EquilibriumModel,
                          vs: VelocitySet) -> np.ndarray:
    """Inviscid balance-law divergences (div q, div F^a.), shape (*grid, d+1).

    Formed by centered differences of the momentum-flux values over the grid.
    """
    _require_usable(field)
    q = field.W[..., 1:]
    F = momentum_flux(model, vs, field.W)
    return divergence(np.concatenate([q[..., None, :], F], axis=-2), field.dx)


def ns_flux_correction(defect: DefectField, model: EquilibriumModel,
                       vs: VelocitySet, mm: MomentMatrix,
                       params: SchemeParams) -> np.ndarray:
    """Momentum flux with the second-order correction, shape (*grid, d, d).

    Returns F[a,b] - dt sum_k (1/s_k - 1/2) Lambda[a,b,k] theta_k over the
    relaxed moments of ``defect.field``; with s_k = 2 everywhere the
    correction vanishes and the bare flux is returned.
    """
    lam_t = lambda_tensor(mm, vs)
    nc = mm.d + 1
    coeff = params.dt * (1.0 / params.s - 0.5)
    F = momentum_flux(model, vs, defect.field.W)
    correction = np.einsum("k,abk,...k->...ab", coeff, lam_t[:, :, nc:],
                           defect.theta[..., nc:])
    return F - correction


def technical_lemma_prediction(defect: DefectField, model: EquilibriumModel,
                               vs: VelocitySet, mm: MomentMatrix,
                               params: SchemeParams) -> np.ndarray:
    """First-order prediction of the relaxed moments, m_eq - (dt/s) theta.

    Shape (*grid, J+1), evaluated on ``defect.field``; the conserved entries
    carry m_eq itself (= W).  Used to check that simulated moments follow
    this prediction to second order in dt.
    """
    pred = equilibrium_moments(model, vs, mm, defect.field.W)
    nc = mm.d + 1
    pred[..., nc:] -= (params.dt / params.s) * defect.theta[..., nc:]
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
