"""Low-Mach polynomial equilibria and quantities derived from them.

Conserved states W are arrays whose last axis holds (rho, q^1, ..., q^d);
all operations broadcast over any leading grid axes.  The equilibrium map is
the standard second-order polynomial in u = q/rho,

    G_j(W) = w_j * (rho + (v_j.q)/cs2 + (v_j.q)^2/(2 cs2^2 rho) - |q|^2/(2 cs2 rho)),

which carries the same mass and momentum as W for any weights with unit sum,
vanishing first moment and second moment cs2 * identity.  Those constraints
are checked on a fixed pseudo-random probe set when a model is built, so a
user-supplied weight table that cannot conserve mass/momentum is rejected
up front rather than polluting a simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidEquilibrium, NonPositiveDensity, ShapeError
from .lattice import MomentMatrix, VelocitySet

PROBE_SEED = 42
PROBE_COUNT = 100
PROBE_TOL = 1e-12

_BUILTIN_WEIGHTS = {
    "d2q9": (4 / 9, 1 / 9, 1 / 9, 1 / 9, 1 / 9, 1 / 36, 1 / 36, 1 / 36, 1 / 36),
    "d1q3": (2 / 3, 1 / 6, 1 / 6),
}


@dataclass(frozen=True)
class EquilibriumModel:
    """Weights, squared sound speed and velocities defining the map W -> f_eq."""

    weights: np.ndarray    # (J+1,)
    cs2: float
    lam: float
    velocities: np.ndarray  # (J+1, d) = lam * e

    @property
    def d(self) -> int:
        return self.velocities.shape[1]

    @property
    def J(self) -> int:
        return self.velocities.shape[0] - 1


def build_equilibrium(vs: VelocitySet, lam: float, cs2=None,
                      weights=None) -> EquilibriumModel:
    """Build an equilibrium model for a velocity set.

    The built-in sets "d2q9" and "d1q3" default to the standard quadrature
    weights; cs2 defaults to lam^2/3.  A user weight table must satisfy the
    conservation constraints, which are verified on the probe set.
    """
    if weights is None:
        try:
            weights = _BUILTIN_WEIGHTS[vs.name]
        except KeyError:
            raise InvalidEquilibrium(
                f"no built-in weights for velocity set {vs.name!r}; pass a weight table"
            ) from None
    w = np.asarray(weights, dtype=float)
    if w.shape != (vs.J + 1,):
        raise ShapeError(f"expected {vs.J + 1} weights, got shape {w.shape}")
    if cs2 is None:
        cs2 = lam * lam / 3.0
    if not cs2 > 0:
        raise InvalidEquilibrium(f"cs2 must be positive, got {cs2}")
    w.flags.writeable = False
    v = lam * vs.e.astype(float)
    v.flags.writeable = False
    model = EquilibriumModel(weights=w, cs2=float(cs2), lam=float(lam),
                             velocities=v)
    _validate_on_probe_set(model)
    return model


def _validate_on_probe_set(model: EquilibriumModel) -> None:
    rng = np.random.default_rng(PROBE_SEED)
    rho = rng.uniform(0.5, 2.0, PROBE_COUNT)
    u = rng.uniform(-0.1 * model.lam, 0.1 * model.lam, (PROBE_COUNT, model.d))
    W = np.concatenate([rho[:, None], rho[:, None] * u], axis=1)
    feq = _populations_node_major(model, W)
    mass_rel = np.abs(feq.sum(-1) - rho) / rho
    momentum = feq @ model.velocities
    mom_rel = np.abs(momentum - W[:, 1:]) / (rho[:, None] * model.lam)
    worst = max(mass_rel.max(), mom_rel.max())
    if worst > PROBE_TOL:
        raise InvalidEquilibrium(
            f"moment constraints violated on probe set (relative residual {worst:.3e})"
        )


def _check_density(W: np.ndarray) -> None:
    if np.any(W[..., 0] <= 0.0):
        raise NonPositiveDensity("equilibrium evaluation requires rho > 0 everywhere")


def _populations(model: EquilibriumModel, W: np.ndarray) -> np.ndarray:
    """Populations G(W), population-major: W is (d+1, nodes), G is (J+1, nodes).

    The in-place ufuncs keep the association order of the formula in the
    module docstring, w * (((rho + vq/cs2) + vq^2/(2 cs2^2 rho)) - |q|^2/(2 cs2 rho)),
    so G is the same to the last bit whichever layout the caller stores.
    """
    rho = W[0]
    q = W[1:]
    cs2 = model.cs2
    vq = model.velocities @ q
    qq = q[0] * q[0]
    for qa in q[1:]:
        qq += qa * qa
    f = vq / cs2
    f += rho
    vq *= vq
    vq /= 2.0 * cs2 * cs2 * rho
    f += vq
    qq /= 2.0 * cs2 * rho
    f -= qq
    f *= model.weights[:, None]
    return f


def _populations_node_major(model: EquilibriumModel, W: np.ndarray) -> np.ndarray:
    """``_populations`` for W of shape (..., d+1); C-contiguous (..., J+1)."""
    feq = _populations(model, np.moveaxis(W, -1, 0).reshape(W.shape[-1], -1))
    return np.ascontiguousarray(feq.T).reshape(*W.shape[:-1], feq.shape[0])


def _jacobian(model: EquilibriumModel, W: np.ndarray) -> np.ndarray:
    rho = W[..., :1]
    q = W[..., 1:]
    v = model.velocities
    vq = q @ v.T
    qq = np.sum(q * q, axis=-1, keepdims=True)
    cs2 = model.cs2
    w = model.weights
    d_rho = w * (1.0 - vq * vq / (2.0 * cs2 * cs2 * rho * rho)
                 + qq / (2.0 * cs2 * rho * rho))
    d_q = w[:, None] * (
        v / cs2
        + vq[..., None] * v / (cs2 * cs2 * rho[..., None])
        - q[..., None, :] / (cs2 * rho[..., None])
    )
    return np.concatenate([d_rho[..., None], d_q], axis=-1)


def _check_set(model: EquilibriumModel, vs: VelocitySet) -> None:
    if model.velocities.shape != vs.e.shape or not np.array_equal(
            model.velocities, model.lam * vs.e.astype(float)):
        raise ShapeError("equilibrium model was not built for this velocity set")


def equilibrium_distribution(model: EquilibriumModel, vs: VelocitySet,
                             W) -> np.ndarray:
    """Populations G(W); leading moments reproduce W by construction."""
    _check_set(model, vs)
    W = np.asarray(W, dtype=float)
    _check_density(W)
    return _populations_node_major(model, W)


def equilibrium_moments(model: EquilibriumModel, vs: VelocitySet,
                        mm: MomentMatrix, W) -> np.ndarray:
    """M . G(W); the first d+1 entries equal W up to rounding."""
    return equilibrium_distribution(model, vs, W) @ mm.M.T


def momentum_flux(model: EquilibriumModel, vs: VelocitySet, W) -> np.ndarray:
    """Second moment F[a, b] = sum_j v_j^a v_j^b G_j(W), shape (..., d, d)."""
    feq = equilibrium_distribution(model, vs, W)
    v = model.velocities
    return np.einsum("...j,ja,jb->...ab", feq, v, v)


def equilibrium_jacobian(model: EquilibriumModel, vs: VelocitySet,
                         W) -> np.ndarray:
    """Analytic dG_j/dW_i, shape (..., J+1, d+1).

    Hand-differentiated from the polynomial; the columns over the conserved
    rows contract to the identity, which downstream defect computations rely
    on for exact cancellation.
    """
    _check_set(model, vs)
    W = np.asarray(W, dtype=float)
    _check_density(W)
    return _jacobian(model, W)
