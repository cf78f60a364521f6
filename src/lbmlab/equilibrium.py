"""Low-Mach polynomial equilibria and quantities derived from them.

Conserved states W are arrays whose last axis holds (rho, q^1, ..., q^d);
all operations broadcast over any leading grid axes.  The equilibrium map is
the standard second-order polynomial in u = q/rho,

    G_j(W) = w_j * (rho + (v_j.q)/cs2 + (v_j.q)^2/(2 cs2^2 rho) - |q|^2/(2 cs2 rho)),

which carries the same mass and momentum as W for any weights with unit sum,
vanishing first moment and second moment cs2 * identity.  Those constraints
are checked on a fixed probe set when a model is built, so a
user-supplied weight table that cannot conserve mass/momentum is rejected
up front rather than polluting a simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidEquilibrium, NonPositiveDensity, ShapeError
from .lattice import MomentMatrix, VelocitySet

PROBE_COUNT = 100
PROBE_TOL = 1e-12

_BUILTIN_WEIGHTS = {
    "d2q9": (4 / 9, 1 / 9, 1 / 9, 1 / 9, 1 / 9, 1 / 36, 1 / 36, 1 / 36, 1 / 36),
    "d1q3": (2 / 3, 1 / 6, 1 / 6),
}


@dataclass(frozen=True)
class EquilibriumModel:
    """Weights, squared sound speed and velocities defining the map W -> f_eq.

    ``pairs`` is the velocities' +-e layout, derived from ``velocities`` when
    the model is made and never passed in: when row 0 is at rest and rows 1..J are G blocks
    of n rows, each followed by its opposites in the same order (D2Q9: 1-2
    then 3-4, 5-6 then 7-8; D1Q3: 1 then 2), it holds each block's "+"
    velocities as a read-only (G, n, d) array; for any other set it is None.
    """

    weights: np.ndarray    # (J+1,)
    cs2: float
    lam: float
    velocities: np.ndarray  # (J+1, d) = lam * e
    pairs: np.ndarray | None = field(init=False)  # (G, n, d), G * n = J / 2

    def __post_init__(self):
        object.__setattr__(self, "pairs", _pair_layout(self.velocities))

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


def _pair_layout(v: np.ndarray) -> np.ndarray | None:
    """The "+" velocities of ``v`` as (G, n, d) blocks, for the smallest n
    for which row 0 is zero and rows 1..J are G blocks of n rows, each
    followed by its n opposites; None when no n gives that layout."""
    J, d = v.shape[0] - 1, v.shape[1]
    if np.any(v[0]):
        return None
    for n in range(1, J // 2 + 1):
        if J % (2 * n) == 0:
            blocks = v[1:].reshape(J // (2 * n), 2, n, d)
            if np.array_equal(blocks[:, 1], -blocks[:, 0]):
                plus = blocks[:, 0].copy()
                plus.flags.writeable = False
                return plus
    return None


def _validate_on_probe_set(model: EquilibriumModel) -> None:
    # rho spans [0.5, 2] and each u_a spans [-0.1 lam, 0.1 lam], every axis
    # at its own frequency so that the axes do not move in step
    phi = 2.0 * np.pi * np.arange(PROBE_COUNT) / PROBE_COUNT
    rho = 1.25 + 0.75 * np.sin(3.0 * phi)
    u = 0.1 * model.lam * np.cos(np.outer(phi, 5.0 + np.arange(model.d)))
    W = np.concatenate([rho[:, None], rho[:, None] * u], axis=1)
    feq = _populations_node_major(model, W)
    mass_rel = np.abs(feq.sum(-1) - rho) / rho
    momentum = feq @ model.velocities
    mom_rel = np.abs(momentum - W[:, 1:]) / (rho[:, None] * model.lam)
    worst = np.maximum(mass_rel.max(), mom_rel.max())   # NaN propagates, and fails
    if not worst <= PROBE_TOL:
        raise InvalidEquilibrium(
            f"moment constraints violated on probe set (relative residual {worst:.3e})"
        )


def _check_density(W, nonpositive="equilibrium evaluation requires rho > 0 everywhere",
                   nonfinite="equilibrium evaluation requires finite rho everywhere"):
    """Raise NonPositiveDensity unless every density W[..., 0] is finite and > 0,
    as in ``scheme._check_densities``: ``nonfinite`` on NaN or inf."""
    rho = W[..., 0]
    if rho.size and not (rho.min() > 0.0 and rho.max() < np.inf):  # false on NaN
        raise NonPositiveDensity(nonpositive if np.isfinite(rho).all() else nonfinite)


def _scratch_rows(model: EquilibriumModel) -> int:
    """Rows of ``nodes`` values that ``_populations`` needs as scratch:
    J/2 + 2 for a paired velocity set (6 on D2Q9), J + 3 otherwise."""
    return (model.J + 1 if model.pairs is None else model.J // 2) + 2


def _populations(model: EquilibriumModel, W: np.ndarray, out=None,
                 scratch=None) -> np.ndarray:
    """Populations G(W), population-major: W is (d+1, nodes), G is (J+1, nodes),
    written to ``out`` through ``scratch``, at least ``_scratch_rows(model)``
    * nodes values, each allocated when not given (``_fill_populations``)."""
    nodes = W.shape[1]
    if out is None:
        out = np.empty((model.J + 1, nodes))
    if scratch is None:
        scratch = np.empty(_scratch_rows(model) * nodes)
    _fill_populations(_population_views(model, W, out, scratch))
    return out


def _population_views(model: EquilibriumModel, W: np.ndarray, out,
                      scratch) -> tuple:
    """The views in which ``_fill_populations`` writes G(W) to ``out``; a
    caller that evaluates G on the same arrays again builds them once."""
    nodes = W.shape[1]
    rows = _scratch_rows(model) - 2     # of vq
    vq = scratch[:rows * nodes].reshape(rows, nodes)
    qq = scratch[rows * nodes:(rows + 1) * nodes]
    tmp = scratch[(rows + 1) * nodes:(rows + 2) * nodes]
    rho, q = W[0], W[1:]
    cs2, pairs = model.cs2, model.pairs
    if pairs is None:
        matrix, quotients, divided, opposite = model.velocities, vq, out, None
        targets, square, rest, moving = out, vq, None, None
    else:
        g, n, d = pairs.shape
        rest, moving = out[0], out[1:]
        # rows 1..J as (G, 2, n, nodes): [:, 0] the "+" rows, [:, 1] their opposites
        targets = moving.reshape(g, 2, n, nodes)
        matrix, quotients = pairs.reshape(rows, d), vq.reshape(g, n, nodes)
        divided, opposite = targets[:, 0], targets[:, 1]
        square = vq.reshape(g, 1, n, nodes)
    return (matrix, q, vq, quotients, cs2, divided, opposite, out, rho, rest, moving,
            2.0 * cs2 * cs2, tmp, targets, square, qq, q[0], tuple(q[1:]), 2.0 * cs2,
            model.weights[:, None])


def _fill_populations(views: tuple) -> None:
    """G(W) into the ``out`` of ``_population_views``, in place.

    The in-place ufuncs keep the association order of the formula in the
    module docstring, w * (((rho + vq/cs2) + vq^2/(2 cs2^2 rho)) - |q|^2/(2 cs2 rho)),
    so G is the same to the last bit whichever layout the caller stores.

    On a paired set (``EquilibriumModel.pairs``) the two divisions run on the
    J/2 "+" rows only.  An opposite row has v' = -v, so vq' = -vq exactly,
    and IEEE round-to-nearest is symmetric in sign: vq'/cs2 = -(vq/cs2) and
    vq'^2/(2 cs2^2 rho) = vq^2/(2 cs2^2 rho).  Since rho + (-t) is the same
    double as rho - t, writing -(vq/cs2) into each opposite row and adding
    rho and the shared square term to both rows gives every bit of the
    row-by-row formula.  The rest row has vq = 0, so its first three terms
    are rho itself.
    """
    (matrix, q, vq, quotients, cs2, divided, opposite, out, rho, rest, moving,
     two_cs2_cs2, tmp, targets, square, qq, q0, others, two_cs2, weights) = views
    np.matmul(matrix, q, out=vq)
    np.divide(quotients, cs2, out=divided)
    if opposite is None:
        out += rho
    else:
        np.negative(divided, out=opposite)
        rest[...] = rho
        moving += rho
    vq *= vq
    vq /= np.multiply(two_cs2_cs2, rho, out=tmp)
    targets += square
    np.multiply(q0, q0, out=qq)
    for qa in others:
        qq += np.multiply(qa, qa, out=tmp)
    qq /= np.multiply(two_cs2, rho, out=tmp)
    out -= qq
    out *= weights


def _populations_node_major(model: EquilibriumModel, W: np.ndarray) -> np.ndarray:
    """``_populations`` for W of shape (..., d+1); C-contiguous (..., J+1)."""
    feq = _populations(model, np.moveaxis(W, -1, 0).reshape(W.shape[-1], -1))
    return np.ascontiguousarray(feq.T).reshape(*W.shape[:-1], feq.shape[0])


def _jacobian(model: EquilibriumModel, W: np.ndarray) -> np.ndarray:
    """dG_j/dW_i of W of shape (..., d+1), shape (..., J+1, d+1), unchecked.

    ``equilibrium_jacobian`` checks the model and rho first.
    ``analysis.conservation_defect`` checks them once and then calls this
    on one block of nodes at a time; every entry is computed from its own
    node's W alone, so the blocks give the same bits as the whole grid.
    """
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
