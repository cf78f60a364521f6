"""Discrete velocity sets, moment matrices and the velocity-pair tensor.

A velocity set is a family of J+1 integer direction vectors e_j on a
d-dimensional periodic lattice (d = 1 or 2).  Physical velocities are
v_j = lam * e_j where lam = dx/dt is the lattice celerity.  The moment
matrix M maps populations to moments; its first d+1 rows are pinned to
(1, v_j^1, ..., v_j^d) so that the leading moments are the conserved
density and momentum.  The remaining rows only need to make M invertible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstructionError,
    InvalidVelocitySet,
    LbmError,
    RankDeficient,
    ShapeError,
    SingularMomentMatrix,
)

D2Q9_DIRECTIONS = (
    (0, 0), (1, 0), (0, 1), (-1, 0), (0, -1),
    (1, 1), (-1, 1), (-1, -1), (1, -1),
)
D1Q3_DIRECTIONS = ((0,), (1,), (-1,))

_BUILTIN_DIRECTIONS = {"d2q9": D2Q9_DIRECTIONS, "d1q3": D1Q3_DIRECTIONS}

D2Q9_MOMENT_NAMES = (
    "density", "momentum_x", "momentum_y",
    "energy", "energy_squared", "heat_flux_x", "heat_flux_y",
    "stress_xx", "stress_xy",
)
D1Q3_MOMENT_NAMES = ("density", "momentum_x", "energy")


@dataclass(frozen=True)
class VelocitySet:
    """Family of distinct integer lattice directions, e_0 may be zero."""

    name: str
    e: np.ndarray  # (J+1, d), integer entries

    @property
    def d(self) -> int:
        return self.e.shape[1]

    @property
    def J(self) -> int:
        return self.e.shape[0] - 1


def build_velocity_set(name_or_vectors="D2Q9") -> VelocitySet:
    """Build a validated velocity set from a built-in name or explicit vectors.

    Built-ins: "D2Q9" (rest + 4 axis + 4 diagonal directions, in that order)
    and "D1Q3" (directions 0, +1, -1).
    """
    if isinstance(name_or_vectors, str):
        key = name_or_vectors.lower()
        if key not in _BUILTIN_DIRECTIONS:
            raise InvalidVelocitySet(f"unknown velocity set {name_or_vectors!r}")
        vectors = _BUILTIN_DIRECTIONS[key]
        name = key
    else:
        vectors = tuple(tuple(c for c in vec) for vec in name_or_vectors)
        name = "custom"

    if len({len(vec) for vec in vectors}) != 1:
        raise InvalidVelocitySet("vectors must all have the same dimension")
    arr = np.asarray(vectors)
    if not np.issubdtype(arr.dtype, np.integer):
        as_float = np.asarray(arr, dtype=float)
        if not np.all(as_float == np.round(as_float)):
            raise InvalidVelocitySet("vector components must be integers")
        arr = np.asarray(np.round(as_float), dtype=np.int64)
    arr = arr.astype(np.int64)
    d = arr.shape[1]
    if d not in (1, 2):
        raise InvalidVelocitySet(f"only 1-D and 2-D velocity sets are supported, got d={d}")
    seen = {tuple(row) for row in arr.tolist()}
    if len(seen) != arr.shape[0]:
        raise InvalidVelocitySet("duplicate direction vector")
    block = np.vstack([np.ones(arr.shape[0]), arr.T.astype(float)])
    if np.linalg.matrix_rank(block) < d + 1:
        raise RankDeficient("mass/momentum rows of the moment matrix are rank deficient")
    arr.flags.writeable = False
    return VelocitySet(name=name, e=arr)


@dataclass(frozen=True)
class MomentMatrix:
    """Invertible moment matrix M with rows 0..d pinned to (1, v^1, ..., v^d).

    ``names`` labels the moment rows; ``shear_index`` points at the row whose
    relaxation rate sets the shear viscosity of the built-in bases (the
    off-diagonal stress row for D2Q9), or None for user-supplied bases.
    """

    M: np.ndarray
    M_inv: np.ndarray
    lam: float
    d: int
    names: tuple[str, ...]
    shear_index: int | None = None

    @property
    def J(self) -> int:
        return self.M.shape[0] - 1

    @property
    def velocities(self) -> np.ndarray:
        """v_j = lam * e_j, recovered from the pinned momentum rows, shape (J+1, d)."""
        return self.M[1:self.d + 1].T


def _lu_inverse(matrix: np.ndarray) -> np.ndarray:
    """Dense inverse via LU factorization with partial pivoting.

    A pivot with magnitude below 1e-12 * max|A| is treated as singular;
    sizes here never exceed 9x9, so no blocking or scaling is needed.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    threshold = 1e-12 * np.abs(a).max()
    lu = a.copy()
    perm = np.arange(n)
    for col in range(n):
        p = col + int(np.argmax(np.abs(lu[col:, col])))
        if abs(lu[p, col]) <= threshold:
            raise SingularMomentMatrix(
                f"pivot {lu[p, col]:.3e} in column {col} below threshold {threshold:.3e}"
            )
        if p != col:
            lu[[col, p]] = lu[[p, col]]
            perm[[col, p]] = perm[[p, col]]
        lu[col + 1:, col] /= lu[col, col]
        lu[col + 1:, col + 1:] -= np.outer(lu[col + 1:, col], lu[col, col + 1:])
    inv = np.empty((n, n))
    for rhs in range(n):
        y = (perm == rhs).astype(float)
        for r in range(1, n):
            y[r] -= lu[r, :r] @ y[:r]
        for r in range(n - 1, -1, -1):
            y[r] = (y[r] - lu[r, r + 1:] @ y[r + 1:]) / lu[r, r]
        inv[:, rhs] = y
    return inv


def _d2q9_default_rows(e: np.ndarray, lam: float) -> np.ndarray:
    # Nine-moment basis: energy, energy squared, heat flux, stresses,
    # each scaled by lam**degree so every row is homogeneous in velocity units.
    ex, ey = e[:, 0].astype(float), e[:, 1].astype(float)
    esq = ex**2 + ey**2
    return np.stack([
        lam**2 * (3.0 * esq - 4.0),
        lam**4 * (4.0 - 10.5 * esq + 4.5 * esq**2),
        lam**3 * (3.0 * esq - 5.0) * ex,
        lam**3 * (3.0 * esq - 5.0) * ey,
        lam**2 * (ex**2 - ey**2),
        lam**2 * ex * ey,
    ])


def _d1q3_default_rows(e: np.ndarray, lam: float) -> np.ndarray:
    return (lam * e[:, 0].astype(float))[None, :] ** 2


def build_moment_matrix(vs: VelocitySet, lam: float, higher_rows=None) -> MomentMatrix:
    """Assemble and invert the moment matrix for a velocity set.

    Rows 0..d are always (1, v^alpha) regardless of input.  Rows d+1..J come
    from ``higher_rows`` (shape (J-d, J+1)) or from the built-in default basis
    of the named set.  Raises SingularMomentMatrix if the result cannot be
    inverted, and ConstructionError if ``lam`` is not positive (or is NaN).
    """
    if not lam > 0:
        raise ConstructionError(f"velocity scale must be positive, got {lam}")
    d, J = vs.d, vs.J
    v = lam * vs.e.astype(float)
    names: tuple[str, ...]
    shear_index: int | None
    if higher_rows is not None:
        lengths = [len(row) for row in higher_rows]
        if lengths != [J + 1] * (J - d):
            raise ShapeError(
                f"higher_rows must have shape {(J - d, J + 1)}, got row lengths {lengths}"
            )
        rows = np.asarray(higher_rows, dtype=float)
        names = tuple(["density"] + [f"momentum_{ax}" for ax in "xy"[:d]]
                      + [f"m{k}" for k in range(d + 1, J + 1)])
        shear_index = None
    elif vs.name == "d2q9":
        rows = _d2q9_default_rows(vs.e, lam)
        names = D2Q9_MOMENT_NAMES
        shear_index = 8
    elif vs.name == "d1q3":
        rows = _d1q3_default_rows(vs.e, lam)
        names = D1Q3_MOMENT_NAMES
        shear_index = 2
    elif J == d:
        rows = np.empty((0, J + 1))
        names = tuple(["density"] + [f"momentum_{ax}" for ax in "xy"[:d]])
        shear_index = None
    else:
        raise LbmError(
            f"no built-in moment basis for velocity set {vs.name!r}; pass higher_rows"
        )
    M = np.vstack([np.ones(J + 1), v.T, rows])
    M_inv = _lu_inverse(M)
    residual = np.abs(M @ M_inv - np.eye(J + 1)).max()
    scale = max(1.0, np.abs(M).max() * np.abs(M_inv).max())
    if residual > 1e-12 * scale:
        raise SingularMomentMatrix(
            f"inverse verification failed, |M M^-1 - I| = {residual:.3e}"
        )
    M.flags.writeable = False
    M_inv.flags.writeable = False
    return MomentMatrix(M=M, M_inv=M_inv, lam=float(lam), d=d,
                        names=names, shear_index=shear_index)


def lambda_tensor(mm: MomentMatrix, vs: VelocitySet) -> np.ndarray:
    """Read-only Lambda[a, b, k] = sum_j v_j^a v_j^b (M^-1)^j_k, shape (d, d, J+1).

    Maps moment defects into momentum-flux corrections and satisfies the
    reconstruction identity sum_k Lambda[a, b, k] M[k, j] == v_j^a v_j^b for
    every j (M_inv is the exact inverse used everywhere).
    """
    if mm.M.shape[0] != vs.J + 1 or mm.d != vs.d:
        raise ShapeError("moment matrix was not built from this velocity set")
    v = mm.velocities
    values = np.einsum("ja,jb,jk->abk", v, v, mm.M_inv)
    values.flags.writeable = False
    return values
