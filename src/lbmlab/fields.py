"""Closed-form initial fields: sine profiles along x.

Profiles vary along the first grid axis only; the remaining axes are filled
by broadcast.  Each component is offset + amplitude * sin(2 pi mode x / L)
with L = n dx the periodic domain length, 1 on every grid lbmlab builds, so
exact spatial derivatives are available and analysis code can bypass finite
differences entirely.  A uniform state is the profile of zero amplitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SineComponent:
    offset: float = 0.0
    amplitude: float = 0.0
    mode: int = 1

    def values(self, x: np.ndarray, length: float) -> np.ndarray:
        k = 2.0 * np.pi * self.mode / length
        return self.offset + self.amplitude * np.sin(k * x)

    def derivative(self, x: np.ndarray, length: float) -> np.ndarray:
        k = 2.0 * np.pi * self.mode / length
        return self.amplitude * k * np.cos(k * x)


@dataclass(frozen=True)
class InitialField:
    """Density profile and one velocity profile per spatial dimension."""

    rho: SineComponent
    velocity: tuple[SineComponent, ...]

    @property
    def d(self) -> int:
        return len(self.velocity)

    def _axis_profiles(self, n: int, dx: float):
        x = dx * np.arange(n)
        length = dx * n
        rho = self.rho.values(x, length)
        u = [c.values(x, length) for c in self.velocity]
        drho = self.rho.derivative(x, length)
        du = [c.derivative(x, length) for c in self.velocity]
        return rho, u, drho, du

    def conserved(self, grid_shape, dx: float) -> np.ndarray:
        """W = (rho, rho u^1, ..., rho u^d) on the grid, shape (*grid, d+1)."""
        rho, u, _, _ = self._axis_profiles(grid_shape[0], dx)
        w1d = np.stack([rho] + [rho * ui for ui in u], axis=-1)
        return _along_first_axis(w1d, grid_shape)

    def gradients(self, grid_shape, dx: float) -> np.ndarray:
        """Exact spatial derivatives of W, shape (d, *grid, d+1)."""
        rho, u, drho, du = self._axis_profiles(grid_shape[0], dx)
        dq = [drho * ui + rho * dui for ui, dui in zip(u, du)]
        g1d = np.stack([drho] + dq, axis=-1)
        out = np.zeros((self.d, *grid_shape, self.d + 1))
        out[0] = _along_first_axis(g1d, grid_shape)
        return out

    def smooth_field(self, grid_shape, dx: float):
        """SmoothField over this profile with the analytic-derivative fast path."""
        from .analysis import SmoothField

        grid_shape = tuple(grid_shape)
        return SmoothField(
            W=self.conserved(grid_shape, dx),
            dx=dx,
            grad_fn=lambda: self.gradients(grid_shape, dx),
        )


def _along_first_axis(values_1d: np.ndarray, grid_shape) -> np.ndarray:
    expand = (slice(None),) + (None,) * (len(grid_shape) - 1)
    return np.ascontiguousarray(
        np.broadcast_to(values_1d[expand], (*grid_shape, values_1d.shape[-1]))
    )

