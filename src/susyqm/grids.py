"""Uniform grids, sampled functions, quadrature, derivatives and node counting.

Everything here is deliberately plain: uniform grids only, composite Simpson
quadrature and 4th-order central finite differences. These are the shared
numerical primitives the rest of the toolkit builds on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GridError(ValueError):
    """Invalid grid or sampled-function construction."""


@dataclass(frozen=True)
class Grid:
    """Uniform 1D grid on [x_min, x_max] with n_points nodes (endpoints included)."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 3:
            raise GridError(f"need at least 3 points, got {self.n_points}")
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise GridError("grid endpoints must be finite")
        if self.x_max <= self.x_min:
            raise GridError(f"x_max must exceed x_min ({self.x_min}, {self.x_max})")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    def refine(self) -> "Grid":
        """Grid with the same endpoints and half the spacing: 2(n-1) + 1 points."""
        return Grid(self.x_min, self.x_max, (self.n_points - 1) * 2 + 1)


@dataclass(frozen=True)
class SampledFunction:
    """Function values on a uniform grid. Values must be finite everywhere."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (self.grid.n_points,):
            raise GridError(
                f"value array of length {v.shape} does not match grid "
                f"with {self.grid.n_points} points"
            )
        if not np.all(np.isfinite(v)):
            raise GridError("sampled values contain NaN/Inf")
        object.__setattr__(self, "values", v)

    @property
    def x(self) -> np.ndarray:
        return self.grid.points

    def map(self, fn) -> "SampledFunction":
        return SampledFunction(self.grid, fn(self.values))


def sample(fn, grid: Grid) -> SampledFunction:
    """Sample a callable on a grid."""
    return SampledFunction(grid, np.asarray(fn(grid.points), dtype=float))


def simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights; even point counts get a trapezoid tail."""
    if n < 3:
        raise GridError("quadrature needs at least 3 points")
    w = np.zeros(n)
    m = n if n % 2 == 1 else n - 1
    w[0:m] = 2.0
    w[1:m:2] = 4.0
    w[0] = w[m - 1] = 1.0
    w *= h / 3.0
    if n % 2 == 0:
        w[-2] += h / 2.0
        w[-1] += h / 2.0
    return w


def integrate(f: SampledFunction) -> float:
    """Composite Simpson integral of a sampled function."""
    return float(simpson_weights(f.grid.n_points, f.grid.h) @ f.values)


def cumulative_integral(f: SampledFunction) -> SampledFunction:
    """Running integral from x_min, Simpson-based, zero at the left edge.

    Each interval [x_i, x_i+1] gets the 3-point sub-integral
    h/12 (5 f_near + 8 f_mid - f_far), its third node taken to the right on
    even intervals and to the left on odd ones and the last, and the pieces
    are summed (Cartwright's scheme: the arithmetic of
    scipy.integrate.cumulative_simpson at equal spacing, bit for bit).
    """
    y, h = f.values, f.grid.h
    forward = h / 3 * (5 * y[:-2] / 4 + 2 * y[1:-1] - y[2:] / 4)  # [x_i, x_i+1]
    backward = h / 3 * (5 * y[2:] / 4 + 2 * y[1:-1] - y[:-2] / 4)  # [x_i+1, x_i+2]
    pieces = np.empty(y.size - 1)
    pieces[:-1:2] = forward[::2]
    pieces[1::2] = backward[::2]
    pieces[-1] = backward[-1]
    return SampledFunction(f.grid, np.concatenate(([0.0], np.cumsum(pieces))))


def derivative(f: SampledFunction) -> SampledFunction:
    """First derivative: 4th-order central stencil, lower order near the edges."""
    v, h, n = f.values, f.grid.h, f.grid.n_points
    d = np.empty_like(v)
    if n >= 5:
        d[2:-2] = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12 * h)
        d[1] = (v[2] - v[0]) / (2 * h)
        d[-2] = (v[-1] - v[-3]) / (2 * h)
        d[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * h)
        d[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * h)
    else:
        d[1:-1] = (v[2:] - v[:-2]) / (2 * h)
        d[0] = (v[1] - v[0]) / h
        d[-1] = (v[-1] - v[-2]) / h
    return SampledFunction(f.grid, d)


def second_derivative(f: SampledFunction) -> SampledFunction:
    """Second derivative via the standard 3-point stencil."""
    v, h = f.values, f.grid.h
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / h**2
    d[0] = d[1]
    d[-1] = d[-2]
    return SampledFunction(f.grid, d)


def count_nodes(values: np.ndarray) -> int:
    """Interior sign changes, ignoring amplitudes below 1e-8 * max|values|."""
    v = np.asarray(values)
    floor = 1e-8 * np.max(np.abs(v))
    sig = v[np.abs(v) > floor]
    if sig.size < 2:
        return 0
    return int(np.sum(np.signbit(sig[:-1]) != np.signbit(sig[1:])))
