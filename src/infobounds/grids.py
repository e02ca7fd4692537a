"""Uniform parameter grids and deterministic trapezoidal quadrature."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InvalidParameterError,
    LengthMismatchError,
    NonFiniteError,
    OutsideSupportError,
)

#: Relative tolerance for accepting a node sequence as uniformly spaced.
UNIFORM_SPACING_RTOL = 1e-12


@dataclass(frozen=True)
class ParameterGrid:
    """Uniformly spaced nodes over a closed parameter interval.

    The grid is the substrate of every quadrature in the toolkit: prior
    densities, weight functions and bound integrands are all tabulated on
    its nodes.

    Parameters
    ----------
    theta_min, theta_max : float
        Interval endpoints, ``theta_min < theta_max``.
    n_points : int
        Number of nodes, at least 3 (the quadrature needs interior nodes).
    """

    theta_min: float
    theta_max: float
    n_points: int

    def __post_init__(self):
        if not (np.isfinite(self.theta_min) and np.isfinite(self.theta_max)):
            raise NonFiniteError("grid endpoints must be finite")
        if not self.theta_min < self.theta_max:
            raise InvalidParameterError(
                f"theta_min must be < theta_max, got [{self.theta_min}, {self.theta_max}]"
            )
        if int(self.n_points) != self.n_points or self.n_points < 3:
            raise InvalidParameterError(f"n_points must be an integer >= 3, got {self.n_points}")

    @cached_property
    def nodes(self) -> np.ndarray:
        """Strictly increasing, uniformly spaced node positions."""
        nodes = np.linspace(self.theta_min, self.theta_max, self.n_points)
        nodes.setflags(write=False)
        return nodes

    @property
    def spacing(self) -> float:
        return (self.theta_max - self.theta_min) / (self.n_points - 1)

    @property
    def span(self) -> float:
        return self.theta_max - self.theta_min

    @classmethod
    def from_nodes(cls, nodes) -> "ParameterGrid":
        """Build a grid from an explicit node sequence, checking uniformity."""
        arr = np.asarray(nodes, dtype=float)
        if arr.ndim != 1 or arr.size < 3:
            raise InvalidParameterError("nodes must be a 1-d sequence with at least 3 entries")
        steps = np.diff(arr)
        if np.any(steps <= 0):
            raise InvalidParameterError("nodes must be strictly increasing")
        h = (arr[-1] - arr[0]) / (arr.size - 1)
        if np.max(np.abs(steps - h)) > UNIFORM_SPACING_RTOL * max(abs(h), 1e-300):
            raise InvalidParameterError("nodes are not uniformly spaced")
        return cls(float(arr[0]), float(arr[-1]), int(arr.size))

    def contains(self, theta, *, slop: float = 0.0):
        return (self.theta_min - slop <= theta) & (theta <= self.theta_max + slop)


def quadrature(values, grid: ParameterGrid):
    """Composite trapezoidal estimate of ``integral(values d(theta))``.

    ``values`` holds one value per node of ``grid``, or is a (rows,
    n_points) matrix of such rows, giving one estimate per row. Exact for
    piecewise-linear data on the grid and deterministic for fixed inputs
    regardless of how callers partition surrounding sweeps: each row of a
    matrix integrates bit for bit like the same values passed alone. Raises
    :class:`LengthMismatchError` on a wrong row length and
    :class:`NonFiniteError` when an estimate is not finite: a NaN or
    infinite value reaches it, or finite values overflow their sum.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[-1] != grid.n_points:
        raise LengthMismatchError(
            f"expected {grid.n_points} values per row, got shape {arr.shape}"
        )
    ends = 0.5 * arr[..., :: grid.n_points - 1]
    out = grid.spacing * (ends[..., 0] + np.add.reduce(arr[..., 1:-1], axis=-1) + ends[..., 1])
    if not (math.isfinite(out) if arr.ndim == 1 else np.isfinite(out).all()):
        raise NonFiniteError("quadrature is not finite: its input holds NaN or infinity, or its sum overflows")
    return float(out) if arr.ndim == 1 else out


#: Row-wise name of :func:`quadrature`, for a (rows, n_points) matrix.
quadrature_rows = quadrature


def _on_grid(grid: ParameterGrid, theta):
    """Whether :func:`interp_on_grid` accepts ``theta``; elementwise."""
    slop = UNIFORM_SPACING_RTOL * max(1.0, abs(grid.theta_min), abs(grid.theta_max))
    return grid.contains(theta, slop=slop)


def interp_on_grid(grid: ParameterGrid, values: np.ndarray, theta: float) -> float:
    """Linear interpolation of node values at an off-node parameter point.

    Consistent with the trapezoid rule, which integrates exactly this
    piecewise-linear interpolant.
    """
    if not _on_grid(grid, theta):
        raise OutsideSupportError(
            f"theta={theta} outside grid [{grid.theta_min}, {grid.theta_max}]"
        )
    return float(np.interp(theta, grid.nodes, values))
