"""Uniform parameter grids and deterministic trapezoidal quadrature."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InvalidParameterError,
    LengthMismatchError,
    NonFiniteError,
)

#: Relative slop at the grid ends within which a parameter value still lies
#: on a grid, for a weight read by interpolation.
UNIFORM_SPACING_RTOL = 1e-12


def _finite_number(value, name: str, nonnegative: bool = False) -> None:
    """Raise :class:`InvalidParameterError` naming ``name`` unless ``value`` is a
    finite real number (no bool or NumPy complex), not below 0 if ``nonnegative``."""
    try:
        ok = (not isinstance(value, (bool, np.complexfloating)) and math.isfinite(value)
              and not (nonnegative and value < 0))
    except TypeError:
        ok = False
    if not ok:
        kind = "finite nonnegative" if nonnegative else "finite"
        raise InvalidParameterError(f"{name} must be a {kind} number, got {value!r}")


def _real_array(values, head: str, copy: bool = False) -> np.ndarray:
    """``values`` as a float array, a fresh one if ``copy``, or
    :class:`InvalidParameterError` starting with ``head`` when they are not
    real numbers: complex ones, or any that NumPy cannot convert, whose
    error then quotes the input as given."""
    try:
        arr = np.asarray(values)
        # A complex element of an object array would lose its imaginary part, with a warning only
        if arr.dtype.kind == "c" or (
            arr.dtype.kind == "O" and any(isinstance(v, (complex, np.complexfloating)) for v in arr.flat)
        ):
            raise TypeError(f"got complex values of dtype {arr.dtype}")
        return np.array(values, dtype=float) if copy or arr.dtype.kind not in "biuf" else np.asarray(arr, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"{head}: {exc}") from None


def _of_kind(value, kind: type, name: str, error: type = InvalidParameterError):
    """``value``, or ``error`` naming ``name`` unless it is a ``kind``."""
    if not isinstance(value, kind):
        raise error(f"{name} must be a {kind.__name__}, got {value!r}")
    return value


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
        for name in ("theta_min", "theta_max", "n_points"):
            if not isinstance(getattr(self, name), numbers.Real):
                raise InvalidParameterError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not (np.isfinite(self.theta_min) and np.isfinite(self.theta_max)):
            raise NonFiniteError("grid endpoints must be finite")
        if not self.theta_min < self.theta_max:
            raise InvalidParameterError(
                f"theta_min must be < theta_max, got [{self.theta_min}, {self.theta_max}]"
            )
        if not isinstance(self.n_points, numbers.Integral) or isinstance(self.n_points, bool) or self.n_points < 3:
            raise InvalidParameterError(f"n_points must be an integer >= 3, got {self.n_points!r}")

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

    def contains(self, theta, *, slop: float = 0.0):
        return (self.theta_min - slop <= theta) & (theta <= self.theta_max + slop)


def quadrature(values, grid: ParameterGrid):
    """Composite trapezoidal estimate of ``integral(values d(theta))``.

    ``values`` holds one value per node of ``grid``, or is a (rows,
    n_points) matrix of such rows, giving one estimate per row. Exact for
    piecewise-linear data on the grid and deterministic for fixed inputs
    regardless of how callers partition surrounding sweeps: each row of a
    matrix integrates bit for bit like the same values passed alone. Raises
    :class:`InvalidParameterError` when ``values`` are not real numbers,
    :class:`LengthMismatchError` on a wrong row length and
    :class:`NonFiniteError` when an estimate is not finite: a NaN or
    infinite value reaches it, or finite values overflow their sum.
    """
    arr = _real_array(values, "quadrature values must be real numbers")
    if arr.ndim not in (1, 2) or arr.shape[-1] != grid.n_points:
        raise LengthMismatchError(
            f"expected {grid.n_points} values per row, got shape {arr.shape}"
        )
    first, last = arr.T[0], arr.T[-1]  # scalars for a vector, not 0-d arrays
    out = grid.spacing * (0.5 * first + np.add.reduce(arr[..., 1:-1], axis=-1) + 0.5 * last)
    if not (math.isfinite(out) if arr.ndim == 1 else np.logical_and.reduce(np.isfinite(out), axis=None)):
        raise NonFiniteError("quadrature is not finite: its input holds NaN or infinity, or its sum overflows")
    return float(out) if arr.ndim == 1 else out


#: Row-wise name of :func:`quadrature`, for a (rows, n_points) matrix.
quadrature_rows = quadrature
