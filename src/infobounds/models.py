"""Probability-model abstractions: priors, outcome spaces, conditional models
and the weight functions that generate the bound family."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    InvalidWeightError,
    LengthMismatchError,
    NonFiniteError,
    OutsideSupportError,
)
from .grids import ParameterGrid, _finite_number, _of_kind, quadrature

#: Allowed deviation of the grid quadrature of a prior density from 1.
NORMALIZATION_TOL = 1e-6

#: Default per-side tail mass discarded when truncating an infinite-support prior.
DEFAULT_TAIL_MASS = 1e-12

#: Relative/absolute step for finite-difference scores.
DEFAULT_SCORE_STEP = 1e-5

#: Entries :func:`_kept` holds, each at most one block of the joint table or
#: one weight, and its model, prior, weight and sensitivity: the memory the
#: memo can pin.
_KEPT_ROWS = 64


@lru_cache(maxsize=_KEPT_ROWS, typed=True)
def _kept_call(fn: Callable, *args):
    return fn(*args)


def _kept(fn: Callable, *args):
    """``fn(*args)`` from the one bounded memo of the package, which keeps
    joint tables, outcome terms, marginals, weights and weight checks.

    Arguments are keyed by hash, equality and type: models, priors and
    weights by identity, grids and labels by value, a sensitivity by ``==``
    (a bound method is a new object on each access); an unhashable argument
    bypasses the memo. Only results are kept, so a call that raises raises
    each time. Models and their callables are pure (see ConditionalModel)."""
    try:
        return _kept_call(fn, *args)
    except TypeError:
        try:  # the arguments are unhashable, or fn itself raised
            hash(args)
        except TypeError:
            return fn(*args)
        raise


# ---------------------------------------------------------------------------
# Outcome spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteOutcomes:
    """Finite, duplicate-free collection of outcome labels."""

    outcomes: tuple

    def __post_init__(self):
        try:
            n, distinct = len(self.outcomes), len(set(self.outcomes))
        except TypeError:
            raise InvalidParameterError(f"outcomes must be hashable labels, got {self.outcomes!r}") from None
        if n == 0:
            raise InvalidParameterError("outcome list must be non-empty")
        if distinct != n:
            raise InvalidParameterError("outcome list contains duplicates")

    def index(self, x) -> int:
        """The position of label ``x``, or :class:`OutsideSupportError`."""
        try:
            return self.outcomes.index(x)
        except ValueError:
            raise OutsideSupportError(f"outcome {x!r} is not in the outcome space") from None


@dataclass(frozen=True)
class ContinuousOutcomes:
    """Uniform grid over a continuous outcome interval."""

    x_min: float
    x_max: float
    n_x: int

    def __post_init__(self):
        _finite_number(self.x_min, "x_min")
        _finite_number(self.x_max, "x_max")
        if not self.x_min < self.x_max:
            raise InvalidParameterError("x_min must be < x_max")
        if isinstance(self.n_x, bool) or not isinstance(self.n_x, numbers.Integral):
            raise InvalidParameterError(f"n_x must be an integer, got {self.n_x!r}")
        if self.n_x < 3:
            raise InvalidParameterError("n_x must be >= 3")

    @cached_property
    def grid(self) -> ParameterGrid:
        return ParameterGrid(self.x_min, self.x_max, self.n_x)


OutcomeSpace = Union[DiscreteOutcomes, ContinuousOutcomes]


# ---------------------------------------------------------------------------
# Conditional model
# ---------------------------------------------------------------------------


class ConditionalModel:
    """Behavioral contract for a conditional outcome model p(x | theta).

    Wraps a log-density callable and, optionally, an analytic score
    (d/dtheta of the log-density). Without an analytic score, central finite
    differences with a scale-aware step are used.

    Both callables must accept a scalar outcome together with a scalar or
    ndarray ``theta`` and broadcast accordingly, on a continuous outcome
    space also a column of outcomes against a row of ``theta``.

    Every evaluator reads the model through :meth:`table`, which a subclass
    may override to evaluate a block at once, as the quantum adapter does.
    Model and callables must be pure and unchanging: the evaluators keep,
    keyed by the model's identity, each outcome's theta-independent bound
    terms and, on a discrete space, the table against a prior grid.
    """

    def __init__(
        self,
        log_pdf: Callable,
        outcome_space: OutcomeSpace,
        score: Callable | None = None,
    ):
        self._log_pdf = log_pdf
        self._score = score
        self.outcome_space = outcome_space

    def log_pdf(self, x, theta):
        return self._log_pdf(x, theta)

    def score(self, x, theta):
        if self._score is not None:
            return self._score(x, theta)
        th = np.asarray(theta, dtype=float)
        h = np.maximum(DEFAULT_SCORE_STEP, DEFAULT_SCORE_STEP * np.abs(th))
        out = (self._log_pdf(x, th + h) - self._log_pdf(x, th - h)) / (2.0 * h)
        if np.ndim(theta) == 0:
            return float(out)
        return out

    def table(self, outcomes, thetas: np.ndarray, score: bool = False, sensitivity: Callable | None = None):
        """``(log_pdf, score, sensitivity)`` of ``outcomes`` against the 1-D
        ``thetas`` as (len(outcomes), thetas.size) arrays, the last two None
        unless asked for; ``sensitivity`` is a callable like ``log_pdf``.
        Calls each callable once per label on a discrete space, where a label
        outside it raises :class:`OutsideSupportError`, and once with a
        column of the outcomes on a continuous one, where an outcome that is
        not one number raises :class:`InvalidParameterError`."""
        if isinstance(self.outcome_space, DiscreteOutcomes):
            for x in outcomes:
                self.outcome_space.index(x)
        else:
            try:
                column = np.array(outcomes, dtype=float)
            except (TypeError, ValueError) as exc:
                raise InvalidParameterError(f"outcome is not a number: {exc}") from None
            if column.shape != (len(outcomes),):
                raise InvalidParameterError(f"each outcome must be one number, got {outcomes!r}")
            outcomes = column
        columns = (self.log_pdf, self.score if score else None, sensitivity)
        return tuple(None if fn is None else self._rows(fn, outcomes, thetas) for fn in columns)

    def _rows(self, fn: Callable, outcomes, thetas: np.ndarray) -> np.ndarray:
        """``fn`` at each outcome against ``thetas``, broadcast to one row per
        outcome, or :class:`DimensionMismatchError` naming a shape that does not
        broadcast."""
        shape = (len(outcomes), thetas.size)
        if isinstance(self.outcome_space, DiscreteOutcomes):
            rows = (np.asarray(fn(x, thetas), dtype=float) for x in outcomes)
            return np.array([_broadcast(row, shape[1:]) for row in rows])
        values = fn(outcomes[:, None], thetas[None, :])
        return _broadcast(np.asarray(values, dtype=float), shape)


def _broadcast(values: np.ndarray, shape: tuple) -> np.ndarray:
    try:
        return np.broadcast_to(values, shape)
    except ValueError:
        raise DimensionMismatchError(
            f"model callable returned shape {values.shape}, expected one that broadcasts to {shape}"
        ) from None


# ---------------------------------------------------------------------------
# Priors
# ---------------------------------------------------------------------------


def _freeze_on_grid(obj, owner: str, names: tuple) -> None:
    """Replace the arrays ``names`` of ``obj`` by read-only float copies with one
    finite value per node of ``obj.grid``, the first of them nonnegative."""
    for name in names:
        arr = np.array(getattr(obj, name), dtype=float)
        if arr.shape != (obj.grid.n_points,):
            raise LengthMismatchError(f"{owner} {name} must have one value per node, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError(f"{owner} {name} contains NaN or infinity")
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)
    if getattr(obj, names[0]).min() < 0.0:
        raise InvalidParameterError(f"{owner} {names[0]} must be nonnegative")


@dataclass(frozen=True)
class FiniteSupport:
    """Marker: the parameter is confined to the prior grid's interval with certainty."""


@dataclass(frozen=True)
class TruncatedInfinite:
    """Infinite-support density truncated to the grid.

    ``tail_mass_bound`` records the total probability mass discarded by the
    truncation; it bounds the quadrature error of prior-weighted integrals.
    """

    tail_mass_bound: float


SupportKind = Union[FiniteSupport, TruncatedInfinite]


@dataclass(frozen=True, eq=False)
class Prior:
    """Differentiable parameter density tabulated on a grid.

    Attributes
    ----------
    grid : ParameterGrid
    density : ndarray
        p(theta) at each node, nonnegative, integrating to 1 within
        ``NORMALIZATION_TOL`` under the grid quadrature.
    derivative : ndarray
        dp/dtheta at each node.
    support : FiniteSupport or TruncatedInfinite
    """

    grid: ParameterGrid
    density: np.ndarray
    derivative: np.ndarray
    support: SupportKind

    def __post_init__(self):
        _freeze_on_grid(self, "prior", ("density", "derivative"))
        mass = quadrature(self.density, self.grid)
        if abs(mass - 1.0) > NORMALIZATION_TOL:
            raise InvalidParameterError(f"prior density integrates to {mass!r}, not 1")


def uniform_prior(theta_min: float, theta_max: float, n_points: int = 2001) -> Prior:
    """Uniform density on [theta_min, theta_max]; the finite-support prior."""
    grid = ParameterGrid(theta_min, theta_max, n_points)
    dens = np.full(n_points, 1.0 / grid.span)
    return Prior(grid, dens, np.zeros(n_points), FiniteSupport())


def gaussian_prior(
    mean: float,
    sigma: float,
    n_points: int = 2001,
    tail_mass: float = DEFAULT_TAIL_MASS,
    lower: float | None = None,
    upper: float | None = None,
) -> Prior:
    """Normal density truncated where the per-side tail mass drops below
    ``tail_mass``.

    ``lower`` / ``upper`` clip the truncation window further (for example to
    keep a positivity constraint on the parameter); the extra discarded mass
    is folded into the recorded ``tail_mass_bound``. The density is not
    renormalised, so a cut that discards more than ``NORMALIZATION_TOL`` of
    the mass raises :class:`InvalidParameterError` naming the cut.
    """
    _finite_number(sigma, "sigma")
    if sigma <= 0:
        raise InvalidParameterError("sigma must be positive")
    _finite_number(tail_mass, "tail_mass")
    if not 0.0 < tail_mass < 0.5:
        raise InvalidParameterError("tail_mass must lie in (0, 0.5)")
    _finite_number(mean, "mean")
    from statistics import NormalDist  # it loads fractions, decimal and random; no other prior needs them

    lo = NormalDist(mean, sigma).inv_cdf(tail_mass)
    hi = mean + (mean - lo)
    cuts = []
    if lower is not None and float(lower) > lo:
        lo = float(lower)
        cuts.append(f"lower={lo}")
    if upper is not None and float(upper) < hi:
        hi = float(upper)
        cuts.append(f"upper={hi}")
    if not lo < hi:
        raise InvalidParameterError("truncation window is empty")
    grid = ParameterGrid(lo, hi, n_points)
    z = (grid.nodes - mean) / sigma
    dens = np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))
    deriv = -(grid.nodes - mean) / sigma**2 * dens
    # erfc on both tails keeps masses near 1e-12 free of cancellation.
    root2_sigma = math.sqrt(2.0) * sigma
    lower_tail = math.erfc((mean - lo) / root2_sigma)
    upper_tail = math.erfc((hi - mean) / root2_sigma)
    discarded = 0.5 * (lower_tail + upper_tail)
    if cuts and abs(quadrature(dens, grid) - 1.0) > NORMALIZATION_TOL:
        raise InvalidParameterError(
            f"gaussian prior cut {' and '.join(cuts)} discards {discarded:.6g} of the mass, "
            f"more than NORMALIZATION_TOL={NORMALIZATION_TOL}; the cut density is not renormalised"
        )
    return Prior(grid, dens, deriv, TruncatedInfinite(discarded))


def gamma_prior(
    shape: float,
    scale: float,
    n_points: int = 2001,
    tail_mass: float = DEFAULT_TAIL_MASS,
) -> Prior:
    """Gamma density truncated at ``tail_mass`` per side; support is theta > 0.

    The density is not renormalised: where the grid cannot integrate it to 1,
    :class:`InvalidParameterError` names the cause. The only function of the
    package that needs SciPy (for the inverse incomplete gamma function); it
    imports ``scipy.special`` on first call, which keeps ``import infobounds``
    down to NumPy.
    """
    _finite_number(shape, "shape")
    _finite_number(scale, "scale")
    if shape <= 0 or scale <= 0:
        raise InvalidParameterError("shape and scale must be positive")
    _finite_number(tail_mass, "tail_mass")
    if not 0.0 < tail_mass < 0.5:
        raise InvalidParameterError("tail_mass must lie in (0, 0.5)")
    from scipy.special import gammainc, gammaincc, gammainccinv, gammaincinv, gammaln

    lo = scale * float(gammaincinv(shape, tail_mass))
    hi = scale * float(gammainccinv(shape, tail_mass))
    grid = ParameterGrid(lo, hi, n_points)
    u = grid.nodes / scale
    dens = np.exp((shape - 1.0) * np.log(u) - u - gammaln(shape)) / scale
    deriv = dens * ((shape - 1.0) / grid.nodes - 1.0 / scale)
    discarded = float(gammainc(shape, lo / scale) + gammaincc(shape, hi / scale))
    mass = quadrature(dens, grid)
    if abs(mass - 1.0) > NORMALIZATION_TOL:
        if discarded >= NORMALIZATION_TOL:
            cause = f"tail_mass={tail_mass} discards {discarded:.3g} of the mass"
        elif shape < 2.0:
            cause = "p'(theta) diverges toward theta = 0 for shape < 2, so the error shrinks more slowly than h^2"
        else:  # the error of the trapezoid rule shrinks as h^2: scale it down to the tolerance
            ratio = abs(mass - (1.0 - discarded)) / (NORMALIZATION_TOL - discarded)
            cause = f"n_points={1 + math.ceil((n_points - 1) * math.sqrt(ratio))} brings its h^2 error within tolerance"
        raise InvalidParameterError(f"gamma prior density integrates to {mass!r} on {n_points} nodes, not 1 "
                                    f"within NORMALIZATION_TOL={NORMALIZATION_TOL}: {cause}; it is not renormalised")
    return Prior(grid, dens, deriv, TruncatedInfinite(discarded))


# ---------------------------------------------------------------------------
# Weight functions
# ---------------------------------------------------------------------------

BOXCAR = "boxcar"
PRIOR_MATCHED = "prior"
CUSTOM = "custom"

_WEIGHT_KINDS = (BOXCAR, PRIOR_MATCHED, CUSTOM)


@dataclass(frozen=True, eq=False)
class WeightFunction:
    """Nonnegative weight f(theta) and its derivative on a grid.

    The boxcar kind carries its boundary jumps analytically (they enter the
    bounds as boundary probability terms, never as numerical derivatives),
    so its values are identically one and its tabulated derivative
    identically zero; a boxcar weight of other values raises
    :class:`InvalidWeightError`, since every evaluator relies on them.
    """

    grid: ParameterGrid
    values: np.ndarray
    derivative: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in _WEIGHT_KINDS:
            raise InvalidParameterError(f"unknown weight kind {self.kind!r}")
        _freeze_on_grid(self, "weight", ("values", "derivative"))
        if self.kind == BOXCAR and not (np.all(self.values == 1.0) and not self.derivative.any()):
            raise InvalidWeightError("boxcar weight must be 1 with a zero derivative at every node")


def _boxcar(grid: ParameterGrid) -> WeightFunction:
    n = _of_kind(grid, ParameterGrid, "grid").n_points
    return WeightFunction(grid, np.ones(n), np.zeros(n), BOXCAR)


def _matched(prior: Prior) -> WeightFunction:
    return WeightFunction(_of_kind(prior, Prior, "prior").grid, prior.density, prior.derivative, PRIOR_MATCHED)


def boxcar_weight(grid: ParameterGrid) -> WeightFunction:
    """Indicator weight: 1 on the grid interval, 0 outside.

    Built through the memo: equal grids give one object while it is kept.
    """
    return _kept(_boxcar, grid)


def prior_weight(prior: Prior) -> WeightFunction:
    """Weight matched to the prior density itself.

    Built through the memo: one object per prior while it is kept.
    """
    return _kept(_matched, prior)


def gaussian_weight(grid: ParameterGrid, center: float, width: float) -> WeightFunction:
    """Unnormalized Gaussian bump; a smooth custom weight that decays at the
    grid boundaries when ``width`` is small against the grid span."""
    _finite_number(center, "center")
    _finite_number(width, "width")
    if width <= 0:
        raise InvalidParameterError("width must be positive")
    z = (_of_kind(grid, ParameterGrid, "grid").nodes - center) / width
    vals = np.exp(-0.5 * z * z)
    deriv = -z / width * vals
    return WeightFunction(grid, vals, deriv, CUSTOM)
