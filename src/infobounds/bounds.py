"""Upper bounds on the pointwise mutual information.

One kernel generates the whole family: for a nonnegative weight f(theta)
covering the prior's support,

    Lambda(x, theta) = sensitivity * f^2 + fdot^2 + 2 * score * f * fdot,

and the bound is

    pmi(x, theta) <= log( integral of (p(x|theta')/p(x)) * sqrt(Lambda) )
                     - log f(theta).

The boxcar weight (f = 1, fdot = 0) turns its boundary jumps into the
exact boundary probability term (p(x|a) + p(x|b))/p(x) with zero penalty,
and its kernel is the sensitivity itself; the prior-matched weight turns
the penalty into the surprisal -log p(theta). The classical sensitivity is
the squared score, making Lambda a perfect square that is evaluated in
factored form (for the boxcar weight, the root is |score|); a quantum
sensitivity replaces it pointwise.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import (
    InfoBoundError,
    InvalidParameterError,
    InvalidWeightError,
    NegativeLambdaError,
    NonFiniteError,
)
from .grids import _finite_number, _of_kind, _real_array, quadrature
from .information import (
    _Block,
    _checked_model,
    _fisher_rows,
    _likelihood_error,
    _marginal_rows,
    _mi_rows,
    _outcome_row,
    _outcome_sums,
    _prior_table,
    _theta_array,
    _theta_terms,
)
from .models import (
    ConditionalModel,
    Prior,
    WeightFunction,
    _kept,
    boxcar_weight,
    prior_weight,
)

#: Lambda values below -NEGATIVE_LAMBDA_RTOL * scale are a contract violation.
NEGATIVE_LAMBDA_RTOL = 1e-9

#: Default absolute slack tolerance for violation counting.
DEFAULT_SLACK_TOL = 1e-6

#: Non-boxcar weights must have decayed to this fraction of their maximum at
#: the grid boundaries. The derivation drops a boundary term of that relative
#: size, orders below the slack tolerance for integrands of the weight's
#: scale; a Gaussian clipped to a positivity constraint sits near 4e-6.
BOUNDARY_DECAY_RTOL = 1e-5


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------


def lambda_general(sensitivity, score, f, f_dot):
    """Bound kernel sensitivity*f^2 + f_dot^2 + 2*score*f*f_dot, elementwise.

    With ``sensitivity == score**2`` this is the perfect square
    ``(score*f + f_dot)**2``; a genuine sensitivity must dominate the
    squared score, so the kernel stays nonnegative up to roundoff.

    Tiny negative excursions (within ``NEGATIVE_LAMBDA_RTOL`` of the term
    magnitudes) are clamped to zero; anything beyond that raises
    :class:`NegativeLambdaError`, signalling sensitivity < score^2. The
    checks read reductions of the kernel (its minimum and maximum, which a
    NaN propagates to) and of the sensitivity; the term magnitudes are only
    formed when some value is negative. Scalar inputs give a float; inputs
    that are not real numbers raise :class:`InvalidParameterError` naming
    the first of them.
    """
    heads = (f"{name} must be real numbers" for name in ("sensitivity", "score", "f", "f_dot"))
    sensitivity, score, f, f_dot = map(_real_array, (sensitivity, score, f, f_dot), heads)
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 and overflow fail the check below
        t0 = sensitivity * f * f
        t1 = f_dot * f_dot
        t2 = 2.0 * score * f * f_dot
        value = np.asarray(t0 + t1 + t2)
    low = np.minimum.reduce(value, axis=None, initial=math.inf)
    if not (-math.inf < low and np.maximum.reduce(value, axis=None, initial=-math.inf) < math.inf):
        raise NonFiniteError("kernel inputs are not finite")
    if np.minimum.reduce(sensitivity, axis=None, initial=0.0) < 0.0:
        raise NegativeLambdaError("sensitivity must be nonnegative")
    if low < 0.0:
        scale = np.maximum(1.0, np.maximum(t0, np.maximum(t1, np.abs(t2))))
        if np.any(value < -NEGATIVE_LAMBDA_RTOL * scale):
            raise NegativeLambdaError("kernel is negative beyond tolerance: sensitivity < score^2")
        value = np.maximum(value, 0.0)
    return float(value) if value.ndim == 0 else value


def _sqrt_lambda(block: _Block, weight: WeightFunction) -> np.ndarray:
    """sqrt(Lambda) on each row of a block of the joint table.

    Classically (no sensitivity in the block) the kernel is the perfect
    square ``(score*f + fdot)**2`` and is evaluated in factored form
    ``|score*f + fdot|``, which is immune to the catastrophic cancellation
    the expanded form suffers near its roots; its maximum must be finite.
    With an explicit sensitivity the expanded kernel is used, checked and
    clamped at zero by :func:`lambda_general`. The boxcar weight (f = 1,
    fdot = 0) makes the kernel the sensitivity itself, or the squared score
    classically, so its root is taken directly: ``sqrt(sensitivity)`` after
    :func:`lambda_general`'s checks, or ``|score|``. The block reads score
    and sensitivity 0 at its cells of zero probability, so there the root is
    ``|fdot|``, which the block's zero probability cancels.
    """
    if block.sensitivity is not None:
        if not weight.boxcar:
            return np.sqrt(lambda_general(block.sensitivity, block.score, weight.values, weight.derivative))
        sensitivity, score = block.sensitivity, block.score
        low = np.minimum.reduce(sensitivity, axis=None)
        finite = (-math.inf < low and np.maximum.reduce(sensitivity, axis=None) < math.inf
                  and -math.inf < np.minimum.reduce(score, axis=None) and np.maximum.reduce(score, axis=None) < math.inf)
        if not finite:  # NaN fails too
            raise NonFiniteError("kernel inputs are not finite")
        if low < 0.0:
            raise NegativeLambdaError("sensitivity must be nonnegative")
        return np.sqrt(sensitivity)
    root = np.abs(block.score) if weight.boxcar else np.abs(block.score * weight.values + weight.derivative)
    if not np.maximum.reduce(root, axis=None) < math.inf:  # NaN fails too
        raise NonFiniteError("sqrt(Lambda) is not finite at a positive-probability node")
    return root


def sqrt_lambda_nodes(model: ConditionalModel, weight: WeightFunction, x, sensitivity=None):
    """sqrt(Lambda) at every grid node for one outcome (see :func:`_sqrt_lambda`),
    0 where the outcome has zero probability."""
    grid = _of_kind(weight, WeightFunction, "weight", InvalidWeightError).grid
    block = _outcome_row(model, grid, x, score=True, sensitivity=sensitivity)
    return np.where(block.pdf[0] > 0.0, _sqrt_lambda(block, weight)[0], 0.0)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


BoundReport = namedtuple("BoundReport", "x theta pmi bound slack boundary_term integral_term penalty_term")
BoundReport.__doc__ = """One bound evaluation: the PMI, its upper bound and the pieces.

``slack = bound - pmi`` by construction; a negative slack beyond the
sweep tolerance is a violation. ``boundary_term`` is nonzero only for
the boxcar weight; ``penalty_term`` is ``-log f(theta)``.
"""

SkippedPoint = namedtuple("SkippedPoint", "x theta reason")
SkippedPoint.__doc__ = """A sweep point whose evaluation raised a per-point contract error."""

SweepSummary = namedtuple("SweepSummary", "n_evaluations min_slack mean_slack violations tolerance n_skipped",
                          defaults=(0,))
SweepSummary.__doc__ = """Aggregate verdict of a bound sweep at a stated slack tolerance."""


# ---------------------------------------------------------------------------
# Bound evaluation
# ---------------------------------------------------------------------------


def _check_weight(prior: Prior, weight: WeightFunction) -> None:
    """Check that ``weight`` is admissible for ``prior``. Callers run it
    through the memo, so a pair that passes skips the grid scan while it is
    kept; an invalid pair raises on every call."""
    _of_kind(prior, Prior, "prior")
    if _of_kind(weight, WeightFunction, "weight", InvalidWeightError).grid != prior.grid:
        raise InvalidWeightError("weight and prior must share one grid")
    covered = prior.density > 0.0
    if np.any(weight.values[covered] <= 0.0):
        raise InvalidWeightError("weight must be positive wherever the prior is")
    if weight.boxcar:
        if prior.tail_mass_bound is not None:
            raise InvalidWeightError("boxcar weight requires a finite-support prior")
    elif max(weight.values[0], weight.values[-1]) > BOUNDARY_DECAY_RTOL * weight.values.max():
        # The derivation integrates d(p*f)/dtheta over the whole axis, so a
        # smooth weight must have decayed at the truncation boundary.
        raise InvalidWeightError(
            "weight does not vanish at the grid boundaries; "
            "use a boxcar weight for non-decaying support"
        )


def _bound_rows(block: _Block, prior: Prior, weight: WeightFunction, px: np.ndarray):
    """Boundary and integral terms of each row's bound, both over p(x)."""
    root = _sqrt_lambda(block, weight)
    integral = quadrature(block.pdf * root, prior.grid) / px
    if weight.boxcar:
        return (block.pdf[:, 0] + block.pdf[:, -1]) / px, integral
    return np.zeros_like(px), integral


def _outcome_terms(model, prior, weight, sensitivity, x) -> tuple:
    """log p(x), the boundary and integral terms at outcome x and the log of
    their sum (None unless positive), from one grid row: none depends on theta."""
    block = _outcome_row(model, prior.grid, x, score=True, sensitivity=sensitivity)
    _, px = _marginal_rows(block, prior)
    boundary, integral = (float(a[0]) for a in _bound_rows(block, prior, weight, px))
    argument = boundary + integral
    return float(np.log(px[0])), boundary, integral, None if argument <= 0.0 else float(np.log(argument))


def _evaluate(model, prior, weight, outcomes: list, th: np.ndarray, sensitivity) -> list[list]:
    """The sweep evaluator: one row per outcome of each point's
    :class:`BoundReport`, or of the :class:`InfoBoundError` that rules the
    point out: the first error of its outcome's grid row, its theta sample,
    its bound and its likelihood. The theta samples ``th`` are already
    parsed by :func:`_theta_array`. A single point goes through
    :func:`_point` instead, which keeps this order.

    The outcome terms are evaluated once per outcome and kept (see
    :func:`models._kept`), the penalty once per theta sample. The outcomes
    with a point left open are collected once, with their rows and terms,
    and their likelihood is one table against the theta samples that passed
    their own checks (``th`` itself when all did): such a row's log argument
    is finite, as is every penalty of a weight's finite values, so its open
    points are exactly those samples.
    """
    penalty, theta_errors = _theta_terms(prior, weight, th)
    thetas = th.tolist()
    rows, pending = [], []
    for x in outcomes:
        try:
            log_px, boundary, integral, log_argument = _kept(_outcome_terms, model, prior, weight, sensitivity, x)
        except InfoBoundError as exc:
            rows.append([exc] * len(thetas))
            continue
        if log_argument is None:
            degenerate = NonFiniteError("bound argument is nonpositive; the weight is degenerate")
            rows.append([e or degenerate for e in theta_errors])
            continue
        bounds = [log_argument + p for p in penalty]
        row = [e or (None if math.isfinite(b) else NonFiniteError("bound value is not finite"))
               for e, b in zip(theta_errors, bounds)]
        rows.append(row)
        if None in row:
            pending.append((x, row, log_px, boundary, integral, bounds))
    if not pending:
        return rows
    columns = [i for i, e in enumerate(theta_errors) if e is None]
    table = model.table([x for x, *_ in pending], th if len(columns) == len(thetas) else th[columns])
    for (x, row, log_px, boundary, integral, bounds), values in zip(pending, table[0].tolist()):
        for i, value in zip(columns, values):
            pmi = value - log_px
            row[i] = _likelihood_error(x, thetas[i], value) or BoundReport(
                x, thetas[i], pmi, bounds[i], bounds[i] - pmi, boundary, integral, penalty[i]
            )
    return rows


def _point(model, prior, weight, x, theta, sensitivity) -> tuple:
    """One point as ``(theta, pmi, bound, boundary, integral, penalty)``,
    ``theta`` the Python float of the parsed sample, or the point's first
    error in :func:`_evaluate`'s order: its outcome's grid row, its theta
    sample, a nonpositive bound argument, a non-finite bound, its
    likelihood. The weight is checked and theta parsed as one number first,
    before any model call; the likelihood is one (1, 1) table.
    """
    _kept(_check_weight, prior, weight)
    th = _theta_array(theta, point=True)
    log_px, boundary, integral, log_argument = _kept(_outcome_terms, model, prior, weight, sensitivity, x)
    (penalty,), (error,) = _theta_terms(prior, weight, th)
    if error is not None:
        raise error
    if log_argument is None:
        raise NonFiniteError("bound argument is nonpositive; the weight is degenerate")
    bound = log_argument + penalty
    if not math.isfinite(bound):
        raise NonFiniteError("bound value is not finite")
    theta = th.item()
    value = model.table((x,), th)[0].item()
    error = _likelihood_error(x, theta, value)
    if error is not None:
        raise error
    return theta, value - log_px, bound, boundary, integral, penalty


def bound_general(
    model: ConditionalModel,
    prior: Prior,
    weight: WeightFunction,
    x,
    theta: float,
    sensitivity: Callable | None = None,
) -> BoundReport:
    """PMI upper bound for an arbitrary admissible weight function.

    Parameters
    ----------
    sensitivity : callable, optional
        ``sensitivity(x, thetas) -> ndarray`` replacing the squared score
        pointwise (the quantum per-outcome sensitivity). Defaults to the
        classical squared score. Like the model's callables, it must
        broadcast a column of outcomes against a row of thetas when it is
        averaged over a continuous outcome grid.
    """
    theta, pmi, bound, boundary, integral, penalty = _point(model, prior, weight, x, theta, sensitivity)
    return BoundReport(x, theta, pmi, bound, bound - pmi, boundary, integral, penalty)


def bound_theorem1(
    model: ConditionalModel,
    prior: Prior,
    x,
    theta: float,
    sensitivity: Callable | None = None,
) -> BoundReport:
    """Finite-support bound: boundary outcome ratios plus the integrated
    root sensitivity, with zero penalty.

    Requires a finite-support prior and ``theta`` inside its interval.
    """
    weight = boxcar_weight(_of_kind(prior, Prior, "prior").grid)
    return bound_general(model, prior, weight, x, theta, sensitivity)


def bound_theorem2(
    model: ConditionalModel,
    prior: Prior,
    x,
    theta: float,
    sensitivity: Callable | None = None,
) -> BoundReport:
    """Prior-matched bound: integrated root kernel of the prior density
    plus the surprisal -log p(theta).

    Valid for differentiable priors that decay at their truncation
    boundaries.
    """
    return bound_general(model, prior, prior_weight(prior), x, theta, sensitivity)


# ---------------------------------------------------------------------------
# Ensemble-average bounds
# ---------------------------------------------------------------------------


def _average_penalty(prior: Prior, weight: WeightFunction) -> float:
    if weight.boxcar:
        return 0.0
    covered = prior.density > 0.0
    safe_vals = np.where(covered, np.where(weight.values > 0.0, weight.values, 1.0), 1.0)
    integrand = np.where(covered, -prior.density * np.log(safe_vals), 0.0)
    return quadrature(integrand, prior.grid)


def _ensemble_bound(prior: Prior, weight: WeightFunction, fi: np.ndarray) -> float:
    """The ensemble bound from the Fisher information at the prior nodes."""
    if not np.maximum.reduce(fi, axis=None) < math.inf:  # NaN fails too
        raise NonFiniteError("Fisher information is not finite on the grid")
    if weight.boxcar:
        total = 2.0 + quadrature(np.sqrt(fi), prior.grid)
    else:
        integrand = np.sqrt(fi * weight.values**2 + weight.derivative**2)
        total = quadrature(integrand, prior.grid)
    if total <= 0.0:
        raise NonFiniteError("average bound argument is nonpositive")
    value = float(np.log(total))
    if not weight.boxcar:  # f -> c f adds log c to the log; the penalty's average over
        # the grid prior's trapezoid mass (1 only within NORMALIZATION_TOL) takes it off exactly
        value += _average_penalty(prior, weight) / quadrature(prior.density, prior.grid)
    if not math.isfinite(value):
        raise NonFiniteError("average bound is not finite")
    return value


def mi_bound_average(model: ConditionalModel, prior: Prior, weight: WeightFunction) -> float:
    """Ensemble bound log(integral of sqrt(F f^2 + fdot^2)) minus the
    prior-averaged log weight, averaged over the grid prior's trapezoid mass
    so that scaling the weight leaves the bound unchanged.

    For the boxcar weight the derivative's boundary jumps contribute the
    constant 2 inside the logarithm (each edge contributes the full jump of
    f), so the value is log(2 + integral of sqrt(F)).
    """
    _kept(_check_weight, prior, weight)
    (fi,) = _outcome_sums(_prior_table(model, prior.grid, score=True), None, _fisher_rows)
    return _ensemble_bound(prior, weight, fi)


def _average_rows(weight: WeightFunction, block: _Block, prior: Prior, joint, px: np.ndarray):
    """p(x) times the log of each row's bound argument: the row's share of
    the joint average of the bound, penalty aside: an ``_outcome_sums`` part."""
    boundary, integral = _bound_rows(block, prior, weight, px)
    argument = boundary + integral
    if np.minimum.reduce(argument, axis=None) <= 0.0:
        raise NonFiniteError("bound argument is nonpositive; the weight is degenerate")
    return px * np.log(argument)


def average_pointwise_bound(
    model: ConditionalModel,
    prior: Prior,
    weight: WeightFunction,
    sensitivity: Callable | None = None,
) -> float:
    """Joint-distribution average of the pointwise bound.

    The bound's only theta dependence is the penalty term, so the average
    splits into the outcome-marginal average of the log integral plus the
    prior average of the penalty. ``sensitivity`` works as in
    :func:`bound_general`, on discrete and continuous outcome spaces alike.
    Raises :class:`UnnormalizedOutcomeSpaceError` if the outcome space does
    not hold the conditional mass at some prior node.
    """
    _kept(_check_weight, prior, weight)
    blocks = _prior_table(model, prior.grid, True, sensitivity)
    (avg,) = _outcome_sums(blocks, prior, partial(_average_rows, weight))
    return float(avg) + _average_penalty(prior, weight)


def mi_chain_values(
    model: ConditionalModel,
    prior: Prior,
    weight: WeightFunction,
    sensitivity: Callable | None = None,
) -> tuple[float, float, float]:
    """(mutual information, averaged pointwise bound, ensemble bound).

    All three come from one pass over the joint table, so every model cell
    is evaluated once; each value equals that of its own function.
    """
    _kept(_check_weight, prior, weight)
    blocks = _prior_table(model, prior.grid, True, sensitivity)
    mi, avg, fi = _outcome_sums(blocks, prior, _mi_rows, partial(_average_rows, weight), _fisher_rows)
    return (
        float(mi),
        float(avg) + _average_penalty(prior, weight),
        _ensemble_bound(prior, weight, fi),
    )


def chain_holds(mi: float, avg_bound: float, avg_limit: float, tolerance: float = DEFAULT_SLACK_TOL) -> bool:
    """True iff mi <= avg_bound <= avg_limit within the tolerance. The three
    values must be finite numbers and the tolerance a finite nonnegative one."""
    for name, value in (("mi", mi), ("avg_bound", avg_bound), ("avg_limit", avg_limit)):
        _finite_number(value, name)
    _finite_number(tolerance, "tolerance", nonnegative=True)
    return mi <= avg_bound + tolerance and avg_bound <= avg_limit + tolerance


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

_BOUND_KINDS = ("theorem1", "theorem2", "general")


def _weight_for_kind(prior: Prior, bound_kind: str, weight: WeightFunction | None) -> WeightFunction:
    if weight is not None and bound_kind in ("theorem1", "theorem2"):
        raise InvalidWeightError(
            f"bound_kind {bound_kind!r} fixes its own weight; pass weight=None, or 'general' with the weight"
        )
    if bound_kind == "theorem1":
        return boxcar_weight(_of_kind(prior, Prior, "prior").grid)
    if bound_kind == "theorem2":
        return prior_weight(prior)
    if bound_kind == "general":
        if weight is None:
            raise InvalidWeightError("bound_kind 'general' requires an explicit weight")
        return weight
    raise InvalidWeightError(f"unknown bound kind {bound_kind!r}; expected one of {_BOUND_KINDS}")


def bound_sweep(
    model: ConditionalModel,
    prior: Prior,
    bound_kind: str,
    x_samples: Sequence,
    theta_samples: Sequence[float],
    weight: WeightFunction | None = None,
    sensitivity: Callable | None = None,
) -> tuple[list[BoundReport], list[SkippedPoint]]:
    """Evaluate the selected bound at every (x, theta) pair.

    ``"theorem1"`` and ``"theorem2"`` fix their own weight, so a ``weight``
    given with either raises :class:`InvalidWeightError`; ``"general"``
    requires one. Evaluation order is x-major and deterministic. Per-point
    contract errors are recorded as :class:`SkippedPoint` entries instead
    of aborting the sweep, so a single degenerate point cannot mask a bound
    violation elsewhere.
    """
    wt = _weight_for_kind(prior, bound_kind, weight)
    _kept(_check_weight, prior, wt)
    try:
        outcomes = list(x_samples)
    except TypeError:
        raise InvalidParameterError(f"x_samples must be a sequence of outcomes, got {x_samples!r}") from None
    th = _theta_array(theta_samples)
    if th.ndim != 1:
        raise InvalidParameterError(f"theta samples must be a 1-D sequence of numbers, got shape {th.shape}")
    reports, skipped, thetas = [], [], th.tolist()
    rows = _evaluate(_checked_model(model, sensitivity), prior, wt, outcomes, th, sensitivity)
    for x, row in zip(outcomes, rows):
        for theta, point in zip(thetas, row):
            if isinstance(point, BoundReport):
                reports.append(point)
            else:
                skipped.append(SkippedPoint(x, theta, type(point).__name__))
    return reports, skipped


def summarize_sweep(
    reports: Sequence[BoundReport],
    tolerance: float = DEFAULT_SLACK_TOL,
    n_skipped: int = 0,
) -> SweepSummary:
    _finite_number(tolerance, "tolerance")
    if tolerance <= 0:
        raise InvalidParameterError("tolerance must be positive")
    if isinstance(n_skipped, bool) or not isinstance(n_skipped, numbers.Integral) or n_skipped < 0:
        raise InvalidParameterError(f"n_skipped must be a nonnegative integer, got {n_skipped!r}")
    if not reports:
        raise InfoBoundError("sweep produced no successful evaluations")
    slacks = np.array([r.slack for r in reports])
    return SweepSummary(
        n_evaluations=len(reports),
        min_slack=float(slacks.min()),
        mean_slack=float(slacks.mean()),
        violations=int((slacks < -tolerance).sum()),
        tolerance=float(tolerance),
        n_skipped=int(n_skipped),
    )

