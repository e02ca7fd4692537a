"""Upper bounds on the pointwise mutual information.

One kernel generates the whole family: for a nonnegative weight f(theta)
covering the prior's support,

    Lambda(x, theta) = sensitivity * f^2 + fdot^2 + 2 * score * f * fdot,

and the bound is

    pmi(x, theta) <= log( integral of (p(x|theta')/p(x)) * sqrt(Lambda) )
                     - log f(theta).

The boxcar weight turns its boundary jumps into the exact boundary
probability term (p(x|a) + p(x|b))/p(x) with zero penalty; the
prior-matched weight turns the penalty into the surprisal -log p(theta).
The classical sensitivity is the squared score, making Lambda a perfect
square that is evaluated in factored form; a quantum sensitivity replaces
it pointwise.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegenerateMarginalError,
    InfoBoundError,
    InvalidWeightError,
    NegativeLambdaError,
    NonFiniteError,
    ThetaOutsideSupportError,
    ZeroWeightError,
)
from .grids import quadrature, quadrature_rows
from .information import (
    MARGINAL_FLOOR,
    fisher_information,
    mutual_information,
    outcome_grid_chunks,
    pmi,
    surprisal,
)
from .models import (
    BOXCAR,
    PRIOR_MATCHED,
    ConditionalModel,
    DiscreteOutcomes,
    FiniteSupport,
    Prior,
    WeightFunction,
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


def lambda_general(sensitivity: float, score: float, f: float, f_dot: float) -> float:
    """Bound kernel sensitivity*f^2 + f_dot^2 + 2*score*f*f_dot.

    With ``sensitivity == score**2`` this is the perfect square
    ``(score*f + f_dot)**2``; a genuine sensitivity must dominate the
    squared score, so the kernel stays nonnegative up to roundoff.

    Tiny negative excursions (within ``NEGATIVE_LAMBDA_RTOL`` of the term
    magnitudes) are clamped to zero; anything beyond that raises
    :class:`NegativeLambdaError`, signalling sensitivity < score^2.
    """
    terms = (sensitivity * f * f, f_dot * f_dot, 2.0 * score * f * f_dot)
    if not all(math.isfinite(t) for t in terms):
        raise NonFiniteError("kernel inputs are not finite")
    if sensitivity < 0.0:
        raise NegativeLambdaError(f"sensitivity must be nonnegative, got {sensitivity}")
    value = terms[0] + terms[1] + terms[2]
    scale = max(1.0, terms[0], terms[1], abs(terms[2]))
    if value < -NEGATIVE_LAMBDA_RTOL * scale:
        raise NegativeLambdaError(
            f"kernel is negative ({value}) beyond tolerance: sensitivity < score^2"
        )
    return max(value, 0.0)


def _lambda_nodes(sens, score, f, fdot) -> np.ndarray:
    """Vectorized kernel with the same clamping semantics as lambda_general."""
    t0 = sens * f * f
    t1 = fdot * fdot
    t2 = 2.0 * score * f * fdot
    if np.any(sens < 0.0):
        raise NegativeLambdaError("sensitivity must be nonnegative at every node")
    value = t0 + t1 + t2
    scale = np.maximum(1.0, np.maximum(t0, np.maximum(t1, np.abs(t2))))
    if np.any(value < -NEGATIVE_LAMBDA_RTOL * scale):
        raise NegativeLambdaError("kernel is negative beyond tolerance at a grid node")
    return np.maximum(value, 0.0)


def sqrt_lambda_nodes(
    model: ConditionalModel,
    weight: WeightFunction,
    x,
    sensitivity: Callable | None = None,
    valid: np.ndarray | None = None,
) -> np.ndarray:
    """sqrt(Lambda) at every grid node for one outcome.

    Classically (``sensitivity is None``) the kernel is the perfect square
    ``(score*f + fdot)**2`` and is evaluated in factored form
    ``|score*f + fdot|``, which is immune to the catastrophic cancellation
    the expanded form suffers near its roots. With an explicit sensitivity
    the expanded kernel is used, clamped at zero.

    ``valid`` masks nodes where the conditional probability vanishes; the
    kernel is not evaluated there (entries are zero).
    """
    nodes = weight.grid.nodes
    out = np.zeros(weight.grid.n_points)
    if valid is None:
        valid = np.ones(weight.grid.n_points, dtype=bool)
    if not np.any(valid):
        return out
    scores = np.asarray(model.score(x, nodes), dtype=float)
    if sensitivity is None:
        out[valid] = np.abs(
            scores[valid] * weight.values[valid] + weight.derivative[valid]
        )
    else:
        sens = np.asarray(sensitivity(x, nodes), dtype=float)
        lam = _lambda_nodes(
            sens[valid], scores[valid], weight.values[valid], weight.derivative[valid]
        )
        out[valid] = np.sqrt(lam)
    if not np.all(np.isfinite(out[valid])):
        raise NonFiniteError("sqrt(Lambda) is not finite at a positive-probability node")
    return out


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """One bound evaluation: the PMI, its upper bound and the pieces.

    ``slack = bound - pmi`` by construction; a negative slack beyond the
    sweep tolerance is a violation. ``boundary_term`` is nonzero only for
    the boxcar weight; ``penalty_term`` is ``-log f(theta)``.
    """

    x: object
    theta: float
    pmi: float
    bound: float
    slack: float
    boundary_term: float
    integral_term: float
    penalty_term: float


@dataclass(frozen=True)
class SkippedPoint:
    """A sweep point whose evaluation raised a per-point contract error."""

    x: object
    theta: float
    reason: str


@dataclass(frozen=True)
class SweepSummary:
    """Aggregate verdict of a bound sweep at a stated slack tolerance."""

    n_evaluations: int
    min_slack: float
    mean_slack: float
    violations: int
    tolerance: float
    n_skipped: int = 0


# ---------------------------------------------------------------------------
# Bound evaluation
# ---------------------------------------------------------------------------


def _check_weight(prior: Prior, weight: WeightFunction) -> None:
    if weight.grid != prior.grid:
        raise InvalidWeightError("weight and prior must share one grid")
    covered = prior.density > 0.0
    if np.any(weight.values[covered] <= 0.0):
        raise InvalidWeightError("weight must be positive wherever the prior is")
    if weight.kind == BOXCAR:
        if not isinstance(prior.support, FiniteSupport):
            raise InvalidWeightError("boxcar weight requires a finite-support prior")
        return
    # The derivation integrates d(p*f)/dtheta over the whole axis, so a
    # smooth weight must have decayed at the truncation boundary.
    peak = weight.values.max()
    if max(weight.values[0], weight.values[-1]) > BOUNDARY_DECAY_RTOL * peak:
        raise InvalidWeightError(
            "weight does not vanish at the grid boundaries; "
            "use a boxcar weight for non-decaying support"
        )


class _OutcomeProfile:
    """Per-outcome pieces of a bound that do not depend on the query theta."""

    __slots__ = ("px", "boundary_term", "integral_term")

    def __init__(self, model, prior, weight, x, sensitivity):
        grid = prior.grid
        logpdf = np.asarray(model.log_pdf(x, grid.nodes), dtype=float)
        pdf = np.exp(logpdf)
        if np.any(np.isnan(pdf)) or np.any(np.isposinf(pdf)):
            raise NonFiniteError(f"conditional density is not finite for outcome {x!r}")
        px = quadrature(pdf * prior.density, grid)
        if px <= MARGINAL_FLOOR:
            raise DegenerateMarginalError(f"marginal probability of {x!r} is degenerate")
        valid = pdf > 0.0
        if not np.all(valid):
            warnings.warn(
                f"outcome {x!r}: {int((~valid).sum())} zero-probability grid nodes "
                "excluded from the bound integral",
                RuntimeWarning,
                stacklevel=3,
            )
        sqrt_lam = sqrt_lambda_nodes(model, weight, x, sensitivity, valid)
        self.px = float(px)
        self.integral_term = quadrature(pdf * sqrt_lam, grid) / px
        if weight.kind == BOXCAR:
            self.boundary_term = float((pdf[0] + pdf[-1]) / px)
        else:
            self.boundary_term = 0.0


def _penalty(prior: Prior, weight: WeightFunction, theta: float) -> float:
    if weight.kind == BOXCAR:
        return 0.0
    if weight.kind == PRIOR_MATCHED:
        return surprisal(prior, theta)
    f_theta = weight.value_at(theta)
    if f_theta <= 0.0:
        raise ZeroWeightError(f"weight vanishes at theta={theta}")
    return float(-np.log(f_theta))


def _assemble(model, prior, weight, x, theta, profile) -> BoundReport:
    if weight.kind == BOXCAR and not prior.grid.contains(theta, slop=1e-12 * max(1.0, prior.grid.span)):
        raise ThetaOutsideSupportError(
            f"theta={theta} outside the finite support "
            f"[{prior.grid.theta_min}, {prior.grid.theta_max}]"
        )
    penalty = _penalty(prior, weight, theta)
    total = profile.boundary_term + profile.integral_term
    if total <= 0.0:
        raise NonFiniteError("bound argument is nonpositive; the weight is degenerate")
    bound = float(np.log(total)) + penalty
    if not np.isfinite(bound):
        raise NonFiniteError("bound value is not finite")
    pmi_val = pmi(model, prior, x, theta)
    return BoundReport(
        x=x,
        theta=float(theta),
        pmi=pmi_val,
        bound=bound,
        slack=bound - pmi_val,
        boundary_term=profile.boundary_term,
        integral_term=profile.integral_term,
        penalty_term=penalty,
    )


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
        classical squared score.
    """
    _check_weight(prior, weight)
    profile = _OutcomeProfile(model, prior, weight, x, sensitivity)
    return _assemble(model, prior, weight, x, theta, profile)


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
    return bound_general(model, prior, boxcar_weight(prior.grid), x, theta, sensitivity)


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
    if weight.kind == BOXCAR:
        return 0.0
    covered = prior.density > 0.0
    safe_vals = np.where(covered, np.where(weight.values > 0.0, weight.values, 1.0), 1.0)
    integrand = np.where(covered, -prior.density * np.log(safe_vals), 0.0)
    return quadrature(integrand, prior.grid)


def mi_bound_average(model: ConditionalModel, prior: Prior, weight: WeightFunction) -> float:
    """Ensemble bound log(integral of sqrt(F f^2 + fdot^2)) minus the
    prior-averaged log weight.

    For the boxcar weight the derivative's boundary jumps contribute the
    constant 2 inside the logarithm (each edge contributes the full jump of
    f), so the value is log(2 + integral of sqrt(F)).
    """
    _check_weight(prior, weight)
    fi = np.asarray(fisher_information(model, prior.grid.nodes), dtype=float)
    if not np.all(np.isfinite(fi)):
        raise NonFiniteError("Fisher information is not finite on the grid")
    if weight.kind == BOXCAR:
        total = 2.0 + quadrature(np.sqrt(fi), prior.grid)
    else:
        integrand = np.sqrt(fi * weight.values**2 + weight.derivative**2)
        total = quadrature(integrand, prior.grid)
    if total <= 0.0:
        raise NonFiniteError("average bound argument is nonpositive")
    value = float(np.log(total)) + _average_penalty(prior, weight)
    if not np.isfinite(value):
        raise NonFiniteError("average bound is not finite")
    return value


def average_pointwise_bound(
    model: ConditionalModel,
    prior: Prior,
    weight: WeightFunction,
    sensitivity: Callable | None = None,
) -> float:
    """Joint-distribution average of the pointwise bound.

    The bound's only theta dependence is the penalty term, so the average
    splits into the outcome-marginal average of the log integral plus the
    prior average of the penalty. On a continuous outcome space, raises
    :class:`UnnormalizedOutcomeSpaceError` if the outcome grid does not hold
    the conditional mass at some prior node.
    """
    _check_weight(prior, weight)
    penalty_avg = _average_penalty(prior, weight)
    space = model.outcome_space
    if isinstance(space, DiscreteOutcomes):
        total = 0.0
        for x in space.outcomes:
            profile = _OutcomeProfile(model, prior, weight, x, sensitivity)
            total += profile.px * np.log(profile.boundary_term + profile.integral_term)
        return float(total) + penalty_avg
    if sensitivity is not None:
        raise InfoBoundError(
            "explicit sensitivities are only supported for discrete outcome spaces"
        )
    xg = space.grid
    nodes = prior.grid.nodes
    g = np.empty(xg.n_points)
    for rows, xs, _logpdf, pdf in outcome_grid_chunks(model, prior):
        px = quadrature_rows(pdf * prior.density, prior.grid)
        scores = np.asarray(model.score(xs[:, None], nodes[None, :]), dtype=float)
        sqrt_lam = np.where(
            pdf > 0.0, np.abs(scores * weight.values + weight.derivative), 0.0
        )
        integral = quadrature_rows(pdf * sqrt_lam, prior.grid)
        if weight.kind == BOXCAR:
            integral = integral + pdf[:, 0] + pdf[:, -1]
        # p(x) log(.../p(x)) -> 0 with vanishing marginal weight
        ok = px > MARGINAL_FLOOR
        ratio = np.where(ok, integral, 1.0) / np.where(ok, px, 1.0)
        g[rows] = np.where(ok, px * np.log(ratio), 0.0)
    return float(quadrature(g, xg)) + penalty_avg


def mi_chain_values(
    model: ConditionalModel,
    prior: Prior,
    weight: WeightFunction,
    sensitivity: Callable | None = None,
) -> tuple[float, float, float]:
    """(mutual information, averaged pointwise bound, ensemble bound)."""
    return (
        mutual_information(model, prior),
        average_pointwise_bound(model, prior, weight, sensitivity),
        mi_bound_average(model, prior, weight),
    )


def chain_holds(mi: float, avg_bound: float, avg_limit: float, tolerance: float = DEFAULT_SLACK_TOL) -> bool:
    """True iff mi <= avg_bound <= avg_limit within the tolerance."""
    return mi <= avg_bound + tolerance and avg_bound <= avg_limit + tolerance


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

_BOUND_KINDS = ("theorem1", "theorem2", "general")


def _weight_for_kind(prior: Prior, bound_kind: str, weight: WeightFunction | None) -> WeightFunction:
    if bound_kind == "theorem1":
        return boxcar_weight(prior.grid)
    if bound_kind == "theorem2":
        return prior_weight(prior)
    if bound_kind == "general":
        if weight is None:
            raise InfoBoundError("bound_kind 'general' requires an explicit weight")
        return weight
    raise InfoBoundError(f"unknown bound kind {bound_kind!r}; expected one of {_BOUND_KINDS}")


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

    Evaluation order is x-major and deterministic. Per-point contract
    errors are recorded as :class:`SkippedPoint` entries instead of
    aborting the sweep, so a single degenerate point cannot mask a bound
    violation elsewhere.
    """
    wt = _weight_for_kind(prior, bound_kind, weight)
    _check_weight(prior, wt)
    reports: list[BoundReport] = []
    skipped: list[SkippedPoint] = []
    for x in x_samples:
        try:
            profile = _OutcomeProfile(model, prior, wt, x, sensitivity)
        except InfoBoundError as exc:
            for theta in theta_samples:
                skipped.append(SkippedPoint(x, float(theta), type(exc).__name__))
            continue
        for theta in theta_samples:
            try:
                reports.append(_assemble(model, prior, wt, x, theta, profile))
            except InfoBoundError as exc:
                skipped.append(SkippedPoint(x, float(theta), type(exc).__name__))
    return reports, skipped


def summarize_sweep(
    reports: Sequence[BoundReport],
    tolerance: float = DEFAULT_SLACK_TOL,
    n_skipped: int = 0,
) -> SweepSummary:
    if tolerance <= 0:
        raise InfoBoundError("tolerance must be positive")
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


def verify_bound_sweep(
    model: ConditionalModel,
    prior: Prior,
    bound_kind: str,
    x_samples: Sequence,
    theta_samples: Sequence[float],
    tolerance: float = DEFAULT_SLACK_TOL,
    weight: WeightFunction | None = None,
    sensitivity: Callable | None = None,
) -> SweepSummary:
    """Run a sweep and reduce it to violation counts at the tolerance."""
    reports, skipped = bound_sweep(
        model, prior, bound_kind, x_samples, theta_samples, weight, sensitivity
    )
    return summarize_sweep(reports, tolerance, n_skipped=len(skipped))
