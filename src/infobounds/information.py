"""Pointwise and ensemble information quantities of a (model, prior) pair.

All integrals over the parameter run on the prior's grid with the trapezoid
rule; integrals over a continuous outcome run on the model's outcome grid.
Every ensemble quantity, here and in :mod:`infobounds.bounds`, is an
outcome sum over one joint table of ``log p(x|theta)``, the score and
optionally a sensitivity, which :func:`_joint_table` evaluates block by
block through :meth:`ConditionalModel.table`, each cell once. One walk,
:func:`_outcome_sums`, sums the parts (row functions) each caller asks for.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import (
    DegenerateMarginalError,
    InvalidParameterError,
    NonFiniteError,
    OutsideSupportError,
    ThetaOutsideSupportError,
    UnnormalizedOutcomeSpaceError,
    ZeroLikelihoodError,
    ZeroWeightError,
)
from .grids import UNIFORM_SPACING_RTOL, ParameterGrid, _of_kind, _real_array, quadrature
from .models import (
    ConditionalModel,
    DiscreteOutcomes,
    Prior,
    WeightFunction,
    _kept,
    prior_weight,
)

#: Marginals at or below this value make the log ratio meaningless.
MARGINAL_FLOOR = 1e-300

#: Allowed deviation of the conditional outcome mass from 1.
OUTCOME_MASS_TOL = 1e-3

#: Cells (outcomes x parameter values) of the joint table evaluated at once.
_BLOCK_CELLS = 1 << 15

#: Rows of the joint table, one outcome per row, against an array of
#: parameter values. ``weights`` are the trapezoid weights of a continuous
#: outcome grid's rows (None on a discrete space); ``score`` and
#: ``sensitivity`` are None unless they were asked for. Where ``pdf`` is 0,
#: ``logpdf``, ``score`` and ``sensitivity`` read 0: they may be infinite or
#: NaN there, and such a cell adds nothing to any outcome sum.
_Block = namedtuple("_Block", "outcomes weights logpdf pdf score sensitivity")


def _table_rows(model, outcomes, thetas, weights=None, score=False, sensitivity=None) -> _Block:
    """One :meth:`ConditionalModel.table` block of ``outcomes`` against the
    1-D ``thetas``, with its probabilities, which must be finite, and its
    zero-probability cells masked (see :class:`_Block`)."""
    values = model.table(outcomes, thetas, score, sensitivity)
    pdf = np.exp(values[0])
    if not np.maximum.reduce(pdf, axis=None) < math.inf:  # NaN fails too
        bad = outcomes[int(np.argmin(np.isfinite(pdf).all(axis=1)))]
        raise NonFiniteError(f"conditional density is not finite for outcome {bad!r}")
    if np.minimum.reduce(pdf, axis=None) == 0.0:
        zero = pdf == 0.0
        values = [None if a is None else np.where(zero, 0.0, a) for a in values]
    logpdf, scores, sens = values
    return _Block(outcomes, weights, logpdf, pdf, scores, sens)


def _summed(total, block: _Block, rows):
    """``total`` plus the block's outcome sum of ``rows``: trapezoid-weighted
    on an outcome grid, label by label on a discrete space, so that a
    discrete sum does not depend on the blocking."""
    if block.weights is not None:
        return total + block.weights @ rows
    for row in rows:
        total = total + row
    return total


def _joint_table(model: ConditionalModel, thetas: np.ndarray, score=False, sensitivity=None):
    """Yield the joint table of ``model`` against the 1-D ``thetas`` as
    :class:`_Block`\\ s of at most ``_BLOCK_CELLS`` cells or one outcome.

    The conditional outcome mass at each parameter value is summed from the
    blocks and checked after the last one, so a truncated outcome grid
    raises :class:`UnnormalizedOutcomeSpaceError` instead of silently
    lowering every sum over the outcome.
    """
    space = model.outcome_space
    if isinstance(space, DiscreteOutcomes):
        outcomes, weights = space.outcomes, None
    else:
        xg = space.grid
        outcomes = xg.nodes.tolist()
        weights = np.full(xg.n_points, xg.spacing)
        weights[[0, -1]] *= 0.5
    step = max(1, _BLOCK_CELLS // thetas.size)
    mass = 0.0
    for i in range(0, len(outcomes), step):
        rows = None if weights is None else weights[i : i + step]
        block = _table_rows(model, outcomes[i : i + step], thetas, rows, score, sensitivity)
        mass = _summed(mass, block, block.pdf)
        yield block
    deviation = np.abs(mass - 1.0)
    worst = int(np.argmax(deviation))
    if deviation[worst] > OUTCOME_MASS_TOL:
        raise UnnormalizedOutcomeSpaceError(
            f"conditional mass over the outcome space is {float(mass[worst])!r} "
            f"at theta={float(thetas[worst])}"
        )


def _grid_block(model: ConditionalModel, grid: ParameterGrid, sensitivity) -> _Block:
    (block,) = _joint_table(model, grid.nodes, True, sensitivity)
    for values in block[2:]:  # every caller gets the same arrays
        if values is not None:
            values.setflags(write=False)
    return block


def _checked_model(model, sensitivity=None) -> ConditionalModel:
    """``model``, or InvalidParameterError naming it or ``sensitivity`` when one is of the wrong kind."""
    if sensitivity is not None and not callable(sensitivity):
        raise InvalidParameterError(f"sensitivity must be callable, got {sensitivity!r}")
    return _of_kind(model, ConditionalModel, "model")


def _kept_table(model: ConditionalModel, grid: ParameterGrid, sensitivity=None) -> _Block | None:
    """The table of a discrete ``model`` against the nodes of ``grid``, with
    the score, if it fits in one block (else None), kept by model, grid and
    sensitivity so that every evaluator of the model on the grid reads it."""
    space = _checked_model(model, sensitivity).outcome_space
    if isinstance(space, DiscreteOutcomes) and len(space.outcomes) * grid.n_points <= _BLOCK_CELLS:
        return _kept(_grid_block, model, grid, sensitivity)


def _prior_table(model: ConditionalModel, grid: ParameterGrid, score=False, sensitivity=None):
    """The joint table against the nodes of ``grid``: the kept one, or blocks."""
    kept = _kept_table(model, grid, sensitivity)
    return _joint_table(model, grid.nodes, score, sensitivity) if kept is None else (kept,)


def _outcome_row(model: ConditionalModel, grid: ParameterGrid, x, score=False, sensitivity=None) -> _Block:
    """Outcome ``x`` against the nodes of ``grid``: a row of the kept table,
    or a table of its own."""
    kept = _kept_table(model, grid, sensitivity)
    if kept is None:
        return _table_rows(model, (x,), grid.nodes, None, score, sensitivity)
    i = model.outcome_space.index(x)
    return _Block((x,), None, *(None if a is None else a[i : i + 1] for a in kept[2:]))


def _marginal_rows(block: _Block, prior: Prior) -> tuple[np.ndarray, np.ndarray]:
    """Joint density p(theta) p(x|theta) of each row and its marginal p(x),
    which must exceed ``MARGINAL_FLOOR``."""
    joint = block.pdf * prior.density
    px = quadrature(joint, prior.grid)
    if np.minimum.reduce(px, axis=None) <= MARGINAL_FLOOR:
        x = block.outcomes[int(np.argmax(px <= MARGINAL_FLOOR))]
        raise DegenerateMarginalError(f"marginal probability of {x!r} is degenerate")
    return joint, px


def _outcome_sums(blocks, prior: Prior | None, *parts) -> list:
    """The outcome sum of each part's rows over ``blocks``, in one walk. A part
    maps ``(block, prior, joint, px)`` to rows; ``joint, px`` are the block's
    :func:`_marginal_rows` when ``prior`` is given, else None."""
    totals = [0.0] * len(parts)
    for block in blocks:
        joint, px = (None, None) if prior is None else _marginal_rows(block, prior)
        totals = [_summed(t, block, part(block, prior, joint, px)) for t, part in zip(totals, parts)]
    return totals


def _mi_rows(block: _Block, prior: Prior, joint: np.ndarray, px: np.ndarray) -> np.ndarray:
    """Prior integral of p(theta) p(x|theta) PMI(x, theta) for each row."""
    return quadrature(joint * (block.logpdf - np.log(px)[:, None]), prior.grid)


def _fisher_rows(block: _Block, *_) -> np.ndarray:
    """p(x|theta) score^2 at each cell of the block."""
    term = block.pdf * block.score * block.score
    if not np.maximum.reduce(term, axis=None) < math.inf:  # NaN fails too
        raise NonFiniteError("squared score diverges at a positive-probability outcome")
    return term


def _marginal_row(model: ConditionalModel, prior: Prior, x) -> float:
    return float(_marginal_rows(_outcome_row(model, _of_kind(prior, Prior, "prior").grid, x), prior)[1][0])


def marginal(model: ConditionalModel, prior: Prior, x) -> float:
    """Marginal outcome probability p(x), the prior-weighted conditional.

    Evaluated from one grid row of the model, which is kept for repeat
    calls with the same model, prior and outcome.

    Raises
    ------
    DegenerateMarginalError
        If the result is at or below ``MARGINAL_FLOOR``; every downstream
        log ratio divides by p(x).
    """
    return _kept(_marginal_row, model, prior, x)


def _likelihood_error(x, theta, log_likelihood: float):
    """The error of a log-likelihood that is -inf or not finite, or None."""
    if log_likelihood == -math.inf:
        return ZeroLikelihoodError(f"p({x!r} | theta={theta}) is zero")
    if not math.isfinite(log_likelihood):
        return NonFiniteError("conditional log-density is not finite")
    return None


def _theta_array(thetas, finite=False, point=False) -> np.ndarray:
    """``thetas`` as a float array, all finite if ``finite`` and of shape (1,)
    if ``point`` (as a one-point entry checks them, before any model call),
    or :class:`InvalidParameterError`."""
    th = _real_array(thetas, "theta is not a number", copy=True)
    if finite and not np.logical_and.reduce(np.isfinite(th), axis=None):
        raise InvalidParameterError(f"theta must be a finite number, got {thetas!r}")
    if point and th.size != 1:
        raise InvalidParameterError(f"theta must be one number, got {thetas!r}")
    return th.reshape(1) if point else th


def pmi(model: ConditionalModel, prior: Prior, x, theta: float) -> float:
    """Pointwise mutual information log[p(x|theta) / p(x)].

    Sign-indefinite: a single realization can be misleading about the
    parameter, in which case the PMI is negative.
    """
    th = _theta_array(theta, finite=True, point=True)
    px = marginal(model, prior, x)
    log_likelihood = model.table((x,), th)[0][0, 0]
    error = _likelihood_error(x, theta, log_likelihood)
    if error is not None:
        raise error
    return float(log_likelihood - float(np.log(px)))


def sfi(model: ConditionalModel, x, theta: float) -> float:
    """Squared score at a single (outcome, parameter) point.

    The per-realization sensitivity whose conditional average is the Fisher
    information.
    """
    th = _theta_array(theta, finite=True, point=True)
    s = float(_checked_model(model).table((x,), th, score=True)[1][0, 0])
    if not np.isfinite(s):
        raise NonFiniteError(f"score at ({x!r}, {theta}) is not finite")
    return s * s


def _theta_terms(prior: Prior, weight: WeightFunction, th: np.ndarray) -> tuple[list, list]:
    """Each theta sample's penalty -log f(theta), and the error that rules it
    out (or None), for the samples ``th`` already parsed by :func:`_theta_array`."""
    grid, thetas = prior.grid, th.tolist()
    if weight.boxcar:  # grid.contains's float comparisons, on Python floats; NaN fails them
        slop = 1e-12 * max(1.0, grid.span)
        low, high = grid.theta_min - slop, grid.theta_max + slop
        return [0.0] * len(thetas), [None if low <= t <= high else ThetaOutsideSupportError(
            f"theta={t} outside the finite support [{grid.theta_min}, {grid.theta_max}]"
        ) for t in thetas]
    slop = UNIFORM_SPACING_RTOL * max(1.0, abs(grid.theta_min), abs(grid.theta_max))
    on_grid = grid.contains(th, slop=slop)
    f = np.interp(th, grid.nodes, weight.values)  # a prior-matched weight carries the prior's density
    usable = on_grid & (f > 0.0)
    errors = [None] * th.size
    for i in np.flatnonzero(~usable):
        if not on_grid[i]:
            errors[i] = OutsideSupportError(f"theta={thetas[i]} outside grid [{grid.theta_min}, {grid.theta_max}]")
        elif np.array_equal(weight.values, prior.density):
            errors[i] = OutsideSupportError(f"prior density vanishes at theta={thetas[i]}")
        else:
            errors[i] = ZeroWeightError(f"weight vanishes at theta={thetas[i]}")
    return (-np.log(np.where(usable, f, 1.0))).tolist(), errors


def surprisal(prior: Prior, theta: float) -> float:
    """Negative log prior density, -log p(theta): the penalty of the
    prior-matched weight, from the same theta stage as the bounds.

    In a thermodynamic reading this is the stochastic entropy of the
    parameter value.
    """
    th = _theta_array(theta, finite=True, point=True)
    (penalty,), (error,) = _theta_terms(prior, prior_weight(prior), th)
    if error is not None:
        raise error
    return penalty


def fisher_information(model: ConditionalModel, theta):
    """Conditional expectation of the squared score, E_x[score(x, theta)^2].

    Accepts a scalar or an ndarray of parameter values; sums over discrete
    outcomes or integrates over the model's outcome grid, and raises
    :class:`UnnormalizedOutcomeSpaceError` if the outcome space does not
    hold the conditional mass at some parameter value.
    """
    th = _theta_array(theta, finite=True)
    if th.size == 0:
        raise InvalidParameterError(f"theta must hold at least one number, got {theta!r}")
    (fi,) = _outcome_sums(_joint_table(_checked_model(model), th.ravel(), score=True), None, _fisher_rows)
    return float(fi[0]) if th.ndim == 0 else fi.reshape(th.shape)


def mutual_information(model: ConditionalModel, prior: Prior) -> float:
    """Ensemble average of the PMI over the joint distribution.

    Nonnegative up to quadrature error. Raises
    :class:`UnnormalizedOutcomeSpaceError` if the outcome space does not
    hold the conditional mass at some prior node.
    """
    (mi,) = _outcome_sums(_prior_table(model, _of_kind(prior, Prior, "prior").grid), prior, _mi_rows)
    return float(mi)
