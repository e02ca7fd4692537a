"""Pointwise and ensemble information quantities of a (model, prior) pair.

All integrals over the parameter run on the prior's grid with the trapezoid
rule; integrals over a continuous outcome run on the model's outcome grid.
Every ensemble quantity, here and in :mod:`infobounds.bounds`, is an
outcome-weighted sum over one joint table of ``log p(x|theta)``, the score
and optionally a sensitivity, which :func:`_joint_table` evaluates block by
block, each cell once.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DegenerateMarginalError,
    NonFiniteError,
    OutsideSupportError,
    UnnormalizedOutcomeSpaceError,
    ZeroLikelihoodError,
)
from .grids import quadrature
from .models import ConditionalModel, DiscreteOutcomes, Prior

#: Marginals at or below this value make the log ratio meaningless.
MARGINAL_FLOOR = 1e-300

#: Allowed deviation of the conditional outcome mass from 1.
OUTCOME_MASS_TOL = 1e-3

#: Cells (outcomes x parameter values) of the joint table evaluated at once.
_BLOCK_CELLS = 1 << 15

#: Outcome rows :func:`_kept` holds; each entry references its model, prior,
#: weight and sensitivity, so this bounds the memory the memo can pin.
_KEPT_ROWS = 64


class _Same:
    """An argument of :func:`_kept` that hashes and compares by identity."""

    __slots__ = ("obj",)

    def __init__(self, obj):
        self.obj = obj

    def __hash__(self):
        return id(self.obj)

    def __eq__(self, other):
        return self.obj is other.obj


@lru_cache(maxsize=_KEPT_ROWS, typed=True)
def _kept_call(fn: Callable, refs: tuple, x):
    return fn(*(ref.obj for ref in refs), x)


def _kept(fn: Callable, *args):
    """``fn(*args)`` for an outcome row, the last argument being the outcome
    label, from a bounded memo shared by every row function.

    The other arguments (model, prior, weight, sensitivity) are keyed by
    identity, the label by value and type; an unhashable label bypasses the
    memo. Only results are kept: a call that raises raises again each time.
    This relies on the contract that models, priors, weights and
    sensitivities are immutable and their callables pure, so a kept row is
    the value a fresh evaluation would return.
    """
    *objs, x = args
    try:
        hash(x)
    except TypeError:
        return fn(*args)
    return _kept_call(fn, tuple(_Same(obj) for obj in objs), x)


class _Block(NamedTuple):
    """Rows of the joint table, one outcome per row, against an array of
    parameter values. ``positive`` marks the cells of nonzero probability,
    and is None when every cell has it; ``score`` and ``sensitivity`` are
    None unless they were asked for."""

    outcomes: Sequence
    weights: np.ndarray
    logpdf: np.ndarray
    pdf: np.ndarray
    positive: np.ndarray | None
    score: np.ndarray | None
    sensitivity: np.ndarray | None


def _table_rows(model, outcomes, x, thetas, weights=None, score=False, sensitivity=None) -> _Block:
    """Evaluate the model at ``x``, one outcome label or a column of grid
    outcomes, against ``thetas``, as (len(outcomes), thetas.size) arrays.
    The outcome weights default to 1."""
    shape = (len(outcomes), thetas.size)

    def table(fn):
        values = np.asarray(fn(x, thetas), dtype=float)
        if values.shape in (shape, shape[1:]):
            return values.reshape(shape)
        return np.broadcast_to(values, shape)

    logpdf = table(model.log_pdf)
    pdf = np.exp(logpdf)
    finite = np.isfinite(pdf)
    if not np.all(finite):
        bad = outcomes[int(np.argmin(finite.all(axis=1)))]
        raise NonFiniteError(f"conditional density is not finite for outcome {bad!r}")
    positive = pdf > 0.0
    return _Block(
        outcomes,
        np.ones(len(outcomes)) if weights is None else weights,
        logpdf,
        pdf,
        None if positive.all() else positive,
        table(model.score) if score else None,
        None if sensitivity is None else table(sensitivity),
    )


def _joint_table(model: ConditionalModel, thetas: np.ndarray, score=False, sensitivity=None):
    """Yield the joint table of ``model`` against the 1-D ``thetas`` as
    :class:`_Block`\\ s of outcome rows.

    The outcome weights are 1 on a discrete space and the trapezoid weights
    of the outcome grid on a continuous one, so ``weights @ rows`` sums a
    block over its outcomes. A continuous block holds about
    ``_BLOCK_CELLS`` cells; a discrete one holds one outcome, since model
    callables take one outcome label at a time. The conditional outcome
    mass at each parameter value is summed from the blocks and checked
    after the last one, so a truncated outcome grid raises
    :class:`UnnormalizedOutcomeSpaceError` instead of silently lowering
    every sum over the outcome.
    """
    space = model.outcome_space
    if isinstance(space, DiscreteOutcomes):
        rows = [((x,), x, thetas, None) for x in space.outcomes]
    else:
        xg = space.grid
        weights = np.full(xg.n_points, xg.spacing)
        weights[[0, -1]] *= 0.5
        step = max(1, _BLOCK_CELLS // thetas.size)
        rows = [
            (xg.nodes[r].tolist(), xg.nodes[r, None], thetas[None, :], weights[r])
            for r in (slice(i, i + step) for i in range(0, xg.n_points, step))
        ]
    mass = np.zeros(thetas.size)
    for outcomes, x, row_thetas, row_weights in rows:
        block = _table_rows(model, outcomes, x, row_thetas, row_weights, score, sensitivity)
        mass += block.weights @ block.pdf
        yield block
    deviation = np.abs(mass - 1.0)
    worst = int(np.argmax(deviation))
    if deviation[worst] > OUTCOME_MASS_TOL:
        raise UnnormalizedOutcomeSpaceError(
            f"conditional mass over the outcome space is {float(mass[worst])!r} "
            f"at theta={float(thetas[worst])}"
        )


def _on_positive(values: np.ndarray, positive: np.ndarray | None) -> np.ndarray:
    """``values`` on the cells of positive probability and 0 elsewhere.

    Masking comes before any product, since a log-density, score or
    sensitivity may be infinite or NaN where the probability vanishes.
    """
    return values if positive is None else np.where(positive, values, 0.0)


def _marginal_rows(block: _Block, prior: Prior) -> tuple[np.ndarray, np.ndarray]:
    """Joint density p(theta) p(x|theta) of each row and its marginal p(x),
    which must exceed ``MARGINAL_FLOOR``."""
    joint = block.pdf * prior.density
    px = quadrature(joint, prior.grid)
    degenerate = px <= MARGINAL_FLOOR
    if np.any(degenerate):
        x = block.outcomes[int(np.argmax(degenerate))]
        raise DegenerateMarginalError(f"marginal probability of {x!r} is degenerate")
    return joint, px


def _mi_rows(block: _Block, joint: np.ndarray, px: np.ndarray, prior: Prior) -> np.ndarray:
    """Prior integral of p(theta) p(x|theta) PMI(x, theta) for each row."""
    log_ratio = _on_positive(block.logpdf - np.log(px)[:, None], block.positive)
    return quadrature(joint * log_ratio, prior.grid)


def _fisher_rows(block: _Block) -> np.ndarray:
    """The block's outcome sum of p(x|theta) score^2 at each parameter value."""
    score = _on_positive(block.score, block.positive)
    term = block.pdf * score * score
    if not np.all(np.isfinite(term)):
        raise NonFiniteError("squared score diverges at a positive-probability outcome")
    return block.weights @ term


def _marginal_row(model: ConditionalModel, prior: Prior, x) -> float:
    block = _table_rows(model, (x,), x, prior.grid.nodes)
    return float(_marginal_rows(block, prior)[1][0])


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


def _pmi_row(model: ConditionalModel, x, thetas: list, px: float) -> tuple[np.ndarray, list]:
    """log p(x|theta) - log p(x) at each theta sample, from one ``log_pdf``
    call and a marginal ``px`` in hand, and the error of each sample whose
    likelihood is zero or not finite (None for the others)."""
    th = np.array(thetas, dtype=float)
    log_cond = np.full(th.shape, model.log_pdf(x, th), dtype=float)  # a model may ignore theta
    errors = [None] * th.size
    for i, value in enumerate(log_cond.tolist()):
        if value == -math.inf:
            errors[i] = ZeroLikelihoodError(f"p({x!r} | theta={thetas[i]}) is zero")
        elif not math.isfinite(value):
            errors[i] = NonFiniteError("conditional log-density is not finite")
    return log_cond - float(np.log(px)), errors


def pmi(model: ConditionalModel, prior: Prior, x, theta: float) -> float:
    """Pointwise mutual information log[p(x|theta) / p(x)].

    Sign-indefinite: a single realization can be misleading about the
    parameter, in which case the PMI is negative.
    """
    values, (error,) = _pmi_row(model, x, [theta], marginal(model, prior, x))
    if error is not None:
        raise error
    return float(values[0])


def sfi(model: ConditionalModel, x, theta: float) -> float:
    """Squared score at a single (outcome, parameter) point.

    The per-realization sensitivity whose conditional average is the Fisher
    information.
    """
    s = float(model.score(x, theta))
    if not np.isfinite(s):
        raise NonFiniteError(f"score at ({x!r}, {theta}) is not finite")
    return s * s


def surprisal(prior: Prior, theta: float) -> float:
    """Negative log prior density, -log p(theta).

    In a thermodynamic reading this is the stochastic entropy of the
    parameter value.
    """
    dens = prior.density_at(theta)
    if dens <= 0.0:
        raise OutsideSupportError(f"prior density vanishes at theta={theta}")
    return float(-np.log(dens))


def fisher_information(model: ConditionalModel, theta):
    """Conditional expectation of the squared score, E_x[score(x, theta)^2].

    Accepts a scalar or an ndarray of parameter values; sums over discrete
    outcomes or integrates over the model's outcome grid, and raises
    :class:`UnnormalizedOutcomeSpaceError` if the outcome space does not
    hold the conditional mass at some parameter value.
    """
    th = np.asarray(theta, dtype=float)
    fi = np.zeros(th.size)
    for block in _joint_table(model, th.ravel(), score=True):
        fi += _fisher_rows(block)
    if th.ndim == 0:
        return float(fi[0])
    return fi.reshape(th.shape)


def mutual_information(model: ConditionalModel, prior: Prior) -> float:
    """Ensemble average of the PMI over the joint distribution.

    Nonnegative up to quadrature error. Raises
    :class:`UnnormalizedOutcomeSpaceError` if the outcome space does not
    hold the conditional mass at some prior node.
    """
    total = 0.0
    for block in _joint_table(model, prior.grid.nodes):
        joint, px = _marginal_rows(block, prior)
        total += block.weights @ _mi_rows(block, joint, px, prior)
    return float(total)
