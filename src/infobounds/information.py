"""Pointwise and ensemble information quantities of a (model, prior) pair.

All integrals over the parameter run on the prior's grid with the trapezoid
rule; integrals over a continuous outcome run on the model's outcome grid.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegenerateMarginalError,
    NonFiniteError,
    OutsideSupportError,
    UnnormalizedOutcomeSpaceError,
    ZeroLikelihoodError,
)
from .grids import quadrature, quadrature_rows
from .models import ConditionalModel, DiscreteOutcomes, Prior

#: Marginals at or below this value make the log ratio meaningless.
MARGINAL_FLOOR = 1e-300

#: Allowed deviation of the conditional outcome mass from 1 on a continuous grid.
OUTCOME_MASS_TOL = 1e-3

#: Chunk size for sweeps over a continuous outcome grid.
_X_CHUNK = 256


def _conditional_pdf_on_nodes(model: ConditionalModel, prior: Prior, x) -> np.ndarray:
    logpdf = np.asarray(model.log_pdf(x, prior.grid.nodes), dtype=float)
    pdf = np.exp(logpdf)
    if np.any(np.isnan(pdf)) or np.any(np.isinf(pdf)):
        raise NonFiniteError(f"conditional density is not finite for outcome {x!r}")
    return pdf


def marginal(model: ConditionalModel, prior: Prior, x) -> float:
    """Marginal outcome probability p(x), the prior-weighted conditional.

    Raises
    ------
    DegenerateMarginalError
        If the result is at or below ``MARGINAL_FLOOR``; every downstream
        log ratio divides by p(x).
    """
    pdf = _conditional_pdf_on_nodes(model, prior, x)
    px = quadrature(pdf * prior.density, prior.grid)
    if px <= MARGINAL_FLOOR:
        raise DegenerateMarginalError(f"marginal probability of {x!r} is degenerate")
    return float(px)


def pmi(model: ConditionalModel, prior: Prior, x, theta: float) -> float:
    """Pointwise mutual information log[p(x|theta) / p(x)].

    Sign-indefinite: a single realization can be misleading about the
    parameter, in which case the PMI is negative.
    """
    px = marginal(model, prior, x)
    log_cond = float(model.log_pdf(x, theta))
    if np.isneginf(log_cond):
        raise ZeroLikelihoodError(f"p({x!r} | theta={theta}) is zero")
    if not np.isfinite(log_cond):
        raise NonFiniteError("conditional log-density is not finite")
    return log_cond - float(np.log(px))


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


def _check_outcome_mass(mass: np.ndarray, thetas: np.ndarray) -> None:
    """Raise if the conditional outcome mass at some parameter node deviates
    from 1 by more than ``OUTCOME_MASS_TOL``; the error names the worst node."""
    deviation = np.abs(mass - 1.0)
    worst = int(np.argmax(deviation))
    if deviation[worst] > OUTCOME_MASS_TOL:
        raise UnnormalizedOutcomeSpaceError(
            f"conditional mass over the outcome grid is {float(mass[worst])!r} "
            f"at theta={float(thetas[worst])}"
        )


def outcome_grid_chunks(model: ConditionalModel, prior: Prior):
    """Yield ``(rows, xs, logpdf, pdf)`` for chunks of the model's outcome
    grid against every prior node, ``rows`` slicing the outcome grid.

    The conditional outcome mass at each node is accumulated from the same
    chunks and checked once the last chunk has been consumed, so a
    truncated outcome grid raises :class:`UnnormalizedOutcomeSpaceError`
    instead of silently lowering every integral over the outcome.
    """
    xg = model.outcome_space.grid
    nodes = prior.grid.nodes
    x_weights = np.full(xg.n_points, xg.spacing)
    x_weights[[0, -1]] *= 0.5
    mass = np.zeros(nodes.size)
    for start in range(0, xg.n_points, _X_CHUNK):
        rows = slice(start, start + _X_CHUNK)
        xs = xg.nodes[rows]
        logpdf = np.asarray(model.log_pdf(xs[:, None], nodes[None, :]), dtype=float)
        pdf = np.exp(logpdf)
        mass += x_weights[rows] @ pdf
        yield rows, xs, logpdf, pdf
    _check_outcome_mass(mass, nodes)


def fisher_information(model: ConditionalModel, theta):
    """Conditional expectation of the squared score, E_x[score(x, theta)^2].

    Accepts a scalar or an ndarray of parameter values; sums over discrete
    outcomes or integrates over the model's outcome grid.
    """
    space = model.outcome_space
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    if isinstance(space, DiscreteOutcomes):
        fi = np.zeros_like(th)
        for x in space.outcomes:
            p = np.exp(np.asarray(model.log_pdf(x, th), dtype=float))
            s = np.asarray(model.score(x, th), dtype=float)
            term = np.where(p > 0.0, p * s * s, 0.0)
            if not np.all(np.isfinite(term)):
                raise NonFiniteError("squared score diverges at a positive-probability outcome")
            fi += term
    else:
        xg = space.grid
        fi = np.empty_like(th)
        mass = np.empty_like(th)
        for i, t in enumerate(th):
            pdf = np.exp(np.asarray(model.log_pdf(xg.nodes, t), dtype=float))
            mass[i] = quadrature(pdf, xg)
            s = np.asarray(model.score(xg.nodes, t), dtype=float)
            fi[i] = quadrature(pdf * s * s, xg)
        _check_outcome_mass(mass, th)
    if np.ndim(theta) == 0:
        return float(fi[0])
    return fi


def _discrete_mutual_information(model: ConditionalModel, prior: Prior) -> float:
    total = 0.0
    for x in model.outcome_space.outcomes:
        logpdf = np.asarray(model.log_pdf(x, prior.grid.nodes), dtype=float)
        pdf = np.exp(logpdf)
        px = quadrature(pdf * prior.density, prior.grid)
        if px <= MARGINAL_FLOOR:
            raise DegenerateMarginalError(f"marginal probability of {x!r} is degenerate")
        # p log p -> 0 at zero-probability nodes.
        integrand = np.where(
            pdf > 0.0, prior.density * pdf * (logpdf - np.log(px)), 0.0
        )
        total += quadrature(integrand, prior.grid)
    return float(total)


def _continuous_mutual_information(model: ConditionalModel, prior: Prior) -> float:
    xg = model.outcome_space.grid
    g = np.empty(xg.n_points)
    for rows, _xs, logpdf, pdf in outcome_grid_chunks(model, prior):
        px = quadrature_rows(pdf * prior.density, prior.grid)
        if np.any(px <= MARGINAL_FLOOR):
            raise DegenerateMarginalError("marginal density is degenerate on the outcome grid")
        integrand = np.where(
            pdf > 0.0, prior.density * pdf * (logpdf - np.log(px)[:, None]), 0.0
        )
        g[rows] = quadrature_rows(integrand, prior.grid)
    return float(quadrature(g, xg))


def mutual_information(model: ConditionalModel, prior: Prior) -> float:
    """Ensemble average of the PMI over the joint distribution.

    Nonnegative up to quadrature error. On a continuous outcome space,
    raises :class:`UnnormalizedOutcomeSpaceError` if the outcome grid does
    not hold the conditional mass at some prior node.
    """
    if isinstance(model.outcome_space, DiscreteOutcomes):
        return _discrete_mutual_information(model, prior)
    return _continuous_mutual_information(model, prior)
