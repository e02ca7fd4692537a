"""Worked physical systems: the overdamped trapped particle, single-qubit
phase estimation, a tunable discrete exponential-family model, and the
feedback-demon work-budget checker."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import quantum
from .bounds import _point
from .errors import InvalidParameterError, NonPositiveDiffusionError
from .grids import _finite_number, _of_kind, _real_array
from .models import ConditionalModel, ContinuousOutcomes, DiscreteOutcomes, Prior, boxcar_weight

#: Half-width of the outcome grid in units of the widest conditional sigma.
LANGEVIN_GRID_SIGMAS = 8.0

#: Default outcome-grid resolution for the trapped-particle model.
LANGEVIN_GRID_POINTS = 4001


# ---------------------------------------------------------------------------
# Overdamped particle in a harmonic trap
# ---------------------------------------------------------------------------


def langevin_model(
    diffusion: float,
    theta_min: float = 0.5,
    n_x: int = LANGEVIN_GRID_POINTS,
) -> ConditionalModel:
    """Steady-state position model of an overdamped particle in a harmonic
    trap of unknown stiffness theta.

    The stationary law is Gaussian with variance D/theta:

        log p(x | theta) = 0.5 * log(theta / (2 pi D)) - theta x^2 / (2 D)

    with analytic score 1/(2 theta) - x^2/(2 D). The outcome grid spans
    ``LANGEVIN_GRID_SIGMAS`` standard deviations of the widest conditional
    (the one at ``theta_min``, the lower end of the stiffness prior), which
    keeps the unresolved tail mass far below quadrature error.
    """
    _finite_number(diffusion, "diffusion")
    if diffusion <= 0:
        raise NonPositiveDiffusionError(f"diffusion must be positive, got {diffusion}")
    _finite_number(theta_min, "theta_min")
    if theta_min <= 0:
        raise InvalidParameterError("trap stiffness prior must be supported on theta > 0")
    d = float(diffusion)
    x_max = LANGEVIN_GRID_SIGMAS * math.sqrt(d / theta_min)

    def log_pdf(x, theta):
        th = np.asarray(theta, dtype=float)
        return 0.5 * np.log(th / (2.0 * np.pi * d)) - th * np.square(x) / (2.0 * d)

    def score(x, theta):
        th = np.asarray(theta, dtype=float)
        out = 1.0 / (2.0 * th) - np.square(x) / (2.0 * d)
        if np.ndim(theta) == 0 and np.ndim(x) == 0:
            return float(out)
        return out

    space = ContinuousOutcomes(-x_max, x_max, n_x)
    return ConditionalModel(log_pdf, space, score=score)


# ---------------------------------------------------------------------------
# Single-qubit phase estimation
# ---------------------------------------------------------------------------

QUBIT_THETA_MAX = math.pi / 2.0

#: The qubit phase family entrywise: rho(theta) = exp(theta * _PHASE_SIGNS) / 2.
_PHASE_SIGNS = np.array([[0, 1j], [-1j, 0]])


def sigma_x_povm() -> quantum.Povm:
    plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    minus = 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)
    return quantum.Povm((plus, minus))


def sigma_y_povm() -> quantum.Povm:
    plus = 0.5 * np.array([[1, -1j], [1j, 1]], dtype=complex)
    minus = 0.5 * np.array([[1, 1j], [-1j, 1]], dtype=complex)
    return quantum.Povm((plus, minus))


def sigma_z_povm() -> quantum.Povm:
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    return quantum.Povm((zero, one))


def qubit_phase_family() -> quantum.StateFamily:
    """Pure family (|0> + e^{-i theta} |1>)/sqrt(2) as density matrices,
    evaluated as stacks over all parameter values at once, rho and drho from
    one exponential.

    The global phase of the underlying rotation is dropped; density
    matrices are phase-invariant, and keeping it would only inject complex
    drift into finite differences.
    """

    def rho_stack(thetas: np.ndarray) -> np.ndarray:
        return 0.5 * np.exp(thetas[:, None, None] * _PHASE_SIGNS)

    def pair(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        e = np.exp(thetas[:, None, None] * _PHASE_SIGNS)
        return 0.5 * e, 0.5 * (_PHASE_SIGNS * e)  # not S * (0.5 * e): halving a subnormal rounds

    return quantum.StateFamily._from_pair(rho_stack, pair)


def qubit_phase_scenario(povm: quantum.Povm | None = None) -> tuple[quantum.StateFamily, quantum.Povm]:
    """Phase-estimation scenario: the |+> probe family plus a measurement.

    Defaults to the sigma-x projective measurement, whose outcomes we label
    "+" and "-".
    """
    if povm is None:
        povm = sigma_x_povm()
    if _of_kind(povm, quantum.Povm, "povm").dim != 2:
        raise InvalidParameterError("qubit scenario needs a dimension-2 POVM")
    return qubit_phase_family(), povm


def qubit_measurement_model(povm: quantum.Povm | None = None, outcomes: tuple | None = None):
    """Measured qubit phase family as (ConditionalModel, sensitivity)."""
    family, povm = qubit_phase_scenario(povm)
    if outcomes is None and len(povm) == 2:
        outcomes = ("+", "-")
    return quantum.quantum_conditional_model(family, povm, outcomes=outcomes)


# ---------------------------------------------------------------------------
# Discrete exponential-family model
# ---------------------------------------------------------------------------


def _logsumexp(a: np.ndarray, axis: int = 0, keepdims: bool = False) -> np.ndarray:
    """log(sum(exp(a))) along ``axis``, shifted by the maximum so that large
    logits neither overflow nor lose the smaller terms."""
    shift = np.max(a, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    out = shift + np.log(np.sum(np.exp(a - shift), axis=axis, keepdims=True))
    return out if keepdims else np.squeeze(out, axis=axis)


def discrete_exponential_model(log_weights, coefficients) -> ConditionalModel:
    """K-outcome model p(k | theta) proportional to w_k * exp(c_k * theta).

    Smooth, strictly positive, with analytic score c_k minus the mean of c
    under p(. | theta). Equal coefficients give a theta-independent model
    with arbitrary fixed outcome probabilities.
    """
    lw = _real_array(log_weights, "log_weights must be real numbers")
    c = _real_array(coefficients, "coefficients must be real numbers")
    if lw.shape != c.shape or lw.ndim != 1 or lw.size < 2:
        raise InvalidParameterError(
            "log_weights and coefficients must be equal-length 1-d, size >= 2"
        )

    def _logits(th: np.ndarray) -> np.ndarray:
        shape = (lw.size,) + (1,) * th.ndim
        return lw.reshape(shape) + c.reshape(shape) * th[None, ...]

    def log_pdf(k, theta):
        th = np.asarray(theta, dtype=float)
        logits = _logits(th)
        return lw[k] + c[k] * th - _logsumexp(logits, axis=0)

    def score(k, theta):
        th = np.asarray(theta, dtype=float)
        logits = _logits(th)
        probs = np.exp(logits - _logsumexp(logits, axis=0, keepdims=True))
        shape = (lw.size,) + (1,) * th.ndim
        mean_c = (probs * c.reshape(shape)).sum(axis=0)
        out = c[k] - mean_c
        if np.ndim(theta) == 0:
            return float(out)
        return out

    space = DiscreteOutcomes(tuple(range(lw.size)))
    return ConditionalModel(log_pdf, space, score=score)


# ---------------------------------------------------------------------------
# Feedback-demon work budget
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DemonRecord:
    """One feedback trajectory: inverse temperature, extracted work, free
    energy change, the measurement outcome and the true parameter."""

    beta: float
    work_extracted: float
    delta_free_energy: float
    outcome: object
    theta: float

    def __post_init__(self):
        for name in ("beta", "work_extracted", "delta_free_energy", "theta"):
            _finite_number(getattr(self, name), name)
        if self.beta <= 0:
            raise InvalidParameterError("beta must be positive")

    @property
    def lhs(self) -> float:
        """Work budget beta * (W_ext - delta_F) in units of k_B T."""
        return self.beta * (self.work_extracted - self.delta_free_energy)


@dataclass(frozen=True)
class DemonCheck:
    """Verdict on one record against the information and bound budgets."""

    lhs: float
    pmi: float
    bound: float
    sagawa_ueda_ok: bool
    chained_ok: bool


def demon_work_check(
    record: DemonRecord,
    model: ConditionalModel,
    prior: Prior,
    sensitivity: Callable | None = None,
    tolerance: float = 1e-9,
) -> DemonCheck:
    """Check a supplied feedback record against the trajectory work budget.

    ``sagawa_ueda_ok`` tests the information budget lhs <= pmi;
    ``chained_ok`` tests the weaker, measurement-free budget lhs <= bound,
    where the bound is the finite-support PMI bound at the record's
    (outcome, theta) — classical when ``sensitivity`` is None, quantum
    otherwise. ``record`` must be a :class:`DemonRecord` and ``tolerance``
    a finite nonnegative number. The checker verifies consistency of
    supplied records; it does not simulate feedback.
    """
    _finite_number(tolerance, "tolerance", nonnegative=True)
    _of_kind(record, DemonRecord, "record")
    weight = boxcar_weight(_of_kind(prior, Prior, "prior").grid)
    _, pmi, bound, *_ = _point(model, prior, weight, record.outcome, record.theta, sensitivity)
    lhs = record.lhs
    return DemonCheck(lhs, pmi, bound, lhs <= pmi + tolerance, lhs <= bound + tolerance)
