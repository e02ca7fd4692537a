"""Small dense Hermitian machinery: Born-rule conditionals, the symmetric
logarithmic derivative, per-outcome quantum sensitivities and the adapter
that lets the bound family run on measured quantum state families."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    IllConditionedError,
    InfoBoundError,
    InvalidParameterError,
    NonFiniteError,
    ZeroOutcomeProbabilityError,
)
from .grids import ParameterGrid
from .models import ConditionalModel, DiscreteOutcomes

#: Eigenvalue-sum threshold below which the SLD is left zero (off-support).
RANK_EPS = 1e-10

#: Entrywise tolerance for Hermiticity checks.
HERMITICITY_ATOL = 1e-12

#: Tolerance on trace and eigenvalue constraints of states and derivatives.
STATE_ATOL = 1e-10

#: Dense eigendecomposition only; all scenarios here are dimension 2 or 3.
MAX_DIM = 16

#: Outcome probabilities at or below this are treated as zero.
PROB_EPS = 1e-12

#: POVM weight outside the state's support beyond this triggers a warning.
SUPPORT_LEAK_TOL = 1e-8


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {m.shape}")
    if m.shape[0] > MAX_DIM:
        raise DimensionMismatchError(f"{name} dimension {m.shape[0]} exceeds {MAX_DIM}")
    return m


def is_hermitian(a, atol: float = HERMITICITY_ATOL) -> bool:
    m = np.asarray(a, dtype=complex)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and np.max(np.abs(m - m.conj().T)) <= atol


def require_hermitian(a, name: str = "matrix", atol: float = HERMITICITY_ATOL) -> np.ndarray:
    m = _as_matrix(a, name)
    if np.max(np.abs(m - m.conj().T)) > atol:
        raise InfoBoundError(f"{name} is not Hermitian within {atol}")
    return m


def hermitize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


# ---------------------------------------------------------------------------
# POVM
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Povm:
    """Tuple of measurement operators on one Hilbert space.

    Construction checks structure only (shapes, Hermiticity); the physics
    checks (positivity, completeness) live in :func:`validate_povm` so that
    an invalid candidate can still be inspected.
    """

    elements: tuple

    def __post_init__(self):
        if len(self.elements) == 0:
            raise InvalidParameterError("a POVM needs at least one element")
        mats = tuple(
            require_hermitian(e, f"POVM element {i}") for i, e in enumerate(self.elements)
        )
        dim = mats[0].shape[0]
        for i, m in enumerate(mats):
            if m.shape[0] != dim:
                raise DimensionMismatchError(f"POVM element {i} has mismatched dimension")
            m.setflags(write=False)
        object.__setattr__(self, "elements", mats)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def __len__(self) -> int:
        return len(self.elements)


def validate_povm(povm: Povm) -> list[str]:
    """Positivity and completeness checks; returns failure messages, empty if ok."""
    failures: list[str] = []
    total = np.zeros((povm.dim, povm.dim), dtype=complex)
    for i, element in enumerate(povm.elements):
        eigs = np.linalg.eigvalsh(element)
        if eigs.min() < -STATE_ATOL:
            failures.append(
                f"element {i}: not positive semidefinite (min eigenvalue {eigs.min():.3e})"
            )
        total += element
    dev = np.max(np.abs(total - np.eye(povm.dim)))
    if dev > STATE_ATOL:
        failures.append(f"completeness: elements sum to identity only within {dev:.3e}")
    return failures


def born_probability(state, element) -> float:
    """Outcome probability Tr(element @ state), clamped into [0, 1]."""
    rho = _as_matrix(state, "state")
    e = _as_matrix(element, "element")
    if rho.shape != e.shape:
        raise DimensionMismatchError(
            f"state dim {rho.shape[0]} != element dim {e.shape[0]}"
        )
    p = float(np.real(np.trace(e @ rho)))
    if p < -STATE_ATOL or p > 1.0 + STATE_ATOL:
        raise InfoBoundError(f"Born probability {p} outside [0, 1] beyond tolerance")
    return min(max(p, 0.0), 1.0)


# ---------------------------------------------------------------------------
# State families and the SLD
# ---------------------------------------------------------------------------


class StateFamily:
    """Differentiable family of density matrices theta -> rho(theta).

    Without an analytic derivative, central finite differences with
    Hermitian symmetrization are used (symmetrization keeps roundoff from
    breaking the Hermiticity invariants downstream).
    """

    def __init__(
        self,
        rho_of: Callable[[float], np.ndarray],
        drho_of: Callable[[float], np.ndarray] | None = None,
        fd_step: float = 1e-5,
    ):
        self._rho_of = rho_of
        self._drho_of = drho_of
        self.fd_step = float(fd_step)

    @property
    def derivative_kind(self) -> str:
        return "analytic" if self._drho_of is not None else "finite_difference"

    def rho(self, theta: float) -> np.ndarray:
        m = require_hermitian(self._rho_of(theta), "rho(theta)", atol=1e-10)
        tr = float(np.real(np.trace(m)))
        if abs(tr - 1.0) > STATE_ATOL:
            raise InfoBoundError(f"rho(theta={theta}) has trace {tr}, expected 1")
        return m

    def drho(self, theta: float) -> np.ndarray:
        if self._drho_of is not None:
            m = require_hermitian(self._drho_of(theta), "drho(theta)", atol=1e-10)
        else:
            h = self.fd_step
            m = hermitize((self._rho_of(theta + h) - self._rho_of(theta - h)) / (2.0 * h))
        tr = abs(float(np.real(np.trace(m))))
        if tr > 1e-8:
            raise InfoBoundError(f"drho(theta={theta}) has trace {tr}, expected 0")
        return m


def _eigh_state(rho: np.ndarray, eps_rank: float) -> tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(rho)
    ambiguous = (w > eps_rank / 10.0) & (w < eps_rank)
    if np.any(ambiguous):
        raise IllConditionedError(
            f"eigenvalue {w[ambiguous][0]:.3e} inside the rank ambiguity window "
            f"({eps_rank / 10.0:.0e}, {eps_rank:.0e})"
        )
    if w.min() < -STATE_ATOL:
        raise InfoBoundError(f"state has negative eigenvalue {w.min():.3e}")
    return w, v


def _sld_from_eig(w: np.ndarray, v: np.ndarray, drho: np.ndarray, eps_rank: float) -> np.ndarray:
    d_eig = v.conj().T @ drho @ v
    denom = w[:, None] + w[None, :]
    coeff = np.where(denom > eps_rank, 2.0 / np.where(denom > eps_rank, denom, 1.0), 0.0)
    l_eig = coeff * d_eig
    return hermitize(v @ l_eig @ v.conj().T)


def sld(rho, drho, eps_rank: float = RANK_EPS) -> np.ndarray:
    """Symmetric logarithmic derivative: the Hermitian L solving
    L rho + rho L = 2 drho on the support of rho.

    Computed in the eigenbasis of rho; matrix elements between
    off-support eigenvectors are set to zero, the standard
    support-restricted solution.
    """
    rho = require_hermitian(rho, "rho", atol=1e-10)
    drho = require_hermitian(drho, "drho", atol=1e-10)
    if rho.shape != drho.shape:
        raise DimensionMismatchError("rho and drho dimensions differ")
    w, v = _eigh_state(rho, eps_rank)
    return _sld_from_eig(w, v, drho, eps_rank)


def sld_residual(rho, drho, l_matrix) -> float:
    """Max-norm of L rho + rho L - 2 drho restricted to the support of rho."""
    w, v = np.linalg.eigh(np.asarray(rho, dtype=complex))
    keep = w > RANK_EPS
    p = v[:, keep]
    res = l_matrix @ rho + rho @ l_matrix - 2.0 * np.asarray(drho, dtype=complex)
    return float(np.max(np.abs(p.conj().T @ res @ p)))


def support_projector(rho, eps_rank: float = RANK_EPS) -> np.ndarray:
    w, v = np.linalg.eigh(np.asarray(rho, dtype=complex))
    keep = w > eps_rank
    return v[:, keep] @ v[:, keep].conj().T


def qfi(family: StateFamily, theta: float) -> float:
    """Ensemble quantum sensitivity Tr(rho L^2)."""
    rho = family.rho(theta)
    l_matrix = sld(rho, family.drho(theta))
    value = float(np.real(np.trace(rho @ l_matrix @ l_matrix)))
    if not np.isfinite(value):
        raise NonFiniteError("QFI is not finite")
    return max(value, 0.0)


def cqfi(family: StateFamily, povm: Povm, x_index: int, theta: float) -> float:
    """Per-outcome quantum sensitivity Tr(Pi L^2 rho) / Tr(rho Pi).

    A random variable over outcomes that averages to the QFI under the
    Born distribution for any complete POVM.
    """
    rho = family.rho(theta)
    element = povm.elements[x_index]
    if element.shape != rho.shape:
        raise DimensionMismatchError("POVM dimension does not match the state")
    p = float(np.real(np.trace(element @ rho)))
    if p <= PROB_EPS:
        raise ZeroOutcomeProbabilityError(
            f"outcome {x_index} has probability {p:.3e} at theta={theta}"
        )
    w, v = _eigh_state(rho, RANK_EPS)
    l_matrix = _sld_from_eig(w, v, family.drho(theta), RANK_EPS)
    _warn_on_support_leak(element, w, v, x_index)
    value = float(np.real(np.trace(element @ l_matrix @ l_matrix @ rho))) / p
    if value < 0.0 and value >= -STATE_ATOL:
        value = 0.0
    return value


def _support_leak(element: np.ndarray, w: np.ndarray, v: np.ndarray) -> float:
    keep = w > RANK_EPS
    if np.all(keep):
        return 0.0
    q = v[:, ~keep]
    return float(np.real(np.trace(q.conj().T @ element @ q)))


def _warn_on_support_leak(element: np.ndarray, w: np.ndarray, v: np.ndarray, x_index) -> None:
    # Stable message so the default warning filter deduplicates repeats.
    if _support_leak(element, w, v) > SUPPORT_LEAK_TOL:
        warnings.warn(
            f"POVM element {x_index!r} has weight outside the state support; "
            "the support-restricted SLD convention applies there",
            RuntimeWarning,
            stacklevel=3,
        )


# ---------------------------------------------------------------------------
# Measurement adapter
# ---------------------------------------------------------------------------


class MeasuredStateFamily:
    """Born-rule conditional model of a POVM on a state family.

    Caches (probabilities, probability derivatives, per-outcome
    sensitivities) per parameter value, so grid sweeps decompose each state
    once regardless of how many outcomes and bounds reuse it.
    """

    def __init__(self, family: StateFamily, povm: Povm, outcomes: tuple | None = None):
        failures = validate_povm(povm)
        if failures:
            raise InfoBoundError("invalid POVM: " + "; ".join(failures))
        if outcomes is None:
            outcomes = tuple(range(len(povm)))
        if len(outcomes) != len(povm):
            raise DimensionMismatchError("one outcome label per POVM element required")
        self.family = family
        self.povm = povm
        self.outcomes = tuple(outcomes)
        self._index = {x: i for i, x in enumerate(self.outcomes)}
        self._cache: dict[float, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._warned_zero_prob = False
        self._warned_leak: set = set()

    def _node(self, theta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        key = float(theta)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        rho = self.family.rho(key)
        drho = self.family.drho(key)
        w, v = _eigh_state(rho, RANK_EPS)
        l_matrix = _sld_from_eig(w, v, drho, RANK_EPS)
        l2rho = l_matrix @ l_matrix @ rho
        n = len(self.povm)
        probs = np.empty(n)
        dprobs = np.empty(n)
        sens = np.empty(n)
        for i, element in enumerate(self.povm.elements):
            p = float(np.real(np.trace(element @ rho)))
            probs[i] = min(max(p, 0.0), 1.0)
            dprobs[i] = float(np.real(np.trace(element @ drho)))
            if probs[i] > PROB_EPS:
                if self.outcomes[i] not in self._warned_leak and (
                    _support_leak(element, w, v) > SUPPORT_LEAK_TOL
                ):
                    self._warned_leak.add(self.outcomes[i])
                    _warn_on_support_leak(element, w, v, self.outcomes[i])
                val = float(np.real(np.trace(element @ l2rho))) / probs[i]
                sens[i] = 0.0 if -STATE_ATOL <= val < 0.0 else val
            else:
                sens[i] = np.nan
                if not self._warned_zero_prob:
                    self._warned_zero_prob = True
                    warnings.warn(
                        f"outcome {self.outcomes[i]!r} has zero probability at "
                        f"theta={key}; such nodes are excluded from integrals",
                        RuntimeWarning,
                        stacklevel=4,
                    )
        out = (probs, dprobs, sens)
        self._cache[key] = out
        return out

    def _gather(self, x, theta, which: int) -> np.ndarray | float:
        i = self._index[x]
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        vals = np.array([self._node(t)[which][i] for t in th])
        if np.ndim(theta) == 0:
            return float(vals[0])
        return vals

    def log_pdf(self, x, theta):
        p = self._gather(x, theta, 0)
        with np.errstate(divide="ignore"):
            return np.log(p)

    def score(self, x, theta):
        i = self._index[x]
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        out = np.empty(th.shape)
        for j, t in enumerate(th):
            probs, dprobs, _ = self._node(t)
            out[j] = dprobs[i] / probs[i] if probs[i] > 0.0 else np.nan
        if np.ndim(theta) == 0:
            return float(out[0])
        return out

    def sensitivity(self, x, theta):
        """Per-outcome quantum sensitivity; NaN at zero-probability nodes."""
        return self._gather(x, theta, 2)


def quantum_conditional_model(
    family: StateFamily,
    povm: Povm,
    theta_grid: ParameterGrid | None = None,
    outcomes: tuple | None = None,
) -> tuple[ConditionalModel, Callable]:
    """Adapt a measured state family into a conditional model plus its
    per-outcome sensitivity provider.

    The returned sensitivity callable slots into the bound evaluators in
    place of the squared score. ``theta_grid`` is accepted for symmetry
    with the classical constructors; the adapter caches per parameter
    value, so any grid works.
    """
    measured = MeasuredStateFamily(family, povm, outcomes)
    model = ConditionalModel(
        log_pdf=measured.log_pdf,
        outcome_space=DiscreteOutcomes(measured.outcomes),
        score=measured.score,
    )
    return model, measured.sensitivity
