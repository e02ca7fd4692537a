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


def _as_matrix(a, name: str = "matrix", stacked: bool = False) -> np.ndarray:
    """``a`` as a complex square matrix, or with ``stacked`` as an (n, d, d)
    stack of them."""
    m = np.asarray(a, dtype=complex)
    shape = m.shape[1:] if stacked else m.shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {shape}")
    if shape[0] > MAX_DIM:
        raise DimensionMismatchError(f"{name} dimension {shape[0]} exceeds {MAX_DIM}")
    return m


def require_hermitian(
    a, name: str = "matrix", atol: float = HERMITICITY_ATOL, thetas=None
) -> np.ndarray:
    """``a`` as a matrix that is Hermitian within ``atol`` entrywise.

    With ``thetas``, ``a`` is an (n, d, d) stack of the matrices at those n
    parameter values, checked at once, and an error names the first
    offending value. A non-finite entry raises :class:`NonFiniteError`.
    """
    m = _as_matrix(a, name, stacked=thetas is not None)
    dev = np.abs(m - _dagger(m))
    if not dev.max() <= atol:  # NaN fails too
        if thetas is None:
            where, worst = name, dev.max()
        else:
            per_node = dev.max(axis=(1, 2))
            i = int(np.argmax(~(per_node <= atol)))
            where, worst = f"{name}(theta={thetas[i]})", per_node[i]
        if not np.isfinite(worst):
            raise NonFiniteError(f"{where} has non-finite entries")
        raise InfoBoundError(f"{where} is not Hermitian within {atol}")
    return m


def _require_trace(m: np.ndarray, name: str, thetas, expected: int, atol: float) -> None:
    """Check the trace of each matrix of an (n, d, d) stack."""
    tr = np.einsum("nii->n", m).real
    dev = np.abs(tr - expected)
    if dev.max() > atol:
        i = int(np.argmax(dev > atol))
        raise InfoBoundError(
            f"{name}(theta={thetas[i]}) has trace {float(tr[i])}, expected {expected}"
        )


def _dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes of a matrix or a stack."""
    return np.swapaxes(a, -1, -2).conj()


def hermitize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + _dagger(a))


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

    The callables take one parameter value and return one matrix;
    :meth:`states` evaluates them at many values and validates the
    resulting stacks at once.
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
        return self._rho((theta,))[0]

    def drho(self, theta: float) -> np.ndarray:
        return self._drho((theta,))[0]

    def states(self, thetas) -> tuple[np.ndarray, np.ndarray]:
        """(n, d, d) stacks of rho and drho at a sequence of n parameter
        values.

        Each stack is validated at once: square matrices of dimension at
        most ``MAX_DIM``, Hermitian within 1e-10, trace 1 within
        ``STATE_ATOL`` for rho and trace 0 within 1e-8 for drho, and one
        dimension for both. An error names the first offending value.
        """
        rho, drho = self._rho(thetas), self._drho(thetas)
        if drho.shape != rho.shape:
            raise DimensionMismatchError(
                f"drho dimension {drho.shape[-1]} != rho dimension {rho.shape[-1]}"
            )
        return rho, drho

    def _rho(self, thetas) -> np.ndarray:
        m = require_hermitian(_evaluate(self._rho_of, thetas, "rho"), "rho", 1e-10, thetas)
        _require_trace(m, "rho", thetas, 1, STATE_ATOL)
        return m

    def _drho(self, thetas) -> np.ndarray:
        if self._drho_of is not None:
            m = _evaluate(self._drho_of, thetas, "drho")
        else:
            h = self.fd_step
            shifted = [t + h for t in thetas] + [t - h for t in thetas]
            rho = _as_matrix(_evaluate(self._rho_of, shifted, "rho"), "rho", stacked=True)
            m = hermitize((rho[: len(thetas)] - rho[len(thetas) :]) / (2.0 * h))
        m = require_hermitian(m, "drho", 1e-10, thetas)
        _require_trace(m, "drho", thetas, 0, 1e-8)
        return m


def _evaluate(of: Callable[[float], np.ndarray], thetas, name: str) -> np.ndarray:
    """``of`` at each parameter value, stacked as one complex array."""
    mats = [of(t) for t in thetas]
    try:
        stack = np.array(mats, dtype=complex)
    except ValueError:
        first = np.shape(mats[0])
        for theta, m in zip(thetas, mats):
            if np.shape(m) != first:
                raise DimensionMismatchError(
                    f"{name}(theta={theta}) has shape {np.shape(m)}, "
                    f"but {name}(theta={thetas[0]}) has shape {first}"
                ) from None
        raise
    return stack


def _eigh_state(rho: np.ndarray, eps_rank: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of one state, or of a stack of states over the
    leading axes, with the rank-ambiguity and positivity checks."""
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
    """SLD from the eigendecomposition of one state or of a stack of states."""
    d_eig = _dagger(v) @ drho @ v
    denom = w[..., :, None] + w[..., None, :]
    coeff = np.where(denom > eps_rank, 2.0 / np.where(denom > eps_rank, denom, 1.0), 0.0)
    l_eig = coeff * d_eig
    return hermitize(v @ l_eig @ _dagger(v))


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


def qfi(family: StateFamily, theta: float) -> float:
    """Ensemble quantum sensitivity Tr(rho L^2)."""
    rho, drho = family.states((theta,))
    w, v = _eigh_state(rho, RANK_EPS)
    l_matrix = _sld_from_eig(w, v, drho, RANK_EPS)[0]
    value = float(np.real(np.trace(rho[0] @ l_matrix @ l_matrix)))
    if not np.isfinite(value):
        raise NonFiniteError("QFI is not finite")
    return max(value, 0.0)


def _traces(elements: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Re Tr(E_k M_n) for a (K, d, d) and an (n, d, d) stack, as (K, n)."""
    return np.einsum("kab,nba->kn", elements, mats).real


def _support_leak(elements: np.ndarray, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Weight of each element outside the support of each state, (K, n)."""
    off = w <= RANK_EPS
    if not np.any(off):
        return np.zeros((elements.shape[0], w.shape[0]))
    diag = np.einsum("nai,kab,nbi->kni", v.conj(), elements, v).real
    return np.sum(diag * off, axis=-1)


def _born_table(family: StateFamily, elements: np.ndarray, thetas: np.ndarray):
    """Tabulate a POVM on a state family at every parameter value.

    ``elements`` is a (K, d, d) stack and ``thetas`` a 1-D array of n
    values. The n states come as one validated stack from
    :meth:`StateFamily.states`, are decomposed by one stacked ``eigh`` and
    share one SLD computation. Returns (K, n) arrays: probabilities clamped
    into [0, 1], their derivatives, per-outcome sensitivities (NaN where the
    probability is at most ``PROB_EPS``, small negative values clamped to
    zero) and the POVM weight outside each state's support.
    """
    rho, drho = family.states(thetas)
    if rho.shape[1:] != elements.shape[1:]:
        raise DimensionMismatchError("POVM dimension does not match the state")
    w, v = _eigh_state(rho, RANK_EPS)
    l_matrix = _sld_from_eig(w, v, drho, RANK_EPS)
    probs = np.clip(_traces(elements, rho), 0.0, 1.0)
    dprobs = _traces(elements, drho)
    positive = probs > PROB_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        sens = _traces(elements, l_matrix @ l_matrix @ rho) / probs
    sens[(sens < 0.0) & (sens >= -STATE_ATOL)] = 0.0
    sens[~positive] = np.nan
    return probs, dprobs, sens, _support_leak(elements, w, v)


def _warn_support_leak(x, stacklevel: int) -> None:
    # Stable message so the default warning filter deduplicates repeats.
    warnings.warn(
        f"POVM element {x!r} has weight outside the state support; "
        "the support-restricted SLD convention applies there",
        RuntimeWarning,
        stacklevel=stacklevel + 1,
    )


def cqfi(family: StateFamily, povm: Povm, x_index: int, theta: float) -> float:
    """Per-outcome quantum sensitivity Tr(Pi L^2 rho) / Tr(rho Pi).

    A random variable over outcomes that averages to the QFI under the
    Born distribution for any complete POVM.
    """
    element = povm.elements[x_index]
    probs, _, sens, leak = _born_table(family, element[None], np.array([float(theta)]))
    if probs[0, 0] <= PROB_EPS:
        raise ZeroOutcomeProbabilityError(
            f"outcome {x_index} has probability {probs[0, 0]:.3e} at theta={theta}"
        )
    if leak[0, 0] > SUPPORT_LEAK_TOL:
        _warn_support_leak(x_index, stacklevel=2)
    return float(sens[0, 0])


# ---------------------------------------------------------------------------
# Measurement adapter
# ---------------------------------------------------------------------------


class MeasuredStateFamily:
    """Born-rule conditional model of a POVM on a state family.

    An array query tabulates probabilities, their derivatives and the
    per-outcome sensitivities of every outcome at once, from one stacked
    decomposition of the states; the adapter keeps the table of its most
    recent array query, so the outcomes and bounds of a grid sweep reuse
    it. A query of one value, a scalar or an array of size 1, is evaluated
    directly and not kept.
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
        self._elements = np.stack(povm.elements)
        self._thetas: np.ndarray | None = None
        self._table: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._warned_zero_prob = False
        self._warned_leak: set = set()

    def _tabulate(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (K, n) log-probabilities, scores and sensitivities."""
        probs, dprobs, sens, leak = _born_table(self.family, self._elements, thetas)
        positive = probs > PROB_EPS
        for i, x in enumerate(self.outcomes):
            if x not in self._warned_leak and np.any(
                positive[i] & (leak[i] > SUPPORT_LEAK_TOL)
            ):
                self._warned_leak.add(x)
                _warn_support_leak(x, stacklevel=4)
        if not self._warned_zero_prob and not np.all(positive):
            self._warned_zero_prob = True
            node = int(np.argmax(~np.all(positive, axis=0)))
            x = self.outcomes[int(np.argmin(positive[:, node]))]
            warnings.warn(
                f"outcome {x!r} has zero probability at "
                f"theta={float(thetas[node])}; such nodes are excluded from integrals",
                RuntimeWarning,
                stacklevel=4,
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            table = (np.log(probs), np.where(probs > 0.0, dprobs / probs, np.nan), sens)
        for a in table:
            a.setflags(write=False)
        return table

    def _query(self, which: int, x, theta):
        i = self._index[x]
        th = np.asarray(theta, dtype=float)
        if th.size == 1:  # a point query: evaluated directly, not kept
            row = self._tabulate(th.reshape(1))[which][i]
            return float(row[0]) if th.ndim == 0 else row.reshape(th.shape)
        if self._thetas is None or not np.array_equal(th, self._thetas):
            self._table = self._tabulate(th.ravel())
            self._thetas = th.copy()
        return self._table[which][i].reshape(th.shape)

    def log_pdf(self, x, theta):
        return self._query(0, x, theta)

    def score(self, x, theta):
        return self._query(1, x, theta)

    def sensitivity(self, x, theta):
        """Per-outcome quantum sensitivity; NaN at zero-probability nodes."""
        return self._query(2, x, theta)


def quantum_conditional_model(
    family: StateFamily,
    povm: Povm,
    outcomes: tuple | None = None,
) -> tuple[ConditionalModel, Callable]:
    """Adapt a measured state family into a conditional model plus its
    per-outcome sensitivity provider.

    The returned sensitivity callable slots into the bound evaluators in
    place of the squared score.
    """
    measured = MeasuredStateFamily(family, povm, outcomes)
    model = ConditionalModel(
        log_pdf=measured.log_pdf,
        outcome_space=DiscreteOutcomes(measured.outcomes),
        score=measured.score,
    )
    return model, measured.sensitivity
