"""Small dense Hermitian machinery: Born-rule conditionals, the symmetric
logarithmic derivative, per-outcome quantum sensitivities and the adapter
that lets the bound family run on measured quantum state families."""

from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass
from functools import partial
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
from .grids import _of_kind
from .information import _theta_array
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

#: Warnings are attributed to the first caller outside this directory.
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def _stack(m, name: str, thetas: np.ndarray | None = None) -> np.ndarray:
    """``m`` as an (n, d, d) complex stack of square matrices of dimension at
    most ``MAX_DIM``: the matrices at the n parameter values ``thetas``, or
    without them one matrix, as a stack of one. A fault of a stack names its
    first parameter value."""
    try:
        m = np.asarray(m, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"{_name((name,), thetas, 0)} is not a numeric array: {exc}") from None
    shape = m.shape if thetas is None else m.shape[1:]
    if len(shape) != 2 or shape[0] != shape[1]:
        problem = f"{name} must be square, got shape {shape}"
    elif shape[0] > MAX_DIM:
        problem = f"{name} dimension {shape[0]} exceeds {MAX_DIM}"
    elif thetas is not None and len(m) != len(thetas):
        problem = f"{name} stack has {len(m)} matrices for {len(thetas)} values"
    else:
        return m[None] if thetas is None else m
    raise DimensionMismatchError(problem if thetas is None else f"{problem}, at theta={thetas[0]}")


def _name(names: tuple, thetas: np.ndarray | None, i: int) -> str:
    """The name of matrix i of a stack: ``names[i]``, or for a stack of
    blocks of n matrices at the n values ``thetas``, ``name(theta=...)``."""
    if thetas is None:
        return names[i]
    return f"{names[i // len(thetas)]}(theta={thetas[i % len(thetas)]})"


def _require_hermitian(m: np.ndarray, names: tuple, atol: float, thetas: np.ndarray | None = None) -> np.ndarray:
    """Check each matrix of the stack ``m`` Hermitian within ``atol``
    entrywise; an error names the first offending one (see :func:`_name`),
    as :class:`NonFiniteError` if it has a non-finite entry."""
    dev = np.abs(m - _dagger(m))
    if not np.maximum.reduce(dev, axis=None) <= atol:  # NaN fails too
        dev = dev.max(axis=(1, 2))
        i = int(np.argmax(~(dev <= atol)))
        if not np.isfinite(dev[i]):
            raise NonFiniteError(f"{_name(names, thetas, i)} has non-finite entries")
        raise InfoBoundError(f"{_name(names, thetas, i)} is not Hermitian within {atol}")
    return m


#: Expected trace and tolerance of each kind of matrix, also as a pair of
#: columns, expected traces and tolerances, per sequence of blocks.
_TRACES = {"rho": (1, STATE_ATOL), "drho": (0, 1e-8)}
_TRACE_COLUMNS = {k: tuple(np.array([[_TRACES[n][j]] for n in k]) for j in (0, 1))
                  for k in (("rho",), ("drho",), ("rho", "drho"))}


def _require_states(m: np.ndarray, thetas: np.ndarray, names: tuple) -> np.ndarray:
    """Check a stack of ``len(names)`` blocks of n matrices, one block per
    name at the n parameter values ``thetas``: each matrix Hermitian within
    1e-10, then with the trace of ``_TRACES``."""
    _require_hermitian(m, names, 1e-10, thetas)
    n = len(thetas)
    tr = np.einsum("nii->n", m).real.reshape(len(names), n)
    expected, atol = _TRACE_COLUMNS[names]
    bad = np.abs(tr - expected) > atol
    if np.logical_or.reduce(bad, axis=None):
        i = int(np.argmax(bad))
        raise InfoBoundError(
            f"{_name(names, thetas, i)} has trace {float(tr.flat[i])}, expected {_TRACES[names[i // n]][0]}"
        )
    return m


def _dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes of a matrix or a stack."""
    return a.swapaxes(-1, -2).conj()


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
        names = tuple(f"POVM element {i}" for i in range(len(self.elements)))
        mats = [_stack(e, name)[0] for e, name in zip(self.elements, names)]
        for name, m in zip(names, mats):
            if m.shape != mats[0].shape:
                raise DimensionMismatchError(f"{name} has mismatched dimension")
        stack = _require_hermitian(np.array(mats), names, HERMITICITY_ATOL)  # a copy, so
        stack.setflags(write=False)  # freezing does not reach the caller's arrays
        object.__setattr__(self, "elements", tuple(stack))

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def __len__(self) -> int:
        return len(self.elements)


def validate_povm(povm: Povm) -> list[str]:
    """Positivity and completeness checks; returns failure messages, empty if ok."""
    elements = np.array(_of_kind(povm, Povm, "povm").elements)
    failures = [f"element {i}: not positive semidefinite (min eigenvalue {low:.3e})"
                for i, low in enumerate(np.linalg.eigvalsh(elements).min(axis=1)) if low < -STATE_ATOL]
    dev = np.abs(elements.sum(axis=0) - np.eye(povm.dim)).max()
    if dev > STATE_ATOL:
        failures.append(f"completeness: elements sum to identity only within {dev:.3e}")
    return failures


# ---------------------------------------------------------------------------
# State families and the SLD
# ---------------------------------------------------------------------------


class StateFamily:
    """Differentiable family of density matrices theta -> rho(theta).

    A family is a pair of stack callables, ``thetas (n,) -> (n, d, d)``, as
    :meth:`from_stacks` takes them; the constructor wraps callables of one
    parameter value into that form. :meth:`states` takes both stacks at all
    n values from one pair call (:meth:`_pair`) and validates them in one
    pass; :meth:`rho` evaluates the rho stack alone.

    Without an analytic derivative, central finite differences with
    Hermitian symmetrization are used, from one call of the rho stack at all
    2n shifted values (symmetrization keeps roundoff from breaking the
    Hermiticity invariants downstream).
    """

    #: Central finite-difference step, for families without a derivative.
    fd_step = 1e-5

    def __init__(
        self,
        rho_of: Callable[[float], np.ndarray],
        drho_of: Callable[[float], np.ndarray] | None = None,
    ):
        self._rho_stack = partial(_evaluate, rho_of, name="rho")
        self._drho_stack = None if drho_of is None else partial(_evaluate, drho_of, name="drho")

    @classmethod
    def from_stacks(
        cls,
        rho_stack: Callable[[np.ndarray], np.ndarray],
        drho_stack: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> "StateFamily":
        """A family of vectorized callables: each maps a 1-D float array of
        n parameter values to the (n, d, d) stack of matrices at them."""
        family = cls.__new__(cls)
        family._rho_stack, family._drho_stack = rho_stack, drho_stack
        return family

    @classmethod
    def _from_pair(cls, rho_stack, pair: Callable[[np.ndarray], tuple]) -> "StateFamily":
        """An analytic family whose ``pair`` maps n parameter values to the
        rho and drho stacks at once, sharing their work, and whose
        ``rho_stack`` gives rho alone, bit for bit the first of the pair."""
        family = cls.from_stacks(rho_stack, lambda thetas: pair(thetas)[1])
        family._pair = partial(_checked_pair, pair)
        return family

    def rho(self, theta: float) -> np.ndarray:
        thetas = _theta_array(theta, point=True)
        return _require_states(_stack(self._rho_stack(thetas), "rho", thetas), thetas, ("rho",))[0]

    def drho(self, theta: float) -> np.ndarray:
        thetas = _theta_array(theta, point=True)
        return _require_states(self._drho(thetas), thetas, ("drho",))[0]

    def states(self, thetas) -> tuple[np.ndarray, np.ndarray]:
        """(n, d, d) stacks of rho and drho at a sequence of n parameter
        values.

        Both stacks are validated as one: square matrices of dimension at
        most ``MAX_DIM``, Hermitian within 1e-10, trace 1 within
        ``STATE_ATOL`` for rho and trace 0 within 1e-8 for drho, and one
        dimension for both. An error names the first offending value.
        """
        thetas = _theta_array(thetas)
        if thetas.ndim != 1:
            raise InvalidParameterError(f"thetas must be a 1-D sequence of numbers, got shape {thetas.shape}")
        if len(thetas) == 0:
            raise DimensionMismatchError("rho needs at least one parameter value")
        rho, drho = self._pair(thetas)
        if drho.shape != rho.shape:
            raise DimensionMismatchError(
                f"drho dimension {drho.shape[-1]} != rho dimension {rho.shape[-1]}"
            )
        both = _require_states(np.concatenate((rho, drho)), thetas, ("rho", "drho"))
        return both[: len(thetas)], both[len(thetas) :]

    def _pair(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rho and drho stacks at ``thetas``, each checked by :func:`_stack`;
        rho is evaluated and checked before drho is evaluated."""
        return _stack(self._rho_stack(thetas), "rho", thetas), self._drho(thetas)

    def _drho(self, thetas: np.ndarray) -> np.ndarray:
        """The unvalidated drho stack, analytic or by finite differences."""
        if self._drho_stack is not None:
            return _stack(self._drho_stack(thetas), "drho", thetas)
        h = self.fd_step
        shifted = np.concatenate((thetas + h, thetas - h))
        rho = _stack(self._rho_stack(shifted), "rho", shifted)
        return hermitize((rho[: len(thetas)] - rho[len(thetas) :]) / (2.0 * h))


def _checked_pair(pair: Callable[[np.ndarray], tuple], thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two stacks of ``pair`` at ``thetas``, each checked by :func:`_stack`."""
    rho, drho = pair(thetas)
    return _stack(rho, "rho", thetas), _stack(drho, "drho", thetas)


def _evaluate(of: Callable[[float], np.ndarray], thetas, name: str) -> np.ndarray:
    """``of`` at each parameter value, stacked as one complex array."""
    mats = [of(t) for t in thetas]
    try:
        return np.array(mats, dtype=complex)
    except (TypeError, ValueError) as exc:
        error = exc
    shapes = []
    for theta, m in zip(thetas, mats):
        try:
            shapes.append(np.asarray(m, dtype=complex).shape)
        except (TypeError, ValueError) as exc:
            raise InvalidParameterError(f"{name}(theta={theta}) is not a numeric array: {exc}") from None
        if shapes[-1] != shapes[0]:
            raise DimensionMismatchError(
                f"{name}(theta={theta}) has shape {shapes[-1]}, "
                f"but {name}(theta={thetas[0]}) has shape {shapes[0]}"
            )
    raise error


def _eigh_state(rho: np.ndarray, vectors: bool = True):
    """Eigendecomposition of one state, or of a stack of states over the
    leading axes, with the rank-ambiguity and positivity checks; without
    ``vectors``, the eigenvalues and None."""
    w, v = np.linalg.eigh(rho) if vectors else (np.linalg.eigvalsh(rho), None)
    # One reduction that every eigenvalue inside the window passes, with room
    # for rounding, screens for the exact test.
    if np.minimum.reduce(np.abs(w - 0.55 * RANK_EPS), axis=None) <= 0.46 * RANK_EPS:
        ambiguous = (w > RANK_EPS / 10.0) & (w < RANK_EPS)
        if ambiguous.any():
            raise IllConditionedError(
                f"eigenvalue {w[ambiguous][0]:.3e} inside the rank ambiguity window "
                f"({RANK_EPS / 10.0:.0e}, {RANK_EPS:.0e})"
            )
    if np.minimum.reduce(w, axis=None) < -STATE_ATOL:
        raise InfoBoundError(f"state has negative eigenvalue {w.min():.3e}")
    return w, v


def _sld_from_eig(w: np.ndarray, v: np.ndarray, drho: np.ndarray) -> np.ndarray:
    """SLD from the eigendecomposition of one state or of a stack of states."""
    d_eig = _dagger(v) @ drho @ v
    denom = w[..., :, None] + w[..., None, :]
    coeff = np.where(denom > RANK_EPS, 2.0 / np.where(denom > RANK_EPS, denom, 1.0), 0.0)
    l_eig = coeff * d_eig
    return hermitize(v @ l_eig @ _dagger(v))


def sld(rho, drho) -> np.ndarray:
    """Symmetric logarithmic derivative: the Hermitian L solving
    L rho + rho L = 2 drho on the support of rho.

    Computed in the eigenbasis of rho; matrix elements between
    off-support eigenvectors are set to zero, the standard
    support-restricted solution.
    """
    rho, drho = _stack(rho, "rho"), _stack(drho, "drho")
    if rho.shape != drho.shape:
        raise DimensionMismatchError("rho and drho dimensions differ")
    rho, drho = _require_hermitian(np.concatenate((rho, drho)), ("rho", "drho"), 1e-10)
    w, v = _eigh_state(rho)
    return _sld_from_eig(w, v, drho)


def qfi(family: StateFamily, theta: float) -> float:
    """Ensemble quantum sensitivity Tr(rho L^2)."""
    th = _theta_array(theta, finite=True, point=True)
    rho, drho = _of_kind(family, StateFamily, "family").states(th)
    w, v = _eigh_state(rho)
    l_matrix = _sld_from_eig(w, v, drho)[0]
    value = float(np.real(np.trace(rho[0] @ l_matrix @ l_matrix)))
    if not np.isfinite(value):
        raise NonFiniteError("QFI is not finite")
    return max(value, 0.0)


def _traces(elements: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Re Tr(E_k M_n) for a (K, d, d) and an (n, d, d) stack, as (K, n)."""
    return np.einsum("kab,nba->kn", elements, mats).real


def _born_table(family: StateFamily, elements: np.ndarray, thetas: np.ndarray, score: bool, sld: bool):
    """Tabulate a POVM on a state family at every parameter value.

    ``elements`` is a (K, d, d) stack and ``thetas`` a 1-D array of n
    values. The n states come as one validated stack from
    :meth:`StateFamily.states`; one stacked eigendecomposition checks them,
    with eigenvectors only for the ``sld``. Returns (K, n) probabilities
    clamped into [0, 1], with ``score`` their derivatives (else None), and
    the stacks ``(rho, drho, w, v)`` that :func:`_sensitivities` needs.
    """
    rho, drho = family.states(thetas)
    if rho.shape[-1] != elements.shape[-1]:  # both square
        raise DimensionMismatchError("POVM dimension does not match the state")
    w, v = _eigh_state(rho, vectors=sld)
    probs = np.minimum(np.maximum(_traces(elements, rho), 0.0), 1.0)
    return probs, _traces(elements, drho) if score else None, (rho, drho, w, v)


def _sensitivities(elements, probs, states, labels, warned: set) -> np.ndarray:
    """(K, n) per-outcome sensitivities of a :func:`_born_table`,
    from one SLD computation: NaN where the probability is at most
    ``PROB_EPS``, small negative values clamped to zero. Warns once for each
    outcome of ``labels`` not in ``warned`` whose element has weight outside
    the support of a state where its probability is positive."""
    rho, drho, w, v = states
    l_matrix = _sld_from_eig(w, v, drho)
    with np.errstate(divide="ignore", invalid="ignore"):
        sens = _traces(elements, l_matrix @ l_matrix @ rho) / probs
    sens[(sens < 0.0) & (sens >= -STATE_ATOL)] = 0.0
    sens[~(probs > PROB_EPS)] = np.nan
    off = w <= RANK_EPS  # eigenvectors outside each state's support
    if np.logical_or.reduce(off, axis=None):
        leak = np.sum(np.einsum("nai,kab,nbi->kni", v.conj(), elements, v).real * off, axis=-1)
        for x, p, out in zip(labels, probs, leak):
            if x not in warned and np.any((p > PROB_EPS) & (out > SUPPORT_LEAK_TOL)):
                warned.add(x)  # a stable message lets the default filter deduplicate
                _warn(f"POVM element {x!r} has weight outside the state support; "
                      "the support-restricted SLD convention applies there")
    return sens


def _warn(message: str) -> None:
    """A RuntimeWarning attributed to the first caller outside this package
    with a source file. Without one (as under ``python -m``) it comes from
    line 0 of the package's outermost frame's file, so its text does not
    move when that file is edited."""
    frame = outermost = sys._getframe(1)
    level = 2
    while frame is not None and frame.f_code.co_filename.startswith((_PACKAGE_DIR, "<")):
        if frame.f_code.co_filename.startswith(_PACKAGE_DIR):
            outermost = frame
        frame, level = frame.f_back, level + 1
    if frame is not None:
        warnings.warn(message, RuntimeWarning, stacklevel=level)
    else:  # with the module and registry that warnings.warn would use
        names = outermost.f_globals
        warnings.warn_explicit(message, RuntimeWarning, outermost.f_code.co_filename, 0, names.get("__name__"),
                               names.setdefault("__warningregistry__", {}))


def cqfi(family: StateFamily, povm: Povm, x_index: int, theta: float) -> float:
    """Per-outcome quantum sensitivity Tr(Pi L^2 rho) / Tr(rho Pi).

    A random variable over outcomes that averages to the QFI under the
    Born distribution for any complete POVM. ``x_index`` is the position of
    an element of ``povm``.
    """
    th = _theta_array(theta, finite=True, point=True)
    _of_kind(family, StateFamily, "family")
    n = len(_of_kind(povm, Povm, "povm"))  # before len: a string has a length too
    if isinstance(x_index, bool) or not isinstance(x_index, int) or not 0 <= x_index < n:
        raise InvalidParameterError(f"x_index must be an int in range({n}), got {x_index!r}")
    elements = povm.elements[x_index][None]
    probs, _, states = _born_table(family, elements, th, score=False, sld=True)
    if probs[0, 0] <= PROB_EPS:
        raise ZeroOutcomeProbabilityError(
            f"outcome {x_index} has probability {probs[0, 0]:.3e} at theta={theta}"
        )
    sens = _sensitivities(elements, probs, states, (x_index,), set())
    return float(sens[0, 0])


# ---------------------------------------------------------------------------
# Measurement adapter
# ---------------------------------------------------------------------------


class MeasuredStateFamily(ConditionalModel):
    """Born-rule conditional model of a POVM on a state family.

    Each :meth:`table` evaluates the states once for every outcome, and
    computes the SLD only for the adapter's own :meth:`sensitivity`; the
    scalar callables are one-outcome tables. The adapter keeps nothing
    between queries: the evaluators keep the tables they reuse.
    """

    def __init__(self, family: StateFamily, povm: Povm, outcomes: tuple | None = None):
        _of_kind(family, StateFamily, "family")
        failures = validate_povm(povm)
        if failures:
            raise InfoBoundError("invalid POVM: " + "; ".join(failures))
        outcomes = tuple(range(len(povm))) if outcomes is None else tuple(outcomes)
        if len(outcomes) != len(povm):
            raise DimensionMismatchError("one outcome label per POVM element required")
        self.family = family
        self.outcome_space = DiscreteOutcomes(outcomes)
        self._elements = np.stack(povm.elements)
        self._warned_zero_prob = False
        self._warned_leak: set = set()

    def table(self, outcomes, thetas: np.ndarray, score: bool = False, sensitivity: Callable | None = None):
        rows = [self.outcome_space.index(x) for x in outcomes]
        own = sensitivity is not None and sensitivity == self.sensitivity
        probs, dprobs, states = _born_table(self.family, self._elements, thetas, score, own)
        if not self._warned_zero_prob:
            positive = probs > PROB_EPS
            if not np.logical_and.reduce(positive, axis=None):
                self._warned_zero_prob = True
                node = int(np.argmax(~positive.all(axis=0)))
                x = self.outcome_space.outcomes[int(np.argmin(positive[:, node]))]
                _warn(f"outcome {x!r} has zero probability at theta={float(thetas[node])}; "
                      "such nodes are excluded from integrals")
        p = probs.take(rows, axis=0)  # finite in [0, 1]: the log is -inf and the score NaN where p is 0
        with np.errstate(divide="ignore"):
            logpdf = np.log(p)
        scores = np.divide(dprobs.take(rows, axis=0), p, out=np.full(p.shape, np.nan), where=p > 0.0) if score else None
        if not own:
            return logpdf, scores, None if sensitivity is None else self._rows(sensitivity, outcomes, thetas)
        sens = _sensitivities(self._elements, probs, states, self.outcome_space.outcomes, self._warned_leak)
        return logpdf, scores, sens[rows]

    def _point(self, column: int, x, theta):
        th = np.asarray(theta, dtype=float)
        own = self.sensitivity if column == 2 else None
        row = self.table((x,), th.ravel(), score=column == 1, sensitivity=own)[column][0]
        return float(row[0]) if th.ndim == 0 else row.reshape(th.shape)

    def log_pdf(self, x, theta):
        return self._point(0, x, theta)

    def score(self, x, theta):
        return self._point(1, x, theta)

    def sensitivity(self, x, theta):
        """Per-outcome quantum sensitivity; NaN at zero-probability nodes."""
        return self._point(2, x, theta)


def quantum_conditional_model(family: StateFamily, povm: Povm, outcomes: tuple | None = None):
    """The adapter of a measured state family, which is its conditional
    model, and its per-outcome sensitivity, which slots into the bound
    evaluators in place of the squared score."""
    adapter = MeasuredStateFamily(family, povm, outcomes)
    return adapter, adapter.sensitivity
