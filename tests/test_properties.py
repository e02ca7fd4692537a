"""Properties of the block evaluation on randomly generated models.

Two kinds of model: discrete exponential families with 2-6 outcomes, and
mixed qutrit families U(theta) rho0 U(theta)^dagger, U = exp(-i H theta),
with the analytic derivative -i[H, rho], under random 3-5 element POVMs.
Examples are derandomized, so every run checks the same models.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import infobounds as ib

EXAMPLES = settings(max_examples=25, derandomize=True, deadline=None)

#: Parameter values of the table comparisons: grid-like and off-grid.
THETAS = np.array([0.0, 0.13, 0.5, 0.77, 1.0])


def _complex(rng, *shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _qutrit_family(rng) -> ib.StateFamily:
    g = _complex(rng, 3, 3)
    rho0 = g @ g.conj().T
    rho0 = 0.9 * rho0 / np.trace(rho0).real + 0.1 * np.eye(3) / 3  # full rank
    h = _complex(rng, 3, 3)
    energies, basis = np.linalg.eigh(h + h.conj().T)
    gaps = energies[:, None] - energies[None, :]
    rho0 = basis.conj().T @ rho0 @ basis  # in the eigenbasis of H, where U is diagonal

    def rho_of(theta):
        return basis @ (rho0 * np.exp(-1j * gaps * theta)) @ basis.conj().T

    def drho_of(theta):  # -i[H, rho]
        return basis @ (-1j * gaps * rho0 * np.exp(-1j * gaps * theta)) @ basis.conj().T

    return ib.StateFamily(rho_of, drho_of)


def _random_povm(rng, n_elements: int) -> ib.Povm:
    parts = [b @ b.conj().T for b in (_complex(rng, 3, 3) for _ in range(n_elements))]
    w, v = np.linalg.eigh(sum(parts))
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    return ib.Povm(tuple(ib.quantum.hermitize(inv_root @ p @ inv_root) for p in parts))


@st.composite
def discrete_models(draw):
    k = draw(st.integers(2, 6))
    values = st.lists(st.floats(-2.0, 2.0), min_size=k, max_size=k)
    return ib.discrete_exponential_model(draw(values), draw(values)), None


@st.composite
def qutrit_models(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    povm = _random_povm(rng, draw(st.integers(3, 5)))
    return ib.quantum_conditional_model(_qutrit_family(rng), povm)


def _stacked(fn, outcomes) -> np.ndarray:
    return np.array([fn(x, THETAS) for x in outcomes])


def _check_model(model, sensitivity, n_points: int) -> None:
    outcomes = model.outcome_space.outcomes
    third = sensitivity or model.score  # any callable fills the sensitivity column
    logpdf, score, sens = model.table(outcomes, THETAS, score=True, sensitivity=third)
    assert np.array_equal(logpdf, _stacked(model.log_pdf, outcomes))
    assert np.array_equal(score, _stacked(model.score, outcomes))
    assert np.array_equal(sens, _stacked(third, outcomes), equal_nan=True)

    prior = ib.uniform_prior(0.0, 1.0, n_points)
    weight = ib.boxcar_weight(prior.grid)
    for sens in (None, sensitivity) if sensitivity else (None,):
        cold = ib.mi_chain_values(model, prior, weight, sens)
        assert ib.mi_chain_values(model, prior, weight, sens) == cold
        # streamed one outcome per block instead, a discrete sum keeps its bits
        with mock.patch.object(ib.information, "_BLOCK_CELLS", n_points):
            assert ib.mi_chain_values(model, prior, weight, sens) == cold
    assert ib.chain_holds(*ib.mi_chain_values(model, prior, weight))


@EXAMPLES
@given(discrete_models())
def test_discrete_family_blocks(case):
    _check_model(*case, n_points=2001)


@EXAMPLES
@given(qutrit_models())
def test_qutrit_family_blocks(case):
    _check_model(*case, n_points=201)
