"""Properties of the block evaluation on randomly generated models.

Two kinds of model: discrete exponential families with 2-6 outcomes, and
mixed qutrit families U(theta) rho0 U(theta)^dagger, U = exp(-i H theta),
with the analytic derivative -i[H, rho], under random 3-5 element POVMs.
Examples are derandomized, so every run checks the same models. The stacked
qubit phase family is checked bit for bit against its one-value formulas.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
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


def _check_boxcar_root(model, sensitivity, grid: ib.ParameterGrid) -> None:
    """The boxcar weight's root of the kernel, with and without a sensitivity
    (the squared score for a classical model), is bit for bit the general
    kernel's at f = 1, fdot = 0, block by block of the joint table."""

    def squared_score(x, theta):
        return np.square(model.score(x, theta))

    weight, ones, zeros = ib.boxcar_weight(grid), np.ones(grid.n_points), np.zeros(grid.n_points)
    for block in ib.information._joint_table(model, grid.nodes, True, sensitivity or squared_score):
        expanded = np.sqrt(ib.lambda_general(block.sensitivity, block.score, ones, zeros))
        assert np.array_equal(ib.bounds._sqrt_lambda(block, weight), expanded)
        classical = block._replace(sensitivity=None)
        assert np.array_equal(ib.bounds._sqrt_lambda(classical, weight), np.abs(block.score * 1.0 + 0.0))


@pytest.mark.parametrize("povm", ["sigma_x", "sigma_y", "sigma_z"])
def test_boxcar_root_is_the_kernel_on_the_qubit(povm):
    model, sensitivity = ib.qubit_measurement_model(getattr(ib, f"{povm}_povm")())
    _check_boxcar_root(model, sensitivity, ib.uniform_prior(0.0, np.pi / 2).grid)


def test_boxcar_root_is_the_kernel_on_langevin_rows():
    _check_boxcar_root(ib.langevin_model(1.0), None, ib.uniform_prior(0.5, 1.5, 201).grid)


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
    _check_boxcar_root(model, sensitivity, prior.grid)


@EXAMPLES
@given(discrete_models())
def test_discrete_family_blocks(case):
    _check_model(*case, n_points=2001)


@EXAMPLES
@given(qutrit_models())
def test_qutrit_family_blocks(case):
    _check_model(*case, n_points=201)


def _scalar_qubit_family() -> ib.StateFamily:
    """The qubit phase family from its one-value formulas."""

    def rho_of(theta):
        phase = np.exp(1j * theta)
        return 0.5 * np.array([[1.0, phase], [np.conj(phase), 1.0]])

    def drho_of(theta):
        phase = np.exp(1j * theta)
        return 0.5 * np.array([[0.0, 1j * phase], [-1j * np.conj(phase), 0.0]])

    return ib.StateFamily(rho_of, drho_of)


def _bits(*values) -> list[bytes]:
    return [np.asarray(v).tobytes() for v in values]


@EXAMPLES
@given(
    st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=6),
    st.floats(0.3, 3.0),
    st.floats(0.01, 1.0),
    st.sampled_from(("+", "-")),
)
def test_stacked_qubit_family_matches_its_scalar_twin(thetas, theta_max, where, outcome):
    thetas = np.array(thetas)
    stacked, twin = ib.qubit_phase_family(), _scalar_qubit_family()
    assert _bits(*stacked.states(thetas)) == _bits(*twin.states(thetas))
    prior = ib.uniform_prior(0.0, theta_max, 201)
    weight = ib.boxcar_weight(prior.grid)
    record = ib.DemonRecord(1.0, 0.2, 0.0, outcome, where * theta_max)
    results = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # zero-probability and support-leak notes
        for family in (stacked, twin):
            model, sensitivity = ib.quantum_conditional_model(family, ib.sigma_x_povm(), ("+", "-"))
            table = model.table(("+", "-"), thetas, score=True, sensitivity=sensitivity)
            chain = ib.mi_chain_values(model, prior, weight, sensitivity)
            check = ib.demon_work_check(record, model, prior, sensitivity)
            results.append(_bits(*table, *chain, *tuple(check)))
    assert results[0] == results[1]
