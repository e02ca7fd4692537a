import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

import infobounds as ib


@pytest.fixture(autouse=True)
def _strict_numpy_warnings():
    # Zero-probability node exclusions and support-leak notices are expected
    # behavior in the qubit scenario; tests assert them explicitly where
    # they matter. A floating-point warning from NumPy is a bug: it fails
    # the test.
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "error", r"(invalid value|divide by zero|overflow) encountered", RuntimeWarning
        )
        warnings.filterwarnings("ignore", r"outcome .* has zero probability at theta=", RuntimeWarning)
        warnings.filterwarnings("ignore", r"POVM element .* outside the state support", RuntimeWarning)
        yield


@pytest.fixture(scope="session")
def langevin_uniform():
    prior = ib.uniform_prior(0.5, 1.5)
    model = ib.langevin_model(1.0)
    return model, prior


@pytest.fixture(scope="session")
def langevin_gaussian():
    prior = ib.gaussian_prior(1.0, 0.2, lower=1e-3)
    model = ib.langevin_model(1.0, theta_min=prior.grid.theta_min)
    return model, prior


@pytest.fixture(scope="session")
def qubit():
    model, sensitivity = ib.qubit_measurement_model()
    prior = ib.uniform_prior(0.0, math.pi / 2)
    return model, sensitivity, prior


@pytest.fixture(scope="session")
def softmax3():
    return ib.discrete_exponential_model(
        np.log([0.2, 0.3, 0.5]), [-1.0, 0.0, 1.0]
    )


@pytest.fixture(scope="session")
def flat3():
    # theta-independent: equal coefficients, arbitrary fixed probabilities
    return ib.discrete_exponential_model(np.log([0.2, 0.3, 0.5]), [0.7, 0.7, 0.7])


def three_level_family() -> ib.StateFamily:
    """Full-rank 3-level family with finite-difference derivatives."""
    generator = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / math.sqrt(2)
    base = np.diag([0.5, 0.3, 0.2]).astype(complex)

    def rho_of(theta):
        u = expm(-1j * theta * generator)
        return 0.9 * (u @ base @ u.conj().T) + 0.1 * np.eye(3) / 3

    return ib.StateFamily(rho_of)


def diagonal_family() -> ib.StateFamily:
    """Commuting mixed family diag(theta, 1 - theta)."""
    return ib.StateFamily(
        lambda t: np.diag([t, 1.0 - t]).astype(complex),
        lambda t: np.diag([1.0, -1.0]).astype(complex),
    )


def basis_povm(dim: int) -> ib.Povm:
    eye = np.eye(dim, dtype=complex)
    return ib.Povm(tuple(np.outer(eye[i], eye[i].conj()) for i in range(dim)))
