import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import infobounds as ib
from infobounds.quantum import RANK_EPS
from conftest import basis_povm, born_probability, diagonal_family, sld_residual, three_level_family

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _ket(*amps):
    v = np.asarray(amps, dtype=complex)
    return v / np.linalg.norm(v)


def _proj(ket):
    return np.outer(ket, ket.conj())


PLUS = _ket(1, 1)
MINUS = _ket(1, -1)
ZERO = _ket(1, 0)


# ---------------------------------------------------------------------------
# POVM validation and the Born rule
# ---------------------------------------------------------------------------


def test_validate_povm_projective():
    povm = ib.Povm((_proj(PLUS), _proj(MINUS)))
    assert ib.validate_povm(povm) == []


def test_validate_povm_split_identity():
    povm = ib.Povm((np.eye(2) / 2, np.eye(2) / 2))
    assert ib.validate_povm(povm) == []


def test_validate_povm_completeness_failure():
    povm = ib.Povm((np.eye(2), np.eye(2)))
    failures = ib.validate_povm(povm)
    assert len(failures) == 1 and "completeness" in failures[0]


def test_validate_povm_positivity_failure():
    povm = ib.Povm((np.diag([1.5, -0.5]).astype(complex), np.diag([-0.5, 1.5]).astype(complex)))
    failures = ib.validate_povm(povm)
    assert any("element 0" in f for f in failures)
    assert any("element 1" in f for f in failures)


def test_povm_structural_errors():
    with pytest.raises(ib.InfoBoundError):
        ib.Povm((np.array([[0, 1], [0, 0]], dtype=complex),))  # not Hermitian
    with pytest.raises(ib.DimensionMismatchError):
        ib.Povm((np.eye(2), np.eye(3)))
    with pytest.raises(ib.DimensionMismatchError):
        ib.Povm((np.eye(17),))


def test_non_numeric_matrices_raise_a_typed_error_naming_the_matrix():
    letters = [["a", "b"], ["c", "d"]]
    with pytest.raises(ib.InvalidParameterError, match="POVM element 1 is not a numeric array"):
        ib.Povm((np.eye(2), letters))
    with pytest.raises(ib.InvalidParameterError, match="rho is not a numeric array"):
        ib.sld([["a"]], [["b"]])
    with pytest.raises(ib.InvalidParameterError, match="drho is not a numeric array"):
        ib.sld(np.eye(2) / 2, letters)
    with pytest.raises(ib.InvalidParameterError, match="state is not a numeric array"):
        born_probability(letters, np.eye(2))
    with pytest.raises(ib.InvalidParameterError, match="element is not a numeric array"):
        born_probability(np.eye(2) / 2, [[1.0, "x"], [0.0, 1.0]])


def test_born_probability_examples():
    assert born_probability(_proj(PLUS), _proj(PLUS)) == pytest.approx(1.0, abs=1e-12)
    assert born_probability(_proj(PLUS), _proj(ZERO)) == pytest.approx(0.5, abs=1e-12)
    fam = ib.qubit_phase_family()
    for theta in (0.0, 0.4, 1.2):
        assert born_probability(fam.rho(theta), _proj(PLUS)) == pytest.approx(
            math.cos(theta / 2) ** 2, abs=1e-10
        )


def test_born_probability_dimension_mismatch():
    with pytest.raises(ib.DimensionMismatchError):
        born_probability(np.eye(2) / 2, np.eye(3))


# ---------------------------------------------------------------------------
# SLD
# ---------------------------------------------------------------------------


def test_sld_diagonal_closed_form():
    p, dp = 0.3, 0.2
    rho = np.diag([p, 1 - p]).astype(complex)
    drho = np.diag([dp, -dp]).astype(complex)
    L = ib.sld(rho, drho)
    assert np.allclose(np.diag(L), [dp / p, -dp / (1 - p)], atol=1e-12)
    assert sld_residual(rho, drho, L) <= 1e-12


def test_sld_zero_derivative():
    rho = np.diag([0.3, 0.7]).astype(complex)
    L = ib.sld(rho, np.zeros((2, 2), dtype=complex))
    assert np.max(np.abs(L)) == 0.0


def test_sld_pure_family_is_twice_drho():
    fam = ib.qubit_phase_family()
    for theta in (0.0, 0.3, 1.1, math.pi / 2):
        rho, drho = fam.rho(theta), fam.drho(theta)
        L = ib.sld(rho, drho)
        assert np.max(np.abs(L - 2.0 * drho)) <= 1e-8
        assert np.max(np.abs(L @ L - np.eye(2))) <= 1e-8
        assert sld_residual(rho, drho, L) <= 1e-8


#: Malformed quantum inputs: the call, the error it raises and its message.
_QUANTUM_GUARDS = {
    "empty-povm": (lambda: ib.Povm(()), ib.InvalidParameterError, "a POVM needs at least one element"),
    "negative-eigenvalue": (lambda: ib.sld(np.diag([1.2, -0.2]), np.zeros((2, 2))),
                            ib.InfoBoundError, "state has negative eigenvalue -2.000e-01"),
    "sld-dimensions-differ": (lambda: ib.sld(np.eye(2) / 2, np.zeros((3, 3))),
                              ib.DimensionMismatchError, "rho and drho dimensions differ"),
    "adapter-label-count": (lambda: ib.quantum_conditional_model(ib.qubit_phase_family(), ib.sigma_x_povm(), ("+",)),
                            ib.DimensionMismatchError, "one outcome label per POVM element required"),
}


@pytest.mark.parametrize("case", list(_QUANTUM_GUARDS))
def test_malformed_quantum_input_raises_a_typed_error(case):
    call, error, message = _QUANTUM_GUARDS[case]
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        call()


def test_sld_ill_conditioned_window():
    rho = np.diag([1 - 5e-11, 5e-11]).astype(complex)
    drho = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(ib.IllConditionedError):
        ib.sld(rho, drho)


_LOW, _HIGH = RANK_EPS / 10.0, RANK_EPS


@pytest.mark.parametrize("eps, ambiguous", [
    (0.0, False), (1e-12, False), (_LOW, False), (np.nextafter(_LOW, 1.0), True), (5.5e-11, True),
    (np.nextafter(_HIGH, 0.0), True), (_HIGH, False), (2e-10, False),
])
def test_rank_ambiguity_window_is_open_and_exact_at_its_ends(eps, ambiguous):
    # The window (RANK_EPS / 10, RANK_EPS) is open: its ends pass, the values next to them do not.
    rho = np.diag([1 - eps, eps]).astype(complex)
    drho = np.diag([1.0, -1.0]).astype(complex)
    assert np.linalg.eigvalsh(rho)[0] == eps
    if ambiguous:
        with pytest.raises(ib.IllConditionedError, match=f"^eigenvalue {eps:.3e} inside the rank ambiguity window"):
            ib.sld(rho, drho)
    else:
        ib.sld(rho, drho)


# ---------------------------------------------------------------------------
# QFI / per-outcome sensitivity
# ---------------------------------------------------------------------------


def test_qfi_theta_independent_family():
    fam = ib.StateFamily(
        lambda t: np.diag([0.4, 0.6]).astype(complex),
        lambda t: np.zeros((2, 2), dtype=complex),
    )
    assert ib.qfi(fam, 0.7) == 0.0
    povm = basis_povm(2)
    for i in range(2):
        assert ib.cqfi(fam, povm, i, 0.7) == 0.0


def test_qfi_pure_qubit_family():
    fam = ib.qubit_phase_family()
    for theta in (0.1, 0.8, 1.5):
        assert ib.qfi(fam, theta) == pytest.approx(1.0, abs=1e-8)


def test_cqfi_pure_qubit_any_outcome():
    fam = ib.qubit_phase_family()
    for povm in (ib.sigma_x_povm(), ib.sigma_y_povm(), ib.sigma_z_povm()):
        for theta in (0.2, 0.9, 1.4):
            for i in range(2):
                p = born_probability(fam.rho(theta), povm.elements[i])
                if p > 1e-9:
                    assert ib.cqfi(fam, povm, i, theta) == pytest.approx(1.0, abs=1e-8)


def test_cqfi_diagonal_closed_form():
    fam = diagonal_family()
    povm = basis_povm(2)
    for theta in (0.3, 0.6):
        assert ib.cqfi(fam, povm, 0, theta) == pytest.approx((1 / theta) ** 2, rel=1e-10)
        assert ib.qfi(fam, theta) == pytest.approx(1 / (theta * (1 - theta)), rel=1e-10)


def test_cqfi_zero_outcome_probability():
    fam = ib.qubit_phase_family()
    with pytest.raises(ib.ZeroOutcomeProbabilityError):
        ib.cqfi(fam, ib.sigma_x_povm(), 1, 0.0)


def test_cqfi_averages_to_qfi_all_families():
    cases = [
        (ib.qubit_phase_family(), ib.sigma_x_povm(), (0.25, 0.6, 1.2)),
        (diagonal_family(), basis_povm(2), (0.25, 0.6, 0.85)),
        (three_level_family(), basis_povm(3), (0.25, 0.6, 1.2)),
    ]
    for fam, povm, thetas in cases:
        for theta in thetas:
            total = 0.0
            q = ib.qfi(fam, theta)
            for i in range(len(povm)):
                p = born_probability(fam.rho(theta), povm.elements[i])
                if p > 1e-12:
                    total += p * ib.cqfi(fam, povm, i, theta)
            assert abs(total - q) <= 1e-8


def _ghz_family(n: int) -> ib.StateFamily:
    """(|0...0> + e^{i n theta} |1...1>)/sqrt(2) on n qubits, as stacks."""
    d = 2**n

    def stack(thetas, corner, off):
        out = np.zeros((len(thetas), d, d), dtype=complex)
        out[:, [0, -1], [0, -1]] = corner
        phase = np.exp(1j * n * thetas)
        out[:, -1, 0], out[:, 0, -1] = off * phase, np.conj(off * phase)
        return out

    return ib.StateFamily.from_stacks(lambda t: stack(t, 0.5, 0.5), lambda t: stack(t, 0.0, 0.5j * n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ghz_phase_family_reaches_heisenberg_scaling(n):
    # The parity POVM (I +- X^{(x)n})/2 reads p = (1 +- cos(n theta))/2, whose
    # classical Fisher information is n^2 away from the zeros of sin(n theta),
    # as is the QFI of the pure GHZ family: Heisenberg scaling.
    family, flip = _ghz_family(n), np.eye(2**n)[::-1]
    povm = ib.Povm(((np.eye(2**n) + flip) / 2, (np.eye(2**n) - flip) / 2))
    model, sensitivity = ib.quantum_conditional_model(family, povm, outcomes=("even", "odd"))
    for theta in (0.3, 0.5, 1.1):
        assert abs(math.sin(n * theta)) > 0.1
        averaged = sum(math.exp(model.log_pdf(x, theta)) * sensitivity(x, theta) for x in ("even", "odd"))
        for value in (ib.qfi(family, theta), ib.fisher_information(model, theta), averaged):
            assert abs(value - n * n) <= 1e-9


def test_state_family_validation():
    bad_trace = ib.StateFamily(lambda t: np.diag([0.7, 0.7]).astype(complex))
    with pytest.raises(ib.InfoBoundError):
        bad_trace.rho(0.1)
    fam = three_level_family()
    drho = fam.drho(0.5)
    assert abs(np.trace(drho)) <= 1e-10
    assert np.max(np.abs(drho - drho.conj().T)) == 0.0  # symmetrized exactly


# ---------------------------------------------------------------------------
# measurement adapter
# ---------------------------------------------------------------------------


def test_adapter_qubit_probabilities_and_scores(qubit):
    model, sensitivity, prior = qubit
    thetas = np.linspace(0.05, math.pi / 2, 25)
    p = np.exp(np.asarray(model.log_pdf("+", thetas)))
    assert np.max(np.abs(p - np.cos(thetas / 2) ** 2)) <= 1e-10
    s = np.asarray(model.score("+", thetas))
    assert np.max(np.abs(s + np.tan(thetas / 2))) <= 1e-10
    assert np.max(np.abs(np.asarray(sensitivity("+", thetas)) - 1.0)) <= 1e-8


def test_adapter_sensitivity_dominates_squared_score(qubit):
    # For a pure family the symmetrized per-outcome sensitivity equals the
    # ensemble value for every outcome, while the squared score of an
    # almost-orthogonal outcome diverges; domination is claimed for the
    # likely outcome, here "+" across the whole phase window.
    model, sensitivity, prior = qubit
    thetas = prior.grid.nodes[1:]
    scores = np.asarray(model.score("+", thetas))
    sens = np.asarray(sensitivity("+", thetas))
    assert np.all(sens - scores**2 >= -1e-8)


def test_sensitivity_dominates_on_commuting_family():
    # commuting case: classical Cauchy-Schwarz, holds for every outcome
    fam = diagonal_family()
    model, sensitivity = ib.quantum_conditional_model(fam, basis_povm(2))
    for theta in np.linspace(0.1, 0.9, 17):
        for i in range(2):
            s = float(model.score(i, float(theta)))
            assert s * s <= float(sensitivity(i, float(theta))) + 1e-8


def _random_qutrit_povm() -> ib.Povm:
    """Four random positive elements, normalised to sum to the identity."""
    rng = np.random.default_rng(3)
    mats = []
    for _ in range(4):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        mats.append(a @ a.conj().T)
    total = sum(mats)
    w, v = np.linalg.eigh(total)
    norm = v @ np.diag(w**-0.5) @ v.conj().T
    povm = ib.Povm(tuple(norm @ m @ norm for m in mats))
    assert ib.validate_povm(povm) == []
    return povm


def test_adapter_dominance_on_mixed_family_random_povm():
    fam = three_level_family()
    povm = _random_qutrit_povm()
    model, sensitivity = ib.quantum_conditional_model(fam, povm)
    for theta in (0.2, 0.5, 0.9):
        for i in range(4):
            score = float(model.score(i, theta))
            assert score * score <= float(sensitivity(i, theta)) + 1e-8


def test_adapter_born_normalization(qubit):
    model, _, prior = qubit
    thetas = prior.grid.nodes[::100]
    total = sum(np.exp(np.asarray(model.log_pdf(x, thetas))) for x in ("+", "-"))
    assert np.max(np.abs(total - 1.0)) <= 1e-10


def test_adapter_zero_probability_node_warns_and_masks():
    model, sensitivity = ib.qubit_measurement_model()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert np.isneginf(model.log_pdf("-", 0.0))
        assert np.isnan(sensitivity("-", 0.0))
    assert any("zero probability" in str(w.message) for w in caught)


def test_adapter_rejects_invalid_povm():
    fam = ib.qubit_phase_family()
    with pytest.raises(ib.InfoBoundError):
        ib.quantum_conditional_model(fam, ib.Povm((np.eye(2), np.eye(2))))


def test_quantum_prior_matched_bound_sweep():
    # Gaussian phase prior; the family is defined for every real phase, so
    # no positivity clip is needed and the prior decays at its truncation.
    prior = ib.gaussian_prior(math.pi / 4, math.pi / 20)
    model, sensitivity = ib.qubit_measurement_model()
    reports, skipped = ib.bound_sweep(
        model, prior, "theorem2", ["+"], np.linspace(0.2, 1.4, 25), sensitivity=sensitivity,
    )
    summary = ib.summarize_sweep(reports, n_skipped=len(skipped))
    assert summary.violations == 0 and summary.min_slack > 0


def test_quantum_prior_matched_negative_kernel_flagged():
    # The "-" outcome's squared score exceeds the unit sensitivity of the
    # pure family, so the kernel dips negative: the contract violation is
    # raised, and sweeps record those points instead of aborting.
    prior = ib.gaussian_prior(math.pi / 4, math.pi / 20)
    model, sensitivity = ib.qubit_measurement_model()
    with pytest.raises(ib.NegativeLambdaError):
        ib.bound_theorem2(model, prior, "-", 0.81, sensitivity)
    reports, skipped = ib.bound_sweep(
        model, prior, "theorem2", ["+", "-"], np.linspace(0.2, 1.4, 25),
        sensitivity=sensitivity,
    )
    assert len(reports) == 25
    assert len(skipped) == 25
    assert {s.reason for s in skipped} == {"NegativeLambdaError"}


def test_adapter_theta_independent_bound_slack_log2():
    fam = ib.StateFamily(
        lambda t: np.diag([0.4, 0.6]).astype(complex),
        lambda t: np.zeros((2, 2), dtype=complex),
    )
    model, sensitivity = ib.quantum_conditional_model(fam, basis_povm(2))
    prior = ib.uniform_prior(0.0, 1.0, 501)
    r = ib.bound_theorem1(model, prior, 0, 0.5, sensitivity)
    assert r.pmi == pytest.approx(0.0, abs=1e-9)
    assert r.slack == pytest.approx(math.log(2.0), abs=1e-8)


# ---------------------------------------------------------------------------
# adapter tables
# ---------------------------------------------------------------------------


def _counting(family: ib.StateFamily):
    """The same family, with a list that grows by one per ``rho`` call."""
    calls = []

    def rho_of(theta):
        calls.append(theta)
        return family.rho(theta)

    return ib.StateFamily(rho_of, family.drho), calls


def test_adapter_table_matches_pointwise_born_and_cqfi():
    fam = three_level_family()
    povm = _random_qutrit_povm()
    model, sensitivity = ib.quantum_conditional_model(fam, povm)
    thetas = np.linspace(0.1, 1.3, 13)
    for i, element in enumerate(povm.elements):
        p = np.exp(model.log_pdf(i, thetas))
        score = model.score(i, thetas)
        sens = sensitivity(i, thetas)
        for j, theta in enumerate(thetas):
            rho, drho = fam.rho(theta), fam.drho(theta)
            born = born_probability(rho, element)
            L = ib.sld(rho, drho)
            assert abs(p[j] - born) <= 1e-12
            assert abs(score[j] - np.trace(element @ drho).real / born) <= 1e-12
            assert abs(sens[j] - ib.cqfi(fam, povm, i, theta)) <= 1e-12
            assert abs(sens[j] - np.trace(element @ L @ L @ rho).real / born) <= 1e-12


def test_adapter_rank_ambiguous_node_raises_on_grid_query():
    # One node of the grid sits inside the rank ambiguity window.
    def rho_of(theta):
        eps = 5e-11 if theta == 0.5 else 0.25
        return np.diag([1.0 - eps, eps]).astype(complex)

    fam = ib.StateFamily(rho_of, lambda t: np.zeros((2, 2), dtype=complex))
    model, _ = ib.quantum_conditional_model(fam, basis_povm(2))
    with pytest.raises(ib.IllConditionedError):
        model.log_pdf(0, np.linspace(0.0, 1.0, 5))


def test_adapter_support_leak_warns_once_per_outcome():
    grids = (np.linspace(0.1, 1.2, 11), np.linspace(0.2, 1.4, 7))
    for _ in range(2):  # each adapter warns afresh
        model, sensitivity = ib.qubit_measurement_model()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for thetas in grids + grids:
                for x in ("+", "-"):
                    model.log_pdf(x, thetas)
                    sensitivity(x, thetas)
            sensitivity("+", 0.3)
        messages = sorted(
            str(w.message) for w in caught if "outside the state support" in str(w.message)
        )
        assert len(messages) == 2
        assert "'+'" in messages[0] and "'-'" in messages[1]


def _stateless(model) -> tuple:
    """What the adapter holds: its attribute names and the shapes of its arrays."""
    state = vars(model)
    assert model._warned_leak <= set(model.outcome_space.outcomes)
    return sorted(state), [v.shape for v in state.values() if isinstance(v, np.ndarray)]


def test_adapter_keeps_no_theta_dependent_array():
    counted, calls = _counting(ib.qubit_phase_family())
    model, sensitivity = ib.quantum_conditional_model(counted, ib.sigma_x_povm(), outcomes=("+", "-"))
    prior = ib.uniform_prior(0.0, math.pi / 2)
    weight = ib.boxcar_weight(prior.grid)
    before = _stateless(model)
    assert before[1] == [(2, 2, 2)]  # the POVM elements
    a = np.linspace(0.1, 1.2, 11)
    queries = (
        lambda: model.log_pdf("+", a),
        lambda: sensitivity("-", a),
        lambda: model.score("+", 0.55),
        lambda: ib.mi_chain_values(model, prior, weight, sensitivity),
        lambda: ib.bound_sweep(model, prior, "theorem1", ["+", "-"], a, sensitivity=sensitivity),
        lambda: ib.demon_work_check(ib.DemonRecord(1.0, 0.1, 0.0, "-", 0.7), model, prior, sensitivity),
        lambda: ib.fisher_information(model, a),
    )
    for query in queries:
        query()
        assert _stateless(model) == before
    # each direct query of the adapter evaluates the states afresh
    for thetas in (a, a, 0.55):
        calls.clear()
        model.log_pdf("+", thetas)
        assert len(calls) == np.size(thetas)


def test_evaluators_keep_one_grid_table_across_sweeps_and_records():
    counted, calls = _counting(ib.qubit_phase_family())
    model, sensitivity = ib.quantum_conditional_model(counted, ib.sigma_x_povm(), outcomes=("+", "-"))
    prior = ib.uniform_prior(0.0, math.pi / 2)
    weight = ib.boxcar_weight(prior.grid)
    thetas = np.linspace(0.0, math.pi / 2, 41)
    steps = {
        "chain": lambda: ib.mi_chain_values(model, prior, weight, sensitivity),
        "sweep": lambda: ib.bound_sweep(model, prior, "theorem1", ["+", "-"], thetas, sensitivity=sensitivity),
        "record": lambda: ib.demon_work_check(
            ib.DemonRecord(1.0, 0.1, 0.0, "+", 0.7071), model, prior, model.sensitivity
        ),
        "squared-score chain": lambda: ib.mi_chain_values(model, prior, weight),
        "grid query": lambda: model.log_pdf("+", prior.grid.nodes),
    }
    order = ("sweep", "chain", "sweep", "chain", "record", "record", "squared-score chain",
             "chain", "grid query", "grid query")
    costs = []
    for step in order:
        calls.clear()
        steps[step]()
        costs.append(len(calls))
    n = prior.grid.n_points
    # The grid table is kept by (model, grid, sensitivity): sweeps and records
    # do not evict it. A record costs one state at its theta, also when it
    # repeats one; a chain on the squared score keeps a table of its own; the
    # adapter's callables keep nothing.
    assert costs == [n + 41, 0, 41, 0, 1, 1, n, 0, n, n]


def test_demon_check_evaluates_the_state_once():
    counted, calls = _counting(ib.qubit_phase_family())
    model, sensitivity = ib.quantum_conditional_model(
        counted, ib.sigma_x_povm(), outcomes=("+", "-")
    )
    prior = ib.uniform_prior(0.0, math.pi / 2)
    ib.mi_chain_values(model, prior, ib.boxcar_weight(prior.grid), sensitivity)
    # one state evaluation per record, with the sensitivity passed afresh
    for theta in (0.7071, 0.9, 0.3, 0.9):
        calls.clear()
        record = ib.DemonRecord(1.0, 0.1, 0.0, "-", theta)
        check = ib.demon_work_check(record, model, prior, model.sensitivity)
        assert calls == [theta]
    assert check.pmi == ib.pmi(model, prior, "-", 0.9)


def test_cold_qubit_sweep_evaluates_the_grid_and_the_samples_once():
    counted, calls = _counting(ib.qubit_phase_family())
    model, sensitivity = ib.quantum_conditional_model(
        counted, ib.sigma_x_povm(), outcomes=("+", "-")
    )
    prior = ib.uniform_prior(0.0, math.pi / 2)
    thetas = np.linspace(0.0, math.pi / 2, 41)
    reports, skipped = ib.bound_sweep(
        model, prior, "theorem1", ["+", "-"], thetas, sensitivity=sensitivity
    )
    assert len(reports) + len(skipped) == 82
    # both outcomes' grid rows from one table, then both PMI rows from one
    assert len(calls) == prior.grid.n_points + thetas.size


def test_scalar_fisher_information_keeps_the_grid_table():
    counted, calls = _counting(ib.qubit_phase_family())
    model, sensitivity = ib.quantum_conditional_model(
        counted, ib.sigma_x_povm(), outcomes=("+", "-")
    )
    prior = ib.uniform_prior(0.0, math.pi / 2)
    weight = ib.boxcar_weight(prior.grid)
    costs = []
    for step in ("chain", "chain", "fisher", "chain"):
        calls.clear()
        if step == "chain":
            ib.mi_chain_values(model, prior, weight, sensitivity)
        else:
            assert ib.fisher_information(model, 0.3) == pytest.approx(1.0, abs=1e-10)
        costs.append(len(calls))
    # The Fisher information at one value costs one state: log_pdf and
    # score of each outcome come from one table.
    assert costs == [prior.grid.n_points, 0, 1, 0]
    calls.clear()
    one = model.log_pdf("+", np.array([0.3]))
    assert one.shape == (1,) and one[0] == model.log_pdf("+", 0.3)
    assert calls == [0.3, 0.3]


def _counting_sld(monkeypatch):
    """A list that grows by one per SLD computation."""
    calls = []
    sld_from_eig = ib.quantum._sld_from_eig

    def counted(*args):
        calls.append(1)
        return sld_from_eig(*args)

    monkeypatch.setattr(ib.quantum, "_sld_from_eig", counted)
    return calls


def test_sld_is_computed_only_for_the_adapters_own_sensitivity(monkeypatch):
    sld_calls = _counting_sld(monkeypatch)
    model, sensitivity = ib.qubit_measurement_model()
    prior = ib.uniform_prior(0.0, math.pi / 2)
    weight = ib.boxcar_weight(prior.grid)
    for x in ("+", "-"):
        model.log_pdf(x, 0.7071)
        model.score(x, prior.grid.nodes)
    ib.mi_chain_values(model, prior, weight)
    ib.bound_theorem1(model, prior, "+", 0.7071)
    assert sld_calls == []
    warm = [sensitivity(x, 0.7071) for x in ("+", "-")]
    assert sld_calls == [1, 1]
    _, fresh = ib.qubit_measurement_model()
    assert [fresh(x, 0.7071) for x in ("+", "-")] == warm
    # one SLD for the grid table of a chain, which later chains read
    sld_calls.clear()
    ib.mi_chain_values(model, prior, weight, model.sensitivity)
    ib.mi_chain_values(model, prior, weight, sensitivity)
    assert sld_calls == [1]
    kept = ib.information._kept_table(model, prior.grid, sensitivity).sensitivity
    # the kept table reads 0 where "-" has zero probability; the public
    # sensitivity still reads NaN there
    public = fresh("-", prior.grid.nodes)
    zero = np.exp(model.log_pdf("-", prior.grid.nodes)) == 0.0
    assert zero.any() and np.isnan(public[zero]).all()
    assert np.array_equal(kept[1], np.where(zero, 0.0, public))
    # a sensitivity other than the adapter's own is called as given
    sld_calls.clear()

    def squared_score(x, theta):
        return np.square(model.score(x, theta))

    ib.average_pointwise_bound(model, prior, weight, squared_score)
    assert sld_calls == []


def test_support_leak_warns_with_the_first_sensitivity():
    model, sensitivity = ib.qubit_measurement_model()
    thetas = np.linspace(0.1, 1.2, 11)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for x in ("+", "-"):
            model.log_pdf(x, thetas)
            model.score(x, 0.3)
        assert caught == []
        sensitivity("-", 0.3)
        assert sorted(str(w.message)[:17] for w in caught) == [
            "POVM element '+' ",
            "POVM element '-' ",
        ]
        for x in ("+", "-"):
            sensitivity(x, thetas)
            sensitivity(x, 0.9)
        assert len(caught) == 2


def test_adapter_warnings_name_the_callers_file():
    model, sensitivity = ib.qubit_measurement_model()
    prior = ib.uniform_prior(0.0, math.pi / 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model.log_pdf("-", 0.0)  # zero probability, from the probability stage
        sensitivity("+", 0.3)  # support leak, from the sensitivity stage
        ib.cqfi(ib.qubit_phase_family(), ib.sigma_x_povm(), 0, 0.3)
        deep, deep_sensitivity = ib.qubit_measurement_model()
        ib.bound_theorem1(deep, prior, "+", 0.3, deep_sensitivity)
    kinds = [str(w.message).split(" ")[0] for w in caught]
    assert kinds == ["outcome", "POVM", "POVM", "POVM", "outcome", "POVM", "POVM"]
    assert {w.filename for w in caught} == {__file__}


def test_unknown_label_on_the_adapter_raises_a_typed_error(qubit):
    model, sensitivity, prior = qubit
    calls = (
        lambda: ib.bound_theorem1(model, prior, "x", 0.3, sensitivity),
        lambda: ib.pmi(model, prior, "x", 0.3),
        lambda: model.log_pdf("x", 0.3),
    )
    for call in calls:
        with pytest.raises(ib.OutsideSupportError, match="outcome 'x' is not in the outcome space"):
            call()
    reports, skipped = ib.bound_sweep(model, prior, "theorem1", ["x", "+"], [0.3], sensitivity=sensitivity)
    assert [r.x for r in reports] == ["+"]
    assert [(p.x, p.reason) for p in skipped] == [("x", "OutsideSupportError")]


def test_adapter_warnings_under_python_m_name_a_source_file(tmp_path):
    # Under `python -m infobounds.cli` every frame outside the package is
    # frozen runpy code, so the warning goes to the package's outermost frame.
    cfg = tmp_path / "qubit.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "scenario": "qubit_phase", "prior": {"kind": "uniform"},
        "bound": "theorem3", "sweep": {"theta_count": 5},
    }))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "infobounds.cli", "verify", "--config", str(cfg)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "<frozen" not in proc.stderr
    warned = re.findall(r"^(\S+\.py):\d+: RuntimeWarning: (\w+)", proc.stderr, re.MULTILINE)
    assert [kind for _, kind in warned] == ["outcome", "POVM", "POVM"]
    assert {Path(name).name for name, _ in warned} == {"cli.py"}


# ---------------------------------------------------------------------------
# stacked state validation
# ---------------------------------------------------------------------------


GRID = np.linspace(0.0, 1.0, 5)


def _grid_model(rho_of, drho_of=lambda t: np.zeros((2, 2), dtype=complex)):
    model, _ = ib.quantum_conditional_model(ib.StateFamily(rho_of, drho_of), basis_povm(2))
    return model


def test_states_match_pointwise_rho_and_drho():
    for fam in (three_level_family(), diagonal_family(), ib.qubit_phase_family()):
        rho, drho = fam.states(GRID[1:4])
        for j, theta in enumerate(GRID[1:4]):
            assert np.array_equal(rho[j], fam.rho(theta))
            assert np.array_equal(drho[j], fam.drho(theta))


def test_scalar_rho_does_not_evaluate_the_derivative():
    def drho_of(theta):
        raise AssertionError("drho evaluated")

    fam = ib.StateFamily(lambda t: np.diag([0.4, 0.6]).astype(complex), drho_of)
    assert fam.rho(0.3)[0, 0] == 0.4


def test_grid_query_names_the_node_with_a_bad_trace():
    def rho_of(theta):
        return np.diag([0.5, 0.6 if theta == 0.75 else 0.5]).astype(complex)

    with pytest.raises(ib.InfoBoundError, match=r"rho\(theta=0\.75\) has trace 1\.1"):
        _grid_model(rho_of).log_pdf(0, GRID)


def test_grid_query_names_the_non_hermitian_node():
    def rho_of(theta):
        off = 0.2 if theta == 0.25 else 0.0
        return np.array([[0.5, off], [0.0, 0.5]], dtype=complex)

    with pytest.raises(ib.InfoBoundError, match=r"rho\(theta=0\.25\) is not Hermitian"):
        _grid_model(rho_of).log_pdf(0, GRID)

    def drho_of(theta):
        off = 0.2j if theta == 0.5 else 0.0
        return np.array([[0.0, off], [off, 0.0]], dtype=complex)

    for theta in (GRID, 0.5):
        with pytest.raises(ib.InfoBoundError, match=r"drho\(theta=0\.5\) is not Hermitian"):
            _grid_model(lambda t: np.eye(2, dtype=complex) / 2, drho_of).log_pdf(0, theta)


def test_grid_query_rejects_a_non_finite_state():
    def rho_of(theta):
        off = np.nan if theta == 1.0 else 0.0
        return np.array([[0.5, off], [off, 0.5]], dtype=complex)

    with pytest.raises(ib.NonFiniteError, match=r"rho\(theta=1\.0\)"):
        _grid_model(rho_of).log_pdf(0, GRID)
    with pytest.raises(ib.NonFiniteError):
        _grid_model(rho_of).log_pdf(0, 1.0)


def test_family_changing_dimension_raises_dimension_mismatch():
    def rho_of(theta):
        d = 2 if theta < 0.5 else 3
        return np.eye(d, dtype=complex) / d

    model = _grid_model(rho_of, lambda t: np.zeros((2, 2) if t < 0.5 else (3, 3)))
    with pytest.raises(ib.DimensionMismatchError, match=r"rho\(theta=0\.5\) has shape \(3, 3\)"):
        model.log_pdf(0, GRID)
    with pytest.raises(ib.DimensionMismatchError):
        model.log_pdf(0, 0.75)


def test_derivative_dimension_differing_from_the_state_raises():
    model = _grid_model(
        lambda t: np.eye(2, dtype=complex) / 2, lambda t: np.zeros((3, 3), dtype=complex)
    )
    for theta in (GRID, 0.5):
        with pytest.raises(ib.DimensionMismatchError, match="drho dimension 3 != rho dimension 2"):
            model.log_pdf(0, theta)


def test_non_numeric_state_raises_a_typed_error():
    fam = ib.StateFamily(lambda t: "abc", lambda t: np.zeros((2, 2), dtype=complex))
    with pytest.raises(ib.InvalidParameterError, match=r"rho\(theta=0\.1\) is not a numeric array"):
        fam.rho(0.1)

    def rho_of(theta):
        return [[0.5, "x" if theta == 0.5 else 0.0], [0.0, 0.5]]

    with pytest.raises(ib.InvalidParameterError, match=r"rho\(theta=0\.5\) is not a numeric array"):
        _grid_model(rho_of).log_pdf(0, GRID)


# ---------------------------------------------------------------------------
# stacked families
# ---------------------------------------------------------------------------


def _const_stack(matrix):
    """A stack callable that returns ``matrix`` at every parameter value."""
    return lambda thetas: np.repeat(np.asarray(matrix, dtype=complex)[None], len(thetas), axis=0)


def _at(theta, bad, good):
    """A stack callable: ``bad`` at ``theta``, ``good`` elsewhere."""
    return lambda thetas: np.array([bad if t == theta else good for t in thetas], dtype=complex)


HALF = np.eye(2) / 2
ZERO2 = np.zeros((2, 2))
#: (maker of a bad stack from a good matrix, error, message) of a malformed
#: stack: a wrong leading length, a wrong matrix shape or dimension, a
#: non-numeric array, a non-Hermitian matrix, a bad trace. The first four are
#: whole-stack faults, named by the first value.
BAD_STACKS = {
    "length": (lambda good: lambda th: np.repeat(good[None], len(th) + 1, axis=0),
               ib.DimensionMismatchError, r" stack has \d+ matrices for \d+ values, at theta=0\.0$"),
    "shape": (lambda good: lambda th: np.zeros((len(th), 2, 3)),
              ib.DimensionMismatchError, r" must be square, got shape \(2, 3\), at theta=0\.0$"),
    "dimension": (lambda good: lambda th: np.zeros((len(th), 17, 17)),
                  ib.DimensionMismatchError, r" dimension 17 exceeds 16, at theta=0\.0$"),
    "non-numeric": (lambda good: lambda th: np.full((len(th), 2, 2), "x", dtype=object),
                    ib.InvalidParameterError, r"\(theta=0\.0\) is not a numeric array"),
    "non-Hermitian": (lambda good: _at(0.75, good + [[0, 0.1], [0, 0]], good),
                      ib.InfoBoundError, r"\(theta=0\.75\) is not Hermitian within 1e-10"),
    "trace": (lambda good: _at(0.75, good + np.eye(2) * 0.05, good),
              ib.InfoBoundError, r"\(theta=0\.75\) has trace"),
}


@pytest.mark.parametrize("fault", sorted(BAD_STACKS))
@pytest.mark.parametrize("name", ["rho", "drho"])
def test_malformed_stack_raises_a_typed_error_naming_theta(name, fault):
    make, error, message = BAD_STACKS[fault]
    good = {"rho": HALF, "drho": ZERO2}
    stacks = {k: _const_stack(good[k]) for k in good}
    stacks[name] = make(np.asarray(good[name], dtype=complex))
    fam = ib.StateFamily.from_stacks(stacks["rho"], stacks["drho"])
    with pytest.raises(error, match="^" + name + message):
        fam.states(GRID)
    model, _ = ib.quantum_conditional_model(fam, basis_povm(2))
    with pytest.raises(error, match="^" + name + message):
        model.log_pdf(0, GRID)
    theta = 0.75 if fault in ("non-Hermitian", "trace") else 0.0
    with pytest.raises(error, match="^" + name + message):
        getattr(fam, name)(theta)


@pytest.mark.parametrize("stacked", [False, True], ids=["scalar", "stacked"])
def test_an_empty_query_raises_a_typed_error(stacked):
    fam = ib.qubit_phase_family() if stacked else three_level_family()
    povm = ib.sigma_x_povm() if stacked else basis_povm(3)
    model, _ = ib.quantum_conditional_model(fam, povm)
    with pytest.raises(ib.DimensionMismatchError, match="^rho needs at least one parameter value$"):
        fam.states(np.array([]))
    with pytest.raises(ib.DimensionMismatchError, match="^rho needs at least one parameter value$"):
        model.log_pdf(0, np.array([]))


def _counting_stacks(family: ib.StateFamily, analytic: bool = True):
    """A stacked family over ``family``'s validated states, with the number
    of parameter values of each ``rho`` and ``drho`` stack call."""
    rho_sizes, drho_sizes = [], []

    def rho_stack(thetas):
        rho_sizes.append(len(thetas))
        return np.array([family.rho(t) for t in thetas])

    def drho_stack(thetas):
        drho_sizes.append(len(thetas))
        return np.array([family.drho(t) for t in thetas])

    stacked = ib.StateFamily.from_stacks(rho_stack, drho_stack if analytic else None)
    return stacked, rho_sizes, drho_sizes


def test_stack_callables_are_called_once_per_table():
    counted, rho_sizes, drho_sizes = _counting_stacks(ib.qubit_phase_family())
    model, sensitivity = ib.quantum_conditional_model(counted, ib.sigma_x_povm(), ("+", "-"))
    prior = ib.uniform_prior(0.0, math.pi / 2)
    ib.mi_chain_values(model, prior, ib.boxcar_weight(prior.grid), sensitivity)
    model.table(("+", "-"), GRID, score=True, sensitivity=sensitivity)
    model.log_pdf("+", 0.3)
    n = prior.grid.n_points
    assert rho_sizes == drho_sizes == [n, GRID.size, 1]


def test_finite_differences_call_the_rho_stack_once_with_all_shifted_values():
    counted, rho_sizes, drho_sizes = _counting_stacks(three_level_family(), analytic=False)
    rho, drho = counted.states(GRID)
    assert rho_sizes == [GRID.size, 2 * GRID.size] and drho_sizes == []
    reference = three_level_family().states(GRID)
    assert np.array_equal(rho, reference[0]) and np.array_equal(drho, reference[1])


def test_scalar_rho_of_a_stacked_family_does_not_call_the_derivative_stack():
    def drho_stack(thetas):
        raise AssertionError("drho stack called")

    fam = ib.StateFamily.from_stacks(_const_stack(np.diag([0.4, 0.6])), drho_stack)
    assert fam.rho(0.3)[0, 0] == 0.4
    assert ib.qubit_phase_family().rho(0.0)[0, 1] == 0.5


def test_the_qubit_pair_gives_the_states_of_its_one_value_formulas_bit_for_bit():
    # exp(theta * S) once for both stacks, drho as 0.5 * (S * E): at the
    # subnormal 5e-324, S * (0.5 * E) would round a signed zero differently
    signs = ib.scenarios._PHASE_SIGNS
    scalar = ib.StateFamily(lambda t: 0.5 * np.exp(t * signs), lambda t: 0.5 * (signs * np.exp(t * signs)))
    stacked = ib.StateFamily.from_stacks(
        lambda th: 0.5 * np.exp(th[:, None, None] * signs),
        lambda th: 0.5 * (signs * np.exp(th[:, None, None] * signs)),
    )
    qubit = ib.qubit_phase_family()
    pair, calls = qubit._pair, []
    qubit._pair = lambda thetas: calls.append(len(thetas)) or pair(thetas)
    thetas = np.array([5e-324, -5e-324, -0.0, 0.0, math.pi / 2, 0.3, -2.0])
    expected = [a.tobytes() for a in scalar.states(thetas)]
    for family in (stacked, qubit):
        assert [a.tobytes() for a in family.states(thetas)] == expected
    assert calls == [len(thetas)]
    for i, theta in enumerate(thetas):
        assert qubit.rho(theta).tobytes() == scalar.rho(theta).tobytes() == expected[0][64 * i : 64 * (i + 1)]
    assert calls == [len(thetas)]  # rho alone comes from the rho stack
    for i, theta in enumerate(thetas):
        assert qubit.drho(theta).tobytes() == scalar.drho(theta).tobytes() == expected[1][64 * i : 64 * (i + 1)]


def test_povm_copies_the_callers_arrays():
    e0, e1 = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
    povm = ib.Povm((e0, e1))
    assert povm.elements[0] is not e0
    e0[0, 0] = 0.5  # the caller's array stays writable
    assert povm.elements[0][0, 0] == 1.0 and ib.validate_povm(povm) == []
    with pytest.raises(ValueError):
        povm.elements[0][0, 0] = 0.5
