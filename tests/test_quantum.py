import math
import warnings

import numpy as np
import pytest

import infobounds as ib
from conftest import basis_povm, diagonal_family, three_level_family


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


def test_born_probability_examples():
    assert ib.born_probability(_proj(PLUS), _proj(PLUS)) == pytest.approx(1.0, abs=1e-12)
    assert ib.born_probability(_proj(PLUS), _proj(ZERO)) == pytest.approx(0.5, abs=1e-12)
    fam = ib.qubit_phase_family()
    for theta in (0.0, 0.4, 1.2):
        assert ib.born_probability(fam.rho(theta), _proj(PLUS)) == pytest.approx(
            math.cos(theta / 2) ** 2, abs=1e-10
        )


def test_born_probability_dimension_mismatch():
    with pytest.raises(ib.DimensionMismatchError):
        ib.born_probability(np.eye(2) / 2, np.eye(3))


# ---------------------------------------------------------------------------
# SLD
# ---------------------------------------------------------------------------


def test_sld_diagonal_closed_form():
    p, dp = 0.3, 0.2
    rho = np.diag([p, 1 - p]).astype(complex)
    drho = np.diag([dp, -dp]).astype(complex)
    L = ib.sld(rho, drho)
    assert np.allclose(np.diag(L), [dp / p, -dp / (1 - p)], atol=1e-12)
    assert ib.sld_residual(rho, drho, L) <= 1e-12


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
        assert ib.sld_residual(rho, drho, L) <= 1e-8


def test_sld_ill_conditioned_window():
    rho = np.diag([1 - 5e-11, 5e-11]).astype(complex)
    drho = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(ib.IllConditionedError):
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
                p = ib.born_probability(fam.rho(theta), povm.elements[i])
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
                p = ib.born_probability(fam.rho(theta), povm.elements[i])
                if p > 1e-12:
                    total += p * ib.cqfi(fam, povm, i, theta)
            assert abs(total - q) <= 1e-8


def test_state_family_validation():
    bad_trace = ib.StateFamily(lambda t: np.diag([0.7, 0.7]).astype(complex))
    with pytest.raises(ib.InfoBoundError):
        bad_trace.rho(0.1)
    fam = three_level_family()
    assert fam.derivative_kind == "finite_difference"
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
    summary = ib.verify_bound_sweep(
        model, prior, "theorem2", ["+"], np.linspace(0.2, 1.4, 25),
        sensitivity=sensitivity,
    )
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
            born = ib.born_probability(rho, element)
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


def test_adapter_keeps_one_table():
    counted, calls = _counting(ib.qubit_phase_family())
    model, _ = ib.quantum_conditional_model(counted, ib.sigma_x_povm())
    a, b = np.linspace(0.1, 1.2, 11), np.linspace(0.2, 1.4, 7)
    for thetas, expected in ((a, 11), (a.copy(), 0), (b, 7), (a, 11)):
        calls.clear()
        model.log_pdf(0, thetas)
        assert len(calls) == expected
    calls.clear()
    model.score(1, 0.55)
    model.log_pdf(1, a)
    assert calls == [0.55]


def test_demon_check_evaluates_the_state_once():
    counted, calls = _counting(ib.qubit_phase_family())
    model, sensitivity = ib.quantum_conditional_model(
        counted, ib.sigma_x_povm(), outcomes=("+", "-")
    )
    prior = ib.uniform_prior(0.0, math.pi / 2)
    nodes = prior.grid.nodes
    model.log_pdf("+", nodes)
    record = ib.DemonRecord(1.0, 0.1, 0.0, "+", 0.7071)
    calls.clear()
    check = ib.demon_work_check(record, model, prior, sensitivity)
    assert len(calls) == 1
    assert check.pmi == ib.pmi(model, prior, "+", 0.7071)
    calls.clear()
    for x in ("+", "-"):
        model.log_pdf(x, nodes)
        model.score(x, nodes)
        sensitivity(x, nodes)
    assert calls == []
    for _ in range(3):
        calls.clear()
        model.log_pdf("-", 0.7071)
        assert calls == [0.7071]


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
    # A point query is not kept, so the Fisher information at one value
    # costs one state per query: log_pdf and score of each outcome.
    assert costs == [prior.grid.n_points, 0, 4, 0]
    calls.clear()
    one = model.log_pdf("+", np.array([0.3]))
    assert one.shape == (1,) and one[0] == model.log_pdf("+", 0.3)
    model.log_pdf("+", prior.grid.nodes)
    assert calls == [0.3, 0.3]


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

    with pytest.raises(ib.InfoBoundError, match=r"drho\(theta=0\.5\) is not Hermitian"):
        _grid_model(lambda t: np.eye(2, dtype=complex) / 2, drho_of).log_pdf(0, GRID)


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
