import math

import numpy as np
import pytest
from scipy import special

import infobounds as ib
from infobounds.scenarios import _logsumexp
from conftest import born_probability


# ---------------------------------------------------------------------------
# trapped particle
# ---------------------------------------------------------------------------


def test_langevin_sfi_values():
    model = ib.langevin_model(1.0)
    assert ib.sfi(model, 0.0, 1.0) == pytest.approx(0.25, abs=1e-12)
    assert ib.sfi(model, math.sqrt(1.0 / 1.0), 1.0) == pytest.approx(0.0, abs=1e-15)


def test_langevin_conditional_normalization():
    model = ib.langevin_model(1.0, theta_min=0.5)
    xg = model.outcome_space.grid
    for theta in (0.5, 1.0, 1.5):
        pdf = np.exp(np.asarray(model.log_pdf(xg.nodes, theta)))
        assert ib.quadrature(pdf, xg) == pytest.approx(1.0, abs=1e-6)


def test_langevin_fisher_information():
    model = ib.langevin_model(1.0)
    assert ib.fisher_information(model, 1.0) == pytest.approx(0.5, abs=1e-3)


def test_langevin_rejects_bad_diffusion():
    with pytest.raises(ib.NonPositiveDiffusionError):
        ib.langevin_model(0.0)
    with pytest.raises(ib.NonPositiveDiffusionError):
        ib.langevin_model(-1.0)


def test_langevin_scenario_wiring():
    # the outcome grid spans 8 sigma of the widest conditional, at the lower
    # end of the stiffness prior; a prior reaching theta <= 0 is rejected
    prior = ib.gaussian_prior(1.0, 0.2, lower=1e-3)
    model = ib.langevin_model(1.0, prior.grid.theta_min)
    half_width = model.outcome_space.x_max
    assert half_width == pytest.approx(8.0 * math.sqrt(1.0 / prior.grid.theta_min))
    with pytest.raises(ib.InvalidParameterError, match="supported on theta > 0"):
        ib.langevin_model(1.0, ib.uniform_prior(-0.5, 0.5).grid.theta_min)


def test_langevin_theorem1_sweep_invariant(langevin_uniform):
    model, prior = langevin_uniform
    reports, skipped = ib.bound_sweep(model, prior, "theorem1", np.linspace(-4, 4, 50), np.linspace(0.5, 1.5, 50))
    summary = ib.summarize_sweep(reports, n_skipped=len(skipped))
    assert summary.violations == 0
    assert summary.min_slack > 0


def test_langevin_theorem2_sweep_invariant(langevin_gaussian):
    model, prior = langevin_gaussian
    reports, skipped = ib.bound_sweep(model, prior, "theorem2", np.linspace(-4, 4, 50), np.linspace(0.4, 1.6, 50))
    summary = ib.summarize_sweep(reports, n_skipped=len(skipped))
    assert summary.violations == 0


# ---------------------------------------------------------------------------
# qubit phase estimation
# ---------------------------------------------------------------------------


def test_qubit_scenario_construction():
    family, povm = ib.qubit_phase_scenario()
    assert born_probability(family.rho(0.0), povm.elements[0]) == pytest.approx(1.0)
    for theta in (0.3, 1.0):
        assert ib.qfi(family, theta) == pytest.approx(1.0, abs=1e-8)
        for i in range(2):
            p = born_probability(family.rho(theta), povm.elements[i])
            if p > 1e-9:
                assert ib.cqfi(family, povm, i, theta) == pytest.approx(1.0, abs=1e-8)


def test_qubit_scenario_rejects_wrong_dimension():
    eye3 = np.eye(3, dtype=complex)
    with pytest.raises(ValueError):
        ib.qubit_phase_scenario(ib.Povm((eye3 / 3, eye3 / 3, eye3 / 3)))


def test_qubit_theorem3_sweep_invariant(qubit):
    model, sensitivity, prior = qubit
    thetas = np.linspace(0.0, math.pi / 2, 41)
    reports, skipped = ib.bound_sweep(model, prior, "theorem1", ["+", "-"], thetas, sensitivity=sensitivity)
    summary = ib.summarize_sweep(reports, n_skipped=len(skipped))
    assert summary.violations == 0
    # squared score of the "+" outcome is tan^2(theta/2), below the unit sensitivity
    scores = np.asarray(model.score("+", thetas))
    assert np.max(np.abs(scores**2 - np.tan(thetas / 2) ** 2)) <= 1e-10
    assert np.all(scores**2 <= 1.0 + 1e-8)


# ---------------------------------------------------------------------------
# discrete exponential family
# ---------------------------------------------------------------------------


def test_discrete_model_probabilities():
    model = ib.discrete_exponential_model(np.log([0.2, 0.3, 0.5]), [0.0, 0.0, 0.0])
    for k, q in enumerate((0.2, 0.3, 0.5)):
        assert float(np.exp(model.log_pdf(k, 0.7))) == pytest.approx(q, rel=1e-12)
        assert float(model.score(k, 0.7)) == 0.0


def test_discrete_model_validation():
    with pytest.raises(ValueError):
        ib.discrete_exponential_model([0.0], [0.0])
    with pytest.raises(ValueError):
        ib.discrete_exponential_model([0.0, 0.0], [0.0])


@pytest.mark.parametrize("scale", [1.0, 800.0])
@pytest.mark.parametrize("keepdims", [False, True])
def test_logsumexp_matches_scipy(scale, keepdims):
    rng = np.random.default_rng(7)
    # Logits near +-800 overflow (or underflow to -inf) in an unshifted sum.
    logits = scale * rng.uniform(-1.0, 1.0, size=(4, 9))
    logits[:, 0] = [800.0, 799.5, -3.0, 0.0]
    logits[:, 1] = [-800.0, -799.0, -801.5, -800.0]
    ours = _logsumexp(logits, axis=0, keepdims=keepdims)
    ref = special.logsumexp(logits, axis=0, keepdims=keepdims)
    assert ours.shape == ref.shape
    assert np.all(np.isfinite(ours))
    np.testing.assert_allclose(ours, ref, rtol=1e-14, atol=1e-13)


def test_discrete_model_cross_term_cancels(softmax3):
    thetas = np.linspace(0.0, 1.0, 100)
    c = np.array([-1.0, 0.0, 1.0])
    for theta in thetas:
        p = np.array([float(np.exp(softmax3.log_pdf(k, theta))) for k in range(3)])
        s = np.array([float(softmax3.score(k, theta)) for k in range(3)])
        assert abs(float((p * s).sum())) <= 1e-8
        fisher = ib.fisher_information(softmax3, float(theta))
        assert abs(float((p * s * s).sum()) - fisher) <= 1e-10
        # independent oracle: variance of the coefficients under p
        var = float((p * c**2).sum() - (p * c).sum() ** 2)
        assert fisher == pytest.approx(var, rel=1e-10)


# ---------------------------------------------------------------------------
# demon work budget
# ---------------------------------------------------------------------------


def test_demon_record_validation():
    with pytest.raises(ValueError):
        ib.DemonRecord(0.0, 1.0, 0.0, "+", 0.3)
    rec = ib.DemonRecord(2.0, 1.5, 1.0, "+", 0.3)
    assert rec.lhs == pytest.approx(1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "a", None, True])
@pytest.mark.parametrize("field", ["beta", "work_extracted", "delta_free_energy", "theta"])
def test_demon_record_rejects_a_non_finite_field(field, value):
    fields = {"beta": 1.0, "work_extracted": 0.5, "delta_free_energy": 0.0, "outcome": "+", "theta": 0.3}
    with pytest.raises(ib.InvalidParameterError, match=f"^{field} must be a finite number, got "):
        ib.DemonRecord(**{**fields, field: value})


@pytest.mark.parametrize("tolerance", ["a", None, True, 1j, math.nan, math.inf, -1.0, -1e-300])
def test_demon_check_rejects_a_tolerance_that_is_not_a_finite_nonnegative_number(qubit, tolerance):
    model, sensitivity, prior = qubit
    rec = ib.DemonRecord(1.0, 0.1, 0.0, "+", 0.3)
    with pytest.raises(ib.InvalidParameterError, match="^tolerance must be a finite nonnegative number, got "):
        ib.demon_work_check(rec, model, prior, sensitivity, tolerance=tolerance)


def test_demon_check_takes_any_finite_nonnegative_tolerance(qubit):
    model, sensitivity, prior = qubit
    rec = ib.DemonRecord(1.0, 0.1, 0.0, "+", 0.3)
    default = ib.demon_work_check(rec, model, prior, sensitivity)
    for tolerance in (0, 0.0, np.float64(1e-9), 2):
        check = ib.demon_work_check(rec, model, prior, sensitivity, tolerance=tolerance)
        assert (check.lhs, check.pmi, check.bound) == (default.lhs, default.pmi, default.bound)


def test_demon_budget_zero_work(qubit):
    model, sensitivity, prior = qubit
    rec = ib.DemonRecord(1.0, 0.7, 0.7, "+", 0.2)  # W_ext == delta_F
    check = ib.demon_work_check(rec, model, prior, sensitivity)
    assert check.lhs == 0.0
    assert check.pmi > 0.0
    assert check.sagawa_ueda_ok and check.chained_ok


def test_demon_budget_at_pmi_is_chained(qubit):
    model, sensitivity, prior = qubit
    theta, x = 0.4, "+"
    info = ib.pmi(model, prior, x, theta)
    rec = ib.DemonRecord(1.0, info, 0.0, x, theta)  # lhs set to the PMI exactly
    check = ib.demon_work_check(rec, model, prior, sensitivity)
    assert check.sagawa_ueda_ok and check.chained_ok


def test_demon_budget_violation_flagged(qubit):
    model, sensitivity, prior = qubit
    check0 = ib.demon_work_check(
        ib.DemonRecord(1.0, 0.0, 0.0, "+", 0.3), model, prior, sensitivity
    )
    rec = ib.DemonRecord(1.0, check0.bound + 0.1, 0.0, "+", 0.3)
    check = ib.demon_work_check(rec, model, prior, sensitivity)
    assert not check.sagawa_ueda_ok and not check.chained_ok


def test_demon_transitivity_randomized(qubit):
    # whenever the information budget holds, the bound budget must too
    model, sensitivity, prior = qubit
    rng = np.random.default_rng(99)
    for _ in range(300):
        theta = rng.uniform(0.05, math.pi / 2 - 0.05)
        x = "+" if rng.random() < 0.5 else "-"
        info = ib.pmi(model, prior, x, theta)
        lhs = info - abs(rng.normal(0.0, 0.5))
        beta = rng.uniform(0.5, 2.0)
        delta_f = rng.normal(0.0, 1.0)
        rec = ib.DemonRecord(beta, delta_f + lhs / beta, delta_f, x, theta)
        check = ib.demon_work_check(rec, model, prior, sensitivity)
        assert check.sagawa_ueda_ok
        assert check.chained_ok


def test_demon_classical_bound(langevin_uniform):
    model, prior = langevin_uniform
    rec = ib.DemonRecord(1.0, 0.005, 0.0, 0.0, 1.0)
    check = ib.demon_work_check(rec, model, prior)
    assert check.chained_ok
    assert check.bound == pytest.approx(
        ib.bound_theorem1(model, prior, 0.0, 1.0).bound, rel=1e-12
    )
