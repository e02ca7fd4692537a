import math
import re
import warnings

import numpy as np
import pytest

import infobounds as ib

# Closed-form oracles for the trapped-particle model, D = 1:
#   p(x=0 | theta)       = sqrt(theta / 2 pi)
#   p(x=0), uniform prior on [a, b]:
#       (2/3) (b^{3/2} - a^{3/2}) / sqrt(2 pi) / (b - a)
SQRT_2PI = math.sqrt(2 * math.pi)
LANGEVIN_MARGINAL_0 = (2.0 / 3.0) * (1.5**1.5 - 0.5**1.5) / SQRT_2PI  # 0.3945706...

# Qubit sigma-x "+" marginal under the uniform prior on [0, pi/2]:
#   (2/pi) * integral cos^2(theta/2) = 1/2 + 1/pi
QUBIT_MARGINAL_PLUS = 0.5 + 1.0 / math.pi

# Mutual information goldens, frozen from an independent 10x-resolution
# double-quadrature oracle (see test_acceptance.py for the oracle itself).
LANGEVIN_MI_GOLDEN = 0.022814262187239167
QUBIT_MI_GOLDEN = 0.0876522728601367


# ---------------------------------------------------------------------------
# marginal
# ---------------------------------------------------------------------------


def test_marginal_theta_independent_model(flat3):
    prior = ib.uniform_prior(0.0, 1.0, 501)
    expected = np.array([0.2, 0.3, 0.5])
    for k, q in enumerate(expected):
        assert ib.marginal(flat3, prior, k) == pytest.approx(q, abs=1e-9)


def test_marginal_langevin(langevin_uniform):
    model, prior = langevin_uniform
    assert ib.marginal(model, prior, 0.0) == pytest.approx(LANGEVIN_MARGINAL_0, abs=5e-7)


def test_marginal_qubit(qubit):
    model, _, prior = qubit
    assert ib.marginal(model, prior, "+") == pytest.approx(QUBIT_MARGINAL_PLUS, abs=1e-7)


def test_marginals_sum_to_one(softmax3):
    prior = ib.uniform_prior(0.0, 1.0, 501)
    total = sum(ib.marginal(softmax3, prior, k) for k in range(3))
    assert total == pytest.approx(1.0, abs=1e-6)


def test_marginal_degenerate(langevin_uniform):
    model, prior = langevin_uniform
    # far outside every conditional: the density underflows to zero
    with pytest.raises(ib.DegenerateMarginalError):
        ib.marginal(model, prior, 60.0)


# ---------------------------------------------------------------------------
# pmi
# ---------------------------------------------------------------------------


def test_pmi_theta_independent_is_zero(flat3):
    prior = ib.uniform_prior(0.0, 1.0, 501)
    for k in range(3):
        for theta in (0.0, 0.37, 1.0):
            assert ib.pmi(flat3, prior, k, theta) == pytest.approx(0.0, abs=1e-9)


def test_pmi_langevin(langevin_uniform):
    model, prior = langevin_uniform
    expected = 0.5 * math.log(1.0 / (2 * math.pi)) - math.log(LANGEVIN_MARGINAL_0)
    assert ib.pmi(model, prior, 0.0, 1.0) == pytest.approx(expected, abs=2e-6)


def test_pmi_qubit(qubit):
    model, _, prior = qubit
    expected = -math.log(QUBIT_MARGINAL_PLUS)
    assert ib.pmi(model, prior, "+", 0.0) == pytest.approx(expected, abs=1e-7)


def test_pmi_zero_likelihood(qubit):
    model, _, prior = qubit
    with pytest.raises(ib.ZeroLikelihoodError):
        ib.pmi(model, prior, "-", 0.0)


# ---------------------------------------------------------------------------
# sfi
# ---------------------------------------------------------------------------


def test_sfi_theta_independent_is_zero(flat3):
    assert ib.sfi(flat3, 1, 0.4) == 0.0


def test_sfi_langevin_values(langevin_uniform):
    model, _ = langevin_uniform
    # score at (0, 1) is 1/(2 theta) = 1/2
    assert ib.sfi(model, 0.0, 1.0) == pytest.approx(0.25, abs=1e-12)
    # root of the score: x^2 = D / theta
    assert ib.sfi(model, math.sqrt(1.0 / 0.8), 0.8) == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# surprisal
# ---------------------------------------------------------------------------


def test_surprisal_uniform_priors():
    assert ib.surprisal(ib.uniform_prior(0.0, 1.0), 0.3) == pytest.approx(0.0, abs=1e-12)
    assert ib.surprisal(ib.uniform_prior(0.5, 1.5), 1.0) == pytest.approx(0.0, abs=1e-12)


def test_surprisal_standard_normal():
    prior = ib.gaussian_prior(0.0, 1.0)
    assert ib.surprisal(prior, 0.0) == pytest.approx(math.log(SQRT_2PI), abs=1e-9)


def test_surprisal_outside_support():
    prior = ib.uniform_prior(0.0, 1.0)
    with pytest.raises(ib.OutsideSupportError):
        ib.surprisal(prior, 2.0)


# ---------------------------------------------------------------------------
# a bad theta at a one-point entry
# ---------------------------------------------------------------------------


class _Untouchable:
    """A model or prior that fails the test when any attribute is read."""

    def __getattr__(self, name):
        raise AssertionError(f"read {name!r} before checking theta")


_ONE_POINT = {
    "pmi": lambda model, prior, theta: ib.pmi(model, prior, "+", theta),
    "sfi": lambda model, prior, theta: ib.sfi(model, "+", theta),
    "fisher_information": lambda model, prior, theta: ib.fisher_information(model, theta),
    "surprisal": lambda model, prior, theta: ib.surprisal(prior, theta),
}


#: Bad values of theta; fisher_information takes an array, so it is not
#: given one of more than one value.
_BAD_THETAS = [None, "a", math.nan, math.inf, -math.inf]
_ONE_POINT_CASES = [(name, theta) for name in _ONE_POINT for theta in _BAD_THETAS] + [
    (name, [0.6, 0.7]) for name in ("pmi", "sfi", "surprisal")
]


@pytest.mark.parametrize(
    "name, theta", _ONE_POINT_CASES, ids=[f"{name}-{theta}" for name, theta in _ONE_POINT_CASES]
)
def test_one_point_entry_rejects_a_bad_theta_first(name, theta):
    # a typed error naming theta, raised before the model or prior is read
    untouchable = _Untouchable()
    with pytest.raises(ib.InvalidParameterError, match="^theta "):
        _ONE_POINT[name](untouchable, untouchable, theta)


# ---------------------------------------------------------------------------
# an argument that is not of its kind, at the library boundary
# ---------------------------------------------------------------------------


def _qubit_phase(call):
    """``call(family, povm)`` on the qubit phase family under sigma-x."""
    return lambda: call(ib.qubit_phase_family(), ib.sigma_x_povm())


def _langevin(call, x=None):
    """``call(model, prior, x)`` on the Langevin model under a uniform prior."""
    return lambda: call(ib.langevin_model(1.0), ib.uniform_prior(0.5, 1.5, 201), x)


def _qubit_bound(theta):
    """``bound_theorem1`` at outcome "+" and ``theta`` on the qubit under its quantum sensitivity."""

    def call():
        model, sensitivity = ib.qubit_measurement_model()
        return ib.bound_theorem1(model, ib.uniform_prior(0.0, math.pi / 2, 201), "+", theta, sensitivity)

    return call


#: The entries that read one outcome of a continuous model.
_OUTCOME_ENTRIES = {
    "pmi": lambda model, prior, x: ib.pmi(model, prior, x, 1.0),
    "sfi": lambda model, prior, x: ib.sfi(model, x, 1.0),
    "marginal": lambda model, prior, x: ib.marginal(model, prior, x),
    "bound_theorem1": lambda model, prior, x: ib.bound_theorem1(model, prior, x, 1.0),
}

#: Each call, and how its error message starts: with the argument it names.
_BAD_ARGUMENTS = {
    **{f"cqfi-index-{i}": (_qubit_phase(lambda f, e, i=i: ib.cqfi(f, e, i, 0.3)), "x_index must be an int in range")
       for i in (-1, True, 2)},
    "cqfi-theta-a": (_qubit_phase(lambda f, e: ib.cqfi(f, e, 0, "a")), "theta is not a number"),
    "qfi-theta-a": (_qubit_phase(lambda f, e: ib.qfi(f, "a")), "theta is not a number"),
    "qfi-theta-pair": (_qubit_phase(lambda f, e: ib.qfi(f, [0.1, 0.2])), "theta must be one number"),
    "rho-theta-a": (_qubit_phase(lambda f, e: f.rho("a")), "theta is not a number"),
    "states-theta-a": (_qubit_phase(lambda f, e: f.states(["a"])), "theta is not a number"),
    "states-theta-scalar": (_qubit_phase(lambda f, e: f.states(0.3)), "thetas must be a 1-D sequence"),
    "fisher_information-empty": (_langevin(lambda m, p, x: ib.fisher_information(m, [])), "theta must hold"),
    **{f"{name}-outcome-a": (_langevin(call, "a"), "outcome is not a number")
       for name, call in _OUTCOME_ENTRIES.items()},
    **{f"{name}-outcome-pair": (_langevin(call, [0.1, 0.2]), "each outcome must be one number")
       for name, call in _OUTCOME_ENTRIES.items()},
    "grid-theta_min-None": (lambda: ib.ParameterGrid(None, 1, 3), "theta_min must be a number"),
    "grid-n_points-None": (lambda: ib.ParameterGrid(0, 1, None), "n_points must be a number"),
    "grid-n_points-nan": (lambda: ib.ParameterGrid(0, 1, math.nan), "n_points must be an integer"),
    "grid-n_points-float": (lambda: ib.ParameterGrid(0.0, 1.0, 3.0).nodes, "n_points must be an integer"),
    "uniform_prior-n_points-float": (lambda: ib.uniform_prior(0.0, 1.0, 3.0), "n_points must be an integer"),
    "bound_theorem1-theta-pair": (_qubit_bound([0.1, 0.2]), "theta must be one number"),
    "uniform_prior-theta_min-None": (lambda: ib.uniform_prior(None, 1), "theta_min must be a number"),
    "langevin_model-diffusion-x": (lambda: ib.langevin_model("x"), "diffusion must be a finite number"),
    "langevin_model-theta_min-x": (lambda: ib.langevin_model(1.0, "x"), "theta_min must be a finite number"),
    "gaussian_prior-mean-a": (lambda: ib.gaussian_prior("a", 1), "mean must be a finite number"),
    "gaussian_prior-sigma-a": (lambda: ib.gaussian_prior(0, "a"), "sigma must be a finite number"),
    "gaussian_prior-sigma-0": (lambda: ib.gaussian_prior(0, 0), "sigma must be positive"),
    "gamma_prior-shape-a": (lambda: ib.gamma_prior("a", 1), "shape must be a finite number"),
    "gamma_prior-scale-a": (lambda: ib.gamma_prior(3, "a"), "scale must be a finite number"),
    "gamma_prior-shape-0": (lambda: ib.gamma_prior(0, 1), "shape and scale must be positive"),
    "ContinuousOutcomes-x_min-a": (lambda: ib.ContinuousOutcomes("a", 1, 5), "x_min must be a finite number"),
    "ContinuousOutcomes-x_max-a": (lambda: ib.ContinuousOutcomes(0, "a", 5), "x_max must be a finite number"),
    "ContinuousOutcomes-reversed": (lambda: ib.ContinuousOutcomes(1, 0, 5), "x_min must be < x_max"),
    "ContinuousOutcomes-n_x-a": (lambda: ib.ContinuousOutcomes(0, 1, "a"), "n_x must be an integer, got 'a'"),
    "gaussian_prior-tail_mass-a": (lambda: ib.gaussian_prior(0, 1, tail_mass="a"), "tail_mass must be a finite number"),
    "gamma_prior-tail_mass-a": (lambda: ib.gamma_prior(3, 1, tail_mass="a"), "tail_mass must be a finite number"),
}


@pytest.mark.parametrize("case", list(_BAD_ARGUMENTS))
def test_bad_argument_raises_a_typed_error_naming_it(case):
    call, message = _BAD_ARGUMENTS[case]
    with pytest.raises(ib.InvalidParameterError, match="^" + message):
        call()


def _discrete_pair(call):
    return lambda: call(ib.discrete_exponential_model([0.0, 0.0], [1.0, -1.0]), ib.uniform_prior(-1.0, 1.0, 201))


#: A feedback record at outcome 0 and theta = 0.5.
_RECORD = ib.DemonRecord(1.0, 0.0, 0.0, 0, 0.5)

#: Calls on a discrete model and its prior with a prior, a model or a
#: sensitivity of the wrong kind, and the message each raises.
_WRONG_PAIR_ARGUMENTS = {
    "prior": ("prior must be a Prior, got 'p'", {
        "mi_chain_values": lambda model, prior: ib.mi_chain_values(model, "p", ib.boxcar_weight(prior.grid)),
        "mutual_information": lambda model, prior: ib.mutual_information(model, "p"),
        "pmi": lambda model, prior: ib.pmi(model, "p", 0, 0.5),
        "surprisal": lambda model, prior: ib.surprisal("p", 0.5),
        "bound_theorem1": lambda model, prior: ib.bound_theorem1(model, "p", 0, 0.5),
        "bound_sweep": lambda model, prior: ib.bound_sweep(model, "p", "theorem1", [0], [0.5]),
        "demon_work_check": lambda model, prior: ib.demon_work_check(_RECORD, model, "p"),
    }),
    "model": ("model must be a ConditionalModel, got 'm'", {
        "mutual_information": lambda model, prior: ib.mutual_information("m", prior),
        "bound_general": lambda model, prior: ib.bound_general("m", prior, ib.boxcar_weight(prior.grid), "+", 0.1),
        "bound_sweep": lambda model, prior: ib.bound_sweep("m", prior, "theorem1", [0], [0.5]),
        "mi_chain_values": lambda model, prior: ib.mi_chain_values("m", prior, ib.boxcar_weight(prior.grid)),
        "fisher_information": lambda model, prior: ib.fisher_information("m", 0.5),
        "sfi": lambda model, prior: ib.sfi("m", 0, 0.5),
    }),
    "sensitivity": ("sensitivity must be callable, got 's'", {
        "bound_general": lambda model, prior: ib.bound_general(model, prior, ib.boxcar_weight(prior.grid), 0, 0.1, "s"),
        "demon_work_check": lambda model, prior: ib.demon_work_check(_RECORD, model, prior, "s"),
        "bound_sweep": lambda model, prior: ib.bound_sweep(model, prior, "theorem1", [0], [0.5], sensitivity="s"),
        "average_pointwise_bound": lambda model, prior: ib.average_pointwise_bound(
            model, prior, ib.boxcar_weight(prior.grid), "s"),
    }),
}

#: Library calls with an argument of the wrong kind: the typed error each
#: raises and how its message starts, with the argument it names.
_WRONG_KINDS = {
    "quadrature-values": (lambda: ib.quadrature("a", ib.ParameterGrid(0.0, 1.0, 11)),
                          ib.InvalidParameterError, "quadrature values must be real numbers"),
    "discrete_exponential_model-coefficients": (lambda: ib.discrete_exponential_model([0, 0], [1, "a"]),
                                                ib.InvalidParameterError, "coefficients must be real numbers"),
    "gaussian_weight-center": (lambda: ib.gaussian_weight(ib.ParameterGrid(0.0, 1.0, 11), "a", 1),
                               ib.InvalidParameterError, "center must be a finite number"),
    "gaussian_weight-width": (lambda: ib.gaussian_weight(ib.ParameterGrid(0.0, 1.0, 11), 0.5, "a"),
                              ib.InvalidParameterError, "width must be a finite number"),
    "DiscreteOutcomes-outcomes": (lambda: ib.DiscreteOutcomes(([1], [2])),
                                  ib.InvalidParameterError, "outcomes must be hashable labels"),
    "lambda_general-sensitivity": (lambda: ib.lambda_general("a", 1, 1, 1),
                                   ib.InvalidParameterError, "sensitivity must be real numbers"),
    "mi_chain_values-weight": (_discrete_pair(lambda model, prior: ib.mi_chain_values(model, prior, "w")),
                               ib.InvalidWeightError, "weight must be a WeightFunction, got 'w'"),
    "demon_work_check-record": (_discrete_pair(lambda model, prior: ib.demon_work_check("r", model, prior)),
                                ib.InvalidParameterError, "record must be a DemonRecord, got 'r'"),
    **{f"{name}-{kind}": (_discrete_pair(call), ib.InvalidParameterError, message)
       for kind, (message, calls) in _WRONG_PAIR_ARGUMENTS.items() for name, call in calls.items()},
    "boxcar_weight-grid": (lambda: ib.boxcar_weight("g"), ib.InvalidParameterError, "grid must be a ParameterGrid, got 'g'"),
    "gaussian_weight-grid": (lambda: ib.gaussian_weight("g", 0.5, 0.1),
                             ib.InvalidParameterError, "grid must be a ParameterGrid, got 'g'"),
    "qfi-family": (lambda: ib.qfi("f", 0.3), ib.InvalidParameterError, "family must be a StateFamily, got 'f'"),
    "summarize_sweep-tolerance": (lambda: ib.summarize_sweep([], "a"), ib.InvalidParameterError,
                                  "tolerance must be a finite number, got 'a'"),
    "cqfi-family": (lambda: ib.cqfi("f", ib.sigma_x_povm(), 0, 0.3),
                    ib.InvalidParameterError, "family must be a StateFamily, got 'f'"),
    "cqfi-povm": (lambda: ib.cqfi(ib.qubit_phase_family(), "pp", 0, 0.3),  # a string has a length
                  ib.InvalidParameterError, "povm must be a Povm, got 'pp'"),
    "quantum_conditional_model-family": (lambda: ib.quantum_conditional_model("f", ib.sigma_x_povm()),
                                         ib.InvalidParameterError, "family must be a StateFamily, got 'f'"),
    "quantum_conditional_model-povm": (lambda: ib.quantum_conditional_model(ib.qubit_phase_family(), "p"),
                                       ib.InvalidParameterError, "povm must be a Povm, got 'p'"),
    "validate_povm-povm": (lambda: ib.validate_povm("p"), ib.InvalidParameterError, "povm must be a Povm, got 'p'"),
    "qubit_measurement_model-povm": (lambda: ib.qubit_measurement_model("p"),
                                     ib.InvalidParameterError, "povm must be a Povm, got 'p'"),
    "sqrt_lambda_nodes-weight": (lambda: ib.sqrt_lambda_nodes(ib.qubit_measurement_model()[0], "w", "+"),
                                 ib.InvalidWeightError, "weight must be a WeightFunction, got 'w'"),
}


@pytest.mark.parametrize("case", list(_WRONG_KINDS))
def test_argument_of_the_wrong_kind_raises_a_typed_error_naming_it(case):
    call, error, message = _WRONG_KINDS[case]
    with pytest.raises(error, match="^" + re.escape(message)):
        call()


def _grid3():
    return ib.ParameterGrid(0.0, 1.0, 3)


#: Complex values, as a NumPy array, a NumPy scalar, a sequence of NumPy
#: scalars or an object array holding one: each call and how its error
#: message starts.
_COMPLEX = {
    "quadrature-array": (lambda: ib.quadrature(np.array([1j] * 3), _grid3()), "quadrature values must be real numbers"),
    "quadrature-object-array": (lambda: ib.quadrature(np.array([np.complex128(1j), 1, 2], dtype=object), _grid3()),
                                "quadrature values must be real numbers"),
    "quadrature-sequence": (lambda: ib.quadrature([np.complex64(1)] * 3, _grid3()), "quadrature values must be real numbers"),
    "lambda_general-score": (lambda: ib.lambda_general(1.0, np.complex128(0.5), 1.0, 0.0), "score must be real numbers"),
    "pmi-scalar": (_langevin(lambda m, p, x: ib.pmi(m, p, 0.0, np.complex128(1.0 + 1j))), "theta is not a number"),
    "bound_general-scalar": (_langevin(lambda m, p, x: ib.bound_general(
        m, p, ib.boxcar_weight(p.grid), 0.0, np.complex128(1.0 + 1j))), "theta is not a number"),
    "bound_sweep-sequence": (_langevin(lambda m, p, x: ib.bound_sweep(
        m, p, "theorem1", [0.0], [np.complex128(1.0)])), "theta is not a number"),
    "fisher_information-array": (_langevin(lambda m, p, x: ib.fisher_information(m, np.array([0.3 + 1j]))),
                                 "theta is not a number"),
    "DemonRecord-theta": (lambda: ib.DemonRecord(1.0, 0.0, 0.0, 0, np.complex128(0.5)), "theta must be a finite number"),
    "chain_holds-tolerance": (lambda: ib.chain_holds(0.1, 0.2, 0.3, np.complex64(1e-6)), "tolerance must be a finite"),
}


@pytest.mark.parametrize("case", list(_COMPLEX))
def test_a_complex_value_raises_instead_of_losing_its_imaginary_part(case):
    call, message = _COMPLEX[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning on the way
        with pytest.raises(ib.InvalidParameterError, match="^" + message):
            call()


def test_sfi_of_a_non_finite_score_raises():
    model = ib.ConditionalModel(lambda x, t: np.zeros(np.shape(t)), ib.DiscreteOutcomes((0,)),
                                score=lambda x, t: np.full(np.shape(t), np.inf))
    with pytest.raises(ib.NonFiniteError, match=r"^score at \(0, 0\.5\) is not finite$"):
        ib.sfi(model, 0, 0.5)


@pytest.mark.parametrize("space", [ib.DiscreteOutcomes((0, 1)), ib.ContinuousOutcomes(0.0, 1.0, 5)],
                         ids=["discrete", "continuous"])
@pytest.mark.parametrize("entry", ["pmi", "mutual_information"])
def test_model_callable_of_the_wrong_shape_raises_a_typed_error(space, entry):
    model = ib.ConditionalModel(lambda x, th: np.zeros(3), space)
    prior = ib.uniform_prior(0.0, 1.0, 11)
    call = (lambda: ib.pmi(model, prior, 0, 0.3)) if entry == "pmi" else (lambda: ib.mutual_information(model, prior))
    with pytest.raises(ib.DimensionMismatchError, match=r"^model callable returned shape \(3,\), expected one that"):
        call()


@pytest.mark.parametrize("x", ["a", [0.1, 0.2]], ids=["a", "pair"])
def test_sweep_skips_an_outcome_that_is_not_one_number(langevin_uniform, x):
    model, prior = langevin_uniform
    reports, skipped = ib.bound_sweep(model, prior, "theorem1", [0.1, x, 0.3], [1.0])
    assert [r.x for r in reports] == [0.1, 0.3]
    assert skipped == [ib.SkippedPoint(x, 1.0, "InvalidParameterError")]


# ---------------------------------------------------------------------------
# fisher information
# ---------------------------------------------------------------------------


def test_fisher_theta_independent_is_zero(flat3):
    assert ib.fisher_information(flat3, 0.6) == pytest.approx(0.0, abs=1e-15)


def test_fisher_langevin(langevin_uniform):
    model, _ = langevin_uniform
    # Gaussian-moment oracle: E(1/(2 theta) - x^2/2)^2 with E x^2 = 1/theta,
    # E x^4 = 3/theta^2 gives 1/(2 theta^2).
    assert ib.fisher_information(model, 1.0) == pytest.approx(0.5, abs=1e-3)
    assert ib.fisher_information(model, 0.8) == pytest.approx(1 / (2 * 0.64), abs=1e-3)


def test_fisher_qubit(qubit):
    model, _, _ = qubit
    # (d p_+)^2/p_+ + (d p_-)^2/p_- with p_+ = cos^2(theta/2) is identically 1
    assert ib.fisher_information(model, math.pi / 2) == pytest.approx(1.0, abs=1e-6)
    assert ib.fisher_information(model, 0.3) == pytest.approx(1.0, abs=1e-8)


def test_fisher_softmax_variance_oracle(softmax3):
    # For p_k proportional to w_k e^{c_k theta}, the Fisher information is
    # the variance of c under p(. | theta).
    theta = 0.7
    c = np.array([-1.0, 0.0, 1.0])
    p = np.array([float(np.exp(softmax3.log_pdf(k, theta))) for k in range(3)])
    var = float((p * c**2).sum() - (p * c).sum() ** 2)
    assert ib.fisher_information(softmax3, theta) == pytest.approx(var, rel=1e-12)


def test_fisher_unnormalized_outcome_grid():
    model = ib.langevin_model(1.0, theta_min=0.5)
    clipped = ib.ConditionalModel(
        model.log_pdf, ib.ContinuousOutcomes(-1.0, 1.0, 101), score=model.score
    )
    with pytest.raises(ib.UnnormalizedOutcomeSpaceError):
        ib.fisher_information(clipped, 0.5)


def test_mutual_information_unnormalized_outcome_grid():
    # The outcome grid spans 8 sigma at theta=0.5 but only 1.6 sigma at 0.02.
    model = ib.langevin_model(1.0)
    with pytest.raises(ib.UnnormalizedOutcomeSpaceError, match="theta=0.02"):
        ib.mutual_information(model, ib.uniform_prior(0.02, 1.5))


def test_expected_sfi_equals_fisher(softmax3):
    # identical by construction; guards refactoring
    grid = ib.ParameterGrid(0.0, 1.0, 101)
    for theta in grid.nodes[::10]:
        manual = sum(
            float(np.exp(softmax3.log_pdf(k, theta))) * ib.sfi(softmax3, k, theta)
            for k in range(3)
        )
        assert abs(manual - ib.fisher_information(softmax3, float(theta))) <= 1e-10


# ---------------------------------------------------------------------------
# mutual information
# ---------------------------------------------------------------------------


def test_mi_theta_independent_is_zero(flat3):
    prior = ib.uniform_prior(0.0, 1.0, 501)
    assert ib.mutual_information(flat3, prior) == pytest.approx(0.0, abs=1e-8)


def test_mi_qubit_golden(qubit):
    model, _, prior = qubit
    assert ib.mutual_information(model, prior) == pytest.approx(QUBIT_MI_GOLDEN, abs=1e-7)


def test_mi_langevin_golden(langevin_uniform):
    model, prior = langevin_uniform
    assert ib.mutual_information(model, prior) == pytest.approx(LANGEVIN_MI_GOLDEN, abs=1e-7)


def test_mi_nonnegative(langevin_gaussian):
    model, prior = langevin_gaussian
    assert ib.mutual_information(model, prior) >= -1e-6


def test_mi_equals_average_pmi(softmax3):
    # definitional identity at the working resolution
    prior = ib.uniform_prior(0.0, 1.0, 501)
    total = 0.0
    for k in range(3):
        pmi_nodes = np.array(
            [ib.pmi(softmax3, prior, k, t) for t in prior.grid.nodes]
        )
        pdf = np.exp(np.asarray(softmax3.log_pdf(k, prior.grid.nodes)))
        total += ib.quadrature(prior.density * pdf * pmi_nodes, prior.grid)
    assert abs(total - ib.mutual_information(softmax3, prior)) <= 1e-10
