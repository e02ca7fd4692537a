import math
import re

import numpy as np
import pytest
from scipy import stats

import infobounds as ib


# ---------------------------------------------------------------------------
# Outcome spaces
# ---------------------------------------------------------------------------


def test_discrete_outcomes_validation():
    ib.DiscreteOutcomes(("a", "b"))
    listed = ib.DiscreteOutcomes(["a", "b"])  # kept as a tuple, so the frozen space hashes
    assert listed.outcomes == ("a", "b") and hash(listed) == hash(ib.DiscreteOutcomes(("a", "b")))
    with pytest.raises(ValueError):
        ib.DiscreteOutcomes(())
    with pytest.raises(ValueError):
        ib.DiscreteOutcomes((1, 1, 2))


def test_every_label_maps_to_its_position():
    labels = tuple(range(1001)) + ("a", (1, 2), None)
    space = ib.DiscreteOutcomes(labels)
    assert [space.index(x) for x in labels] == list(range(len(labels)))


def test_a_label_is_found_as_tuple_index_finds_it():
    # by identity first, then by ==: a NaN label only by identity; an
    # unhashable query by == alone, as an array equal to a label
    nan = float("nan")
    space = ib.DiscreteOutcomes(("a", 1, 0.5, nan))
    assert space.index(True) == 1 and space.index(np.float64(0.5)) == 2 and space.index(nan) == 3
    assert space.index(np.array(1)) == 1 and space.index(np.array([0.5])) == 2
    for absent in (float("nan"), "b", 2, [1], np.array([1, 2]), {"a": 1}):
        with pytest.raises(ib.OutsideSupportError, match="is not in the outcome space"):
            space.index(absent)


def test_continuous_outcomes_validation():
    space = ib.ContinuousOutcomes(-1.0, 1.0, 11)
    assert space.grid.n_points == 11
    with pytest.raises(ValueError):
        ib.ContinuousOutcomes(1.0, -1.0, 11)
    with pytest.raises(ValueError):
        ib.ContinuousOutcomes(-1.0, 1.0, 2)


# ---------------------------------------------------------------------------
# Priors
# ---------------------------------------------------------------------------


def test_uniform_prior_normalized_and_finite_support():
    prior = ib.uniform_prior(0.5, 1.5, 501)
    assert ib.quadrature(prior.density, prior.grid) == pytest.approx(1.0, abs=1e-12)
    assert prior.tail_mass_bound is None
    assert np.all(prior.derivative == 0.0)


def test_gaussian_prior_truncation_and_derivative():
    prior = ib.gaussian_prior(0.0, 1.0)
    assert 0.0 < prior.tail_mass_bound <= 3e-12
    assert ib.quadrature(prior.density, prior.grid) == pytest.approx(1.0, abs=1e-6)
    # dp/dtheta of the normal density: -(theta - mu)/sigma^2 * p
    i = prior.grid.n_points // 4
    theta = prior.grid.nodes[i]
    assert prior.derivative[i] == pytest.approx(-theta * prior.density[i], rel=1e-12)


def test_gaussian_prior_lower_clip_records_extra_mass():
    prior = ib.gaussian_prior(1.0, 0.2, lower=1e-3)
    assert prior.grid.theta_min == 1e-3
    # clipped left tail carries ~2.9e-7 of mass, far above the 1e-12 target
    assert 1e-8 < prior.tail_mass_bound < 1e-6
    assert ib.quadrature(prior.density, prior.grid) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize(
    "cut, named",
    [
        ({"lower": 0.5}, "lower=0.5"),
        ({"upper": 1.2}, "upper=1.2"),
        ({"lower": 0.9, "upper": 1.1}, "lower=0.9 and upper=1.1"),
    ],
)
def test_gaussian_prior_cut_that_breaks_normalisation_names_the_cut(cut, named):
    with pytest.raises(ib.InvalidParameterError) as err:
        ib.gaussian_prior(1.0, 0.2, **cut)
    message = str(err.value)
    assert f"cut {named} discards " in message
    assert "NORMALIZATION_TOL=1e-06" in message and "integrates to" not in message


@pytest.mark.parametrize(
    "mean, sigma, lower",
    [(1.0, 0.2, 1e-3), (0.0, 1.0, None), (math.pi / 4, math.pi / 20, None)],
)
def test_gaussian_prior_matches_scipy_norm(mean, sigma, lower):
    dist = stats.norm(loc=mean, scale=sigma)
    lo, hi = dist.ppf(ib.models.DEFAULT_TAIL_MASS), dist.isf(ib.models.DEFAULT_TAIL_MASS)
    if lower is not None:
        lo = max(lo, lower)
    prior = ib.gaussian_prior(mean, sigma, lower=lower)
    assert prior.grid.theta_min == pytest.approx(lo, rel=0, abs=1e-14)
    assert prior.grid.theta_max == pytest.approx(hi, rel=0, abs=1e-14)
    np.testing.assert_allclose(prior.density, dist.pdf(prior.grid.nodes), rtol=1e-12, atol=0)
    discarded = dist.cdf(prior.grid.theta_min) + dist.sf(prior.grid.theta_max)
    assert prior.tail_mass_bound == pytest.approx(discarded, rel=1e-12, abs=0)


def test_gamma_prior_normalized_positive_support():
    prior = ib.gamma_prior(3.0, 0.5)
    assert prior.grid.theta_min > 0
    assert ib.quadrature(prior.density, prior.grid) == pytest.approx(1.0, abs=1e-6)
    assert np.all(prior.density >= 0)


def test_gamma_prior_below_shape_two_names_the_diverging_derivative():
    # p'(theta) ~ theta**(shape - 2) near 0: the grid error shrinks more slowly than h^2
    with pytest.raises(ib.InvalidParameterError, match=r"integrates to 0\.9995.* diverges toward theta = 0"):
        ib.gamma_prior(1.5, 1.0)


def test_gamma_prior_at_shape_two_or_more_names_a_grid_that_passes():
    with pytest.raises(ib.InvalidParameterError, match=r"integrates to 0\.99999") as info:
        ib.gamma_prior(2.2, 1.0)
    assert "not renormalised" in str(info.value)
    n_points = int(re.search(r"n_points=(\d+) brings", str(info.value)).group(1))
    prior = ib.gamma_prior(2.2, 1.0, n_points)
    assert abs(ib.quadrature(prior.density, prior.grid) - 1.0) <= ib.models.NORMALIZATION_TOL
    with pytest.raises(ib.InvalidParameterError):
        ib.gamma_prior(2.2, 1.0, int(0.9 * n_points))


@pytest.mark.parametrize("tail_mass", [0.0, 0.7])
def test_gamma_prior_rejects_a_tail_mass_outside_the_open_half_interval(tail_mass):
    with pytest.raises(ib.InvalidParameterError, match=r"^tail_mass must lie in \(0, 0\.5\)$"):
        ib.gamma_prior(3.0, 1.0, tail_mass=tail_mass)


@pytest.mark.parametrize("shape, scale", [(3.0, 0.5), (40.0, 0.1)])
def test_gamma_prior_matches_scipy_gamma(shape, scale):
    dist = stats.gamma(a=shape, scale=scale)
    prior = ib.gamma_prior(shape, scale)
    tail = ib.models.DEFAULT_TAIL_MASS
    assert prior.grid.theta_min == pytest.approx(dist.ppf(tail), rel=0, abs=1e-14)
    assert prior.grid.theta_max == pytest.approx(dist.isf(tail), rel=0, abs=1e-14)
    np.testing.assert_allclose(prior.density, dist.pdf(prior.grid.nodes), rtol=1e-12, atol=0)
    discarded = dist.cdf(prior.grid.theta_min) + dist.sf(prior.grid.theta_max)
    assert prior.tail_mass_bound == pytest.approx(discarded, rel=1e-12, abs=0)


@pytest.mark.parametrize("name", ["lower", "upper"])
@pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf, "a", 1j, True])
def test_gaussian_prior_rejects_a_bound_that_is_not_a_finite_number(name, bound):
    # an infinite bound is refused too: None already means no cut
    with pytest.raises(ib.InvalidParameterError, match=f"^{name} must be a finite number, got "):
        ib.gaussian_prior(1.0, 0.2, **{name: bound})


def test_prior_tail_mass_bound_is_none_or_a_finite_nonnegative_number():
    grid = ib.ParameterGrid(0.0, 1.0, 101)
    assert ib.Prior(grid, np.ones(101), np.zeros(101)).tail_mass_bound is None
    assert ib.Prior(grid, np.ones(101), np.zeros(101), 0.0).tail_mass_bound == 0.0
    for bad in (-1e-12, math.nan, math.inf, "a", True):
        with pytest.raises(ib.InvalidParameterError, match="^tail_mass_bound must be a finite nonnegative number"):
            ib.Prior(grid, np.ones(101), np.zeros(101), bad)


def test_prior_validation_errors():
    grid = ib.ParameterGrid(0.0, 1.0, 101)
    ones = np.ones(101)
    with pytest.raises(ValueError):
        ib.Prior(grid, -ones, np.zeros(101))
    with pytest.raises(ValueError):
        ib.Prior(grid, 2.0 * ones, np.zeros(101))
    with pytest.raises(ib.LengthMismatchError):
        ib.Prior(grid, np.ones(100), np.zeros(100))
    with pytest.raises(ib.NonFiniteError, match="^prior density contains NaN or infinity$"):
        ib.Prior(grid, np.where(np.arange(101) == 50, np.nan, 1.0), np.zeros(101))


@pytest.mark.parametrize("tail_mass", [0.0, 0.5, -1e-3])
def test_gaussian_prior_rejects_a_tail_mass_outside_the_open_half_interval(tail_mass):
    with pytest.raises(ib.InvalidParameterError, match=r"^tail_mass must lie in \(0, 0\.5\)$"):
        ib.gaussian_prior(0.0, 1.0, tail_mass=tail_mass)


def test_prior_interpolation():
    # off a node the surprisal reads the linear interpolant of the density
    prior = ib.gaussian_prior(1.0, 0.3, 21)
    theta = float(prior.grid.nodes[7] + 0.37 * prior.grid.spacing)
    expected = float(-np.log(np.interp(theta, prior.grid.nodes, prior.density)))
    assert ib.surprisal(prior, theta) == expected
    with pytest.raises(ib.OutsideSupportError, match=r"^theta=2\.5 outside grid \["):
        ib.surprisal(ib.uniform_prior(0.0, 2.0, 21), 2.5)


# ---------------------------------------------------------------------------
# Conditional models
# ---------------------------------------------------------------------------


def _outcome_mass(model, thetas):
    """p(x | theta) summed over a discrete outcome space, at each theta."""
    return sum(np.exp(model.log_pdf(x, thetas)) for x in model.outcome_space.outcomes)


def test_discrete_normalization(softmax3, flat3, qubit):
    grid = ib.ParameterGrid(0.0, 1.0, 101)
    for model in (softmax3, flat3):
        assert np.max(np.abs(_outcome_mass(model, grid.nodes) - 1.0)) <= 1e-8
    qubit_model, _, prior = qubit
    assert np.max(np.abs(_outcome_mass(qubit_model, prior.grid.nodes[::50]) - 1.0)) <= 1e-8


@pytest.mark.parametrize("case", ["langevin", "softmax", "qubit"])
def test_analytic_score_matches_finite_differences(case, langevin_uniform, softmax3, qubit):
    rng = np.random.default_rng(42)
    if case == "langevin":
        model, _ = langevin_uniform
        xs = rng.uniform(-4.0, 4.0, size=100)
        thetas = rng.uniform(0.5, 1.5, size=100)
    elif case == "softmax":
        model = softmax3
        xs = rng.integers(0, 3, size=100)
        thetas = rng.uniform(0.0, 1.0, size=100)
    else:
        model, _, _ = qubit
        xs = np.where(rng.random(100) < 0.5, "+", "-")
        thetas = rng.uniform(0.05, math.pi / 2 - 0.05, size=100)
    for x, theta in zip(xs, thetas):
        x = x.item() if isinstance(x, np.generic) and not isinstance(x, np.str_) else x
        s = float(model.score(x, float(theta)))
        h = max(1e-5, 1e-5 * abs(theta))
        fd = (
            float(model.log_pdf(x, theta + h)) - float(model.log_pdf(x, theta - h))
        ) / (2 * h)
        assert abs(s - fd) <= max(1e-5, 1e-4 * abs(s))


def test_finite_difference_score_fallback():
    model = ib.ConditionalModel(
        lambda x, t: 0.5 * np.log(np.asarray(t) / (2 * np.pi)) - np.asarray(t) * x * x / 2.0,
        ib.ContinuousOutcomes(-11.4, 11.4, 101),
    )
    assert model.score(0.7, 1.2) == pytest.approx(1 / 2.4 - 0.49 / 2, abs=1e-9)
    # an array theta, as every evaluator reads the model: through table
    xs, thetas = [0.7, -1.5], np.array([0.8, 1.2, 2.0])
    scores = model.table(xs, thetas, score=True)[1]
    expected = 1 / (2 * thetas) - np.square(xs)[:, None] / 2
    np.testing.assert_allclose(scores, expected, rtol=0, atol=1e-9)
    fisher = ib.fisher_information(model, thetas)
    np.testing.assert_allclose(fisher, 1 / (2 * thetas**2), rtol=1e-6)


def test_discrete_score_mean_vanishes(softmax3, qubit):
    grid = ib.ParameterGrid(0.0, 1.0, 101)
    for theta in grid.nodes:
        total = sum(
            float(np.exp(softmax3.log_pdf(k, theta))) * float(softmax3.score(k, theta))
            for k in softmax3.outcome_space.outcomes
        )
        assert abs(total) <= 1e-8
    qubit_model, _, prior = qubit
    for theta in prior.grid.nodes[1::200]:
        total = sum(
            float(np.exp(qubit_model.log_pdf(x, theta))) * float(qubit_model.score(x, theta))
            for x in qubit_model.outcome_space.outcomes
        )
        assert abs(total) <= 1e-8


# ---------------------------------------------------------------------------
# Weight functions
# ---------------------------------------------------------------------------


def test_boxcar_weight_shape():
    grid = ib.ParameterGrid(0.0, 1.0, 51)
    w = ib.boxcar_weight(grid)
    assert np.all(w.values == 1.0) and np.all(w.derivative == 0.0)
    assert w.boxcar is True
    assert ib.boxcar_weight(grid) is w  # one weight object per grid


def test_prior_weight_shares_prior_tables():
    prior = ib.gaussian_prior(0.0, 1.0, 501)
    w = ib.prior_weight(prior)
    assert np.array_equal(w.values, prior.density)
    assert np.array_equal(w.derivative, prior.derivative)
    assert ib.prior_weight(prior) is w  # one weight object per prior
    assert w.boxcar is False and ib.gaussian_weight(prior.grid, 0.0, 0.5).boxcar is False


def test_gaussian_weight_derivative_consistent():
    grid = ib.ParameterGrid(0.0, 2.0, 2001)
    w = ib.gaussian_weight(grid, 1.0, 0.1)
    i = 700
    h = grid.spacing
    fd = (w.values[i + 1] - w.values[i - 1]) / (2 * h)
    assert w.derivative[i] == pytest.approx(fd, rel=1e-4)


def test_weight_rejects_negative_values():
    grid = ib.ParameterGrid(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        ib.WeightFunction(grid, -np.ones(11), np.zeros(11))


def test_weight_rejects_an_unknown_kind_and_a_nonpositive_width():
    # a weight declares only whether it is the boxcar: a kind name is refused, not read as true
    grid = ib.ParameterGrid(0.0, 1.0, 11)
    for kind in ("bump", "prior", 1, None):
        with pytest.raises(ib.InvalidParameterError, match=f"^boxcar must be a bool, got {re.escape(repr(kind))}$"):
            ib.WeightFunction(grid, np.ones(11), np.zeros(11), kind)
    for width in (0.0, -0.1):
        with pytest.raises(ib.InvalidParameterError, match="^width must be positive$"):
            ib.gaussian_weight(grid, 0.5, width)


@pytest.mark.parametrize("values, derivative", [(2.0, 0.0), (1.0, 1e-3)], ids=["values", "derivative"])
def test_boxcar_weight_must_be_one_with_a_zero_derivative(values, derivative):
    # every evaluator reads a boxcar weight as f = 1, fdot = 0
    grid = ib.ParameterGrid(0.0, 1.0, 11)
    with pytest.raises(ib.InvalidWeightError, match="^boxcar weight must be 1 with a zero derivative at every node$"):
        ib.WeightFunction(grid, np.full(11, values), np.full(11, derivative), boxcar=True)


def test_kept_raises_a_type_error_of_the_function_once():
    # hashable arguments: the function's own TypeError is not mistaken for
    # an unhashable key, so the function runs once
    calls = []

    def fails(x):
        calls.append(x)
        raise TypeError("from the function")

    with pytest.raises(TypeError, match="^from the function$"):
        ib.models._kept(fails, 1.5)
    assert calls == [1.5]
    assert ib.models._kept(len, [1, 2]) == 2  # an unhashable argument bypasses the memo
