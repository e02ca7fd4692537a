import dataclasses
import math
import re

import numpy as np
import pytest

import infobounds as ib
from infobounds.bounds import sqrt_lambda_nodes

SQRT_2PI = math.sqrt(2 * math.pi)

# Closed-form pieces of the finite-support bound for the trapped particle at
# x = 0, D = 1, uniform prior on [0.5, 1.5]:
#   integral of sqrt(theta/2pi) * 1/(2 theta) = (sqrt(1.5) - sqrt(0.5))/sqrt(2pi)
_PX0 = (2.0 / 3.0) * (1.5**1.5 - 0.5**1.5) / SQRT_2PI / 1.0
_BOUNDARY = (math.sqrt(0.5 / (2 * math.pi)) + math.sqrt(1.5 / (2 * math.pi))) / _PX0
_INTEGRAL = (math.sqrt(1.5) - math.sqrt(0.5)) / SQRT_2PI / _PX0
LANGEVIN_T1_BOUND = math.log(_BOUNDARY + _INTEGRAL)  # 0.90689...

# Qubit sigma-x "+" outcome at theta = 0 with unit quantum sensitivity:
#   log((1 + 1/2 + (pi/4 + 1/2)) / (1/2 + 1/pi))
QUBIT_T3_BOUND = math.log((1.5 + math.pi / 4 + 0.5) / (0.5 + 1 / math.pi))  # 1.22490...

# Frozen at the first verified run (gamma(3, 0.5) prior, x = 0, theta = 1).
GAMMA_T2_BOUND_GOLDEN = 0.589768337825
GAMMA_T2_PMI_GOLDEN = -0.161252832999


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


def test_lambda_perfect_square_examples():
    assert ib.lambda_general(0.25, 0.5, 2.0, 1.0) == pytest.approx((0.5 * 2 + 1) ** 2, rel=1e-12)
    assert ib.lambda_general(0.0, 0.0, 1.0, 0.0) == 0.0
    # sensitivity above the squared score: plain arithmetic
    assert ib.lambda_general(1.0, 0.5, 1.0, -1.0) == pytest.approx(1.0, rel=1e-12)


def test_lambda_perfect_square_randomized():
    rng = np.random.default_rng(1234)
    for _ in range(500):
        s = rng.uniform(-3, 3)
        f = rng.uniform(0, 3)
        fd = rng.uniform(-3, 3)
        lam = ib.lambda_general(s * s, s, f, fd)
        assert lam >= 0.0
        scale = max(1.0, abs(s * f) + abs(fd))
        assert abs(math.sqrt(lam) - abs(s * f + fd)) <= 1e-10 * scale


def test_lambda_negative_raises():
    with pytest.raises(ib.NegativeLambdaError):
        ib.lambda_general(0.1, 1.0, 1.0, -1.0)
    with pytest.raises(ib.NegativeLambdaError):
        ib.lambda_general(-0.5, 0.0, 1.0, 0.0)
    with pytest.raises(ib.NonFiniteError):
        ib.lambda_general(np.nan, 0.0, 1.0, 0.0)


def test_lambda_clamps_tiny_cancellation():
    # exact root of the square: roundoff may dip barely below zero
    s, f = 0.75, 1.2
    assert ib.lambda_general(s * s, s, f, -s * f) >= 0.0
    # a kernel of -1e-15 against terms of order 1 is roundoff: clamped to zero
    assert ib.lambda_general(1 - 1e-15, 1, 1, -1) == 0.0


# ---------------------------------------------------------------------------
# theorem 1 (finite support)
# ---------------------------------------------------------------------------


def test_theorem1_theta_independent_slack_is_log2(flat3):
    prior = ib.uniform_prior(0.0, 1.0, 501)
    for k in range(3):
        r = ib.bound_theorem1(flat3, prior, k, 0.5)
        assert r.pmi == pytest.approx(0.0, abs=1e-9)
        assert r.bound == pytest.approx(math.log(2.0), abs=1e-8)
        assert r.slack == pytest.approx(math.log(2.0), abs=1e-8)
        assert r.penalty_term == 0.0


def test_theorem1_langevin_closed_form(langevin_uniform):
    model, prior = langevin_uniform
    r = ib.bound_theorem1(model, prior, 0.0, 1.0)
    assert r.bound == pytest.approx(LANGEVIN_T1_BOUND, abs=2e-6)
    assert r.pmi == pytest.approx(0.011018, abs=1e-5)
    assert r.slack > 0
    assert r.boundary_term == pytest.approx(_BOUNDARY, rel=1e-6)
    assert r.integral_term == pytest.approx(_INTEGRAL, rel=1e-6)


def test_theorem1_qubit_quantum_sensitivity(qubit):
    model, sensitivity, prior = qubit
    r = ib.bound_theorem1(model, prior, "+", 0.0, sensitivity)
    assert r.bound == pytest.approx(QUBIT_T3_BOUND, abs=1e-6)
    assert r.pmi == pytest.approx(-math.log(0.5 + 1 / math.pi), abs=1e-7)


def test_theorem1_requires_finite_support(langevin_gaussian):
    model, prior = langevin_gaussian
    with pytest.raises(ib.InvalidWeightError):
        ib.bound_theorem1(model, prior, 0.0, 1.0)


def test_theorem1_theta_outside_support(langevin_uniform):
    model, prior = langevin_uniform
    with pytest.raises(ib.ThetaOutsideSupportError):
        ib.bound_theorem1(model, prior, 0.0, 2.0)


# ---------------------------------------------------------------------------
# theorem 2 (prior-matched)
# ---------------------------------------------------------------------------


def test_theorem2_theta_independent_gaussian_prior(flat3):
    prior = ib.gaussian_prior(0.5, 0.1)
    for theta in np.linspace(0.2, 0.8, 100):
        r = ib.bound_theorem2(flat3, prior, 1, float(theta))
        assert r.pmi == pytest.approx(0.0, abs=1e-9)
        assert r.slack >= 0.0
        assert r.boundary_term == 0.0


def test_theorem2_gamma_prior_golden():
    prior = ib.gamma_prior(3.0, 0.5)
    model = ib.langevin_model(1.0, theta_min=prior.grid.theta_min)
    r = ib.bound_theorem2(model, prior, 0.0, 1.0)
    assert r.bound == pytest.approx(GAMMA_T2_BOUND_GOLDEN, abs=1e-9)
    assert r.pmi == pytest.approx(GAMMA_T2_PMI_GOLDEN, abs=1e-9)
    assert r.slack >= 0.0


def test_theorem2_factored_kernel_identity(langevin_gaussian):
    model, prior = langevin_gaussian
    weight = ib.prior_weight(prior)
    x = 1.0
    produced = sqrt_lambda_nodes(model, weight, x)
    scores = np.asarray(model.score(x, prior.grid.nodes))
    manual = np.abs(scores * prior.density + prior.derivative)
    scale = np.maximum(1.0, np.abs(scores * prior.density) + np.abs(prior.derivative))
    assert np.max(np.abs(produced - manual) / scale) <= 1e-10
    # the expanded-kernel route agrees up to its own cancellation noise
    lam = np.array(
        [
            ib.lambda_general(s * s, s, f, fd)
            for s, f, fd in zip(scores, prior.density, prior.derivative)
        ]
    )
    assert np.max(np.abs(np.sqrt(lam) - manual) / scale) <= 1e-7


def test_theorem2_rejects_uniform_prior(langevin_uniform):
    # a non-decaying prior has boundary jumps the smooth derivation misses
    model, prior = langevin_uniform
    with pytest.raises(ib.InvalidWeightError):
        ib.bound_theorem2(model, prior, 0.0, 1.0)


def test_theorem2_penalty_is_surprisal(langevin_gaussian):
    model, prior = langevin_gaussian
    r = ib.bound_theorem2(model, prior, 0.5, 1.1)
    assert r.penalty_term == pytest.approx(ib.surprisal(prior, 1.1), rel=1e-12)


# ---------------------------------------------------------------------------
# generalized bound
# ---------------------------------------------------------------------------


def test_general_boxcar_matches_theorem1_bitwise(langevin_uniform):
    model, prior = langevin_uniform
    for x, theta in ((0.0, 1.0), (2.5, 0.7), (-1.3, 1.42)):
        a = ib.bound_theorem1(model, prior, x, theta)
        b = ib.bound_general(model, prior, ib.boxcar_weight(prior.grid), x, theta)
        assert a == b


def test_general_prior_matches_theorem2_bitwise(langevin_gaussian):
    model, prior = langevin_gaussian
    for x, theta in ((0.0, 1.0), (1.7, 0.8), (-0.4, 1.3)):
        a = ib.bound_theorem2(model, prior, x, theta)
        b = ib.bound_general(model, prior, ib.prior_weight(prior), x, theta)
        assert a == b


def test_general_gaussian_weight_sweep(langevin_uniform):
    model, prior = langevin_uniform
    weight = ib.gaussian_weight(prior.grid, 1.0, 0.08)
    reports, skipped = ib.bound_sweep(
        model, prior, "general", np.linspace(-4, 4, 50), np.linspace(0.5, 1.5, 50), weight=weight,
    )
    summary = ib.summarize_sweep(reports, n_skipped=len(skipped))
    assert summary.violations == 0
    assert summary.min_slack >= 0
    assert summary.n_evaluations == 2500


def test_general_weight_support_checks(langevin_uniform):
    model, prior = langevin_uniform
    wide = ib.gaussian_weight(prior.grid, 1.0, 0.5)  # does not decay at edges
    with pytest.raises(ib.InvalidWeightError):
        ib.bound_general(model, prior, wide, 0.0, 1.0)


@pytest.mark.parametrize("entry", ["bound_general", "bound_sweep", "mi_chain_values"])
@pytest.mark.parametrize("scale", [(1.5, 1.5), (1.0, 0.5)], ids=["density", "derivative"])
def test_prior_matched_weight_must_carry_its_prior(langevin_gaussian, entry, scale):
    # the penalty reads the prior's density, the kernel the weight's: they must agree
    model, prior = langevin_gaussian
    weight = ib.WeightFunction(prior.grid, scale[0] * prior.density, scale[1] * prior.derivative, "prior")
    calls = {
        "bound_general": lambda: ib.bound_general(model, prior, weight, 0.5, 1.0),
        "bound_sweep": lambda: ib.bound_sweep(model, prior, "general", [0.5], [1.0], weight),
        "mi_chain_values": lambda: ib.mi_chain_values(model, prior, weight),
    }
    with pytest.raises(ib.InvalidWeightError, match="^prior-matched weight must carry its prior's density and derivative$"):
        calls[entry]()


def _hat_problem():
    """A hat prior on [0.25, 0.75] and a wider hat weight on [0.125, 0.875],
    both on the grid [0, 1]."""
    grid = ib.ParameterGrid(0.0, 1.0, 401)
    hat = np.clip(1.0 - np.abs(grid.nodes - 0.5) / 0.25, 0.0, None)
    dens = 4.0 * hat  # integrates to 1
    deriv = np.where(np.abs(grid.nodes - 0.5) < 0.25, -np.sign(grid.nodes - 0.5) * 16.0, 0.0)
    prior = ib.Prior(grid, dens, deriv, ib.TruncatedInfinite(0.0))
    wide_hat = np.clip(1.0 - np.abs(grid.nodes - 0.5) / 0.375, 0.0, None)
    wderiv = np.where(np.abs(grid.nodes - 0.5) < 0.375, -np.sign(grid.nodes - 0.5) / 0.375, 0.0)
    weight = ib.WeightFunction(grid, wide_hat, wderiv, "custom")
    model = ib.discrete_exponential_model(np.log([0.5, 0.5]), [0.3, -0.3])
    return model, prior, weight


def _discrete_on_unit_grid():
    model = ib.discrete_exponential_model([0.0, 0.0], [1.0, -1.0])
    return model, ib.uniform_prior(0.0, 1.0, 11)


def _bump(grid, zero_at=None):
    """A custom Gaussian bump on ``grid`` that decays at its ends, set to 0 at node ``zero_at``."""
    values = np.exp(-0.5 * ((grid.nodes - 0.5) / 0.1) ** 2)
    if zero_at is not None:
        values[zero_at] = 0.0
    return ib.WeightFunction(grid, values, np.zeros(grid.n_points), "custom")


#: Inadmissible weights and bound kinds: the call on the discrete model under
#: a uniform prior on [0, 1], and the InvalidWeightError message it raises.
_WEIGHT_GUARDS = {
    "weight-on-another-grid": (
        lambda m, p: ib.mi_chain_values(m, p, ib.boxcar_weight(ib.ParameterGrid(0.0, 2.0, 11))),
        "weight and prior must share one grid",
    ),
    "weight-zero-where-the-prior-is-positive": (
        lambda m, p: ib.bound_general(m, p, _bump(p.grid, zero_at=5), 0, 0.3),
        "weight must be positive wherever the prior is",
    ),
    "unknown-bound-kind": (
        lambda m, p: ib.bound_sweep(m, p, "theorem9", [0], [0.5]),
        "unknown bound kind 'theorem9'; expected one of ('theorem1', 'theorem2', 'general')",
    ),
    "general-without-a-weight": (
        lambda m, p: ib.bound_sweep(m, p, "general", [0], [0.5]),
        "bound_kind 'general' requires an explicit weight",
    ),
}


@pytest.mark.parametrize("case", list(_WEIGHT_GUARDS))
def test_inadmissible_weight_raises_invalid_weight_error(case):
    call, message = _WEIGHT_GUARDS[case]
    with pytest.raises(ib.InvalidWeightError, match="^" + re.escape(message) + "$"):
        call(*_discrete_on_unit_grid())


def test_general_zero_weight_at_theta():
    model, prior, weight = _hat_problem()
    with pytest.raises(ib.ZeroWeightError):
        ib.bound_general(model, prior, weight, 0, 0.05)


#: theta samples from below the grid, through the region where the weight
#: (and, nearer the centre, the prior) vanishes, to the inside and beyond.
_HAT_THETAS = (-0.1, 0.05, 0.2, 0.3, 0.5, 0.8, 0.9, 1.1)


@pytest.mark.parametrize(
    "kind, reasons",
    [
        (
            "general",
            ["OutsideSupportError", "ZeroWeightError", "ok", "ok", "ok", "ok", "ZeroWeightError",
             "OutsideSupportError"],
        ),
        (
            "theorem2",  # the prior-matched weight vanishes where the prior does
            ["OutsideSupportError", "OutsideSupportError", "OutsideSupportError", "ok", "ok",
             "OutsideSupportError", "OutsideSupportError", "OutsideSupportError"],
        ),
    ],
)
def test_sweep_skip_reasons_follow_the_point_order(kind, reasons):
    model, prior, weight = _hat_problem()
    wt = weight if kind == "general" else ib.prior_weight(prior)
    reports, skipped = ib.bound_sweep(model, prior, kind, [0, 1], _HAT_THETAS, weight=weight)
    by_point = {(r.x, r.theta): r for r in reports}
    by_point.update({(s.x, s.theta): s.reason for s in skipped})
    for x in (0, 1):
        got = [by_point[x, t] for t in _HAT_THETAS]
        assert [p if isinstance(p, str) else "ok" for p in got] == reasons
        for theta, point in zip(_HAT_THETAS, got):
            if isinstance(point, str):
                with pytest.raises(getattr(ib, point)):
                    ib.bound_general(model, prior, wt, x, theta)
            else:
                assert point == ib.bound_general(model, prior, wt, x, theta)


def test_theorem1_sweep_skips_theta_outside_the_support(langevin_uniform):
    # theta <= 0 is never handed to the model, whose log-density would warn there
    model, prior = langevin_uniform
    thetas = [-0.5, 0.3, 0.5, 1.0, 1.5, 1.5 + 1e-9]
    reports, skipped = ib.bound_sweep(model, prior, "theorem1", [0.0, 1.0], thetas)
    assert [(r.x, r.theta) for r in reports] == [(x, t) for x in (0.0, 1.0) for t in (0.5, 1.0, 1.5)]
    assert [(s.x, s.theta, s.reason) for s in skipped] == [
        (x, t, "ThetaOutsideSupportError") for x in (0.0, 1.0) for t in (-0.5, 0.3, 1.5 + 1e-9)
    ]


# ---------------------------------------------------------------------------
# ensemble-average bounds and the dominance chain
# ---------------------------------------------------------------------------


def test_mi_bound_average_theta_independent_boxcar(flat3):
    # zero Fisher information; only the boundary jumps contribute
    prior = ib.uniform_prior(0.0, 1.0, 501)
    value = ib.mi_bound_average(flat3, prior, ib.boxcar_weight(prior.grid))
    assert value == pytest.approx(math.log(2.0), abs=1e-12)


def test_mi_bound_average_qubit_closed_form(qubit):
    model, _, prior = qubit
    value = ib.mi_bound_average(model, prior, ib.boxcar_weight(prior.grid))
    # unit Fisher information: log(2 + pi/2) up to the zero-probability node
    assert value == pytest.approx(math.log(2 + math.pi / 2), abs=2e-4)
    assert value >= ib.mutual_information(model, prior)


def test_mi_bound_average_langevin_closed_form(langevin_uniform):
    model, prior = langevin_uniform
    value = ib.mi_bound_average(model, prior, ib.boxcar_weight(prior.grid))
    # sqrt(F) = 1/(sqrt(2) theta): log(2 + ln(3)/sqrt(2))
    assert value == pytest.approx(math.log(2 + math.log(3.0) / math.sqrt(2)), abs=1e-5)


@pytest.mark.parametrize("scenario", ["langevin-boxcar", "langevin-prior", "qubit-boxcar"])
def test_dominance_chain(scenario, langevin_uniform, langevin_gaussian, qubit):
    if scenario == "langevin-boxcar":
        model, prior = langevin_uniform
        weight, sens = ib.boxcar_weight(prior.grid), None
    elif scenario == "langevin-prior":
        model, prior = langevin_gaussian
        weight, sens = ib.prior_weight(prior), None
    else:
        model, sens, prior = qubit
        weight = ib.boxcar_weight(prior.grid)
    mi, avg, top = ib.mi_chain_values(model, prior, weight, sens)
    assert mi <= avg + 1e-6
    assert avg <= top + 1e-6
    assert mi >= -1e-6


def test_average_pointwise_bound_matches_direct_average(qubit):
    # oracle: brute-force joint average of per-point bound values
    model, sens, prior = qubit
    weight = ib.boxcar_weight(prior.grid)
    thetas = prior.grid.nodes
    direct = 0.0
    for x in model.outcome_space.outcomes:
        pdf = np.exp(np.asarray(model.log_pdf(x, thetas)))
        reports = {}
        profile_bound = None
        bounds = np.empty(thetas.size)
        for i, t in enumerate(thetas):
            if pdf[i] == 0.0:
                bounds[i] = 0.0
                continue
            if profile_bound is None:
                profile_bound = ib.bound_theorem1(model, prior, x, float(t), sens).bound
            bounds[i] = profile_bound
        direct += ib.quadrature(prior.density * pdf * bounds, prior.grid)
    shortcut = ib.average_pointwise_bound(model, prior, weight, sens)
    assert shortcut == pytest.approx(direct, abs=1e-10)


def test_average_pointwise_bound_unnormalized_outcome_grid():
    model = ib.langevin_model(1.0)
    prior = ib.uniform_prior(0.02, 1.5)
    with pytest.raises(ib.UnnormalizedOutcomeSpaceError, match="theta=0.02"):
        ib.average_pointwise_bound(model, prior, ib.boxcar_weight(prior.grid))


#: The NumPy version the chain records below were taken with. Under any other
#: they agree within CHAIN_RTOL relative (as in test_reports.py).
RECORDED_NUMPY = "2.4.6"
CHAIN_RTOL = 1e-12

#: name -> ((mutual information, averaged pointwise bound, ensemble bound),
#: Fisher information at a quarter, half and three quarters of the grid span).
CHAIN_RECORDS = {
    "langevin-gaussian-prior": (
        (0.011398441999742067, 1.203757855564239, 1.226114575677969),
        (1.3775047642489522, 0.34494850664579824, 0.15339537581255902),
    ),
    "langevin-gaussian-bump": (
        (0.011398441999742067, 3.818997907009336, 3.824731678990974),
        (1.3775047642489522, 0.34494850664579824, 0.15339537581255902),
    ),
    "langevin-uniform-boxcar": (
        (0.022814278890199175, 0.8960144207177728, 1.0213122406481623),
        (0.8888888888888885, 0.4999999999999993, 0.31999999999999923),
    ),
    "qubit-sensitivity": (
        (0.08765229724308082, 1.2683259027583358, 1.2726786503847314),
        (1.0, 0.9999999999999998, 1.0),
    ),
    "qubit-squared-score": (
        (0.08765229724308082, 1.0411558222633497, 1.2726786503847314),
        (1.0, 0.9999999999999998, 1.0),
    ),
    "discrete20-boxcar": (
        (0.20493452159457745, 1.3059387742721786, 1.467111507297589),
        (1.2740239859521916, 1.6829405542153808, 1.554881198224547),
    ),
    "discrete20-prior": (
        (0.06670593905514183, 1.2614390152239843, 1.3458392378613677),
        (0.7972403291285636, 1.6829405542153808, 0.9610858879453842),
    ),
}


def _chain_inputs(name, langevin_uniform, langevin_gaussian, qubit):
    """(model, prior, weight, sensitivity) of a recorded chain."""
    if name.startswith("langevin-gaussian"):
        model, prior = langevin_gaussian
        bump = ib.gaussian_weight(prior.grid, 1.0, 0.08)
        return model, prior, ib.prior_weight(prior) if name.endswith("prior") else bump, None
    if name == "langevin-uniform-boxcar":
        model, prior = langevin_uniform
        return model, prior, ib.boxcar_weight(prior.grid), None
    if name.startswith("qubit"):
        model, sens, prior = qubit
        return model, prior, ib.boxcar_weight(prior.grid), sens if name.endswith("sensitivity") else None
    # 20 outcomes on 2001 nodes: two blocks of the joint table
    rng = np.random.default_rng(20)
    model = ib.discrete_exponential_model(rng.normal(size=20), rng.normal(size=20))
    if name.endswith("boxcar"):
        prior = ib.uniform_prior(-1.0, 1.0)
        return model, prior, ib.boxcar_weight(prior.grid), None
    prior = ib.gaussian_prior(0.0, 0.3)
    return model, prior, ib.prior_weight(prior), None


@pytest.mark.parametrize("name", list(CHAIN_RECORDS))
def test_chain_values_match_the_record(name, langevin_uniform, langevin_gaussian, qubit):
    # one pass, same sums: the chain agrees with its three functions bit for
    # bit, and all of them with the record
    model, prior, weight, sens = _chain_inputs(name, langevin_uniform, langevin_gaussian, qubit)
    chain = ib.mi_chain_values(model, prior, weight, sens)
    assert chain == (
        ib.mutual_information(model, prior),
        ib.average_pointwise_bound(model, prior, weight, sens),
        ib.mi_bound_average(model, prior, weight),
    )
    grid = prior.grid
    fisher = ib.fisher_information(model, grid.theta_min + grid.span * np.array([0.25, 0.5, 0.75]))
    recorded_chain, recorded_fisher = CHAIN_RECORDS[name]
    got, recorded = (*chain, *fisher.tolist()), (*recorded_chain, *recorded_fisher)
    if np.__version__ == RECORDED_NUMPY:
        assert got == recorded
    else:
        assert got == pytest.approx(recorded, rel=CHAIN_RTOL, abs=0.0)


def test_qubit_chain_masks_zero_probability_before_multiplying(qubit):
    # theta = 0 is a zero-probability node of the "-" outcome
    model, sens, prior = qubit
    with np.errstate(all="raise"):
        ib.mutual_information(model, prior)
        ib.mi_chain_values(model, prior, ib.boxcar_weight(prior.grid), sens)


def _counting(model):
    """``model`` recording the result shape of each log_pdf and score call."""
    shapes = {"log_pdf": [], "score": []}

    def counted(name, fn):
        def wrapped(x, theta):
            out = fn(x, theta)
            shapes[name].append(np.shape(out))
            return out

        return wrapped

    wrapped = ib.ConditionalModel(
        counted("log_pdf", model.log_pdf),
        model.outcome_space,
        score=counted("score", model.score),
    )
    return wrapped, shapes


def test_mi_chain_evaluates_each_cell_once(langevin_uniform):
    model, prior = langevin_uniform
    counted, shapes = _counting(model)
    ib.mi_chain_values(counted, prior, ib.boxcar_weight(prior.grid))
    cells = model.outcome_space.n_x * prior.grid.n_points
    assert sum(math.prod(s) for s in shapes["log_pdf"]) == cells
    assert sum(math.prod(s) for s in shapes["score"]) == cells


@pytest.mark.parametrize("case", ["boxcar", "prior"])
def test_discrete_chain_does_not_depend_on_the_blocking(case, monkeypatch):
    # 20 outcomes on 2001 nodes take two blocks; the outcome sums run label
    # by label, so one outcome per block and one block for all agree bit for bit
    rng = np.random.default_rng(20)
    model = ib.discrete_exponential_model(rng.normal(size=20), rng.normal(size=20))
    prior = ib.uniform_prior(-1.0, 1.0) if case == "boxcar" else ib.gaussian_prior(0.0, 0.3)
    weight = ib.boxcar_weight(prior.grid) if case == "boxcar" else ib.prior_weight(prior)
    values = {ib.mi_chain_values(model, prior, weight)}
    for cells in (prior.grid.n_points, 20 * prior.grid.n_points):
        monkeypatch.setattr(ib.information, "_BLOCK_CELLS", cells)
        values.add(ib.mi_chain_values(model, prior, weight))
    assert len(values) == 1


def test_bound_sweep_evaluates_one_grid_row_per_outcome(langevin_uniform):
    model, prior = langevin_uniform
    counted, shapes = _counting(model)
    ib.bound_sweep(counted, prior, "theorem1", np.linspace(-2, 2, 3), np.linspace(0.6, 1.4, 4))
    row = (1, prior.grid.n_points)
    # one grid row per outcome for the bound's terms, one block of the
    # outcomes against the theta samples for the PMI
    assert shapes["log_pdf"] == [row] * 3 + [(3, 4)]
    assert shapes["score"] == [row] * 3


@pytest.mark.parametrize("case", ["boxcar", "prior"])
def test_average_pointwise_bound_explicit_sensitivity_on_outcome_grid(
    case, langevin_uniform, langevin_gaussian
):
    # the squared score as an explicit sensitivity reproduces the classical path
    model, prior = langevin_uniform if case == "boxcar" else langevin_gaussian
    weight = ib.boxcar_weight(prior.grid) if case == "boxcar" else ib.prior_weight(prior)

    def squared_score(x, theta):
        return np.square(model.score(x, theta))

    classical = ib.average_pointwise_bound(model, prior, weight)
    explicit = ib.average_pointwise_bound(model, prior, weight, squared_score)
    assert explicit == pytest.approx(classical, rel=1e-10)


def test_chain_holds_ordering():
    assert ib.chain_holds(0.1, 0.5, 0.6)
    assert not ib.chain_holds(0.5, 0.4, 0.6, 1e-9)
    assert not ib.chain_holds(0.1, 0.7, 0.6, 1e-9)
    assert ib.chain_holds(-0.1, 0.5, 0.5, 0)  # a negative value and a zero tolerance are numbers


@pytest.mark.parametrize("position, value", [
    *((position, value) for position in range(4) for value in ("a", None, True, 1j, math.nan, math.inf, -math.inf)),
    (3, -1.0),
])
def test_chain_holds_rejects_a_value_that_is_not_a_finite_number(position, value):
    args = [0.1, 0.5, 0.6, 1e-6]
    args[position] = value
    name = ("mi", "avg_bound", "avg_limit", "tolerance")[position]
    kind = "finite nonnegative" if name == "tolerance" else "finite"
    with pytest.raises(ib.InvalidParameterError, match=f"^{name} must be a {kind} number, got {re.escape(repr(value))}$"):
        ib.chain_holds(*args)


# ---------------------------------------------------------------------------
# One bad cell of a 2 x 2001 table: each check reads a reduction
# ---------------------------------------------------------------------------

#: Outcome "+" at theta = 0.51, where the weight below has a nonzero slope.
_BAD = (0, 1020)


def _two_outcome_tables():
    """(log p, score, squared score) of p(+|theta) = 1/4 + theta/2 against the
    nodes of the uniform prior on [0, 1], as (2, 2001) tables."""
    prior = ib.uniform_prior(0.0, 1.0)
    plus = 0.25 + 0.5 * prior.grid.nodes
    pdf = np.array([plus, 1.0 - plus])
    score = np.array([0.5 / plus, -0.5 / (1.0 - plus)])
    return prior, np.log(pdf), score, score * score


def _tabulated(logpdf, score):
    """A two-outcome model that reads (2, n) tables; only called on the grid."""

    def reader(table):
        return lambda x, theta: table[("+", "-").index(x)]

    return ib.ConditionalModel(reader(logpdf), ib.DiscreteOutcomes(("+", "-")), score=reader(score)), reader


#: name -> (table set to the bad value, the value, error, message)
_BAD_CELLS = {
    "score-nan": ("score", math.nan, ib.NonFiniteError, "kernel inputs are not finite"),
    "score-inf": ("score", math.inf, ib.NonFiniteError, "kernel inputs are not finite"),
    "score-minus-inf": ("score", -math.inf, ib.NonFiniteError, "kernel inputs are not finite"),
    "negative-sensitivity": ("sensitivity", -1.0, ib.NegativeLambdaError, "sensitivity must be nonnegative"),
    "negative-lambda": (
        "sensitivity", 0.0, ib.NegativeLambdaError, r"kernel is negative beyond tolerance: sensitivity < score\^2",
    ),
}


@pytest.mark.parametrize("name", list(_BAD_CELLS))
def test_one_bad_cell_raises_through_the_chain_and_the_kernel(name):
    table, value, error, message = _BAD_CELLS[name]
    prior, logpdf, score, sensitivity = _two_outcome_tables()
    (score if table == "score" else sensitivity)[_BAD] = value
    model, reader = _tabulated(logpdf, score)
    for weight in ib.gaussian_weight(prior.grid, 0.5, 0.1), ib.boxcar_weight(prior.grid):
        evaluators = (ib.mi_chain_values, ib.average_pointwise_bound)
        if name == "negative-lambda" and weight.kind == "boxcar":
            # with fdot = 0 the kernel is the sensitivity itself, here nonnegative
            ib.lambda_general(sensitivity, score, weight.values, weight.derivative)
            for evaluate in evaluators:
                evaluate(model, prior, weight, reader(sensitivity))
            continue
        # with fdot = 0 an infinite score makes 2*score*f*fdot NaN, and the
        # typed error still comes first, with no NumPy warning before it
        with pytest.raises(error, match=f"^{message}$"):
            ib.lambda_general(sensitivity, score, weight.values, weight.derivative)
        for evaluate in evaluators:
            with pytest.raises(error, match=f"^{message}$"):
                evaluate(model, prior, weight, reader(sensitivity))
        if table == "score":  # the classical kernel and the Fisher information
            with pytest.raises(ib.NonFiniteError, match="^sqrt\\(Lambda\\) is not finite at a positive-probability node$"):
                ib.mi_chain_values(model, prior, weight)
            with pytest.raises(ib.NonFiniteError, match="^squared score diverges at a positive-probability outcome$"):
                ib.mi_bound_average(model, prior, weight)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_one_non_finite_density_raises_through_the_chain(value):
    prior, logpdf, score, sensitivity = _two_outcome_tables()
    logpdf[_BAD] = value
    model, reader = _tabulated(logpdf, score)
    with pytest.raises(ib.NonFiniteError, match="^conditional density is not finite for outcome '\\+'$"):
        ib.mi_chain_values(model, prior, ib.boxcar_weight(prior.grid), reader(sensitivity))


def test_a_nan_on_a_zero_probability_cell_is_masked():
    # "+" has zero probability at theta = 0, where its log-density is -inf and
    # its score and sensitivity are NaN: the chain reads them as 0
    prior, logpdf, score, sensitivity = _two_outcome_tables()
    logpdf[:, 0] = -math.inf, 0.0
    weight = ib.gaussian_weight(prior.grid, 0.5, 0.1)
    chains = []
    for bad in (math.nan, 0.0):
        score[0, 0] = sensitivity[0, 0] = bad
        model, reader = _tabulated(logpdf.copy(), score.copy())
        chains.append(ib.mi_chain_values(model, prior, weight, reader(sensitivity.copy())))
    assert chains[0] == chains[1]
    assert all(math.isfinite(v) for v in chains[0])


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_theta_independent_no_violations(flat3):
    prior = ib.uniform_prior(0.0, 1.0, 501)
    reports, skipped = ib.bound_sweep(flat3, prior, "theorem1", [0, 1, 2], np.linspace(0.0, 1.0, 11))
    summary = ib.summarize_sweep(reports, n_skipped=len(skipped))
    assert summary.violations == 0
    assert summary.n_evaluations == 33
    assert summary.min_slack == pytest.approx(math.log(2.0), abs=1e-8)


def test_sweep_records_skipped_points(qubit):
    model, sens, prior = qubit
    reports, skipped = ib.bound_sweep(
        model, prior, "theorem1", ["+", "-"], np.linspace(0.0, math.pi / 2, 41),
        sensitivity=sens,
    )
    assert len(reports) == 81
    assert len(skipped) == 1
    assert skipped[0].x == "-" and skipped[0].theta == 0.0
    assert skipped[0].reason == "ZeroLikelihoodError"


@pytest.mark.parametrize("entry", ["pmi", "sfi", "bound_theorem1", "bound_sweep"])
def test_non_numeric_theta_raises_a_typed_error_naming_it(qubit, entry):
    model, sens, prior = qubit
    calls = {
        "pmi": lambda: ib.pmi(model, prior, "+", "abc"),
        "sfi": lambda: ib.sfi(model, "+", "abc"),
        "bound_theorem1": lambda: ib.bound_theorem1(model, prior, "+", "abc", sens),
        "bound_sweep": lambda: ib.bound_sweep(model, prior, "theorem1", ["+"], ["abc", 0.5], sensitivity=sens),
    }
    with pytest.raises(ib.InvalidParameterError, match="^theta is not a number: .*'abc'$"):
        calls[entry]()


def _sweep_case(case, langevin_uniform, langevin_gaussian):
    """(model, prior, kind, sensitivity, outcomes, thetas, skip reasons): rows
    that mix an outcome outside the space, theta outside the support and,
    on the qubit, zero likelihood, with points that pass."""
    qubit_thetas = [0.0, 0.3, 1.1, math.pi / 2, -0.1, 2.0, math.nan]
    if case.startswith("qubit"):
        axis = case.split("-")[1]
        povm = {"x": ib.sigma_x_povm, "y": ib.sigma_y_povm, "z": ib.sigma_z_povm}[axis]()
        model, sensitivity = ib.qubit_measurement_model(povm)
        prior = ib.uniform_prior(0.0, math.pi / 2)
        reasons = {"OutsideSupportError", "ThetaOutsideSupportError"}
        if axis != "z":  # sigma-x "-" at 0 and sigma-y "-" at pi/2 have probability 0
            reasons.add("ZeroLikelihoodError")
        sens = sensitivity if case.endswith("sensitivity") else None
        return model, prior, "theorem1", sens, ["+", "?", "-"], qubit_thetas, reasons
    if case == "langevin-theorem1":
        model, prior = langevin_uniform
        return model, prior, "theorem1", None, [0.0, "a", 1.0], [0.5, 0.7, 1.5, 0.3, 1.6, math.nan], {
            "InvalidParameterError", "ThetaOutsideSupportError"}
    if case == "langevin-theorem2":
        model, prior = langevin_gaussian
        return model, prior, "theorem2", None, [0.0, "a", 1.0], [0.9, 1.0, 1.3, 0.0, 2.5, math.nan], {
            "InvalidParameterError", "OutsideSupportError"}
    model = ib.discrete_exponential_model(np.log([0.2, 0.3, 0.5]), [-1.0, 0.0, 1.0])
    prior = ib.uniform_prior(-1.0, 1.0)
    return model, prior, "theorem1", None, [0, 5, 2], [-1.0, 0.0, 0.7, 1.5, math.nan], {
        "OutsideSupportError", "ThetaOutsideSupportError"}


_SWEEP_CASES = [
    *(f"qubit-{axis}{sens}" for axis in "xyz" for sens in ("", "-sensitivity")),
    "langevin-theorem1", "langevin-theorem2", "discrete",
]


@pytest.mark.parametrize("case", _SWEEP_CASES)
def test_point_path_matches_the_sweep_bit_for_bit(case, langevin_uniform, langevin_gaussian):
    # Each bound_general point is the sweep's report bit for bit, or raises the
    # error type the sweep skips it for; one-point and many-point bookkeeping agree.
    model, prior, kind, sensitivity, outcomes, thetas, reasons = _sweep_case(case, langevin_uniform, langevin_gaussian)
    weight = ib.boxcar_weight(prior.grid) if kind == "theorem1" else ib.prior_weight(prior)
    reports, skipped = ib.bound_sweep(model, prior, kind, outcomes, thetas, sensitivity=sensitivity)
    assert reports and {s.reason for s in skipped} == reasons
    reports, skipped = iter(reports), iter(skipped)
    for x in outcomes:
        for theta in thetas:
            try:
                point = ib.bound_general(model, prior, weight, x, theta, sensitivity)
            except ib.InfoBoundError as exc:
                skip = next(skipped)
                assert (skip.x, type(exc).__name__) == (x, skip.reason)
                assert repr(skip.theta) == repr(float(theta))
            else:
                assert repr(point) == repr(next(reports))  # repr tells every float bit
    assert next(reports, None) is None and next(skipped, None) is None


def _random_point_case(scenario, langevin_uniform, langevin_gaussian):
    """(model, sensitivity, finite-support prior, decaying prior, outcomes with
    one outside the space) of a scenario."""
    if scenario == "qubit":
        model, sensitivity = ib.qubit_measurement_model()
        return model, sensitivity, ib.uniform_prior(0.0, math.pi / 2), ib.gaussian_prior(0.8, 0.15), ["+", "-", "?"]
    if scenario == "langevin":
        return langevin_uniform[0], None, langevin_uniform[1], langevin_gaussian[1], [0.0, -0.7, 2.5, "a"]
    model = ib.discrete_exponential_model(np.log([0.2, 0.3, 0.5]), [-1.0, 0.0, 1.0])
    return model, None, ib.uniform_prior(-1.0, 1.0), ib.gaussian_prior(0.0, 0.3), [0, 1, 2, 7]


@pytest.mark.parametrize("weight_kind", ["boxcar", "prior", "gaussian"])
@pytest.mark.parametrize("scenario", ["qubit", "langevin", "discrete"])
def test_random_points_agree_with_the_sweep(scenario, weight_kind, langevin_uniform, langevin_gaussian):
    # Seeded random (x, theta) points, some of them off the grid or outside the
    # outcome space: each bound_general report is the sweep's report for that
    # point (repr tells every float bit), each error's type the sweep's reason.
    model, sensitivity, finite, decaying, outcomes = _random_point_case(scenario, langevin_uniform, langevin_gaussian)
    prior = decaying if weight_kind == "prior" else finite
    grid = prior.grid
    kind, weight = {
        "boxcar": ("theorem1", ib.boxcar_weight(grid)),
        "prior": ("theorem2", ib.prior_weight(prior)),
        "gaussian": ("general", ib.gaussian_weight(grid, grid.theta_min + grid.span / 2, grid.span / 10)),
    }[weight_kind]
    rng = np.random.default_rng([len(scenario), len(weight_kind)])
    thetas = [float(t) for t in rng.uniform(grid.theta_min - 0.1 * grid.span, grid.theta_max + 0.1 * grid.span, 12)]
    thetas += [grid.theta_min, grid.theta_max, float(grid.nodes[int(rng.integers(grid.n_points))])]
    points = [(outcomes[int(rng.integers(len(outcomes)))], theta) for theta in thetas for _ in range(2)]
    reports, skipped = ib.bound_sweep(model, prior, kind, outcomes, thetas, weight, sensitivity)
    swept = {(repr(r.x), r.theta): repr(r) for r in reports}
    swept.update({(repr(s.x), s.theta): s.reason for s in skipped})
    assert len(swept) == len(outcomes) * len(thetas) and reports and skipped
    for x, theta in points:
        try:
            point = repr(ib.bound_general(model, prior, weight, x, theta, sensitivity))
        except ib.InfoBoundError as exc:
            point = type(exc).__name__
        assert point == swept[repr(x), theta]


def test_sweep_rejects_theta_samples_that_are_not_one_dimensional(qubit):
    model, sens, prior = qubit
    for thetas in ([[0.1, 0.2]], [[0.1], [0.2]], 0.3):
        with pytest.raises(ib.InvalidParameterError, match="^theta samples must be a 1-D sequence of numbers"):
            ib.bound_sweep(model, prior, "theorem1", ["+"], thetas, sensitivity=sens)


def test_boxcar_theta_check_reads_the_support_with_its_slop(langevin_uniform):
    # Inside within slop = 1e-12 * max(1, span); NaN and infinity are outside.
    model, prior = langevin_uniform
    grid = prior.grid
    slop = 1e-12 * max(1.0, grid.span)
    inside = [grid.theta_min - slop / 2, grid.theta_max + slop / 2]
    outside = [grid.theta_min - 2 * slop, grid.theta_max + 2 * slop, math.nan, math.inf, -math.inf]
    for theta in inside:
        assert ib.bound_theorem1(model, prior, 0.0, theta).theta == theta
    for theta in outside:
        message = f"theta={theta} outside the finite support [0.5, 1.5]"
        with pytest.raises(ib.ThetaOutsideSupportError, match=f"^{re.escape(message)}$"):
            ib.bound_theorem1(model, prior, 0.0, theta)
    reports, skipped = ib.bound_sweep(model, prior, "theorem1", [0.0], inside + outside)
    assert [r.theta for r in reports] == inside
    assert [s.reason for s in skipped] == ["ThetaOutsideSupportError"] * len(outside)


def test_sweep_deterministic_order(langevin_uniform):
    model, prior = langevin_uniform
    xs = np.linspace(-2, 2, 5)
    ts = np.linspace(0.6, 1.4, 4)
    r1, _ = ib.bound_sweep(model, prior, "theorem1", xs, ts)
    r2, _ = ib.bound_sweep(model, prior, "theorem1", xs, ts)
    assert r1 == r2
    assert [(r.x, r.theta) for r in r1] == [(float(x), float(t)) for x in xs for t in ts]


def test_sweep_matches_scalar_evaluation_bitwise(langevin_gaussian):
    # the theta rows reproduce one scalar log_pdf and one scalar interpolation per point
    model, prior = langevin_gaussian
    reports, skipped = ib.bound_sweep(
        model, prior, "theorem2", [-1.5, 0.0, 2.5], np.linspace(0.6, 1.6, 7)
    )
    assert len(reports) == 21 and not skipped
    for r in reports:
        log_px = float(np.log(ib.marginal(model, prior, r.x)))
        assert r.pmi == float(model.log_pdf(r.x, r.theta)) - log_px
        assert r.penalty_term == ib.surprisal(prior, r.theta)
        assert r.bound == float(np.log(r.boundary_term + r.integral_term)) + r.penalty_term


def test_summarize_sweep_validation():
    with pytest.raises(ib.InfoBoundError):
        ib.summarize_sweep([], 1e-6)
    report = ib.BoundReport(0, 0.5, 0.1, 0.2, 0.1, 0.0, 1.0, 0.0)
    violating = ib.BoundReport(0, 0.5, 0.1, 0.0, -0.1, 0.0, 1.0, 0.0)
    for reports, tolerance in (([report], 0.0), ([violating], math.nan), ([], "a"), ([report], 1j)):
        with pytest.raises(ib.InvalidParameterError, match="^tolerance must be positive$"):
            ib.summarize_sweep(reports, tolerance)
    s = ib.summarize_sweep([report], 1e-6, n_skipped=2)
    assert s.n_evaluations == 1 and s.n_skipped == 2 and s.violations == 0


def test_grid_refinement_stability(langevin_uniform):
    # quadrature convergence: doubling the resolution barely moves bounds
    model, prior = langevin_uniform
    fine_prior = ib.uniform_prior(0.5, 1.5, 2 * prior.grid.n_points - 1)
    for x, theta in ((0.0, 1.0), (2.0, 0.8)):
        coarse = ib.bound_theorem1(model, prior, x, theta).bound
        fine = ib.bound_theorem1(model, fine_prior, x, theta).bound
        assert abs(fine - coarse) / max(1.0, abs(coarse)) < 1e-4


# ---------------------------------------------------------------------------
# kept outcome terms
# ---------------------------------------------------------------------------


def _kept_rows():
    return ib.models._kept_call.cache_info()


def _kept_case(case: str, finite: bool):
    """(model, sensitivity, prior, points) of a scenario, on a finite-support
    prior or a decaying one."""
    if case == "langevin":
        prior = ib.uniform_prior(0.5, 1.5) if finite else ib.gaussian_prior(1.0, 0.2, lower=1e-3)
        return ib.langevin_model(1.0), None, prior, [(0.3, 0.9), (-1.7, 1.2)]
    if case == "qubit":
        model, sensitivity = ib.qubit_measurement_model()
        points = [("+", 0.7), ("-", 0.81)]
        if finite:
            return model, sensitivity, ib.uniform_prior(0.0, math.pi / 2), points
        # the smooth weights run on the squared score
        return model, None, ib.gaussian_prior(math.pi / 4, math.pi / 20), points
    model = ib.discrete_exponential_model(np.log([0.2, 0.3, 0.5]), [-1.0, 0.0, 1.0])
    prior = ib.uniform_prior(0.0, 1.0) if finite else ib.gaussian_prior(0.5, 0.1)
    return model, None, prior, [(0, 0.4), (2, 0.45)]


@pytest.mark.parametrize("case", ["langevin", "qubit", "discrete"])
@pytest.mark.parametrize("kind", ["theorem1", "theorem2", "general"])
def test_kept_outcome_terms_give_the_cold_report_bit_for_bit(case, kind):
    model, sens, prior, points = _kept_case(case, finite=kind == "theorem1")
    weight = {
        "theorem1": ib.boxcar_weight(prior.grid),
        "theorem2": ib.prior_weight(prior),
        "general": ib.gaussian_weight(prior.grid, prior.grid.nodes.mean(), prior.grid.span / 10),
    }[kind]
    for x, theta in points:
        # a new model object over the same callables: no kept row applies
        fresh = ib.ConditionalModel(model.log_pdf, model.outcome_space, score=model.score)
        cold = repr(ib.bound_general(fresh, prior, weight, x, theta, sens))
        first = repr(ib.bound_general(model, prior, weight, x, theta, sens))
        before = _kept_rows()
        warm = repr(ib.bound_general(model, prior, weight, x, theta, sens))
        # a warm call reads its kept weight check and outcome terms and nothing else
        assert (_kept_rows().hits, _kept_rows().misses) == (before.hits + 2, before.misses)
        assert first == warm == cold


def test_failing_outcome_row_raises_again_on_each_call():
    # outcome 1 never occurs, so its marginal is degenerate
    def log_pdf(x, theta):
        return (0.0 if x == 0 else -np.inf) + 0.0 * np.asarray(theta)

    def score(x, theta):
        return 0.0 * np.asarray(theta)

    model = ib.ConditionalModel(log_pdf, ib.DiscreteOutcomes((0, 1)), score=score)
    prior = ib.uniform_prior(0.0, 1.0, 101)
    counted, shapes = _counting(model)
    messages = []
    for _ in range(3):
        with pytest.raises(ib.DegenerateMarginalError) as err:
            ib.bound_theorem1(counted, prior, 1, 0.5)
        messages.append(str(err.value))
    assert messages == ["marginal probability of 1 is degenerate"] * 3
    # the grid table is kept after the first call, and the row of outcome 1
    # raises again from it on each call
    assert shapes["log_pdf"] == [(prior.grid.n_points,)] * 2


def test_kept_outcome_rows_stay_bounded():
    model, prior = ib.langevin_model(1.0), ib.uniform_prior(0.5, 1.5, 201)
    weight = ib.boxcar_weight(prior.grid)
    for x in np.linspace(-3.0, 3.0, 3 * ib.models._KEPT_ROWS):
        ib.bound_general(model, prior, weight, float(x), 1.0)
        assert _kept_rows().currsize <= ib.models._KEPT_ROWS
    # a label that cannot be hashed bypasses the memo and gives the same
    # report; only the weight check is read from it
    before = _kept_rows()
    report = ib.bound_general(model, prior, weight, np.array(0.5), 1.0)
    after = _kept_rows()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    hashed = ib.bound_general(model, prior, weight, 0.5, 1.0)
    assert repr(dataclasses.replace(report, x=0.5)) == repr(hashed)


def test_warm_demon_record_and_pmi_make_one_point_query(langevin_uniform):
    model, prior = langevin_uniform
    counted, shapes = _counting(model)
    record = ib.DemonRecord(1.0, 0.1, 0.0, 0.4, 0.8)
    cold = ib.demon_work_check(record, counted, prior)
    ib.pmi(counted, prior, 0.4, 0.8)
    for _ in range(2):
        for values in shapes.values():
            values.clear()
        assert ib.demon_work_check(record, counted, prior) == cold
        assert shapes == {"log_pdf": [(1, 1)], "score": []}
        shapes["log_pdf"].clear()
        assert ib.pmi(counted, prior, 0.4, 0.8) == cold.pmi
        assert shapes == {"log_pdf": [(1, 1)], "score": []}


def _three_outcomes():
    return ib.discrete_exponential_model([0.1, 0.2, -0.3], [1.0, -0.5, 0.3])


def test_negative_label_is_outside_a_discrete_space():
    # NumPy would index outcome 2 with -1 and report it as outcome -1
    model, prior = _three_outcomes(), ib.uniform_prior(-1.0, 1.0, 201)
    with pytest.raises(ib.OutsideSupportError, match="outcome -1 is not in the outcome space"):
        ib.bound_theorem1(model, prior, -1, 0.2)
    reports, skipped = ib.bound_sweep(model, prior, "theorem1", [2, -1], [0.2, 0.4])
    assert [r.x for r in reports] == [2, 2]
    assert [(p.x, p.theta, p.reason) for p in skipped] == [
        (-1, 0.2, "OutsideSupportError"), (-1, 0.4, "OutsideSupportError"),
    ]


@pytest.mark.parametrize("n_points", [201, 20001])
def test_label_past_the_last_outcome_raises_a_typed_error(n_points):
    # 201 nodes read the kept grid table, 20001 a table of the one outcome
    model, prior = _three_outcomes(), ib.uniform_prior(-1.0, 1.0, n_points)
    calls = (
        lambda: ib.bound_theorem1(model, prior, 5, 0.2),
        lambda: ib.pmi(model, prior, 5, 0.2),
        lambda: ib.marginal(model, prior, 5),
        lambda: ib.sfi(model, 5, 0.2),
        lambda: ib.sqrt_lambda_nodes(model, ib.boxcar_weight(prior.grid), 5),
    )
    for call in calls:
        with pytest.raises(ib.OutsideSupportError, match="outcome 5 is not in the outcome space"):
            call()


def test_weight_check_is_kept_per_prior_and_weight(langevin_uniform, monkeypatch):
    model, prior = langevin_uniform
    weight = ib.gaussian_weight(prior.grid, 1.0, 0.08)
    ib.bound_general(model, prior, weight, 0.0, 1.0)
    # with no decay allowed a fresh check fails; the pair that passed is not checked again
    monkeypatch.setattr(ib.bounds, "BOUNDARY_DECAY_RTOL", 0.0)
    ib.bound_general(model, prior, weight, 0.3, 1.1)
    same = ib.gaussian_weight(prior.grid, 1.0, 0.08)
    for _ in range(2):  # a failing pair raises on every call
        with pytest.raises(ib.InvalidWeightError, match="does not vanish"):
            ib.bound_general(model, prior, same, 0.0, 1.0)
    # the kept check belongs to one prior: the same weight and grid under another prior
    unbounded = dataclasses.replace(prior, support=ib.models.TruncatedInfinite(0.0))
    boxcar = ib.boxcar_weight(prior.grid)
    ib.bound_general(model, prior, boxcar, 0.0, 1.0)
    for _ in range(2):
        with pytest.raises(ib.InvalidWeightError, match="finite-support prior"):
            ib.bound_general(model, unbounded, boxcar, 0.0, 1.0)
