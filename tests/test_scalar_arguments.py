"""Every public scalar argument refuses a bad value with a typed error.

Each case keeps the other arguments of its call valid and feeds one argument
a value that is not a finite real number: NaN, an infinity, a complex
number, a string, a bool, or None where None is not its default. Every such
call must raise an :class:`InfoBoundError` subclass; a ``RuntimeWarning`` on
the way fails the test too (see ``filterwarnings`` in pyproject.toml).
Examples are derandomized, so every run feeds the same values.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infobounds as ib

BAD = (math.nan, math.inf, -math.inf, 1j, "a", True)

MODEL = ib.langevin_model(1.0, 0.5, n_x=101)
PRIOR = ib.uniform_prior(0.5, 1.5, 101)
GRID = PRIOR.grid
FAMILY = ib.qubit_phase_family()
REPORT = ib.BoundReport(0, 0.5, 0.1, 0.2, 0.1, 0.0, 1.0, 0.0)


def _qubit_check(tolerance):
    model, prior = ib.qubit_measurement_model()
    record = ib.DemonRecord(1.0, 0.0, 0.0, "+", 0.5)
    return ib.demon_work_check(record, model, prior, tolerance=tolerance)


def _positional(fn, valid: tuple):
    """One case per position of ``valid``, named by ``fn``'s parameters, that
    calls ``fn`` with the bad value in that position."""
    names = fn.__code__.co_varnames[: len(valid)]
    return {
        f"{fn.__name__}-{name}": (lambda bad, i=i: fn(*valid[:i], bad, *valid[i + 1:]))
        for i, name in enumerate(names)
    }


#: Each case: argument name -> (call of the bad value, whether None is its default).
CASES = {
    **{name: (call, False) for name, call in {
        **_positional(ib.uniform_prior, (0.5, 1.5, 11)),
        **_positional(ib.gaussian_prior, (1.0, 0.2, 11, 1e-12)),
        **_positional(ib.gamma_prior, (3.0, 0.5, 2001, 1e-12)),
        **_positional(ib.langevin_model, (1.0, 0.5, 11)),
        "gaussian_weight-center": lambda bad: ib.gaussian_weight(GRID, bad, 0.1),
        "gaussian_weight-width": lambda bad: ib.gaussian_weight(GRID, 1.0, bad),
        "ParameterGrid-theta_min": lambda bad: ib.ParameterGrid(bad, 1.0, 11),
        "ParameterGrid-theta_max": lambda bad: ib.ParameterGrid(0.0, bad, 11),
        "ParameterGrid-n_points": lambda bad: ib.ParameterGrid(0.0, 1.0, bad),
        "ContinuousOutcomes-x_min": lambda bad: ib.ContinuousOutcomes(bad, 1.0, 11),
        "ContinuousOutcomes-x_max": lambda bad: ib.ContinuousOutcomes(0.0, bad, 11),
        "ContinuousOutcomes-n_x": lambda bad: ib.ContinuousOutcomes(0.0, 1.0, bad),
        "DemonRecord-beta": lambda bad: ib.DemonRecord(bad, 0.0, 0.0, "+", 0.5),
        "DemonRecord-work_extracted": lambda bad: ib.DemonRecord(1.0, bad, 0.0, "+", 0.5),
        "DemonRecord-delta_free_energy": lambda bad: ib.DemonRecord(1.0, 0.0, bad, "+", 0.5),
        "DemonRecord-theta": lambda bad: ib.DemonRecord(1.0, 0.0, 0.0, "+", bad),
        "chain_holds-tolerance": lambda bad: ib.chain_holds(0.1, 0.2, 0.3, bad),
        "summarize_sweep-tolerance": lambda bad: ib.summarize_sweep([REPORT], bad),
        "demon_work_check-tolerance": _qubit_check,
        "pmi-theta": lambda bad: ib.pmi(MODEL, PRIOR, 0.1, bad),
        "sfi-theta": lambda bad: ib.sfi(MODEL, 0.1, bad),
        "surprisal-theta": lambda bad: ib.surprisal(PRIOR, bad),
        "bound_theorem1-theta": lambda bad: ib.bound_theorem1(MODEL, PRIOR, 0.1, bad),
        "bound_theorem2-theta": lambda bad: ib.bound_theorem2(MODEL, PRIOR, 0.1, bad),
        "fisher_information-theta": lambda bad: ib.fisher_information(MODEL, bad),
        "qfi-theta": lambda bad: ib.qfi(FAMILY, bad),
        "cqfi-theta": lambda bad: ib.cqfi(FAMILY, ib.sigma_x_povm(), 0, bad),
    }.items()},
    "gaussian_prior-lower": (lambda bad: ib.gaussian_prior(1.0, 0.2, lower=bad), True),
    "gaussian_prior-upper": (lambda bad: ib.gaussian_prior(1.0, 0.2, upper=bad), True),
    "Prior-tail_mass_bound": (lambda bad: ib.Prior(GRID, PRIOR.density, PRIOR.derivative, bad), True),
}


@pytest.mark.parametrize("case", list(CASES))
@settings(max_examples=50, derandomize=True, deadline=None)
@given(bad=st.sampled_from(BAD + (None,)))
def test_a_bad_scalar_argument_raises_a_typed_error(case, bad):
    call, none_is_default = CASES[case]
    if bad is None and none_is_default:
        call(bad)
        return
    with pytest.raises(ib.InfoBoundError):
        call(bad)


@pytest.mark.parametrize("x_samples", [None, 5])
@settings(max_examples=10, derandomize=True, deadline=None)
@given(bound_kind=st.sampled_from(["theorem1", "theorem2"]))
def test_bound_sweep_refuses_x_samples_that_are_not_a_sequence(x_samples, bound_kind):
    prior = ib.gaussian_prior(1.0, 0.1, 101) if bound_kind == "theorem2" else PRIOR
    with pytest.raises(ib.InvalidParameterError, match="^x_samples must be a sequence of outcomes, got "):
        ib.bound_sweep(MODEL, prior, bound_kind, x_samples, [1.0])

