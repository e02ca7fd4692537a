"""The package's public names: each the object its submodule defines, read
afresh on every access."""

import sys

import pytest

import infobounds as ib

#: The public names of ``infobounds``.
PUBLIC_NAMES = [
    "BoundReport", "ConditionalModel", "ConfigError", "ContinuousOutcomes",
    "DegenerateMarginalError", "DemonCheck", "DemonRecord", "DimensionMismatchError",
    "DiscreteOutcomes", "IllConditionedError", "InfoBoundError",
    "InvalidParameterError", "InvalidWeightError", "LengthMismatchError", "MeasuredStateFamily",
    "NegativeLambdaError", "NonFiniteError", "NonPositiveDiffusionError", "OutsideSupportError",
    "ParameterGrid", "Povm", "Prior", "SkippedPoint", "StateFamily", "SweepSummary",
    "ThetaOutsideSupportError", "UnnormalizedOutcomeSpaceError",
    "WeightFunction", "ZeroLikelihoodError", "ZeroOutcomeProbabilityError", "ZeroWeightError",
    "average_pointwise_bound", "bound_general", "bound_sweep", "bound_theorem1",
    "bound_theorem2", "boxcar_weight", "chain_holds", "cqfi", "demon_work_check",
    "discrete_exponential_model", "fisher_information", "gamma_prior", "gaussian_prior",
    "gaussian_weight", "lambda_general", "langevin_model", "marginal", "mi_bound_average",
    "mi_chain_values", "mutual_information", "pmi", "prior_weight", "qfi", "quadrature",
    "quantum_conditional_model", "qubit_measurement_model", "qubit_phase_family",
    "qubit_phase_scenario", "sfi", "sigma_x_povm", "sigma_y_povm", "sigma_z_povm", "sld",
    "sqrt_lambda_nodes", "summarize_sweep", "surprisal", "uniform_prior",
    "validate_povm",
]

SUBMODULES = ("bounds", "errors", "grids", "information", "models", "quantum", "scenarios")


def test_all_lists_the_public_names():
    assert ib.__all__ == PUBLIC_NAMES


def test_each_name_is_the_object_of_its_defining_submodule():
    for name in PUBLIC_NAMES:
        obj = getattr(ib, name)
        assert obj.__module__.split(".")[0] == "infobounds", name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_star_import_and_dir_give_every_name():
    namespace = {}
    exec("from infobounds import *", namespace)
    assert set(PUBLIC_NAMES) <= namespace.keys()
    assert set(PUBLIC_NAMES) <= set(dir(ib))


def test_unknown_name_raises_and_submodules_are_the_loaded_modules():
    with pytest.raises(AttributeError, match="no_such_name"):
        ib.no_such_name
    for name in SUBMODULES:
        assert getattr(ib, name) is sys.modules[f"infobounds.{name}"], name


def test_a_name_replaced_in_its_submodule_is_replaced_in_the_package(monkeypatch):
    original = ib.bound_sweep
    monkeypatch.setattr(ib.bounds, "bound_sweep", len)
    assert ib.bound_sweep is len
    monkeypatch.undo()
    assert ib.bound_sweep is original
