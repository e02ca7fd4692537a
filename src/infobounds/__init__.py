"""Numerical toolkit for pointwise information bounds.

Evaluates the pointwise mutual information and the stochastic Fisher
information of parametric measurement models, verifies the trajectory-level
upper bounds that relate them (classically through the squared score,
quantum-mechanically through the per-outcome sensitivity of the symmetric
logarithmic derivative), and demonstrates how those pointwise bounds average
into the familiar ensemble mutual-information bound.

``import infobounds`` runs only :mod:`infobounds.errors` and loads no NumPy.
Every other submodule is in ``sys.modules`` from the start and runs on its
first attribute access, whether through a public name of the package or
through the module itself.
"""

import importlib.util
import operator
import sys
import types

from . import errors

#: Public names by the submodule that defines them.
_EXPORTS = {
    "bounds": (
        "BoundReport",
        "SkippedPoint",
        "SweepSummary",
        "average_pointwise_bound",
        "bound_general",
        "bound_sweep",
        "bound_theorem1",
        "bound_theorem2",
        "chain_holds",
        "lambda_general",
        "mi_bound_average",
        "mi_chain_values",
        "sqrt_lambda_nodes",
        "summarize_sweep",
    ),
    "errors": (
        "ConfigError",
        "DegenerateMarginalError",
        "DimensionMismatchError",
        "IllConditionedError",
        "InfoBoundError",
        "InvalidParameterError",
        "InvalidWeightError",
        "LengthMismatchError",
        "NegativeLambdaError",
        "NonFiniteError",
        "NonPositiveDiffusionError",
        "OutsideSupportError",
        "ThetaOutsideSupportError",
        "UnnormalizedOutcomeSpaceError",
        "ZeroLikelihoodError",
        "ZeroOutcomeProbabilityError",
        "ZeroWeightError",
    ),
    "grids": ("ParameterGrid", "quadrature"),
    "information": (
        "fisher_information",
        "marginal",
        "mutual_information",
        "pmi",
        "sfi",
        "surprisal",
    ),
    "models": (
        "ConditionalModel",
        "ContinuousOutcomes",
        "DiscreteOutcomes",
        "FiniteSupport",
        "Prior",
        "TruncatedInfinite",
        "WeightFunction",
        "boxcar_weight",
        "gamma_prior",
        "gaussian_prior",
        "gaussian_weight",
        "prior_weight",
        "uniform_prior",
    ),
    "quantum": (
        "MeasuredStateFamily",
        "Povm",
        "StateFamily",
        "cqfi",
        "qfi",
        "quantum_conditional_model",
        "sld",
        "validate_povm",
    ),
    "scenarios": (
        "DemonCheck",
        "DemonRecord",
        "demon_work_check",
        "discrete_exponential_model",
        "langevin_model",
        "qubit_measurement_model",
        "qubit_phase_family",
        "qubit_phase_scenario",
        "sigma_x_povm",
        "sigma_y_povm",
        "sigma_z_povm",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_ORIGIN)
__version__ = "0.1.0"


class _Retry:
    """A submodule's own loader, run on the module's first use. A run that
    raises leaves the module lazy again, so each later use runs it afresh
    and raises the same error instead of reading a half-run module."""

    def __init__(self, loader):
        self.loader = loader

    def __getattr__(self, name):  # get_source, get_resource_reader, ...
        return getattr(self.loader, name)

    def exec_module(self, module):
        try:
            self.loader.exec_module(module)
        except BaseException:
            module.__class__ = types.ModuleType  # what LazyLoader keeps as the class to restore
            importlib.util.LazyLoader(self).exec_module(module)
            raise


def _lazy(name: str):
    """Submodule ``name``, registered in ``sys.modules`` but not yet run."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(_Retry(spec.loader))
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


grids, models, information, bounds, quantum, scenarios = map(
    _lazy, ("grids", "models", "information", "bounds", "quantum", "scenarios")
)


# The package's module class. Each public name is a property that reads
# ``submodule.name`` on every access, never cached here: a function replaced
# in its submodule (perfbench/tracer.py swaps functions for timed wrappers and
# back) must be what the package returns too. A property is found before the
# module's dict, where a PEP 562 ``__getattr__`` would run only after a miss.
sys.modules[__name__].__class__ = type("_Package", (types.ModuleType,), {
    name: property(operator.attrgetter(f"{module}.{name}")) for name, module in _ORIGIN.items()
})


def __dir__():
    return sorted({*globals(), *__all__})
