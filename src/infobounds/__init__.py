"""Numerical toolkit for pointwise information bounds.

Evaluates the pointwise mutual information and the stochastic Fisher
information of parametric measurement models, verifies the trajectory-level
upper bounds that relate them (classically through the squared score,
quantum-mechanically through the per-outcome sensitivity of the symmetric
logarithmic derivative), and demonstrates how those pointwise bounds average
into the familiar ensemble mutual-information bound.
"""

from .bounds import (
    BoundReport,
    SkippedPoint,
    SweepSummary,
    average_pointwise_bound,
    bound_general,
    bound_sweep,
    bound_theorem1,
    bound_theorem2,
    chain_holds,
    lambda_general,
    mi_bound_average,
    mi_chain_values,
    sqrt_lambda_nodes,
    summarize_sweep,
    verify_bound_sweep,
)
from .errors import (
    ConfigError,
    DegenerateMarginalError,
    DimensionMismatchError,
    IllConditionedError,
    InfoBoundError,
    InvalidParameterError,
    InvalidWeightError,
    LengthMismatchError,
    NegativeLambdaError,
    NonFiniteError,
    NonPositiveDiffusionError,
    OutsideSupportError,
    ThetaOutsideSupportError,
    UnnormalizedOutcomeSpaceError,
    ZeroLikelihoodError,
    ZeroOutcomeProbabilityError,
    ZeroWeightError,
)
from .grids import ParameterGrid, quadrature
from .information import (
    fisher_information,
    marginal,
    mutual_information,
    pmi,
    sfi,
    surprisal,
)
from .models import (
    ConditionalModel,
    ContinuousOutcomes,
    DiscreteOutcomes,
    FiniteSupport,
    Prior,
    TruncatedInfinite,
    WeightFunction,
    boxcar_weight,
    gamma_prior,
    gaussian_prior,
    gaussian_weight,
    prior_weight,
    uniform_prior,
)
from .quantum import (
    MeasuredStateFamily,
    Povm,
    StateFamily,
    born_probability,
    cqfi,
    qfi,
    quantum_conditional_model,
    sld,
    sld_residual,
    validate_povm,
)
from .scenarios import (
    DemonCheck,
    DemonRecord,
    demon_work_check,
    discrete_exponential_model,
    langevin_model,
    qubit_measurement_model,
    qubit_phase_family,
    qubit_phase_scenario,
    sigma_x_povm,
    sigma_y_povm,
    sigma_z_povm,
)

__version__ = "0.1.0"
