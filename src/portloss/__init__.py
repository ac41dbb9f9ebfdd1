"""Portfolio loss distributions under fluctuating asset correlations.

Analytic loss densities, probabilities and correlations for Merton-type
credit portfolios whose asset correlations fluctuate around a one-factor
mean, together with an independent Monte Carlo oracle, infinite-portfolio
limit densities, a return-density calibration fit and a scenario-driven
CLI.
"""

from .errors import (
    ConvergenceError,
    FitError,
    MultipleRootsError,
    NoRootError,
    ParameterError,
    PortlossError,
    SamplerBudgetError,
    ScenarioError,
    SingularCovarianceError,
    UndefinedCorrelationError,
)
from .params import (
    MarketParams,
    MultiMarketParams,
    OverlapSpec,
    SubordinationSpec,
)
from .quadrature import QuadratureSpec
from .grids import DensityGrid, canonical_json, scenario_fingerprint
from .engine import (
    NoSubScenario,
    SubordinatedScenario,
    alphas,
    density_grid_nosub,
    density_grid_subordinated,
    density_nosub,
    density_nosub_multimarket,
    density_subordinated,
    loss_correlation,
    marginal_density,
    mass_accounting,
    no_default_probability,
    nosub_cell_masses,
    subordinated_cell_masses,
    tail_probability,
)
from .limits import (
    density_limit_equal_infinite,
    density_limit_finite_vs_infinite,
    density_limit_subordinated,
    density_limit_two_markets,
    limit_curve_equal_infinite,
    limit_grid_finite_vs_infinite,
    limit_grid_subordinated,
    limit_grid_two_markets,
)
from .mc import McConfig, McRun, estimate, ks_compare, sample_compound, sample_wishart
from .calibration import (
    FitResult,
    ReturnSample,
    effective_correlation,
    fit_n,
    return_density,
)
from .scenarios import (
    bundled_scenarios,
    resolve_scenario,
    run_scenario,
    validate_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "FitError",
    "MultipleRootsError",
    "NoRootError",
    "ParameterError",
    "PortlossError",
    "SamplerBudgetError",
    "ScenarioError",
    "SingularCovarianceError",
    "UndefinedCorrelationError",
    "MarketParams",
    "MultiMarketParams",
    "OverlapSpec",
    "SubordinationSpec",
    "QuadratureSpec",
    "DensityGrid",
    "canonical_json",
    "scenario_fingerprint",
    "NoSubScenario",
    "SubordinatedScenario",
    "alphas",
    "density_grid_nosub",
    "density_grid_subordinated",
    "density_nosub",
    "density_nosub_multimarket",
    "density_subordinated",
    "loss_correlation",
    "marginal_density",
    "mass_accounting",
    "no_default_probability",
    "nosub_cell_masses",
    "subordinated_cell_masses",
    "tail_probability",
    "density_limit_equal_infinite",
    "density_limit_finite_vs_infinite",
    "density_limit_subordinated",
    "density_limit_two_markets",
    "limit_curve_equal_infinite",
    "limit_grid_finite_vs_infinite",
    "limit_grid_subordinated",
    "limit_grid_two_markets",
    "McConfig",
    "McRun",
    "estimate",
    "ks_compare",
    "sample_compound",
    "sample_wishart",
    "FitResult",
    "ReturnSample",
    "effective_correlation",
    "fit_n",
    "return_density",
    "bundled_scenarios",
    "resolve_scenario",
    "run_scenario",
    "validate_scenario",
    "__version__",
]
