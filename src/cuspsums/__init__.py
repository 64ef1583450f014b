"""cuspsums: numerical laboratory for short sums of cusp-form coefficients.

Exact Ramanujan tau tables, exponential sums at rational points, a truncated
dual-sum approximation, oscillatory-integral bound checks, and a mean-square
experiment harness with a CSV/JSON/SVG command-line driver.
"""

__version__ = "0.1.0"

from cuspsums.coeffs import (
    CoefficientTable,
    deligne_check,
    generate_tau,
    load_cache,
    normalize,
    save_cache,
)
from cuspsums.errors import (
    CacheFormatError,
    CoefficientOverflowError,
    ConfigError,
    NodeBudgetError,
)
from cuspsums.config import ExperimentConfig, load_config, parse_config
from cuspsums.meansquare import (
    DiagonalTerm,
    MeanSquareResult,
    diag_identity_check,
    diagonal_term,
    exponent_fit,
    offdiagonal_crosscheck,
    omega_statistic,
    run_sweep,
    sweep_grid,
    theorem_integral,
)
from cuspsums.oscillatory import (
    BoundCertificate,
    PhaseSpec,
    derivative_certificate,
    jm_bound,
    l3_spec,
    l4_spec,
    l5_spec,
    lemma5_derivative_check,
    lemma_bound_check,
    oscillatory_integral,
    stated_bound,
)
from cuspsums.rational import RationalPoint, e_k, make_rational_point
from cuspsums.sums import (
    StepSeries,
    long_sum,
    short_sum,
    step_series,
    unweighted_window_sum,
    window_bounds,
)
from cuspsums.voronoi import (
    VoronoiParams,
    fit_error_envelope,
    short_sum_main_term,
    voronoi_error_scan,
    voronoi_main_term,
)
from cuspsums.weight import WeightProfile, build_weight, derivative_bound_report, eval_weight

__all__ = [
    "BoundCertificate",
    "CacheFormatError",
    "CoefficientOverflowError",
    "CoefficientTable",
    "ConfigError",
    "DiagonalTerm",
    "ExperimentConfig",
    "MeanSquareResult",
    "NodeBudgetError",
    "PhaseSpec",
    "RationalPoint",
    "StepSeries",
    "VoronoiParams",
    "WeightProfile",
    "__version__",
    "build_weight",
    "deligne_check",
    "derivative_bound_report",
    "derivative_certificate",
    "diag_identity_check",
    "diagonal_term",
    "e_k",
    "eval_weight",
    "exponent_fit",
    "fit_error_envelope",
    "generate_tau",
    "jm_bound",
    "l3_spec",
    "l4_spec",
    "l5_spec",
    "lemma5_derivative_check",
    "lemma_bound_check",
    "load_cache",
    "load_config",
    "long_sum",
    "make_rational_point",
    "normalize",
    "offdiagonal_crosscheck",
    "omega_statistic",
    "oscillatory_integral",
    "parse_config",
    "run_sweep",
    "save_cache",
    "short_sum",
    "short_sum_main_term",
    "stated_bound",
    "step_series",
    "sweep_grid",
    "theorem_integral",
    "unweighted_window_sum",
    "voronoi_error_scan",
    "voronoi_main_term",
    "window_bounds",
]
