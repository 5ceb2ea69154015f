"""Matrix power weights: exact A2 decisions and numeric characteristic
estimates.

The package builds matrix-valued power functions (entrywise powers of
|x|, radial and separable multivariable variants, and unitary-conjugated
diagonal families), decides exactly whether each is an A2 matrix weight,
and estimates the A2 characteristic by supremum search with closed-form
interval averages, and adaptive quadrature for radial cube averages.
"""

__version__ = "0.1.0"

from .search import (Interval, SupSearchConfig, SupSearchResult, SearchError,
                     default_interval_config, coarse_interval_config)
from .report import (A2Report, Finding, VERDICT_A2, VERDICT_NECESSARY_PASSED,
                     VERDICT_NOT_A2, VERDICT_NOT_INTEGRABLE, VERDICT_NOT_PD_AE,
                     VERDICT_PD_AE)
from .scalar_power import (NotA2Error, NotIntegrableError, average_abs_pow,
                           format_rational, integral_abs_pow, parse_rational,
                           scalar_closed_form_constant, scalar_is_a2)
from .type1 import (EvaluationAtOriginError, MidpointConditionError,
                    SymbolicPowerMatrix, a2_upper_bound, build_type1,
                    build_type1_raw, check_a2, check_positive_definite_ae,
                    evaluate, symbolic_det, symbolic_inverse)
from .quadrature import (PointwiseMatrixFunction, QuadratureBudgetError,
                         adaptive_quad)
from .estimator import (NonPositiveInputError, a2_functional_norm,
                        a2_functional_trace, average_numeric, average_symbolic,
                        estimate_a2)
from .type2 import (DivergenceRow, Type2Weight, check_necessary_a2, decide_a2,
                    decide_rotation_a2, divergence_experiment, fit_loglog_slope,
                    logspaced_ints)
from .multivar import (Cube, average_type1b, build_type1a, build_type1b,
                       cube_integral_radial, estimate_a2_cubes)

__all__ = [
    "__version__",
    "Interval", "SupSearchConfig", "SupSearchResult", "SearchError",
    "default_interval_config", "coarse_interval_config",
    "A2Report", "Finding",
    "VERDICT_A2", "VERDICT_NECESSARY_PASSED", "VERDICT_NOT_A2",
    "VERDICT_NOT_INTEGRABLE", "VERDICT_NOT_PD_AE", "VERDICT_PD_AE",
    "NotA2Error", "NotIntegrableError",
    "average_abs_pow", "format_rational", "integral_abs_pow",
    "parse_rational", "scalar_closed_form_constant", "scalar_is_a2",
    "EvaluationAtOriginError", "MidpointConditionError",
    "SymbolicPowerMatrix", "a2_upper_bound", "build_type1", "build_type1_raw",
    "check_a2", "check_positive_definite_ae", "evaluate", "symbolic_det",
    "symbolic_inverse",
    "PointwiseMatrixFunction", "QuadratureBudgetError", "adaptive_quad",
    "NonPositiveInputError", "a2_functional_norm", "a2_functional_trace",
    "average_numeric", "average_symbolic", "estimate_a2",
    "DivergenceRow", "Type2Weight", "check_necessary_a2", "decide_a2",
    "decide_rotation_a2", "divergence_experiment", "fit_loglog_slope",
    "logspaced_ints",
    "Cube", "average_type1b", "build_type1a", "build_type1b",
    "cube_integral_radial", "estimate_a2_cubes",
]
