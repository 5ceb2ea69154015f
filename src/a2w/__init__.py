"""Matrix power weights: exact A2 decisions and numeric characteristic
estimates.

The package builds matrix-valued power functions (entrywise powers of
|x|, radial and separable multivariable variants, and unitary-conjugated
diagonal families), decides exactly whether each is an A2 matrix weight,
and estimates the A2 characteristic by supremum search with closed-form
interval averages, and adaptive quadrature for radial cube averages.
"""

import importlib

__version__ = "0.1.0"

# Each exported name and the module that defines it. A name loads its module
# on first use, so importing one module (a2w.regions, say) loads no other.
_EXPORTS = {
    "regions": "FAMILIES CUBE_FAMILIES Interval Cube Estimate",
    "search": "SupSearchConfig SearchError fine_interval_config coarse_interval_config",
    "report": "A2Report Finding VERDICT_A2 VERDICT_NECESSARY_PASSED VERDICT_NOT_A2 "
              "VERDICT_NOT_INTEGRABLE VERDICT_NOT_PD_AE VERDICT_PD_AE",
    "scalar_power": "NotA2Error NotIntegrableError average_abs_pow format_rational "
                    "integral_abs_pow parse_rational scalar_closed_form_constant scalar_is_a2",
    "type1": "EvaluationAtOriginError MidpointConditionError SymbolicPowerMatrix "
             "a2_upper_bound build_type1 build_type1_raw check_a2 check_positive_definite_ae "
             "evaluate symbolic_det symbolic_inverse",
    "quadrature": "PointwiseMatrixFunction QuadratureBudgetError adaptive_quad",
    "estimator": "NonPositiveInputError a2_functional_norm a2_functional_trace "
                 "average_numeric average_symbolic estimate_a2",
    "type2": "DivergenceRow Type2Weight check_necessary_a2 decide_a2 decide_rotation_a2 "
             "divergence_experiment fit_loglog_slope logspaced_ints",
    "multivar": "average_type1b build_type1a build_type1b cube_integral_radial",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
