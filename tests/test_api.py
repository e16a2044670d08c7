"""The public API is frozen: the package's and every module's __all__, in order."""

import importlib

import pytest

FROZEN = {
    "proxrates": [
        "BoundValue", "BoxIndicator", "CertificateReport", "ClassParams", "CompositeProblem",
        "DenseQuadratic", "DiagonalQuadratic", "IterateRecord", "IterateTrace", "L1Norm",
        "LineSearchError", "LinearPlusNonnegIndicator", "MeasureKind", "MeasureTriple",
        "NonnegIndicator", "Provenance", "ProxFunction", "Rate", "Regime", "ScaledSqNorm",
        "SmoothFunction", "WorstCaseSpec", "Zero", "mixed_measure_instance", "bound_lookup",
        "check_interpolation", "check_mixed_bound", "check_proposition", "classical_nontight_bound",
        "contraction", "default_grid", "els_worst_quadratic", "exact_line_search_step",
        "gamma_symbol", "interp_convex", "interp_smooth", "numeric_spot_check", "optimal_step",
        "pgm_step", "quadratic_lower_bound", "random_composite", "random_instance",
        "residual_line_search_step", "run", "run_exact_line_search", "unbounded_family",
        "verify_distance", "verify_funcvalue", "verify_residual",
    ],
    "proxrates.certificate": [
        "Poly", "RatFunc", "gamma_symbol", "VecExpr", "SymbolicExpr", "inner", "norm_sq", "fval",
        "interp_smooth", "interp_convex", "Regime", "Multiplier", "SosTerm", "CertificateReport",
        "verify_distance", "verify_residual", "verify_funcvalue", "alpha_small", "beta_small",
        "alpha_large", "beta_large", "default_grid", "numeric_spot_check", "SpotCheckResult",
    ],
    "proxrates.cli": None,
    "proxrates.engine": [
        "IterateRecord", "IterateTrace", "LineSearchError", "pgm_step", "run",
        "exact_line_search_step", "run_exact_line_search", "residual_line_search_step",
    ],
    "proxrates.measures": ["MeasureTriple", "check_proposition", "check_mixed_bound"],
    "proxrates.prox": [
        "ProxFunction", "Zero", "NonnegIndicator", "BoxIndicator", "L1Norm",
        "LinearPlusNonnegIndicator",
    ],
    "proxrates.rates": [
        "ClassParams", "Rate", "MeasureKind", "Provenance", "BoundValue", "contraction",
        "rate_branch", "optimal_step", "bound_lookup", "classical_nontight_bound",
    ],
    "proxrates.smooth": [
        "SmoothFunction", "ScaledSqNorm", "DiagonalQuadratic", "DenseQuadratic",
        "CompositeProblem", "random_instance", "random_composite", "check_interpolation",
        "relaxed_distance_condition",
    ],
    "proxrates.worstcase": [
        "WorstCaseSpec", "DIST_TO_FUNCGAP", "DIST_TO_RESIDUAL", "FUNCGAP_TO_RESIDUAL",
        "quadratic_lower_bound", "mixed_measure_instance", "unbounded_family",
        "els_worst_quadratic",
    ],
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_all_is_frozen(name):
    module = importlib.import_module(name)
    assert getattr(module, "__all__", None) == FROZEN[name]
    for attr in FROZEN[name] or ():
        assert hasattr(module, attr)
