"""Closed-form Shapley explanations for linear probability models.

A linear score eta = beta0 + sum_i beta_i x_i over independent Gaussian
features admits exact Shapley values under three readings of the model
output: the score itself, the predicted probability, and the thresholded
binary decision. This package computes all three in closed form, quantifies
how often and where they disagree, and ships a sampling oracle to verify the
closed forms against the Shapley definition.
"""

from .model import (
    LOGIT_LAMBDA,
    CapacityError,
    ConvergenceError,
    DimensionMismatchError,
    EtaDistribution,
    GaussianLPM,
    InvalidModelError,
    Link,
    LpmShapleyError,
    OutcomeKind,
    OutcomeSpec,
    conditional_eta,
    eta,
    normalize,
    predict,
    sigmoid,
    sigmoid_probit_approx,
    std_normal_cdf,
)
from .engine import (
    Explanation,
    baseline,
    shapley_exact,
    shapley_exact_batch,
    shapley_two_feature,
    two_feature_phis,
    value_function,
)
from .oracle import (
    OracleEstimate,
    RngSpec,
    gauss_hermite_expect_sigmoid,
    mc_shapley,
    mc_value_function,
    standard_normal,
)
from .disagreement import (
    BaselineReport,
    CurveSet,
    Line,
    PairDisagreement,
    baseline_report,
    classify_pair,
    equal_importance_lines,
    verify_equal_importance,
    zero_level_curve,
)
from .simulation import (
    BLOCK_SIZE,
    DisagreementTable,
    ImportanceTable,
    StudyConfig,
    baseline_sweep,
    eta_importance_closed_form,
    run_disagreement_study,
    run_importance_study,
)

__version__ = "0.1.0"

__all__ = [
    "BLOCK_SIZE",
    "BaselineReport",
    "CapacityError",
    "ConvergenceError",
    "CurveSet",
    "DimensionMismatchError",
    "DisagreementTable",
    "EtaDistribution",
    "Explanation",
    "GaussianLPM",
    "ImportanceTable",
    "InvalidModelError",
    "LOGIT_LAMBDA",
    "Line",
    "Link",
    "LpmShapleyError",
    "OracleEstimate",
    "OutcomeKind",
    "OutcomeSpec",
    "PairDisagreement",
    "RngSpec",
    "StudyConfig",
    "baseline",
    "baseline_report",
    "baseline_sweep",
    "classify_pair",
    "conditional_eta",
    "equal_importance_lines",
    "eta",
    "eta_importance_closed_form",
    "gauss_hermite_expect_sigmoid",
    "mc_shapley",
    "mc_value_function",
    "normalize",
    "predict",
    "run_disagreement_study",
    "run_importance_study",
    "shapley_exact",
    "shapley_exact_batch",
    "shapley_two_feature",
    "sigmoid",
    "sigmoid_probit_approx",
    "standard_normal",
    "std_normal_cdf",
    "two_feature_phis",
    "value_function",
    "verify_equal_importance",
    "zero_level_curve",
]
