"""The paper's evaluation pipeline: Algorithm 1 plus the result analyses."""

from repro.core.advisor import CompressionAdvisor, Recommendation
from repro.core.cache import DiskCache
from repro.core.config import EvaluationConfig
from repro.core.correlation import spearman, spearman_ranking
from repro.core.elbow import elbow_point, kneedle
from repro.core.importance import (ImportanceAnalysis, analyze_importance,
                                   build_matrix)
from repro.core.regression import LinearFit, fit_linear
from repro.core.report import (KEY_CHARACTERISTICS, ElbowSummary,
                               average_tfe_per_model, best_models,
                               characteristic_sensitivity, elbow_summaries)
from repro.core.results import (RAW, ScenarioRecord, confidence_interval95,
                                mean_over_seeds, tfe_table)
from repro.core.shap import (ensemble_shap, expected_value,
                             mean_absolute_shap, shap_values, tree_shap)

__all__ = [
    "CompressionAdvisor",
    "Recommendation",
    "DiskCache",
    "EvaluationConfig",
    "spearman",
    "spearman_ranking",
    "elbow_point",
    "kneedle",
    "ImportanceAnalysis",
    "analyze_importance",
    "build_matrix",
    "LinearFit",
    "fit_linear",
    "KEY_CHARACTERISTICS",
    "ElbowSummary",
    "average_tfe_per_model",
    "best_models",
    "characteristic_sensitivity",
    "elbow_summaries",
    "RAW",
    "ScenarioRecord",
    "confidence_interval95",
    "mean_over_seeds",
    "tfe_table",
    "ensemble_shap",
    "expected_value",
    "mean_absolute_shap",
    "shap_values",
    "tree_shap",
]
