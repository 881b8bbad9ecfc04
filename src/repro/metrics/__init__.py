"""Evaluation metrics of Section 3.5 and Definitions 6-9."""

from repro.metrics.pointwise import (DISTANCE_METRICS, METRICS, correlation,
                                     nrmse, rmse, rse)
from repro.metrics.errors import forecasting_error, tfe, transformation_error

__all__ = [
    "DISTANCE_METRICS",
    "METRICS",
    "correlation",
    "nrmse",
    "rmse",
    "rse",
    "forecasting_error",
    "tfe",
    "transformation_error",
]
