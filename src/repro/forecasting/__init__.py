"""The seven forecasting models of Section 3.4 plus the ensemble extension."""

from repro.forecasting.base import (DEFAULT_HORIZON, DEFAULT_INPUT_LENGTH,
                                    Forecaster)
from repro.forecasting.arima import ArimaForecaster
from repro.forecasting.dlinear import DLinearForecaster
from repro.forecasting.ensemble import EnsembleForecaster
from repro.forecasting.gboost import GBoostForecaster, GradientBoostingRegressor
from repro.forecasting.gru import GRUForecaster
from repro.forecasting.informer import InformerForecaster
from repro.forecasting.nbeats import NBeatsForecaster
from repro.forecasting.registry import (DEEP_MODELS, MODEL_CLASSES,
                                        MODEL_NAMES, make)
from repro.forecasting.scaling import StandardScaler
from repro.forecasting.transformer import TransformerForecaster
from repro.forecasting.trees import RegressionTree
from repro.forecasting.windows import make_windows, paired_windows

__all__ = [
    "DEFAULT_HORIZON",
    "DEFAULT_INPUT_LENGTH",
    "Forecaster",
    "ArimaForecaster",
    "DLinearForecaster",
    "EnsembleForecaster",
    "GBoostForecaster",
    "GradientBoostingRegressor",
    "GRUForecaster",
    "InformerForecaster",
    "NBeatsForecaster",
    "DEEP_MODELS",
    "MODEL_CLASSES",
    "MODEL_NAMES",
    "make",
    "StandardScaler",
    "TransformerForecaster",
    "RegressionTree",
    "make_windows",
    "paired_windows",
]
