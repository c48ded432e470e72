"""The forecasting model roster: configs, fitting, rolling one-step
evaluation, and fitted-model persistence."""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Dict

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..core import ContractError, TimeSeries, rms
from .. import modelio
from .base import make_windows
from .classical import Arima, AutoRegression, SeasonalNaive, autoregression_fit
from .forest import RandomForestForecaster, fit_regression_tree
from .neural import (
    AutoencoderForecaster,
    GaussianRnnForecaster,
    LstmForecaster,
    MlpForecaster,
    RnnForecaster,
)

__all__ = [
    "ForecastModelConfig",
    "FAMILIES",
    "MODEL_DEFAULTS",
    "fit",
    "rolling_forecast",
    "save_forecaster",
    "load_forecaster",
    "SeasonalNaive",
    "AutoRegression",
    "Arima",
    "RandomForestForecaster",
    "MlpForecaster",
    "RnnForecaster",
    "LstmForecaster",
    "GaussianRnnForecaster",
    "AutoencoderForecaster",
    "autoregression_fit",
    "fit_regression_tree",
    "make_windows",
]

FAMILIES = {
    "seasonal_naive": SeasonalNaive,
    "ar": AutoRegression,
    "arima": Arima,
    "random_forest": RandomForestForecaster,
    "mlp": MlpForecaster,
    "rnn": RnnForecaster,
    "lstm": LstmForecaster,
    "autoencoder": AutoencoderForecaster,
    "gaussian_rnn": GaussianRnnForecaster,
}

# each family's hyperparameters are its constructor's keywords, defaults
# included; the seed comes from the config instead
MODEL_DEFAULTS: Dict[str, dict] = {
    kind: {k: p.default for k, p in inspect.signature(cls).parameters.items() if k != "seed"}
    for kind, cls in FAMILIES.items()
}


@dataclass(frozen=True)
class ForecastModelConfig:
    model_kind: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.model_kind not in MODEL_DEFAULTS:
            raise ContractError(
                f"unknown model kind '{self.model_kind}'; known: {sorted(MODEL_DEFAULTS)}"
            )
        defaults = MODEL_DEFAULTS[self.model_kind]
        for key in self.hyperparameters:
            if key not in defaults:
                raise ContractError(
                    f"unknown hyperparameter '{key}' for {self.model_kind}; "
                    f"known: {sorted(defaults)}"
                )

    def resolved(self) -> dict:
        merged = dict(MODEL_DEFAULTS[self.model_kind])
        merged.update(self.hyperparameters)
        return merged


def _construct(config: ForecastModelConfig):
    family = FAMILIES[config.model_kind]
    params = config.resolved()
    if "seed" in inspect.signature(family).parameters:
        params["seed"] = config.seed
    return family(**params)


def fit(config: ForecastModelConfig, train):
    """Fit one model per its config; returns the fitted forecaster with
    `config` attached for provenance.

    Sequence form: `train` is a list of series, and the result a list with,
    per series, the fitted forecaster or the ContractError its fit raised.
    Each is the model a fit on that series alone gives; the family may share
    work across the series (a network family hands all its nets to one
    sgd_epochs call, which decides from their type and shapes which train
    in lockstep)."""
    if isinstance(train, TimeSeries):
        (model,) = _fit_each(config, [train])
        if isinstance(model, ContractError):
            raise model
        return model
    return _fit_each(config, list(train))


def _fit_each(config: ForecastModelConfig, trains) -> list:
    try:
        models = [_construct(config) for _ in trains]
    except ContractError as exc:
        return [exc] * len(trains)
    fitted = FAMILIES[config.model_kind].fit_each(models, trains)
    for model, train in zip(fitted, trains):
        if isinstance(model, ContractError):
            continue
        model.config = config
        # the training tail seeds rolling evaluation; the training RMS sets
        # the anomaly rule's epsilon floor
        model.train_tail = train.values[-model.min_context :].copy()
        model.train_rms = rms(train.values)
    return fitted


def rolling_forecast(model, history, test_values) -> np.ndarray:
    """One-step rolling predictions over the test values, feeding true
    observations (never model outputs) as successive context. Every context
    is known up front, so all of them go to the model as one batch: row i is
    the min_context values before test point i."""
    history = np.asarray(history, dtype=np.float64)
    test_values = np.asarray(test_values, dtype=np.float64)
    if test_values.size == 0:
        raise ContractError("empty test split")
    need = model.min_context
    if history.size < need:
        raise ContractError(f"history must hold >= {need} values")
    observed = np.concatenate([history[history.size - need :], test_values[:-1]])
    return model.predict_batch(sliding_window_view(observed, need))


def save_forecaster(model, path) -> None:
    config: ForecastModelConfig = model.config
    payload = {
        "hyperparameters": config.resolved(),
        "seed": config.seed,
        "state": model.state(),
        "train_tail": model.train_tail,
        "train_rms": model.train_rms,
    }
    modelio.save_model("forecast/" + config.model_kind, payload, path)


def load_forecaster(path):
    full_kind, payload = modelio.load_model(path)
    if not full_kind.startswith("forecast/"):
        raise ContractError(f"not a forecaster file: kind '{full_kind}'")
    missing = [k for k in ("hyperparameters", "seed", "state", "train_tail", "train_rms") if k not in payload]
    if missing:
        raise ContractError(f"forecaster file {path} lacks {', '.join(missing)}")
    try:
        hyperparameters = dict(payload["hyperparameters"])
        config = ForecastModelConfig(full_kind.split("/", 1)[1], hyperparameters, seed=payload["seed"])
        model = _construct(config)
        model.load_state(payload["state"])
        # detection reads these two as forecast.fit sets them
        tail = model.train_tail = np.asarray(payload["train_tail"], dtype=np.float64)
        if not (tail.ndim == 1 and tail.size >= model.min_context and np.all(np.isfinite(tail))):
            raise ContractError(f"train_tail must be {model.min_context} or more finite values")
        model.train_rms = payload["train_rms"]
        if not (isinstance(model.train_rms, float) and 0.0 <= model.train_rms < np.inf):
            raise ContractError(f"train_rms must be a finite float >= 0, got {model.train_rms!r}")
    except KeyError as exc:
        raise ContractError(f"malformed forecaster file {path}: missing key {exc}") from exc
    except (ValueError, TypeError) as exc:  # ContractError included
        raise ContractError(f"malformed forecaster file {path}: {exc}") from exc
    model.config = config
    return model
