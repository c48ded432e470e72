"""The forecasting model roster: configs, fitting, rolling one-step
evaluation, and fitted-model persistence."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..core import ContractError, TimeSeries, rms
from .. import modelio
from .classical import Arima, AutoRegression, SeasonalNaive, autoregression_fit
from .forest import RandomForestForecaster, TreeNodes, best_split_for_feature, fit_regression_tree
from .neural import (
    AutoencoderForecaster,
    GaussianRnnForecaster,
    LstmForecaster,
    MlpForecaster,
    RnnForecaster,
    make_windows,
)

__all__ = [
    "ForecastModelConfig",
    "MODEL_DEFAULTS",
    "fit",
    "predict_one_step",
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
    "best_split_for_feature",
    "fit_regression_tree",
    "make_windows",
]

MODEL_DEFAULTS: Dict[str, dict] = {
    "seasonal_naive": {"m": 1},
    "ar": {"p": 10, "fit_intercept": True},
    "arima": {"p": 10, "d": 1, "q": 0, "fit_intercept": True},
    "random_forest": {"n_trees": 500, "max_depth": 10, "lag_window": 10},
    "mlp": {
        "hidden_layers": 3,
        "neurons": 50,
        "learning_rate": 0.01,
        "batch_size": 10,
        "epochs": 5,
        "lag_window": 10,
    },
    "rnn": {
        "hidden_layers": 2,
        "neurons": 100,
        "learning_rate": 0.01,
        "batch_size": 10,
        "epochs": 5,
        "lag_window": 10,
    },
    "lstm": {
        "blocks": 4,
        "neurons": 100,
        "dense_units": 10,
        "learning_rate": 0.005,
        "batch_size": 10,
        "epochs": 5,
        "lag_window": 10,
    },
    "autoencoder": {
        "window": 64,
        "filters": 32,
        "kernel": 7,
        "n_layers": 3,
        "dropout": 0.2,
        "learning_rate": 0.01,
        "batch_size": 10,
        "epochs": 5,
    },
    "gaussian_rnn": {
        "hidden_layers": 3,
        "cells": 30,
        "learning_rate": 0.005,
        "batch_size": 10,
        "epochs": 5,
        "lag_window": 10,
    },
}

_SEEDED_KINDS = frozenset(
    {"random_forest", "mlp", "rnn", "lstm", "autoencoder", "gaussian_rnn"}
)


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
    params = config.resolved()
    kind = config.model_kind
    if kind in _SEEDED_KINDS:
        params["seed"] = config.seed
    if kind == "seasonal_naive":
        return SeasonalNaive(**params)
    if kind == "ar":
        return AutoRegression(**params)
    if kind == "arima":
        return Arima(**params)
    if kind == "random_forest":
        return RandomForestForecaster(**params)
    if kind == "mlp":
        return MlpForecaster(**params)
    if kind == "rnn":
        return RnnForecaster(**params)
    if kind == "lstm":
        return LstmForecaster(**params)
    if kind == "autoencoder":
        return AutoencoderForecaster(**params)
    return GaussianRnnForecaster(**params)


def fit(config: ForecastModelConfig, train: TimeSeries):
    """Fit one model per its config; returns the fitted forecaster with
    `config` attached for provenance."""
    model = _construct(config)
    model.fit(train)
    model.config = config
    # the training tail seeds rolling evaluation; the training RMS sets the
    # anomaly rule's epsilon floor
    model.train_tail = train.values[-model.min_context :].copy()
    model.train_rms = rms(train.values)
    return model


def predict_one_step(model, context) -> float:
    return model.predict_one_step(np.asarray(context, dtype=np.float64))


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


def _neural_state(model) -> dict:
    return {
        "weights": [p.copy() for p in model.net.parameters()],
        "mean": model._mean,
        "std": model._std,
        "training_loss": list(model.training_loss),
    }


def _restore_neural(model, state) -> None:
    from ..core import make_rng

    model._build(make_rng(0))
    params = model.net.parameters()
    saved = state["weights"]
    if len(params) != len(saved):
        raise ContractError("saved weight count does not match architecture")
    for p, s in zip(params, saved):
        p[...] = np.asarray(s).reshape(p.shape)
    model._mean = state["mean"]
    model._std = state["std"]
    model.training_loss = list(state["training_loss"])


def save_forecaster(model, path) -> None:
    config: ForecastModelConfig = model.config
    kind = config.model_kind
    payload = {
        "hyperparameters": config.resolved(),
        "seed": config.seed,
        "train_tail": model.train_tail,
        "train_rms": model.train_rms,
    }
    if kind == "seasonal_naive":
        payload["state"] = {"last_season": model.last_season}
    elif kind == "ar":
        payload["state"] = {"coefs": model.coefs, "intercept": model.intercept}
    elif kind == "arima":
        payload["state"] = {"coefs": model.ar.coefs, "intercept": model.ar.intercept}
    elif kind == "random_forest":
        payload["state"] = {
            "trees": [
                {
                    "feature": t.feature,
                    "threshold": t.threshold,
                    "left": t.left,
                    "right": t.right,
                    "value": t.value,
                }
                for t in model.trees
            ]
        }
    else:
        payload["state"] = _neural_state(model)
    modelio.save_model("forecast/" + kind, payload, path)


def load_forecaster(path):
    full_kind, payload = modelio.load_model(path)
    if not full_kind.startswith("forecast/"):
        raise ContractError(f"not a forecaster file: kind '{full_kind}'")
    kind = full_kind.split("/", 1)[1]
    missing = [k for k in ("hyperparameters", "seed", "state", "train_tail", "train_rms") if k not in payload]
    if missing:
        raise ContractError(f"forecaster file {path} lacks {', '.join(missing)}")
    config = ForecastModelConfig(kind, payload["hyperparameters"], seed=payload["seed"])
    model = _construct(config)
    state = payload["state"]
    if kind == "seasonal_naive":
        model.last_season = np.asarray(state["last_season"])
    elif kind == "ar":
        model.coefs = np.asarray(state["coefs"])
        model.intercept = state["intercept"]
    elif kind == "arima":
        model.ar.coefs = np.asarray(state["coefs"])
        model.ar.intercept = state["intercept"]
    elif kind == "random_forest":
        model.trees = [
            TreeNodes(
                feature=np.asarray(t["feature"], dtype=np.int64),
                threshold=np.asarray(t["threshold"], dtype=np.float64),
                left=np.asarray(t["left"], dtype=np.int64),
                right=np.asarray(t["right"], dtype=np.int64),
                value=np.asarray(t["value"], dtype=np.float64),
            )
            for t in state["trees"]
        ]
    else:
        _restore_neural(model, state)
    model.config = config
    model.train_tail = np.asarray(payload["train_tail"], dtype=np.float64)
    model.train_rms = payload["train_rms"]
    return model
