"""Seasonal naive, autoregression, and the integrated AR (q = 0) forecaster."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core import ContractError, TimeSeries
from .base import OneStepForecaster, make_windows

RIDGE_JITTER = 1e-8


class SeasonalNaive(OneStepForecaster):
    """Forecast equals the observation one season (m steps) back."""

    def __init__(self, m: int = 1):
        if m < 1:
            raise ContractError("season length m must be >= 1")
        self.m = m
        self.last_season: Optional[np.ndarray] = None

    @property
    def min_context(self) -> int:
        return self.m

    def fit(self, train: TimeSeries) -> "SeasonalNaive":
        if len(train) < self.m:
            raise ContractError(f"seasonal naive needs >= m={self.m} training points")
        self.last_season = train.values[-self.m :].copy()
        return self

    def predict_batch(self, contexts) -> np.ndarray:
        return np.asarray(contexts, dtype=np.float64)[:, -self.m].copy()

    def state(self) -> dict:
        return {"last_season": self.last_season}

    def load_state(self, state) -> None:
        self.last_season = np.asarray(state["last_season"])


def autoregression_fit(series_values, p: int, fit_intercept: bool = True):
    """OLS over the lag matrix via normal equations with ridge jitter.

    Returns (coefs, intercept) where coefs[j-1] multiplies the value j steps
    back: pred = intercept + sum_j coefs[j-1] * context[-j].
    """
    y_all = np.asarray(series_values, dtype=np.float64)
    n = y_all.size
    if p < 1:
        raise ContractError("lag order p must be >= 1")
    if n <= p + 1:
        raise ContractError(f"autoregression needs > p+1 = {p + 1} points, got {n}")
    windows, target = make_windows(y_all, p)
    lags = np.ascontiguousarray(windows[:, ::-1])  # lags[:, j-1] is j steps back
    if fit_intercept:
        design = np.column_stack([np.ones(target.size), lags])
    else:
        design = lags
    gram = design.T @ design + RIDGE_JITTER * np.eye(design.shape[1])
    try:
        beta = np.linalg.solve(gram, design.T @ target)
    except np.linalg.LinAlgError as exc:
        raise ContractError(f"singular lag system even after jitter: {exc}") from exc
    if fit_intercept:
        return beta[1:], float(beta[0])
    return beta, 0.0


class AutoRegression(OneStepForecaster):
    def __init__(self, p: int = 10, fit_intercept: bool = True):
        self.p = p
        self.fit_intercept = fit_intercept
        self.coefs: Optional[np.ndarray] = None
        self.intercept = 0.0

    @property
    def min_context(self) -> int:
        return self.p

    def fit(self, train: TimeSeries) -> "AutoRegression":
        self.coefs, self.intercept = autoregression_fit(
            train.values, self.p, fit_intercept=self.fit_intercept
        )
        return self

    def predict_batch(self, contexts) -> np.ndarray:
        recent = np.asarray(contexts, dtype=np.float64)[:, -self.p :][:, ::-1]
        return self.intercept + recent @ self.coefs  # recent[:, j-1] is j steps back

    def state(self) -> dict:
        return {"coefs": self.coefs, "intercept": self.intercept}

    def load_state(self, state) -> None:
        self.coefs = np.asarray(state["coefs"])
        self.intercept = state["intercept"]


class Arima(OneStepForecaster):
    """AR on the d-times differenced series, integrated back at prediction.
    Moving-average terms are out of scope: the tuned configuration uses q = 0."""

    def __init__(self, p: int = 10, d: int = 1, q: int = 0, fit_intercept: bool = True):
        if q != 0:
            raise ContractError("MA terms unsupported (q must be 0)")
        if d not in (0, 1):
            raise ContractError("d must be 0 or 1")
        self.p = p
        self.d = d
        self.ar = AutoRegression(p, fit_intercept=fit_intercept)

    @property
    def min_context(self) -> int:
        return self.p + self.d

    def fit(self, train: TimeSeries) -> "Arima":
        values = train.values
        if len(values) <= self.p + self.d + 1:
            raise ContractError(
                f"arima({self.p},{self.d},0) needs > {self.p + self.d + 1} points"
            )
        diffed = np.diff(values, n=self.d) if self.d else values
        self.ar.coefs, self.ar.intercept = autoregression_fit(
            diffed, self.p, fit_intercept=self.ar.fit_intercept
        )
        return self

    def predict_batch(self, contexts) -> np.ndarray:
        contexts = np.asarray(contexts, dtype=np.float64)
        if self.d == 0:
            return self.ar.predict_batch(contexts)
        recent = contexts[:, -self.min_context :]
        return recent[:, -1] + self.ar.predict_batch(np.diff(recent, axis=1))

    def state(self) -> dict:
        return self.ar.state()

    def load_state(self, state) -> None:
        self.ar.load_state(state)
