"""The protocol every forecaster family shares, and the one lag-matrix helper."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..core import ContractError


def make_windows(values: np.ndarray, window: int):
    """The lag matrix of a series: row i is values[i : i + window], oldest
    value first, and its target is values[i + window]."""
    if values.size - window < 1:
        raise ContractError(f"series too short: needs > window = {window} points")
    return sliding_window_view(values[:-1], window).astype(np.float64), values[window:]


class OneStepForecaster:
    """A family defines ``min_context`` and ``predict_batch(contexts)``, which
    maps an (n, width) array of context rows, width >= min_context and the
    newest value last, to n one-step predictions. A single prediction is a
    batch of one row. ``state()`` returns the fitted parameters a model file
    stores (the arrays themselves, not copies), and ``load_state(state)`` puts
    them back into a freshly constructed model of the same hyperparameters.
    ``fit(train)`` fits one series; ``fit_each`` fits one model per series."""

    min_context: int

    def predict_batch(self, contexts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def state(self) -> dict:
        raise NotImplementedError

    def load_state(self, state: dict) -> None:
        raise NotImplementedError

    @classmethod
    def fit_each(cls, models, trains) -> list:
        """Fits models[i], all built from one config, on trains[i]. Entry i
        is the fitted model or the ContractError its fit raised. Families
        whose fits can share work override this; the plain one loops."""
        out = []
        for model, train in zip(models, trains):
            try:
                out.append(model.fit(train))
            except ContractError as exc:
                out.append(exc)
        return out

    def _context(self, context) -> np.ndarray:
        """The context as floats, once it holds at least min_context values."""
        context = np.asarray(context, dtype=np.float64)
        if context.size < self.min_context:
            raise ContractError(f"context must hold >= {self.min_context} values")
        return context

    def predict_one_step(self, context) -> float:
        return float(self.predict_batch(self._context(context)[None])[0])
