"""The one prediction path every forecaster family shares."""

from __future__ import annotations

import numpy as np

from ..core import ContractError


class OneStepForecaster:
    """A family defines ``min_context`` and ``predict_batch(contexts)``, which
    maps an (n, width) array of context rows, width >= min_context and the
    newest value last, to n one-step predictions. A single prediction is a
    batch of one row."""

    min_context: int

    def predict_batch(self, contexts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def predict_one_step(self, context) -> float:
        context = np.asarray(context, dtype=np.float64)
        if context.size < self.min_context:
            raise ContractError(f"context must hold >= {self.min_context} values")
        return float(self.predict_batch(context[None])[0])
