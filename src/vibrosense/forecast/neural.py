"""Window-based neural forecasters: dense, recurrent, LSTM, Gaussian-head
recurrent, and the convolutional reconstruction forecaster.

Series are z-scored on the training split before fitting and predictions are
mapped back to raw units; the classical models see raw values.
"""

from __future__ import annotations

from typing import List

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..core import ContractError, TimeSeries, make_rng
from ..nn import ConvAutoencoder, Mlp, RecurrentNet, sgd_epochs
from .base import OneStepForecaster, make_windows

# Windows per network call in predict_batch. One call over every window keeps
# each layer's activations for all of them alive at once (a conv layer's
# im2col matrix alone is windows x out_len x kernel x channels); blocks of 32
# bound that memory and still amortise the per-call Python overhead.
_PREDICT_BLOCK = 32


class _WindowForecaster(OneStepForecaster):
    """Shared fit/predict plumbing over (lag window -> next value) pairs."""

    def __init__(self, lag_window: int, epochs: int, batch_size: int, learning_rate: float, seed: int):
        self.lag_window = lag_window
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.seed = seed
        self.net = None
        self.training_loss: List[float] = []
        self._mean = 0.0
        self._std = 1.0

    @property
    def min_context(self) -> int:
        return self.lag_window

    def _build(self, rng) -> None:
        raise NotImplementedError

    def _fit_scaling(self, values: np.ndarray) -> np.ndarray:
        """Keeps the training split's mean and std; returns it z-scored."""
        self._mean = float(np.mean(values))
        std = float(np.std(values))
        self._std = std if std > 0 else 1.0
        return (values - self._mean) / self._std

    def _training_set(self, train: TimeSeries):
        """Scales the series and builds the net; returns the (x, y) pairs and
        the generator that sgd_epochs draws the batch order from."""
        normed = self._fit_scaling(train.values)
        x, y = make_windows(normed, self.lag_window)
        rng = make_rng(self.seed)
        self._build(rng)
        return x, y, rng

    def fit(self, train: TimeSeries):
        (out,) = self.fit_each([self], [train])
        if isinstance(out, ContractError):
            raise out
        return self

    @classmethod
    def fit_each(cls, models, trains) -> list:
        """Models whose series give the same training shape share one
        architecture (they come from one config), so they train in lockstep,
        as one stacked net; each ends bit-identical to a fit on its own."""
        out: list = [None] * len(models)
        groups = {}
        for i, (model, train) in enumerate(zip(models, trains)):
            try:
                x, y, rng = model._training_set(train)
            except ContractError as exc:
                out[i] = exc
                continue
            groups.setdefault(x.shape, []).append((i, x, y, rng))
        for group in groups.values():
            index, xs, ys, rngs = (list(column) for column in zip(*group))
            first = models[index[0]]
            try:
                curves = sgd_epochs([models[i].net for i in index], xs, ys, first.epochs,
                                    first.batch_size, first.learning_rate, rngs)
            except ContractError as exc:
                curves = [exc] * len(index)
            for i, curve in zip(index, curves):
                if isinstance(curve, ContractError):
                    out[i] = curve
                else:
                    models[i].training_loss = curve
                    out[i] = models[i]
        return out

    def _predict_normed(self, windows: np.ndarray) -> np.ndarray:
        return np.ravel(self.net.predict(windows))

    def predict_batch(self, contexts) -> np.ndarray:
        contexts = np.asarray(contexts, dtype=np.float64)
        windows = (contexts[:, -self.lag_window :] - self._mean) / self._std
        normed = np.empty(windows.shape[0])
        for lo in range(0, windows.shape[0], _PREDICT_BLOCK):
            normed[lo : lo + _PREDICT_BLOCK] = self._predict_normed(windows[lo : lo + _PREDICT_BLOCK])
        return normed * self._std + self._mean

    def state(self) -> dict:
        return {
            "weights": list(self.net.parameters()),
            "mean": self._mean,
            "std": self._std,
            "training_loss": list(self.training_loss),
        }

    def load_state(self, state) -> None:
        self._build(make_rng(0))
        params = self.net.parameters()
        saved = state["weights"]
        if len(params) != len(saved):
            raise ContractError("saved weight count does not match architecture")
        for p, s in zip(params, saved):
            p[...] = np.asarray(s).reshape(p.shape)
        self._mean = state["mean"]
        self._std = state["std"]
        self.training_loss = list(state["training_loss"])


class MlpForecaster(_WindowForecaster):
    def __init__(
        self,
        hidden_layers: int = 3,
        neurons: int = 50,
        learning_rate: float = 0.01,
        batch_size: int = 10,
        epochs: int = 5,
        lag_window: int = 10,
        seed: int = 0,
    ):
        super().__init__(lag_window, epochs, batch_size, learning_rate, seed)
        if hidden_layers < 1 or neurons < 1:
            raise ContractError("hidden_layers and neurons must be positive")
        self.hidden_layers = hidden_layers
        self.neurons = neurons

    def _build(self, rng):
        sizes = [self.lag_window] + [self.neurons] * self.hidden_layers + [1]
        self.net = Mlp(sizes, loss="mse", rng=rng)


class RnnForecaster(_WindowForecaster):
    def __init__(
        self,
        hidden_layers: int = 2,
        neurons: int = 100,
        learning_rate: float = 0.01,
        batch_size: int = 10,
        epochs: int = 5,
        lag_window: int = 10,
        seed: int = 0,
    ):
        super().__init__(lag_window, epochs, batch_size, learning_rate, seed)
        self.hidden_layers = hidden_layers
        self.neurons = neurons
        if lag_window < 2:
            raise ContractError("recurrent forecasters need lag_window >= 2")

    def _build(self, rng):
        self.net = RecurrentNet(
            cell="rnn",
            hidden_sizes=[self.neurons] * self.hidden_layers,
            head_sizes=[],
            loss="mse",
            rng=rng,
            activation="relu",
        )


class LstmForecaster(_WindowForecaster):
    """Stacked LSTM blocks with a small dense layer before the linear output."""

    def __init__(
        self,
        blocks: int = 4,
        neurons: int = 100,
        dense_units: int = 10,
        learning_rate: float = 0.005,
        batch_size: int = 10,
        epochs: int = 5,
        lag_window: int = 10,
        seed: int = 0,
    ):
        super().__init__(lag_window, epochs, batch_size, learning_rate, seed)
        self.blocks = blocks
        self.neurons = neurons
        self.dense_units = dense_units
        if lag_window < 2:
            raise ContractError("recurrent forecasters need lag_window >= 2")

    def _build(self, rng):
        self.net = RecurrentNet(
            cell="lstm",
            hidden_sizes=[self.neurons] * self.blocks,
            head_sizes=[self.dense_units],
            loss="mse",
            rng=rng,
        )


class GaussianRnnForecaster(_WindowForecaster):
    """Recurrent net emitting (mu, sigma) per window, trained by Gaussian
    negative log-likelihood; the point forecast is mu."""

    def __init__(
        self,
        hidden_layers: int = 3,
        cells: int = 30,
        learning_rate: float = 0.005,
        batch_size: int = 10,
        epochs: int = 5,
        lag_window: int = 10,
        seed: int = 0,
    ):
        super().__init__(lag_window, epochs, batch_size, learning_rate, seed)
        self.hidden_layers = hidden_layers
        self.cells = cells
        if lag_window < 2:
            raise ContractError("recurrent forecasters need lag_window >= 2")

    def _build(self, rng):
        self.net = RecurrentNet(
            cell="rnn",
            hidden_sizes=[self.cells] * self.hidden_layers,
            head_sizes=[],
            loss="gaussian_nll",
            rng=rng,
            activation="tanh",
        )

    def predict_distribution(self, context):
        context = np.asarray(context, dtype=np.float64)
        window = (context[-self.lag_window :] - self._mean) / self._std
        mu, sigma = self.net.predict_distribution(window[None, :])
        return float(mu[0]) * self._std + self._mean, float(sigma[0]) * self._std


class AutoencoderForecaster(_WindowForecaster):
    """Convolutional window autoencoder; the one-step forecast is the last
    element of the reconstruction of the window shifted forward by one slot
    (the unknown slot is padded with the latest observation)."""

    def __init__(
        self,
        window: int = 64,
        filters: int = 32,
        kernel: int = 7,
        n_layers: int = 3,
        dropout: float = 0.2,
        learning_rate: float = 0.01,
        batch_size: int = 10,
        epochs: int = 5,
        seed: int = 0,
    ):
        if window < 8:
            raise ContractError("autoencoder forecaster needs window >= 8")
        super().__init__(window, epochs, batch_size, learning_rate, seed)
        self.filters = filters
        self.kernel = kernel
        self.n_layers = n_layers
        self.dropout = dropout

    def _build(self, rng):
        self.net = ConvAutoencoder(
            window=self.lag_window,
            filters=self.filters,
            kernel=self.kernel,
            stride=2,
            n_layers=self.n_layers,
            dropout=self.dropout,
            rng=rng,
        )

    def _training_set(self, train: TimeSeries):
        normed = self._fit_scaling(train.values)
        if normed.size < self.lag_window:
            raise ContractError(f"series too short: needs >= window = {self.lag_window} points")
        x = sliding_window_view(normed, self.lag_window)
        rng = make_rng(self.seed)
        self._build(rng)
        self.net.set_training(True, dropout_rng=make_rng(self.seed, 1))
        return x, x, rng

    @classmethod
    def fit_each(cls, models, trains) -> list:
        """One model at a time: a conv step is bound by the data it moves, so
        a stacked step costs about its members' steps together (a batch of 20
        windows takes 1.8-2.3 times a batch of 10, BLAS on one thread)."""
        out = []
        for model, train in zip(models, trains):
            out.extend(super().fit_each([model], [train]))
            if model.net is not None:
                model.net.set_training(False)
        return out

    def _predict_normed(self, windows: np.ndarray) -> np.ndarray:
        shifted = np.concatenate([windows[:, 1:], windows[:, -1:]], axis=1)
        return self.net.reconstruct(shifted)[:, -1]
