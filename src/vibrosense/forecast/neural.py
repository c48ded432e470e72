"""Window-based neural forecasters: dense, recurrent, LSTM, Gaussian-head
recurrent, and the convolutional reconstruction forecaster.

Series are z-scored on the training split before fitting and predictions are
mapped back to raw units; the classical models see raw values.
"""

from __future__ import annotations

from functools import partial
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
    """Shared fit/predict plumbing over (lag window -> next value) pairs. A
    family hands the constructor ``network``, which builds its untrained net
    from an rng; every net of the model is built here, by that call."""

    def __init__(self, network, lag_window: int, epochs: int, batch_size: int,
                 learning_rate: float, seed: int):
        self._network = network
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

    def _pairs(self, normed: np.ndarray):
        """The (input, target) training pairs of the z-scored series."""
        return make_windows(normed, self.lag_window)

    def _training_set(self, train: TimeSeries):
        """Keeps the training split's mean and std and builds the net; returns
        the z-scored series' (x, y) pairs and the generator that sgd_epochs
        draws the batch order from."""
        values = train.values
        self._mean = float(np.mean(values))
        std = float(np.std(values))
        self._std = std if std > 0 else 1.0
        x, y = self._pairs((values - self._mean) / self._std)
        rng = make_rng(self.seed)
        self.net = self._network(rng=rng)
        return x, y, rng

    def fit(self, train: TimeSeries):
        (out,) = self.fit_each([self], [train])
        if isinstance(out, ContractError):
            raise out
        return self

    @classmethod
    def fit_each(cls, models, trains) -> list:
        """Trains every model's net in one sgd_epochs call, which stacks the
        nets it can (those of one training shape, from one config); each ends
        bit-identical to a fit on its own."""
        out: list = list(models)
        fitting = []
        for i, (model, train) in enumerate(zip(models, trains)):
            try:
                fitting.append((i, *model._training_set(train)))
            except ContractError as exc:
                out[i] = exc
        if fitting:
            index, xs, ys, rngs = zip(*fitting)
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
        self.net = self._network(rng=make_rng(0))
        params = self.net.parameters()
        saved = state["weights"]
        if len(params) != len(saved):
            raise ContractError("saved weight count does not match architecture")
        for p, s in zip(params, saved):
            p[...] = np.asarray(s).reshape(p.shape)
        self._mean = state["mean"]
        self._std = state["std"]
        self.training_loss = list(state["training_loss"])


def _recurrent(lag_window: int, **net):
    """The factory of a recurrent family's net; a recurrence needs two steps."""
    if lag_window < 2:
        raise ContractError("recurrent forecasters need lag_window >= 2")
    return partial(RecurrentNet, **net)


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
        if hidden_layers < 1 or neurons < 1:
            raise ContractError("hidden_layers and neurons must be positive")
        sizes = [lag_window] + [neurons] * hidden_layers + [1]
        super().__init__(partial(Mlp, sizes, loss="mse"),
                         lag_window, epochs, batch_size, learning_rate, seed)


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
        network = _recurrent(lag_window, cell="rnn", hidden_sizes=[neurons] * hidden_layers,
                             head_sizes=[], loss="mse", activation="relu")
        super().__init__(network, lag_window, epochs, batch_size, learning_rate, seed)


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
        network = _recurrent(lag_window, cell="lstm", hidden_sizes=[neurons] * blocks,
                             head_sizes=[dense_units], loss="mse")
        super().__init__(network, lag_window, epochs, batch_size, learning_rate, seed)


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
        network = _recurrent(lag_window, cell="rnn", hidden_sizes=[cells] * hidden_layers,
                             head_sizes=[], loss="gaussian_nll", activation="tanh")
        super().__init__(network, lag_window, epochs, batch_size, learning_rate, seed)


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
        network = partial(ConvAutoencoder, window=window, filters=filters, kernel=kernel,
                          stride=2, n_layers=n_layers, dropout=dropout)
        super().__init__(network, window, epochs, batch_size, learning_rate, seed)

    def _pairs(self, normed: np.ndarray):
        if normed.size < self.lag_window:
            raise ContractError(f"series too short: needs >= window = {self.lag_window} points")
        x = sliding_window_view(normed, self.lag_window)
        return x, x

    def _training_set(self, train: TimeSeries):
        x, y, rng = super()._training_set(train)
        self.net.dropout_rng = make_rng(self.seed, 1)
        return x, y, rng

    def _predict_normed(self, windows: np.ndarray) -> np.ndarray:
        shifted = np.concatenate([windows[:, 1:], windows[:, -1:]], axis=1)
        return self.net.reconstruct(shifted)[:, -1]
