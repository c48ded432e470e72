"""Stacked recurrent networks (simple RNN and LSTM cells) trained by
backpropagation through time, with dense heads for point or Gaussian output."""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..core import ContractError
from .base import Model, glorot_uniform, mse_and_delta, relu, relu_grad, sigmoid, softplus
from .dense import dense_backward, dense_forward, dense_init, dense_parameters

SIGMA_FLOOR = 1e-6


class _RnnLayer:
    """Simple recurrent cell. Inputs are (..., n, time, features); the leading
    axis, when present, is the stack axis of ``Model.stack``."""

    def __init__(self, d_in: int, hidden: int, activation: str, rng):
        self.activation = activation
        self.wx = glorot_uniform(rng, d_in, hidden)
        self.wh = glorot_uniform(rng, hidden, hidden)
        self.b = np.zeros(hidden)

    def parameters(self):
        return [self.wx, self.wh, self.b]

    def forward(self, x):
        h = np.zeros(x.shape[:-2] + (self.b.shape[-1],))
        b = self.b[..., None, :]
        pre, states = [], []
        for t in range(x.shape[-2]):
            z = x[..., t, :] @ self.wx + h @ self.wh + b
            h = relu(z) if self.activation == "relu" else np.tanh(z)
            pre.append(z)
            states.append(h)
        cache = (x, pre, states)
        return np.stack(states, axis=-2), cache

    def backward(self, d_out, cache):
        x, pre, states = cache
        wx_t = self.wx.swapaxes(-1, -2)
        wh_t = self.wh.swapaxes(-1, -2)
        dwx = np.zeros_like(self.wx)
        dwh = np.zeros_like(self.wh)
        db = np.zeros_like(self.b)
        dx = np.zeros_like(x)
        dh = np.zeros_like(states[0])
        for t in range(x.shape[-2] - 1, -1, -1):
            dh_total = d_out[..., t, :] + dh
            if self.activation == "relu":
                dz = dh_total * relu_grad(pre[t])
            else:
                dz = dh_total * (1.0 - states[t] ** 2)
            h_prev = states[t - 1] if t > 0 else np.zeros_like(dh)
            dwx += x[..., t, :].swapaxes(-1, -2) @ dz
            dwh += h_prev.swapaxes(-1, -2) @ dz
            db += dz.sum(axis=-2)
            dx[..., t, :] = dz @ wx_t
            dh = dz @ wh_t
        return dx, [dwx, dwh, db]


class _LstmLayer:
    """LSTM cell over (..., n, time, features) inputs, like ``_RnnLayer``."""

    def __init__(self, d_in: int, hidden: int, rng):
        self.hidden = hidden
        self.wx = glorot_uniform(rng, d_in, 4 * hidden, shape=(d_in, 4 * hidden))
        self.wh = glorot_uniform(rng, hidden, 4 * hidden, shape=(hidden, 4 * hidden))
        self.b = np.zeros(4 * hidden)

    def parameters(self):
        return [self.wx, self.wh, self.b]

    def forward(self, x):
        hdim = self.hidden
        h = np.zeros(x.shape[:-2] + (hdim,))
        c = np.zeros_like(h)
        b = self.b[..., None, :]
        gates, cells, states = [], [], []
        for t in range(x.shape[-2]):
            z = x[..., t, :] @ self.wx + h @ self.wh + b
            s = sigmoid(z)  # the g block of s is unused; tanh covers it
            i = s[..., :hdim]
            f = s[..., hdim : 2 * hdim]
            g = np.tanh(z[..., 2 * hdim : 3 * hdim])
            o = s[..., 3 * hdim :]
            c = f * c + i * g
            h = o * np.tanh(c)
            gates.append((i, f, g, o))
            cells.append(c)
            states.append(h)
        cache = (x, gates, cells, states)
        return np.stack(states, axis=-2), cache

    def backward(self, d_out, cache):
        x, gates, cells, states = cache
        hdim = self.hidden
        wx_t = self.wx.swapaxes(-1, -2)
        wh_t = self.wh.swapaxes(-1, -2)
        dwx = np.zeros_like(self.wx)
        dwh = np.zeros_like(self.wh)
        db = np.zeros_like(self.b)
        dx = np.zeros_like(x)
        dh = np.zeros_like(states[0])
        dc = np.zeros_like(dh)
        dz = np.empty(dh.shape[:-1] + (4 * hdim,))
        for t in range(x.shape[-2] - 1, -1, -1):
            i, f, g, o = gates[t]
            c = cells[t]
            c_prev = cells[t - 1] if t > 0 else np.zeros_like(c)
            h_prev = states[t - 1] if t > 0 else np.zeros_like(dh)
            dh_total = d_out[..., t, :] + dh
            tc = np.tanh(c)
            do = dh_total * tc
            dct = dc + dh_total * o * (1.0 - tc * tc)
            di = dct * g
            df = dct * c_prev
            dg = dct * i
            dz[..., :hdim] = di * i * (1.0 - i)
            dz[..., hdim : 2 * hdim] = df * f * (1.0 - f)
            dz[..., 2 * hdim : 3 * hdim] = dg * (1.0 - g * g)
            dz[..., 3 * hdim :] = do * o * (1.0 - o)
            dwx += x[..., t, :].swapaxes(-1, -2) @ dz
            dwh += h_prev.swapaxes(-1, -2) @ dz
            db += dz.sum(axis=-2)
            dx[..., t, :] = dz @ wx_t
            dh = dz @ wh_t
            dc = dct * f
        return dx, [dwx, dwh, db]


class RecurrentNet(Model):
    """Stacked recurrent layers over a univariate window, followed by a dense
    head on the final hidden state.

    loss 'mse' gives a point forecaster; 'gaussian_nll' makes the head emit
    (mu, raw_sigma) with sigma = softplus(raw_sigma) + 1e-6.
    """

    def __init__(
        self,
        cell: str,
        hidden_sizes: Sequence[int],
        head_sizes: Sequence[int],
        loss: str,
        rng,
        activation: str = "relu",
    ):
        if cell not in ("rnn", "lstm"):
            raise ContractError(f"unknown cell '{cell}'")
        if loss not in ("mse", "gaussian_nll"):
            raise ContractError(f"unknown loss '{loss}'")
        self.cell = cell
        self.loss = loss
        self.layers = []
        d_in = 1
        for hdim in hidden_sizes:
            if cell == "lstm":
                self.layers.append(_LstmLayer(d_in, hdim, rng))
            else:
                self.layers.append(_RnnLayer(d_in, hdim, activation, rng))
            d_in = hdim
        out_dim = 2 if loss == "gaussian_nll" else 1
        self.head_weights, self.head_biases = dense_init([d_in, *head_sizes, out_dim], rng)

    def parameters(self) -> List[np.ndarray]:
        out = []
        for layer in self.layers:
            out.extend(layer.parameters())
        return out + dense_parameters(self.head_weights, self.head_biases)

    def _forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == self.head_biases[-1].ndim + 1:  # (..., n, time): one input feature
            x = x[..., None]
        seq = x
        caches = []
        for layer in self.layers:
            seq, cache = layer.forward(seq)
            caches.append(cache)
        head_acts, head_pre = dense_forward(self.head_weights, self.head_biases, seq[..., -1, :])
        return head_acts[-1], (x, caches, head_acts, head_pre)

    def predict(self, x) -> np.ndarray:
        out, _ = self._forward(x)
        return out[..., 0]

    def predict_distribution(self, x):
        if self.loss != "gaussian_nll":
            raise ContractError("distribution output requires the Gaussian head")
        out, _ = self._forward(x)
        mu = out[..., 0]
        sigma = softplus(out[..., 1]) + SIGMA_FLOOR
        return mu, sigma

    def loss_and_grad(self, x, y) -> Tuple[float, List[np.ndarray]]:
        out, (x4, caches, head_acts, head_pre) = self._forward(x)
        n = out.shape[-2]
        if self.loss == "mse":
            target = np.asarray(y, dtype=np.float64).reshape(out.shape)
            loss, delta = mse_and_delta(out, target, 2)
        else:
            y = np.asarray(y, dtype=np.float64).reshape(out.shape[:-1])
            mu = out[..., 0]
            raw = out[..., 1]
            sigma = softplus(raw) + SIGMA_FLOOR
            resid = y - mu
            loss = np.mean(0.5 * np.log(2.0 * np.pi * sigma * sigma) + resid * resid / (2.0 * sigma * sigma),
                           axis=-1)
            dmu = (mu - y) / (sigma * sigma) / n
            dsigma = (1.0 / sigma - resid * resid / sigma**3) / n
            draw = dsigma * sigmoid(raw)
            delta = np.stack([dmu, draw], axis=-1)
        head_grads, d_final = dense_backward(self.head_weights, head_acts, head_pre, delta,
                                             input_grad=True)
        d_seq = np.zeros(x4.shape[:-1] + d_final.shape[-1:])
        d_seq[..., -1, :] = d_final
        layer_grads = []
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            d_seq, grads = layer.backward(d_seq, cache)
            layer_grads = grads + layer_grads
        return loss, layer_grads + head_grads
