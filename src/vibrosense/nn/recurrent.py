"""Stacked recurrent networks (simple RNN and LSTM cells) trained by
backpropagation through time, with dense heads for point or Gaussian output."""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..core import ContractError
from .base import Model, glorot_uniform, mse_and_delta, relu_grad, sigmoid, softplus
from .dense import dense_backward, dense_forward, dense_init, dense_parameters

SIGMA_FLOOR = 1e-6


def _time_first(a):
    """(..., n, time, f) -> (time, ..., n, f), a view (np.moveaxis does the
    same, at several times the cost of this call on these small arrays)."""
    nd = a.ndim
    return a.transpose(nd - 2, *range(nd - 2), nd - 1)


def _time_inner(a):
    """(time, ..., n, f) -> (..., n, time, f), a view: _time_first undone."""
    nd = a.ndim
    return a.transpose(*range(1, nd - 1), 0, nd - 1)


def _sum_steps_down(p):
    """Sum of per-step terms (time leading) in the order a zeroed accumulator
    takes them from the last step down: acc += p[t] for t = T-1, ..., 0."""
    return np.add.reduce(p[::-1], axis=0, initial=0.0)


def _input_products(x, wx):
    """x @ wx for every step at once, time leading and contiguous: each step's
    slice is where that step then adds h @ wh and the bias in place."""
    xs = _time_first(x)
    return np.matmul(xs, wx, out=np.empty(xs.shape[:-1] + wx.shape[-1:]))


def _weight_grads(x, h_prev, dz, wx, input_grad):
    """The gradients at a layer's input (None unless input_grad) and
    parameters once the time loop has left every step's gate gradient in dz
    (time, ..., n, gates). x is the layer input as forward got it, h_prev the
    state entering each step.

    x stays a view of the caller's (..., n, time, d_in) array, so each step's
    x^T is the strided slice a per-step loop multiplies. For the first layer
    (d_in 1) that matters: NumPy takes a different route for a contiguous
    (1, n) operand, and its products differ in the last bit."""
    xs_t = _time_first(x).swapaxes(-1, -2)
    dwx = _sum_steps_down(xs_t @ dz)
    dwh = _sum_steps_down(h_prev.swapaxes(-1, -2) @ dz)
    db = _sum_steps_down(np.add.reduce(dz, axis=-2))
    dx = _time_inner(dz @ wx.swapaxes(-1, -2)) if input_grad else None
    return dx, [dwx, dwh, db]


class _RnnLayer:
    """Simple recurrent cell. Inputs and outputs are (..., n, time, features);
    the leading axis, when present, is the stack axis (see ``Model``).

    Inside, time is the leading axis of preallocated buffers, and the time
    loops keep only the recurrence: the input products are one matmul before
    the forward loop, the weight and input gradients come after the backward
    one. Every element is the same product or sum, in the same order, as a
    loop doing all of it step by step. Without input_grad, backward returns
    None for the input gradient and skips its product."""

    def __init__(self, d_in: int, hidden: int, activation: str, rng, input_grad: bool = True):
        self.activation = activation
        self.input_grad = input_grad
        self.wx = glorot_uniform(rng, d_in, hidden)
        self.wh = glorot_uniform(rng, hidden, hidden)
        self.b = np.zeros(hidden)

    def parameters(self):
        return [self.wx, self.wh, self.b]

    def forward(self, x):
        pre = _input_products(x, self.wx)
        states = np.zeros((pre.shape[0] + 1,) + pre.shape[1:])  # states[0]: the zero start
        hw = np.empty(pre.shape[1:])
        b = self.b[..., None, :]
        for t in range(pre.shape[0]):
            z = pre[t]
            z += np.matmul(states[t], self.wh, out=hw)
            z += b
            if self.activation == "relu":
                np.maximum(z, 0.0, out=states[t + 1])
            else:
                np.tanh(z, out=states[t + 1])
        return _time_inner(states[1:]), (x, pre, states)

    def backward(self, d_out, cache):
        x, pre, states = cache
        d_out = _time_first(d_out)
        if self.activation == "relu":
            act_grad = relu_grad(pre)
        else:
            act_grad = 1.0 - states[1:] ** 2
        wh_t = self.wh.swapaxes(-1, -2)
        dz = np.empty_like(pre)
        dh = np.zeros(pre.shape[1:])
        for t in range(pre.shape[0] - 1, -1, -1):
            np.multiply(d_out[t] + dh, act_grad[t], out=dz[t])
            if t:
                dh = dz[t] @ wh_t
        return _weight_grads(x, states[:-1], dz, self.wx, self.input_grad)


class _LstmLayer:
    """LSTM cell over (..., n, time, features) inputs, laid out inside like
    ``_RnnLayer``. The gate buffer holds i, f, g, o side by side."""

    def __init__(self, d_in: int, hidden: int, rng, input_grad: bool = True):
        self.hidden = hidden
        self.input_grad = input_grad
        self.wx = glorot_uniform(rng, d_in, 4 * hidden, shape=(d_in, 4 * hidden))
        self.wh = glorot_uniform(rng, hidden, 4 * hidden, shape=(hidden, 4 * hidden))
        self.b = np.zeros(4 * hidden)

    def parameters(self):
        return [self.wx, self.wh, self.b]

    def forward(self, x):
        hdim = self.hidden
        z = _input_products(x, self.wx)
        t_len = z.shape[0]
        states = np.zeros((t_len + 1,) + z.shape[1:-1] + (hdim,))  # [0]: the zero start
        cells = np.zeros_like(states)
        tanh_c = np.empty_like(states[1:])
        gates = np.empty_like(z)
        hw = np.empty(z.shape[1:])
        b = self.b[..., None, :]
        for t in range(t_len):
            zt = z[t]
            zt += np.matmul(states[t], self.wh, out=hw)
            zt += b
            s = sigmoid(zt, out=gates[t])  # its g block is then overwritten by tanh
            i = s[..., :hdim]
            f = s[..., hdim : 2 * hdim]
            g = np.tanh(zt[..., 2 * hdim : 3 * hdim], out=s[..., 2 * hdim : 3 * hdim])
            o = s[..., 3 * hdim :]
            c = np.multiply(f, cells[t], out=cells[t + 1])
            c += i * g
            np.multiply(o, np.tanh(c, out=tanh_c[t]), out=states[t + 1])
        return _time_inner(states[1:]), (x, gates, cells, tanh_c, states)

    def backward(self, d_out, cache):
        x, gates, cells, tanh_c, states = cache
        hdim = self.hidden
        d_out = _time_first(d_out)
        by_gate = gates.reshape(gates.shape[:-1] + (4, hdim))
        i, f, g, o = (by_gate[..., k, :] for k in range(4))
        # Gate gradients are ((e * m1) * m2) * m3 with e = [dct, dct, dct, dh]:
        # di*i*(1-i), df*f*(1-f), dg*(1-g^2) (times 1.0, which is exact) and
        # do*o*(1-o), each in its step-by-step order; only e is per step.
        m1 = np.concatenate([g, cells[:-1], i, tanh_c], axis=-1)
        m2 = np.concatenate([i, f, 1.0 - g * g, o], axis=-1)
        m3 = 1.0 - gates
        m3[..., 2 * hdim : 3 * hdim] = 1.0
        dtanh_c = 1.0 - tanh_c * tanh_c
        wh_t = self.wh.swapaxes(-1, -2)
        e = np.empty(by_gate.shape[1:])
        e_flat = e.reshape(gates.shape[1:])
        dct = e[..., 0, :]
        dz = np.empty_like(gates)
        dh = np.zeros(e.shape[:-2] + (hdim,))
        dc = np.zeros_like(dh)
        for t in range(gates.shape[0] - 1, -1, -1):
            dh_total = np.add(d_out[t], dh, out=e[..., 3, :])
            np.multiply(dh_total, o[t], out=dct)
            dct *= dtanh_c[t]
            dct += dc
            e[..., 1:3, :] = dct[..., None, :]
            dzt = np.multiply(e_flat, m1[t], out=dz[t])
            dzt *= m2[t]
            dzt *= m3[t]
            if t:
                dh = dzt @ wh_t
                dc = dct * f[t]
        return _weight_grads(x, states[:-1], dz, self.wx, self.input_grad)


class RecurrentNet(Model):
    """Stacked recurrent layers over a univariate window, followed by a dense
    head on the final hidden state.

    loss 'mse' gives a point forecaster; 'gaussian_nll' makes the head emit
    (mu, raw_sigma) with sigma = softplus(raw_sigma) + 1e-6.
    """

    stacks = True

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
            input_grad = bool(self.layers)  # nothing reads the gradient at the network's input
            if cell == "lstm":
                self.layers.append(_LstmLayer(d_in, hdim, rng, input_grad))
            else:
                self.layers.append(_RnnLayer(d_in, hdim, activation, rng, input_grad))
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
        head_acts = dense_forward(self.head_weights, self.head_biases, seq[..., -1, :])
        return head_acts[-1], (x, caches, head_acts)

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
        out, (x4, caches, head_acts) = self._forward(x)
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
        head_grads, d_final = dense_backward(self.head_weights, head_acts, delta, input_grad=True)
        d_seq = np.zeros(x4.shape[:-1] + d_final.shape[-1:])
        d_seq[..., -1, :] = d_final
        layer_grads = []
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            d_seq, grads = layer.backward(d_seq, cache)
            layer_grads = grads + layer_grads
        return loss, layer_grads + head_grads
