"""1-D convolutional autoencoder (strided encoder, mirrored transposed-conv
decoder) used as a window-reconstruction forecaster."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..core import ContractError
from .base import Model, glorot_uniform, mse_and_delta, relu, relu_grad


def _same_padding(length: int, kernel: int, stride: int) -> Tuple[int, int, int]:
    out_len = -(-length // stride)  # ceil
    pad_total = max((out_len - 1) * stride + kernel - length, 0)
    pad_left = pad_total // 2
    return out_len, pad_left, pad_total - pad_left


def _padded(x: np.ndarray, pad_left: int, pad_right: int) -> np.ndarray:
    n, length, c = x.shape
    xp = np.zeros((n, pad_left + length + pad_right, c))
    xp[:, pad_left : pad_left + length] = x
    return xp


def _windows(xp: np.ndarray, count: int, kernel: int, stride: int) -> np.ndarray:
    """im2col: the (n·count, kernel·c) matrix whose row (b, l) is the window
    xp[b, l·stride : l·stride + kernel] of a padded (n, length, c) array."""
    n, _, c = xp.shape
    s0, s1, s2 = xp.strides
    view = as_strided(xp, (n, count, kernel, c), (s0, stride * s1, s1, s2), writeable=False)
    return np.ascontiguousarray(view).reshape(n * count, kernel * c)


def _add_windows(cols: np.ndarray, xp: np.ndarray, count: int, kernel: int, stride: int) -> None:
    """col2im, the adjoint of ``_windows``: add every window row of ``cols``
    back into the padded array ``xp`` (one strided add per kernel tap)."""
    n, _, c = xp.shape
    taps = cols.reshape(n, count, kernel, c)
    span = count * stride
    for u in range(kernel):
        xp[:, u : u + span : stride] += taps[:, :, u]


class _Conv1d:
    """Strided 'same'-padded 1-D convolution. Weight shape (kernel, c_in, c_out).

    Lowered to one matrix multiply over the im2col window matrix; the
    backward pass is two multiplies plus the col2im scatter."""

    def __init__(self, c_in: int, c_out: int, kernel: int, stride: int, rng):
        self.kernel = kernel
        self.stride = stride
        self.w = glorot_uniform(rng, kernel * c_in, c_out, shape=(kernel, c_in, c_out))
        self.b = np.zeros(c_out)

    def parameters(self):
        return [self.w, self.b]

    def forward(self, x):
        n, length, _ = x.shape
        out_len, pad_left, pad_right = _same_padding(length, self.kernel, self.stride)
        xp = _padded(x, pad_left, pad_right)
        cols = _windows(xp, out_len, self.kernel, self.stride)
        out = cols @ self.w.reshape(-1, self.b.size) + self.b
        return out.reshape(n, out_len, -1), (cols, xp.shape, length, pad_left)

    def weight_grads(self, d_out, cache):
        """[dw, db] alone: the backward pass without the input's gradient."""
        cols = cache[0]
        d = d_out.reshape(-1, self.b.size)
        return [(cols.T @ d).reshape(self.w.shape), d.sum(axis=0)]

    def backward(self, d_out, cache):
        _, padded_shape, length, pad_left = cache
        n, out_len, c_out = d_out.shape
        dcols = d_out.reshape(n * out_len, c_out) @ self.w.reshape(-1, c_out).T
        dxp = np.zeros(padded_shape)
        _add_windows(dcols, dxp, out_len, self.kernel, self.stride)
        return dxp[:, pad_left : pad_left + length], self.weight_grads(d_out, cache)


class _ConvTranspose1d:
    """Adjoint of a strided 'same'-padded convolution; doubles the length for
    stride 2. Weight shape (kernel, c_out, c_in) so forward is the
    backward-data pass of the matching convolution: one matrix multiply, then
    the col2im scatter; the backward pass gathers windows and multiplies."""

    def __init__(self, c_in: int, c_out: int, kernel: int, stride: int, rng):
        self.kernel = kernel
        self.stride = stride
        self.w = glorot_uniform(rng, kernel * c_in, c_out, shape=(kernel, c_out, c_in))
        self.b = np.zeros(c_out)

    def parameters(self):
        return [self.w, self.b]

    def forward(self, x):
        n, in_len, c_in = x.shape
        out_len = in_len * self.stride
        check_len, pad_left, pad_right = _same_padding(out_len, self.kernel, self.stride)
        if check_len != in_len:
            raise ContractError("transposed conv length mismatch")
        cols = x.reshape(n * in_len, c_in) @ self.w.reshape(-1, c_in).T
        yp = np.zeros((n, pad_left + out_len + pad_right, self.b.size))
        _add_windows(cols, yp, in_len, self.kernel, self.stride)
        out = yp[:, pad_left : pad_left + out_len] + self.b
        return out, (x, pad_left, pad_right)

    def backward(self, d_out, cache):
        x, pad_left, pad_right = cache
        n, in_len, c_in = x.shape
        db = d_out.sum(axis=(0, 1))
        cols = _windows(_padded(d_out, pad_left, pad_right), in_len, self.kernel, self.stride)
        dw = (cols.T @ x.reshape(n * in_len, c_in)).reshape(self.w.shape)
        dx = cols @ self.w.reshape(-1, c_in)
        return dx.reshape(x.shape), [dw, db]


class ConvAutoencoder(Model):
    """Encoder: 3 strided ReLU convolutions; a training step drops their
    outputs out when ``dropout_rng`` holds a generator, ``reconstruct`` never.
    Decoder mirrors them with transposed convolutions; the last layer is
    linear. Trained to reconstruct its input window (MSE)."""

    def __init__(
        self,
        window: int,
        rng: np.random.Generator,
        filters: int = 32,
        kernel: int = 7,
        stride: int = 2,
        n_layers: int = 3,
        dropout: float = 0.2,
    ):
        if window < stride**n_layers:
            raise ContractError(f"window must be >= {stride ** n_layers}")
        if window % stride**n_layers != 0:
            raise ContractError(f"window must be a multiple of {stride ** n_layers}")
        self.window = window
        self.dropout = dropout
        self.encoder = []
        self.decoder = []
        c = 1
        for _ in range(n_layers):
            self.encoder.append(_Conv1d(c, filters, kernel, stride, rng))
            c = filters
        for i in range(n_layers):
            c_out = 1 if i == n_layers - 1 else filters
            self.decoder.append(_ConvTranspose1d(filters, c_out, kernel, stride, rng))
        self.dropout_rng: Optional[np.random.Generator] = None

    def parameters(self) -> List[np.ndarray]:
        out = []
        for layer in self.encoder + self.decoder:
            out.extend(layer.parameters())
        return out

    def _forward(self, x, train: bool = True):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 2:
            x = x[:, :, None]
        caches = []
        a = x
        for layer in self.encoder:
            z, cache = layer.forward(a)
            a = relu(z)
            mask = None
            if train and self.dropout > 0 and self.dropout_rng is not None:
                keep = 1.0 - self.dropout
                mask = (self.dropout_rng.random(a.shape) < keep) / keep
                a = a * mask
            caches.append((cache, z, mask))
        last = len(self.decoder) - 1
        dec_caches = []
        for i, layer in enumerate(self.decoder):
            z, cache = layer.forward(a)
            a = z if i == last else relu(z)
            dec_caches.append((cache, z))
        return a, x, caches, dec_caches

    def reconstruct(self, x) -> np.ndarray:
        out, _, _, _ = self._forward(x, train=False)
        return out[:, :, 0]

    def loss_and_grad(self, x, y=None) -> Tuple[float, List[np.ndarray]]:
        out, x3, enc_caches, dec_caches = self._forward(x)
        target = x3 if y is None else np.asarray(y, dtype=np.float64).reshape(x3.shape)
        loss, delta = mse_and_delta(out, target, 3)
        dec_grads = []
        last = len(self.decoder) - 1
        for i in range(last, -1, -1):
            cache, z = dec_caches[i]
            if i != last:
                delta = delta * relu_grad(z)
            delta, grads = self.decoder[i].backward(delta, cache)
            dec_grads = grads + dec_grads
        enc_grads = []
        for i in range(len(self.encoder) - 1, -1, -1):
            cache, z, mask = enc_caches[i]
            if mask is not None:
                delta = delta * mask
            delta = delta * relu_grad(z)
            if i == 0:  # nothing reads the gradient of the network's input
                grads = self.encoder[0].weight_grads(delta, cache)
            else:
                delta, grads = self.encoder[i].backward(delta, cache)
            enc_grads = grads + enc_grads
        return loss, enc_grads + dec_grads
