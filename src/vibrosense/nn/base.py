"""Shared pieces of the from-scratch neural nets: init, activations, SGD,
parameter flattening, and the finite-difference gradient check."""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from ..core import ContractError


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape=None) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    if shape is None:
        shape = (fan_in, fan_out)
    return rng.uniform(-limit, limit, size=shape)


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def relu_grad(z: np.ndarray) -> np.ndarray:
    return (z > 0.0).astype(np.float64)


def sigmoid(z: np.ndarray) -> np.ndarray:
    # 1/(1+e^-z) for z >= 0 and e^z/(1+e^z) below: exp never sees a positive
    # argument, so it cannot overflow.
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def softplus(z: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


class Model:
    """Minimal trainable-model protocol: a parameter list plus loss+grad."""

    def parameters(self) -> List[np.ndarray]:
        raise NotImplementedError

    def loss_and_grad(self, x: np.ndarray, y: np.ndarray) -> Tuple[float, List[np.ndarray]]:
        raise NotImplementedError

    def get_flat_params(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self.parameters()])

    def set_flat_params(self, flat: np.ndarray) -> None:
        offset = 0
        for p in self.parameters():
            n = p.size
            p[...] = flat[offset : offset + n].reshape(p.shape)
            offset += n
        if offset != flat.size:
            raise ContractError("flat parameter vector has the wrong length")


def sgd_epochs(
    model: Model,
    x: np.ndarray,
    y: np.ndarray,
    epochs: int,
    batch_size: int,
    learning_rate: float,
    rng: np.random.Generator,
    trainable: slice = slice(None),
    on_epoch: Optional[Callable[[], None]] = None,
) -> List[float]:
    """Plain mini-batch SGD; returns the mean batch loss per epoch.

    Only the `trainable` slice of the parameters (and of the gradients) is
    updated; `on_epoch` is called after each epoch. Raises as soon as a
    non-finite loss shows up, naming the epoch.
    """
    if epochs < 1 or batch_size < 1 or learning_rate <= 0:
        raise ContractError("epochs, batch_size, learning_rate must be positive")
    n = x.shape[0]
    params = model.parameters()[trainable]
    losses = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        batch_losses = []
        for lo in range(0, n, batch_size):
            idx = order[lo : lo + batch_size]
            loss, grads = model.loss_and_grad(x[idx], y[idx])
            if not np.isfinite(loss):
                raise ContractError(f"non-finite training loss at epoch {epoch}")
            for p, g in zip(params, grads[trainable]):
                p -= learning_rate * g
            batch_losses.append(loss)
        losses.append(float(np.mean(batch_losses)))
        if on_epoch is not None:
            on_epoch()
    return losses


def finite_difference_gradients(
    model: Model, x: np.ndarray, y: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of the model loss over all parameters."""
    flat = model.get_flat_params().copy()
    grad = np.empty_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + h
        model.set_flat_params(bumped)
        up, _ = model.loss_and_grad(x, y)
        bumped[i] = flat[i] - h
        model.set_flat_params(bumped)
        down, _ = model.loss_and_grad(x, y)
        grad[i] = (up - down) / (2.0 * h)
    model.set_flat_params(flat)
    return grad


def gradient_check(model: Model, x: np.ndarray, y: np.ndarray, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients."""
    _, grads = model.loss_and_grad(x, y)
    analytic = np.concatenate([g.ravel() for g in grads])
    numeric = finite_difference_gradients(model, x, y, h=h)
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))
