"""The one dense stack: Glorot init, a ReLU forward pass and its backward pass
over (weights, biases) lists, and the Mlp built on them.

The passes work on one model or on a stack of k (see ``Model``): then a
weight is (k, in, out), a bias (k, out) and an activation (k, rows, width),
and every product, transpose and row sum acts per member."""

from __future__ import annotations

import copy
from typing import List, Sequence, Tuple

import numpy as np

from ..core import ContractError
from .base import Model, cross_entropy_and_delta, glorot_uniform, mse_and_delta, relu_grad, softmax


def dense_init(sizes: Sequence[int], rng: np.random.Generator):
    """Glorot-uniform weights and zero biases for layers sizes[i] -> sizes[i+1]."""
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(glorot_uniform(rng, fan_in, fan_out))
        biases.append(np.zeros(fan_out))
    return weights, biases


def dense_parameters(weights, biases) -> List[np.ndarray]:
    """[w0, b0, w1, b1, ...], the order dense_backward returns gradients in."""
    return [p for pair in zip(weights, biases) for p in pair]


def dense_forward(weights, biases, x, relu_last: bool = False):
    """ReLU between layers (and after the last one when relu_last). Returns the
    activations [x, a1, ..., out]; each layer adds its bias and applies its
    ReLU in place, in its product."""
    acts = [x]
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        a = acts[-1] @ w
        a += b[..., None, :]
        if relu_last or i < last:
            np.maximum(a, 0.0, out=a)
        acts.append(a)
    return acts


def dense_backward(weights, acts, delta, relu_last: bool = False, input_grad: bool = False):
    """Backward pass of dense_forward from `delta`, the loss gradient at the
    output. Returns the parameter gradients in dense_parameters order and the
    gradient at the input (None unless input_grad).

    The ReLU mask is read from the activations: a ReLU output is > 0 exactly
    where its input was (-0.0, NaN and -inf all give an output that is not)."""
    grads = []
    last = len(weights) - 1
    for i in range(last, -1, -1):
        if relu_last or i < last:
            # below the top layer delta is this pass's own product, so it takes the mask in place
            delta = np.multiply(delta, relu_grad(acts[i + 1]), out=delta if i < last else None)
        grads.append(np.add.reduce(delta, axis=-2))
        grads.append(acts[i].swapaxes(-1, -2) @ delta)
        if i > 0 or input_grad:
            delta = delta @ weights[i].swapaxes(-1, -2)
    grads.reverse()
    return grads, delta if input_grad else None


class Mlp(Model):
    """ReLU hidden layers; the head is linear for regression ('mse') or
    softmax cross-entropy for classification ('ce')."""

    stacks = True

    def __init__(self, layer_sizes: Sequence[int], loss: str, rng: np.random.Generator):
        if len(layer_sizes) < 2 or any(s < 1 for s in layer_sizes):
            raise ContractError("layer_sizes needs >= 2 positive entries")
        if loss not in ("mse", "ce"):
            raise ContractError(f"unknown loss '{loss}'")
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        self.loss = loss
        self.weights, self.biases = dense_init(self.layer_sizes, rng)

    def parameters(self) -> List[np.ndarray]:
        return dense_parameters(self.weights, self.biases)

    def _forward(self, x: np.ndarray):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[-1] != self.layer_sizes[0]:
            raise ContractError(
                f"expected input width {self.layer_sizes[0]}, got {x.shape[-1]}"
            )
        return dense_forward(self.weights, self.biases, x)

    def logits(self, x: np.ndarray) -> np.ndarray:
        return self._forward(x)[-1]

    def predict(self, x: np.ndarray) -> np.ndarray:
        out = self.logits(x)
        if self.loss == "ce":
            return softmax(out)
        return out

    def loss_and_grad(self, x: np.ndarray, y: np.ndarray) -> Tuple[float, List[np.ndarray]]:
        activations = self._forward(x)
        out = activations[-1]
        if self.loss == "mse":
            loss, delta = mse_and_delta(out, np.asarray(y, dtype=np.float64).reshape(out.shape), 2)
        else:
            loss, delta = cross_entropy_and_delta(out, y)
        grads, _ = dense_backward(self.weights, activations, delta)
        return loss, grads

    def clone(self) -> "Mlp":
        return copy.deepcopy(self)
