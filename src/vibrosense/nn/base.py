"""Shared pieces of the from-scratch neural nets: init, activations, SGD,
parameter flattening, and the finite-difference gradient check."""

from __future__ import annotations

import copy
import math
from typing import Callable, List, Optional, Sequence, Tuple

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
    """The ReLU derivative as a boolean mask: a float times it is the same
    product as a float times 1.0 or 0.0, without a float mask to build."""
    return z > 0.0


def sigmoid(z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    # 1/(1+e^-z) for z >= 0 and e^z/(1+e^z) below: exp never sees a positive
    # argument, so it cannot overflow.
    e = np.exp(-np.abs(z))
    return np.divide(np.where(z >= 0, 1.0, e), 1.0 + e, out=out)


def softplus(z: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def mse_and_delta(out: np.ndarray, target: np.ndarray, member_ndim: int, weight: float = 1.0):
    """Mean squared error and its gradient at `out`, the gradient scaled by
    `weight` (a term of a weighted loss sum). The last `member_ndim` axes
    hold one model's outputs; the loss is per model (an array over any
    leading stack axis, a scalar otherwise)."""
    diff = out - target
    loss = np.mean(diff * diff, axis=tuple(range(-member_ndim, 0)))
    return loss, 2.0 * weight * diff / math.prod(diff.shape[-member_ndim:])


def cross_entropy_and_delta(logits: np.ndarray, labels, weight: float = 1.0):
    """Mean softmax cross-entropy over the rows of (..., rows, classes) logits
    and its gradient at the logits, scaled by `weight` before the division
    by the row count; the loss is per model."""
    classes = logits.shape[-1]
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    rows = np.arange(labels.size)
    delta = softmax(logits)  # a new array, so the gradient is built in it
    flat = delta.reshape(-1, classes)  # a view: writes land in delta
    picked = flat[rows, labels].reshape(logits.shape[:-1])  # a copy, taken before the -= 1
    # the sum and divide np.mean does, without its Python layers
    loss = -(np.add.reduce(np.log(picked + 1e-300), axis=-1) / logits.shape[-2])
    flat[rows, labels] -= 1.0
    if weight != 1.0:
        delta *= weight
    delta /= logits.shape[-2]
    return loss, delta


class Model:
    """Minimal trainable-model protocol: a parameter list plus loss+grad.

    A model may be a *stack* of k same-shaped models (see ``stack``): every
    parameter then carries a leading axis of length k, inputs and targets
    carry one too, and ``loss_and_grad`` returns the k members' losses. The
    dense and recurrent layer math is written over that optional axis, so a
    single model is the unstacked case of the same code; the conv
    autoencoder has no stack form and trains alone."""

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

    @classmethod
    def stack(cls, models: Sequence["Model"]) -> "Model":
        """One model holding the members' parameters stacked on a new leading
        axis: a copy of the first member in which each parameter array is
        replaced by the stack of all members' arrays (deepcopy's memo maps
        an object to its copy, so the stacks go in as the copies)."""
        first = models[0]
        memo = {id(p): np.stack(ps)
                for p, ps in zip(first.parameters(), zip(*(m.parameters() for m in models)))}
        return copy.deepcopy(first, memo)

    def unstack_into(self, models: Sequence["Model"]) -> None:
        """Copies member j of this stack into models[j]'s parameters."""
        for j, model in enumerate(models):
            for p, s in zip(model.parameters(), self.parameters()):
                p[...] = s[j]


# A diverging member overflows on its way to the non-finite loss that stops
# it; that error is the report, not NumPy's warnings.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def sgd_epochs(
    model,
    x,
    y,
    epochs: int,
    batch_size: int,
    learning_rate: float,
    rng,
    on_epoch: Optional[Callable[[], None]] = None,
):
    """Plain mini-batch SGD; returns the mean batch loss per epoch.

    `on_epoch` is called after each epoch. Raises as soon as a non-finite
    loss shows up, naming the epoch.

    Lockstep form: `model`, `x`, `y` and `rng` are equal-length lists, k
    same-shaped models with their own data (all of one row count) and their
    own generators. The members train as one stacked model, each exactly as
    it would alone: its own batch order, its own loss. The result is a list
    holding each member's loss curve, or the ContractError its training
    would have raised; a member whose loss goes non-finite stops there and
    the others train on.
    """
    if epochs < 1 or batch_size < 1 or learning_rate <= 0:
        raise ContractError("epochs, batch_size, learning_rate must be positive")
    alone = isinstance(model, Model)
    members = [model] if alone else list(model)
    xs, ys, rngs = ([x], [y], [rng]) if alone else (list(x), list(y), list(rng))
    if not len(members) == len(xs) == len(ys) == len(rngs):
        raise ContractError("lockstep training needs one x, y and rng per model")
    n = xs[0].shape[0]
    stacked = len(members) > 1
    if stacked:
        if any(a.shape != xs[0].shape for a in xs) or any(b.shape != ys[0].shape for b in ys):
            raise ContractError("lockstep training needs equal-shaped data for every model")
        net = type(members[0]).stack(members)
        xs, ys = np.stack(xs), np.stack(ys)  # a step's batches are then one gather
    else:
        net = members[0]
    params = net.parameters()
    results: List = [[] for _ in members]
    live = np.arange(len(members))
    for epoch in range(epochs):
        orders = np.stack([rngs[j].permutation(n) for j in live])
        epoch_losses = []
        for lo in range(0, n, batch_size):
            if stacked:  # each member's batch comes from its own data
                at = (live[:, None], orders[:, lo : lo + batch_size])
                loss, grads = net.loss_and_grad(xs[at], ys[at])
                diverged = not all(map(math.isfinite, loss))
            else:
                rows = orders[0, lo : lo + batch_size]
                loss, grads = net.loss_and_grad(xs[0][rows], ys[0][rows])
                diverged = not math.isfinite(loss)
            if diverged:
                error = ContractError(f"non-finite training loss at epoch {epoch}")
                if alone:
                    raise error
                finite = np.isfinite(np.atleast_1d(loss))
                for j in live[~finite]:
                    results[j] = error
                if not finite.any():
                    return results
                # the survivors go on as a smaller stack, from where they are
                net.unstack_into([members[j] for j in live])
                keep = np.flatnonzero(finite)
                live, orders, loss = live[keep], orders[keep], loss[keep]
                epoch_losses = [losses[keep] for losses in epoch_losses]
                grads = [g[keep] for g in grads]
                net = type(members[0]).stack([members[j] for j in live])
                params = net.parameters()
            for p, g in zip(params, grads):
                p -= learning_rate * g
            epoch_losses.append(loss)
        # one row of batch losses per member, each contiguous like a lone run's list
        curves = np.array(epoch_losses).reshape(len(epoch_losses), -1).T.copy()
        for j, curve in zip(live, curves):
            results[j].append(float(np.mean(curve)))
        if on_epoch is not None:
            on_epoch()
    if stacked:
        net.unstack_into([members[j] for j in live])
    return results[0] if alone else results


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
