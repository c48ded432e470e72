"""Shared pieces of the from-scratch neural nets: init, activations, SGD,
parameter flattening, and the finite-difference gradient check."""

from __future__ import annotations

import copy
import math
import numbers
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
    # the reductions ndarray.max and ndarray.sum make, without their Python layers
    e = np.exp(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def mse_and_delta(out: np.ndarray, target: np.ndarray, member_ndim: int, weight: float = 1.0):
    """Mean squared error and its gradient at `out`, the gradient scaled by
    `weight` (a term of a weighted loss sum). The last `member_ndim` axes
    hold one model's outputs; the loss is per model (an array over any
    leading stack axis, a scalar otherwise)."""
    diff = out - target
    count = math.prod(diff.shape[-member_ndim:])
    # the sum and divide np.mean does, without its Python layers
    loss = np.add.reduce(diff * diff, axis=tuple(range(-member_ndim, 0))) / count
    diff *= 2.0 * weight  # diff is this call's own array: the gradient is built in it
    diff /= count
    return loss, diff


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

    A model whose type sets ``stacks`` may be a *stack* of k same-shaped
    models (``sgd_epochs`` trains list members as one, see
    ``_training_copy``): every parameter then carries a leading axis of
    length k, inputs and targets carry one too, and ``loss_and_grad``
    returns the k members' losses. The dense and recurrent layer math is
    written over that optional axis, so a single model is the unstacked case
    of the same code; the conv autoencoder has no stack form."""

    stacks = False

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


def _training_copy(members: Sequence[Model], stacked: bool) -> Tuple[Model, np.ndarray]:
    """A copy of members[0] whose parameters are views of one new flat float64
    array, returned with it. Stacked, each parameter is the (k, ...) stack of
    the members' arrays; the layout is parameter-major, so every parameter
    is one C-contiguous block, in parameters() order, and the gradients a
    step returns concatenate into the same layout. Only the parameters are
    new (deepcopy's memo maps each to its view, so the views go in as the
    copies); a generator the model draws from while training, such as the
    conv autoencoder's dropout generator, stays the caller's."""
    first = members[0]
    columns = list(zip(*(m.parameters() for m in members)))
    flat = np.empty(sum(len(ps) * ps[0].size for ps in columns))
    memo = {id(v): v for v in vars(first).values() if isinstance(v, np.random.Generator)}
    offset = 0
    for ps in columns:
        view = flat[offset : offset + len(ps) * ps[0].size].reshape((len(ps),) + ps[0].shape)
        np.stack(ps, out=view)
        memo[id(ps[0])] = view if stacked else view[0]
        offset += view.size
    return copy.deepcopy(first, memo), flat


def _write_back(net: Model, members: Sequence[Model], stacked: bool) -> None:
    """Copies the training copy's values into the members' own arrays."""
    for j, member in enumerate(members):
        for p, s in zip(member.parameters(), net.parameters()):
            p[...] = s[j] if stacked else s


def _check_schedule(epochs, batch_size, learning_rate) -> None:
    for name, value in (("epochs", epochs), ("batch_size", batch_size)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
            raise ContractError(f"{name} must be a positive integer, got {value!r}")
    if not (isinstance(learning_rate, numbers.Real) and math.isfinite(learning_rate)
            and learning_rate > 0):
        raise ContractError(f"learning_rate must be finite and positive, got {learning_rate!r}")


def sgd_epochs(model, x, y, epochs: int, batch_size: int, learning_rate: float, rng,
               on_epoch: Optional[Callable[[], None]] = None):
    """Plain mini-batch SGD; returns the mean batch loss per epoch.

    `on_epoch` is called after each epoch. Raises as soon as a non-finite
    loss shows up, naming the epoch. A ContractError also names a learning
    rate that is not finite and positive, epochs or a batch size that are
    not positive integers, and the row counts of x and y when they differ
    or are 0.

    List form: `model`, `x`, `y` and `rng` are equal-length lists, each
    model with its own data and generator; the result lists each member's
    loss curve, or the ContractError its training alone would raise (a
    member whose loss goes non-finite stops there, the others train on).
    Members of one type compute the same function of their parameters (one
    loss, cell and activation), so shapes alone decide what stacks: members
    whose type ``stacks`` and whose parameters, x and y have equal shapes
    train in lockstep as one stacked model, each exactly as it would alone
    (its own batch order, its own loss). Stacks train in the order of their
    first member, other members alone, and `on_epoch` follows each epoch of
    each.

    Training runs on a copy whose parameters are views of one flat array
    (see ``_training_copy``), so a step's update takes three calls whatever
    the parameter count, and each epoch's rows are gathered once per member
    (once for x and y both when y is x). The trained values are written back
    into the caller's own parameter arrays after every epoch (before
    `on_epoch`, which may read them) and before a non-finite loss stops a
    member, so the caller's arrays then hold the values of the member's last
    finite step.
    """
    _check_schedule(epochs, batch_size, learning_rate)
    alone = isinstance(model, Model)
    members, xs, ys, rngs = ([model], [x], [y], [rng]) if alone else (
        list(model), list(x), list(y), list(rng))
    if not len(members) == len(xs) == len(ys) == len(rngs):
        raise ContractError("lockstep training needs one x, y and rng per model")
    results: List = [None] * len(members)
    stacks: dict = {}
    for i, (member, a, b) in enumerate(zip(members, xs, ys)):
        if a.shape[0] != b.shape[0] or a.shape[0] == 0:
            results[i] = ContractError(f"training needs x and y of one positive row count, "
                                       f"got {a.shape[0]} and {b.shape[0]}")
            continue
        shapes = (type(member), tuple(p.shape for p in member.parameters()), a.shape, b.shape)
        stacks.setdefault(shapes if member.stacks else i, []).append(i)
    for index in stacks.values():
        picked = ([seq[i] for i in index] for seq in (members, xs, ys, rngs))
        for i, result in zip(index, _train(*picked, epochs, batch_size, learning_rate, on_epoch)):
            results[i] = result
    if alone and isinstance(results[0], ContractError):
        raise results[0]
    return results[0] if alone else results


# A diverging member overflows on its way to the non-finite loss that stops
# it; that error is the report, not NumPy's warnings.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _train(members, xs, ys, rngs, epochs, batch_size, learning_rate, on_epoch) -> List:
    """sgd_epochs over one stack (a stack of one is a lone model): each
    member's loss curve or ContractError."""
    n = xs[0].shape[0]
    stacked = len(members) > 1
    same = all(b is a for a, b in zip(xs, ys))  # an autoencoder's targets are its inputs
    xs = np.stack(xs) if stacked else xs[0]  # stacked, an epoch's rows are one gather
    ys = xs if same else np.stack(ys) if stacked else ys[0]
    live = np.arange(len(members))
    net, flat = _training_copy(members, stacked)
    step = np.empty_like(flat)
    results: List = [[] for _ in members]
    for epoch in range(epochs):
        if stacked:  # each member's rows come from its own data, in its own order
            at = (live[:, None], np.stack([rngs[j].permutation(n) for j in live]))
        else:
            at = rngs[0].permutation(n)
        xe = xs[at]
        ye = xe if same else ys[at]
        epoch_losses = []
        for lo in range(0, n, batch_size):
            hi = lo + batch_size
            if stacked:
                loss, grads = net.loss_and_grad(xe[:, lo:hi], ye[:, lo:hi])
                diverged = not all(map(math.isfinite, loss))
            else:
                loss, grads = net.loss_and_grad(xe[lo:hi], ye[lo:hi])
                diverged = not math.isfinite(loss)
            if diverged:
                _write_back(net, [members[j] for j in live], stacked)
                error = ContractError(f"non-finite training loss at epoch {epoch}")
                finite = np.isfinite(np.atleast_1d(loss))
                for j in live[~finite]:
                    results[j] = error
                if not finite.any():
                    return results
                # the survivors go on as a smaller stack, from where they are
                keep = np.flatnonzero(finite)
                live, xe, ye, loss = live[keep], xe[keep], ye[keep], loss[keep]
                epoch_losses = [losses[keep] for losses in epoch_losses]
                grads = [g[keep] for g in grads]
                net, flat = _training_copy([members[j] for j in live], stacked)
                step = np.empty_like(flat)
            np.concatenate(grads, axis=None, out=step)
            step *= learning_rate
            flat -= step
            epoch_losses.append(loss)
        # one row of batch losses per member, each contiguous like a lone run's list
        curves = np.array(epoch_losses).reshape(len(epoch_losses), -1).T.copy()
        for j, curve in zip(live, curves):
            results[j].append(float(np.mean(curve)))
        _write_back(net, [members[j] for j in live], stacked)
        if on_epoch is not None:
            on_epoch()
    return results


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
