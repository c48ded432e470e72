"""Byte-equality oracles for the shared dense stack and SGD loop.

The references below are the hand-written dense chains and minibatch SGD loops
that `Mlp`, the `RecurrentNet` head, `AutoencClassifier`, `_train_frozen` and
`train_autoenc_classifier` each carried before they were merged into
`nn/dense.py` and `nn.sgd_epochs`. Gradients, trained parameters and loss
curves must match them bit for bit (`tobytes()`), not just closely.
"""

from dataclasses import replace

import numpy as np
import pytest

from vibrosense.autoenc import AutoencClassifier, train_autoenc_classifier
from vibrosense.classify import TrainConfig, make_bundle, train_classifier, train_transfer
from vibrosense.core import ContractError, make_rng
from vibrosense.features import fit_encoder
from vibrosense.nn import Mlp, RecurrentNet, sgd_epochs, softmax
from vibrosense.nn.base import glorot_uniform, relu, sigmoid, softplus
from vibrosense.nn.dense import dense_backward, dense_forward
from vibrosense.nn.recurrent import SIGMA_FLOOR, _LstmLayer, _RnnLayer


# --- references -------------------------------------------------------------

def relu_grad(z):
    """The ReLU derivative as a float 0/1 mask, written out here so that the
    references do not depend on the library's own (a boolean mask)."""
    return (z > 0.0).astype(np.float64)


def _ref_dense_init(rng, sizes):
    ws, bs = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        ws.append(glorot_uniform(rng, fan_in, fan_out))
        bs.append(np.zeros(fan_out))
    return ws, bs


def _ref_mlp(layer_sizes, loss, rng):
    net = Mlp(layer_sizes, loss, make_rng(0))
    net.weights, net.biases = _ref_dense_init(rng, layer_sizes)
    return net


def _ref_mlp_loss_and_grad(net, x, y):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    activations, pre = [x], []
    a = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w + b
        pre.append(z)
        a = z if i == last else relu(z)
        activations.append(a)
    out = activations[-1]
    n = out.shape[0]
    if net.loss == "mse":
        y = np.asarray(y, dtype=np.float64).reshape(out.shape)
        diff = out - y
        loss = float(np.mean(diff * diff))
        delta = 2.0 * diff / diff.size
    else:
        y = np.asarray(y, dtype=np.int64).ravel()
        probs = softmax(out)
        loss = float(-np.mean(np.log(probs[np.arange(n), y] + 1e-300)))
        delta = probs.copy()
        delta[np.arange(n), y] -= 1.0
        delta /= n
    grads = []
    for i in range(len(net.weights) - 1, -1, -1):
        grads.append(np.sum(delta, axis=0))
        grads.append(activations[i].T @ delta)
        if i > 0:
            delta = (delta @ net.weights[i].T) * relu_grad(pre[i - 1])
    grads.reverse()
    return loss, grads


def _ref_recurrent(cell, hidden_sizes, head_sizes, loss, rng):
    net = RecurrentNet(cell, hidden_sizes, head_sizes, loss, make_rng(0))
    net.layers = []
    d_in = 1
    for hdim in hidden_sizes:
        net.layers.append(_LstmLayer(d_in, hdim, rng) if cell == "lstm"
                          else _RnnLayer(d_in, hdim, "relu", rng))
        d_in = hdim
    out_dim = 2 if loss == "gaussian_nll" else 1
    net.head_weights, net.head_biases = [], []
    for width in list(head_sizes) + [out_dim]:
        net.head_weights.append(glorot_uniform(rng, d_in, width))
        net.head_biases.append(np.zeros(width))
        d_in = width
    return net


def _ref_recurrent_forward(net, x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2:
        x = x[:, :, None]
    seq = x
    caches = []
    for layer in net.layers:
        seq, cache = layer.forward(seq)
        caches.append(cache)
    a = seq[:, -1, :]
    head_acts, head_pre = [a], []
    last = len(net.head_weights) - 1
    for i, (w, b) in enumerate(zip(net.head_weights, net.head_biases)):
        z = a @ w + b
        head_pre.append(z)
        a = z if i == last else relu(z)
        head_acts.append(a)
    return a, (x, caches, head_acts, head_pre)


def _ref_recurrent_loss_and_grad(net, x, y):
    out, (x3, caches, head_acts, head_pre) = _ref_recurrent_forward(net, x)
    y = np.asarray(y, dtype=np.float64).ravel()
    n = out.shape[0]
    if net.loss == "mse":
        diff = out[:, 0] - y
        loss = float(np.mean(diff * diff))
        delta = (2.0 * diff / n)[:, None]
    else:
        mu = out[:, 0]
        raw = out[:, 1]
        sigma = softplus(raw) + SIGMA_FLOOR
        resid = y - mu
        loss = float(
            np.mean(0.5 * np.log(2.0 * np.pi * sigma * sigma) + resid * resid / (2.0 * sigma * sigma))
        )
        dmu = (mu - y) / (sigma * sigma) / n
        dsigma = (1.0 / sigma - resid * resid / sigma**3) / n
        draw = dsigma * sigmoid(raw)
        delta = np.column_stack([dmu, draw])
    head_grads = []
    for i in range(len(net.head_weights) - 1, -1, -1):
        head_grads.append(np.sum(delta, axis=0))
        head_grads.append(head_acts[i].T @ delta)
        if i > 0:
            delta = (delta @ net.head_weights[i].T) * relu_grad(head_pre[i - 1])
    head_grads.reverse()
    d_final = delta @ net.head_weights[0].T
    t_len = x3.shape[1]
    d_seq = np.zeros((n, t_len, d_final.shape[1]))
    d_seq[:, -1, :] = d_final
    layer_grads = []
    for layer, cache in zip(reversed(net.layers), reversed(caches)):
        d_seq, grads = layer.backward(d_seq, cache)
        layer_grads = grads + layer_grads
    return loss, layer_grads + head_grads


def _ref_autoenc_init(model, rng):
    enc_widths = [w.shape[1] for w in model.enc_w]
    head_widths = [w.shape[1] for w in model.head_w]
    enc_sizes = [model.input_width, *enc_widths]
    dec_sizes = [*reversed(enc_widths), model.input_width]
    model.enc_w, model.enc_b = _ref_dense_init(rng, enc_sizes)
    model.dec_w, model.dec_b = _ref_dense_init(rng, dec_sizes)
    model.head_w, model.head_b = _ref_dense_init(rng, [enc_widths[-1], *head_widths])


def _ref_autoenc_forward(model, x):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    enc_acts, enc_pre = [x], []
    a = x
    for w, b in zip(model.enc_w, model.enc_b):
        z = a @ w + b
        enc_pre.append(z)
        a = relu(z)
        enc_acts.append(a)
    dec_acts, dec_pre = [a], []
    d = a
    last = len(model.dec_w) - 1
    for i, (w, b) in enumerate(zip(model.dec_w, model.dec_b)):
        z = d @ w + b
        dec_pre.append(z)
        d = z if i == last else relu(z)
        dec_acts.append(d)
    head_acts, head_pre = [enc_acts[-1]], []
    h = enc_acts[-1]
    last = len(model.head_w) - 1
    for i, (w, b) in enumerate(zip(model.head_w, model.head_b)):
        z = h @ w + b
        head_pre.append(z)
        h = z if i == last else relu(z)
        head_acts.append(h)
    return (enc_acts, enc_pre), (dec_acts, dec_pre), (head_acts, head_pre)


def _ref_autoenc_component_losses(model, x, y):
    (enc_acts, _), (dec_acts, _), (head_acts, _) = _ref_autoenc_forward(model, x)
    diff = dec_acts[-1] - enc_acts[0]
    recon = float(np.mean(diff * diff))
    y = np.asarray(y, dtype=np.int64).ravel()
    probs = softmax(head_acts[-1])
    ce = float(-np.mean(np.log(probs[np.arange(len(y)), y] + 1e-300)))
    return recon, ce


def _ref_autoenc_loss_and_grad(model, x, y):
    (enc_acts, enc_pre), (dec_acts, dec_pre), (head_acts, head_pre) = _ref_autoenc_forward(model, x)
    x2 = enc_acts[0]
    n = x2.shape[0]
    y = np.asarray(y, dtype=np.int64).ravel()
    diff = dec_acts[-1] - x2
    recon_loss = float(np.mean(diff * diff))
    probs = softmax(head_acts[-1])
    ce_loss = float(-np.mean(np.log(probs[np.arange(n), y] + 1e-300)))
    total = model.alpha * recon_loss + (1.0 - model.alpha) * ce_loss

    delta = model.alpha * 2.0 * diff / diff.size
    dec_grads = []
    for i in range(len(model.dec_w) - 1, -1, -1):
        if i != len(model.dec_w) - 1:
            delta = delta * relu_grad(dec_pre[i])
        dec_grads.append(np.sum(delta, axis=0))
        dec_grads.append(dec_acts[i].T @ delta)
        delta = delta @ model.dec_w[i].T
    dec_grads.reverse()
    d_latent_from_dec = delta

    n_classes = model.head_w[-1].shape[1]
    delta = (1.0 - model.alpha) * (probs - np.eye(n_classes)[y]) / n
    head_grads = []
    for i in range(len(model.head_w) - 1, -1, -1):
        if i != len(model.head_w) - 1:
            delta = delta * relu_grad(head_pre[i])
        head_grads.append(np.sum(delta, axis=0))
        head_grads.append(head_acts[i].T @ delta)
        delta = delta @ model.head_w[i].T
    head_grads.reverse()
    d_head_in = delta

    n_enc = len(model.enc_w)
    d_acts = [np.zeros_like(a) for a in enc_acts]
    d_acts[n_enc] += d_latent_from_dec
    d_acts[n_enc] += d_head_in
    enc_grads_rev = []
    delta = None
    for i in range(n_enc - 1, -1, -1):
        d_out = d_acts[i + 1] + (delta if delta is not None else 0.0)
        dz = d_out * relu_grad(enc_pre[i])
        enc_grads_rev.append(np.sum(dz, axis=0))
        enc_grads_rev.append(enc_acts[i].T @ dz)
        delta = dz @ model.enc_w[i].T
    return total, list(reversed(enc_grads_rev)) + dec_grads + head_grads


def _ref_sgd_epochs(step, params, x, y, epochs, batch_size, learning_rate, rng):
    n = x.shape[0]
    losses = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        batch_losses = []
        for lo in range(0, n, batch_size):
            idx = order[lo : lo + batch_size]
            loss, grads = step(x[idx], y[idx])
            if not np.isfinite(loss):
                raise ContractError(f"non-finite training loss at epoch {epoch}")
            for p, g in zip(params, grads):
                p -= learning_rate * g
            batch_losses.append(loss)
        losses.append(float(np.mean(batch_losses)))
    return losses


def _ref_train_frozen(net, x, y, cfg, rng):
    n = x.shape[0]
    losses = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        batch_losses = []
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            loss, grads = _ref_mlp_loss_and_grad(net, x[idx], y[idx])
            if not np.isfinite(loss):
                raise ContractError(f"non-finite training loss at epoch {epoch}")
            net.weights[-1] -= cfg.learning_rate * grads[-2]
            net.biases[-1] -= cfg.learning_rate * grads[-1]
            batch_losses.append(loss)
        losses.append(float(np.mean(batch_losses)))
    return losses


def _ref_train_classifier(features, labels, hidden_sizes, cfg, init_net=None, freeze_hidden=False):
    rng = make_rng(cfg.seed)
    if init_net is None:
        net = _ref_mlp([features.shape[1], *hidden_sizes, int(labels.max()) + 1], "ce", rng)
    else:
        net = init_net.clone()
    if freeze_hidden:
        losses = _ref_train_frozen(net, features, labels, cfg, rng)
    else:
        losses = _ref_sgd_epochs(lambda xb, yb: _ref_mlp_loss_and_grad(net, xb, yb),
                                 net.parameters(), features, labels, cfg.epochs,
                                 cfg.batch_size, cfg.learning_rate, rng)
    return net, losses


def _ref_train_autoenc(features, states, alpha, cfg):
    rng = make_rng(cfg.seed)
    model = AutoencClassifier(features.shape[1], alpha, (128, 64), (128, 3), rng=make_rng(0))
    _ref_autoenc_init(model, rng)
    params = model.parameters()
    n = features.shape[0]
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            loss, grads = _ref_autoenc_loss_and_grad(model, features[idx], states[idx])
            if not np.isfinite(loss):
                raise ContractError(f"non-finite training loss at epoch {epoch}")
            for p, g in zip(params, grads):
                p -= cfg.learning_rate * g
        recon, ce = _ref_autoenc_component_losses(model, features, states)
        model.recon_loss_curve.append(recon)
        model.class_loss_curve.append(ce)
    return model


# --- helpers ----------------------------------------------------------------

def assert_same_bytes(arrays, ref_arrays):
    assert len(arrays) == len(ref_arrays)
    for a, ref in zip(arrays, ref_arrays):
        assert a.shape == ref.shape and a.dtype == ref.dtype
        assert a.tobytes() == ref.tobytes()


def assert_same_floats(values, ref_values):
    assert np.asarray(values, dtype=np.float64).tobytes() == \
        np.asarray(ref_values, dtype=np.float64).tobytes()


def blobs(n_per_class=20, width=4, seed=0):
    rng = make_rng(seed)
    centers = rng.normal(scale=2.0, size=(3, width))
    feats = np.concatenate([c + 0.5 * rng.normal(size=(n_per_class, width)) for c in centers])
    return feats, np.repeat(np.arange(3), n_per_class)


# --- tests ------------------------------------------------------------------

class TestMlpOracle:
    @pytest.mark.parametrize("loss", ["mse", "ce"])
    def test_init_and_loss_and_grad(self, loss):
        sizes = [5, 7, 6, 3]
        net = Mlp(sizes, loss, make_rng(31))
        ref = _ref_mlp(sizes, loss, make_rng(31))
        assert_same_bytes(net.parameters(), ref.parameters())
        rng = make_rng(32)
        x = rng.normal(size=(9, 5))
        y = rng.normal(size=(9, 3)) if loss == "mse" else rng.integers(0, 3, size=9)
        out, grads = net.loss_and_grad(x, y)
        ref_out, ref_grads = _ref_mlp_loss_and_grad(ref, x, y)
        assert_same_floats(out, ref_out)
        assert_same_bytes(grads, ref_grads)

    def test_sgd_epochs(self):
        rng = make_rng(33)
        x = rng.normal(size=(23, 4))
        y = rng.normal(size=(23, 1))
        net = Mlp([4, 6, 1], "mse", make_rng(34))
        ref = _ref_mlp([4, 6, 1], "mse", make_rng(34))
        losses = sgd_epochs(net, x, y, 4, 5, 0.05, make_rng(35))
        ref_losses = _ref_sgd_epochs(lambda xb, yb: _ref_mlp_loss_and_grad(ref, xb, yb),
                                     ref.parameters(), x, y, 4, 5, 0.05, make_rng(35))
        assert_same_floats(losses, ref_losses)
        assert_same_bytes(net.parameters(), ref.parameters())


class TestClassifierOracle:
    @pytest.mark.parametrize("freeze_hidden", [False, True])
    def test_train_classifier(self, freeze_hidden):
        feats, labels = blobs(seed=36)
        cfg = TrainConfig(epochs=5, batch_size=7, learning_rate=0.05, seed=37)
        init = train_classifier(feats, labels, (6, 5), replace(cfg, epochs=1)).net \
            if freeze_hidden else None
        model = train_classifier(feats, labels, (6, 5), cfg, init_net=init,
                                 freeze_hidden=freeze_hidden)
        ref_net, ref_losses = _ref_train_classifier(feats, labels, (6, 5), cfg, init, freeze_hidden)
        assert_same_floats(model.training_loss, ref_losses)
        assert_same_bytes(model.net.parameters(), ref_net.parameters())

    @pytest.mark.parametrize("freeze_hidden", [False, True])
    def test_train_transfer(self, freeze_hidden):
        feats, labels = blobs(seed=38)
        cfg = TrainConfig(epochs=4, batch_size=9, learning_rate=0.05, seed=39)
        enc = fit_encoder(feats, tuple(f"f{i}" for i in range(feats.shape[1])))
        source = train_classifier(enc.transform(feats), labels, (6,), cfg)
        bundle = make_bundle(source, enc)
        target, target_labels = blobs(seed=40)
        tuned = train_transfer(bundle, target, target_labels, cfg, freeze_hidden=freeze_hidden)
        ref_net, ref_losses = _ref_train_classifier(
            enc.transform(target), target_labels, (6,),
            replace(cfg, learning_rate=cfg.learning_rate * 0.1), source.net, freeze_hidden)
        assert_same_floats(tuned.training_loss, ref_losses)
        assert_same_bytes(tuned.net.parameters(), ref_net.parameters())


class TestRecurrentHeadOracle:
    def test_gaussian_head(self):
        net = RecurrentNet("rnn", [5], [4, 3], "gaussian_nll", make_rng(41))
        ref = _ref_recurrent("rnn", [5], [4, 3], "gaussian_nll", make_rng(41))
        assert_same_bytes(net.parameters(), ref.parameters())
        rng = make_rng(42)
        x = rng.normal(size=(8, 6))
        y = rng.normal(size=8)
        loss, grads = net.loss_and_grad(x, y)
        ref_loss, ref_grads = _ref_recurrent_loss_and_grad(ref, x, y)
        assert_same_floats(loss, ref_loss)
        assert_same_bytes(grads, ref_grads)
        mu, sigma = net.predict_distribution(x)
        out, _ = _ref_recurrent_forward(ref, x)
        assert_same_bytes([mu, sigma], [out[:, 0], softplus(out[:, 1]) + SIGMA_FLOOR])
        assert_same_bytes([net.predict(x)], [out[:, 0]])

        losses = sgd_epochs(net, x, y, 3, 3, 0.01, make_rng(43))
        ref_losses = _ref_sgd_epochs(lambda xb, yb: _ref_recurrent_loss_and_grad(ref, xb, yb),
                                     ref.parameters(), x, y, 3, 3, 0.01, make_rng(43))
        assert_same_floats(losses, ref_losses)
        assert_same_bytes(net.parameters(), ref.parameters())


AUTOENC_ALPHAS = (0.0, 0.3, 0.5, 0.7, 1.0)


class TestAutoencOracle:
    @pytest.mark.parametrize("alpha", AUTOENC_ALPHAS)
    def test_loss_and_grad(self, alpha):
        model = AutoencClassifier(5, alpha, (7, 6, 3), (4, 3), rng=make_rng(44))
        ref = AutoencClassifier(5, alpha, (7, 6, 3), (4, 3), rng=make_rng(0))
        _ref_autoenc_init(ref, make_rng(44))
        assert_same_bytes(model.parameters(), ref.parameters())
        rng = make_rng(45)
        x = rng.normal(size=(11, 5))
        y = rng.integers(0, 3, size=11)
        loss, grads = model.loss_and_grad(x, y)
        ref_loss, ref_grads = _ref_autoenc_loss_and_grad(ref, x, y)
        assert_same_floats(loss, ref_loss)
        assert_same_bytes(grads, ref_grads)
        assert_same_floats(model.component_losses(x, y), _ref_autoenc_component_losses(ref, x, y))

    @pytest.mark.parametrize("alpha", AUTOENC_ALPHAS)
    def test_training(self, alpha):
        feats, states = blobs(seed=46)
        cfg = TrainConfig(epochs=4, batch_size=8, learning_rate=0.05, seed=47)
        model = train_autoenc_classifier(feats, states, alpha, cfg)
        ref = _ref_train_autoenc(feats, states, alpha, cfg)
        assert len(model.recon_loss_curve) == len(model.class_loss_curve) == 4
        assert_same_floats(model.recon_loss_curve, ref.recon_loss_curve)
        assert_same_floats(model.class_loss_curve, ref.class_loss_curve)
        assert_same_bytes(model.parameters(), ref.parameters())

    def test_zero_epochs_returns_untrained_model(self):
        feats, states = blobs(seed=48)
        cfg = TrainConfig(epochs=0, seed=49)
        model = train_autoenc_classifier(feats, states, 0.5, cfg)
        ref = _ref_train_autoenc(feats, states, 0.5, cfg)
        assert model.recon_loss_curve == [] and model.class_loss_curve == []
        assert_same_bytes(model.parameters(), ref.parameters())


class TestTrainingCopy:
    """sgd_epochs trains a copy whose parameters are views of one flat array
    and writes the values back into the caller's arrays."""

    def test_divergence_leaves_the_last_finite_step_in_the_callers_arrays(self):
        rng = make_rng(50)
        x = rng.normal(size=(23, 4))
        y = rng.normal(size=(23, 1))
        net = Mlp([4, 6, 1], "mse", make_rng(51))
        ref = _ref_mlp([4, 6, 1], "mse", make_rng(51))
        steps = []

        def ref_step(xb, yb):
            steps.append(len(steps))
            return _ref_mlp_loss_and_grad(ref, xb, yb)

        params = net.parameters()
        with np.errstate(all="ignore"):
            with pytest.raises(ContractError, match="non-finite training loss at epoch 1") as got:
                sgd_epochs(net, x, y, 4, 5, 1.0, make_rng(52))
            with pytest.raises(ContractError) as want:
                _ref_sgd_epochs(ref_step, ref.parameters(), x, y, 4, 5, 1.0, make_rng(52))
        assert str(got.value) == str(want.value)
        # five batches an epoch: the loss went non-finite inside epoch 1, not at its start
        assert 5 < len(steps) <= 10 and len(steps) != 6
        assert all(p is q for p, q in zip(net.parameters(), params))
        assert_same_bytes(net.parameters(), ref.parameters())

    def test_relu_mask_read_from_activations_equals_the_pre_activation_mask(self):
        z = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                      2.2e-308, -2.2e-308, 1.0, -1.0])
        a = z.copy()
        np.maximum(a, 0.0, out=a)  # the ReLU dense_forward applies in place
        assert np.array_equal(relu_grad(a), relu_grad(z))
        # through the dense stack: one input of 1.0 makes the hidden
        # pre-activations z (+ a zero bias, which turns -0.0 into 0.0)
        weights = [z[None, :], np.ones((z.size, 1))]
        biases = [np.zeros(z.size), np.zeros(1)]
        with np.errstate(invalid="ignore"):
            acts = dense_forward(weights, biases, np.ones((1, 1)))
            grads, _ = dense_backward(weights, acts, np.ones((1, 1)))
        assert grads[1].tobytes() == relu_grad(z).tobytes()
