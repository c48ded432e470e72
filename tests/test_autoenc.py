import numpy as np
import pytest

from vibrosense.autoenc import (
    AutoencClassifier,
    train_autoenc_classifier,
)
from vibrosense.classify import TrainConfig, evaluate, train_classifier
from vibrosense.core import ContractError, make_rng
from vibrosense.nn import gradient_check, relu, softmax
from vibrosense.nn.base import cross_entropy_and_delta, mse_and_delta


def blobs(n_per_class=50, spread=0.2, seed=0, width=4):
    rng = make_rng(seed)
    centers = np.zeros((3, width))
    centers[1, 0] = 3.0
    centers[2, 1] = 3.0
    feats = np.concatenate([c + spread * rng.normal(size=(n_per_class, width)) for c in centers])
    labels = np.repeat(np.arange(3), n_per_class)
    return feats, labels


def toy_model(alpha, seed=0):
    return AutoencClassifier(input_width=4, alpha=alpha, encoder_widths=(5, 3),
                             head_widths=(4, 3), rng=make_rng(seed))


class TestDualLossGradients:
    def test_alpha_one_zeroes_head_gradients(self):
        model = toy_model(alpha=1.0)
        rng = make_rng(1)
        x = rng.normal(size=(6, 4))
        y = np.array([0, 1, 2, 0, 1, 2])
        _, grads = model.loss_and_grad(x, y)
        n_head = 2 * len(model.head_w)
        for g in grads[-n_head:]:
            assert np.all(g == 0.0)  # bit-exact
        # encoder and decoder still receive gradient
        assert any(np.any(g != 0.0) for g in grads[:-n_head])

    def test_alpha_zero_zeroes_decoder_gradients(self):
        model = toy_model(alpha=0.0)
        rng = make_rng(2)
        x = rng.normal(size=(6, 4))
        y = np.array([0, 1, 2, 0, 1, 2])
        _, grads = model.loss_and_grad(x, y)
        n_enc = 2 * len(model.enc_w)
        n_dec = 2 * len(model.dec_w)
        for g in grads[n_enc : n_enc + n_dec]:
            assert np.all(g == 0.0)  # bit-exact
        assert any(np.any(g != 0.0) for g in grads[:n_enc])

    @pytest.mark.parametrize("weight", [0.0, 0.3, 0.7, 1.0])
    def test_loss_weight_scales_the_gradient_only(self, weight):
        rng = make_rng(5)
        out, target = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        logits, y = rng.normal(size=(6, 3)), np.array([0, 1, 2, 2, 1, 0])
        mse, d_mse = mse_and_delta(out, target, 2, weight=weight)
        ce, d_ce = cross_entropy_and_delta(logits, y, weight=weight)
        # the losses are the unweighted ones; the gradients are multiplied
        # out left to right, weight * 2 * diff / N and weight * (p - onehot) / n
        assert mse == mse_and_delta(out, target, 2)[0]
        assert ce == cross_entropy_and_delta(logits, y)[0]
        diff = out - target
        assert d_mse.tobytes() == (weight * 2.0 * diff / diff.size).tobytes()
        assert d_ce.tobytes() == (weight * (softmax(logits) - np.eye(3)[y]) / 6).tobytes()

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7, 1.0])
    def test_joint_gradient_check(self, alpha):
        model = toy_model(alpha=alpha, seed=3)
        rng = make_rng(4)
        x = rng.normal(size=(5, 4))
        y = np.array([0, 2, 1, 0, 1])
        assert gradient_check(model, x, y) < 1e-4

    def test_head_reads_the_latent_code(self):
        model = toy_model(alpha=0.5, seed=7)
        x = make_rng(8).normal(size=(6, 4))
        h = x
        for w, b in zip(model.enc_w, model.enc_b):
            h = relu(h @ w + b)
        assert h.shape == (6, 3)
        for i, (w, b) in enumerate(zip(model.head_w, model.head_b)):
            h = h @ w + b
            if i < len(model.head_w) - 1:
                h = relu(h)
        assert np.allclose(model.predict_proba(x), softmax(h), rtol=1e-12, atol=0.0)
        # the decoder plays no part in classification
        proba = model.predict_proba(x)
        model.dec_w[0] += 1.0
        assert np.array_equal(model.predict_proba(x), proba)


class TestTraining:
    def test_loss_curves_recorded(self):
        feats, labels = blobs()
        model = train_autoenc_classifier(feats, labels, alpha=0.5,
                                         cfg=TrainConfig(epochs=6, batch_size=16))
        assert len(model.recon_loss_curve) == 6
        assert len(model.class_loss_curve) == 6
        assert model.class_loss_curve[-1] < model.class_loss_curve[0]

    def test_alpha_zero_matches_plain_classifier_within_2_points(self):
        feats, labels = blobs(seed=7)
        cfg = TrainConfig(epochs=30, batch_size=16, seed=7)
        ae = train_autoenc_classifier(feats, labels, alpha=0.0, cfg=cfg)
        plain = train_classifier(feats, labels, hidden_sizes=(16,), cfg=cfg)
        preds_ae = np.argmax(ae.predict_proba(feats), axis=1)
        acc_ae = float(np.mean(preds_ae == labels))
        acc_plain, _ = evaluate(plain, feats, labels)
        assert abs(acc_ae - acc_plain) <= 0.02

    def test_deterministic(self):
        feats, labels = blobs(seed=2)
        cfg = TrainConfig(epochs=3, batch_size=16, seed=5)
        a = train_autoenc_classifier(feats, labels, cfg=cfg)
        b = train_autoenc_classifier(feats, labels, cfg=cfg)
        assert np.array_equal(a.predict_proba(feats), b.predict_proba(feats))

    @pytest.mark.parametrize("bad_state", [-1, 5])
    def test_states_outside_head_width_rejected(self, bad_state):
        # -1 used to train as class 2 (np.eye wraps around), 5 raised IndexError
        feats, labels = blobs(n_per_class=14)
        states = labels[:40].copy()
        states[7] = bad_state
        with pytest.raises(ContractError, match="states"):
            train_autoenc_classifier(feats[:40], states, cfg=TrainConfig(epochs=1, batch_size=8))

    def test_no_rows_rejected(self):
        # zero rows used to train on nothing and return NaN loss curves
        with pytest.raises(ContractError, match="states"):
            train_autoenc_classifier(np.zeros((0, 4)), np.zeros(0, dtype=int),
                                     cfg=TrainConfig(epochs=1))

    def test_alpha_one_reconstructs(self):
        feats, labels = blobs(seed=3)
        model = train_autoenc_classifier(feats, labels, alpha=1.0,
                                         cfg=TrainConfig(epochs=20, batch_size=16))
        assert model.recon_loss_curve[-1] < model.recon_loss_curve[0]


class TestInference:
    def test_probabilities_sum_to_one(self):
        feats, labels = blobs(n_per_class=20)
        model = train_autoenc_classifier(feats, labels, cfg=TrainConfig(epochs=2, batch_size=16))
        probs = model.predict_proba(feats)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_inference_deterministic(self):
        feats, labels = blobs(n_per_class=15)
        model = train_autoenc_classifier(feats, labels, cfg=TrainConfig(epochs=1, batch_size=8))
        assert np.array_equal(model.predict_proba(feats), model.predict_proba(feats))

    def test_guards(self):
        with pytest.raises(ContractError):
            AutoencClassifier(input_width=4, alpha=1.5)
        model = toy_model(alpha=0.5)
        with pytest.raises(ContractError):
            model.predict_proba(np.zeros((2, 7)))
