"""Autoencoder classifier for machine operation states: shared encoder,
reconstruction decoder, and a softmax head trained with a weighted sum of the
two losses."""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .core import ContractError, make_rng
from .classify import TrainConfig
from .nn import Model, sgd_epochs, softmax
from .nn.base import cross_entropy_and_delta, mse_and_delta
from .nn.dense import dense_backward, dense_forward, dense_init, dense_parameters

DEFAULT_ENCODER_WIDTHS = (128, 64)
DEFAULT_HEAD_WIDTHS = (128, 3)


class AutoencClassifier(Model):
    """An encoder through `encoder_widths`, the mirrored decoder back to the
    input, and a classification head through `head_widths` on the latent code.
    `train_autoenc_classifier` builds it at the paper's widths: encoder
    input->128->64, decoder 64->128->input, head 64->128->3.

    loss = alpha * MSE(reconstruction) + (1 - alpha) * CrossEntropy(head).
    """

    def __init__(
        self,
        input_width: int,
        alpha: float,
        encoder_widths: Sequence[int],
        head_widths: Sequence[int],
        rng: np.random.Generator,
    ):
        if not 0.0 <= alpha <= 1.0:
            raise ContractError("alpha must lie in [0, 1]")
        if len(encoder_widths) < 1 or len(head_widths) < 1:
            raise ContractError("encoder and head need at least one layer each")
        self.input_width = input_width
        self.alpha = alpha
        enc_sizes = [input_width, *encoder_widths]
        dec_sizes = [*reversed(encoder_widths), input_width]
        self.enc_w, self.enc_b = dense_init(enc_sizes, rng)
        self.dec_w, self.dec_b = dense_init(dec_sizes, rng)
        self.head_w, self.head_b = dense_init([encoder_widths[-1], *head_widths], rng)
        self.recon_loss_curve: List[float] = []
        self.class_loss_curve: List[float] = []

    def parameters(self) -> List[np.ndarray]:
        return (dense_parameters(self.enc_w, self.enc_b)
                + dense_parameters(self.dec_w, self.dec_b)
                + dense_parameters(self.head_w, self.head_b))

    def _forward(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.input_width:
            raise ContractError(f"expected input width {self.input_width}, got {x.shape[1]}")
        enc_acts = dense_forward(self.enc_w, self.enc_b, x, relu_last=True)
        dec_acts = dense_forward(self.dec_w, self.dec_b, enc_acts[-1])
        head_acts = dense_forward(self.head_w, self.head_b, enc_acts[-1])
        return enc_acts, dec_acts, head_acts

    def predict_proba(self, x) -> np.ndarray:
        _, _, head_acts = self._forward(x)
        return softmax(head_acts[-1])

    def component_losses(self, x, y) -> Tuple[float, float]:
        enc_acts, dec_acts, head_acts = self._forward(x)
        recon, _ = mse_and_delta(dec_acts[-1], enc_acts[0], 2)
        ce, _ = cross_entropy_and_delta(head_acts[-1], y)
        return float(recon), float(ce)

    def loss_and_grad(self, x, y) -> Tuple[float, List[np.ndarray]]:
        enc_acts, dec_acts, head_acts = self._forward(x)
        recon, d_recon = mse_and_delta(dec_acts[-1], enc_acts[0], 2, weight=self.alpha)
        ce, d_logits = cross_entropy_and_delta(head_acts[-1], y, weight=1.0 - self.alpha)
        total = self.alpha * float(recon) + (1.0 - self.alpha) * float(ce)
        dec_grads, d_latent = dense_backward(self.dec_w, dec_acts, d_recon, input_grad=True)
        head_grads, d_head_in = dense_backward(self.head_w, head_acts, d_logits, input_grad=True)
        # the decoder and head gradients meet at the latent code
        enc_grads, _ = dense_backward(self.enc_w, enc_acts, d_head_in + d_latent, relu_last=True)
        return total, enc_grads + dec_grads + head_grads


def train_autoenc_classifier(
    features,
    states,
    alpha: float = 0.5,
    cfg: TrainConfig = TrainConfig(epochs=20, batch_size=32, learning_rate=0.01),
) -> AutoencClassifier:
    """Joint SGD on the weighted dual loss of an AutoencClassifier at the
    default widths; both loss curves are recorded per epoch. Deterministic
    given cfg.seed."""
    features = np.asarray(features, dtype=np.float64)
    states = np.asarray(states, dtype=np.int64).ravel()
    if features.ndim != 2 or features.shape[0] != states.size:
        raise ContractError("features must be 2-d and row-parallel with states")
    if not np.all(np.isfinite(features)):
        raise ContractError("features must be finite")
    n_states = DEFAULT_HEAD_WIDTHS[-1]
    if states.size == 0 or states.min() < 0 or states.max() >= n_states:
        raise ContractError(f"states must be one or more values in [0, {n_states})")
    rng = make_rng(cfg.seed)
    model = AutoencClassifier(features.shape[1], alpha, DEFAULT_ENCODER_WIDTHS,
                              DEFAULT_HEAD_WIDTHS, rng)

    def record_losses():
        recon, ce = model.component_losses(features, states)
        model.recon_loss_curve.append(recon)
        model.class_loss_curve.append(ce)

    if cfg.epochs > 0:
        sgd_epochs(model, features, states, cfg.epochs, cfg.batch_size, cfg.learning_rate,
                   rng, on_epoch=record_losses)
    return model
