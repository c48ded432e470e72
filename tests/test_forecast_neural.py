import numpy as np
import pytest

from vibrosense.core import ContractError, TimeSeries, make_rng
from vibrosense.forecast import (
    FAMILIES,
    AutoencoderForecaster,
    ForecastModelConfig,
    GaussianRnnForecaster,
    LstmForecaster,
    MODEL_DEFAULTS,
    MlpForecaster,
    RnnForecaster,
    fit,
    make_windows,
)
from vibrosense.nn import ConvAutoencoder, Mlp, RecurrentNet, gradient_check, sgd_epochs
from vibrosense.nn.base import sigmoid
from vibrosense.nn.conv import _Conv1d, _ConvTranspose1d, _same_padding
from vibrosense.nn.recurrent import _LstmLayer


def series(values):
    return TimeSeries(0.0, 1.0, np.asarray(values, dtype=float))


def sine(n, period=20.0, noise=0.0, seed=0):
    t = np.arange(n, dtype=float)
    values = np.sin(2 * np.pi * t / period)
    if noise:
        values = values + make_rng(seed).normal(0.0, noise, n)
    return values


class TestGradients:
    """Central finite-difference checks (h=1e-5) on toy instances."""

    def test_mlp_mse(self):
        rng = make_rng(0)
        net = Mlp([3, 4, 1], loss="mse", rng=rng)
        x = rng.normal(size=(6, 3))
        y = rng.normal(size=6)
        assert gradient_check(net, x, y) < 1e-4

    def test_rnn_mse(self):
        rng = make_rng(1)
        net = RecurrentNet("rnn", [4, 3], [], loss="mse", rng=rng, activation="tanh")
        x = rng.normal(size=(5, 6))
        y = rng.normal(size=5)
        assert gradient_check(net, x, y) < 1e-3

    def test_rnn_relu_mse(self):
        rng = make_rng(6)
        net = RecurrentNet("rnn", [4], [], loss="mse", rng=rng, activation="relu")
        x = rng.normal(size=(5, 5))
        y = rng.normal(size=5)
        assert gradient_check(net, x, y) < 1e-3

    def test_lstm_mse(self):
        rng = make_rng(2)
        net = RecurrentNet("lstm", [3], [4], loss="mse", rng=rng)
        x = rng.normal(size=(4, 4))
        y = rng.normal(size=4)
        assert gradient_check(net, x, y) < 1e-3

    def test_gaussian_nll(self):
        rng = make_rng(3)
        net = RecurrentNet("rnn", [4], [], loss="gaussian_nll", rng=rng, activation="tanh")
        x = rng.normal(size=(5, 4))
        y = rng.normal(size=5)
        assert gradient_check(net, x, y) < 1e-3

    def test_conv_autoencoder(self):
        rng = make_rng(4)
        net = ConvAutoencoder(window=8, filters=2, kernel=3, stride=2, n_layers=2,
                              dropout=0.0, rng=rng)
        x = rng.normal(size=(3, 8))
        assert gradient_check(net, x, None) < 1e-4


class TestMlpForecaster:
    def test_defaults(self):
        d = MODEL_DEFAULTS["mlp"]
        assert d["hidden_layers"] == 3 and d["neurons"] == 50 and d["batch_size"] == 10

    def test_loss_curve_monitored(self):
        values = sine(120, noise=0.02)
        model = MlpForecaster(hidden_layers=2, neurons=16, epochs=5, seed=0).fit(series(values))
        assert len(model.training_loss) == 5
        assert model.training_loss[-1] <= model.training_loss[0]

    def test_zero_output_layer_predicts_bias(self):
        rng = make_rng(0)
        net = Mlp([4, 5, 1], loss="mse", rng=rng)
        net.weights[-1][...] = 0.0
        net.biases[-1][...] = 3.5
        out = net.logits(rng.normal(size=(7, 4)))
        assert np.allclose(out, 3.5)

    def test_deterministic(self):
        values = sine(80, noise=0.05)
        a = MlpForecaster(hidden_layers=1, neurons=8, epochs=2, seed=5).fit(series(values))
        b = MlpForecaster(hidden_layers=1, neurons=8, epochs=2, seed=5).fit(series(values))
        ctx = values[-10:]
        assert a.predict_one_step(ctx) == b.predict_one_step(ctx)

    def test_denormalizes_to_raw_units(self):
        values = 100.0 + sine(120)
        model = MlpForecaster(hidden_layers=1, neurons=16, epochs=10, seed=0).fit(series(values))
        pred = model.predict_one_step(values[-10:])
        assert 95.0 < pred < 105.0


class TestLstmForecaster:
    def test_parameter_count(self):
        # gate parameters 4*(H*(H+1) + H) for input size 1, plus dense head
        H, dense = 3, 4
        rng = make_rng(0)
        net = RecurrentNet("lstm", [H], [dense], loss="mse", rng=rng)
        lstm_params = sum(p.size for p in net.layers[0].parameters())
        assert lstm_params == 4 * (H * (H + 1) + H)
        head_params = sum(w.size + b.size for w, b in zip(net.head_weights, net.head_biases))
        assert head_params == (H * dense + dense) + (dense * 1 + 1)

    def test_learns_constant_series(self):
        values = np.full(80, 2.0)
        model = LstmForecaster(blocks=1, neurons=8, dense_units=4, epochs=5,
                               learning_rate=0.05, seed=0).fit(series(values))
        pred = model.predict_one_step(values[-10:])
        assert abs(pred - 2.0) < 0.05

    def test_defaults(self):
        d = MODEL_DEFAULTS["lstm"]
        assert d["blocks"] == 4 and d["neurons"] == 100 and d["learning_rate"] == 0.005


class TestRnnForecaster:
    def test_fit_predict(self):
        values = sine(100)
        model = RnnForecaster(hidden_layers=1, neurons=8, epochs=3, seed=1).fit(series(values))
        pred = model.predict_one_step(values[-10:])
        assert np.isfinite(pred)

    def test_min_window(self):
        with pytest.raises(ContractError):
            RnnForecaster(lag_window=1)


class TestGaussianRnn:
    def test_sigma_positive(self):
        values = sine(80, noise=0.1)
        model = GaussianRnnForecaster(hidden_layers=1, cells=6, epochs=2, seed=0).fit(series(values))
        _, sigma = model.predict_distribution(values[-10:])
        assert sigma > 0

    def test_short_context_rejected(self):
        values = sine(80, noise=0.1)
        model = GaussianRnnForecaster(hidden_layers=1, cells=6, epochs=1, seed=0).fit(series(values))
        with pytest.raises(ContractError, match="context must hold >= 10 values"):
            model.predict_distribution(values[-3:])

    def test_standard_normal_nll_identity(self):
        rng = make_rng(7)
        net = RecurrentNet("rnn", [3], [], loss="gaussian_nll", rng=rng, activation="tanh")
        # freeze the head at mu = 0, sigma = 1
        net.head_weights[-1][...] = 0.0
        raw = np.log(np.expm1(1.0 - 1e-6))
        net.head_biases[-1][...] = [0.0, raw]
        x = rng.normal(size=(200, 4))
        y = rng.normal(size=200)
        loss, _ = net.loss_and_grad(x, y)
        expected = 0.5 * np.log(2 * np.pi) + 0.5 * np.mean(y * y)
        assert loss == pytest.approx(expected, abs=1e-9)

    def test_nll_decreases_on_ar_data(self):
        rng = make_rng(3)
        values = np.empty(150)
        prev = 0.0
        for i in range(150):
            prev = 0.8 * prev + rng.normal(0.0, 0.1)
            values[i] = prev
        model = GaussianRnnForecaster(hidden_layers=1, cells=8, epochs=5,
                                      learning_rate=0.01, seed=0).fit(series(values))
        assert model.training_loss[-1] < model.training_loss[0]


class TestConvAutoencoder:
    def test_same_padding_arithmetic(self):
        lengths = [64]
        for _ in range(3):
            lengths.append(_same_padding(lengths[-1], 7, 2)[0])
        assert lengths == [64, 32, 16, 8]

    def test_encoder_shapes(self):
        rng = make_rng(0)
        net = ConvAutoencoder(window=64, filters=4, kernel=7, stride=2, n_layers=3,
                              dropout=0.0, rng=rng)
        x = rng.normal(size=(2, 64, 1))
        a = x
        shapes = []
        for layer in net.encoder:
            z, _ = layer.forward(a)
            a = np.maximum(z, 0.0)
            shapes.append(a.shape[1])
        assert shapes == [32, 16, 8]
        recon = net.reconstruct(x[:, :, 0])
        assert recon.shape == (2, 64)

    def test_inference_deterministic_dropout_off(self):
        values = sine(100)
        model = AutoencoderForecaster(window=16, filters=4, epochs=1, seed=0).fit(series(values))
        ctx = values[-16:]
        assert model.predict_one_step(ctx) == model.predict_one_step(ctx)

    def test_reconstruction_loss_decreases(self):
        values = sine(120)
        model = AutoencoderForecaster(window=16, filters=4, epochs=5, seed=0).fit(series(values))
        assert len(model.training_loss) == 5
        assert model.training_loss[-1] < model.training_loss[0]

    def test_window_divisibility_guard(self):
        with pytest.raises(ContractError):
            ConvAutoencoder(window=20, filters=2, kernel=3, stride=2, n_layers=3,
                            dropout=0.0, rng=make_rng(0))

    def test_construction_needs_a_generator(self):
        with pytest.raises(TypeError, match="rng"):
            ConvAutoencoder(16, filters=2)

    def test_reconstruct_never_drops_out(self):
        rng = make_rng(4)
        net = ConvAutoencoder(16, rng, filters=2, kernel=3, dropout=0.5)
        x = rng.normal(size=(3, 16))
        plain = net.reconstruct(x)
        net.dropout_rng = make_rng(5)
        assert np.array_equal(net.reconstruct(x), plain)
        assert net.dropout_rng.bit_generator.state == make_rng(5).bit_generator.state

    def test_dropout_training_deterministic(self):
        values = sine(90)
        a = AutoencoderForecaster(window=16, filters=4, epochs=2, dropout=0.2, seed=3).fit(series(values))
        b = AutoencoderForecaster(window=16, filters=4, epochs=2, dropout=0.2, seed=3).fit(series(values))
        assert a.training_loss == b.training_loss

    def test_training_draws_dropout_from_the_callers_generator(self):
        # each step draws one uniform per encoder activation, a PCG64 output
        # apiece: 2 epochs x 23 windows x 4 filters x (8 + 4 + 2) positions
        x = make_rng(5).normal(size=(23, 16))
        net = ConvAutoencoder(window=16, filters=4, kernel=3, n_layers=3, dropout=0.2,
                              rng=make_rng(1))
        dropout_rng = make_rng(2)
        net.dropout_rng = dropout_rng
        sgd_epochs(net, x, x, 2, 5, 0.01, make_rng(3))
        reference = make_rng(2)
        reference.bit_generator.advance(2 * 23 * 4 * (8 + 4 + 2))
        assert net.dropout_rng is dropout_rng
        assert dropout_rng.bit_generator.state == reference.bit_generator.state


class TestWindows:
    def test_make_windows_orientation(self):
        rows, targets = make_windows(np.arange(6.0), 3)
        assert np.array_equal(rows, [[0, 1, 2], [1, 2, 3], [2, 3, 4]])
        assert np.array_equal(targets, [3, 4, 5])

    def test_too_short(self):
        with pytest.raises(ContractError):
            make_windows(np.arange(3.0), 3)


class TestTrainingGuards:
    @pytest.mark.parametrize("kind, params, raises_at", [
        ("lstm", {"lag_window": 1}, "construction"),
        ("gaussian_rnn", {"lag_window": 1}, "construction"),
        ("mlp", {"hidden_layers": 0}, "construction"),
        ("mlp", {"neurons": 0}, "construction"),
        ("autoencoder", {"window": 4}, "construction"),
        ("autoencoder", {"window": 20, "filters": 2, "epochs": 1}, "fit"),
    ])
    def test_bad_architecture_is_contract_error(self, kind, params, raises_at):
        if raises_at == "construction":
            with pytest.raises(ContractError):
                FAMILIES[kind](**params)
            return
        FAMILIES[kind](**params)  # the net is built by the fit
        with pytest.raises(ContractError, match="multiple of 8"):
            fit(ForecastModelConfig(kind, params), series(sine(60)))

    def test_non_finite_loss_reported(self):
        values = sine(60)
        model = MlpForecaster(hidden_layers=1, neurons=8, epochs=3,
                              learning_rate=1e6, seed=0)
        with np.errstate(over="ignore"), \
                pytest.raises(ContractError, match="non-finite training loss at epoch"):
            model.fit(series(values))

    @pytest.mark.parametrize("params, message", [
        ({"learning_rate": float("nan")}, "learning_rate must be finite and positive, got nan"),
        ({"learning_rate": float("inf")}, "learning_rate must be finite and positive, got inf"),
        ({"learning_rate": 0.0}, "learning_rate must be finite and positive, got 0.0"),
        ({"learning_rate": -0.01}, "learning_rate must be finite and positive, got -0.01"),
        ({"learning_rate": "0.01"}, "learning_rate must be finite and positive, got '0.01'"),
        ({"batch_size": 4.5}, "batch_size must be a positive integer, got 4.5"),
        ({"batch_size": 0}, "batch_size must be a positive integer, got 0"),
        ({"epochs": 2.0}, "epochs must be a positive integer, got 2.0"),
        ({"epochs": -1}, "epochs must be a positive integer, got -1"),
        ({"epochs": True}, "epochs must be a positive integer, got True"),
    ])
    def test_bad_schedule_is_a_contract_error_naming_the_value(self, params, message):
        config = ForecastModelConfig("mlp", {"hidden_layers": 1, "neurons": 4, **params})
        with pytest.raises(ContractError) as exc:
            fit(config, series(sine(60)))
        assert str(exc.value) == message
        net = Mlp([3, 1], "mse", make_rng(0))
        x = np.zeros((6, 3))
        schedule = {"epochs": 1, "batch_size": 2, "learning_rate": 0.1, **params}
        with pytest.raises(ContractError) as exc:
            sgd_epochs([net, net], [x, x], [x[:, :1], x[:, :1]], rng=[make_rng(1), make_rng(2)],
                       **schedule)
        assert str(exc.value) == message

    def test_integer_schedule_of_any_integer_type_trains(self):
        net = Mlp([3, 1], "mse", make_rng(0))
        x = make_rng(1).normal(size=(6, 3))
        curve = sgd_epochs(net, x, x[:, :1], np.int64(2), np.int32(4), 1, make_rng(2))
        assert len(curve) == 2


# Reference kernels: the per-tap convolution loops and the three-call LSTM
# gate code that the im2col/GEMM layers and the fused gate activation
# replaced. The convolutions now sum in another order, so they are compared
# within a relative tolerance; the LSTM and sigmoid must stay bit-identical.


def _ref_conv_forward(layer, x):
    n, length, _ = x.shape
    out_len, pad_left, pad_right = _same_padding(length, layer.kernel, layer.stride)
    xp = np.pad(x, ((0, 0), (pad_left, pad_right), (0, 0)))
    out = np.broadcast_to(layer.b, (n, out_len, layer.b.size)).copy()
    for u in range(layer.kernel):
        sl = xp[:, u : u + out_len * layer.stride : layer.stride, :]
        out += sl @ layer.w[u]
    return out, (xp, length, pad_left, out_len)


def _ref_conv_backward(layer, d_out, cache):
    xp, length, pad_left, out_len = cache
    dw = np.zeros_like(layer.w)
    db = d_out.sum(axis=(0, 1))
    dxp = np.zeros_like(xp)
    for u in range(layer.kernel):
        sl = xp[:, u : u + out_len * layer.stride : layer.stride, :]
        dw[u] = np.einsum("nli,nlo->io", sl, d_out)
        dxp[:, u : u + out_len * layer.stride : layer.stride, :] += d_out @ layer.w[u].T
    return dxp[:, pad_left : pad_left + length, :], [dw, db]


def _ref_conv_transpose_forward(layer, x):
    n, in_len, _ = x.shape
    out_len = in_len * layer.stride
    _, pad_left, pad_right = _same_padding(out_len, layer.kernel, layer.stride)
    yp = np.zeros((n, out_len + pad_left + pad_right, layer.b.size))
    for u in range(layer.kernel):
        yp[:, u : u + in_len * layer.stride : layer.stride, :] += x @ np.swapaxes(layer.w[u], 0, 1)
    out = yp[:, pad_left : pad_left + out_len, :] + layer.b
    return out, (x, in_len, pad_left, pad_right, out_len)


def _ref_conv_transpose_backward(layer, d_out, cache):
    x, in_len, pad_left, pad_right, out_len = cache
    db = d_out.sum(axis=(0, 1))
    dyp = np.pad(d_out, ((0, 0), (pad_left, pad_right), (0, 0)))
    dw = np.zeros_like(layer.w)
    dx = np.zeros_like(x)
    for u in range(layer.kernel):
        sl = dyp[:, u : u + in_len * layer.stride : layer.stride, :]
        dw[u] = np.einsum("nlo,nli->oi", sl, x)
        dx += sl @ layer.w[u]
    return dx, [dw, db]


def _masked_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _ref_lstm_forward(self, x):
    n, t_len, _ = x.shape
    hdim = self.hidden
    h = np.zeros((n, hdim))
    c = np.zeros((n, hdim))
    gates, cells, states = [], [], []
    for t in range(t_len):
        z = x[:, t, :] @ self.wx + h @ self.wh + self.b
        i = _masked_sigmoid(z[:, :hdim])
        f = _masked_sigmoid(z[:, hdim : 2 * hdim])
        g = np.tanh(z[:, 2 * hdim : 3 * hdim])
        o = _masked_sigmoid(z[:, 3 * hdim :])
        c = f * c + i * g
        h = o * np.tanh(c)
        gates.append((i, f, g, o))
        cells.append(c)
        states.append(h)
    return np.stack(states, axis=1), (x, gates, cells, states)


def _ref_lstm_backward(self, d_out, cache):
    x, gates, cells, states = cache
    n, t_len, _ = x.shape
    hdim = self.hidden
    dwx = np.zeros_like(self.wx)
    dwh = np.zeros_like(self.wh)
    db = np.zeros_like(self.b)
    dx = np.zeros_like(x)
    dh = np.zeros((n, hdim))
    dc = np.zeros((n, hdim))
    for t in range(t_len - 1, -1, -1):
        i, f, g, o = gates[t]
        c = cells[t]
        c_prev = cells[t - 1] if t > 0 else np.zeros_like(c)
        h_prev = states[t - 1] if t > 0 else np.zeros((n, hdim))
        dh_total = d_out[:, t, :] + dh
        tc = np.tanh(c)
        do = dh_total * tc
        dct = dc + dh_total * o * (1.0 - tc * tc)
        di = dct * g
        df = dct * c_prev
        dg = dct * i
        dz = np.concatenate(
            [di * i * (1.0 - i), df * f * (1.0 - f), dg * (1.0 - g * g), do * o * (1.0 - o)],
            axis=1,
        )
        dwx += x[:, t, :].T @ dz
        dwh += h_prev.T @ dz
        db += dz.sum(axis=0)
        dx[:, t, :] = dz @ self.wx.T
        dh = dz @ self.wh.T
        dc = dct * f
    return dx, [dwx, dwh, db]


def relu_grad(z):
    """The ReLU derivative as a float 0/1 mask, written out here so that the
    reference does not depend on the library's own (a boolean mask)."""
    return (z > 0.0).astype(np.float64)


def _ref_autoencoder_loss_and_grad(net, x):
    """ConvAutoencoder.loss_and_grad with the first encoder layer's full
    backward pass, input gradient included."""
    out, x3, enc_caches, dec_caches = net._forward(x)
    diff = out - x3
    loss = float(np.mean(diff * diff))
    delta = 2.0 * diff / diff.size
    dec_grads = []
    last = len(net.decoder) - 1
    for i in range(last, -1, -1):
        cache, z = dec_caches[i]
        if i != last:
            delta = delta * relu_grad(z)
        delta, grads = net.decoder[i].backward(delta, cache)
        dec_grads = grads + dec_grads
    enc_grads = []
    for i in range(len(net.encoder) - 1, -1, -1):
        cache, z, mask = enc_caches[i]
        if mask is not None:
            delta = delta * mask
        delta = delta * relu_grad(z)
        delta, grads = net.encoder[i].backward(delta, cache)
        enc_grads = grads + enc_grads
    return loss, enc_grads + dec_grads


def _assert_rel_close(new, ref, rtol=1e-12):
    """Max abs difference within rtol of the reference's largest magnitude."""
    assert new.shape == ref.shape
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(new - ref)) <= rtol * scale, np.max(np.abs(new - ref)) / scale


# (layer, c_in, c_out, input length, kernel, batch): every layer of the
# detect-grid autoencoder at window 32 (32 filters, kernel 7) and of the
# criterion-2 toy (window 8, 2 filters, kernel 3); stride 2 throughout.
CONV_SHAPES = [
    (_Conv1d, 1, 32, 32, 7, 10),
    (_Conv1d, 32, 32, 16, 7, 10),
    (_ConvTranspose1d, 32, 32, 8, 7, 10),
    (_ConvTranspose1d, 32, 1, 16, 7, 10),
    (_Conv1d, 1, 2, 8, 3, 3),
    (_Conv1d, 2, 2, 4, 3, 3),
    (_ConvTranspose1d, 2, 2, 2, 3, 3),
    (_ConvTranspose1d, 2, 1, 4, 3, 3),
]
CONV_REFS = {
    _Conv1d: (_ref_conv_forward, _ref_conv_backward),
    _ConvTranspose1d: (_ref_conv_transpose_forward, _ref_conv_transpose_backward),
}


class TestKernelOracles:
    @pytest.mark.parametrize("cls,c_in,c_out,length,kernel,batch", CONV_SHAPES)
    def test_conv_matches_per_tap_reference(self, cls, c_in, c_out, length, kernel, batch):
        rng = make_rng(21)
        layer = cls(c_in, c_out, kernel, 2, rng)
        layer.b[...] = rng.normal(size=layer.b.shape)
        x = rng.normal(size=(batch, length, c_in))
        ref_forward, ref_backward = CONV_REFS[cls]
        out, cache = layer.forward(x)
        ref_out, ref_cache = ref_forward(layer, x)
        _assert_rel_close(out, ref_out)
        d_out = rng.normal(size=out.shape)
        dx, (dw, db) = layer.backward(d_out, cache)
        ref_dx, (ref_dw, ref_db) = ref_backward(layer, d_out, ref_cache)
        _assert_rel_close(dx, ref_dx)
        _assert_rel_close(dw, ref_dw)
        _assert_rel_close(db, ref_db)

    def test_sigmoid_bit_identical_to_masked(self):
        z = np.concatenate([
            make_rng(22).normal(size=2000) * 40.0,
            [0.0, -0.0, 745.0, -745.0, np.inf, -np.inf],
        ])
        # exp(-745) is subnormal, so both forms underflow there; anything
        # else (overflow, inf/inf, 0/0) raises.
        with np.errstate(all="raise", under="ignore"):
            assert np.array_equal(sigmoid(z), _masked_sigmoid(z))

    def test_lstm_bit_identical_to_three_call_gates(self, monkeypatch):
        def loss_and_grad():
            rng = make_rng(23)
            net = RecurrentNet("lstm", [6, 5], [4], loss="mse", rng=rng)
            x = rng.normal(size=(7, 9)) * 2.0
            y = rng.normal(size=7)
            loss, grads = net.loss_and_grad(x, y)
            return loss, grads, net.predict(x[:1])

        loss, grads, pred = loss_and_grad()
        monkeypatch.setattr(_LstmLayer, "forward", _ref_lstm_forward)
        monkeypatch.setattr(_LstmLayer, "backward", _ref_lstm_backward)
        ref_loss, ref_grads, ref_pred = loss_and_grad()
        assert loss == ref_loss
        assert np.array_equal(pred, ref_pred)
        assert len(grads) == len(ref_grads)
        for g, ref_g in zip(grads, ref_grads):
            assert np.array_equal(g, ref_g)

    @pytest.mark.parametrize("window,filters,kernel", [(32, 32, 7), (8, 2, 3)])
    def test_autoencoder_step_bit_identical_to_full_backward(self, window, filters, kernel):
        rng = make_rng(24)
        net = ConvAutoencoder(window, filters=filters, kernel=kernel, rng=rng)
        x = rng.normal(size=(10, window))
        steps = []
        for step in (net.loss_and_grad, lambda x: _ref_autoencoder_loss_and_grad(net, x)):
            net.dropout_rng = make_rng(25)
            steps.append(step(x))
        (loss, grads), (ref_loss, ref_grads) = steps
        assert loss == ref_loss
        assert len(grads) == len(ref_grads)
        for g, ref_g in zip(grads, ref_grads):
            assert np.array_equal(g, ref_g)
