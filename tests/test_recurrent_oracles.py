"""Byte-equality oracles for the recurrent layers.

`_RnnLayer` and `_LstmLayer` run their time loops over time-leading buffers
and keep only the recurrence inside them: the input products come before the
forward loop, the weight, bias and input gradients after the backward one.
The references below are the per-step layers they replaced, kept verbatim:
every product and sum at each step, accumulators added from the last step
down. Outputs and gradients must match them bit for bit (`tobytes()`), and so
must whole SGD runs of every recurrent family, alone and in lockstep.
"""

import warnings

import numpy as np
import pytest

from vibrosense.core import ContractError, make_rng
from vibrosense.nn import RecurrentNet, sgd_epochs
from vibrosense.nn.base import glorot_uniform, relu, sigmoid
from vibrosense.nn.recurrent import _LstmLayer, _RnnLayer


# --- references: the per-step layers, verbatim ---------------------------------

def relu_grad(z):
    """The ReLU derivative as a float 0/1 mask, written out here so that the
    references do not depend on the library's own (a boolean mask)."""
    return (z > 0.0).astype(np.float64)


class _RefRnnLayer:
    """Simple recurrent cell. Inputs are (..., n, time, features); the leading
    axis, when present, is the stack axis of lockstep training in ``sgd_epochs``."""

    def __init__(self, d_in: int, hidden: int, activation: str, rng):
        self.activation = activation
        self.wx = glorot_uniform(rng, d_in, hidden)
        self.wh = glorot_uniform(rng, hidden, hidden)
        self.b = np.zeros(hidden)

    def parameters(self):
        return [self.wx, self.wh, self.b]

    def forward(self, x):
        h = np.zeros(x.shape[:-2] + (self.b.shape[-1],))
        b = self.b[..., None, :]
        pre, states = [], []
        for t in range(x.shape[-2]):
            z = x[..., t, :] @ self.wx + h @ self.wh + b
            h = relu(z) if self.activation == "relu" else np.tanh(z)
            pre.append(z)
            states.append(h)
        cache = (x, pre, states)
        return np.stack(states, axis=-2), cache

    def backward(self, d_out, cache):
        x, pre, states = cache
        wx_t = self.wx.swapaxes(-1, -2)
        wh_t = self.wh.swapaxes(-1, -2)
        dwx = np.zeros_like(self.wx)
        dwh = np.zeros_like(self.wh)
        db = np.zeros_like(self.b)
        dx = np.zeros_like(x)
        dh = np.zeros_like(states[0])
        for t in range(x.shape[-2] - 1, -1, -1):
            dh_total = d_out[..., t, :] + dh
            if self.activation == "relu":
                dz = dh_total * relu_grad(pre[t])
            else:
                dz = dh_total * (1.0 - states[t] ** 2)
            h_prev = states[t - 1] if t > 0 else np.zeros_like(dh)
            dwx += x[..., t, :].swapaxes(-1, -2) @ dz
            dwh += h_prev.swapaxes(-1, -2) @ dz
            db += dz.sum(axis=-2)
            dx[..., t, :] = dz @ wx_t
            dh = dz @ wh_t
        return dx, [dwx, dwh, db]


class _RefLstmLayer:
    """LSTM cell over (..., n, time, features) inputs, like ``_RnnLayer``."""

    def __init__(self, d_in: int, hidden: int, rng):
        self.hidden = hidden
        self.wx = glorot_uniform(rng, d_in, 4 * hidden, shape=(d_in, 4 * hidden))
        self.wh = glorot_uniform(rng, hidden, 4 * hidden, shape=(hidden, 4 * hidden))
        self.b = np.zeros(4 * hidden)

    def parameters(self):
        return [self.wx, self.wh, self.b]

    def forward(self, x):
        hdim = self.hidden
        h = np.zeros(x.shape[:-2] + (hdim,))
        c = np.zeros_like(h)
        b = self.b[..., None, :]
        gates, cells, states = [], [], []
        for t in range(x.shape[-2]):
            z = x[..., t, :] @ self.wx + h @ self.wh + b
            s = sigmoid(z)  # the g block of s is unused; tanh covers it
            i = s[..., :hdim]
            f = s[..., hdim : 2 * hdim]
            g = np.tanh(z[..., 2 * hdim : 3 * hdim])
            o = s[..., 3 * hdim :]
            c = f * c + i * g
            h = o * np.tanh(c)
            gates.append((i, f, g, o))
            cells.append(c)
            states.append(h)
        cache = (x, gates, cells, states)
        return np.stack(states, axis=-2), cache

    def backward(self, d_out, cache):
        x, gates, cells, states = cache
        hdim = self.hidden
        wx_t = self.wx.swapaxes(-1, -2)
        wh_t = self.wh.swapaxes(-1, -2)
        dwx = np.zeros_like(self.wx)
        dwh = np.zeros_like(self.wh)
        db = np.zeros_like(self.b)
        dx = np.zeros_like(x)
        dh = np.zeros_like(states[0])
        dc = np.zeros_like(dh)
        dz = np.empty(dh.shape[:-1] + (4 * hdim,))
        for t in range(x.shape[-2] - 1, -1, -1):
            i, f, g, o = gates[t]
            c = cells[t]
            c_prev = cells[t - 1] if t > 0 else np.zeros_like(c)
            h_prev = states[t - 1] if t > 0 else np.zeros_like(dh)
            dh_total = d_out[..., t, :] + dh
            tc = np.tanh(c)
            do = dh_total * tc
            dct = dc + dh_total * o * (1.0 - tc * tc)
            di = dct * g
            df = dct * c_prev
            dg = dct * i
            dz[..., :hdim] = di * i * (1.0 - i)
            dz[..., hdim : 2 * hdim] = df * f * (1.0 - f)
            dz[..., 2 * hdim : 3 * hdim] = dg * (1.0 - g * g)
            dz[..., 3 * hdim :] = do * o * (1.0 - o)
            dwx += x[..., t, :].swapaxes(-1, -2) @ dz
            dwh += h_prev.swapaxes(-1, -2) @ dz
            db += dz.sum(axis=-2)
            dx[..., t, :] = dz @ wx_t
            dh = dz @ wh_t
            dc = dct * f
        return dx, [dwx, dwh, db]


REFERENCE = {_RnnLayer: _RefRnnLayer, _LstmLayer: _RefLstmLayer}


def _as_reference(layer):
    """A reference layer sharing `layer`'s parameter arrays."""
    ref = object.__new__(REFERENCE[type(layer)])
    ref.__dict__.update(layer.__dict__)
    return ref


def _with_reference_layers(net):
    net.layers = [_as_reference(layer) for layer in net.layers]
    return net


def _bytes(arrays):
    return [np.asarray(a).tobytes() for a in arrays]


# --- layer oracles -------------------------------------------------------------

CELLS = ["relu", "tanh", "lstm"]
HIDDEN = 5


def _layer(cell, d_in, stack, rng):
    """A layer with random nonzero parameters, stacked k deep when `stack`."""
    layer = (_LstmLayer(d_in, HIDDEN, rng) if cell == "lstm"
             else _RnnLayer(d_in, HIDDEN, cell, rng))
    lead = () if stack is None else (stack,)
    layer.wx, layer.wh, layer.b = (rng.normal(size=lead + p.shape) * 0.8
                                   for p in layer.parameters())
    return layer


def _layer_input(d_in, lead, n, t_len, rng):
    """The input each layer version gets inside a RecurrentNet: the first
    layer sees the window with a unit feature axis, a later one the output of
    the layer below (a view of its time-leading buffer for the new layers, a
    stacked copy for the references)."""
    if d_in == 1:
        x = (rng.normal(size=lead + (n, t_len)) * 1.5)[..., None]
        return x, x
    x = np.moveaxis(rng.normal(size=(t_len,) + lead + (n, d_in)), 0, -2)
    return x, np.ascontiguousarray(x)


@pytest.mark.parametrize("cell", CELLS)
@pytest.mark.parametrize("d_in", [1, 3])
@pytest.mark.parametrize("t_len", [2, 10])
@pytest.mark.parametrize("stack", [None, 2, 3])
@pytest.mark.parametrize("n", [1, 7])
def test_layer_bit_identical_to_per_step_reference(cell, d_in, t_len, stack, n):
    rng = make_rng(61)
    layer = _layer(cell, d_in, stack, rng)
    ref = _as_reference(layer)
    lead = () if stack is None else (stack,)
    x, ref_x = _layer_input(d_in, lead, n, t_len, rng)
    out, cache = layer.forward(x)
    ref_out, ref_cache = ref.forward(ref_x)
    assert out.shape == ref_out.shape == lead + (n, t_len, HIDDEN)
    assert out.tobytes() == ref_out.tobytes()
    d_out = rng.normal(size=out.shape)
    dx, grads = layer.backward(d_out, cache)
    ref_dx, ref_grads = ref.backward(d_out, ref_cache)
    assert dx.shape == x.shape
    assert dx.tobytes() == ref_dx.tobytes()
    assert [g.shape for g in grads] == [p.shape for p in layer.parameters()]
    assert _bytes(grads) == _bytes(ref_grads)


# --- training oracles ------------------------------------------------------------

ROWS = 21  # batches of 5 leave a last batch of one row
WINDOW = 6
FAMILIES = {
    "rnn": lambda rng: RecurrentNet("rnn", [6, 6], [], "mse", rng, activation="relu"),
    "lstm": lambda rng: RecurrentNet("lstm", [5, 5], [4], "mse", rng),
    "gaussian_rnn": lambda rng: RecurrentNet("rnn", [6, 6, 6], [], "gaussian_nll", rng,
                                             activation="tanh"),
}


def _data(seed):
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((ROWS, WINDOW))
    return x, np.sin(x.sum(axis=1))


def _train(family, seeds, reference, lr, epochs=3):
    """Nets for `seeds` trained in lockstep (alone for one seed); returns the
    nets and each one's loss curve or error message."""
    built = []
    for seed in seeds:
        rng = make_rng(seed)
        net = FAMILIES[family](rng)
        built.append((_with_reference_layers(net) if reference else net, rng))
    nets = [net for net, _ in built]
    data = [_data(100 + s) for s in seeds]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = sgd_epochs(nets, [x for x, _ in data], [y for _, y in data], epochs, 5, lr,
                             [rng for _, rng in built])
    return nets, [str(r) if isinstance(r, ContractError) else r for r in results]


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seeds", [(3,), (3, 4)])
def test_training_bit_identical_to_per_step_reference(family, seeds):
    nets, curves = _train(family, seeds, False, 0.02)
    ref_nets, ref_curves = _train(family, seeds, True, 0.02)
    assert curves == ref_curves
    assert all(len(curve) == 3 for curve in curves)
    for net, ref in zip(nets, ref_nets):
        assert _bytes(net.parameters()) == _bytes(ref.parameters())
        x, _ = _data(1)
        assert net.predict(x[:1]).tobytes() == ref.predict(x[:1]).tobytes()


def test_diverging_gaussian_rnn_stops_where_the_reference_does():
    # at this rate the second member's loss overflows at epoch 4 and the
    # first trains on, as some bench cells of this family do at the defaults
    nets, results = _train("gaussian_rnn", (3, 4), False, 1.0, epochs=6)
    ref_nets, ref_results = _train("gaussian_rnn", (3, 4), True, 1.0, epochs=6)
    assert results == ref_results
    assert results[1] == "non-finite training loss at epoch 4" and len(results[0]) == 6
    for net, ref in zip(nets, ref_nets):
        assert _bytes(net.parameters()) == _bytes(ref.parameters())
