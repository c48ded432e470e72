"""Lockstep training oracles: the networks of one `nn.sgd_epochs` list, which
trains the same-shaped dense and recurrent ones as one stacked model, must
end bit for bit where each would end trained alone: parameters compared with
`tobytes()`, loss curves and error messages with `==`. The stacks it forms
are observed at `nn.base._train`, which trains one stack, on one core."""

import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

from vibrosense import classify, forecast
from vibrosense.anomaly import AnomalyDataset, TruthRule, run_benchmark
from vibrosense.classify import TrainConfig, cross_rpm_matrix, train_classifier
from vibrosense.core import ContractError, SplitSpec, TimeSeries, make_rng, split_arrays
from vibrosense.forecast import ForecastModelConfig
from vibrosense.nn import ConvAutoencoder, Mlp, RecurrentNet, base, sgd_epochs
from vibrosense.synth import generate_spiked_series

ROWS = 23  # batches of 5 leave a ragged last batch of 3
KINDS = ("mlp", "classifier", "rnn", "lstm", "gaussian_rnn")


def _build(kind, seed):
    """A fresh net and the generator that then orders its batches, as the
    forecasters use them."""
    rng = make_rng(seed)
    if kind == "mlp":
        net = Mlp([6, 8, 8, 1], "mse", rng)
    elif kind == "linear":
        net = Mlp([6, 1], "mse", rng)
    elif kind == "classifier":
        net = Mlp([6, 8, 3], "ce", rng)
    elif kind == "rnn":
        net = RecurrentNet("rnn", [7, 7], [], "mse", rng, activation="relu")
    elif kind == "lstm":
        net = RecurrentNet("lstm", [5, 5], [4], "mse", rng)
    elif kind == "conv":
        net = ConvAutoencoder(8, rng, filters=2, kernel=3, n_layers=2)
        net.dropout_rng = make_rng(seed, 1)
    else:
        net = RecurrentNet("rnn", [6, 6], [], "gaussian_nll", rng, activation="tanh")
    return net, rng


def _data(kind, seed):
    gen = np.random.default_rng(seed)
    if kind == "conv":  # an autoencoder's targets are its inputs
        x = gen.standard_normal((ROWS, 8))
        return x, x
    x = gen.standard_normal((ROWS, 6))
    if kind == "classifier":
        return x, gen.integers(0, 3, ROWS)
    return x, np.sin(x.sum(axis=1))


def _weights(net):
    return [p.tobytes() for p in net.parameters()]


def _alone(kind, seed, x, y, lr, epochs=3):
    net, rng = _build(kind, seed)
    try:
        result = sgd_epochs(net, x, y, epochs, 5, lr, rng)
    except ContractError as exc:
        result = str(exc)
    return net, result


def _together(kinds, seeds, data, lr, epochs=3):
    """One sgd_epochs list of nets of kinds[i] built from seeds[i]; kinds is
    one kind for all or a kind per member."""
    kinds = [kinds] * len(seeds) if isinstance(kinds, str) else kinds
    built = [_build(kind, s) for kind, s in zip(kinds, seeds)]
    nets = [net for net, _ in built]
    results = sgd_epochs(nets, [x for x, _ in data], [y for _, y in data], epochs, 5, lr,
                         [rng for _, rng in built])
    return nets, [str(r) if isinstance(r, ContractError) else r for r in results]


def _record_stacks(monkeypatch):
    """The member lists of the stacks sgd_epochs trains from now on, in
    training order (a lone net is a stack of one). The process is pinned to
    one core: a stack trained in a forked worker would not reach the list."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    stacks, real = [], base._train

    def recording(members, *args):
        stacks.append(list(members))
        return real(members, *args)

    monkeypatch.setattr(base, "_train", recording)
    return stacks


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seeds", [(3, 4), (5, 6, 7)])
def test_lockstep_matches_training_alone(kind, seeds):
    data = [_data(kind, 100 + s) for s in seeds]
    nets, curves = _together(kind, seeds, data, 0.02)
    for seed, (x, y), net, curve in zip(seeds, data, nets, curves):
        ref, ref_curve = _alone(kind, seed, x, y, 0.02)
        assert curve == ref_curve and len(curve) == 3
        assert _weights(net) == _weights(ref)


def test_single_member_list_matches_alone():
    x, y = _data("lstm", 1)
    (net,), (curve,) = _together("lstm", (1,), [(x, y)], 0.02)
    ref, ref_curve = _alone("lstm", 1, x, y, 0.02)
    assert curve == ref_curve
    assert _weights(net) == _weights(ref)


def test_diverging_member_stops_alone_and_the_others_train_on():
    # linear regression on inputs 1e4 times larger overshoots by a growing
    # factor every step and overflows at epoch 4; its partners converge.
    # Training keeps NumPy's overflow warnings to itself: the error says it.
    seeds = (3, 4, 5)
    data = [_data("linear", 40 + s) for s in seeds]
    data[1] = (1e4 * data[1][0], data[1][1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nets, results = _together("linear", seeds, data, 0.05, epochs=8)
        refs = [_alone("linear", s, x, y, 0.05, epochs=8) for s, (x, y) in zip(seeds, data)]
    assert refs[1][1] == "non-finite training loss at epoch 4"
    assert results[1] == refs[1][1]
    for i in (0, 2):
        ref, ref_curve = refs[i]
        assert results[i] == ref_curve and len(ref_curve) == 8
        assert _weights(nets[i]) == _weights(ref)


def test_every_member_diverging_returns_every_error():
    data = [tuple(1e200 * a for a in _data("mlp", s)) for s in (1, 2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, results = _together("mlp", (1, 2), data, 0.05)
    assert results == ["non-finite training loss at epoch 0"] * 2


def test_one_list_stacks_the_equal_shaped_dense_nets_and_trains_the_rest_alone(monkeypatch):
    # two MLPs of one shape and a third of that shape whose inputs overflow
    # at epoch 0 stack; the MLP of another shape, the MLP of that shape with
    # a row fewer and the two conv autoencoders, equal-shaped but of a type
    # that does not stack, train alone
    kinds = ("mlp", "conv", "linear", "mlp", "mlp", "conv", "mlp")
    seeds = (1, 2, 3, 4, 5, 6, 7)
    data = [_data(kind, 60 + s) for kind, s in zip(kinds, seeds)]
    data[4] = (1e200 * data[4][0], data[4][1])
    data[6] = (data[6][0][1:], data[6][1][1:])
    stacks = _record_stacks(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nets, results = _together(kinds, seeds, data, 0.02)
        formed = [[next(i for i, net in enumerate(nets) if net is m) for m in stack]
                  for stack in stacks]
        refs = [_alone(kind, s, x, y, 0.02) for kind, s, (x, y) in zip(kinds, seeds, data)]
    assert formed == [[0, 3, 4], [1], [2], [5], [6]]
    assert results[4] == "non-finite training loss at epoch 0"
    for net, result, (ref, ref_result) in zip(nets, results, refs):
        assert result == ref_result
        assert _weights(net) == _weights(ref)


@pytest.mark.parametrize("rows, targets", [(0, 0), (10, 12), (10, 8)])
def test_rows_of_x_and_y_must_be_equal_and_positive(rows, targets):
    message = f"training needs x and y of one positive row count, got {rows} and {targets}"
    x, y = np.zeros((rows, 6)), np.zeros(targets)
    net, rng = _build("mlp", 1)
    with pytest.raises(ContractError) as lone:
        sgd_epochs(net, x, y, 1, 5, 0.01, rng)
    assert str(lone.value) == message
    good = _data("mlp", 2)
    nets, results = _together("mlp", (1, 2), [(x, y), good], 0.01)
    ref, ref_curve = _alone("mlp", 2, *good, 0.01)
    assert results == [message, ref_curve]
    assert _weights(nets[1]) == _weights(ref)


SMALL = {
    "mlp": {"hidden_layers": 2, "neurons": 8, "epochs": 2},
    "rnn": {"neurons": 6, "epochs": 2},
    "lstm": {"blocks": 2, "neurons": 5, "dense_units": 3, "epochs": 2},
    "gaussian_rnn": {"hidden_layers": 2, "cells": 6, "epochs": 2},
    "autoencoder": {"window": 16, "filters": 4, "epochs": 2},
}


def _train(seed, n=160):
    return generate_spiked_series(n, 3, seed=seed).series


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_forecast_fit_sequence_saves_the_files_a_lone_fit_saves(kind, tmp_path):
    config = ForecastModelConfig(kind, SMALL[kind], seed=9)
    trains = [_train(1), _train(2), _train(3, n=140)]
    fitted = forecast.fit(config, trains)
    for i, (model, train) in enumerate(zip(fitted, trains)):
        together, alone = tmp_path / f"together{i}.json", tmp_path / f"alone{i}.json"
        forecast.save_forecaster(model, together)
        forecast.save_forecaster(forecast.fit(config, train), alone)
        assert together.read_bytes() == alone.read_bytes()


def test_forecast_fit_sequence_reports_errors_per_series():
    config = ForecastModelConfig("mlp", {"lag_window": 50, "epochs": 1}, seed=0)
    short = TimeSeries(0.0, 1.0, np.arange(30.0))
    model, error = forecast.fit(config, [_train(1), short])
    assert model.config == config
    assert isinstance(error, ContractError) and "series too short" in str(error)
    with pytest.raises(ContractError, match="series too short"):
        forecast.fit(config, short)


def test_run_benchmark_groups_series_by_window_count(monkeypatch):
    spiked = [generate_spiked_series(n, 4, seed=i) for i, n in enumerate((150, 120, 120))]
    datasets = [AnomalyDataset(f"d{i}", sp.series, TruthRule.INJECTED_SPIKES,
                               spike_indices=sp.spike_indices) for i, sp in enumerate(spiked)]
    grid = {"ar": [ForecastModelConfig("ar", {"p": 5})],
            "mlp": [ForecastModelConfig("mlp", SMALL["mlp"], seed=2)]}
    stacks = _record_stacks(monkeypatch)
    bench = run_benchmark(datasets, grid, SplitSpec(0.66))
    assert sorted(map(len, stacks)) == [1, 2]  # the 150-point series trains on its own
    alone = [run_benchmark([ds], grid, SplitSpec(0.66))["grid"] for ds in datasets]
    assert bench["grid"] == [cell for cells in alone for cell in cells]
    assert [c["dataset"] for c in bench["grid"]] == ["d0", "d0", "d1", "d1", "d2", "d2"]


def test_conv_autoencoders_train_one_at_a_time(monkeypatch):
    # a stacked conv step costs its members' steps together, so only the
    # dense and recurrent families train equal-shaped series in lockstep
    stacks = _record_stacks(monkeypatch)
    trains = [_train(1), _train(2)]
    for kind in ("autoencoder", "lstm"):
        forecast.fit(ForecastModelConfig(kind, SMALL[kind], seed=9), trains)
    assert [(type(stack[0]).__name__, len(stack)) for stack in stacks] == [
        ("ConvAutoencoder", 1), ("ConvAutoencoder", 1), ("RecurrentNet", 2)]


# --- the cross-speed grid: its single-speed models train in lockstep ---------

GRID_RPMS = (100, 200, 300, 400)


def _per_rpm(seed, rows=(60, 60, 60, 60), scales=(1.0, 1.0, 1.0, 1.0)):
    gen = np.random.default_rng(seed)
    per_rpm = {}
    for i, (rpm, n, scale) in enumerate(zip(GRID_RPMS, rows, scales)):
        labels = np.arange(n) % 3
        feats = gen.normal(size=(n, 4)) * 0.6 + labels[:, None] * (1.0 + 0.4 * i)
        per_rpm[rpm] = (scale * feats, labels)
    return per_rpm


def _one_at_a_time(trains, cfg):
    """The grid's single-speed models as one train_classifier call each."""
    return [train_classifier(x, y, cfg=replace(cfg, seed=cfg.seed + i))
            for i, (x, y) in enumerate(trains)]


def _grid_and_models(monkeypatch, per_rpm, cfg, augment):
    """The grid, the models it evaluated (single-speed first, in rpm order)
    and the member counts of the stacks it trained."""
    models = []

    def evaluate(model, *args):
        if not any(m is model for m in models):
            models.append(model)
        return real_evaluate(model, *args)

    real_evaluate = classify.evaluate
    with monkeypatch.context() as patch:
        patch.setattr(classify, "evaluate", evaluate)
        stacks = _record_stacks(patch)
        result = cross_rpm_matrix(per_rpm, cfg=cfg, augment_n_per_rpm=augment)
    return result, models, [len(stack) for stack in stacks]


def _single_speed_references(per_rpm, cfg):
    trains = [split_arrays(*per_rpm[rpm], cfg.seed)[0] for rpm in sorted(per_rpm)]
    return _one_at_a_time(trains, cfg)


def _assert_same_models(models, refs):
    assert len(models) == len(refs)
    for model, ref in zip(models, refs):
        assert _weights(model.net) == _weights(ref.net)
        assert model.training_loss == ref.training_loss and len(ref.training_loss) == 4
        assert model.class_names == ref.class_names


@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("augment", [0, 200])
def test_cross_rpm_grid_matches_one_training_per_speed(monkeypatch, seed, augment):
    per_rpm = _per_rpm(seed)
    cfg = TrainConfig(epochs=4, batch_size=16, learning_rate=0.05, seed=seed)
    result, models, groups = _grid_and_models(monkeypatch, per_rpm, cfg, augment)
    assert groups == [4, 1]  # the four speeds in one stacked run, then the augmented row
    _assert_same_models(models[:4], _single_speed_references(per_rpm, cfg))
    monkeypatch.setattr(classify, "_train_each", _one_at_a_time)
    expected = cross_rpm_matrix(per_rpm, cfg=cfg, augment_n_per_rpm=augment)
    assert result == expected


def test_cross_rpm_grid_groups_speeds_by_training_rows(monkeypatch):
    # 100 and 400 rpm share a training shape; 200 and 300 each train alone
    per_rpm = _per_rpm(5, rows=(60, 45, 75, 60))
    cfg = TrainConfig(epochs=4, batch_size=16, learning_rate=0.05, seed=5)
    result, models, groups = _grid_and_models(monkeypatch, per_rpm, cfg, 200)
    assert groups == [2, 1, 1, 1]
    _assert_same_models(models[:4], _single_speed_references(per_rpm, cfg))
    monkeypatch.setattr(classify, "_train_each", _one_at_a_time)
    assert result == cross_rpm_matrix(per_rpm, cfg=cfg, augment_n_per_rpm=200)


def test_grid_models_group_by_class_count():
    # equal rows, but one speed has two classes: it trains on its own
    gen = np.random.default_rng(4)
    trains = [(gen.normal(size=(30, 3)), np.arange(30) % k) for k in (3, 2, 3)]
    cfg = TrainConfig(epochs=3, batch_size=8, seed=6)
    models = classify._train_each(trains, cfg)
    refs = _one_at_a_time(trains, cfg)
    assert [m.n_classes for m in models] == [3, 2, 3]
    for model, ref in zip(models, refs):
        assert _weights(model.net) == _weights(ref.net)
        assert model.training_loss == ref.training_loss


def test_cross_rpm_grid_raises_the_first_speeds_divergence(monkeypatch):
    # one training step an epoch at a huge rate: 100 rpm overflows at epoch 4,
    # 200 rpm at epoch 3 and 300 rpm, with the largest inputs, at epoch 2;
    # training one speed at a time stops at 100 rpm, so its error is the one
    # raised
    per_rpm = _per_rpm(5, rows=(40, 40, 40, 40), scales=(1.0, 1e10, 1e30, 1.0))
    cfg = TrainConfig(epochs=8, batch_size=64, learning_rate=1e10, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError) as grouped:
            cross_rpm_matrix(per_rpm, cfg=cfg)
        monkeypatch.setattr(classify, "_train_each", _one_at_a_time)
        with pytest.raises(ContractError) as alone:
            cross_rpm_matrix(per_rpm, cfg=cfg)
        (x, y), _ = split_arrays(*per_rpm[300], cfg.seed)
        with pytest.raises(ContractError) as later_speed:
            train_classifier(x, y, cfg=replace(cfg, seed=cfg.seed + 2))
    assert str(alone.value) == "non-finite training loss at epoch 4"
    assert str(later_speed.value) == "non-finite training loss at epoch 2"
    assert str(grouped.value) == str(alone.value)
