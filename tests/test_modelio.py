import numpy as np
import pytest

from vibrosense.anomaly import AnomalyRuleConfig, detect_series
from vibrosense.cli import DEFAULT_VARIANTS, default_variants
from vibrosense.core import ContractError, SplitSpec, TimeSeries, make_rng, split_series
from vibrosense.forecast import ForecastModelConfig, fit, load_forecaster, rolling_forecast, save_forecaster
from vibrosense.modelio import from_jsonable, load_model, save_model, to_jsonable


class TestJsonableCodec:
    def test_float_lossless(self):
        v = 0.1 + 0.2
        assert from_jsonable(to_jsonable(v)) == v

    def test_array_lossless(self):
        rng = make_rng(0)
        arr = rng.normal(size=(3, 4))
        back = from_jsonable(to_jsonable(arr))
        assert back.shape == (3, 4)
        assert np.array_equal(back, arr)

    def test_int_array(self):
        arr = np.array([[1, 2], [3, 4]], dtype=np.int64)
        back = from_jsonable(to_jsonable(arr))
        assert back.dtype == np.int64
        assert np.array_equal(back, arr)

    def test_nested_structures(self):
        doc = {"a": [1.5, {"b": np.array([2.0])}], "c": "text", "d": None, "e": True}
        back = from_jsonable(to_jsonable(doc))
        assert back["a"][0] == 1.5
        assert np.array_equal(back["a"][1]["b"], [2.0])
        assert back["c"] == "text" and back["d"] is None and back["e"] is True

    def test_unserializable(self):
        with pytest.raises(ContractError):
            to_jsonable(object())


class TestModelFile:
    def test_round_trip(self, tmp_path):
        payload = {"weights": make_rng(1).normal(size=(2, 2)), "note": "x"}
        path = tmp_path / "m.json"
        save_model("demo", payload, path)
        kind, back = load_model(path)
        assert kind == "demo"
        assert np.array_equal(back["weights"], payload["weights"])

    def test_kind_check(self, tmp_path):
        path = tmp_path / "m.json"
        save_model("demo", {}, path)
        with pytest.raises(ContractError, match="expected kind"):
            load_model(path, expected_kind="other")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(ContractError, match="corrupt"):
            load_model(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format": "vibrosense-model"}')
        with pytest.raises(ContractError, match="missing field"):
            load_model(path)

    @pytest.mark.parametrize(
        "content,detail",
        [(b"\xff", "corrupt"), (b"1", "is int, not an object"), (b"[]", "is list"), (b"{", "corrupt")],
    )
    def test_not_a_json_object(self, tmp_path, content, detail):
        path = tmp_path / "m.json"
        path.write_bytes(content)
        with pytest.raises(ContractError, match=detail) as info:
            load_model(path)
        assert str(path) in str(info.value)

    def test_malformed_payload_value(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format": "vibrosense-model", "version": 1, "kind": "demo", "payload": {"w": {"~f": "zz"}}}')
        with pytest.raises(ContractError, match="corrupt model file"):
            load_model(path)


class TestForecasterPersistence:
    def series(self, n=120, seed=0):
        rng = make_rng(seed)
        t = np.arange(n, dtype=float)
        return TimeSeries(0.0, 1.0, np.sin(2 * np.pi * t / 20) + 0.05 * rng.normal(size=n))

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("seasonal_naive", {"m": 3}),
            ("ar", {"p": 5}),
            ("arima", {"p": 5, "d": 1}),
            ("random_forest", {"n_trees": 5, "max_depth": 4, "lag_window": 5}),
            ("mlp", {"hidden_layers": 1, "neurons": 8, "epochs": 2}),
            ("rnn", {"hidden_layers": 1, "neurons": 6, "epochs": 1}),
            ("lstm", {"blocks": 1, "neurons": 5, "dense_units": 3, "epochs": 1}),
            ("autoencoder", {"window": 16, "filters": 4, "epochs": 1}),
            ("gaussian_rnn", {"hidden_layers": 1, "cells": 5, "epochs": 1}),
        ]
        + [(c.model_kind, c.hyperparameters) for k in DEFAULT_VARIANTS for c in default_variants(k, 0)],
    )
    def test_round_trip_predictions_identical(self, tmp_path, kind, params):
        series = self.series()
        train, test = split_series(series, SplitSpec(0.7))
        model = fit(ForecastModelConfig(kind, params, seed=3), train)
        before = rolling_forecast(model, train.values, test.values)
        path = tmp_path / f"{kind}.json"
        save_forecaster(model, path)
        loaded = load_forecaster(path)
        after = rolling_forecast(loaded, train.values, test.values)
        assert np.array_equal(before, after)
        assert loaded.config.model_kind == kind
        # detection from the saved training tail and RMS, no history given
        cfg = AnomalyRuleConfig(lam=0.05)
        original, reloaded = detect_series(model, test, cfg), detect_series(loaded, test, cfg)
        assert np.array_equal(original.predictions, reloaded.predictions)
        assert np.array_equal(original.flags, reloaded.flags)
        assert original.rule.epsilon == reloaded.rule.epsilon
        again = tmp_path / f"{kind}-again.json"
        save_forecaster(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_missing_payload_field(self, tmp_path):
        path = tmp_path / "ar.json"
        save_model("forecast/ar", {"hyperparameters": {"p": 2}, "seed": 0, "state": {}}, path)
        with pytest.raises(ContractError, match="lacks train_tail, train_rms"):
            load_forecaster(path)

    def test_wrong_file_kind(self, tmp_path):
        path = tmp_path / "x.json"
        save_model("classifier", {}, path)
        with pytest.raises(ContractError, match="not a forecaster"):
            load_forecaster(path)


class TestMalformedForecasterState:
    def saved(self, tmp_path, kind, params):
        t = np.arange(80, dtype=float)
        train = TimeSeries(0.0, 1.0, np.sin(2 * np.pi * t / 20) + 0.05 * make_rng(1).normal(size=t.size))
        path = tmp_path / f"{kind}.json"
        save_forecaster(fit(ForecastModelConfig(kind, params, seed=2), train), path)
        return path

    def rewrite_state(self, path, edit):
        kind, payload = load_model(path)
        edit(payload["state"])
        save_model(kind, payload, path)

    @pytest.mark.parametrize(
        "kind,params,key",
        [
            ("ar", {"p": 4}, "coefs"),
            ("random_forest", {"n_trees": 3, "max_depth": 3, "lag_window": 4}, "trees"),
            ("mlp", {"hidden_layers": 1, "neurons": 4, "epochs": 1}, "mean"),
        ],
    )
    def test_missing_state_key(self, tmp_path, kind, params, key):
        path = self.saved(tmp_path, kind, params)
        self.rewrite_state(path, lambda state: state.pop(key))
        with pytest.raises(ContractError, match=f"missing key '{key}'") as info:
            load_forecaster(path)
        assert str(path) in str(info.value)

    def test_wrong_weight_size(self, tmp_path):
        path = self.saved(tmp_path, "mlp", {"hidden_layers": 1, "neurons": 4, "epochs": 1})
        self.rewrite_state(path, lambda state: state["weights"].__setitem__(0, np.zeros(3)))
        with pytest.raises(ContractError, match="malformed forecaster file") as info:
            load_forecaster(path)
        assert str(path) in str(info.value)
