import hashlib

import numpy as np
import pytest

from vibrosense.anomaly import AnomalyRuleConfig, detect_series
from vibrosense.classify import TrainConfig, save_classifier, train_classifier
from vibrosense.cli import DEFAULT_VARIANTS, default_variants
from vibrosense.core import ContractError, SplitSpec, TimeSeries, make_rng, split_series
from vibrosense.forecast import ForecastModelConfig, fit, load_forecaster, rolling_forecast, save_forecaster
from vibrosense.features import fit_encoder
from vibrosense.modelio import from_jsonable, load_model, save_model, to_jsonable
from vibrosense.synth import generate_spiked_series


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
        assert original.epsilon == reloaded.epsilon
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

    @pytest.mark.parametrize("key,value,message", [
        ("train_rms", "abc", "a finite float >= 0"),
        ("train_rms", float("nan"), "a finite float >= 0"),
        ("train_rms", -1.0, "a finite float >= 0"),
        ("train_tail", np.array([1.0]), "5 or more finite values"),
        ("train_tail", np.full(5, np.nan), "5 or more finite values"),
    ])
    def test_bad_detection_fields(self, tmp_path, key, value, message):
        # detection reads the training tail and RMS straight from the model
        path = self.saved(tmp_path, "ar", {"p": 5})
        kind, payload = load_model(path)
        payload[key] = value
        save_model(kind, payload, path)
        with pytest.raises(ContractError, match=f"{key} must be {message}") as info:
            load_forecaster(path)
        assert str(path) in str(info.value)

    def test_wrong_weight_size(self, tmp_path):
        path = self.saved(tmp_path, "mlp", {"hidden_layers": 1, "neurons": 4, "epochs": 1})
        self.rewrite_state(path, lambda state: state["weights"].__setitem__(0, np.zeros(3)))
        with pytest.raises(ContractError, match="malformed forecaster file") as info:
            load_forecaster(path)
        assert str(path) in str(info.value)


# A host class: the NumPy release, its highest enabled SIMD dispatch level
# and the GEMM kernel set OpenBLAS runs, by the core name it reports. The
# OpenBLAS in NumPy's wheels holds one kernel set for each of KERNELS (and
# Katmai's, below NumPy's X86_V2 baseline), and names any other core by the
# set it falls back to: Zen by Haswell, Cooperlake and SapphireRapids by
# SkylakeX, the Bulldozer family by Sandybridge. NPY_DISABLE_CPU_FEATURES
# emulates a lower level and OPENBLAS_CORETYPE another core.
PINNED_NUMPY = "2.4"
SIMD_LEVELS = ("AVX512_SPR", "AVX512_ICL", "X86_V4", "X86_V3", "X86_V2")
KERNELS = ("SkylakeX", "Haswell", "Sandybridge", "Nehalem")


def _host_class():
    """(NumPy's dispatch level, OpenBLAS's core name) of this process; the
    core name is None when NumPy's BLAS reports none."""
    import ctypes

    from numpy._core import _multiarray_umath as umath

    enabled = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    level = (enabled or umath.__cpu_baseline__)[-1]
    # a symbol lookup in the module's handle searches the libraries it links
    corename = getattr(ctypes.CDLL(umath.__file__), "scipy_openblas_get_corename64_", None)
    if corename is None:
        return level, None
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return level, corename().decode()


class TestModelFileBytes:
    """The bytes of real model files, pinned as save_model wrote them when it
    called json.dump(doc, fh, sort_keys=True, indent=1). Every family fitted
    with BLAS depends on the host class: on OpenBLAS's GEMM kernels, and
    lstm, gaussian_rnn and the classifier on NumPy's SIMD loops too (the
    levels from X86_V4 up give the same bits). The file of a fit must match
    the pin of the detected class byte for byte, and a class with no pin
    fails, naming it. Pins of a host class are recorded for one NumPy
    release; under another, or with no OpenBLAS core name to read, those
    cases skip, saying why."""

    SHA256 = {  # kind: one pin for every class, or ((levels, a pin per kernel), ...)
        "seasonal_naive": "dd3932f99f79d1d1f3dbb325026bd66780c96b9f6ccad80a83eda33e9a5a274a",
        "ar": (
            (SIMD_LEVELS, (
                "88faf08626bd4ad81ef52b55561802bce1f558dbdf6d0ce0dbca11bbed759f6c",
                "92c14d6394de14cfd0a8472342135cde5e23967714b80f2d9d163b34699a5077",
                "d478c3292bf54a655aee1fe0cb5f5dad5bff0cc1b46d8b01d4acc457105770c5",
                "dbbed87168f0fd2553ff705370b19d0136d3016351795241bb1205933876d993",
            )),
        ),
        "arima": (
            (SIMD_LEVELS, (
                "6fec12aab75845d6a6b4c02fabdf2a8da44d9dcbbf94ab068fa9e160a08a3041",
                "470536a99dec9d1aa5ea7f020152b9318f4780fbf63f9f56870677c1600ad11f",
                "d682fc7846b68b40494de68bd1fe434a1d93e7446571e037a00f55b888fc0f1c",
                "03dccbf6967cc8c511eb16ef8e1fb7f7c7b889ef452d73253e4b7cadcbab8e0f",
            )),
        ),
        "random_forest": "8b45da57e89960afc2272495b98a6f650cb63fe83f347f5f8f6920ede1491ae1",
        "mlp": (
            (SIMD_LEVELS, (
                "c3d0963c2b72c02f0c3e2d4006d7ddcf2958a507e978de012350f071a6420026",
                "3f8329890399c65586866feef793ccf2b139e67953fe09a75d091ceee589dc60",
                "969363ef4116949138c2d9a6eb211cd014780aab72991590ef4ee0d5f847b7de",
                "e943bed3b27ced8014a15990c68aeb5d45d216317479733ad48ec71302590807",
            )),
        ),
        "rnn": (
            (SIMD_LEVELS, (
                "6188fe90241104e9e99772bd7d591e97fe8354c580189195c94337ef81270d4d",
                "e0fc59cb9e5ea936fd72e9ee27ef39337e828152532b66f68ef1e9df69767a57",
                "5d6960f8e61730d68300fd9a4d5724fbc1c2dad9a63a04d2f6891d7ded65691a",
                "811bdf027c871271ddaa0f6c38dd2603593be84566b56b46833bbe79f0ea81c8",
            )),
        ),
        "lstm": (
            (SIMD_LEVELS[:3], (
                "d6ca090267906507ea82424ac122de5a17125d93525b756627b0dd5e5c1bf13b",
                "6f5a6e533d20123e03d38d748f57652e6ef8a1460c77e52b0bb5012223298cf8",
                "4612740639beb6537e340728c4cb059087b8f02576fee6936764c558e3997e75",
                "6f334941829eb03258b5011963066c71770ce9dc4474ae26d482a239902a002f",
            )),
            (("X86_V3",), (
                "2e855aba2b15385b7003ed6b03df2e97621337bc0a9bee59af0507c859bacbb0",
                "d07bbab5bb9101c2d7c34f2db29190190ce70d2bbb3ae852347234b8dd31ac04",
                "6cc8cd600f0240956bcf8f54f4b42672c1114170f8e51d08398d7c01a1254efd",
                "6428fee5d540419fed3ba0eff39683f3de4eac09192d81baf16a183c488354a5",
            )),
            (("X86_V2",), (
                "d0dc61e0251b20f4c67418aec291946faef31770df2c51548b3dfdbeb6d50715",
                "5657cb0775f04f03a16a96898056bda1289074983debaa571282f87feb588250",
                "e55fcfee31340870c73a0d42dae375ab81979d85ba8eda90c7977e2ad00cd5e5",
                "d44578bab8b45fe8067bf1e22733b28fe06cbe008e15720d7d7955d90c157cdd",
            )),
        ),
        "autoencoder": (
            (SIMD_LEVELS, (
                "83cb7405d684113119a18af8ffb916e5820992de67de2c927128bc403a67c44a",
                "93e03dac8938bc19064547b7516738cc12bc4c732f50c08f94a7b1fd164357fa",
                "e71cbac46f78e817463e686928185140c83c90032b992de5f0202e953c843bd1",
                "fe760159dfbad2812e04f7c73f61e7684d27f785e7a0ccb07615ed1b64f1b8da",
            )),
        ),
        "gaussian_rnn": (
            (SIMD_LEVELS[:3], (
                "6d4a8965ab42a79a5aee2845fee331ec377ce66a0e8008542387fffe7a42969c",
                "0dc4d08a5fe03daf212fb65f543db1419e45faabb889089f2f0206ad1ee029ac",
                "642bfc5229d63a97b0a2b2c61a1ec8046232e5844ec6dbc2d55940d41bb5873e",
                "b1d351e3a1414dba43d0a428749b568a090b7f5500896d2362c60ce510f8ba05",
            )),
            (("X86_V3",), (
                "32d6d78f90867a51bd5e1ef8c7fe6c9769837465fd131e00d261a28cab9e3fc6",
                "66346b1b8b318c2e2bb1eef590093806b32050a69bcb817ee81ade21c2ae52ff",
                "e4e664b954eef06d0ab0f1f14f1cfd7d0d0b9a106410b69ff572aebf3614ec39",
                "7c3e5da028e4bb83b23ae7e4ed109607b0a486b11a679063337e12d45dc68905",
            )),
            (("X86_V2",), (
                "673602f1a59122cf8465eeed613c19be3ac33862cef5e3b0ef195cffee80e260",
                "bd6d490a90aa945169a1710a09e16b4da93e6bb4cf03648408749a64cf61bffa",
                "d121b20f32b4b31e6d9d6aeadd45b6e20c521e753b3c5a6dd117e71876cb67eb",
                "bc23e15473f68875b6df3547200ab8e8eaa930c37d7e9c144a51833229595a9b",
            )),
        ),
        "classifier": (
            (SIMD_LEVELS[:3], (
                "6062bbbe877f663db52e23c0566c9ed4713218e590bc8fa9e17a82c8a15f1d30",
                "85f0102349171f2b32376faf559f9348720dcf6980e330942a1a7bde27af361b",
                "ef20cf0ce319cc0eab2d52c5f19c7e87169959593f4d9e372a3ac69b4d9250ba",
                "80c65870dc241efb3db0c0c19425f530f6523f462644d8c7c14769952513d3f8",
            )),
            (SIMD_LEVELS[3:], (
                "b9ec44f9c97e0bff6435396554b57558ed02655a4caed84c16ffe3653452564f",
                "7e35e8afba80d5965515cd941f417b46da9b6b5f161da8f7dddb659719861206",
                "492025a8ddf575ecafa27d240f9b821c2acc1a7b36eb14a771eb25a22cf0de2e",
                "b717729cb56f5dbfd57048232974bd18871b54557957681c2c7a7dd29d04ec5e",
            )),
        ),
    }

    def _pin(self, kind):
        pins = self.SHA256[kind]
        if isinstance(pins, str):
            return pins
        release = ".".join(np.__version__.split(".")[:2])
        if release != PINNED_NUMPY:
            pytest.skip(f"{kind} pins are recorded for NumPy {PINNED_NUMPY}, not {release}")
        level, kernel = _host_class()
        if kernel is None:
            pytest.skip("NumPy's BLAS reports no OpenBLAS core name")
        for levels, by_kernel in pins:
            if level in levels and kernel in KERNELS:
                return by_kernel[KERNELS.index(kernel)]
        pytest.fail(f"no {kind} pin for the host class NumPy {release} {level}, OpenBLAS {kernel}")

    @pytest.mark.parametrize("kind", sorted(DEFAULT_VARIANTS))
    def test_forecaster_file(self, tmp_path, kind):
        series = generate_spiked_series(240, 4, seed=7).series
        save_forecaster(fit(default_variants(kind, 0)[0], series), tmp_path / kind)
        assert _sha256(tmp_path / kind) == self._pin(kind)

    def test_classifier_file(self, tmp_path):
        rng = make_rng(5)
        rows, labels = rng.normal(size=(60, 6)), np.arange(60) % 3
        enc = fit_encoder(rows, tuple(f"f{i}" for i in range(6)))
        model = train_classifier(enc.transform(rows), labels, cfg=TrainConfig(epochs=3))
        save_classifier(model, tmp_path / "classifier")
        assert _sha256(tmp_path / "classifier") == self._pin("classifier")


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()
