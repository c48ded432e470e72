"""Property tests of the one persistence format: whatever bytes a model file
holds, loading returns or raises ContractError, and the value codec
round-trips exactly."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vibrosense.classify import load_classifier
from vibrosense.core import ContractError
from vibrosense.forecast import load_forecaster
from vibrosense.modelio import (FORMAT_NAME, FORMAT_VERSION, from_jsonable, load_model, save_model,
                                to_jsonable)

FEW = settings(max_examples=50, deadline=None, database=None, derandomize=True)

KINDS = ["encoder", "classifier", "forecast/seasonal_naive", "forecast/ar", "forecast/arima",
         "forecast/random_forest", "forecast/mlp", "forecast/nope"]
# payload keys the loaders look for, the codec's tags, and a few hyperparameter
# names whose values cannot make a loader allocate much; "feature_names",
# "scale", "selected_mask", "normalization" and "constant_features" are the
# removed encoder file's keys, which no loader reads: they fuzz as unknown keys
KEYS = ["hyperparameters", "seed", "state", "train_tail", "train_rms", "coefs", "intercept",
        "last_season", "trees", "feature", "threshold", "left", "right", "value", "weights",
        "mean", "std", "training_loss", "feature_names", "scale", "selected_mask",
        "normalization", "constant_features", "layer_sizes", "biases", "class_names", "~f", "~a", "~ai", "shape", "p", "d", "m"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["0x1p0", "zscore", "inf"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(KEYS), inner, max_size=5),
    max_leaves=12,
)
envelopes = st.builds(
    lambda kind, payload: json.dumps(
        {"format": FORMAT_NAME, "version": FORMAT_VERSION, "kind": kind, "payload": payload}
    ).encode(),
    st.sampled_from(KINDS),
    st.dictionaries(st.sampled_from(KEYS), json_values, max_size=6),
)
file_bytes = st.binary(max_size=64) | envelopes


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "file.json"


@pytest.mark.parametrize("load", [load_model, load_forecaster, load_classifier])
def test_any_bytes_load_or_contract_error(path, load):
    @FEW
    @given(content=file_bytes)
    def check(content):
        path.write_bytes(content)
        try:
            load(path)
        except ContractError:
            pass

    check()


def reserved(value) -> bool:
    if isinstance(value, dict):
        return bool({"~f", "~a", "~ai"} & value.keys()) or any(reserved(v) for v in value.values())
    if isinstance(value, list):
        return any(reserved(v) for v in value)
    return False


def same(a, b) -> bool:
    """Equal values of equal types; floats compared bit for bit, so -0.0 is
    not 0.0."""
    if isinstance(a, float):
        return isinstance(b, float) and struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(same, a, b))
    return type(a) is type(b) and a == b


shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
codec_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_subnormal=True)
    | st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, float("inf"), float("-inf")])
    | hnp.arrays(np.float64, shapes, elements=st.floats(allow_nan=False))
    | hnp.arrays(np.int64, shapes),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3) | st.sampled_from(["~f", "~a", "~ai", "shape"]), inner, max_size=4),
    max_leaves=16,
)


@FEW
@given(value=codec_values)
def test_codec_round_trips_exactly(value):
    if reserved(value):
        with pytest.raises(ContractError, match="reserved"):
            to_jsonable(value)
        return
    back = from_jsonable(json.loads(json.dumps(to_jsonable(value))))
    assert same(value, back)


@FEW
@given(key=st.integers() | st.booleans() | st.none() | st.floats(allow_nan=False)
       | st.tuples(st.integers()), value=codec_values)
def test_codec_refuses_non_str_keys(key, value):
    with pytest.raises(ContractError, match="keys must be strings"):
        to_jsonable([{"outer": {key: value}}])


def test_codec_refuses_keys_that_str_would_merge():
    with pytest.raises(ContractError, match="keys must be strings"):
        to_jsonable({1: "a", "1": "b"})


@FEW
@given(arr=hnp.arrays(hnp.unsigned_integer_dtypes(), shapes))
def test_codec_refuses_unsigned_arrays(arr):
    with pytest.raises(ContractError, match="unsigned"):
        to_jsonable({"a": arr})


def test_codec_keeps_bool_arrays_as_integers():
    mask = np.array([True, False, True])
    back = from_jsonable(json.loads(json.dumps(to_jsonable(mask))))
    assert back.dtype == np.int64 and back.tolist() == [1, 0, 1]


# every kind of value a payload may hold: any text (non-ASCII and control
# characters included), ints past 2**63, special floats loose and in arrays,
# and lists of only strings or only ints, which the writer encodes in one call
special = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, float("inf"),
                           float("-inf"), float("nan")])
float_arrays = hnp.arrays(np.float64, shapes, elements=st.floats() | special)
payload_keys = st.text(max_size=4).filter(lambda key: key not in ("~f", "~a", "~ai"))
payload_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(2**63 - 2, 2**80) | st.text(max_size=6)
    | st.floats() | special | float_arrays | hnp.arrays(np.int64, shapes) | hnp.arrays(np.bool_, shapes)
    | st.lists(st.text(max_size=3), max_size=4) | st.lists(st.integers(), max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(payload_keys, inner, max_size=4),
    max_leaves=16,
)


@settings(FEW, max_examples=200)
@given(kind=st.text(max_size=4), payload=st.dictionaries(payload_keys, payload_values, max_size=5))
def test_model_file_is_what_json_dump_writes(path, kind, payload):
    save_model(kind, payload, path)
    doc = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "kind": kind,
           "payload": to_jsonable(payload)}
    assert path.read_bytes() == (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()
