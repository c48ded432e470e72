import numpy as np
import pytest

from vibrosense.core import ContractError, OperatingPoint, VibrationRecord
from vibrosense.features import (
    AxisMode,
    Normalization,
    axis_feature_names,
    extract_time_domain,
    extract_triaxial_features,
    fit_encoder,
    load_encoder,
    save_encoder,
    select_axes,
)
from vibrosense.modelio import save_model


def make_record(x, y, z):
    return VibrationRecord(0.0, 3200.0, x, y, z, OperatingPoint(300))


class TestTimeDomain:
    def test_alternating(self):
        fv = extract_time_domain([1, -1, 1, -1])
        got = dict(zip(fv.names, fv.values))
        assert got["mean"] == 0.0
        assert got["std"] == 1.0
        assert got["rms"] == 1.0
        assert got["peak"] == 1.0
        assert got["crest"] == 1.0

    def test_single_peak(self):
        fv = extract_time_domain([0, 0, 0, 2])
        got = dict(zip(fv.names, fv.values))
        assert got["rms"] == 1.0
        assert got["peak"] == 2.0
        assert got["crest"] == 2.0

    def test_zero_window_crest(self):
        fv = extract_time_domain([0, 0, 0, 0])
        got = dict(zip(fv.names, fv.values))
        assert got["rms"] == 0.0
        assert got["crest"] == 0.0

    def test_too_short(self):
        with pytest.raises(ContractError):
            extract_time_domain([1.0])

    def test_triaxial_names(self):
        rec = make_record([1, 2], [3, 4], [5, 6])
        fv = extract_triaxial_features(rec)
        assert len(fv.values) == 15
        assert fv.names[0] == "x_mean"
        assert fv.names[5] == "y_mean"
        assert fv.names[14] == "z_crest"


class TestAxisSelection:
    def test_xz_projection(self):
        rec = make_record([1.0], [2.0], [3.0])
        assert np.array_equal(select_axes(rec, AxisMode.XZ_ONLY), [[1.0, 3.0]])

    def test_all_axes(self):
        rec = make_record([1.0], [2.0], [3.0])
        assert np.array_equal(select_axes(rec, AxisMode.ALL_AXES), [[1.0, 2.0, 3.0]])

    def test_large_record_row_count(self):
        n = 480_000
        rec = make_record(np.zeros(n), np.zeros(n), np.zeros(n))
        assert select_axes(rec, AxisMode.ALL_AXES).shape == (n, 3)
        assert select_axes(rec, AxisMode.XZ_ONLY).shape == (n, 2)

    def test_names(self):
        assert axis_feature_names(AxisMode.XZ_ONLY) == ("x", "z")
        assert axis_feature_names(AxisMode.ALL_AXES) == ("x", "y", "z")


class TestEncoder:
    def test_population_std(self):
        enc = fit_encoder(np.array([[2.0], [4.0]]), ("f",))
        assert enc.mean[0] == 3.0
        assert enc.scale[0] == 1.0  # population std

    def test_zscore_identity(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(3.0, 2.0, size=(50, 4))
        enc = fit_encoder(rows, tuple("abcd"))
        out = enc.transform(rows)
        assert np.all(np.abs(out.mean(axis=0)) < 1e-10)
        assert np.allclose(out.std(axis=0), 1.0)

    def test_constant_column(self):
        rows = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
        with pytest.warns(UserWarning):
            enc = fit_encoder(rows, ("c", "v"))
        assert enc.constant_features == ("c",)
        assert np.all(enc.transform(rows)[:, 0] == 0.0)

    def test_minmax(self):
        rows = np.array([[0.0], [10.0]])
        enc = fit_encoder(rows, ("f",), normalization=Normalization.MINMAX)
        out = enc.transform(np.array([[5.0]]))
        assert out[0, 0] == pytest.approx(0.5)

    def test_inverse_transform(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(20, 3))
        enc = fit_encoder(rows, ("a", "b", "c"))
        assert np.allclose(enc.inverse_transform(enc.transform(rows)), rows)

    def test_width_guard(self):
        enc = fit_encoder(np.array([[1.0], [2.0]]), ("f",))
        with pytest.raises(ContractError):
            enc.transform(np.ones((2, 3)))


class TestEncoderPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(10, 3))
        enc = fit_encoder(rows, ("a", "b", "c"), selected_mask=[True, False, True])
        path = tmp_path / "enc.txt"
        save_encoder(enc, path)
        loaded = load_encoder(path)
        assert loaded.feature_names == enc.feature_names
        assert np.array_equal(loaded.mean, enc.mean)  # lossless hex floats
        assert np.array_equal(loaded.scale, enc.scale)
        assert np.array_equal(loaded.selected_mask, enc.selected_mask)
        assert loaded.normalization == enc.normalization
        rows2 = rng.normal(size=(4, 3))
        assert np.array_equal(loaded.transform(rows2), enc.transform(rows2))

    def test_mask_survives(self, tmp_path):
        enc = fit_encoder(np.array([[1.0, 2.0], [3.0, 4.0]]), ("a", "b"),
                          selected_mask=[True, False])
        save_encoder(enc, tmp_path / "e.txt")
        assert load_encoder(tmp_path / "e.txt").n_selected == 1

    def test_comma_in_feature_name(self, tmp_path):
        enc = fit_encoder(np.array([[1.0, 2.0], [3.0, 5.0]]), ("x,rms", "y"))
        save_encoder(enc, tmp_path / "e.json")
        loaded = load_encoder(tmp_path / "e.json")
        assert loaded.feature_names == ("x,rms", "y")
        assert np.array_equal(loaded.scale, enc.scale)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.json"
        payload = {"feature_names": ["a", "b"], "mean": np.zeros(2), "selected_mask": np.ones(2, bool),
                   "normalization": "zscore", "constant_features": []}
        save_model("encoder", payload, path)
        with pytest.raises(ContractError, match="missing field 'scale'"):
            load_encoder(path)
