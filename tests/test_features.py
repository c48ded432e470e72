import numpy as np
import pytest

from vibrosense.core import ContractError, OperatingPoint, VibrationRecord
from vibrosense.features import (
    axis_feature_names,
    extract_time_domain,
    extract_triaxial_features,
    fit_encoder,
    select_axes,
)


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
        assert np.array_equal(select_axes(rec), [[1.0, 3.0]])

    def test_large_record_row_count(self):
        n = 480_000
        rec = make_record(np.zeros(n), np.zeros(n), np.zeros(n))
        assert select_axes(rec).shape == (n, 2)

    def test_names(self):
        assert axis_feature_names() == ("x", "z")


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

    def test_inverse_transform(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(20, 3))
        enc = fit_encoder(rows, ("a", "b", "c"))
        assert np.allclose(enc.inverse_transform(enc.transform(rows)), rows)

    def test_width_guard(self):
        enc = fit_encoder(np.array([[1.0], [2.0]]), ("f",))
        with pytest.raises(ContractError):
            enc.transform(np.ones((2, 3)))

