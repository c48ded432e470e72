import numpy as np
import pytest

from vibrosense import ingest
from vibrosense.core import ContractError, MachineState, OperatingPoint, VibrationRecord
from vibrosense.features import (
    TIME_DOMAIN_FEATURE_NAMES,
    TRIAXIAL_FEATURE_NAMES,
    axis_feature_names,
    extract_time_domain,
    extract_triaxial_features,
    fit_encoder,
    select_axes,
)


def make_record(x, y, z, start_s=0.0):
    return VibrationRecord(start_s, 3200.0, x, y, z, OperatingPoint(300))


def _ref_time_domain(window):
    """The per-window computation the array version replaced."""
    v = np.asarray(window, dtype=np.float64)
    rms = float(np.sqrt(np.mean(v * v)))
    peak = float(np.max(np.abs(v)))
    return np.array([float(np.mean(v)), float(np.std(v)), rms, peak,
                     peak / rms if rms > 0 else 0.0])


class TestTimeDomain:
    def test_alternating(self):
        got = dict(zip(TIME_DOMAIN_FEATURE_NAMES, extract_time_domain([1, -1, 1, -1])))
        assert got == {"mean": 0.0, "std": 1.0, "rms": 1.0, "peak": 1.0, "crest": 1.0}

    def test_single_peak(self):
        got = dict(zip(TIME_DOMAIN_FEATURE_NAMES, extract_time_domain([0, 0, 0, 2])))
        assert got["rms"] == 1.0
        assert got["peak"] == 2.0
        assert got["crest"] == 2.0

    def test_zero_window_crest(self):
        got = dict(zip(TIME_DOMAIN_FEATURE_NAMES, extract_time_domain([0, 0, 0, 0])))
        assert got["rms"] == 0.0
        assert got["crest"] == 0.0

    @pytest.mark.parametrize("window", [[1.0], [[1.0], [2.0]], 3.0])
    def test_too_short(self, window):
        with pytest.raises(ContractError, match="window must have >= 2 samples"):
            extract_time_domain(window)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])  # 1e200 squares to inf
    def test_non_finite_sample(self, bad):
        windows = np.ones((2, 3, 8))
        windows[1, 2, 5] = bad
        with pytest.raises(ContractError, match="finite"):
            extract_time_domain(windows)

    @pytest.mark.parametrize("n", [2, 7, 8, 129, 160, 1000])
    def test_windows_match_per_window_reference(self, n):
        rng = np.random.default_rng(n)
        windows = rng.normal(size=(4, 3, n)) * rng.choice([1e-3, 1.0, 1e3], size=(4, 3, 1))
        windows[2, 1] = 0.0  # an all-zero window: crest 0
        got = extract_time_domain(windows)
        want = np.array([[_ref_time_domain(w) for w in axes] for axes in windows])
        assert got.dtype == np.float64 and got.shape == (4, 3, 5)
        assert got.tobytes() == want.tobytes()
        assert extract_time_domain(windows[3, 0]).tobytes() == want[3, 0].tobytes()

    def test_triaxial_names(self):
        rec = make_record([1, 2], [3, 4], [5, 6])
        values = extract_triaxial_features(rec)
        assert values.shape == (15,) == (len(TRIAXIAL_FEATURE_NAMES),)
        assert TRIAXIAL_FEATURE_NAMES[0] == "x_mean"
        assert TRIAXIAL_FEATURE_NAMES[5] == "y_mean"
        assert TRIAXIAL_FEATURE_NAMES[14] == "z_crest"
        assert values.tobytes() == np.concatenate(
            [_ref_time_domain(rec.x), _ref_time_domain(rec.y), _ref_time_domain(rec.z)]).tobytes()


def _ref_align(vibration, labeled, bucket_s):
    """align_and_impute's features and labels as a per-record, per-bucket loop."""
    vib = sorted(vibration, key=lambda r: r.start_s)
    rows, labels = [], []
    for row, state in sorted(labeled, key=lambda p: p[0].timestamp_s):
        inside = [r for r in vib if row.timestamp_s <= r.start_s < row.timestamp_s + bucket_s]
        if inside:
            feats = np.stack([np.concatenate([_ref_time_domain(r.x), _ref_time_domain(r.y),
                                              _ref_time_domain(r.z)]) for r in inside])
            rows.append(np.concatenate([np.median(feats, axis=0), row.measurements()]))
            labels.append(int(state))
    return np.stack(rows), labels


def test_align_and_impute_matches_per_record_reference():
    # buckets at 0, 300, 600 and 900 s hold 3, 0, 1 and 3 records, of two lengths
    rng = np.random.default_rng(5)
    starts = [0.0, 10.0, 299.5, 600.0, 900.0, 1000.0, 1199.0, 1200.0]
    vibration = [make_record(*rng.normal(size=(3, 160 if i % 2 else 129)), start_s=t)
                 for i, t in enumerate(starts)]
    labeled = ingest.ProcessTable([900.0, 300.0, 0.0, 600.0], rng.normal(size=(4, 7)),
                                  [MachineState.ON, MachineState.OFF,
                                   MachineState.ABNORMAL, MachineState.ON])
    got = ingest.align_and_impute(vibration[::-1], labeled)
    features, labels = _ref_align(vibration, labeled, 300.0)
    assert got.features.tobytes() == features.tobytes()
    assert got.labels.tolist() == labels
    assert got.n_dropped_buckets == 1
    assert got.feature_names == TRIAXIAL_FEATURE_NAMES + ingest.PROCESS_MEASUREMENT_COLUMNS


@pytest.mark.parametrize("start_s", [0.0, 1e4])  # inside the one bucket, and in none
def test_align_and_impute_rejects_a_non_finite_sample(start_s):
    x = np.ones(8)
    x[3] = np.nan
    good = np.arange(8.0)
    vibration = [make_record(good, good, good, start_s=1.0), make_record(x, good, good, start_s)]
    with pytest.raises(ContractError, match="finite"):
        ingest.align_and_impute(vibration, ingest.ProcessTable([0.0], np.zeros((1, 7)),
                                                               [MachineState.ON]))


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
        with pytest.warns(UserWarning, match="unit scale: c$"):
            enc = fit_encoder(rows, ("c", "v"))
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

