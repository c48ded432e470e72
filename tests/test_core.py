import numpy as np
import pytest

from vibrosense.core import (
    ConfusionMatrix,
    ContractError,
    DefectLabel,
    MachineState,
    OperatingPoint,
    SplitMode,
    SplitSpec,
    TimeSeries,
    VibrationRecord,
    confusion_matrix,
    make_rng,
    precision_recall_f1,
    rmse,
    split_arrays,
    split_indices,
    split_series,
)


class TestRmse:
    def test_identity(self):
        assert rmse([1, 2, 3], [1, 2, 3]) == 0.0

    def test_hand_case(self):
        assert rmse([1, 2], [1, 4]) == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_matches_two_pass_oracle(self):
        rng = make_rng(42)
        a = rng.normal(size=1000)
        b = rng.normal(size=1000)
        # independent two-pass oracle: accumulate squared diffs, divide, root
        acc = 0.0
        for ai, bi in zip(a, b):
            acc += (ai - bi) ** 2
        oracle = (acc / 1000.0) ** 0.5
        assert rmse(a, b) == pytest.approx(oracle, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            rmse([1, 2], [1, 2, 3])

    def test_empty(self):
        with pytest.raises(ContractError):
            rmse([], [])


class TestPrecisionRecallF1:
    def test_hand_case(self):
        # TP=3, FP=1, FN=2
        pred = np.array([1, 1, 1, 1, 0, 0, 0], dtype=bool)
        true = np.array([1, 1, 1, 0, 1, 1, 0], dtype=bool)
        s = precision_recall_f1(pred, true)
        assert s.precision == pytest.approx(0.75)
        assert s.recall == pytest.approx(0.6)
        assert s.f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35)
        assert not s.degenerate

    def test_all_correct(self):
        s = precision_recall_f1([True, False, True], [True, False, True])
        assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)

    def test_no_predicted_positives_degenerate(self):
        s = precision_recall_f1([False, False], [True, False])
        assert (s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0)
        assert s.degenerate


class TestSplits:
    def test_chronological_66(self):
        series = TimeSeries(0.0, 1.0, np.arange(100, dtype=float))
        train, test = split_series(series, SplitSpec(0.66))
        assert len(train) == 66 and len(test) == 34
        assert train.values[0] == 0.0 and test.values[0] == 66.0
        assert test.start_s == 66.0

    def test_series_refuses_shuffle(self):
        series = TimeSeries(0.0, 1.0, np.arange(10, dtype=float))
        with pytest.raises(ContractError):
            split_series(series, SplitSpec(0.5, SplitMode.STRATIFIED_SHUFFLE))

    def test_stratified_proportions(self):
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 2])
        tr, te = split_indices(10, SplitSpec(0.7, SplitMode.STRATIFIED_SHUFFLE, seed=3),
                               labels=labels)
        assert tr.size + te.size == 10
        assert np.intersect1d(tr, te).size == 0
        counts = {lab: int(np.sum(labels[tr] == lab)) for lab in (0, 1, 2)}
        assert abs(counts[0] - 3) <= 1
        assert abs(counts[1] - 2) <= 1
        assert abs(counts[2] - 2) <= 1

    def test_deterministic(self):
        labels = np.arange(20) % 3
        spec = SplitSpec(0.7, SplitMode.STRATIFIED_SHUFFLE, seed=9)
        a = split_indices(20, spec, labels=labels)
        b = split_indices(20, spec, labels=labels)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_split_arrays_roundtrip(self):
        x = np.arange(20).reshape(10, 2).astype(float)
        y = np.arange(10) % 2
        (xtr, ytr), (xte, yte) = split_arrays(x, y, SplitSpec(0.5, SplitMode.STRATIFIED_SHUFFLE))
        assert xtr.shape[0] + xte.shape[0] == 10
        assert ytr.size + yte.size == 10

    def test_bad_fraction(self):
        with pytest.raises(ContractError):
            SplitSpec(1.0)


class TestConfusionMatrix:
    def test_all_correct(self):
        cm = confusion_matrix([0, 1, 2], [0, 1, 2], ("a", "b", "c"))
        assert cm.accuracy() == 1.0
        assert np.array_equal(cm.counts, np.eye(3, dtype=int))

    def test_constant_predictions(self):
        cm = confusion_matrix([0, 1, 2, 0, 1, 2], [0, 0, 0, 0, 0, 0], ("a", "b", "c"))
        assert cm.accuracy() == pytest.approx(1 / 3)

    def test_row_normalized_sums(self):
        cm = confusion_matrix([0, 0, 1, 1, 1], [0, 1, 1, 1, 0], ("a", "b"))
        rows = cm.row_normalized()
        assert np.allclose(rows.sum(axis=1), 1.0)

    def test_shape_guard(self):
        with pytest.raises(ContractError):
            ConfusionMatrix(np.zeros((2, 3)), ("a", "b"))

    @pytest.mark.parametrize("true, pred, message", [
        ([0, 1, -1], [0, 1, 2], "true label -1 is outside"),  # would wrap to the last class
        ([0, 1, 3], [0, 1, 2], "true label 3 is outside"),
        ([0, 1, 2], [0, -1, 2], "predicted label -1 is outside"),
        ([0, 1, 2], [0, 1, 3], "predicted label 3 is outside"),
        ([0, 1, 2], [0, 1], "3 true labels for 2 predicted labels"),  # zip cut the third
    ])
    def test_labels_outside_the_classes_or_unpaired_are_refused(self, true, pred, message):
        with pytest.raises(ContractError, match=message):
            confusion_matrix(true, pred, ("a", "b", "c"))

    def test_counts_match_a_pair_by_pair_loop(self):
        gen = np.random.default_rng(0)
        true, pred = gen.integers(0, 4, 200), gen.integers(0, 4, 200)
        expected = np.zeros((4, 4), dtype=np.int64)
        for t, p in zip(true, pred):  # true labels along the rows
            expected[t, p] += 1
        assert np.array_equal(confusion_matrix(true, pred, ("a", "b", "c", "d")).counts, expected)


class TestDomainTypes:
    def test_enum_codes(self):
        assert int(DefectLabel.NORMAL) == 0
        assert int(DefectLabel.NEAR_FAILURE) == 1
        assert int(DefectLabel.FAILURE) == 2
        assert int(MachineState.OFF) == 0
        assert int(MachineState.ON) == 1
        assert int(MachineState.ABNORMAL) == 2

    def test_operating_point(self):
        assert OperatingPoint(rpm=300).rotation_hz == pytest.approx(5.0)
        with pytest.raises(ContractError):
            OperatingPoint(rpm=0)

    def test_timeseries_guards(self):
        with pytest.raises(ContractError):
            TimeSeries(0.0, 1.0, np.array([1.0, np.nan]))
        with pytest.raises(ContractError):
            TimeSeries(0.0, 0.0, np.array([1.0]))

    def test_timeseries_timestamps(self):
        ts = TimeSeries(5.0, 2.0, np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(ts.timestamps(), [5.0, 7.0, 9.0])

    def test_vibration_record_guards(self):
        with pytest.raises(ContractError):
            VibrationRecord(0.0, 3200.0, [1.0], [1.0, 2.0], [1.0], OperatingPoint(300))

    def test_make_rng_streams(self):
        a = make_rng(7).normal(size=4)
        b = make_rng(7).normal(size=4)
        c = make_rng(7, 1).normal(size=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_make_rng_refuses_negative_seed(self):
        with pytest.raises(ContractError, match="seed must be a non-negative integer, got -1"):
            make_rng(-1)
