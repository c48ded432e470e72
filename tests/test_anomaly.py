import numpy as np
import pytest

from vibrosense.anomaly import (
    AnomalyDataset,
    AnomalyRuleConfig,
    DEFAULT_LAMBDA,
    EPSILON_RMS_FRACTION,
    TruthRule,
    detect_series,
    flag_anomaly,
    ground_truth_labels,
    relative_error,
    run_benchmark,
)
from vibrosense.core import ContractError, SplitSpec, TimeSeries, make_rng, split_series
from vibrosense.forecast import AutoRegression, ForecastModelConfig, fit
from vibrosense.ingest import parse_timestamp
from vibrosense.synth import generate_spiked_series


#: A denominator floor far below every predicted magnitude of the hand cases.
EPS = 1e-6


def series(values, start=0.0, interval=1.0):
    return TimeSeries(start, interval, np.asarray(values, dtype=float))


class TestFlagRule:
    def test_hand_case_over_prediction(self):
        cfg = AnomalyRuleConfig(lam=0.1)
        assert flag_anomaly(10.0, 8.0, cfg, EPS) is True  # |r| = 0.2

    def test_hand_case_identity(self):
        cfg = AnomalyRuleConfig(lam=0.1)
        assert flag_anomaly(10.0, 10.0, cfg, EPS) is False

    def test_hand_case_floored_denominator(self):
        cfg = AnomalyRuleConfig(lam=0.1)
        assert flag_anomaly(0.0, 1.0, cfg, EPS) is True

    def test_two_sided_symmetry(self):
        cfg = AnomalyRuleConfig(lam=0.1)
        assert flag_anomaly(10.0, 12.0, cfg, EPS) == flag_anomaly(10.0, 8.0, cfg, EPS)

    def test_one_sided_only_over_prediction(self):
        cfg = AnomalyRuleConfig(lam=0.1, two_sided=False)
        assert flag_anomaly(10.0, 8.0, cfg, EPS) is True  # r = +0.2
        assert flag_anomaly(10.0, 12.0, cfg, EPS) is False  # r = -0.2

    def test_monotonic_in_lambda(self):
        rng = make_rng(0)
        predicted = rng.normal(0.0, 5.0, 1000)
        actual = rng.normal(0.0, 5.0, 1000)
        lambdas = np.sort(rng.uniform(0.01, 2.0, 8))
        counts = [
            int(np.sum(flag_anomaly(predicted, actual, AnomalyRuleConfig(lam=lam), EPS)))
            for lam in lambdas
        ]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_relative_error_vectorized(self):
        r = relative_error([10.0, 10.0], [8.0, 10.0], EPS)
        assert np.allclose(r, [0.2, 0.0])

    def test_default_lambda(self):
        assert DEFAULT_LAMBDA == 0.1
        assert AnomalyRuleConfig().lam == 0.1

    def test_guards(self):
        with pytest.raises(ContractError):
            AnomalyRuleConfig(lam=0.0)


class TestDetectSeries:
    def test_perfect_model_zero_flags(self):
        train = series([3.0] * 20)
        model = fit(ForecastModelConfig("seasonal_naive", {"m": 1}), train)
        result = detect_series(model, series([3.0] * 10), AnomalyRuleConfig())
        assert not result.flags.any()

    def test_seasonal_naive_spike_and_follower(self):
        # SeasonalNaive m=1 on [1,1,1,10,1], lambda=0.5: flags at the 10 and
        # the 1 after it (prediction 10 vs actual 1)
        train = series([1.0, 1.0])
        model = fit(ForecastModelConfig("seasonal_naive", {"m": 1}), train)
        test = series([1.0, 1.0, 1.0, 10.0, 1.0])
        result = detect_series(model, test, AnomalyRuleConfig(lam=0.5))
        assert np.array_equal(result.flags, [False, False, False, True, True])

    def test_empty_test_error(self):
        train = series([1.0, 1.0])
        model = fit(ForecastModelConfig("seasonal_naive", {"m": 1}), train)
        with pytest.raises(ContractError):
            detect_series(model, series([]), AnomalyRuleConfig())

    def test_model_fitted_without_forecast_fit_is_refused(self):
        model = AutoRegression(p=2).fit(series([1.0, 2.0, 3.0, 2.0, 1.0, 2.0, 3.0, 2.0]))
        with pytest.raises(ContractError, match="fit it with forecast.fit"):
            detect_series(model, series([2.0, 3.0]), AnomalyRuleConfig())

    @pytest.mark.parametrize("attr", ["train_tail", "train_rms"])
    def test_model_missing_a_detection_field_is_refused(self, attr):
        model = fit(ForecastModelConfig("seasonal_naive", {"m": 1}), series([1.0] * 4))
        delattr(model, attr)
        with pytest.raises(ContractError, match="fit it with forecast.fit"):
            detect_series(model, series([1.0]), AnomalyRuleConfig())

    def test_history_is_the_models_training_tail(self):
        model = fit(ForecastModelConfig("seasonal_naive", {"m": 1}), series([5.0] * 10))
        assert detect_series(model, series([2.0]), AnomalyRuleConfig()).flags.all()
        model.train_tail = np.array([2.0])
        assert not detect_series(model, series([2.0]), AnomalyRuleConfig()).flags.any()

    def test_epsilon_floor_follows_the_models_training_rms(self):
        # the tail predicts 0.0; against a floor of 1e-6 the 0.1 actual would
        # be flagged, against the RMS-scaled floor (about 1.8) it is not
        model = fit(ForecastModelConfig("seasonal_naive", {"m": 1}),
                    series([2e6, 2e6, 2e6, 2e6, 0.0]))
        result = detect_series(model, series([0.1]), AnomalyRuleConfig())
        assert result.epsilon == EPSILON_RMS_FRACTION * model.train_rms
        assert not result.flags.any()
        assert flag_anomaly(result.predictions, [0.1], AnomalyRuleConfig(), EPS).all()

    def test_epsilon_floor_of_a_zero_training_rms_stays_positive(self):
        model = fit(ForecastModelConfig("seasonal_naive", {"m": 1}), series([0.0] * 4))
        result = detect_series(model, series([0.0, 1.0]), AnomalyRuleConfig())
        assert result.epsilon == 1e-300
        assert result.flags.tolist() == [False, True]

    def test_a_training_rms_that_overflowed_is_refused(self):
        model = fit(ForecastModelConfig("seasonal_naive", {"m": 1}), series([1.0] * 4))
        model.train_rms = np.inf
        with pytest.raises(ContractError, match=r"training RMS overflowed \(train_rms = inf\)"):
            detect_series(model, series([1.0]), AnomalyRuleConfig())


class TestGroundTruth:
    def test_injected_spikes(self):
        sp = generate_spiked_series(100, 5, seed=2)
        ds = AnomalyDataset("s", sp.series, TruthRule.INJECTED_SPIKES,
                            spike_indices=sp.spike_indices)
        flags = ground_truth_labels(ds)
        assert int(flags.sum()) == 5
        assert np.array_equal(np.flatnonzero(flags), sp.spike_indices)

    def test_date_ranges(self):
        t0 = parse_timestamp("2022-02-01 00:00:00")
        values = np.full(576, 53.0)  # two days at 5-minute cadence
        ds = AnomalyDataset(
            "p",
            TimeSeries(t0, 300.0, values),
            TruthRule.DATE_RANGES,
            abnormal_dates=frozenset({__import__("datetime").date(2022, 2, 1)}),
        )
        flags = ground_truth_labels(ds)
        assert int(flags.sum()) == 288  # exactly the first day's rows
        assert flags[:288].all() and not flags[288:].any()

    def test_missing_backing_data(self):
        ds = AnomalyDataset("bad", series(np.ones(4)), TruthRule.DATE_RANGES)
        with pytest.raises(ContractError):
            ground_truth_labels(ds)


class TestSpikeDetectionRecall:
    def test_ar_recall_one_on_generated_spikes(self):
        """Spikes of relative magnitude 3*lambda over a learnable AR base:
        a fitted AR(10) model must recall every spike."""
        sp = generate_spiked_series(n=400, n_spikes=8, spike_rel=0.3, seed=5)
        train, test = split_series(sp.series, SplitSpec(0.5))
        model = fit(ForecastModelConfig("ar", {"p": 10}), train)
        result = detect_series(model, test, AnomalyRuleConfig(lam=0.1))
        truth = np.zeros(len(sp.series), dtype=bool)
        truth[sp.spike_indices] = True
        truth_test = truth[len(train):]
        assert result.flags[truth_test].all()  # recall 1.0


class TestBenchmark:
    def make_datasets(self):
        out = []
        for i in range(2):
            sp = generate_spiked_series(120, 4, seed=i)
            out.append(AnomalyDataset(f"d{i}", sp.series, TruthRule.INJECTED_SPIKES,
                                      spike_indices=sp.spike_indices))
        return out

    def grid(self):
        return {
            "seasonal_naive": [ForecastModelConfig("seasonal_naive", {"m": m}) for m in (1, 10)],
            "ar": [ForecastModelConfig("ar", {"p": p}) for p in (5, 10)],
        }

    def test_grid_shape(self):
        bench = run_benchmark(self.make_datasets(), self.grid(), SplitSpec(0.66))
        assert len(bench["grid"]) == 2 * 2 * 2  # datasets x families x variants
        for ds in ("d0", "d1"):
            for fam in ("seasonal_naive", "ar"):
                assert bench["best_rmse"][ds][fam]["rmse"] is not None
                assert 0.0 <= bench["best_f1"][ds][fam]["f1"] <= 1.0

    def test_deterministic_rerun(self):
        a = run_benchmark(self.make_datasets(), self.grid(), SplitSpec(0.66))
        b = run_benchmark(self.make_datasets(), self.grid(), SplitSpec(0.66))
        for cell_a, cell_b in zip(a["grid"], b["grid"]):
            for key in ("rmse", "precision", "recall", "f1", "config_fingerprint"):
                assert cell_a[key] == cell_b[key]

    def test_error_cells_do_not_abort(self):
        datasets = self.make_datasets()
        grid = {"ar": [ForecastModelConfig("ar", {"p": 200})]}  # too long for split
        bench = run_benchmark(datasets, grid, SplitSpec(0.66))
        cell = bench["grid"][0]
        assert cell["error"] is not None
        assert cell["rmse"] is None

    def test_a_network_sgd_rejects_is_an_error_cell_on_every_dataset(self):
        # the datasets share one training shape, so both fits fail as one
        # lockstep group, and the sweep goes on to the next family
        grid = {"mlp": [ForecastModelConfig("mlp", {"epochs": 0})], **self.grid()}
        bench = run_benchmark(self.make_datasets(), grid, SplitSpec(0.66))
        mlp = [c for c in bench["grid"] if c["model"] == "mlp"]
        assert [c["dataset"] for c in mlp] == ["d0", "d1"]
        for cell in mlp:
            assert cell["error"] == "epochs must be a positive integer, got 0"
            assert cell["rmse"] is None
        assert all(c["error"] is None for c in bench["grid"] if c["model"] != "mlp")

    def test_empty_inputs(self):
        with pytest.raises(ContractError):
            run_benchmark([], self.grid(), SplitSpec(0.66))
