import numpy as np
import pytest

from vibrosense.cli import DEFAULT_VARIANTS, default_variants
from vibrosense.core import ContractError, SplitSpec, TimeSeries, make_rng, split_series
from vibrosense.forecast import (
    FAMILIES,
    Arima,
    AutoRegression,
    ForecastModelConfig,
    MODEL_DEFAULTS,
    RandomForestForecaster,
    SeasonalNaive,
    autoregression_fit,
    fit,
    fit_regression_tree,
    rolling_forecast,
)
from vibrosense.forecast.forest import TreeNodes, _best_splits


def series(values):
    return TimeSeries(0.0, 1.0, np.asarray(values, dtype=float))


def gen_ar(coefs, n, seed=0, noise=0.0, y0=1.0):
    rng = make_rng(seed)
    p = len(coefs)
    values = list(rng.normal(size=p)) if y0 is None else [y0] * p
    for _ in range(n - p):
        nxt = sum(c * values[-(j + 1)] for j, c in enumerate(coefs))
        if noise:
            nxt += rng.normal(0.0, noise)
        values.append(nxt)
    return np.array(values)


class TestSeasonalNaive:
    def test_m1_prediction(self):
        model = SeasonalNaive(m=1).fit(series([1, 2, 3, 7]))
        assert model.predict_one_step([5, 6, 7]) == 7.0

    def test_m3_prediction(self):
        model = SeasonalNaive(m=3).fit(series([1, 2, 3, 4, 5, 6]))
        assert model.predict_one_step([4, 5, 6]) == 4.0

    def test_stores_last_season_only(self):
        model = SeasonalNaive(m=3).fit(series(np.arange(20)))
        assert np.array_equal(model.last_season, [17, 18, 19])

    def test_m0_error(self):
        with pytest.raises(ContractError):
            SeasonalNaive(m=0)

    def test_defaults_1_or_10(self):
        assert MODEL_DEFAULTS["seasonal_naive"]["m"] == 1
        ForecastModelConfig("seasonal_naive", {"m": 10})  # accepted


class TestAutoregression:
    def test_ar1_recovers_09(self):
        values = gen_ar([0.9], 200)
        coefs, _ = autoregression_fit(values, p=1)
        assert coefs[0] == pytest.approx(0.9, abs=1e-6)

    def test_ar2_recovers_known_recurrence(self):
        values = gen_ar([0.5, 0.25], 500, y0=None, seed=4)
        coefs, intercept = autoregression_fit(values, p=2)
        assert coefs[0] == pytest.approx(0.5, abs=1e-6)
        assert coefs[1] == pytest.approx(0.25, abs=1e-6)
        assert intercept == pytest.approx(0.0, abs=1e-6)

    def test_constant_fixed_point(self):
        model = AutoRegression(p=2).fit(series([5.0] * 50))
        assert model.predict_one_step([5.0, 5.0]) == pytest.approx(5.0, abs=1e-6)

    def test_predict_linear_recurrence(self):
        model = AutoRegression(p=1)
        model.coefs = np.array([0.9])
        model.intercept = 0.0
        assert model.predict_one_step([1.0, 2.0]) == pytest.approx(1.8, abs=1e-9)

    def test_matches_brute_force_normal_equations(self):
        """Oracle: build the lag design explicitly and solve lstsq."""
        rng = make_rng(11)
        values = gen_ar([0.6, -0.2, 0.1], 400, y0=None, seed=11, noise=0.1)
        p = 3
        coefs, intercept = autoregression_fit(values, p)
        rows = len(values) - p
        design = np.ones((rows, p + 1))
        for j in range(1, p + 1):
            design[:, j] = values[p - j : len(values) - j]
        beta, *_ = np.linalg.lstsq(design, values[p:], rcond=None)
        assert intercept == pytest.approx(beta[0], abs=1e-6)
        assert np.allclose(coefs, beta[1:], atol=1e-6)

    def test_default_p10(self):
        assert MODEL_DEFAULTS["ar"]["p"] == 10

    def test_too_short(self):
        with pytest.raises(ContractError):
            autoregression_fit(np.arange(5.0), p=4)


class TestArima:
    def test_linear_ramp_exact(self):
        values = np.arange(100, dtype=float)
        model = Arima(p=10, d=1).fit(series(values))
        ctx = np.arange(80.0, 95.0)
        assert model.predict_one_step(ctx) == pytest.approx(95.0, abs=1e-9)

    def test_d0_reduces_to_ar(self):
        values = gen_ar([0.7], 200, noise=0.05, seed=2, y0=None)
        arima = Arima(p=4, d=0).fit(series(values))
        ar = AutoRegression(p=4).fit(series(values))
        assert np.array_equal(arima.coefs, ar.coefs)
        assert arima.intercept == ar.intercept

    def test_ma_unsupported(self):
        with pytest.raises(ContractError, match="MA terms unsupported"):
            Arima(p=10, d=1, q=1)

    def test_config_rejects_q(self):
        with pytest.raises(ContractError, match="MA terms unsupported"):
            fit(ForecastModelConfig("arima", {"q": 1}), series(np.arange(50.0)))

    def test_bad_d(self):
        with pytest.raises(ContractError):
            Arima(p=2, d=2)


class TestRegressionTree:
    def test_step_series_split(self):
        """Single tree, depth 1, step series, lag 1: exhaustive-oracle split."""
        values = np.array([0.0] * 50 + [1.0] * 50)
        rows = values[:-1][:, None]
        targets = values[1:]
        tree = fit_regression_tree(rows, targets, max_depth=1, rng=make_rng(0))
        root = 0
        assert tree.feature[root] == 0
        assert tree.threshold[root] == pytest.approx(0.5)
        # left leaf: rows with lag 0 -> targets 49 zeros + one 1; mean = 1/50
        assert tree.value[tree.left[root]] == pytest.approx(1 / 50)
        assert tree.value[tree.right[root]] == pytest.approx(1.0)

    def test_best_split_matches_exhaustive_oracle(self):
        rng = make_rng(5)
        values = rng.normal(size=40)
        targets = rng.normal(size=40)
        thresholds, scores = _best_splits(values[:, None], targets)
        # oracle: try every midpoint directly
        best_score, best_thr = -np.inf, None
        for thr in (np.sort(values)[1:] + np.sort(values)[:-1]) / 2:
            mask = values <= thr
            if mask.all() or not mask.any():
                continue
            parent = np.sum((targets - targets.mean()) ** 2)
            left = np.sum((targets[mask] - targets[mask].mean()) ** 2)
            right = np.sum((targets[~mask] - targets[~mask].mean()) ** 2)
            score = parent - left - right
            if score > best_score:
                best_score, best_thr = score, thr
        assert thresholds[0] == pytest.approx(best_thr)
        assert scores[0] == pytest.approx(best_score)

    def test_constant_feature_scores_minus_inf(self):
        assert _best_splits(np.ones((10, 1)), np.arange(10.0))[1][0] == -np.inf


class TestRandomForest:
    def test_constant_series_exact(self):
        model = RandomForestForecaster(n_trees=10, max_depth=3, lag_window=3).fit(
            series([4.0] * 30)
        )
        assert model.predict_one_step([4.0, 4.0, 4.0]) == 4.0

    def test_defaults(self):
        assert MODEL_DEFAULTS["random_forest"]["n_trees"] == 500
        assert MODEL_DEFAULTS["random_forest"]["max_depth"] == 10

    def test_deterministic(self):
        values = gen_ar([0.8], 100, noise=0.1, seed=1, y0=None)
        a = RandomForestForecaster(n_trees=5, max_depth=4, lag_window=4, seed=3).fit(series(values))
        b = RandomForestForecaster(n_trees=5, max_depth=4, lag_window=4, seed=3).fit(series(values))
        ctx = values[-5:]
        assert a.predict_one_step(ctx) == b.predict_one_step(ctx)

    def test_learns_step_signal(self):
        values = np.tile([0.0, 0.0, 0.0, 0.0, 10.0], 30)
        model = RandomForestForecaster(n_trees=20, max_depth=6, lag_window=5, seed=0).fit(
            series(values)
        )
        assert model.predict_one_step([0.0, 0.0, 0.0, 0.0, 10.0]) == pytest.approx(0.0, abs=0.5)
        assert model.predict_one_step([0.0, 10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.0, abs=0.5)


class TestRollingForecast:
    def test_teacher_forcing(self):
        train = series([1, 1, 1, 1, 1])
        model = fit(ForecastModelConfig("seasonal_naive", {"m": 1}), train)
        preds = rolling_forecast(model, train.values, [10.0, 1.0, 1.0])
        # context always uses the true previous observation
        assert np.array_equal(preds, [1.0, 10.0, 1.0])

    def test_empty_test_error(self):
        train = series([1, 1, 1])
        model = fit(ForecastModelConfig("seasonal_naive", {"m": 1}), train)
        with pytest.raises(ContractError, match="empty test"):
            rolling_forecast(model, train.values, [])

    def test_unknown_kind(self):
        with pytest.raises(ContractError, match="unknown model kind"):
            ForecastModelConfig("prophet")

    def test_unknown_hyperparameter(self):
        with pytest.raises(ContractError, match="unknown hyperparameter"):
            ForecastModelConfig("ar", {"trees": 5})


# Reference code: the per-point rolling loop, the per-row tree walk and the
# per-feature split search that the batched paths replaced.


def _ref_rolling_forecast(model, history, test_values):
    history = np.asarray(history, dtype=np.float64)
    need = model.min_context
    context = list(history[-need - 1 :])
    preds = np.empty(len(test_values))
    for i, actual in enumerate(test_values):
        preds[i] = model.predict_one_step(np.asarray(context))
        context.append(actual)
        if len(context) > need + 1:
            context.pop(0)
    return preds


def _ref_tree_predict(tree, rows):
    out = np.empty(rows.shape[0])
    for i, row in enumerate(rows):
        node = 0
        while tree.feature[node] >= 0:
            if row[tree.feature[node]] <= tree.threshold[node]:
                node = tree.left[node]
            else:
                node = tree.right[node]
        out[i] = tree.value[node]
    return out


def _ref_best_split_for_feature(values, targets):
    order = np.argsort(values, kind="stable")
    v = values[order]
    t = targets[order]
    n = v.size
    boundaries = np.flatnonzero(v[1:] > v[:-1]) + 1
    if boundaries.size == 0:
        return None
    csum = np.cumsum(t)
    csq = np.cumsum(t * t)
    total_sum, total_sq = csum[-1], csq[-1]
    k = boundaries
    left_sum = csum[k - 1]
    left_sse = csq[k - 1] - left_sum * left_sum / k
    right_n = n - k
    right_sum = total_sum - left_sum
    right_sse = (total_sq - csq[k - 1]) - right_sum * right_sum / right_n
    parent_sse = total_sq - total_sum * total_sum / n
    reduction = parent_sse - (left_sse + right_sse)
    best = int(np.argmax(reduction))
    threshold = 0.5 * (v[k[best] - 1] + v[k[best]])
    return float(threshold), float(reduction[best])


def _ref_grow(rows, targets, depth, max_depth, feat_rng, nodes):
    idx = len(nodes["feature"])
    for key in nodes:
        nodes[key].append(0)
    if depth >= max_depth or rows.shape[0] < 2 or np.ptp(targets) == 0.0:
        nodes["feature"][idx] = -1
        nodes["value"][idx] = float(np.mean(targets))
        return idx
    n_features = rows.shape[1]
    candidates = feat_rng.choice(n_features, size=-(-n_features // 3), replace=False)
    best = None
    for f in candidates:
        found = _ref_best_split_for_feature(rows[:, f], targets)
        if found is None:
            continue
        threshold, score = found
        if best is None or score > best[2]:  # first strictly greater score
            best = (int(f), threshold, score)
    if best is None:
        nodes["feature"][idx] = -1
        nodes["value"][idx] = float(np.mean(targets))
        return idx
    f, threshold, _ = best
    mask = rows[:, f] <= threshold
    nodes["feature"][idx] = f
    nodes["threshold"][idx] = threshold
    nodes["value"][idx] = float(np.mean(targets))
    nodes["left"][idx] = _ref_grow(rows[mask], targets[mask], depth + 1, max_depth, feat_rng, nodes)
    nodes["right"][idx] = _ref_grow(rows[~mask], targets[~mask], depth + 1, max_depth, feat_rng, nodes)
    return idx


# Small settings of all nine families; the test split (58 points) crosses the
# 32-window block boundary of the network forecasters.
ALL_FAMILIES = [
    ("seasonal_naive", {"m": 3}),
    ("ar", {"p": 5}),
    ("arima", {"p": 5, "d": 1}),
    ("random_forest", {"n_trees": 7, "max_depth": 5, "lag_window": 6}),
    ("mlp", {"hidden_layers": 2, "neurons": 8, "epochs": 2}),
    ("rnn", {"hidden_layers": 1, "neurons": 6, "epochs": 1}),
    ("lstm", {"blocks": 2, "neurons": 5, "dense_units": 3, "epochs": 1}),
    ("autoencoder", {"window": 16, "filters": 4, "epochs": 1}),
    ("gaussian_rnn", {"hidden_layers": 1, "cells": 5, "epochs": 1}),
]
BIT_IDENTICAL = {"seasonal_naive", "random_forest"}


class TestBatchedPrediction:
    def split(self):
        rng = make_rng(31)
        t = np.arange(170, dtype=float)
        values = 2.0 + np.sin(2 * np.pi * t / 17) + 0.1 * rng.normal(size=t.size)
        return split_series(series(values), SplitSpec(0.66))

    @pytest.mark.parametrize("kind,params", ALL_FAMILIES)
    def test_rolling_matches_per_point_reference(self, kind, params):
        train, test = self.split()
        assert len(test) > 32
        model = fit(ForecastModelConfig(kind, params, seed=4), train)
        got = rolling_forecast(model, train.values, test.values)
        ref = _ref_rolling_forecast(model, train.values, test.values)
        if kind in BIT_IDENTICAL:
            assert np.array_equal(got, ref)
        else:
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("kind,params", ALL_FAMILIES)
    def test_one_step_is_a_batch_of_one(self, kind, params):
        train, test = self.split()
        model = fit(ForecastModelConfig(kind, params, seed=4), train)
        for context in (train.values[-model.min_context :], test.values[:40]):
            assert model.predict_one_step(context) == model.predict_batch(context[None])[0]

    def test_rolling_accepts_history_of_min_context(self):
        train, test = self.split()
        model = fit(ForecastModelConfig("ar", {"p": 5}), train)
        history = train.values[-5:]
        assert np.array_equal(
            rolling_forecast(model, history, test.values),
            _ref_rolling_forecast(model, history, test.values),
        )

    def test_tree_walk_matches_per_row_reference(self):
        rng = make_rng(32)
        rows = np.round(rng.normal(size=(300, 6)), 1)
        targets = rows[:, 0] - 2.0 * rows[:, 3] + rng.normal(size=300)
        forest = RandomForestForecaster(n_trees=5, max_depth=7, lag_window=6, seed=2)
        forest.fit(series(rng.normal(size=80)))
        forest.trees = [fit_regression_tree(rows, targets, 7, make_rng(s)) for s in range(5)]
        probe = np.round(rng.normal(size=(200, 6)), 1)
        per_tree = [_ref_tree_predict(tree, probe) for tree in forest.trees]
        for tree, ref in zip(forest.trees, per_tree):
            assert np.array_equal(tree.predict(probe), ref)
        ref_mean = [np.mean([ref[i] for ref in per_tree]) for i in range(probe.shape[0])]
        assert np.array_equal(forest.predict_batch(probe), ref_mean)

    def test_tree_walk_one_row_and_nan_match_per_row_reference(self):
        rng = make_rng(33)
        rows = rng.normal(size=(200, 5))
        targets = rows[:, 1] + rng.normal(size=200)
        trees = [fit_regression_tree(rows, targets, depth, make_rng(depth)) for depth in (1, 3, 8)]
        probe = rng.normal(size=(40, 5))
        probe[::3, 1] = np.nan  # NaN <= threshold is False: the row goes right
        probe[5] = np.nan
        for tree in trees:
            for row in (probe[1:2], probe[3:4], probe[5:6]):  # none, one, all NaN
                assert np.array_equal(tree.predict(row), _ref_tree_predict(tree, row))
            assert np.array_equal(tree.predict(probe), _ref_tree_predict(tree, probe))
        # the walk's arrays are derived from the fields, and state() saves only those
        forest = RandomForestForecaster(n_trees=3, max_depth=4, lag_window=5, seed=1)
        forest.trees = trees
        assert [list(t) for t in forest.state()["trees"]] == [
            ["feature", "threshold", "left", "right", "value"]] * 3

    def test_single_leaf_tree(self):
        leaf = TreeNodes(*(np.array([v]) for v in (-1, 0.0, 0, 0, 2.5)))
        assert np.array_equal(leaf.predict(np.zeros((3, 2))), [2.5, 2.5, 2.5])

    @pytest.mark.parametrize("feature,children", [
        ([0], [0]),  # the root is its own child
        ([0, 0, 0, -1], [1, 2, 3, 0]),  # each node's two children are one node
    ])
    def test_nodes_that_do_not_form_a_tree_are_rejected(self, feature, children):
        # as a corrupted model file would hold them; the walk needs a depth
        with pytest.raises(ContractError, match="do not form a tree"):
            TreeNodes(np.array(feature), np.zeros(len(feature)), np.array(children),
                      np.array(children), np.zeros(len(feature)))

    @pytest.mark.parametrize("seed", range(4))
    def test_split_search_matches_per_feature_reference(self, seed):
        rng = make_rng(50 + seed)
        cases = [
            (np.arange(4.0), np.array([1.0, 0.0, 0.0, 1.0])),  # tied scores at 0.5 and 2.5
            (rng.integers(0, 3, size=30).astype(float), rng.integers(0, 2, size=30).astype(float)),
            (rng.normal(size=25), rng.normal(size=25)),
            (np.full(6, 2.0), rng.normal(size=6)),
        ]
        for values, targets in cases:
            thresholds, scores = _best_splits(values[:, None], targets)
            got = None if scores[0] == -np.inf else (float(thresholds[0]), float(scores[0]))
            assert got == _ref_best_split_for_feature(values, targets)

    @pytest.mark.parametrize("seed", range(6))
    def test_block_split_search_grows_the_per_feature_tree(self, seed):
        """Ties, constant columns and tied scores across columns: every node
        must pick the column and threshold of the per-column loop."""
        rng = make_rng(40 + seed)
        rows = rng.integers(0, 4, size=(120, 9)).astype(float)
        rows[:, 2] = 1.5  # constant column
        rows[:, 5] = rows[:, 1]  # equal scores, second candidate must lose
        rows[:, 7] = -rows[:, 4]
        targets = np.round(rows[:, 1] + rng.normal(size=120), 1)
        got = fit_regression_tree(rows, targets, max_depth=6, rng=make_rng(seed))
        nodes = {"feature": [], "threshold": [], "left": [], "right": [], "value": []}
        _ref_grow(rows, targets, 0, 6, make_rng(seed), nodes)
        for key, ref in nodes.items():
            assert np.array_equal(getattr(got, key), ref), key


# The hand-written hyperparameter table MODEL_DEFAULTS once was; the table
# derived from the constructors must not drift from it.
REFERENCE_MODEL_DEFAULTS = {
    "seasonal_naive": {"m": 1},
    "ar": {"p": 10, "fit_intercept": True},
    "arima": {"p": 10, "d": 1, "q": 0, "fit_intercept": True},
    "random_forest": {"n_trees": 500, "max_depth": 10, "lag_window": 10},
    "mlp": {
        "hidden_layers": 3,
        "neurons": 50,
        "learning_rate": 0.01,
        "batch_size": 10,
        "epochs": 5,
        "lag_window": 10,
    },
    "rnn": {
        "hidden_layers": 2,
        "neurons": 100,
        "learning_rate": 0.01,
        "batch_size": 10,
        "epochs": 5,
        "lag_window": 10,
    },
    "lstm": {
        "blocks": 4,
        "neurons": 100,
        "dense_units": 10,
        "learning_rate": 0.005,
        "batch_size": 10,
        "epochs": 5,
        "lag_window": 10,
    },
    "autoencoder": {
        "window": 64,
        "filters": 32,
        "kernel": 7,
        "n_layers": 3,
        "dropout": 0.2,
        "learning_rate": 0.01,
        "batch_size": 10,
        "epochs": 5,
    },
    "gaussian_rnn": {
        "hidden_layers": 3,
        "cells": 30,
        "learning_rate": 0.005,
        "batch_size": 10,
        "epochs": 5,
        "lag_window": 10,
    },
}


class TestFamilyRegistry:
    def test_derived_defaults_match_reference(self):
        assert MODEL_DEFAULTS == REFERENCE_MODEL_DEFAULTS
        for kind, defaults in REFERENCE_MODEL_DEFAULTS.items():
            for key, value in defaults.items():
                assert type(MODEL_DEFAULTS[kind][key]) is type(value), (kind, key)

    def test_one_set_of_family_names(self):
        assert set(FAMILIES) == set(DEFAULT_VARIANTS) == set(MODEL_DEFAULTS)

    @pytest.mark.parametrize("kind", sorted(DEFAULT_VARIANTS))
    def test_every_default_variant_constructs(self, kind):
        configs = default_variants(kind, 5)
        assert len(configs) == len(DEFAULT_VARIANTS[kind])
        for config in configs:
            assert FAMILIES[kind](**config.resolved()).min_context >= 1
