import json
from dataclasses import replace

import numpy as np
import pytest

from vibrosense import modelio

from vibrosense.classify import (
    DEFAULT_HIDDEN,
    FINE_TUNE_LR_SCALE,
    TrainConfig,
    TransferBundle,
    binary_relax,
    cross_rpm_matrix,
    evaluate,
    load_classifier,
    make_bundle,
    predict_labels,
    predict_proba,
    save_classifier,
    train_classifier,
    train_transfer,
    tuning_sweep,
)
from vibrosense.core import ContractError, make_rng, split_arrays
from vibrosense.features import fit_encoder
from vibrosense.nn import Mlp, gradient_check, softmax


def blobs(n_per_class=60, spread=0.1, seed=0):
    """Linearly separable 2-feature 3-class blobs."""
    rng = make_rng(seed)
    centers = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
    feats = np.concatenate([c + spread * rng.normal(size=(n_per_class, 2)) for c in centers])
    labels = np.repeat(np.arange(3), n_per_class)
    return feats, labels


class TestSoftmaxHead:
    def test_uniform_on_zero_logits(self):
        assert np.allclose(softmax(np.zeros(3)), 1 / 3)

    def test_probabilities_sum_to_one(self):
        rng = make_rng(1)
        p = softmax(rng.normal(size=(10, 3)))
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)

    def test_dominant_logit(self):
        p = softmax(np.array([5.0, 0.0, 0.0]))
        assert np.argmax(p) == 0 and p[0] > 0.98

    def test_shift_invariance(self):
        logits = np.array([[1.0, 2.0, 0.5]])
        assert np.argmax(softmax(logits)) == np.argmax(softmax(logits + 100.0))

    def test_gradient_check_2_2_3(self):
        rng = make_rng(2)
        net = Mlp([2, 2, 3], loss="ce", rng=rng)
        x = rng.normal(size=(4, 2))
        y = np.array([0, 1, 2, 1])
        assert gradient_check(net, x, y) < 1e-4


class TestTraining:
    def test_separable_blobs(self):
        feats, labels = blobs()
        model = train_classifier(feats, labels, cfg=TrainConfig(epochs=50, seed=0))
        acc, cm = evaluate(model, feats, labels)
        assert acc >= 0.99
        assert cm.counts.sum() == labels.size

    def test_deterministic(self):
        feats, labels = blobs(seed=3)
        cfg = TrainConfig(epochs=5, seed=7)
        a = train_classifier(feats, labels, cfg=cfg)
        b = train_classifier(feats, labels, cfg=cfg)
        assert np.array_equal(predict_proba(a, feats), predict_proba(b, feats))

    def test_loss_curve_length(self):
        feats, labels = blobs()
        model = train_classifier(feats, labels, cfg=TrainConfig(epochs=8))
        assert len(model.training_loss) == 8

    def test_label_range_guard(self):
        with pytest.raises(ContractError):
            train_classifier(np.zeros((4, 2)), [0, 1, 5, 0], class_names=("a", "b"))

    def test_zero_rows_is_contract_error(self):
        with pytest.raises(ContractError, match="zero rows"):
            train_classifier(np.zeros((0, 4)), np.zeros(0, dtype=np.int64))

    @pytest.mark.parametrize("field,value,message", [
        ("learning_rate", float("nan"), "learning_rate must be positive and finite, got nan"),
        ("learning_rate", float("inf"), "learning_rate must be positive and finite, got inf"),
        ("learning_rate", -0.1, "learning_rate must be positive and finite, got -0.1"),
        ("learning_rate", 0.0, "learning_rate must be positive and finite, got 0.0"),
        ("epochs", -1, "epochs must be >= 0, got -1"),
        ("batch_size", 0, "batch_size must be >= 1, got 0"),
    ])
    def test_train_config_error_names_the_field_and_value(self, field, value, message):
        with pytest.raises(ContractError) as exc:
            TrainConfig(**{field: value})
        assert str(exc.value) == f"train config {message}"

    def test_width_guard_at_predict(self):
        feats, labels = blobs()
        model = train_classifier(feats, labels, cfg=TrainConfig(epochs=1))
        with pytest.raises(ContractError):
            predict_proba(model, np.zeros((2, 5)))


class TestBinaryRelax:
    def test_mapping(self):
        assert np.array_equal(binary_relax([0, 1, 2, 0]), [0, 1, 1, 0])


class TestTransfer:
    def setup_bundle(self, seed=0):
        feats, labels = blobs(seed=seed)
        enc = fit_encoder(feats, ("x", "z"))
        model = train_classifier(enc.transform(feats), labels,
                                 cfg=TrainConfig(epochs=20, seed=seed))
        return make_bundle(model, enc), feats, labels

    def test_zero_epochs_identity(self):
        bundle, feats, labels = self.setup_bundle()
        tuned = train_transfer(bundle, feats, labels, cfg=TrainConfig(epochs=0))
        src = predict_proba(bundle.model, bundle.encoder.transform(feats))
        assert np.array_equal(predict_proba(tuned, bundle.encoder.transform(feats)), src)

    def test_fine_tune_changes_weights(self):
        bundle, feats, labels = self.setup_bundle()
        tuned = train_transfer(bundle, feats, labels, cfg=TrainConfig(epochs=3))
        assert not np.array_equal(tuned.net.weights[0], bundle.model.net.weights[0])
        # source untouched
        assert tuned.net is not bundle.model.net

    def test_freeze_hidden(self):
        bundle, feats, labels = self.setup_bundle()
        tuned = train_transfer(bundle, feats, labels, cfg=TrainConfig(epochs=3),
                               freeze_hidden=True)
        assert np.array_equal(tuned.net.weights[0], bundle.model.net.weights[0])
        assert not np.array_equal(tuned.net.weights[-1], bundle.model.net.weights[-1])

    def test_fine_tune_runs_at_the_lr_scale(self):
        bundle, feats, labels = self.setup_bundle()
        cfg = TrainConfig(epochs=3, learning_rate=0.05, seed=4)
        tuned = train_transfer(bundle, feats, labels, cfg=cfg)
        ref = train_classifier(bundle.encoder.transform(feats), labels,
                               cfg=replace(cfg, learning_rate=0.05 * FINE_TUNE_LR_SCALE),
                               class_names=bundle.model.class_names, init_net=bundle.model.net)
        for got, want in zip(tuned.net.parameters(), ref.net.parameters()):
            assert got.tobytes() == want.tobytes()
        assert FINE_TUNE_LR_SCALE == 0.1
        assert tuned.provenance == {}

    @pytest.mark.parametrize("width", [1, 3])
    def test_width_mismatch_guard(self, width):
        bundle, _, _ = self.setup_bundle()
        names = tuple(f"f{i}" for i in range(width))
        enc_bad = fit_encoder(np.random.default_rng(0).normal(size=(4, width)), names)
        with pytest.raises(ContractError, match=f"encoder emits {width} features but the model expects 2"):
            TransferBundle(bundle.model, enc_bad)


class TestCrossRpm:
    def per_rpm(self, rpms, seed=0, shifted=False):
        out = {}
        for i, rpm in enumerate(rpms):
            feats, labels = blobs(n_per_class=40, seed=seed + i)
            if shifted and i > 0:
                # same clusters, rotated class identities: cross-speed
                # evaluation must fail while same-speed stays easy
                labels = (labels + 1) % 3
            out[rpm] = (feats, labels)
        return out

    def test_grid_shape(self):
        result = cross_rpm_matrix(self.per_rpm([200, 300]), cfg=TrainConfig(epochs=10))
        grid = result["grid"]
        assert set(grid) == {"200", "300", "augmented"}
        for row in grid.values():
            assert set(row) == {"200", "300", "average"}
            assert 0.0 <= row["average"] <= 1.0

    def test_deterministic(self):
        a = cross_rpm_matrix(self.per_rpm([200, 300]), cfg=TrainConfig(epochs=5))
        b = cross_rpm_matrix(self.per_rpm([200, 300]), cfg=TrainConfig(epochs=5))
        assert a == b

    def test_diagonal_strength_on_shifted_data(self):
        result = cross_rpm_matrix(self.per_rpm([200, 300], shifted=True),
                                  cfg=TrainConfig(epochs=30))
        grid = result["grid"]
        for rpm in ("200", "300"):
            off = [grid[rpm][o] for o in ("200", "300") if o != rpm]
            assert grid[rpm][rpm] >= np.mean(off)

    def test_needs_two_rpms(self):
        with pytest.raises(ContractError):
            cross_rpm_matrix(self.per_rpm([200]))


class TestTuningSweep:
    def test_entry_counts(self):
        feats, labels = blobs(n_per_class=40)
        steps = [("normalize", {"normalize": True}), ("more_epochs", {"epochs": 20})]
        results = tuning_sweep(feats, labels, steps, base_cfg=TrainConfig(epochs=5))
        assert [r["step"] for r in results] == ["baseline", "normalize", "more_epochs"]

    def test_empty_ledger(self):
        feats, labels = blobs(n_per_class=30)
        results = tuning_sweep(feats, labels, [], base_cfg=TrainConfig(epochs=3))
        assert len(results) == 1 and results[0]["step"] == "baseline"

    def test_bad_mode(self):
        feats, labels = blobs(n_per_class=30)
        with pytest.raises(ContractError):
            tuning_sweep(feats, labels, [], mode="sideways")

    @pytest.mark.parametrize("mode", ["cumulative", "independent"])
    def test_unknown_override_key_is_named(self, mode):
        feats, labels = blobs(n_per_class=30)
        steps = [("norm", {"normalize": True}), ("rate", {"epochs": 2, "learning_rate": 0.1})]
        with pytest.raises(ContractError, match="tuning step 'rate' overrides unknown setting "
                                                "'learning_rate'"):
            tuning_sweep(feats, labels, steps, base_cfg=TrainConfig(epochs=1), mode=mode)

    def test_baseline_is_default_hidden_on_a_stratified_split(self):
        feats, labels = blobs(n_per_class=30, spread=1.0)
        cfg = TrainConfig(epochs=3, seed=6)
        results = tuning_sweep(feats, labels, [], base_cfg=cfg)
        (ftr, ltr), (fte, lte) = split_arrays(feats, labels, 6)
        model = train_classifier(ftr, ltr, DEFAULT_HIDDEN, cfg)
        assert results[0]["accuracy"] == evaluate(model, fte, lte)[0]

    def test_independent_steps_start_from_the_baseline(self):
        # an untrained net scores near chance, so the "norm" step's accuracy
        # tells whether the "untrained" step before it carried over
        feats, labels = blobs(n_per_class=30, spread=0.3)
        untrained, norm = ("untrained", {"epochs": 0}), ("norm", {"normalize": True})
        cfg = TrainConfig(epochs=20, seed=7)
        independent = tuning_sweep(feats, labels, [untrained, norm], base_cfg=cfg,
                                   mode="independent")
        assert independent[2] == tuning_sweep(feats, labels, [norm], base_cfg=cfg)[1]
        cumulative = tuning_sweep(feats, labels, [untrained, norm], base_cfg=cfg)
        both = ("norm", {"normalize": True, "epochs": 0})
        assert cumulative[2] == tuning_sweep(feats, labels, [both], base_cfg=cfg)[1]
        assert independent[2]["accuracy"] != cumulative[2]["accuracy"]

    def test_normalization_not_harmful_median_over_seeds(self):
        deltas = []
        for seed in range(5):
            feats, labels = blobs(n_per_class=40, spread=0.5, seed=seed)
            feats = feats * np.array([1.0, 50.0])  # skewed scales
            results = tuning_sweep(
                feats, labels, [("normalize", {"normalize": True})],
                base_cfg=TrainConfig(epochs=15, seed=seed),
            )
            deltas.append(results[1]["accuracy"] - results[0]["accuracy"])
        assert float(np.median(deltas)) >= -0.02


class TestPersistence:
    def test_round_trip(self, tmp_path):
        feats, labels = blobs(n_per_class=30)
        model = train_classifier(feats, labels, cfg=TrainConfig(epochs=5))
        path = tmp_path / "clf.json"
        save_classifier(model, path)
        loaded = load_classifier(path)
        assert loaded.class_names == model.class_names
        assert np.array_equal(predict_labels(loaded, feats), predict_labels(model, feats))
        assert np.array_equal(predict_proba(loaded, feats), predict_proba(model, feats))

    def test_missing_field_is_contract_error(self, tmp_path):
        path = tmp_path / "clf.json"
        modelio.save_model("classifier", {"weights": []}, path)
        with pytest.raises(ContractError, match=r"clf\.json missing field 'layer_sizes'"):
            load_classifier(path)

    def test_shapes_must_match_layer_sizes(self, tmp_path):
        feats, labels = blobs(n_per_class=10)
        model = train_classifier(feats, labels, hidden_sizes=(4,), cfg=TrainConfig(epochs=1))
        path = tmp_path / "clf.json"
        save_classifier(model, path)
        doc = json.loads(path.read_text())
        doc["payload"]["layer_sizes"] = [2, 100000, 3]
        path.write_text(json.dumps(doc))
        with pytest.raises(ContractError, match="malformed classifier file .*layer_sizes"):
            load_classifier(path)
