"""Defect classification: dense softmax networks, source-to-target transfer,
cross-speed evaluation grids, binary relaxation, and the tuning sweep."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import augment, modelio, report
from .core import (
    ConfusionMatrix,
    ContractError,
    TRAIN_FRACTION,
    _spread,
    confusion_matrix,
    make_rng,
    split_arrays,
)
from .features import FeatureEncoder, fit_encoder
from .nn import Mlp, Model, sgd_epochs
from .nn.base import cross_entropy_and_delta
from .nn.dense import dense_backward, dense_forward

DEFAULT_HIDDEN = (50, 50)
DEFAULT_CLASS_NAMES = ("normal", "near_failure", "failure")
#: Fine-tuning runs at this fraction of the configured learning rate.
FINE_TUNE_LR_SCALE = 0.1


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 50
    learning_rate: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ContractError(f"train config epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ContractError(f"train config batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ContractError(
                f"train config learning_rate must be positive and finite, got {self.learning_rate}")


@dataclass
class ClassifierModel:
    net: Mlp
    class_names: tuple
    training_loss: List[float]
    provenance: dict = field(default_factory=dict)

    @property
    def input_width(self) -> int:
        return self.net.layer_sizes[0]


def train_classifier(
    features,
    labels,
    hidden_sizes: Sequence[int] = DEFAULT_HIDDEN,
    cfg: TrainConfig = TrainConfig(),
    class_names: Optional[Sequence[str]] = None,
    init_net: Optional[Mlp] = None,
    freeze_hidden: bool = False,
) -> ClassifierModel:
    """Mini-batch SGD on softmax cross-entropy; deterministic given the seed.
    `init_net` warm-starts from existing weights (the transfer path)."""
    features, labels, class_names = _training_data(features, labels, class_names)
    rng = make_rng(cfg.seed)
    if init_net is None:
        net = Mlp([features.shape[1], *hidden_sizes, len(class_names)], loss="ce", rng=rng)
    else:
        net = init_net.clone()
        if net.layer_sizes[0] != features.shape[1]:
            raise ContractError(
                f"warm-start width {net.layer_sizes[0]} does not match features {features.shape[1]}"
            )
    losses: List[float] = []
    if cfg.epochs > 0:
        if freeze_hidden:
            losses = _train_frozen(net, features, labels, cfg, rng)
        else:
            losses = sgd_epochs(net, features, labels, cfg.epochs, cfg.batch_size,
                                cfg.learning_rate, rng)
    return ClassifierModel(net=net, class_names=class_names, training_loss=losses)


def _training_data(features, labels, class_names):
    """train_classifier's input checks: float features, row-parallel int
    labels in range, and the class names (the defaults for the label count
    when None), as a tuple."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if features.ndim != 2 or features.shape[0] != labels.size:
        raise ContractError("features must be 2-d and row-parallel with labels")
    if labels.size == 0:
        raise ContractError("cannot train a classifier on zero rows")
    n_classes = int(labels.max()) + 1 if class_names is None else len(class_names)
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ContractError("labels out of range for the class count")
    if class_names is None:
        class_names = DEFAULT_CLASS_NAMES[:n_classes] if n_classes <= 3 else tuple(
            f"class_{i}" for i in range(n_classes)
        )
    return features, labels, tuple(class_names)


def _train_each(trains, cfg: TrainConfig) -> List[ClassifierModel]:
    """One fresh classifier per (features, labels) in trains, the i-th trained
    as train_classifier trains it by default with seed cfg.seed + i, all in one
    sgd_epochs call (which stacks those of one training shape and class
    count); each ends bit for bit where it would alone. The first failure in
    trains' order raises the error that training them one at a time raises,
    so the classifiers after a bad training set are not trained."""
    data, failure = [], None
    for features, labels in trains:
        try:
            data.append(_training_data(features, labels, None))
        except ContractError as exc:
            failure = exc
            break
    rngs = [make_rng(cfg.seed + i) for i in range(len(data))]
    nets = [Mlp([x.shape[1], *DEFAULT_HIDDEN, len(names)], loss="ce", rng=rng)
            for (x, _, names), rng in zip(data, rngs)]
    curves = [[] for _ in nets]
    if cfg.epochs > 0:
        curves = sgd_epochs(nets, [x for x, _, _ in data], [y for _, y, _ in data], cfg.epochs,
                            cfg.batch_size, cfg.learning_rate, rngs)
    for error in [*curves, failure]:
        if isinstance(error, ContractError):
            raise error
    return [ClassifierModel(net, names, curve)
            for net, (_, _, names), curve in zip(nets, data, curves)]


class _OutputLayer(Model):
    """A classifier with frozen hidden layers, as a model of its output layer
    alone: the whole net's loss, and gradients only where SGD applies them
    (the backward pass stops after the output layer)."""

    def __init__(self, net: Mlp):
        self.net = net

    def parameters(self) -> List[np.ndarray]:
        return self.net.parameters()[-2:]

    def loss_and_grad(self, x, y):
        acts = dense_forward(self.net.weights, self.net.biases, x)
        loss, delta = cross_entropy_and_delta(acts[-1], y)
        grads, _ = dense_backward(self.net.weights[-1:], acts[-2:], delta)
        return loss, grads


# A function of its own, not inlined: perfbench's tracer looks it up by name
# and times it as one of the SGD loops.
def _train_frozen(net: Mlp, x, y, cfg: TrainConfig, rng) -> List[float]:
    """SGD updating only the output layer (frozen feature extractor)."""
    return sgd_epochs(_OutputLayer(net), x, y, cfg.epochs, cfg.batch_size, cfg.learning_rate,
                      rng)


def predict_proba(model: ClassifierModel, features) -> np.ndarray:
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if features.shape[1] != model.input_width:
        raise ContractError(
            f"expected feature width {model.input_width}, got {features.shape[1]}"
        )
    # a net whose training stayed finite can still overflow on these features,
    # and a ReLU that zeroes an overflowed unit leaves the output finite
    try:
        with np.errstate(over="raise", invalid="raise"):
            probs = model.net.predict(features)
    except FloatingPointError:
        probs = None
    if probs is None or not np.all(np.isfinite(probs)):
        raise ContractError("the classifier's output overflowed on these features")
    return probs


def predict_labels(model: ClassifierModel, features) -> np.ndarray:
    # np.argmax breaks ties at the lowest class index
    return np.argmax(predict_proba(model, features), axis=1)


def evaluate(model: ClassifierModel, features, labels) -> Tuple[float, ConfusionMatrix]:
    labels = np.asarray(labels, dtype=np.int64).ravel()
    preds = predict_labels(model, features)
    cm = confusion_matrix(labels, preds, model.class_names)
    return cm.accuracy(), cm


@dataclass
class TransferBundle:
    """Everything that crosses the transfer boundary: source network weights,
    the fitted feature encoder, and provenance."""

    model: ClassifierModel
    encoder: FeatureEncoder
    source_id: str
    config_fingerprint: str

    def __post_init__(self):
        if len(self.encoder.feature_names) != self.model.input_width:
            raise ContractError(
                f"encoder emits {len(self.encoder.feature_names)} features but the model "
                f"expects {self.model.input_width}"
            )


def make_bundle(model: ClassifierModel, encoder: FeatureEncoder, source_id: str,
                cfg: TrainConfig) -> TransferBundle:
    fingerprint = report.config_fingerprint(
        {"epochs": cfg.epochs, "batch_size": cfg.batch_size,
         "learning_rate": cfg.learning_rate, "seed": cfg.seed, "source": source_id}
    )
    return TransferBundle(model, encoder, source_id, fingerprint)


def train_transfer(
    bundle: TransferBundle,
    target_features_raw,
    target_labels,
    cfg: TrainConfig,
    freeze_hidden: bool = False,
) -> ClassifierModel:
    """Fine-tune the source network on encoder-transformed target data.

    All layers stay trainable at FINE_TUNE_LR_SCALE times the configured rate
    unless freeze_hidden keeps everything but the output layer fixed. Zero
    epochs returns the source weights untouched.
    """
    transformed = bundle.encoder.transform(target_features_raw)
    tuned_cfg = replace(cfg, learning_rate=cfg.learning_rate * FINE_TUNE_LR_SCALE) \
        if cfg.epochs > 0 else cfg
    model = train_classifier(
        transformed,
        target_labels,
        cfg=tuned_cfg,
        class_names=bundle.model.class_names,
        init_net=bundle.model.net,
        freeze_hidden=freeze_hidden,
    )
    model.provenance = {
        "source": bundle.source_id,
        "source_config_fingerprint": bundle.config_fingerprint,
        "fine_tune_lr_scale": FINE_TUNE_LR_SCALE,
        "freeze_hidden": freeze_hidden,
    }
    return model


def binary_relax(labels) -> np.ndarray:
    """Normal stays 0; near-failure and failure collapse to 1 (not-normal)."""
    labels = np.asarray(labels, dtype=np.int64)
    return (labels != 0).astype(np.int64)


def cross_rpm_matrix(
    per_rpm: Dict[int, Tuple[np.ndarray, np.ndarray]],
    cfg: TrainConfig = TrainConfig(),
    augment_n_per_rpm: int = 0,
) -> dict:
    """Train one model per speed (DEFAULT_HIDDEN layers, class names for the
    label count) and test on every speed, plus an augmented-data row trained
    on all speeds' training splits (and optional interpolants). Cells are
    accuracies; rows carry their averages."""
    rpms = sorted(per_rpm)
    if len(rpms) < 2:
        raise ContractError("cross-rpm grid needs >= 2 rpm datasets")
    if augment_n_per_rpm < 0:
        raise ContractError(f"augment_n_per_rpm must be >= 0, got {augment_n_per_rpm}")
    splits = {rpm: split_arrays(*per_rpm[rpm], cfg.seed) for rpm in rpms}

    def train(unit):
        if unit == 0:
            return _train_each([splits[rpm][0] for rpm in rpms], cfg)
        # augmented row: the same per-rpm training splits pooled, plus
        # interpolants, so the single-rpm test splits stay untouched
        combined = augment.augmented_training_set({rpm: splits[rpm][0] for rpm in rpms},
                                                  augment_n_per_rpm, seed=cfg.seed)
        return _train_each([(combined.features, combined.labels)],
                           replace(cfg, seed=cfg.seed + len(rpms)))

    # the two trainings are independent: side by side on the cores BLAS
    # leaves free, and a single-speed error outranks the augmented one's
    single, augmented = _spread(train, 2, lambda unit: ("the single-speed classifiers",
                                                        "the augmented classifier")[unit])
    grid: Dict[str, dict] = {}
    for train_rpm, model in zip(list(map(str, rpms)) + ["augmented"], single + augmented):
        row = {str(test_rpm): evaluate(model, *splits[test_rpm][1])[0] for test_rpm in rpms}
        row["average"] = float(np.mean([row[str(r)] for r in rpms]))
        grid[train_rpm] = row
    return {"rpms": rpms, "grid": grid, "train_fraction": TRAIN_FRACTION,
            "augment_n_per_rpm": augment_n_per_rpm, "seed": cfg.seed}


@dataclass(frozen=True)
class TuningStep:
    """One cumulative tuning-ledger entry; unset fields inherit the current state."""

    name: str
    normalize: Optional[bool] = None
    hidden_sizes: Optional[tuple] = None
    epochs: Optional[int] = None
    batch_size: Optional[int] = None


def tuning_sweep(
    features,
    labels,
    steps: Sequence[TuningStep],
    base_cfg: TrainConfig = TrainConfig(),
    mode: str = "cumulative",
) -> List[dict]:
    """Accuracy after the baseline (DEFAULT_HIDDEN layers) and after each
    tuning step, on a stratified split seeded by base_cfg.seed.

    Cumulative mode applies steps in ledger order; independent mode applies
    each step alone against the baseline.
    """
    if mode not in ("cumulative", "independent"):
        raise ContractError("mode must be 'cumulative' or 'independent'")
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    (ftr, ltr), (fte, lte) = split_arrays(features, labels, base_cfg.seed)

    def run(state: dict) -> float:
        x_train, x_test = ftr, fte
        if state["normalize"]:
            names = tuple(f"f{i}" for i in range(x_train.shape[1]))
            enc = fit_encoder(x_train, names)
            x_train, x_test = enc.transform(x_train), enc.transform(x_test)
        cfg = replace(base_cfg, epochs=state["epochs"], batch_size=state["batch_size"])
        model = train_classifier(x_train, ltr, state["hidden_sizes"], cfg)
        acc, _ = evaluate(model, x_test, lte)
        return acc

    baseline = {
        "normalize": False,
        "hidden_sizes": DEFAULT_HIDDEN,
        "epochs": base_cfg.epochs,
        "batch_size": base_cfg.batch_size,
    }
    results = [{"step": "baseline", "accuracy": run(baseline)}]
    state = dict(baseline)
    for step in steps:
        target = state if mode == "cumulative" else dict(baseline)
        for key in ("normalize", "hidden_sizes", "epochs", "batch_size"):
            value = getattr(step, key)
            if value is not None:
                target[key] = value
        results.append({"step": step.name, "accuracy": run(target)})
        if mode == "cumulative":
            state = target
    return results


def save_classifier(model: ClassifierModel, path) -> None:
    payload = {
        "layer_sizes": list(model.net.layer_sizes),
        "weights": [w.copy() for w in model.net.weights],
        "biases": [b.copy() for b in model.net.biases],
        "class_names": list(model.class_names),
        "training_loss": list(model.training_loss),
        "provenance": model.provenance,
    }
    modelio.save_model("classifier", payload, path)


def load_classifier(path) -> ClassifierModel:
    _, payload = modelio.load_model(path, expected_kind="classifier")
    for name in ("layer_sizes", "weights", "biases", "class_names", "training_loss"):
        if name not in payload:
            raise ContractError(f"classifier file {path} missing field '{name}'")
    try:
        sizes = [int(s) for s in payload["layer_sizes"]]
        weights = [np.asarray(w, dtype=np.float64) for w in payload["weights"]]
        biases = [np.asarray(b, dtype=np.float64) for b in payload["biases"]]
        # checked before Mlp allocates: layer_sizes alone could ask for any size
        if [w.shape for w in weights] != list(zip(sizes[:-1], sizes[1:])) or \
                [b.shape for b in biases] != [(s,) for s in sizes[1:]]:
            raise ContractError("weight and bias shapes do not match layer_sizes")
        net = Mlp(sizes, loss="ce", rng=make_rng(0))
        net.weights, net.biases = weights, biases
        class_names = tuple(payload["class_names"])
        if len(class_names) != net.layer_sizes[-1]:
            raise ContractError(f"{len(class_names)} class names for {net.layer_sizes[-1]} outputs")
        return ClassifierModel(
            net=net,
            class_names=class_names,
            training_loss=list(payload["training_loss"]),
            provenance=payload.get("provenance", {}),
        )
    except (ValueError, TypeError) as exc:  # ContractError included
        raise ContractError(f"malformed classifier file {path}: {exc}") from exc
