"""Domain types, metrics, splitting, and RNG helpers shared by every module."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Optional, Sequence

import numpy as np


class ContractError(ValueError):
    """Raised when an operation's preconditions are violated."""


class DefectLabel(IntEnum):
    NORMAL = 0
    NEAR_FAILURE = 1
    FAILURE = 2


class MachineState(IntEnum):
    OFF = 0
    ON = 1
    ABNORMAL = 2


#: Rotational speeds of the motor testbed, revolutions per minute.
TESTBED_RPMS = (100, 200, 300, 320, 340, 360, 380, 400, 500, 600)


@dataclass(frozen=True)
class OperatingPoint:
    rpm: int

    def __post_init__(self):
        if self.rpm <= 0:
            raise ContractError(f"rpm must be positive, got {self.rpm}")

    @property
    def rotation_hz(self) -> float:
        return self.rpm / 60.0


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled univariate sequence."""

    start_s: float
    interval_s: float
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if self.interval_s <= 0:
            raise ContractError("interval_s must be positive")
        if values.ndim != 1 or values.size == 0:
            raise ContractError("values must be a nonempty 1-d array")
        if not np.all(np.isfinite(values)):
            raise ContractError("values must all be finite")

    def __len__(self) -> int:
        return int(self.values.size)

    def timestamps(self) -> np.ndarray:
        return self.start_s + self.interval_s * np.arange(len(self))


@dataclass(frozen=True)
class VibrationRecord:
    """One tri-axial vibration burst."""

    start_s: float
    sample_rate_hz: float
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    operating_point: OperatingPoint
    label: Optional[DefectLabel] = None

    def __post_init__(self):
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if self.sample_rate_hz <= 0:
            raise ContractError("sample_rate_hz must be positive")
        n = self.x.size
        if n < 1 or self.y.size != n or self.z.size != n:
            raise ContractError("x, y, z must be equal-length and nonempty")

    def __len__(self) -> int:
        return int(self.x.size)


class SplitMode(IntEnum):
    CHRONOLOGICAL = 0
    STRATIFIED_SHUFFLE = 1


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float
    mode: SplitMode = SplitMode.CHRONOLOGICAL
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ContractError("train_fraction must lie in (0, 1)")


@dataclass
class ConfusionMatrix:
    counts: np.ndarray
    class_names: Sequence[str]

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        k = len(self.class_names)
        if self.counts.shape != (k, k):
            raise ContractError("counts must be KxK with K = len(class_names)")
        if np.any(self.counts < 0):
            raise ContractError("counts must be nonnegative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def accuracy(self) -> float:
        return float(np.trace(self.counts)) / self.total

    def row_normalized(self) -> np.ndarray:
        rows = self.counts.astype(np.float64)
        sums = rows.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(sums > 0, rows / sums, 0.0)
        return out


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic generator; extra ints derive independent per-task streams."""
    if seed < 0:
        raise ContractError(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(stream)))


def rmse(predicted, actual) -> float:
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if predicted.size == 0 or predicted.shape != actual.shape:
        raise ContractError(
            f"rmse needs equal nonempty shapes, got {predicted.shape} vs {actual.shape}"
        )
    return rms(predicted - actual)


def rms(values) -> float:
    """Root mean square of the values."""
    values = np.asarray(values, dtype=np.float64)
    return float(np.sqrt(np.mean(values * values)))


@dataclass(frozen=True)
class DetectionScore:
    precision: float
    recall: float
    f1: float
    degenerate: bool = False


def precision_recall_f1(flags_pred, flags_true) -> DetectionScore:
    """Precision/recall/F1 over boolean flags; zero denominators score 0 and
    set the degenerate marker instead of producing NaN."""
    pred = np.asarray(flags_pred, dtype=bool)
    true = np.asarray(flags_true, dtype=bool)
    if pred.size == 0 or pred.shape != true.shape:
        raise ContractError("precision_recall_f1 needs equal nonempty shapes")
    tp = int(np.sum(pred & true))
    fp = int(np.sum(pred & ~true))
    fn = int(np.sum(~pred & true))
    degenerate = False
    if tp + fp > 0:
        precision = tp / (tp + fp)
    else:
        precision, degenerate = 0.0, True
    if tp + fn > 0:
        recall = tp / (tp + fn)
    else:
        recall, degenerate = 0.0, True
    if precision + recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    else:
        f1, degenerate = 0.0, True
    return DetectionScore(precision, recall, f1, degenerate)


def split_series(series: TimeSeries, spec: SplitSpec):
    """Chronological train/test split of a time series. Shuffled splits are
    refused: they would leak future samples into training."""
    if spec.mode != SplitMode.CHRONOLOGICAL:
        raise ContractError("time series can only be split chronologically")
    n = len(series)
    n_train = int(np.floor(n * spec.train_fraction))
    if n_train < 1 or n - n_train < 1:
        raise ContractError(f"split needs >= 1 item per side, got {n} items at f={spec.train_fraction}")
    train = TimeSeries(series.start_s, series.interval_s, series.values[:n_train])
    test = TimeSeries(
        series.start_s + n_train * series.interval_s, series.interval_s, series.values[n_train:]
    )
    return train, test


def split_indices(n: int, spec: SplitSpec, labels=None):
    """Index partition (train_idx, test_idx) of range(n).

    Chronological mode takes the earliest floor(n*f) items. StratifiedShuffle
    preserves per-label proportions within one sample and is deterministic
    given the seed.
    """
    if n < 2:
        raise ContractError("split needs at least 2 items")
    n_train = int(np.floor(n * spec.train_fraction))
    if n_train < 1 or n - n_train < 1:
        raise ContractError(f"split needs >= 1 item per side, got {n} items at f={spec.train_fraction}")
    if spec.mode == SplitMode.CHRONOLOGICAL:
        idx = np.arange(n)
        return idx[:n_train], idx[n_train:]
    if labels is None:
        raise ContractError("StratifiedShuffle requires labels")
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ContractError("labels must have one entry per item")
    rng = make_rng(spec.seed)
    train_parts, test_parts = [], []
    for lab in np.unique(labels):
        members = np.flatnonzero(labels == lab)
        members = rng.permutation(members)
        k = int(round(len(members) * spec.train_fraction))
        k = min(max(k, 1), len(members) - 1) if len(members) >= 2 else k
        train_parts.append(members[:k])
        test_parts.append(members[k:])
    train_idx = np.sort(np.concatenate(train_parts))
    test_idx = np.sort(np.concatenate(test_parts))
    return train_idx, test_idx


def split_arrays(features, labels, spec: SplitSpec):
    """Split (features, labels) row-wise per the spec's index partition."""
    features = np.asarray(features)
    labels = np.asarray(labels)
    tr, te = split_indices(features.shape[0], spec, labels=labels)
    return (features[tr], labels[tr]), (features[te], labels[te])


def confusion_matrix(true_labels, pred_labels, class_names) -> ConfusionMatrix:
    k = len(class_names)
    counts = np.zeros((k, k), dtype=np.int64)
    for t, p in zip(np.asarray(true_labels, dtype=int), np.asarray(pred_labels, dtype=int)):
        counts[t, p] += 1
    return ConfusionMatrix(counts, class_names)
