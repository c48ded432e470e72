"""Time-domain features, persistable normalization encoders, axis selection."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Sequence

import numpy as np

from . import modelio
from .core import ContractError, VibrationRecord

TIME_DOMAIN_FEATURE_NAMES = ("mean", "std", "rms", "peak", "crest")


@dataclass(frozen=True)
class FeatureVector:
    values: np.ndarray
    names: tuple

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "names", tuple(self.names))
        if values.size != len(self.names):
            raise ContractError("values and names must be parallel")
        if not np.all(np.isfinite(values)):
            raise ContractError("feature values must be finite")


def extract_time_domain(window, prefix: str = "") -> FeatureVector:
    """Mean, population std, RMS, peak (max |v|), and crest factor (peak/RMS,
    0 for an all-zero window) of one signal window."""
    v = np.asarray(window, dtype=np.float64)
    if v.size < 2:
        raise ContractError(f"window must have >= 2 samples, got {v.size}")
    mean = float(np.mean(v))
    std = float(np.std(v))  # population
    rms = float(np.sqrt(np.mean(v * v)))
    peak = float(np.max(np.abs(v)))
    crest = peak / rms if rms > 0 else 0.0
    names = tuple(prefix + n for n in TIME_DOMAIN_FEATURE_NAMES)
    return FeatureVector(np.array([mean, std, rms, peak, crest]), names)


def extract_triaxial_features(record: VibrationRecord) -> FeatureVector:
    """15 features: the 5 time-domain statistics per axis."""
    parts = [extract_time_domain(getattr(record, ax), prefix=ax + "_") for ax in ("x", "y", "z")]
    values = np.concatenate([p.values for p in parts])
    names = tuple(n for p in parts for n in p.names)
    return FeatureVector(values, names)


class AxisMode(Enum):
    ALL_AXES = "all"
    XZ_ONLY = "xz"


def select_axes(record: VibrationRecord, mode: AxisMode) -> np.ndarray:
    """Per-sample raw-value rows: (n, 3) for AllAxes, (n, 2) for XZOnly."""
    if mode == AxisMode.XZ_ONLY:
        return np.column_stack([record.x, record.z])
    return np.column_stack([record.x, record.y, record.z])


def axis_feature_names(mode: AxisMode) -> tuple:
    return ("x", "z") if mode == AxisMode.XZ_ONLY else ("x", "y", "z")


class Normalization(Enum):
    ZSCORE = "zscore"
    MINMAX = "minmax"


@dataclass
class FeatureEncoder:
    """Per-feature normalization statistics plus a selected-feature mask.

    For z-score encoders `mean`/`scale` hold the fitted mean and std; for
    min-max they hold the minimum and the range. Constant features get scale 1
    so the transform is total.
    """

    feature_names: tuple
    mean: np.ndarray
    scale: np.ndarray
    selected_mask: np.ndarray
    normalization: Normalization = Normalization.ZSCORE
    constant_features: tuple = ()

    def __post_init__(self):
        self.feature_names = tuple(self.feature_names)
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.scale = np.asarray(self.scale, dtype=np.float64)
        self.selected_mask = np.asarray(self.selected_mask, dtype=bool)
        d = len(self.feature_names)
        if not (self.mean.shape == self.scale.shape == self.selected_mask.shape == (d,)):
            raise ContractError("encoder fields must be parallel to feature_names")
        if np.any(self.scale < 0):
            raise ContractError("scale must be nonnegative")

    @property
    def n_selected(self) -> int:
        return int(self.selected_mask.sum())

    def transform(self, rows) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        if rows.shape[1] != len(self.feature_names):
            raise ContractError(
                f"expected {len(self.feature_names)} features, got {rows.shape[1]}"
            )
        out = (rows - self.mean) / self.scale
        return out[:, self.selected_mask]

    def inverse_transform(self, rows) -> np.ndarray:
        """Inverse over the selected features only."""
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        if rows.shape[1] != self.n_selected:
            raise ContractError(f"expected {self.n_selected} selected features")
        return rows * self.scale[self.selected_mask] + self.mean[self.selected_mask]


def fit_encoder(
    rows,
    feature_names: Sequence[str],
    selected_mask=None,
    normalization: Normalization = Normalization.ZSCORE,
) -> FeatureEncoder:
    """Fit per-feature statistics over the rows; constant features get unit
    scale and are recorded in `constant_features` with a warning."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 2:
        raise ContractError("fit_encoder needs >= 2 rows")
    if rows.shape[1] != len(feature_names):
        raise ContractError("rows and feature_names disagree on feature count")
    if normalization == Normalization.ZSCORE:
        center = rows.mean(axis=0)
        scale = rows.std(axis=0)
    else:
        center = rows.min(axis=0)
        scale = rows.max(axis=0) - center
    constant = scale == 0.0
    constant_names = tuple(np.asarray(feature_names)[constant])
    if constant_names:
        warnings.warn(f"constant features normalized with unit scale: {constant_names}")
        scale = np.where(constant, 1.0, scale)
    if selected_mask is None:
        selected_mask = np.ones(rows.shape[1], dtype=bool)
    return FeatureEncoder(
        feature_names=tuple(feature_names),
        mean=center,
        scale=scale,
        selected_mask=np.asarray(selected_mask, dtype=bool),
        normalization=normalization,
        constant_features=constant_names,
    )


def save_encoder(enc: FeatureEncoder, path) -> None:
    modelio.save_model(
        "encoder",
        {
            "feature_names": list(enc.feature_names),
            "mean": enc.mean,
            "scale": enc.scale,
            "selected_mask": enc.selected_mask,
            "normalization": enc.normalization.value,
            "constant_features": list(enc.constant_features),
        },
        path,
    )


def load_encoder(path) -> FeatureEncoder:
    _, payload = modelio.load_model(path, expected_kind="encoder")
    for name in ("feature_names", "mean", "scale", "selected_mask", "normalization", "constant_features"):
        if name not in payload:
            raise ContractError(f"encoder file {path} missing field '{name}'")
    try:
        return FeatureEncoder(
            feature_names=payload["feature_names"],
            mean=payload["mean"],
            scale=payload["scale"],
            selected_mask=payload["selected_mask"],
            normalization=Normalization(payload["normalization"]),
            constant_features=tuple(payload["constant_features"]),
        )
    except (ValueError, TypeError) as exc:
        raise ContractError(f"malformed encoder file {path}: {exc}") from exc
