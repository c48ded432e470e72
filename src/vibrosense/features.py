"""Time-domain features, x/z axis selection and the in-memory z-score encoder."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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


def select_axes(record: VibrationRecord) -> np.ndarray:
    """Per-sample raw-value rows of the x and z axes, shape (n, 2)."""
    return np.column_stack([record.x, record.z])


def axis_feature_names() -> tuple:
    return ("x", "z")


@dataclass
class FeatureEncoder:
    """Per-feature z-score statistics: the fitted mean and population std.
    Constant features get scale 1 so the transform is total."""

    feature_names: tuple
    mean: np.ndarray
    scale: np.ndarray
    constant_features: tuple = ()

    def __post_init__(self):
        self.feature_names = tuple(self.feature_names)
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.scale = np.asarray(self.scale, dtype=np.float64)
        d = len(self.feature_names)
        if not (self.mean.shape == self.scale.shape == (d,)):
            raise ContractError("encoder fields must be parallel to feature_names")
        if np.any(self.scale < 0):
            raise ContractError("scale must be nonnegative")

    def _rows(self, rows) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        if rows.shape[1] != len(self.feature_names):
            raise ContractError(
                f"expected {len(self.feature_names)} features, got {rows.shape[1]}"
            )
        return rows

    def transform(self, rows) -> np.ndarray:
        return (self._rows(rows) - self.mean) / self.scale

    def inverse_transform(self, rows) -> np.ndarray:
        return self._rows(rows) * self.scale + self.mean


def fit_encoder(rows, feature_names: Sequence[str]) -> FeatureEncoder:
    """Fit each feature's mean and population std over the rows; constant
    features get unit scale and are recorded in `constant_features` with a
    warning."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 2:
        raise ContractError("fit_encoder needs >= 2 rows")
    if rows.shape[1] != len(feature_names):
        raise ContractError("rows and feature_names disagree on feature count")
    scale = rows.std(axis=0)
    constant = scale == 0.0
    constant_names = tuple(np.asarray(feature_names)[constant])
    if constant_names:
        warnings.warn(f"constant features normalized with unit scale: {constant_names}")
        scale = np.where(constant, 1.0, scale)
    return FeatureEncoder(
        feature_names=tuple(feature_names),
        mean=rows.mean(axis=0),
        scale=scale,
        constant_features=constant_names,
    )
