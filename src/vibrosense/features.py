"""Time-domain features, x/z axis selection and the in-memory z-score encoder."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ContractError, VibrationRecord

TIME_DOMAIN_FEATURE_NAMES = ("mean", "std", "rms", "peak", "crest")
TRIAXIAL_FEATURE_NAMES = tuple(f"{ax}_{n}" for ax in "xyz" for n in TIME_DOMAIN_FEATURE_NAMES)


def extract_time_domain(windows) -> np.ndarray:
    """Mean, population std, RMS, peak (max |v|), and crest factor (peak/RMS,
    0 for an all-zero window) along the last axis of a (..., n) array of
    signal windows, as a float64 (..., 5) array; one window gives shape (5,)."""
    v = np.asarray(windows, dtype=np.float64)
    n = v.shape[-1] if v.ndim else v.size
    if n < 2:
        raise ContractError(f"window must have >= 2 samples, got {n}")
    with np.errstate(all="ignore"):  # a non-finite result raises below
        rms = np.sqrt(np.mean(v * v, axis=-1))
        peak = np.max(np.abs(v), axis=-1)
        crest = np.where(rms > 0, peak / rms, 0.0)
        out = np.stack([np.mean(v, axis=-1), np.std(v, axis=-1), rms, peak, crest], axis=-1)
    if not np.isfinite(out).all():
        raise ContractError("feature values must be finite")
    return out


def extract_triaxial_features(record: VibrationRecord) -> np.ndarray:
    """The 15 TRIAXIAL_FEATURE_NAMES: the 5 time-domain statistics per axis."""
    return extract_time_domain(np.stack([record.x, record.y, record.z])).reshape(15)


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
    features get unit scale, and a warning names them."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 2:
        raise ContractError("fit_encoder needs >= 2 rows")
    if rows.shape[1] != len(feature_names):
        raise ContractError("rows and feature_names disagree on feature count")
    scale = rows.std(axis=0)
    constant = scale == 0.0
    if constant.any():
        names = ", ".join(name for name, c in zip(feature_names, constant) if c)
        warnings.warn(f"constant features normalized with unit scale: {names}")
        scale = np.where(constant, 1.0, scale)
    return FeatureEncoder(tuple(feature_names), rows.mean(axis=0), scale)
