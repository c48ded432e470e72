"""Forecasting-based temporal anomaly detection and vibration defect
classification for manufacturing sensor data.

Submodules:

- core      shared domain types, metrics, splits, RNG
- ingest    dataset wire formats, labeling, vibration/process alignment
- synth     synthetic testbed vibration and chiller process generators
- features  time-domain features, x/z axis selection, the z-score encoder
- forecast  the forecasting model roster and rolling one-step evaluation
- anomaly   the relative-error rule, ground-truth conventions, benchmarks
- classify  defect classifiers, transfer learning, cross-speed grids
- augment   multi-speed aggregation and within-speed interpolation
- autoenc   dual-loss autoencoder classifier for machine operation states
- cli       command-line front door
"""

from . import anomaly, augment, autoenc, classify, features, forecast, ingest, report, synth
from .core import (
    ConfusionMatrix,
    ContractError,
    DefectLabel,
    DetectionScore,
    MachineState,
    OperatingPoint,
    SplitSpec,
    TimeSeries,
    VibrationRecord,
    make_rng,
    precision_recall_f1,
    rmse,
)

__version__ = "0.1.0"

__all__ = [
    "anomaly",
    "augment",
    "autoenc",
    "classify",
    "features",
    "forecast",
    "ingest",
    "report",
    "synth",
    "ConfusionMatrix",
    "ContractError",
    "DefectLabel",
    "DetectionScore",
    "MachineState",
    "OperatingPoint",
    "SplitSpec",
    "TimeSeries",
    "VibrationRecord",
    "make_rng",
    "precision_recall_f1",
    "rmse",
    "__version__",
]
