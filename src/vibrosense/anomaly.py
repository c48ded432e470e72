"""Relative-error anomaly rule, ground-truth conventions, and the
dataset x model benchmark harness."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import forecast, ingest, report
from .core import (ContractError, SplitSpec, TimeSeries, _spread, precision_recall_f1, rmse,
                   split_series)
from .ingest import DEFAULT_TIMEZONE

#: Default threshold, from the plant's "within 10% of actual" acceptability bar.
DEFAULT_LAMBDA = 0.1

#: Denominator floor as a fraction of the training-split RMS (scale-aware).
EPSILON_RMS_FRACTION = 1e-6

#: Scoring convention for defect-labeled vibration data: Failure counts as a
#: true anomaly, Normal as a non-anomaly, and NearFailure samples are excluded
#: from precision/recall/F1 scoring.
GROUND_TRUTH_CONVENTION = (
    "failure=anomaly, normal=clean, near-failure excluded from scoring; "
    "rolling one-step evaluation with true history (teacher forcing)"
)


@dataclass(frozen=True)
class AnomalyRuleConfig:
    lam: float = DEFAULT_LAMBDA
    two_sided: bool = True

    def __post_init__(self):
        if not 0 < self.lam < np.inf:
            raise ContractError("lambda must be finite and positive")


def relative_error(predicted, actual, epsilon: float):
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    return (predicted - actual) / np.maximum(np.abs(predicted), epsilon)


def flag_anomaly(predicted, actual, cfg: AnomalyRuleConfig, epsilon: float):
    """True when the relative error, its denominator floored at epsilon,
    exceeds lambda (magnitude by default, signed over-prediction only when
    two_sided is off)."""
    r = relative_error(predicted, actual, epsilon)
    flags = np.abs(r) > cfg.lam if cfg.two_sided else r > cfg.lam
    if np.ndim(flags) == 0:
        return bool(flags)
    return flags


@dataclass(frozen=True)
class DetectionResult:
    predictions: np.ndarray
    flags: np.ndarray
    epsilon: float


def detect_series(model, test: TimeSeries, cfg: AnomalyRuleConfig) -> DetectionResult:
    """Rolling one-step predictions over the test split with per-point flags.
    Context is seeded from the model's training tail, and the epsilon floor
    is EPSILON_RMS_FRACTION of its training RMS; forecast.fit sets both."""
    if not (hasattr(model, "train_tail") and hasattr(model, "train_rms")):
        raise ContractError("model carries no training tail or RMS; fit it with forecast.fit")
    epsilon = max(EPSILON_RMS_FRACTION * model.train_rms, 1e-300)
    if not epsilon < np.inf:
        raise ContractError(f"the model's training RMS overflowed (train_rms = {model.train_rms}), "
                            "so it sets no epsilon floor; scale the series down")
    preds = forecast.rolling_forecast(model, model.train_tail, test.values)
    flags = flag_anomaly(preds, test.values, cfg, epsilon)
    return DetectionResult(predictions=preds, flags=flags, epsilon=epsilon)


class TruthRule(Enum):
    LABEL_COLUMN = "label_column"
    DATE_RANGES = "date_ranges"
    INJECTED_SPIKES = "injected_spikes"


@dataclass
class AnomalyDataset:
    """A univariate series plus its anomaly ground-truth source.

    Exactly one of `label_flags`, `abnormal_dates`, `spike_indices` backs the
    chosen truth rule. `eval_mask` (optional) limits scoring to selected
    points, e.g. to exclude near-failure samples.
    """

    name: str
    series: TimeSeries
    truth_rule: TruthRule
    label_flags: Optional[np.ndarray] = None
    abnormal_dates: Optional[frozenset] = None
    spike_indices: Optional[np.ndarray] = None
    eval_mask: Optional[np.ndarray] = None
    tz: str = DEFAULT_TIMEZONE


def ground_truth_labels(dataset: AnomalyDataset) -> np.ndarray:
    """Per-point boolean anomaly flags for the whole series."""
    n = len(dataset.series)
    if dataset.truth_rule == TruthRule.LABEL_COLUMN:
        if dataset.label_flags is None:
            raise ContractError("LabelColumn rule needs label_flags")
        flags = np.asarray(dataset.label_flags, dtype=bool)
        if flags.shape != (n,):
            raise ContractError("label_flags length must match the series")
        return flags
    if dataset.truth_rule == TruthRule.DATE_RANGES:
        if dataset.abnormal_dates is None:
            raise ContractError("DateRanges rule needs abnormal_dates")
        wall = ingest.to_wall_us(dataset.series.timestamps(), dataset.tz)
        return ingest.falls_on(wall, dataset.abnormal_dates)
    if dataset.spike_indices is None:
        raise ContractError("InjectedSpikes rule needs the generator's injection log")
    flags = np.zeros(n, dtype=bool)
    flags[np.asarray(dataset.spike_indices, dtype=np.int64)] = True
    return flags


def _score(flags_pred, flags_true, mask):
    if mask is not None:
        flags_pred = flags_pred[mask]
        flags_true = flags_true[mask]
    return precision_recall_f1(flags_pred, flags_true)


def _cell(dataset: str, family: str, variant, model, test: TimeSeries, truth_test, mask_test,
          cfg: AnomalyRuleConfig) -> dict:
    """One grid cell: the fitted `model` (or the ContractError its fit
    raised) detecting over the test split, scored against the truth."""
    cell = {
        "dataset": dataset,
        "model": family,
        "config": {
            "model_kind": variant.model_kind,
            "hyperparameters": variant.resolved(),
            "seed": variant.seed,
        },
        "seed": variant.seed,
    }
    cell["config_fingerprint"] = report.config_fingerprint(cell["config"])
    try:
        if isinstance(model, ContractError):
            raise model
        result = detect_series(model, test, cfg)
        score = _score(result.flags, truth_test, mask_test)
        cell.update(
            rmse=rmse(result.predictions, test.values),
            precision=score.precision,
            recall=score.recall,
            f1=score.f1,
            degenerate=score.degenerate,
            n_test=len(test),
            error=None,
        )
    except ContractError as exc:
        cell.update(
            rmse=None, precision=None, recall=None, f1=None,
            degenerate=None, n_test=len(test), error=str(exc),
        )
    return cell


def _fit_unit(family: str, variant, datasets, splits, cfg: AnomalyRuleConfig) -> List[dict]:
    """One grid unit: `variant` fitted on every dataset in one call, so the
    family can train same-shaped networks together, and its cell on each."""
    fitted = forecast.fit(variant, [train for train, _, _, _ in splits])
    return [_cell(ds.name, family, variant, model, test, truth_test, mask_test, cfg)
            for ds, model, (_, test, truth_test, mask_test) in zip(datasets, fitted, splits)]


def run_benchmark(
    datasets: Sequence[AnomalyDataset],
    model_grid: Dict[str, Sequence[forecast.ForecastModelConfig]],
    split: SplitSpec,
    cfg: AnomalyRuleConfig = AnomalyRuleConfig(),
) -> dict:
    """RMSE and detection sweep over datasets x model variants.

    Per model family the best variant by RMSE feeds the RMSE table and the
    best by F1 feeds the detection table; the full grid is retained. A model
    erroring on a dataset records an error cell and the sweep continues.
    The (family, variant) units are fitted on the cores of the process's
    affinity mask that BLAS leaves free (`_spread`); the report does not
    depend on how many.
    """
    if not datasets or not model_grid:
        raise ContractError("need at least one dataset and one model family")
    for family, variants in model_grid.items():
        if not variants:
            raise ContractError(f"model family '{family}' has no variants")
    dataset_info = {}
    splits = []
    for ds in datasets:
        dataset_info[ds.name] = {
            "n_points": len(ds.series),
            "truth_rule": ds.truth_rule.value,
            "fingerprint": report.data_fingerprint(ds.series.values),
        }
        train, test = split_series(ds.series, split)
        truth_test = ground_truth_labels(ds)[len(train) :]
        mask_test = None
        if ds.eval_mask is not None:
            mask_test = np.asarray(ds.eval_mask, dtype=bool)[len(train) :]
        splits.append((train, test, truth_test, mask_test))

    units = [(family, v, variant) for family, variants in model_grid.items()
             for v, variant in enumerate(variants)]
    fitted = _spread(lambda i: _fit_unit(units[i][0], units[i][2], datasets, splits, cfg),
                     len(units), lambda i: f"model family '{units[i][0]}' variant {units[i][1]}")
    cells: Dict[tuple, dict] = {}
    for (family, v, _), unit_cells in zip(units, fitted):
        for d, cell in enumerate(unit_cells):
            cells[d, family, v] = cell

    grid_rows: List[dict] = []
    best_rmse: Dict[str, dict] = {}
    best_f1: Dict[str, dict] = {}
    for d, ds in enumerate(datasets):
        best_rmse[ds.name] = {}
        best_f1[ds.name] = {}
        for family, variants in model_grid.items():
            family_cells = [cells[d, family, v] for v in range(len(variants))]
            grid_rows.extend(family_cells)
            scored = [c for c in family_cells if c["error"] is None]
            if scored:
                best_rmse[ds.name][family] = min(scored, key=lambda c: c["rmse"])
                best_f1[ds.name][family] = max(scored, key=lambda c: c["f1"])
            else:
                best_rmse[ds.name][family] = family_cells[0]
                best_f1[ds.name][family] = family_cells[0]
    return {
        "artifact_version": report.ARTIFACT_VERSION,
        "convention": GROUND_TRUTH_CONVENTION,
        "rule": {"lambda": cfg.lam, "two_sided": cfg.two_sided,
                 "epsilon_rms_fraction": EPSILON_RMS_FRACTION},
        "split": {"train_fraction": split.train_fraction, "mode": "CHRONOLOGICAL",
                  "seed": split.seed},
        "datasets": dataset_info,
        "grid": grid_rows,
        "best_rmse": best_rmse,
        "best_f1": best_f1,
    }


def benchmark_tables(bench: dict) -> str:
    """Human-readable RMSE and detection tables from a benchmark report."""
    dataset_names = sorted(bench["best_rmse"])
    families = sorted(next(iter(bench["best_rmse"].values())))
    rmse_rows = []
    for fam in families:
        row = [fam]
        for ds in dataset_names:
            cell = bench["best_rmse"][ds][fam]
            row.append("error" if cell["error"] else cell["rmse"])
        rmse_rows.append(row)
    out = ["RMSE (best variant per family; lower is better)",
           report.format_table(["model"] + dataset_names, rmse_rows), ""]
    det_rows = []
    for fam in families:
        for ds in dataset_names:
            cell = bench["best_f1"][ds][fam]
            if cell["error"]:
                det_rows.append([fam, ds, "error", "error", "error"])
            else:
                det_rows.append([fam, ds, cell["precision"], cell["recall"], cell["f1"]])
    out.append("Detection (best variant per family by F1)")
    out.append(report.format_table(["model", "dataset", "precision", "recall", "f1"], det_rows))
    return "\n".join(out)
