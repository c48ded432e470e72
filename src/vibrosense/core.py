"""Domain types, metrics, splitting, RNG helpers, and the spread of independent
work over free cores, shared by every module."""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
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


@dataclass(frozen=True)
class OperatingPoint:
    rpm: int

    def __post_init__(self):
        if self.rpm <= 0:
            raise ContractError(f"rpm must be positive, got {self.rpm}")


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


#: The share of each label's feature rows that a classifier trains on.
TRAIN_FRACTION = 0.7


@dataclass(frozen=True)
class SplitSpec:
    """A series' chronological split; the benchmark report records its seed."""

    train_fraction: float
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
    """Chronological train/test split of a time series: the earliest
    floor(n*f) points train, so no future sample leaks into training."""
    n = len(series)
    n_train = int(np.floor(n * spec.train_fraction))
    if n_train < 1 or n - n_train < 1:
        raise ContractError(f"split needs >= 1 item per side, got {n} items at f={spec.train_fraction}")
    train = TimeSeries(series.start_s, series.interval_s, series.values[:n_train])
    test = TimeSeries(
        series.start_s + n_train * series.interval_s, series.interval_s, series.values[n_train:]
    )
    return train, test


def split_arrays(features, labels, seed: int):
    """Stratified shuffle split of (features, labels) rows: each label keeps
    TRAIN_FRACTION of its rows for training, drawn deterministically from seed."""
    features = np.asarray(features)
    labels = np.asarray(labels)
    n = features.shape[0]
    if n < 2:
        raise ContractError("split needs at least 2 items")
    if labels.shape != (n,):
        raise ContractError("labels must have one entry per item")
    rng = make_rng(seed)
    train_parts, test_parts = [], []
    for lab in np.unique(labels):
        members = np.flatnonzero(labels == lab)
        members = rng.permutation(members)
        k = int(round(len(members) * TRAIN_FRACTION))
        k = min(max(k, 1), len(members) - 1) if len(members) >= 2 else k
        train_parts.append(members[:k])
        test_parts.append(members[k:])
    tr = np.sort(np.concatenate(train_parts))
    te = np.sort(np.concatenate(test_parts))
    return (features[tr], labels[tr]), (features[te], labels[te])


def confusion_matrix(true_labels, pred_labels, class_names) -> ConfusionMatrix:
    """Counts of (true, predicted) label pairs, true labels along the rows.
    A label outside [0, len(class_names)) is a ContractError naming it."""
    k = len(class_names)
    t = np.asarray(true_labels, dtype=np.int64).ravel()
    p = np.asarray(pred_labels, dtype=np.int64).ravel()
    if t.shape != p.shape:
        raise ContractError(f"{t.size} true labels for {p.size} predicted labels")
    for name, labels in (("true", t), ("predicted", p)):
        bad = labels[(labels < 0) | (labels >= k)]
        if bad.size:
            raise ContractError(f"{name} label {bad[0]} is outside [0, {k})")
    counts = np.bincount(t * k + p, minlength=k * k).reshape(k, k)
    return ConfusionMatrix(counts, class_names)


def _next_unit(pipe, n_units: int, stop: bool = False) -> int:
    """Read the message in `pipe`, the number `i` of the next unstarted
    unit, and write back `min(i + 1, n_units)`, or `n_units` if `stop`."""
    i = int.from_bytes(os.read(pipe[0], 8), "little")
    os.write(pipe[1], (n_units if stop else min(i + 1, n_units)).to_bytes(8, "little"))
    return i


def _take_units(work, pipe, n_units: int, deliver) -> None:
    """Run the next unstarted unit and `deliver` its outcome, until none is
    left. A unit that raises stops every process from starting another; the
    units already running finish, so every unit before it has an outcome."""
    while (i := _next_unit(pipe, n_units)) < n_units:
        try:
            outcome = (True, work(i))
        except Exception as exc:
            _next_unit(pipe, n_units, stop=True)
            outcome = (False, exc)
        deliver(i, outcome)


def _worker(work, pipe, n_units: int, fd: int) -> None:
    """A forked worker: it takes units, writes each outcome to the pipe `fd`
    as a length-prefixed pickle and ends with `os._exit`, so that it runs no
    `finally` block or atexit hook of the caller's."""
    try:
        import signal
        import traceback

        # an interrupt reaches the whole process group; the caller handles it
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        out = open(fd, "wb")

        def send(i, outcome):
            ok, value = outcome
            if not ok:
                tb = "".join(traceback.format_exception(type(value), value, value.__traceback__))
                try:
                    pickle.loads(pickle.dumps(value))
                except Exception:
                    value = RuntimeError(f"{type(value).__name__}: {value}")
                value = (value, tb)
            data = pickle.dumps((i, ok, value))
            out.write(len(data).to_bytes(8, "little") + data)
            out.flush()

        _take_units(work, pipe, n_units, send)
        os._exit(0)
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(1)


def _receive(data: bytes, results: dict) -> None:
    """Move the outcomes a worker wrote, up to its exit, into `results`; one
    cut short by the worker's death is left out."""
    view = memoryview(data)
    while len(view) >= 8 and len(view) >= 8 + (n := int.from_bytes(view[:8], "little")):
        i, ok, value = pickle.loads(view[8:8 + n])
        view = view[8 + n:]
        if not ok:
            value, tb = value
            value.__cause__ = RuntimeError(f"raised in a worker process:\n{tb}")
        results[i] = (ok, value)


def _blas_threads(cores: int) -> int:
    """The threads OpenBLAS gives each matrix product, from the variables it
    reads when it loads, in its order: the first positive one, at most
    `cores`; with none set, one thread per core."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return min(int(value), cores)
    return cores


def _spread(work, n_units: int, describe) -> list:
    """`[work(i) for i in range(n_units)]` over the cores of the process's
    affinity mask that BLAS leaves free, one process per BLAS thread pool
    that fits, at most one per unit: the caller and `os.fork` workers, which
    send back each outcome over a pipe and are reaped with `wait4`. Each
    process takes the next unstarted unit. One pipe holds its number as the
    one 8-byte message: a process reads it to take the unit and writes back
    the next, so whoever holds it holds the lock. The lowest failing unit's
    exception is raised, as a serial loop would raise it; a worker that dies
    is an error naming its unit. With fewer than two processes (BLAS on
    every core, one core, one unit or no mask to read) it is a plain loop
    that forks nothing. `anomaly.run_benchmark` spreads its (family,
    variant) units, `classify.cross_rpm_matrix` its two trainings; no unit
    calls it again."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    processes = min(cores // _blas_threads(cores), n_units)
    if processes < 2:
        return [work(i) for i in range(n_units)]
    return _forked(work, n_units, describe, processes)


def _forked(work, n_units: int, describe, processes: int) -> list:
    """_spread over `processes` processes. The caller reads the workers'
    pipes once no unit is left: a worker whose unread outcomes fill its pipe
    (64 KiB) waits until then, so its callers' outcomes are small or few."""
    import signal

    pipe, results, workers, codes = os.pipe(), {}, {}, []
    os.write(pipe[1], bytes(8))  # the first unstarted unit: 0
    try:
        for _ in range(processes - 1):
            fd, child_end = os.pipe()
            reader = open(fd, "rb", buffering=0)
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(work, pipe, n_units, child_end)
            finally:
                # closed before the next fork, so only this worker holds the
                # sending end and its exit shows as the end of the pipe
                os.close(child_end)
            workers[pid] = reader
        _take_units(work, pipe, n_units, results.__setitem__)
        for reader in workers.values():
            _receive(reader.read(), results)
    except BaseException:
        for pid in workers:
            os.kill(pid, signal.SIGTERM)
        raise
    finally:
        for pid, reader in workers.items():
            codes.append(os.waitstatus_to_exitcode(os.wait4(pid, 0)[1]))
            reader.close()
        for fd in pipe:
            os.close(fd)
    out = []
    for i in range(n_units):
        if i not in results:
            ended = ", ".join(str(c) for c in sorted(set(codes)) if c)
            raise RuntimeError(f"a worker process ended (exit code {ended}) "
                               f"while fitting {describe(i)}")
        ok, value = results[i]
        if not ok:
            raise value
        out.append(value)
    return out
