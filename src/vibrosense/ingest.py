"""Dataset wire formats, machine-state labeling, and vibration/process alignment."""

from __future__ import annotations

import csv
import datetime as dt
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple
from zoneinfo import ZoneInfo

import numpy as np

from .core import ContractError, DefectLabel, MachineState, OperatingPoint, VibrationRecord
from .features import extract_triaxial_features

DEFAULT_TIMEZONE = "America/New_York"

PROCESS_MEASUREMENT_COLUMNS = (
    "Air Pressure 1",
    "Air Pressure 2",
    "Chiller 1 Supply Tmp",
    "Chiller 2 Supply Tmp",
    "Outside Air Temp",
    "Outside Humidity",
    "Outside Dewpoint",
)
PROCESS_HEADER = ("Timestamp",) + PROCESS_MEASUREMENT_COLUMNS

#: Documented abnormal-operation days of the real process dataset.
DEFAULT_ABNORMAL_DATES = frozenset({dt.date(2022, 2, 1), dt.date(2022, 3, 8)})

PHARMA_POINTS_PER_AXIS = 3200


@dataclass(frozen=True)
class ProcessRow:
    timestamp_s: float
    air_pressure_1: float
    air_pressure_2: float
    chiller1_supply_tmp: float
    chiller2_supply_tmp: float
    outside_air_temp: float
    outside_humidity: float
    outside_dewpoint: float

    def measurements(self) -> np.ndarray:
        return np.array(
            [
                self.air_pressure_1,
                self.air_pressure_2,
                self.chiller1_supply_tmp,
                self.chiller2_supply_tmp,
                self.outside_air_temp,
                self.outside_humidity,
                self.outside_dewpoint,
            ]
        )


@dataclass(frozen=True)
class PharmaRecord:
    start_s: float
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    dt_s: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if self.dt_s <= 0:
            raise ContractError("dt_s must be positive")

    def to_vibration_record(self, operating_point=OperatingPoint(rpm=1)) -> VibrationRecord:
        return VibrationRecord(
            start_s=self.start_s,
            sample_rate_hz=1.0 / self.dt_s,
            x=self.x,
            y=self.y,
            z=self.z,
            operating_point=operating_point,
        )


def _parse_float(token: str, where: str) -> float:
    try:
        value = float(token)
    except ValueError as exc:
        raise ContractError(f"unparseable number '{token}' at {where}") from exc
    if not np.isfinite(value):
        raise ContractError(f"non-finite value '{token}' at {where}")
    return value


def parse_timestamp(text: str, tz: str = DEFAULT_TIMEZONE) -> float:
    """Accepts ISO-8601 or M/D/YYYY H:MM[:SS]; interpreted as local wall time."""
    text = text.strip()
    naive = None
    try:
        naive = dt.datetime.fromisoformat(text)
    except ValueError:
        for fmt in ("%m/%d/%Y %H:%M:%S", "%m/%d/%Y %H:%M", "%m/%d/%Y"):
            try:
                naive = dt.datetime.strptime(text, fmt)
                break
            except ValueError:
                continue
    if naive is None:
        raise ContractError(f"unparseable timestamp '{text}'")
    if naive.tzinfo is None:
        naive = naive.replace(tzinfo=ZoneInfo(tz))
    return naive.timestamp()


def format_timestamp(timestamp_s: float, tz: str = DEFAULT_TIMEZONE) -> str:
    local = dt.datetime.fromtimestamp(timestamp_s, ZoneInfo(tz))
    return local.replace(tzinfo=None).isoformat(sep=" ")


@contextmanager
def _reading(path):
    """Turns a decoding error while reading `path` into a ContractError that
    names the file and the byte offset of its first undecodable byte (the
    error's own offset counts from the start of a read buffer, not the file),
    and a CSV reader's error (a field over csv.field_size_limit) into one
    that names the file."""
    try:
        yield
    except csv.Error as exc:
        raise ContractError(f"{path}: malformed CSV ({exc})") from exc
    except UnicodeDecodeError as exc:
        try:
            Path(path).read_bytes().decode(exc.encoding)
            offset = exc.start
        except UnicodeDecodeError as whole:
            offset = whole.start
        raise ContractError(
            f"{path}: not {exc.encoding} text at byte offset {offset} ({exc.reason})"
        ) from exc


def parse_triaxial_csv(
    path,
    sample_rate_hz: float,
    operating_point: OperatingPoint,
    label: Optional[DefectLabel] = None,
    burst_len: Optional[int] = None,
    start_s: float = 0.0,
) -> List[VibrationRecord]:
    """Three numeric columns (X, Y, Z) per row, optional one-line header.

    Returns one record for the whole file, or fixed-length bursts when
    burst_len is given (a short trailing remainder is kept as its own burst).
    """
    if not 0 < sample_rate_hz < np.inf:
        raise ContractError(f"sample rate must be positive and finite, got {sample_rate_hz}")
    if burst_len is not None and burst_len < 1:
        raise ContractError(f"burst_len must be >= 1, got {burst_len}")
    xs, ys, zs = [], [], []
    with open(path, newline="") as fh, _reading(path):
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if lineno == 1 and any(_looks_non_numeric(c) for c in row):
                continue  # header row
            if len(row) != 3:
                raise ContractError(f"expected 3 columns, got {len(row)} (line {lineno})")
            vals = [_parse_float(c, f"line {lineno}") for c in row]
            xs.append(vals[0])
            ys.append(vals[1])
            zs.append(vals[2])
    if not xs:
        raise ContractError(f"no data rows in {path}")
    x, y, z = np.array(xs), np.array(ys), np.array(zs)
    n = len(x)
    if burst_len is None or burst_len >= n:
        bounds = [(0, n)]
    else:
        bounds = [(i, min(i + burst_len, n)) for i in range(0, n, burst_len)]
    records = []
    for lo, hi in bounds:
        records.append(
            VibrationRecord(
                start_s=start_s + lo / sample_rate_hz,
                sample_rate_hz=sample_rate_hz,
                x=x[lo:hi],
                y=y[lo:hi],
                z=z[lo:hi],
                operating_point=operating_point,
                label=label,
            )
        )
    return records


def _looks_non_numeric(token: str) -> bool:
    try:
        float(token)
        return False
    except ValueError:
        return True


def write_triaxial_csv(records: Sequence[VibrationRecord], path, header: bool = True) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(["X", "Y", "Z"])
        for rec in records:
            for xi, yi, zi in zip(rec.x.tolist(), rec.y.tolist(), rec.z.tolist()):
                writer.writerow([repr(xi), repr(yi), repr(zi)])


def parse_process_csv(path, tz: str = DEFAULT_TIMEZONE) -> List[ProcessRow]:
    """Header must carry the timestamp plus the seven measurement columns.
    Rows come back sorted by ascending timestamp."""
    with open(path, newline="") as fh, _reading(path):
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ContractError(f"empty process file {path}")
        header = [h.strip() for h in header]
        for col in PROCESS_HEADER:
            if col not in header:
                raise ContractError(f"process file missing column '{col}'")
        index = {col: header.index(col) for col in PROCESS_HEADER}
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < len(header):
                raise ContractError(f"short row (line {lineno})")
            try:
                ts = parse_timestamp(row[index["Timestamp"]], tz=tz)
            except ContractError as exc:
                raise ContractError(f"{exc} (line {lineno})") from exc
            values = [
                _parse_float(row[index[col]], f"line {lineno}")
                for col in PROCESS_MEASUREMENT_COLUMNS
            ]
            rows.append(ProcessRow(ts, *values))
    rows.sort(key=lambda r: r.timestamp_s)
    return rows


def write_process_csv(rows: Sequence[ProcessRow], path, tz: str = DEFAULT_TIMEZONE) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PROCESS_HEADER)
        for row in rows:
            writer.writerow(
                [format_timestamp(row.timestamp_s, tz=tz)]
                + [repr(v) for v in row.measurements().tolist()]
            )


def parse_pharma_txt(path, tz: str = DEFAULT_TIMEZONE) -> List[PharmaRecord]:
    """Repeating 5-line groups: datetime, x/y/z axes of 3200 points each, and
    the per-point time delta. Axis tokens may be whitespace- or comma-separated."""
    with open(path) as fh, _reading(path):
        lines = [line.rstrip("\n") for line in fh]
    while lines and not lines[-1].strip():
        lines.pop()
    if len(lines) % 5 != 0:
        raise ContractError(
            f"pharma file length must be a multiple of 5 lines, got {len(lines)}"
        )
    records = []
    for g in range(len(lines) // 5):
        group = lines[5 * g : 5 * g + 5]
        start = parse_timestamp(group[0], tz=tz)
        axes = {}
        for axis, line in zip(("x", "y", "z"), group[1:4]):
            tokens = line.replace(",", " ").split()
            if len(tokens) != PHARMA_POINTS_PER_AXIS:
                raise ContractError(
                    f"{axis}-axis: expected {PHARMA_POINTS_PER_AXIS}, "
                    f"got {len(tokens)} (record {g + 1})"
                )
            axes[axis] = np.array(
                [_parse_float(t, f"record {g + 1}, {axis}-axis") for t in tokens]
            )
        dt_s = _parse_float(group[4].strip(), f"record {g + 1}, line 5")
        records.append(PharmaRecord(start, axes["x"], axes["y"], axes["z"], dt_s))
    return records


def write_pharma_txt(records: Sequence[PharmaRecord], path, tz: str = DEFAULT_TIMEZONE) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(format_timestamp(rec.start_s, tz=tz) + "\n")
            for axis in (rec.x, rec.y, rec.z):
                fh.write(" ".join(repr(v) for v in axis.tolist()) + "\n")
            fh.write(repr(rec.dt_s) + "\n")


@dataclass(frozen=True)
class WeeklySchedule:
    """Weekly machine shutdown window in local wall time.

    Weekdays follow datetime.weekday(): Monday = 0. Default is the plant's
    off window from Friday 19:00 to Sunday 23:00.
    """

    off_start_weekday: int = 4
    off_start_hour: float = 19.0
    off_end_weekday: int = 6
    off_end_hour: float = 23.0
    tz: str = DEFAULT_TIMEZONE

    def is_off(self, timestamp_s: float) -> bool:
        local = dt.datetime.fromtimestamp(timestamp_s, ZoneInfo(self.tz))
        pos = local.weekday() * 24.0 + local.hour + local.minute / 60.0 + local.second / 3600.0
        start = self.off_start_weekday * 24.0 + self.off_start_hour
        end = self.off_end_weekday * 24.0 + self.off_end_hour
        if start <= end:
            return start <= pos < end
        return pos >= start or pos < end


def label_process_rows(
    rows: Sequence[ProcessRow],
    abnormal_dates: Iterable[dt.date] = DEFAULT_ABNORMAL_DATES,
    schedule: WeeklySchedule = WeeklySchedule(),
) -> List[Tuple[ProcessRow, MachineState]]:
    """Abnormal on listed calendar days (whole day), Off inside the weekly
    shutdown window, On otherwise."""
    abnormal = set(abnormal_dates)
    zone = ZoneInfo(schedule.tz)
    out = []
    for row in rows:
        local_date = dt.datetime.fromtimestamp(row.timestamp_s, zone).date()
        if local_date in abnormal:
            state = MachineState.ABNORMAL
        elif schedule.is_off(row.timestamp_s):
            state = MachineState.OFF
        else:
            state = MachineState.ON
        out.append((row, state))
    return out


@dataclass(frozen=True)
class AlignedDataset:
    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple
    n_dropped_buckets: int


def align_and_impute(
    vibration: Sequence[VibrationRecord],
    labeled_process: Sequence[Tuple[ProcessRow, MachineState]],
    bucket_s: float = 300.0,
) -> AlignedDataset:
    """Join vibration and process data on the process timestamps.

    Each process row owns the bucket [t, t + bucket_s); vibration records
    starting inside it contribute their 15 time-domain features, aggregated by
    per-feature median. Process measurements are appended and the machine
    state is carried from the process row. Empty buckets are dropped and
    counted.
    """
    if not vibration or not labeled_process:
        raise ContractError("both vibration and process sequences must be nonempty")
    vib_sorted = sorted(vibration, key=lambda r: r.start_s)
    starts = np.array([r.start_s for r in vib_sorted])
    proc_sorted = sorted(labeled_process, key=lambda p: p[0].timestamp_s)
    t_lo = proc_sorted[0][0].timestamp_s
    t_hi = proc_sorted[-1][0].timestamp_s + bucket_s
    if starts[-1] < t_lo or starts[0] >= t_hi:
        raise ContractError("no temporal overlap between vibration and process data")
    vib_names = None
    rows, labels = [], []
    n_dropped = 0
    for proc_row, state in proc_sorted:
        lo = np.searchsorted(starts, proc_row.timestamp_s, side="left")
        hi = np.searchsorted(starts, proc_row.timestamp_s + bucket_s, side="left")
        if hi == lo:
            n_dropped += 1
            continue
        feats = [extract_triaxial_features(vib_sorted[i]) for i in range(lo, hi)]
        if vib_names is None:
            vib_names = feats[0].names
        vib_values = np.median(np.stack([f.values for f in feats]), axis=0)
        rows.append(np.concatenate([vib_values, proc_row.measurements()]))
        labels.append(int(state))
    if not rows:
        raise ContractError("no temporal overlap between vibration and process data")
    names = vib_names + tuple(PROCESS_MEASUREMENT_COLUMNS)
    return AlignedDataset(
        features=np.stack(rows),
        labels=np.array(labels, dtype=np.int64),
        feature_names=names,
        n_dropped_buckets=n_dropped,
    )
