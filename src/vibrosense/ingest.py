"""Dataset wire formats, machine-state labeling, and vibration/process alignment."""

from __future__ import annotations

import csv
import datetime as dt
import math
from contextlib import contextmanager
from dataclasses import dataclass
from operator import attrgetter, itemgetter
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
        return np.array(_measurement_fields(self))


#: The seven measurement fields of a ProcessRow, as a tuple, in column order.
_measurement_fields = attrgetter(
    "air_pressure_1",
    "air_pressure_2",
    "chiller1_supply_tmp",
    "chiller2_supply_tmp",
    "outside_air_temp",
    "outside_humidity",
    "outside_dewpoint",
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


def _parse_floats(tokens: Sequence[str], where: str) -> List[float]:
    """A row's tokens as finite floats, converted and checked in one call
    each. Only a row that fails goes through _parse_float token by token, so
    the error names the row's first bad token, as a value-by-value parse would."""
    try:
        values = list(map(float, tokens))
    except ValueError:
        values = None
    if values is None or not all(map(math.isfinite, values)):
        values = [_parse_float(token, where) for token in tokens]  # raises
    return values


def parse_timestamp(text: str, tz: str = DEFAULT_TIMEZONE) -> float:
    """Accepts ISO-8601 or M/D/YYYY H:MM[:SS]; interpreted as local wall time."""
    return _parse_local(text, ZoneInfo(tz))


def _parse_local(text: str, zone: ZoneInfo) -> float:
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
        naive = naive.replace(tzinfo=zone)
    return naive.timestamp()


def format_timestamp(timestamp_s: float, tz: str = DEFAULT_TIMEZONE) -> str:
    return _format_local(timestamp_s, ZoneInfo(tz))


def _format_local(timestamp_s: float, zone: ZoneInfo) -> str:
    return dt.datetime.fromtimestamp(timestamp_s, zone).replace(tzinfo=None).isoformat(sep=" ")


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
    flat = []  # x, y, z of every row, in file order
    with open(path, newline="") as fh, _reading(path):
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if lineno == 1 and any(_looks_non_numeric(c) for c in row):
                continue  # header row
            if len(row) != 3:
                raise ContractError(f"expected 3 columns, got {len(row)} (line {lineno})")
            flat += _parse_floats(row, f"line {lineno}")
    if not flat:
        raise ContractError(f"no data rows in {path}")
    xyz = np.array(flat).reshape(-1, 3)
    del flat  # free the floats before the per-axis copy
    x, y, z = xyz.T.copy()
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


# The CSV writers emit the lines csv.writer would: comma-separated, each ended
# by "\r\n", no field quoted. Float reprs and ISO timestamps never hold a
# comma, a quote or a line break, so no field needs quoting.

def write_triaxial_csv(records: Sequence[VibrationRecord], path, header: bool = True) -> None:
    with open(path, "w", newline="") as fh:
        if header:
            fh.write("X,Y,Z\r\n")
        for rec in records:
            fh.writelines(f"{x!r},{y!r},{z!r}\r\n"
                          for x, y, z in zip(rec.x.tolist(), rec.y.tolist(), rec.z.tolist()))


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
        timestamp_at = header.index("Timestamp")
        measurements = itemgetter(*(header.index(col) for col in PROCESS_MEASUREMENT_COLUMNS))
        zone = ZoneInfo(tz)
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < len(header):
                raise ContractError(f"short row (line {lineno})")
            try:
                ts = _parse_local(row[timestamp_at], zone)
            except ContractError as exc:
                raise ContractError(f"{exc} (line {lineno})") from exc
            rows.append(ProcessRow(ts, *_parse_floats(measurements(row), f"line {lineno}")))
    rows.sort(key=lambda r: r.timestamp_s)
    return rows


def write_process_csv(rows: Sequence[ProcessRow], path, tz: str = DEFAULT_TIMEZONE) -> None:
    zone = ZoneInfo(tz)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(PROCESS_HEADER) + "\r\n")
        # float() first: synth's rows hold np.float64, whose repr is not the number's
        fh.writelines(
            f"{_format_local(row.timestamp_s, zone)},"
            f"{','.join(map(repr, map(float, _measurement_fields(row))))}\r\n"
            for row in rows
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
    zone = ZoneInfo(tz)
    records = []
    for g in range(len(lines) // 5):
        group = lines[5 * g : 5 * g + 5]
        start = _parse_local(group[0], zone)
        axes = []
        for axis, line in zip("xyz", group[1:4]):
            tokens = line.replace(",", " ").split()
            if len(tokens) != PHARMA_POINTS_PER_AXIS:
                raise ContractError(
                    f"{axis}-axis: expected {PHARMA_POINTS_PER_AXIS}, "
                    f"got {len(tokens)} (record {g + 1})"
                )
            axes.append(np.array(_parse_floats(tokens, f"record {g + 1}, {axis}-axis")))
        dt_s = _parse_float(group[4].strip(), f"record {g + 1}, line 5")
        records.append(PharmaRecord(start, *axes, dt_s))
    return records


def write_pharma_txt(records: Sequence[PharmaRecord], path, tz: str = DEFAULT_TIMEZONE) -> None:
    zone = ZoneInfo(tz)
    with open(path, "w") as fh:
        for rec in records:
            fh.write(_format_local(rec.start_s, zone) + "\n")
            for axis in (rec.x, rec.y, rec.z):
                fh.write(" ".join(map(repr, axis.tolist())) + "\n")
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
        return self._is_off_local(dt.datetime.fromtimestamp(timestamp_s, ZoneInfo(self.tz)))

    def _is_off_local(self, local: dt.datetime) -> bool:
        """is_off for a time already converted to this schedule's zone."""
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
        local = dt.datetime.fromtimestamp(row.timestamp_s, zone)
        if local.date() in abnormal:
            state = MachineState.ABNORMAL
        elif schedule._is_off_local(local):
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
