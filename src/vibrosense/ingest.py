"""Dataset wire formats, machine-state labeling, and vibration/process alignment."""

from __future__ import annotations

import csv
import datetime as dt
from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterable, List, NamedTuple, Optional, Sequence
from zoneinfo import ZoneInfo

import numpy as np

from .core import ContractError, MachineState, OperatingPoint, VibrationRecord
from .features import TRIAXIAL_FEATURE_NAMES, extract_time_domain

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


class ProcessRow(NamedTuple):
    """One process reading, as iterating a ProcessTable yields it: its UTC
    timestamp in seconds, then the seven measurements in
    PROCESS_MEASUREMENT_COLUMNS order."""

    timestamp_s: float
    air_pressure_1: float
    air_pressure_2: float
    chiller1_supply_tmp: float
    chiller2_supply_tmp: float
    outside_air_temp: float
    outside_humidity: float
    outside_dewpoint: float

    def measurements(self) -> np.ndarray:
        return np.array(self[1:])


_STATES = tuple(MachineState)  # indexed by value


@dataclass(frozen=True, eq=False)
class ProcessTable:
    """Process readings as columns: UTC timestamps in seconds (n,), the seven
    measurements in PROCESS_MEASUREMENT_COLUMNS order (n, 7), both float64,
    and each reading's MachineState value (n,) once labeled, else None.

    Iterating yields ProcessRows, or (ProcessRow, MachineState) pairs once
    labeled, built _BLOCK_ROWS at a time; a slice gives a table.
    """

    timestamps_s: np.ndarray
    values: np.ndarray
    states: Optional[np.ndarray] = None

    def __post_init__(self):
        for name, dtype in (("timestamps_s", np.float64), ("values", np.float64),
                            ("states", np.int64)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        n = self.timestamps_s.size
        if (self.timestamps_s.ndim != 1
                or self.values.shape != (n, len(PROCESS_MEASUREMENT_COLUMNS))
                or self.states is not None and self.states.shape != (n,)):
            raise ContractError("a process table holds n timestamps, (n, 7) measurements "
                                "and n states or none")

    def __len__(self) -> int:
        return len(self.timestamps_s)

    def __getitem__(self, index: slice) -> ProcessTable:
        return ProcessTable(self.timestamps_s[index], self.values[index],
                            None if self.states is None else self.states[index])

    def __iter__(self):
        for lo in range(0, len(self), _BLOCK_ROWS):
            block = self[lo : lo + _BLOCK_ROWS]
            rows = map(ProcessRow._make,
                       np.column_stack([block.timestamps_s, block.values]).tolist())
            if block.states is None:
                yield from rows
            else:
                yield from zip(rows, map(_STATES.__getitem__, block.states.tolist()))


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
        for name in ("start_s", "dt_s"):  # a NumPy scalar's repr is not the number's
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.dt_s <= 0:
            raise ContractError("dt_s must be positive")


def _parse_float(token: str, where: str) -> float:
    try:
        value = float(token)
    except ValueError as exc:
        raise ContractError(f"unparseable number '{token}' at {where}") from exc
    if not np.isfinite(value):
        raise ContractError(f"non-finite value '{token}' at {where}")
    return value


# The parsers convert the numbers of this many rows per call. An error a row
# raises for itself or its reading first converts the rows above it, so a bad
# number above it is still the first error; a full block's lists are emptied
# before it is converted, so a block that fails is not converted twice.
_BLOCK_ROWS = 1024
_ROW_ERRORS = (ContractError, csv.Error, UnicodeDecodeError)


def _parse_floats(tokens: Sequence[str], places: Sequence, where: str = "line {}") -> np.ndarray:
    """The tokens of len(places) rows of equal width as finite float64s,
    converted and checked in one call each. A block that fails goes through
    _parse_float token by token, so the error names its first bad token and
    where.format(that row's place), as a value-by-value parse would."""
    try:
        values = np.fromiter(map(float, tokens), np.float64, count=len(tokens))
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        width = len(tokens) // len(places)
        for i, token in enumerate(tokens):
            _parse_float(token, where.format(places[i // width]))  # raises at a bad token
    return values


def parse_timestamp(text: str, tz: str = DEFAULT_TIMEZONE) -> float:
    """Accepts ISO-8601 or M/D/YYYY H:MM[:SS]; interpreted as local wall time."""
    return _utc_s([_parse_datetime(text, tz)], tz)[0]


def _parse_datetime(text: str, tz: str) -> dt.datetime:
    """The datetime a timestamp text spells, naive (wall time in tz) unless it
    names an offset. Its wall time (naive) or UTC time (aware), and the UTC
    second _utc_s gives it, must lie in the range the wall-time conversions
    take."""
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
    first, inner_first, inner_last, last = _RANGES[naive.tzinfo is not None]
    if not inner_first <= naive < inner_last and not (
            first <= naive < last and _FIRST_S <= _utc_s([naive], tz)[0] < _LAST_S):
        raise ContractError(f"timestamp '{text}' is out of range")
    return naive


def _utc_s(stamps: Sequence[dt.datetime], tz: str) -> List[float]:
    """UTC seconds of datetimes: a naive one is wall time in tz, an aware one
    names its own UTC offset."""
    utc = from_wall_us([(stamp - _NAIVE_EPOCH) // _ONE_US if stamp.tzinfo is None else 0
                        for stamp in stamps], tz)
    return [ts if stamp.tzinfo is None else stamp.timestamp()
            for ts, stamp in zip(utc.tolist(), stamps)]


def format_timestamp(timestamp_s: float, tz: str = DEFAULT_TIMEZONE) -> str:
    return _wall_texts(to_wall_us([timestamp_s], tz))[0]


def _wall_texts(wall_us: np.ndarray) -> List[str]:
    """'YYYY-MM-DD HH:MM:SS[.ffffff]' of wall times, as datetime.isoformat
    spells them: a zero fraction is left out."""
    texts = np.datetime_as_string(wall_us.astype("datetime64[us]"), unit="us").tolist()
    return [f"{text[:10]} {text[11:] if us % _US else text[11:19]}"
            for text, us in zip(texts, wall_us.tolist())]


# Array conversions between UTC and a zone's local wall time. A wall time is
# an int64 count of microseconds since 1970-01-01 00:00 on the zone's clock.
# A zone's offset changes only at its transitions, which fall on whole seconds
# but not always on the hour, so the offset is looked up at the start and the
# end of every distinct hour the stamps fall in (an hour's end is the next
# one's start), and once per stamp only in an hour where those two differ.

_US = 1_000_000
_HOUR_US = 3600 * _US
DAY_US = 86400 * _US
_ONE_S = dt.timedelta(seconds=1)
_ONE_US = dt.timedelta(microseconds=1)
_NAIVE_EPOCH = dt.datetime(1970, 1, 1)
_EPOCH_ORDINAL = _NAIVE_EPOCH.toordinal()
# The range of the UTC times and the wall times the conversions take: a day
# inside datetime's range at either end, so that no offset (less than a day)
# takes a time or the end of its hour out of it
_FIRST, _LAST = dt.datetime(1, 1, 2), dt.datetime(9999, 12, 31)
_FIRST_US, _LAST_US = ((t - _NAIVE_EPOCH) // _ONE_US for t in (_FIRST, _LAST))
_FIRST_S, _LAST_S = _FIRST_US / _US, _LAST_US / _US
_FIRST_UTC, _LAST_UTC = (t.replace(tzinfo=dt.timezone.utc) for t in (_FIRST, _LAST))
# The ends of a text's range, naive or aware, and between them the ends of
# the stamps more than any offset away from both, which convert inside it.
# Nearer an end, the zone's offset or the rounding to a float second can take
# the UTC second out, so _parse_datetime checks that second itself.
_MARGIN = dt.timedelta(days=2)
_RANGES = {aware: (first, first + _MARGIN, last - _MARGIN, last)
           for aware, first, last in ((False, _FIRST, _LAST), (True, _FIRST_UTC, _LAST_UTC))}
# int64 microseconds convert to float64 exactly up to this magnitude
_EXACT_US = 2**53


def _hourly_offsets_us(clock_us: np.ndarray, offset_s) -> np.ndarray:
    """offset_s(second), the zone's offset in whole seconds at a whole second
    of the clock that `clock_us` counts, for every stamp, in microseconds."""
    hours, inverse = np.unique(clock_us // _HOUR_US, return_inverse=True)
    first = np.array([offset_s(h * 3600) for h in hours.tolist()], dtype=np.int64)
    last = np.empty_like(first)
    last[:-1] = first[1:]  # the next hour's start, right where that hour is this one's end
    alone = np.flatnonzero(np.diff(hours, append=hours[-1:] + 2) != 1)  # the last of a run
    last[alone] = [offset_s((h + 1) * 3600) for h in hours[alone].tolist()]
    offsets = first[inverse]
    mixed = np.flatnonzero((first != last)[inverse])
    offsets[mixed] = [offset_s(s) for s in (clock_us[mixed] // _US).tolist()]
    return offsets * _US


def to_wall_us(timestamps_s, tz: str = DEFAULT_TIMEZONE) -> np.ndarray:
    """Local wall times of UTC timestamps (seconds). A fraction rounds
    half-even to the microsecond, as datetime.fromtimestamp rounds it."""
    zone = ZoneInfo(tz)
    stamps = np.asarray(timestamps_s, dtype=np.float64)
    out_of_range = ~((stamps >= _FIRST_S) & (stamps < _LAST_S))  # NaN included
    if out_of_range.any():
        bad = float(stamps[out_of_range][0])
        dt.datetime.fromtimestamp(bad, zone)  # raises for NaN, infinity, years past 9999
        raise ValueError(f"timestamp {bad} is out of range")
    frac, whole = np.modf(stamps)
    utc = whole.astype(np.int64) * _US + np.rint(frac * _US).astype(np.int64)
    return utc + _hourly_offsets_us(
        utc, lambda s: dt.datetime.fromtimestamp(s, zone).utcoffset() // _ONE_S)


def from_wall_us(wall_us, tz: str = DEFAULT_TIMEZONE) -> np.ndarray:
    """UTC timestamps (seconds) of local wall times, as aware datetimes'
    .timestamp() gives them: a time the clocks skip or repeat reads with
    fold=0 (PEP 495), and the quotient is the correctly rounded one."""
    zone = ZoneInfo(tz)
    wall = np.asarray(wall_us, dtype=np.int64)
    out_of_range = (wall < _FIRST_US) | (wall >= _LAST_US)
    if out_of_range.any():
        raise ValueError(f"wall time {int(wall[out_of_range][0])} us is out of range")
    # ZoneInfo.utcoffset reads a naive datetime as wall time, with its fold
    utc = wall - _hourly_offsets_us(
        wall, lambda s: zone.utcoffset(_NAIVE_EPOCH + dt.timedelta(seconds=s)) // _ONE_S)
    out = utc / _US
    wide = np.flatnonzero(np.abs(utc) > _EXACT_US)
    out[wide] = [us / _US for us in utc[wide].tolist()]  # Python ints divide exactly
    return out


def falls_on(wall_us: np.ndarray, dates: Iterable[dt.date]) -> np.ndarray:
    """Whether each local wall time falls on one of the calendar dates."""
    return np.isin(wall_us // DAY_US, [d.toordinal() - _EPOCH_ORDINAL for d in dates])


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
    burst_len: Optional[int] = None,
) -> List[VibrationRecord]:
    """Three numeric columns (X, Y, Z) per row, optional one-line header.

    Returns one unlabeled record for the whole file, starting at t = 0, or
    fixed-length bursts when burst_len is given (a short trailing remainder is
    kept as its own burst).
    """
    if not 0 < sample_rate_hz < np.inf:
        raise ContractError(f"sample rate must be positive and finite, got {sample_rate_hz}")
    if burst_len is not None and burst_len < 1:
        raise ContractError(f"burst_len must be >= 1, got {burst_len}")
    blocks, tokens, lines = [], [], []  # converted blocks; the next block's tokens and lines
    with open(path, newline="") as fh, _reading(path):
        reader = csv.reader(fh)
        try:
            for row in reader:
                lineno = reader.line_num  # a quoted line break makes records and lines differ
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if lineno == 1 and not any(map(_looks_numeric, row)):
                    continue  # header row: a numeric field makes it a (malformed) data row
                if len(row) != 3:
                    raise ContractError(f"expected 3 columns, got {len(row)} (line {lineno})")
                tokens += row
                lines.append(lineno)
                if len(lines) == _BLOCK_ROWS:
                    block, tokens, lines = (tokens, lines), [], []
                    blocks.append(_parse_floats(*block))
        except _ROW_ERRORS:
            _parse_floats(tokens, lines)  # raises for a bad number above the row
            raise
    blocks.append(_parse_floats(tokens, lines))
    xyz = np.concatenate(blocks).reshape(-1, 3)
    del blocks  # gone before the per-axis copy is made
    if not len(xyz):
        raise ContractError(f"no data rows in {path}")
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
                start_s=lo / sample_rate_hz,
                sample_rate_hz=sample_rate_hz,
                x=x[lo:hi],
                y=y[lo:hi],
                z=z[lo:hi],
                operating_point=operating_point,
            )
        )
    return records


def _looks_numeric(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


# The CSV writers emit the lines csv.writer would: comma-separated, each ended
# by "\r\n", no field quoted. Float reprs and ISO timestamps never hold a
# comma, a quote or a line break, so no field needs quoting.

def write_triaxial_csv(records: Sequence[VibrationRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("X,Y,Z\r\n")
        for rec in records:
            fh.writelines(f"{x!r},{y!r},{z!r}\r\n"
                          for x, y, z in zip(rec.x.tolist(), rec.y.tolist(), rec.z.tolist()))


def parse_process_csv(path, tz: str = DEFAULT_TIMEZONE) -> ProcessTable:
    """Header must carry the timestamp plus the seven measurement columns.
    Rows come back sorted by ascending timestamp, equal ones in file order."""
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
        # converted blocks of UTC seconds and of measurements; the next block's
        # stamps, measurement tokens and lines
        times, blocks, stamps, tokens, lines = [], [], [], [], []
        try:
            for row in reader:
                lineno = reader.line_num
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) < len(header):
                    raise ContractError(f"short row (line {lineno})")
                try:
                    stamps.append(_parse_datetime(row[timestamp_at], tz))
                except ContractError as exc:
                    raise ContractError(f"{exc} (line {lineno})") from exc
                tokens += measurements(row)
                lines.append(lineno)
                if len(lines) == _BLOCK_ROWS:
                    block, tokens, lines = (tokens, lines), [], []
                    blocks.append(_parse_floats(*block))
                    times.append(np.array(_utc_s(stamps, tz), dtype=np.float64))
                    stamps = []
        except _ROW_ERRORS:
            _parse_floats(tokens, lines)  # raises for a bad number above the row
            raise
        blocks.append(_parse_floats(tokens, lines))
        times.append(np.array(_utc_s(stamps, tz), dtype=np.float64))
    times = np.concatenate(times)
    order = np.argsort(times, kind="stable")  # equal times keep file order, as list.sort does
    values = np.concatenate(blocks).reshape(-1, len(PROCESS_MEASUREMENT_COLUMNS))
    del blocks  # gone before the reordered copy is made
    return ProcessTable(times[order], values[order])


def write_process_csv(rows, path, tz: str = DEFAULT_TIMEZONE) -> None:
    """Writes a ProcessTable, or a sequence of ProcessRows, in table order."""
    if not isinstance(rows, ProcessTable):
        columns = np.array(rows, dtype=np.float64).reshape(-1, len(PROCESS_HEADER))
        rows = ProcessTable(columns[:, 0], columns[:, 1:])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(PROCESS_HEADER) + "\r\n")
        for lo in range(0, len(rows), _BLOCK_ROWS):
            block = rows[lo : lo + _BLOCK_ROWS]
            texts = _wall_texts(to_wall_us(block.timestamps_s, tz))
            fh.writelines(f"{text},{','.join(map(repr, values))}\r\n"
                          for text, values in zip(texts, block.values.tolist()))


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
        try:
            start = parse_timestamp(group[0], tz)
        except ContractError as exc:
            raise ContractError(f"{exc} (record {g + 1})") from exc
        axes = []
        for axis, line in zip("xyz", group[1:4]):
            tokens = line.replace(",", " ").split()
            if len(tokens) != PHARMA_POINTS_PER_AXIS:
                raise ContractError(
                    f"{axis}-axis: expected {PHARMA_POINTS_PER_AXIS}, "
                    f"got {len(tokens)} (record {g + 1})"
                )
            axes.append(_parse_floats(tokens, [f"record {g + 1}, {axis}-axis"], "{}"))
        dt_s = _parse_float(group[4].strip(), f"record {g + 1}, line 5")
        records.append(PharmaRecord(start, *axes, dt_s))
    return records


def write_pharma_txt(records: Sequence[PharmaRecord], path, tz: str = DEFAULT_TIMEZONE) -> None:
    starts = _wall_texts(to_wall_us([rec.start_s for rec in records], tz))
    with open(path, "w") as fh:
        for start, rec in zip(starts, records):
            fh.write(start + "\n")
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

    def off_at(self, wall_us: np.ndarray) -> np.ndarray:
        """Whether each local wall time in this schedule's zone falls in the off window."""
        days, us = np.divmod(wall_us, DAY_US)
        hour, second = np.divmod(us // _US, 3600)
        minute, second = np.divmod(second, 60)
        weekday = (days + 3) % 7  # 1970-01-01 was a Thursday
        pos = weekday * 24.0 + hour + minute / 60.0 + second / 3600.0
        start = self.off_start_weekday * 24.0 + self.off_start_hour
        end = self.off_end_weekday * 24.0 + self.off_end_hour
        if start <= end:
            return (start <= pos) & (pos < end)
        return (pos >= start) | (pos < end)


def label_process_rows(
    rows: ProcessTable,
    abnormal_dates: Iterable[dt.date] = DEFAULT_ABNORMAL_DATES,
    schedule: WeeklySchedule = WeeklySchedule(),
) -> ProcessTable:
    """The rows, labeled: Abnormal on listed calendar days (whole day), Off
    inside the weekly shutdown window, On otherwise."""
    wall = to_wall_us(rows.timestamps_s, schedule.tz)
    states = np.where(falls_on(wall, abnormal_dates), MachineState.ABNORMAL,
                      np.where(schedule.off_at(wall), MachineState.OFF, MachineState.ON))
    return ProcessTable(rows.timestamps_s, rows.values, states)


#: The span after each process row's time that its aligned vibration records
#: start in: the process data's 5-minute cadence.
ALIGN_BUCKET_S = 300.0


@dataclass(frozen=True)
class AlignedDataset:
    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple
    n_dropped_buckets: int


def align_and_impute(
    vibration: Sequence[VibrationRecord],
    labeled_process: ProcessTable,
) -> AlignedDataset:
    """Join vibration and process data on the process timestamps.

    Each process row owns the bucket [t, t + ALIGN_BUCKET_S); vibration records
    starting inside it contribute their 15 time-domain features, aggregated by
    per-feature median. Process measurements are appended and the machine
    state is carried from the process row. Empty buckets are dropped and
    counted. Every record's features are checked, also a record no bucket takes.
    """
    if not vibration or not len(labeled_process):
        raise ContractError("both vibration and process sequences must be nonempty")
    if labeled_process.states is None:
        raise ContractError("the process rows must be labeled")
    vib_sorted = sorted(vibration, key=lambda r: r.start_s)
    starts = np.array([r.start_s for r in vib_sorted])
    order = np.argsort(labeled_process.timestamps_s, kind="stable")
    times = labeled_process.timestamps_s[order]
    lo = np.searchsorted(starts, times, side="left")
    hi = np.searchsorted(starts, times + ALIGN_BUCKET_S, side="left")
    # every record's features, one call per record length
    lengths = np.array([len(r) for r in vib_sorted])
    feats = np.empty((len(starts), len(TRIAXIAL_FEATURE_NAMES)))
    for n in np.unique(lengths).tolist():
        at = np.flatnonzero(lengths == n)
        axes = np.stack([(vib_sorted[i].x, vib_sorted[i].y, vib_sorted[i].z) for i in at.tolist()])
        feats[at] = extract_time_domain(axes).reshape(len(at), -1)
    kept = np.flatnonzero(hi > lo)
    if not len(kept):
        raise ContractError("no temporal overlap between vibration and process data")
    medians = [np.median(feats[a:b], axis=0) for a, b in zip(lo[kept].tolist(), hi[kept].tolist())]
    return AlignedDataset(
        features=np.concatenate([np.stack(medians), labeled_process.values[order[kept]]], axis=1),
        labels=labeled_process.states[order[kept]].astype(np.int64),
        feature_names=TRIAXIAL_FEATURE_NAMES + PROCESS_MEASUREMENT_COLUMNS,
        n_dropped_buckets=len(times) - len(kept),
    )
