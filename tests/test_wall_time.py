"""The array conversions between UTC and local wall time, and what is built
on them (the process and pharma writers and parsers, parse_timestamp and
format_timestamp, the labeler, the truth rule and the generator), against
per-stamp datetime and ZoneInfo references. The zones cover transitions on and
off the UTC hour (Lord Howe shifts by 30 minutes at 15:30 UTC), offsets that
are not whole hours (Kolkata +05:30, Monrovia -00:44:30), stamps before 1970,
and fractions of a microsecond, half-microsecond ties included."""

import datetime as dt
from zoneinfo import ZoneInfo

import numpy as np
import pytest

from vibrosense import anomaly, ingest, synth
from vibrosense.core import ContractError, MachineState, TimeSeries
from vibrosense.ingest import ProcessRow, WeeklySchedule

NAIVE_EPOCH = dt.datetime(1970, 1, 1)
ONE_US = dt.timedelta(microseconds=1)

#: (zone, local days around its transitions)
CASES = [
    ("America/New_York", [dt.date(2022, 3, 13), dt.date(2022, 11, 6)]),
    ("America/New_York", [dt.date(1966, 4, 24), dt.date(1966, 10, 30)]),  # before 1970
    ("Australia/Lord_Howe", [dt.date(2022, 4, 3), dt.date(2022, 10, 2)]),
    ("Asia/Kolkata", [dt.date(1941, 10, 1), dt.date(1942, 5, 14), dt.date(2022, 6, 1)]),
    ("Africa/Monrovia", [dt.date(1971, 6, 1), dt.date(1972, 1, 7)]),
]
IDS = ["new_york", "new_york_1966", "lord_howe", "kolkata", "monrovia"]


def _utc_stamps(tz, days):
    """Every 97 s over a day and a half around each day's local midnight, every
    second of the 97 before each transition, and a stamp per hour with a
    fraction of an exact half microsecond (odd/128 s) or an arbitrary one."""
    zone = ZoneInfo(tz)
    stamps = []
    for day in days:
        start = dt.datetime.combine(day, dt.time(), zone).timestamp() - 6 * 3600.0
        grid = start + 97.0 * np.arange(36 * 3600 // 97)
        offsets = [dt.datetime.fromtimestamp(t, zone).utcoffset() for t in grid.tolist()]
        for t, before, after in zip(grid[1:].tolist(), offsets, offsets[1:]):
            if before != after:
                stamps += (t - np.arange(98.0)).tolist()
        hours = start + 3600.0 * np.arange(36)
        stamps += grid.tolist()
        stamps += (hours + np.arange(1, 73, 2) / 128).tolist()
        stamps += (hours + 1777.0 + np.linspace(0.0, 0.999_999_9, 36)).tolist()
    return np.array(stamps)


def _ref_wall_us(timestamp_s, zone):
    local = dt.datetime.fromtimestamp(timestamp_s, zone).replace(tzinfo=None)
    return (local - NAIVE_EPOCH) // ONE_US


def _wall_stamps(days):
    """Every minute of each local day, skipped and repeated ones included,
    and every tenth minute again with a fraction of a second."""
    wall = []
    for day in days:
        midnight = (dt.datetime.combine(day, dt.time()) - NAIVE_EPOCH) // ONE_US
        minutes = [midnight + m * 60_000_000 for m in range(24 * 60)]
        wall += minutes + [w + 1 + 7919 * i for i, w in enumerate(minutes[::10])]
    return np.array(wall, dtype=np.int64)


def _ref_from_wall(wall_us, zone):
    return (NAIVE_EPOCH + wall_us * ONE_US).replace(tzinfo=zone).timestamp()


@pytest.mark.parametrize("tz,days", CASES, ids=IDS)
def test_to_wall_us_matches_per_stamp_reference(tz, days):
    zone = ZoneInfo(tz)
    stamps = _utc_stamps(tz, days)
    got = ingest.to_wall_us(stamps, tz)
    assert got.dtype == np.int64
    assert got.tolist() == [_ref_wall_us(t, zone) for t in stamps.tolist()]


@pytest.mark.parametrize("tz,days", CASES, ids=IDS)
def test_from_wall_us_matches_per_stamp_reference(tz, days):
    zone = ZoneInfo(tz)
    wall = _wall_stamps(days)
    got = ingest.from_wall_us(wall, tz)
    assert got.tolist() == [_ref_from_wall(w, zone) for w in wall.tolist()]


def test_half_microsecond_ties_round_to_even():
    ties = np.array([1 / 128, 3 / 128, -1 / 128, -3 / 128, 1.6e9 + 5 / 128, -2e8 - 7 / 128])
    got = ingest.to_wall_us(ties, "UTC")
    assert got.tolist() == [_ref_wall_us(t, ZoneInfo("UTC")) for t in ties.tolist()]
    assert got[:4].tolist() == [7812, 23438, -7812, -23438]  # 7812.5 -> 7812, 23437.5 -> 23438


def test_wide_wall_times_divide_exactly():
    # beyond 2**53 microseconds int64 -> float64 rounds, so such times divide
    # as Python ints do
    wall = np.array([2**53 + 1, 2**55 + 3, -(2**54) - 1, 2**54 + 5_000_000], dtype=np.int64)
    got = ingest.from_wall_us(wall, "UTC")
    assert got.tolist() == [_ref_from_wall(w, ZoneInfo("UTC")) for w in wall.tolist()]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 1e13, -1e12])
def test_to_wall_us_rejects_what_fromtimestamp_rejects(bad):
    with pytest.raises((ValueError, OverflowError, OSError)):
        dt.datetime.fromtimestamp(bad, ZoneInfo("UTC"))
    with pytest.raises((ValueError, OverflowError, OSError)):
        ingest.to_wall_us([0.0, bad], "UTC")


def test_empty_input():
    assert ingest.to_wall_us([], "UTC").shape == (0,)
    assert ingest.from_wall_us([], "UTC").shape == (0,)
    labeled = ingest.label_process_rows(ingest.ProcessTable([], np.empty((0, 7))))
    assert len(labeled) == 0 and list(labeled) == []


def _rows(stamps):
    """One process row per stamp; Air Pressure 1 holds the row's index."""
    return [ProcessRow(t, float(i), 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
            for i, t in enumerate(stamps.tolist())]


def _table(stamps):
    """_rows(stamps) as a table."""
    return ingest.ProcessTable(stamps, [row[1:] for row in _rows(stamps)])


def _ref_format_local(timestamp_s, zone):
    """The datetime formatting the array path replaced."""
    return dt.datetime.fromtimestamp(timestamp_s, zone).replace(tzinfo=None).isoformat(sep=" ")


def _ref_parse_local(text, zone):
    """The datetime parsing the array path replaced: a naive text is wall time
    in the zone (fold=0), an aware one keeps its own offset."""
    stamp = ingest._parse_datetime(text, zone.key)
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=zone)
    return stamp.timestamp()


@pytest.mark.parametrize("tz,days", CASES, ids=IDS)
def test_write_process_csv_matches_datetime_reference(tmp_path, tz, days):
    zone = ZoneInfo(tz)
    stamps = _utc_stamps(tz, days)
    path = tmp_path / "p.csv"
    ingest.write_process_csv(_rows(stamps), path, tz=tz)
    texts = [line.split(",")[0] for line in path.read_text().splitlines()[1:]]
    want = [_ref_format_local(t, zone) for t in stamps.tolist()]
    assert texts == want
    assert [ingest.format_timestamp(t, tz) for t in stamps[::40].tolist()] == want[::40]


def _wall_texts(days):
    texts = [(NAIVE_EPOCH + w * ONE_US).isoformat(sep=" ") for w in _wall_stamps(days).tolist()]
    return texts + ["1/2/1969 3:04", "2022-01-03T10:00:00+05:30"]  # the second names its offset


@pytest.mark.parametrize("tz,days", CASES, ids=IDS)
def test_parse_process_csv_matches_datetime_reference(tmp_path, tz, days):
    zone = ZoneInfo(tz)
    texts = _wall_texts(days)
    path = tmp_path / "p.csv"
    path.write_text(",".join(ingest.PROCESS_HEADER) + "\n"
                    + "".join(f"{text},{i},1,2,3,4,5,6\n" for i, text in enumerate(texts)))
    rows = ingest.parse_process_csv(path, tz=tz)
    got = {int(row.air_pressure_1): row.timestamp_s for row in rows}
    want = {i: _ref_parse_local(text, zone) for i, text in enumerate(texts)}
    assert got == want
    assert [row.timestamp_s for row in rows] == sorted(got.values())
    assert [ingest.parse_timestamp(text, tz) for text in texts[::40]] == [
        want[i] for i in range(0, len(texts), 40)]


#: (zone, its two daylight-saving changes in 2022)
DST = [("America/New_York", [dt.date(2022, 3, 13), dt.date(2022, 11, 6)]),
       ("Australia/Lord_Howe", [dt.date(2022, 4, 3), dt.date(2022, 10, 2)])]


def _pharma_file(path, starts):
    zeros = " ".join(["0"] * ingest.PHARMA_POINTS_PER_AXIS)
    path.write_text("".join(f"{start}\n{zeros}\n{zeros}\n{zeros}\n0.5\n" for start in starts))


@pytest.mark.parametrize("tz,days", DST, ids=["new_york", "lord_howe"])
def test_pharma_start_times_match_datetime_reference(tmp_path, tz, days):
    """Start times every 5 minutes from 00:00 to 04:00 on both change days,
    skipped and repeated ones included, some with a fraction, and a text that
    names its own offset; and UTC starts every 150 s around each change."""
    zone = ZoneInfo(tz)
    texts = [f"{day} {m // 60:02d}:{m % 60:02d}:00{'.25' * (m % 15 == 5)}"
             for day in days for m in range(0, 241, 5)] + ["2022-03-13T02:30:00-05:00"]
    path = tmp_path / "starts.txt"
    _pharma_file(path, texts)
    assert [rec.start_s for rec in ingest.parse_pharma_txt(path, tz)] == [
        _ref_parse_local(text, zone) for text in texts]

    midnights = [dt.datetime.combine(day, dt.time(), zone).timestamp() for day in days]
    stamps = [m + 150.0 * k + 0.5 * (k % 3 == 1) for m in midnights for k in range(-40, 160)]
    zeros = np.zeros(ingest.PHARMA_POINTS_PER_AXIS)
    ingest.write_pharma_txt([ingest.PharmaRecord(t, zeros, zeros, zeros, 0.5) for t in stamps],
                            path, tz)
    assert path.read_text().split("\n")[::5][:-1] == [_ref_format_local(t, zone) for t in stamps]


def test_one_range_for_both_directions():
    """UTC times and wall times alike must lie in [0001-01-02, 9999-12-31), a
    day inside datetime's range at either end."""
    first, last = (dt.datetime(1, 1, 2) - NAIVE_EPOCH) // ONE_US, (
        dt.datetime(9999, 12, 31) - NAIVE_EPOCH) // ONE_US
    assert ingest.to_wall_us([first / 1e6, last / 1e6 - 1], "UTC").tolist() == [first, last - 10**6]
    assert ingest.from_wall_us([first, last - 1], "UTC").tolist() == [first / 1e6, (last - 1) / 1e6]
    for bad in [first / 1e6 - 1, last / 1e6, 253402300799.0]:  # the last: 9999-12-31 23:59:59 UTC
        with pytest.raises(ValueError, match="out of range"):
            ingest.format_timestamp(bad, "UTC")
    for bad in [first - 1, last]:
        with pytest.raises(ValueError, match="out of range"):
            ingest.from_wall_us([0, bad], "UTC")
    assert ingest.parse_timestamp("9999-12-30 23:59:59", "UTC") == last / 1e6 - 1
    assert ingest.format_timestamp(last / 1e6 - 1, "UTC") == "9999-12-30 23:59:59"
    assert ingest.parse_timestamp("0001-01-02T00:00:00", "UTC") == first / 1e6
    assert ingest.format_timestamp(first / 1e6, "UTC") == "0001-01-02 00:00:00"
    for text in ["9999-12-31 00:00:00", "0001-01-01 23:59:59.999999"]:
        with pytest.raises(ContractError, match="out of range"):
            ingest.parse_timestamp(text, "UTC")


def test_new_york_skipped_and_repeated_hours_read_with_fold_0(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(",".join(ingest.PROCESS_HEADER) + "\n"
                    "2022-03-13 02:30:00,0,1,2,3,4,5,6\n"  # skipped: reads as 03:30 EDT
                    "2022-11-06 01:30:00,1,1,2,3,4,5,6\n")  # repeated: the first, EDT
    skipped, repeated = (row.timestamp_s for row in ingest.parse_process_csv(path))
    assert skipped == dt.datetime(2022, 3, 13, 7, 30, tzinfo=dt.timezone.utc).timestamp()
    assert repeated == dt.datetime(2022, 11, 6, 5, 30, tzinfo=dt.timezone.utc).timestamp()


def _ref_is_off(schedule, local):
    pos = local.weekday() * 24.0 + local.hour + local.minute / 60.0 + local.second / 3600.0
    start = schedule.off_start_weekday * 24.0 + schedule.off_start_hour
    end = schedule.off_end_weekday * 24.0 + schedule.off_end_hour
    if start <= end:
        return start <= pos < end
    return pos >= start or pos < end


def _ref_label_process_rows(rows, abnormal_dates, schedule):
    """The per-row labeling loop the array version replaced."""
    abnormal = set(abnormal_dates)
    zone = ZoneInfo(schedule.tz)
    out = []
    for row in rows:
        local = dt.datetime.fromtimestamp(row.timestamp_s, zone)
        if local.date() in abnormal:
            state = MachineState.ABNORMAL
        elif _ref_is_off(schedule, local):
            state = MachineState.OFF
        else:
            state = MachineState.ON
        out.append((row, state))
    return out


@pytest.mark.parametrize("tz,days", CASES, ids=IDS)
@pytest.mark.parametrize("window", [(6, 1.5, 6, 2.75), (6, 2.25, 0, 1.0), (3, 0.0, 3, 24.0)],
                         ids=["sunday_night", "wrapping", "wednesday"])
def test_label_process_rows_matches_per_row_reference(tz, days, window):
    rows = _table(_utc_stamps(tz, days))
    schedule = WeeklySchedule(*window, tz=tz)
    abnormal = {days[0], dt.date(1942, 5, 15)}
    got = ingest.label_process_rows(rows, abnormal, schedule)
    want = _ref_label_process_rows(rows, abnormal, schedule)
    assert list(got) == want
    assert all(type(state) is MachineState for _, state in got)


@pytest.mark.parametrize("tz,days", CASES, ids=IDS)
def test_off_at_matches_per_stamp_reference(tz, days):
    schedule = WeeklySchedule(6, 1.5, 6, 2.75, tz=tz)
    stamps = _utc_stamps(tz, days)[::50].tolist()
    assert schedule.off_at(ingest.to_wall_us(stamps, tz)).tolist() == [
        _ref_is_off(schedule, dt.datetime.fromtimestamp(t, ZoneInfo(tz))) for t in stamps]


@pytest.mark.parametrize("tz,days", CASES, ids=IDS)
def test_date_ranges_truth_matches_per_point_reference(tz, days):
    zone = ZoneInfo(tz)
    start = dt.datetime.combine(days[0], dt.time(), zone).timestamp() - 2 * 3600.0 + 0.25
    dataset = anomaly.AnomalyDataset(
        name="p", series=TimeSeries(start_s=start, interval_s=299.7, values=np.zeros(400)),
        truth_rule=anomaly.TruthRule.DATE_RANGES, abnormal_dates=frozenset(days), tz=tz)
    flags = anomaly.ground_truth_labels(dataset)
    want = [dt.datetime.fromtimestamp(t, zone).date() in days
            for t in dataset.series.timestamps()]
    assert flags.dtype == bool and flags.tolist() == want
    assert 0 < flags.sum() < len(flags)


@pytest.mark.parametrize("interval_s", [300.0, 299.7, 86400 / 7])
@pytest.mark.parametrize("tz,start", [("America/New_York", dt.date(2022, 3, 10)),
                                      ("Australia/Lord_Howe", dt.date(2022, 9, 29))])
def test_generate_process_stamps_and_states_match_per_row_reference(interval_s, tz, start):
    schedule = WeeklySchedule(tz=tz)
    failure = start + dt.timedelta(days=1)
    labeled = synth.generate_process(days=5, failure_days=[failure], seed=4, start_date=start,
                                     schedule=schedule, interval_s=interval_s)
    zone = ZoneInfo(tz)
    start_local = dt.datetime.combine(start, dt.time(0, 0), tzinfo=zone)
    per_day = int(round(86400 / interval_s))
    want = []
    for day_i in range(5):
        for k in range(per_day):
            ts = (start_local + dt.timedelta(days=day_i, seconds=k * interval_s)).timestamp()
            if start + dt.timedelta(days=day_i) == failure:
                state = MachineState.ABNORMAL
            elif _ref_is_off(schedule, dt.datetime.fromtimestamp(ts, zone)):
                state = MachineState.OFF
            else:
                state = MachineState.ON
            want.append((ts, state))
    assert [(row.timestamp_s, state) for row, state in labeled] == want
    assert all(type(row.timestamp_s) is float for row, _ in labeled)
