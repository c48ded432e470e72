"""Property tests of the three data-file parsers: whatever bytes a file holds,
parsing returns records or raises ContractError, and records the writers
produce come back byte-identical through write -> parse -> write."""

import datetime as dt
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vibrosense import ingest, synth
from vibrosense.core import ContractError, DefectLabel, OperatingPoint, VibrationRecord

FEW = settings(max_examples=60, deadline=None, database=None, derandomize=True)

PARSERS = {
    "triaxial": lambda path: ingest.parse_triaxial_csv(path, 3200.0, OperatingPoint(rpm=300)),
    "process": ingest.parse_process_csv,
    "pharma": ingest.parse_pharma_txt,
}

finite = st.floats(allow_nan=False, allow_infinity=False)
# whole microseconds between 2000 and 2040, the resolution the writers keep
timestamps = st.integers(946_684_800_000_000, 2_208_988_800_000_000).map(lambda us: us / 1e6)
TOKENS = ["1.5", "-2", "0", "nan", "inf", "1e400", "x", "", " ", "2022-02-01 00:00:00",
          "2/1/2022 0:05", "X", "Timestamp", ",", '"']


def _unambiguous(timestamp_s: float) -> bool:
    """True unless the local wall time repeats when clocks fall back: the files
    carry no UTC offset, so such a time parses as its first occurrence."""
    local = dt.datetime.fromtimestamp(timestamp_s, ZoneInfo(ingest.DEFAULT_TIMEZONE))
    return local.replace(fold=0).utcoffset() == local.replace(fold=1).utcoffset()


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """One small file the writer made, per format: the seeds of the mutations."""
    base = tmp_path_factory.mktemp("valid")
    record = synth.generate_vibration(synth.SynthConfig(
        rpm=300, sample_rate_hz=3200.0, duration_s=1.0, imbalance_level=DefectLabel.NORMAL))
    n = ingest.PHARMA_POINTS_PER_AXIS
    ingest.write_triaxial_csv([VibrationRecord(0.0, 3200.0, record.x[:20], record.y[:20],
                                               record.z[:20], OperatingPoint(rpm=300))],
                              base / "triaxial")
    ingest.write_process_csv([r for r, _ in synth.generate_process(days=1)[:24]], base / "process")
    ingest.write_pharma_txt([ingest.PharmaRecord(1.6e9, record.x[:n], record.y[:n],
                                                 record.z[:n], 1 / 3200)], base / "pharma")
    return {fmt: (base / fmt).read_bytes() for fmt in PARSERS}


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "file"


def _parses_or_contract_error(path, fmt, content):
    path.write_bytes(content)
    try:
        PARSERS[fmt](path)
    except ContractError:
        pass


@pytest.mark.parametrize("fmt", PARSERS)
def test_any_bytes_parse_or_contract_error(path, fmt):
    token_lines = st.lists(st.lists(st.sampled_from(TOKENS), max_size=9), max_size=6).map(
        lambda rows: "\n".join(",".join(row) for row in rows).encode())

    @FEW
    @given(content=st.binary(max_size=64) | token_lines)
    def check(content):
        _parses_or_contract_error(path, fmt, content)

    check()


@pytest.mark.parametrize("fmt", PARSERS)
def test_mutated_file_parses_or_contract_error(path, valid_files, fmt):
    good = valid_files[fmt]

    @FEW
    @given(at=st.integers(0, len(good)), cut=st.integers(0, 8), insert=st.binary(max_size=4))
    def check(at, cut, insert):
        _parses_or_contract_error(path, fmt, good[:at] + insert + good[at + cut:])

    check()


def _value_by_value(tokens, where):
    """The reference: each token through _parse_float, the result or the error."""
    try:
        return [ingest._parse_float(token, where) for token in tokens]
    except ContractError as exc:
        return str(exc)


@FEW
@given(tokens=st.lists(st.sampled_from(TOKENS + ["-inf", "1e-400", "1_0", " 2 ", "NaN"])
                       | finite.map(repr), min_size=1, max_size=6))
def test_row_conversion_matches_value_by_value(tokens):
    try:
        got = ingest._parse_floats(tokens, "line 7")
    except ContractError as exc:
        got = str(exc)
    assert repr(got) == repr(_value_by_value(tokens, "line 7"))  # repr tells -0.0 from 0.0


@pytest.mark.parametrize("fmt", ["triaxial", "process"])
def test_field_over_csv_limit_is_contract_error(path, fmt):
    path.write_bytes(b"1" * 200_000)
    with pytest.raises(ContractError, match="malformed CSV"):
        PARSERS[fmt](path)


def _round_trip(path, write, records, parse):
    """The bytes of write -> parse -> write equal those of the first write."""
    write(records, path)
    first = path.read_bytes()
    write(parse(path), path)
    assert path.read_bytes() == first


@FEW
@given(rows=hnp.arrays(np.float64, st.tuples(st.integers(1, 30), st.just(3)), elements=finite))
def test_triaxial_round_trip(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("tri") / "v.csv"
    record = VibrationRecord(0.0, 3200.0, rows[:, 0], rows[:, 1], rows[:, 2],
                             OperatingPoint(rpm=300))
    _round_trip(path, ingest.write_triaxial_csv, [record], PARSERS["triaxial"])


@settings(FEW, max_examples=15)
@given(starts=st.lists(timestamps, min_size=1, max_size=2),
       dt_s=st.floats(min_value=1e-9, max_value=1e3), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-300, 1e-3, 1.0, 1e300]))
def test_pharma_round_trip(tmp_path_factory, starts, dt_s, seed, scale):
    assume(all(map(_unambiguous, starts)))
    path = tmp_path_factory.mktemp("pharma") / "v.txt"
    rng = np.random.default_rng(seed)
    n = ingest.PHARMA_POINTS_PER_AXIS
    records = [ingest.PharmaRecord(s, *(rng.standard_normal((3, n)) * scale), dt_s)
               for s in starts]
    _round_trip(path, ingest.write_pharma_txt, records, PARSERS["pharma"])


@FEW
@given(rows=st.lists(st.tuples(timestamps, st.lists(finite, min_size=7, max_size=7)),
                     min_size=1, max_size=8))
def test_process_round_trip(tmp_path_factory, rows):
    assume(all(_unambiguous(ts) for ts, _ in rows))
    path = tmp_path_factory.mktemp("process") / "p.csv"
    rows = sorted((ingest.ProcessRow(ts, *values) for ts, values in rows),
                  key=lambda r: r.timestamp_s)
    _round_trip(path, ingest.write_process_csv, rows, PARSERS["process"])
