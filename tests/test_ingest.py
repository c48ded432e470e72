import datetime as dt
import hashlib
import tracemalloc

import numpy as np
import pytest

from vibrosense import synth
from vibrosense.core import ContractError, DefectLabel, MachineState, OperatingPoint, VibrationRecord
from vibrosense.ingest import (
    PHARMA_POINTS_PER_AXIS,
    PROCESS_HEADER,
    PROCESS_MEASUREMENT_COLUMNS,
    PharmaRecord,
    ProcessRow,
    ProcessTable,
    WeeklySchedule,
    align_and_impute,
    label_process_rows,
    parse_pharma_txt,
    parse_process_csv,
    parse_timestamp,
    parse_triaxial_csv,
    to_wall_us,
    write_pharma_txt,
    write_process_csv,
    write_triaxial_csv,
)

OP = OperatingPoint(rpm=300)


class TestTriaxialCsv:
    def test_basic_row(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("0.01,0.02,0.03\n")
        recs = parse_triaxial_csv(p, sample_rate_hz=3200.0, operating_point=OP)
        assert len(recs) == 1
        assert recs[0].x[0] == 0.01 and recs[0].y[0] == 0.02 and recs[0].z[0] == 0.03

    def test_empty_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("")
        with pytest.raises(ContractError, match="no data rows"):
            parse_triaxial_csv(p, 3200.0, OP)

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("X,Y,Z\n" + "".join(f"{i},{i},{i}\n" for i in range(5)))
        recs = parse_triaxial_csv(p, 3200.0, OP)
        assert len(recs) == 1 and len(recs[0]) == 5

    def test_bad_column_count(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1,2\n")
        with pytest.raises(ContractError, match=r"line 1"):
            parse_triaxial_csv(p, 3200.0, OP)

    def test_bad_number_line_reported(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1,2,3\nx,2,3\n")
        with pytest.raises(ContractError, match=r"line 2"):
            parse_triaxial_csv(p, 3200.0, OP)

    def test_first_line_with_a_number_is_data_not_header(self, tmp_path):
        # a header has no numeric field; this first row is a malformed data row
        p = tmp_path / "t.csv"
        p.write_text("1,oops,3\n4,5,6\n")
        with pytest.raises(ContractError, match=r"^unparseable number 'oops' at line 1$"):
            parse_triaxial_csv(p, 3200.0, OP)

    def test_error_line_counts_quoted_line_breaks(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text('1,2,3\n"4\n",5,6\n7,x,9\n')
        with pytest.raises(ContractError, match=r"^unparseable number 'x' at line 4$"):
            parse_triaxial_csv(p, 3200.0, OP)

    def test_bursts(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("".join(f"{i},{i},{i}\n" for i in range(10)))
        recs = parse_triaxial_csv(p, 2.0, OP, burst_len=4)
        assert [len(r) for r in recs] == [4, 4, 2]
        assert recs[1].start_s == pytest.approx(2.0)  # 4 samples at 2 Hz

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        rec = VibrationRecord(0.0, 3200.0, rng.normal(size=50), rng.normal(size=50),
                              rng.normal(size=50), OP, DefectLabel.NORMAL)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_triaxial_csv([rec], p1)
        loaded = parse_triaxial_csv(p1, 3200.0, OP)
        assert loaded[0].label is None and loaded[0].start_s == 0.0
        assert np.array_equal(loaded[0].x, rec.x)
        assert np.array_equal(loaded[0].y, rec.y)
        assert np.array_equal(loaded[0].z, rec.z)
        write_triaxial_csv(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_peak_under_three_times_the_samples(self, tmp_path):
        # 15 s at 3200 Hz: the converted blocks are gone before the per-axis
        # copy is made
        p = tmp_path / "t.csv"
        write_triaxial_csv([synth.generate_vibration(
            synth.SynthConfig(300, 3200.0, 15.0, DefectLabel.NORMAL))], p)
        (rec,), _, peak = _bytes_kept_alive(lambda: parse_triaxial_csv(p, 3200.0, OP))
        assert len(rec) == 48000
        assert peak < 3 * (rec.x.nbytes + rec.y.nbytes + rec.z.nbytes)


class TestTimestamps:
    def test_iso(self):
        ts = parse_timestamp("2022-01-03 10:00:00")
        local = dt.datetime.fromtimestamp(ts, dt.timezone.utc)
        assert local.hour == 15  # 10:00 EST == 15:00 UTC

    def test_us_format(self):
        assert parse_timestamp("1/3/2022 10:00") == parse_timestamp("2022-01-03 10:00:00")

    def test_bad(self):
        with pytest.raises(ContractError, match="unparseable timestamp"):
            parse_timestamp("not a time")


def make_process_rows(n, start="2022-01-04 10:00:00", step_s=300.0):
    t0 = parse_timestamp(start)
    return [
        ProcessRow(t0 + i * step_s, 90.0, 88.0, 53.0, 53.5, 68.0, 55.0, 45.0)
        for i in range(n)
    ]


def table_of(rows, states=None):
    """A list of ProcessRows as a table, labeled when states are given."""
    return ProcessTable([row[0] for row in rows], [row[1:] for row in rows], states)


class TestProcessRow:
    FIELD_OF_COLUMN = {
        "Air Pressure 1": "air_pressure_1",
        "Air Pressure 2": "air_pressure_2",
        "Chiller 1 Supply Tmp": "chiller1_supply_tmp",
        "Chiller 2 Supply Tmp": "chiller2_supply_tmp",
        "Outside Air Temp": "outside_air_temp",
        "Outside Humidity": "outside_humidity",
        "Outside Dewpoint": "outside_dewpoint",
    }

    def row(self):
        return ProcessRow(1.5e9, 90.0, 88.0, 53.0, 53.5, 68.0, 55.0, 45.0)

    def test_fields_cannot_be_assigned(self):
        row = self.row()
        with pytest.raises(AttributeError):
            row.chiller1_supply_tmp = 60.0
        with pytest.raises(AttributeError):
            row.label = "on"

    def test_keyword_and_positional_construction_agree(self):
        by_keyword = ProcessRow(timestamp_s=1.5e9, air_pressure_1=90.0, air_pressure_2=88.0,
                                chiller1_supply_tmp=53.0, chiller2_supply_tmp=53.5,
                                outside_air_temp=68.0, outside_humidity=55.0,
                                outside_dewpoint=45.0)
        assert by_keyword == self.row()

    def test_measurements_are_float64_in_column_order(self):
        row = self.row()
        values = row.measurements()
        assert values.dtype == np.float64
        assert list(self.FIELD_OF_COLUMN) == list(PROCESS_MEASUREMENT_COLUMNS)
        assert values.tolist() == [getattr(row, f) for f in self.FIELD_OF_COLUMN.values()]

    def test_is_a_tuple_of_its_eight_fields(self):
        row = self.row()
        assert len(row) == 8
        assert list(row) == [1.5e9, 90.0, 88.0, 53.0, 53.5, 68.0, 55.0, 45.0]
        assert row == (1.5e9, 90.0, 88.0, 53.0, 53.5, 68.0, 55.0, 45.0)

    @pytest.mark.parametrize("n", [7, 9])
    def test_wrong_field_count_raises_type_error(self, n):
        with pytest.raises(TypeError):
            ProcessRow(*[0.0] * n)
        with pytest.raises(TypeError):
            ProcessRow._make([0.0] * n)


class TestProcessCsv:
    def test_round_trip_and_interval(self, tmp_path):
        rows = make_process_rows(4)
        p = tmp_path / "p.csv"
        write_process_csv(rows, p)
        loaded = parse_process_csv(p)
        assert len(loaded) == 4
        assert loaded.timestamps_s[1] - loaded.timestamps_s[0] == pytest.approx(300.0)
        assert next(iter(loaded)).chiller1_supply_tmp == 53.0

    def test_exact_header_accepted(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text(
            "Timestamp, Air Pressure 1, Air Pressure 2, Chiller 1 Supply Tmp, "
            "Chiller 2 Supply Tmp, Outside Air Temp, Outside Humidity, Outside Dewpoint\n"
            "2022-01-04 10:00:00,90,88,53,53.5,68,55,45\n"
        )
        rows = parse_process_csv(p)
        assert len(rows) == 1 and next(iter(rows)).air_pressure_1 == 90.0

    def test_missing_column_named(self, tmp_path):
        p = tmp_path / "p.csv"
        header = [c for c in PROCESS_HEADER if c != "Chiller 1 Supply Tmp"]
        p.write_text(",".join(header) + "\n")
        with pytest.raises(ContractError, match="Chiller 1 Supply Tmp"):
            parse_process_csv(p)

    def test_sorted_output(self, tmp_path):
        rows = make_process_rows(3)
        p = tmp_path / "p.csv"
        write_process_csv([rows[2], rows[0], rows[1]], p)
        loaded = parse_process_csv(p)
        stamps = [r.timestamp_s for r in loaded]
        assert stamps == sorted(stamps)

    def test_equal_times_keep_file_order(self, tmp_path):
        # the skipped 02:xx wall times of 2022-03-13 read as the instants of 03:xx
        written = [row for row, _ in synth.generate_process(days=2, start_date=dt.date(2022, 3, 12))]
        stamps = [row.timestamp_s for row in written]
        assert len(stamps) - len(set(stamps)) == 12
        p = tmp_path / "p.csv"
        write_process_csv(written, p)
        assert list(parse_process_csv(p)) == sorted(written, key=lambda r: r.timestamp_s)


def _bytes_kept_alive(make):
    """What make() returns, the bytes left allocated when it returns (its
    result included) and the peak bytes allocated on the way."""
    tracemalloc.start()
    try:
        kept = make()
        alive, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept is not None
    return kept, alive, peak


class TestProcessTable:
    def table(self, n, labeled=False):
        values = np.arange(7.0 * n).reshape(n, 7)
        states = np.arange(n) % 3 if labeled else None
        return ProcessTable(1.6e9 + 300.0 * np.arange(n), values, states)

    def test_iterates_rows_across_blocks(self):
        table = self.table(2500)
        rows = list(table)
        assert rows == [ProcessRow(t, *v) for t, v in
                        zip(table.timestamps_s.tolist(), table.values.tolist())]
        assert all(type(row) is ProcessRow and type(row.timestamp_s) is float for row in rows)

    def test_labeled_iterates_row_state_pairs(self):
        table = self.table(1030, labeled=True)
        pairs = list(table)
        assert [row for row, _ in pairs] == list(ProcessTable(table.timestamps_s, table.values))
        assert [state for _, state in pairs] == [MachineState(i % 3) for i in range(1030)]
        assert all(type(state) is MachineState for _, state in pairs)

    def test_a_slice_gives_a_table(self):
        table = self.table(10, labeled=True)
        items = list(table)
        part = table[2:9:3]
        assert type(part) is ProcessTable and list(part) == items[2:9:3]

    @pytest.mark.parametrize("stamps, values, states", [
        (np.zeros(2), np.zeros((3, 7)), None),
        (np.zeros(2), np.zeros((2, 8)), None),
        (np.zeros((2, 1)), np.zeros((2, 7)), None),
        (0.0, np.zeros((1, 7)), None),
        (np.zeros(2), np.zeros((2, 7)), [1]),
    ], ids=["rows", "columns", "stamp-shape", "stamp-scalar", "states"])
    def test_columns_of_other_lengths_are_refused(self, stamps, values, states):
        with pytest.raises(ContractError, match="process table"):
            ProcessTable(stamps, values, states)

    def test_72_days_keep_under_2_mb_alive(self, tmp_path):
        # 20,736 rows: their columns take 1.33 MB, row objects took over 6 MB
        p = tmp_path / "p.csv"
        write_process_csv(synth.generate_process(days=72), p)
        assert _bytes_kept_alive(lambda: synth.generate_process(days=72))[1] < 2e6
        table, alive, peak = _bytes_kept_alive(lambda: parse_process_csv(p))
        assert alive < 2e6
        # the converted blocks are gone before the copy sorted by time is made
        assert peak < 3 * (table.timestamps_s.nbytes + table.values.nbytes)


class TestPharma:
    def make_record(self, seed=0):
        rng = np.random.default_rng(seed)
        n = PHARMA_POINTS_PER_AXIS
        return PharmaRecord(
            parse_timestamp("2022-01-04 10:00:00"),
            rng.normal(size=n), rng.normal(size=n), rng.normal(size=n), 1 / 3200.0,
        )

    def test_round_trip_bit_identical(self, tmp_path):
        recs = [self.make_record(0), self.make_record(1)]
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_pharma_txt(recs, p1)
        loaded = parse_pharma_txt(p1)
        assert len(loaded) == 2
        assert np.array_equal(loaded[0].x, recs[0].x)
        write_pharma_txt(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_numpy_scalar_fields_write_as_floats(self, tmp_path):
        rec = self.make_record()
        as_numpy = PharmaRecord(np.float64(rec.start_s), rec.x, rec.y, rec.z, np.float64(rec.dt_s))
        assert type(as_numpy.start_s) is float and type(as_numpy.dt_s) is float
        write_pharma_txt([as_numpy], tmp_path / "numpy.txt")
        write_pharma_txt([rec], tmp_path / "float.txt")
        assert (tmp_path / "numpy.txt").read_bytes() == (tmp_path / "float.txt").read_bytes()
        (back,) = parse_pharma_txt(tmp_path / "numpy.txt")
        assert back.start_s == rec.start_s and back.dt_s == rec.dt_s

    def test_short_axis_error(self, tmp_path):
        rec = self.make_record()
        p = tmp_path / "a.txt"
        write_pharma_txt([rec], p)
        lines = p.read_text().split("\n")
        lines[1] = " ".join(lines[1].split()[:-1])  # drop one x point
        p.write_text("\n".join(lines))
        with pytest.raises(ContractError, match=r"x-axis: expected 3200, got 3199 \(record 1\)"):
            parse_pharma_txt(p)

    @pytest.mark.parametrize("start", ["9999-12-31 23:30:00", "9999-12-31 00:00:00",
                                       "0001-01-01 23:59:59", "1/1/0001 12:00"])
    def test_start_outside_the_conversion_range_names_its_record(self, tmp_path, start):
        recs = [self.make_record(i) for i in range(3)]
        p = tmp_path / "a.txt"
        write_pharma_txt(recs, p)
        lines = p.read_text().split("\n")
        lines[5] = start  # record 2's start
        lines[11] = " ".join(lines[11].split()[:-1])  # record 3's x axis: a later error
        p.write_text("\n".join(lines))
        with pytest.raises(ContractError, match=rf"^timestamp '{start}' is out of range "
                                                r"\(record 2\)$"):
            parse_pharma_txt(p)

    def test_unparseable_start_names_its_record(self, tmp_path):
        p = tmp_path / "a.txt"
        write_pharma_txt([self.make_record()], p)
        p.write_text("2022-13-01" + p.read_text()[19:])
        with pytest.raises(ContractError,
                           match=r"^unparseable timestamp '2022-13-01' \(record 1\)$"):
            parse_pharma_txt(p)

    def test_group_count(self, tmp_path):
        recs = [self.make_record(i) for i in range(10)]
        p = tmp_path / "a.txt"
        write_pharma_txt(recs, p)
        assert len(parse_pharma_txt(p)) == 10


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestWriterBytes:
    """The writers' output, pinned to digests of the bytes csv.writer and the
    value-by-value writers produced: \r\n CSV lines, shortest round-trip float
    reprs, ISO timestamps."""

    # what `vibrosense synth --emit <format> --seed <seed>` writes with its defaults
    SYNTH = {
        ("triaxial", 0): "8355233faa193a6049f8c4f2a1adda1e959e02f8951a4c0240632b4f50cf1f44",
        ("triaxial", 1): "290bb5833028961f421e4a28d5a1a483d94581ed36213e2e6902458c586daa6b",
        ("triaxial", 2): "1eb318bfd43649e8e4eba8fec9a40bdb72f76258fa072326bece5dc7845a9bd1",
        ("process", 0): "a598a1f915c29ebcbd06052f8ce0970c4be75bfba029bc27cfbcc4c105bc26e6",
        ("process", 1): "0510e8ef34db914047c0f3e85a92912713d3f760ae60901807ee4e1c26b2c9a8",
        ("process", 2): "26fc821dd290652565324148fc242667337ba9db1d12977293e9c3bca55ed4ef",
        ("pharma", 0): "a4d29eab66d01fe5d6df4f65acb94771bb465ed473682203e51c5387a6ab9978",
        ("pharma", 1): "5bec14fe23e905a862b495bd8550ba48161c5a24578a58c38dfc6d72691e1b06",
        ("pharma", 2): "c8604207dde5bc8f3d61f301bdc3ba89531bed49dc0c1f133bc19e24109ffe66",
    }
    EDGE = [-0.0, 5e-324, 1e-05, 1e16, 0.1, -2.5, 1e300]

    @pytest.mark.parametrize("fmt, seed", sorted(SYNTH))
    def test_synth_output(self, tmp_path, fmt, seed):
        p = tmp_path / fmt
        if fmt == "process":
            table = synth.generate_process(days=7, seed=seed)
            write_process_csv(table, p)
            write_process_csv([row for row, _ in table], tmp_path / "rows")
            assert (tmp_path / "rows").read_bytes() == p.read_bytes()
        else:
            rec = synth.generate_vibration(synth.SynthConfig(
                rpm=300, sample_rate_hz=3200.0, duration_s=1.0,
                imbalance_level=DefectLabel.NORMAL, noise_sigma=0.3, seed=seed))
            if fmt == "triaxial":
                write_triaxial_csv([rec], p)
            else:
                write_pharma_txt([PharmaRecord(rec.start_s, rec.x, rec.y, rec.z, 1 / 3200.0)], p)
        assert _sha256(p) == self.SYNTH[fmt, seed]

    def test_edge_values(self, tmp_path):
        edge = self.EDGE
        write_triaxial_csv([VibrationRecord(0.0, 3200.0, edge, edge[::-1], edge[3:] + edge[:3],
                                            OP)], tmp_path / "t")
        assert _sha256(tmp_path / "t") == (
            "858fad5935c999ab2a5359c99f2d0665532e6434e51da6aff6b04a990af8fa5b")

        # np.float64 fields, as synth makes them, across the spring-forward gap
        t0 = parse_timestamp("2022-03-13 01:55:00")
        rows = [ProcessRow(t0 + 300.0 * i, *map(np.float64, np.roll(edge, i))) for i in range(4)]
        write_process_csv(rows, tmp_path / "p")
        assert (tmp_path / "p").read_bytes().splitlines()[1] == (
            b"2022-03-13 01:55:00,-0.0,5e-324,1e-05,1e+16,0.1,-2.5,1e+300")
        assert _sha256(tmp_path / "p") == (
            "049103aa024151c18297bac781f5d6d6bd646edd2a9bf971a348e8094a7ba055")

        axis = np.resize(np.array(edge), PHARMA_POINTS_PER_AXIS)
        write_pharma_txt([PharmaRecord(t0, axis, -axis, axis[::-1], 1 / 3200.0)], tmp_path / "h")
        assert _sha256(tmp_path / "h") == (
            "48501a87b324f558d1f1c53a8a47fdf7afc53ab0b4c0db2234a1bab162e9e486")


class TestFirstErrorInFileOrder:
    """Rows are converted whole, but the error still names the first bad
    value of the file: its line (or record and axis) and its token."""

    @pytest.mark.parametrize("fifth", ["1,2\n", "1,2,3,4\n"])
    def test_triaxial_bad_number_before_bad_row(self, tmp_path, fifth):
        p = tmp_path / "t.csv"
        p.write_text("X,Y,Z\n1,2,3\n1,oops,3\n1,2,3\n" + fifth)
        with pytest.raises(ContractError, match=r"^unparseable number 'oops' at line 3$"):
            parse_triaxial_csv(p, 3200.0, OP)

    def test_process_bad_number_before_short_row(self, tmp_path):
        rows = make_process_rows(4)
        p = tmp_path / "p.csv"
        write_process_csv(rows, p)
        lines = p.read_text().splitlines()
        lines[2] = lines[2].replace("53.0", "oops")
        lines[4] = lines[4].rsplit(",", 1)[0]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ContractError, match=r"^unparseable number 'oops' at line 3$"):
            parse_process_csv(p)

    def test_process_error_line_counts_quoted_line_breaks(self, tmp_path):
        rows = make_process_rows(3)
        p = tmp_path / "p.csv"
        write_process_csv(rows, p)
        lines = p.read_text().splitlines()
        first = lines[1].split(",")
        first[1] = f'"{first[1]}\n"'  # a quoted field spanning lines 2 and 3
        lines[1] = ",".join(first)
        lines[3] = lines[3].replace("53.0", "oops")
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ContractError, match=r"^unparseable number 'oops' at line 5$"):
            parse_process_csv(p)

    def test_non_finite_before_unparseable_in_one_row(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1,2,3\n1,inf,x\n")
        with pytest.raises(ContractError, match=r"^non-finite value 'inf' at line 2$"):
            parse_triaxial_csv(p, 3200.0, OP)
        p.write_text(",".join(PROCESS_HEADER) + "\n2022-01-04 10:00:00,1,nan,3,4,5,x,7\n")
        with pytest.raises(ContractError, match=r"^non-finite value 'nan' at line 2$"):
            parse_process_csv(p)

    def test_pharma_y_axis_names_record_and_axis(self, tmp_path):
        recs = [TestPharma().make_record(i) for i in range(2)]
        p = tmp_path / "a.txt"
        write_pharma_txt(recs, p)
        lines = p.read_text().split("\n")
        y = lines[7].split()  # record 2: timestamp on line 6, y on line 8
        y[10], y[20] = "1e400", "oops"
        lines[7] = " ".join(y)
        p.write_text("\n".join(lines))
        with pytest.raises(ContractError, match=r"^non-finite value '1e400' at record 2, y-axis$"):
            parse_pharma_txt(p)



class TestFirstErrorAcrossBlocks:
    """Files of more than one 1024-row conversion block: whichever block a
    bad number and a bad row fall in, the error names the first of them in
    the file, with its line and token."""

    N = 1100  # data rows, so the second block holds rows 1024 to 1099

    def triaxial(self, tmp_path, edits, blank_after=None):
        """A header and N data rows; edits maps a 0-based data row to its
        replacement line, and a blank line may follow one data row."""
        lines = ["X,Y,Z"] + [edits.get(i, f"{i}.5,-{i}.25,0.125") for i in range(self.N)]
        if blank_after is not None:
            lines.insert(blank_after + 2, "")
        p = tmp_path / "t.csv"
        p.write_text("\n".join(lines) + "\n")
        return p

    def process(self, tmp_path, edits, blank_after=None):
        """What write_process_csv writes for N rows, edits applied to data
        rows as functions of the written line."""
        p = tmp_path / "p.csv"
        write_process_csv(make_process_rows(self.N), p)
        lines = p.read_text().splitlines()
        for i, edit in edits.items():
            lines[i + 1] = edit(lines[i + 1])
        if blank_after is not None:
            lines.insert(blank_after + 2, "")
        p.write_text("\n".join(lines) + "\n")
        return p

    @staticmethod
    def message(token, line):
        kind = "unparseable number" if token == "oops" else "non-finite value"
        return rf"^{kind} '{token}' at line {line}$"

    BAD = ["oops", "inf", "1e999"]
    TRIAXIAL_ROWS = {"1,2": "expected 3 columns, got 2", "1,2,3,4": "expected 3 columns, got 4"}

    @pytest.mark.parametrize("token", BAD)
    @pytest.mark.parametrize("bad_row", sorted(TRIAXIAL_ROWS))
    def test_triaxial_bad_number_then_bad_row(self, tmp_path, token, bad_row):
        p = self.triaxial(tmp_path, {500: f"1,{token},3", 1050: bad_row})
        with pytest.raises(ContractError, match=self.message(token, 502)):
            parse_triaxial_csv(p, 3200.0, OP)

    @pytest.mark.parametrize("token", BAD)
    @pytest.mark.parametrize("bad_row", sorted(TRIAXIAL_ROWS))
    def test_triaxial_bad_row_then_bad_number(self, tmp_path, token, bad_row):
        p = self.triaxial(tmp_path, {500: bad_row, 1050: f"1,{token},3"})
        with pytest.raises(ContractError, match=rf"^{self.TRIAXIAL_ROWS[bad_row]} \(line 502\)$"):
            parse_triaxial_csv(p, 3200.0, OP)

    @pytest.mark.parametrize("row", [1023, 1024, 1025])
    def test_triaxial_bad_number_at_the_block_edge(self, tmp_path, row):
        p = self.triaxial(tmp_path, {row: "1,2,oops", row + 1: "1e999,2,3", 1090: "1,2"})
        with pytest.raises(ContractError, match=self.message("oops", row + 2)):
            parse_triaxial_csv(p, 3200.0, OP)

    def test_triaxial_blank_line_inside_a_block(self, tmp_path):
        p = self.triaxial(tmp_path, {1030: "1,inf,3"}, blank_after=100)
        with pytest.raises(ContractError, match=self.message("inf", 1033)):
            parse_triaxial_csv(p, 3200.0, OP)
        good = self.triaxial(tmp_path, {}, blank_after=100)
        (rec,) = parse_triaxial_csv(good, 3200.0, OP)
        assert len(rec) == self.N and rec.x[1099] == 1099.5

    @pytest.mark.parametrize("unreadable", [b"1,\xff,3", b"1," + b"2" * 200_000 + b",3"])
    def test_triaxial_bad_number_then_unreadable_row(self, tmp_path, unreadable):
        """A row the reader cannot decode or split, past the first block and
        well past the read buffer, comes after the bad number."""
        p = self.triaxial(tmp_path, {500: "1,oops,3"})
        lines = p.read_bytes().split(b"\n")
        lines[1052] = unreadable
        p.write_bytes(b"\n".join(lines))
        with pytest.raises(ContractError, match=self.message("oops", 502)):
            parse_triaxial_csv(p, 3200.0, OP)
        p = self.triaxial(tmp_path, {})
        p.write_bytes(b"\n".join(p.read_bytes().split(b"\n")[:1052] + [unreadable]))
        with pytest.raises(ContractError, match="not utf-8 text|malformed CSV"):
            parse_triaxial_csv(p, 3200.0, OP)

    PROCESS_ROWS = {
        "short": (lambda line: line.rsplit(",", 4)[0], "short row"),
        "timestamp": (lambda line: "2022-13-01" + line[19:], "unparseable timestamp '2022-13-01'"),
    }

    @staticmethod
    def number(token):
        return lambda line: line.replace("53.0", token)

    @pytest.mark.parametrize("token", BAD)
    @pytest.mark.parametrize("bad_row", sorted(PROCESS_ROWS))
    def test_process_bad_number_then_bad_row(self, tmp_path, token, bad_row):
        p = self.process(tmp_path, {500: self.number(token), 1050: self.PROCESS_ROWS[bad_row][0]})
        with pytest.raises(ContractError, match=self.message(token, 502)):
            parse_process_csv(p)

    @pytest.mark.parametrize("token", BAD)
    @pytest.mark.parametrize("bad_row", sorted(PROCESS_ROWS))
    def test_process_bad_row_then_bad_number(self, tmp_path, token, bad_row):
        edit, error = self.PROCESS_ROWS[bad_row]
        p = self.process(tmp_path, {500: edit, 1050: self.number(token)})
        with pytest.raises(ContractError, match=rf"^{error} \(line 502\)$"):
            parse_process_csv(p)

    @pytest.mark.parametrize("row", [1023, 1024, 1025])
    def test_process_bad_number_at_the_block_edge(self, tmp_path, row):
        p = self.process(tmp_path, {row: self.number("oops"), row + 1: self.number("1e999"),
                                    1090: self.PROCESS_ROWS["short"][0]})
        with pytest.raises(ContractError, match=self.message("oops", row + 2)):
            parse_process_csv(p)

    def test_process_blank_line_inside_a_block(self, tmp_path):
        p = self.process(tmp_path, {1030: self.number("inf")}, blank_after=100)
        with pytest.raises(ContractError, match=self.message("inf", 1033)):
            parse_process_csv(p)
        good = self.process(tmp_path, {}, blank_after=100)
        rows = parse_process_csv(good)
        assert list(rows) == make_process_rows(self.N)

class TestLabeling:
    def test_saturday_off(self):
        # 2022-01-08 is a Saturday
        rows = ProcessTable([parse_timestamp("2022-01-08 12:00:00")], np.zeros((1, 7)))
        assert label_process_rows(rows).states[0] == MachineState.OFF

    def test_abnormal_date(self):
        rows = ProcessTable([parse_timestamp("2022-02-01 12:00:00")], np.zeros((1, 7)))
        assert label_process_rows(rows).states[0] == MachineState.ABNORMAL

    def test_normal_tuesday_on(self):
        rows = ProcessTable([parse_timestamp("2022-01-04 10:00:00")], np.zeros((1, 7)))
        assert label_process_rows(rows).states[0] == MachineState.ON

    def test_window_edges(self):
        sched = WeeklySchedule()
        # Friday 2022-01-07 18:59 on, 19:00 off; Sunday 22:59 off, 23:00 on
        texts = ["2022-01-07 18:59:00", "2022-01-07 19:00:00",
                 "2022-01-09 22:59:00", "2022-01-09 23:00:00"]
        wall = to_wall_us([parse_timestamp(text) for text in texts], sched.tz)
        assert sched.off_at(wall).tolist() == [False, True, True, False]


class TestAlignAndImpute:
    def vib_at(self, t, scale):
        n = 32
        sig = scale * np.ones(n)
        return VibrationRecord(t, 3200.0, sig, sig, sig, OP)

    def test_median_imputation(self):
        rows = make_process_rows(1)
        t0 = rows[0].timestamp_s
        labeled = table_of(rows, [MachineState.ON])
        # three windows in the bucket with x_mean values 1, 2, 100
        vib = [self.vib_at(t0 + k, s) for k, s in ((0, 1.0), (10, 2.0), (20, 100.0))]
        aligned = align_and_impute(vib, labeled)
        assert aligned.features.shape == (1, 22)  # 15 vibration + 7 process
        x_mean = aligned.features[0][aligned.feature_names.index("x_mean")]
        assert x_mean == 2.0

    def test_single_window_unchanged(self):
        rows = make_process_rows(1)
        labeled = table_of(rows, [MachineState.ON])
        vib = [self.vib_at(rows[0].timestamp_s + 5.0, 7.0)]
        aligned = align_and_impute(vib, labeled)
        assert aligned.features[0][aligned.feature_names.index("x_mean")] == 7.0
        assert aligned.labels[0] == int(MachineState.ON)

    def test_empty_buckets_dropped(self):
        rows = make_process_rows(3)
        labeled = table_of(rows, [MachineState.ON] * len(rows))
        vib = [self.vib_at(rows[1].timestamp_s + 1.0, 1.0)]
        aligned = align_and_impute(vib, labeled)
        assert aligned.features.shape[0] == 1
        assert aligned.n_dropped_buckets == 2

    def test_unlabeled_rows_are_refused(self):
        rows = make_process_rows(1)
        vib = [self.vib_at(rows[0].timestamp_s + 5.0, 7.0)]
        with pytest.raises(ContractError, match="labeled"):
            align_and_impute(vib, table_of(rows))

    def test_no_overlap(self):
        rows = make_process_rows(2)
        labeled = table_of(rows, [MachineState.ON] * len(rows))
        vib = [self.vib_at(rows[0].timestamp_s - 10_000.0, 1.0)]
        with pytest.raises(ContractError, match="no temporal overlap"):
            align_and_impute(vib, labeled)
