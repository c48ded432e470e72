import datetime as dt
import hashlib

import numpy as np
import pytest

from vibrosense import synth
from vibrosense.core import ContractError, DefectLabel, MachineState, OperatingPoint, VibrationRecord
from vibrosense.ingest import (
    PHARMA_POINTS_PER_AXIS,
    PROCESS_HEADER,
    PharmaRecord,
    ProcessRow,
    WeeklySchedule,
    align_and_impute,
    label_process_rows,
    parse_pharma_txt,
    parse_process_csv,
    parse_timestamp,
    parse_triaxial_csv,
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
        loaded = parse_triaxial_csv(p1, 3200.0, OP, label=DefectLabel.NORMAL)
        assert np.array_equal(loaded[0].x, rec.x)
        assert np.array_equal(loaded[0].y, rec.y)
        assert np.array_equal(loaded[0].z, rec.z)
        write_triaxial_csv(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()


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


class TestProcessCsv:
    def test_round_trip_and_interval(self, tmp_path):
        rows = make_process_rows(4)
        p = tmp_path / "p.csv"
        write_process_csv(rows, p)
        loaded = parse_process_csv(p)
        assert len(loaded) == 4
        assert loaded[1].timestamp_s - loaded[0].timestamp_s == pytest.approx(300.0)
        assert loaded[0].chiller1_supply_tmp == 53.0

    def test_exact_header_accepted(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text(
            "Timestamp, Air Pressure 1, Air Pressure 2, Chiller 1 Supply Tmp, "
            "Chiller 2 Supply Tmp, Outside Air Temp, Outside Humidity, Outside Dewpoint\n"
            "2022-01-04 10:00:00,90,88,53,53.5,68,55,45\n"
        )
        rows = parse_process_csv(p)
        assert len(rows) == 1 and rows[0].air_pressure_1 == 90.0

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

    def test_short_axis_error(self, tmp_path):
        rec = self.make_record()
        p = tmp_path / "a.txt"
        write_pharma_txt([rec], p)
        lines = p.read_text().split("\n")
        lines[1] = " ".join(lines[1].split()[:-1])  # drop one x point
        p.write_text("\n".join(lines))
        with pytest.raises(ContractError, match=r"x-axis: expected 3200, got 3199 \(record 1\)"):
            parse_pharma_txt(p)

    def test_group_count(self, tmp_path):
        recs = [self.make_record(i) for i in range(10)]
        p = tmp_path / "a.txt"
        write_pharma_txt(recs, p)
        assert len(parse_pharma_txt(p)) == 10

    def test_to_vibration_record(self):
        rec = self.make_record()
        vib = rec.to_vibration_record()
        assert vib.sample_rate_hz == pytest.approx(3200.0)
        assert len(vib) == PHARMA_POINTS_PER_AXIS


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
            write_process_csv([r for r, _ in synth.generate_process(days=7, seed=seed)], p)
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


class TestLabeling:
    def test_saturday_off(self):
        # 2022-01-08 is a Saturday
        rows = [ProcessRow(parse_timestamp("2022-01-08 12:00:00"), *[0.0] * 7)]
        assert label_process_rows(rows)[0][1] == MachineState.OFF

    def test_abnormal_date(self):
        rows = [ProcessRow(parse_timestamp("2022-02-01 12:00:00"), *[0.0] * 7)]
        assert label_process_rows(rows)[0][1] == MachineState.ABNORMAL

    def test_normal_tuesday_on(self):
        rows = [ProcessRow(parse_timestamp("2022-01-04 10:00:00"), *[0.0] * 7)]
        assert label_process_rows(rows)[0][1] == MachineState.ON

    def test_window_edges(self):
        sched = WeeklySchedule()
        # Friday 2022-01-07 18:59 on, 19:00 off; Sunday 22:59 off, 23:00 on
        assert not sched.is_off(parse_timestamp("2022-01-07 18:59:00"))
        assert sched.is_off(parse_timestamp("2022-01-07 19:00:00"))
        assert sched.is_off(parse_timestamp("2022-01-09 22:59:00"))
        assert not sched.is_off(parse_timestamp("2022-01-09 23:00:00"))


class TestAlignAndImpute:
    def vib_at(self, t, scale):
        n = 32
        sig = scale * np.ones(n)
        return VibrationRecord(t, 3200.0, sig, sig, sig, OP)

    def test_median_imputation(self):
        rows = make_process_rows(1)
        t0 = rows[0].timestamp_s
        labeled = [(rows[0], MachineState.ON)]
        # three windows in the bucket with x_mean values 1, 2, 100
        vib = [self.vib_at(t0 + k, s) for k, s in ((0, 1.0), (10, 2.0), (20, 100.0))]
        aligned = align_and_impute(vib, labeled)
        assert aligned.features.shape == (1, 22)  # 15 vibration + 7 process
        x_mean = aligned.features[0][aligned.feature_names.index("x_mean")]
        assert x_mean == 2.0

    def test_single_window_unchanged(self):
        rows = make_process_rows(1)
        labeled = [(rows[0], MachineState.ON)]
        vib = [self.vib_at(rows[0].timestamp_s + 5.0, 7.0)]
        aligned = align_and_impute(vib, labeled)
        assert aligned.features[0][aligned.feature_names.index("x_mean")] == 7.0
        assert aligned.labels[0] == int(MachineState.ON)

    def test_empty_buckets_dropped(self):
        rows = make_process_rows(3)
        labeled = [(r, MachineState.ON) for r in rows]
        vib = [self.vib_at(rows[1].timestamp_s + 1.0, 1.0)]
        aligned = align_and_impute(vib, labeled)
        assert aligned.features.shape[0] == 1
        assert aligned.n_dropped_buckets == 2

    def test_no_overlap(self):
        rows = make_process_rows(2)
        labeled = [(r, MachineState.ON) for r in rows]
        vib = [self.vib_at(rows[0].timestamp_s - 10_000.0, 1.0)]
        with pytest.raises(ContractError, match="no temporal overlap"):
            align_and_impute(vib, labeled)
