import datetime as dt
import re
import warnings

import numpy as np
import pytest

from vibrosense import ingest
from vibrosense.core import ContractError, DefectLabel, MachineState, make_rng
from vibrosense.ingest import ProcessRow, WeeklySchedule
from vibrosense.synth import (
    AMBIENT_F,
    CHILLER_FAILURE_PEAK_F,
    CHILLER_ON_SIGMA_F,
    CHILLER_SETPOINT_F,
    AMPLITUDE_BY_LABEL,
    HARMONIC_RATIO,
    SynthConfig,
    check_spiked_args,
    chiller_series,
    decimate_to_mems,
    generate_process,
    generate_spiked_series,
    generate_vibration,
)


def config(**kw):
    base = dict(rpm=600, sample_rate_hz=3200.0, duration_s=0.5,
                imbalance_level=DefectLabel.NORMAL, noise_sigma=0.0, seed=0)
    base.update(kw)
    return SynthConfig(**base)


class TestVibration:
    def test_noiseless_peak_matches_waveform_oracle(self):
        """Peak |x| equals the max of the two-harmonic waveform on the same
        sampled grid, computed independently here (brute force)."""
        cfg = config()
        rec = generate_vibration(cfg)
        t = np.arange(cfg.n_samples) / cfg.sample_rate_hz
        theta = 2 * np.pi * (cfg.rpm / 60.0) * t
        oracle = np.max(np.abs(np.sin(theta) + HARMONIC_RATIO * np.sin(2 * theta)))
        assert np.max(np.abs(rec.x)) == pytest.approx(oracle, abs=1e-9)
        # the analytic continuous-time maximum of sin(t) + 0.3 sin(2t):
        # stationary point cos(t) + 0.6 cos(2t) = 0 => cos(t) = (sqrt(3.88)-1)/2.4
        c = (np.sqrt(1 + 4 * 1.2 * 0.6) - 1) / (2 * 1.2)
        s = np.sqrt(1 - c * c)
        analytic = s + HARMONIC_RATIO * 2 * s * c
        assert analytic == pytest.approx(1.1364966, abs=1e-6)
        assert oracle <= analytic + 1e-12
        assert oracle == pytest.approx(analytic, abs=1e-3)  # dense grid

    def test_y_axis_bound(self):
        for sigma in (0.0, 0.3):
            rec = generate_vibration(config(noise_sigma=sigma, duration_s=0.2))
            assert np.max(np.abs(rec.y)) <= 0.1 * np.max(np.abs(rec.x)) + 4 * sigma

    def test_deterministic(self):
        a = generate_vibration(config(noise_sigma=0.3))
        b = generate_vibration(config(noise_sigma=0.3))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y) and np.array_equal(a.z, b.z)

    def test_fft_peak_at_rotation_frequency(self):
        cfg = config(rpm=300, duration_s=2.0)  # f_r = 5 Hz, resolution 0.5 Hz
        rec = generate_vibration(cfg)
        spec = np.abs(np.fft.rfft(rec.x))
        freqs = np.fft.rfftfreq(cfg.n_samples, 1 / cfg.sample_rate_hz)
        assert freqs[np.argmax(spec)] == pytest.approx(5.0, abs=0.5)

    def test_rms_ordering_by_level(self):
        rms = {}
        for label in DefectLabel:
            rec = generate_vibration(config(imbalance_level=label, duration_s=0.2))
            rms[label] = np.sqrt(np.mean(rec.x ** 2))
        assert rms[DefectLabel.NORMAL] < rms[DefectLabel.NEAR_FAILURE] < rms[DefectLabel.FAILURE]

    def test_amplitude_ratios(self):
        assert AMPLITUDE_BY_LABEL[DefectLabel.NORMAL] == 1.0
        assert AMPLITUDE_BY_LABEL[DefectLabel.NEAR_FAILURE] == 2.0
        assert AMPLITUDE_BY_LABEL[DefectLabel.FAILURE] == 3.5

    def test_amp_rpm_exponent_default_off(self):
        lo = generate_vibration(config(rpm=100, duration_s=0.2))
        hi = generate_vibration(config(rpm=600, duration_s=0.2))
        assert np.max(np.abs(lo.x)) == pytest.approx(np.max(np.abs(hi.x)), rel=0.02)
        scaled = generate_vibration(config(rpm=600, duration_s=0.2, amp_rpm_exponent=1.0))
        assert np.max(np.abs(scaled.x)) == pytest.approx(2 * np.max(np.abs(hi.x)), rel=0.02)

    def test_min_samples_guard(self):
        with pytest.raises(ContractError):
            SynthConfig(300, 10.0, 0.5, DefectLabel.NORMAL)

    def test_label_carried(self):
        rec = generate_vibration(config(imbalance_level=DefectLabel.FAILURE, duration_s=0.1))
        assert rec.label == DefectLabel.FAILURE
        assert rec.operating_point.rpm == 600


class TestDecimation:
    def test_rate_and_length(self):
        rec = generate_vibration(config(rpm=100, duration_s=2.0))
        mems = decimate_to_mems(rec, target_rate_hz=10.0)
        assert mems.sample_rate_hz == pytest.approx(10.0)
        assert len(mems) == 20

    def test_block_mean_prefilter(self):
        rec = generate_vibration(config(duration_s=0.1))
        mems = decimate_to_mems(rec, target_rate_hz=320.0)
        assert mems.x[0] == pytest.approx(np.mean(rec.x[:10]))

    def test_extra_noise_deterministic(self):
        rec = generate_vibration(config(duration_s=0.1))
        a = decimate_to_mems(rec, 320.0, extra_noise_sigma=0.1, seed=5)
        b = decimate_to_mems(rec, 320.0, extra_noise_sigma=0.1, seed=5)
        assert np.array_equal(a.x, b.x)

    def test_bad_rate(self):
        rec = generate_vibration(config(duration_s=0.1))
        with pytest.raises(ContractError):
            decimate_to_mems(rec, 10_000.0)


class TestProcess:
    def test_row_count_7_days(self):
        rows = generate_process(days=7)
        assert len(rows) == 7 * 24 * 12

    def test_normal_weekday_temps(self):
        # start date 2022-01-03 is a Monday; day 1 (Tuesday) is fully On
        rows = generate_process(days=2)
        tuesday = [r for r, s in rows[288:] if s == MachineState.ON]
        temps = [r.chiller1_supply_tmp for r in tuesday]
        assert len(temps) == 288
        assert min(temps) >= 51.0 and max(temps) <= 55.0

    def test_failure_day_ramp(self):
        fail = dt.date(2022, 1, 4)
        rows = generate_process(days=2, failure_days=[fail])
        fail_rows = [r for r, s in rows if s == MachineState.ABNORMAL]
        assert len(fail_rows) == 288
        temps = [r.chiller1_supply_tmp for r in fail_rows]
        assert max(temps) >= 60.0
        assert max(temps) <= 65.0

    def test_weekend_off(self):
        rows = generate_process(days=7)
        states = [s for _, s in rows]
        assert MachineState.OFF in states
        assert MachineState.ON in states

    def test_chiller_series(self):
        rows = generate_process(days=1)
        series = chiller_series(rows)
        assert len(series) == 288
        assert series.interval_s == pytest.approx(300.0)

    @pytest.mark.parametrize("interval_s", [0.0, float("nan"), -300.0, 172800.0],
                             ids=["zero", "nan", "negative", "two-days"])
    def test_bad_interval_names_interval_s(self, interval_s):
        with pytest.raises(ContractError, match="interval_s"):
            generate_process(days=2, interval_s=interval_s)


def _reference_generate_process(days, failure_days=(), seed=0, start_date=dt.date(2022, 1, 3),
                                schedule=WeeklySchedule(), interval_s=300.0):
    """The row-at-a-time generator the column one replaced, kept verbatim:
    seven scalar draws per row, in the order the row takes them."""
    failure = set(failure_days)
    rng = make_rng(seed)
    per_day = int(round(86400 / interval_s))
    within_day = [dt.timedelta(seconds=k * interval_s) // dt.timedelta(microseconds=1)
                  for k in range(per_day)]
    midnights = ((start_date - dt.date(1970, 1, 1)).days + np.arange(days)) * ingest.DAY_US
    stamps = ingest.from_wall_us((midnights[:, None] + within_day).ravel(), schedule.tz)
    offs = schedule.off_at(ingest.to_wall_us(stamps, schedule.tz)).reshape(days, -1).tolist()
    rows = []
    for day_i, day_stamps in enumerate(stamps.reshape(days, -1).tolist()):
        day = start_date + dt.timedelta(days=day_i)
        is_failure_day = day in failure
        for k, (ts, off) in enumerate(zip(day_stamps, offs[day_i])):
            frac = k / per_day
            if is_failure_day:
                state = MachineState.ABNORMAL
                ramp = (CHILLER_FAILURE_PEAK_F - CHILLER_SETPOINT_F) * np.sin(np.pi * frac) ** 2
                supply1 = CHILLER_SETPOINT_F + ramp + rng.normal(0.0, 0.2)
                supply1 = min(supply1, CHILLER_FAILURE_PEAK_F)
            elif off:
                state = MachineState.OFF
                supply1 = AMBIENT_F + rng.normal(0.0, 1.0)
            else:
                state = MachineState.ON
                supply1 = CHILLER_SETPOINT_F + rng.normal(0.0, CHILLER_ON_SIGMA_F)
            supply2 = supply1 + rng.normal(0.0, 0.3)
            row = ProcessRow(
                timestamp_s=ts,
                air_pressure_1=90.0 + rng.normal(0.0, 1.5),
                air_pressure_2=88.0 + rng.normal(0.0, 1.5),
                chiller1_supply_tmp=float(supply1),
                chiller2_supply_tmp=float(supply2),
                outside_air_temp=AMBIENT_F + 10.0 * np.sin(2 * np.pi * frac) + rng.normal(0.0, 1.0),
                outside_humidity=55.0 + rng.normal(0.0, 5.0),
                outside_dewpoint=45.0 + rng.normal(0.0, 2.0),
            )
            rows.append((row, state))
    return rows


@pytest.mark.parametrize("kwargs", [
    # New York springs forward on 2022-03-13, a failure day here
    dict(days=14, seed=5, start_date=dt.date(2022, 3, 7),
         failure_days=[dt.date(2022, 3, 9), dt.date(2022, 3, 13)]),
    # and falls back on 2022-11-06
    dict(days=14, seed=6, start_date=dt.date(2022, 10, 31), failure_days=[dt.date(2022, 11, 4)]),
    dict(days=9, seed=7, start_date=dt.date(2022, 3, 10), interval_s=299.7,
         failure_days=[dt.date(2022, 3, 13)]),
    dict(days=9, seed=8, start_date=dt.date(2022, 10, 31), interval_s=86400 / 7),
    # Lord Howe moves its clocks by half an hour, on 2022-10-02 and 2022-04-03
    dict(days=9, seed=9, start_date=dt.date(2022, 9, 29),
         schedule=WeeklySchedule(tz="Australia/Lord_Howe"), failure_days=[dt.date(2022, 10, 2)]),
    dict(days=9, seed=10, start_date=dt.date(2022, 3, 31), interval_s=299.7,
         schedule=WeeklySchedule(tz="Australia/Lord_Howe")),
    dict(days=365, seed=11, failure_days=sorted(ingest.DEFAULT_ABNORMAL_DATES)),
], ids=["ny-spring-failure", "ny-fall", "interval-299.7", "interval-day/7",
        "lord-howe-spring", "lord-howe-fall", "year"])
def test_generate_process_matches_row_at_a_time_reference_bit_for_bit(kwargs):
    got = generate_process(**kwargs)
    want = _reference_generate_process(**kwargs)
    assert len(got) == len(want) > 0
    for field in ProcessRow._fields:
        assert (np.array([getattr(row, field) for row, _ in got]).tobytes()
                == np.array([getattr(row, field) for row, _ in want], dtype=np.float64).tobytes()), field
    assert [state for _, state in got] == [state for _, state in want]
    assert all(type(state) is MachineState for _, state in got)
    assert all(type(value) is float for row, _ in got for value in row)


class TestSpikedSeries:
    def test_spike_count_and_position(self):
        sp = generate_spiked_series(n=200, n_spikes=7, seed=3)
        assert sp.spike_indices.size == 7
        assert np.all(sp.spike_indices > 100)  # back half only
        assert np.unique(sp.spike_indices).size == 7

    def test_spike_magnitude(self):
        sp = generate_spiked_series(n=400, n_spikes=5, spike_rel=0.3, seed=1)
        base = np.delete(sp.series.values, sp.spike_indices)
        spiked = sp.series.values[sp.spike_indices]
        assert np.all(spiked > 1.2 * np.median(base))

    def test_deterministic(self):
        a = generate_spiked_series(100, 3, seed=9)
        b = generate_spiked_series(100, 3, seed=9)
        assert np.array_equal(a.series.values, b.series.values)
        assert np.array_equal(a.spike_indices, b.spike_indices)

    def test_guards(self):
        with pytest.raises(ContractError):
            generate_spiked_series(8, 1)
        with pytest.raises(ContractError):
            generate_spiked_series(100, 50)

    @pytest.mark.parametrize("spike_rel", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_spike_size_is_named(self, spike_rel):
        with pytest.raises(ContractError, match=f"spike_rel must be finite, got {spike_rel}"):
            generate_spiked_series(100, 3, spike_rel=spike_rel)
        with pytest.raises(ContractError, match="spike_rel"):  # checked without generating
            check_spiked_args(100, 3, spike_rel)

    @pytest.mark.parametrize("spike_rel", [1e308, -1e308])
    def test_spikes_that_overflow_are_named(self, spike_rel):
        # the warning NumPy would give is an error under -W error::RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match=re.escape(
                    f"spike_rel = {spike_rel} makes a spiked value overflow")):
                generate_spiked_series(100, 3, spike_rel=spike_rel)
