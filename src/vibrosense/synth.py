"""Synthetic motor-testbed vibration and chiller process data generators."""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, replace
from typing import Iterable, List

import numpy as np

from . import ingest
from .core import ContractError, DefectLabel, MachineState, OperatingPoint, TimeSeries, VibrationRecord, make_rng
from .ingest import ProcessTable, WeeklySchedule

#: Base x/z amplitude per imbalance level; chosen so classes are separable in
#: the (x, z) plane but overlap once the default noise_sigma=0.3 is added.
AMPLITUDE_BY_LABEL = {
    DefectLabel.NORMAL: 1.0,
    DefectLabel.NEAR_FAILURE: 2.0,
    DefectLabel.FAILURE: 3.5,
}

HARMONIC_RATIO = 0.3
Y_AXIS_RATIO = 0.1

#: Reference speed for the optional speed-dependent amplitude scaling.
RPM_REFERENCE = 300


@dataclass(frozen=True)
class SynthConfig:
    rpm: int
    sample_rate_hz: float
    duration_s: float
    imbalance_level: DefectLabel
    noise_sigma: float = 0.3
    seed: int = 0
    # Imbalance force grows with speed (~omega^2 for an eccentric mass); the
    # exponent defaults to 0 so amplitudes stay speed-independent unless a
    # cross-speed experiment asks otherwise.
    amp_rpm_exponent: float = 0.0

    def __post_init__(self):
        if not all(0 < v < np.inf for v in (self.rpm, self.sample_rate_hz, self.duration_s)):
            raise ContractError("rpm, sample_rate_hz, duration_s must be finite and positive")
        if not 0 <= self.noise_sigma < np.inf:
            raise ContractError("noise_sigma must be finite and nonnegative")
        if not np.isfinite(self.amp_rpm_exponent):
            raise ContractError("amp_rpm_exponent must be finite")
        if self.duration_s * self.sample_rate_hz < 8:
            raise ContractError("config must yield at least 8 samples")

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s * self.sample_rate_hz))

    @property
    def amplitude(self) -> float:
        base = AMPLITUDE_BY_LABEL[self.imbalance_level]
        return base * (self.rpm / RPM_REFERENCE) ** self.amp_rpm_exponent


def generate_vibration(config: SynthConfig) -> VibrationRecord:
    """Imbalance signature at the rotation frequency f_r = rpm/60 plus a
    weaker 2x harmonic; z leads x by a quarter turn, y vibrates at a tenth of
    the x amplitude. Gaussian noise per axis, deterministic given the seed."""
    rng = make_rng(config.seed)
    n = config.n_samples
    t = np.arange(n) / config.sample_rate_hz
    f_r = config.rpm / 60.0
    a = config.amplitude
    theta = 2.0 * np.pi * f_r * t
    x = a * np.sin(theta) + HARMONIC_RATIO * a * np.sin(2.0 * theta)
    z = a * np.sin(theta + np.pi / 2) + HARMONIC_RATIO * a * np.sin(2.0 * theta + np.pi / 2)
    y = Y_AXIS_RATIO * a * np.sin(theta)
    if config.noise_sigma > 0:
        x = x + rng.normal(0.0, config.noise_sigma, n)
        y = y + rng.normal(0.0, config.noise_sigma, n)
        z = z + rng.normal(0.0, config.noise_sigma, n)
    return VibrationRecord(
        start_s=0.0,
        sample_rate_hz=config.sample_rate_hz,
        x=x,
        y=y,
        z=z,
        operating_point=OperatingPoint(rpm=config.rpm),
        label=config.imbalance_level,
    )


def decimate_to_mems(
    record: VibrationRecord,
    target_rate_hz: float = 10.0,
    extra_noise_sigma: float = 0.0,
    seed: int = 0,
) -> VibrationRecord:
    """Low-fidelity twin of a high-rate record: moving-average anti-aliasing
    prefilter over each decimation block, then independent extra noise."""
    if target_rate_hz <= 0 or target_rate_hz > record.sample_rate_hz:
        raise ContractError("target rate must be positive and <= source rate")
    if not 0 <= extra_noise_sigma < np.inf:
        raise ContractError(f"extra_noise_sigma must be finite and nonnegative, got {extra_noise_sigma}")
    factor = int(round(record.sample_rate_hz / target_rate_hz))
    n_out = len(record) // factor
    if n_out < 1:
        raise ContractError("record too short for the requested decimation")
    rng = make_rng(seed)
    axes = {}
    for name in ("x", "y", "z"):
        sig = getattr(record, name)[: n_out * factor].reshape(n_out, factor)
        out = sig.mean(axis=1)
        if extra_noise_sigma > 0:
            out = out + rng.normal(0.0, extra_noise_sigma, n_out)
        axes[name] = out
    return VibrationRecord(
        start_s=record.start_s,
        sample_rate_hz=record.sample_rate_hz / factor,
        x=axes["x"],
        y=axes["y"],
        z=axes["z"],
        operating_point=record.operating_point,
        label=record.label,
    )


def vibration_for_states(rows: ProcessTable, seed: int) -> List[VibrationRecord]:
    """One 50 ms burst at 300 rpm per row of a labeled table, starting at the
    row's time: Abnormal rows at the failure level, the others at the normal
    level, Off rows at a twentieth of the amplitude (a shut-down machine
    barely vibrates). The row at time t is seeded seed + int(t) % 100000."""
    bursts = []
    for timestamp_s, state in zip(rows.timestamps_s.tolist(), rows.states.tolist()):
        level = DefectLabel.FAILURE if state == MachineState.ABNORMAL else DefectLabel.NORMAL
        rec = generate_vibration(SynthConfig(
            rpm=300, sample_rate_hz=3200.0, duration_s=0.05, imbalance_level=level,
            noise_sigma=0.05, seed=seed + int(timestamp_s) % 100000,
        ))
        scale = 0.05 if state == MachineState.OFF else 1.0
        bursts.append(replace(rec, start_s=timestamp_s,
                              x=rec.x * scale, y=rec.y * scale, z=rec.z * scale))
    return bursts


#: Chiller temperature regimes (degrees Fahrenheit).
CHILLER_SETPOINT_F = 53.0
CHILLER_ON_SIGMA_F = 0.5
CHILLER_FAILURE_PEAK_F = 65.0
AMBIENT_F = 68.0


def generate_process(
    days: int,
    failure_days: Iterable[dt.date] = (),
    seed: int = 0,
    start_date: dt.date = dt.date(2022, 1, 3),
    schedule: WeeklySchedule = WeeklySchedule(),
    interval_s: float = 300.0,
) -> ProcessTable:
    """A labeled table of process rows, `interval_s` (at most a day) apart
    from each local midnight.

    Supply temperature sits at the 53 F setpoint while On, drifts toward
    ambient while Off, and ramps up to (at most) 65 F across a failure day.
    The columns are bit for bit what a row-at-a-time loop drawing each row's
    seven normals in turn would build.
    """
    if days < 1:
        raise ContractError("days must be >= 1")
    if not 0 < interval_s <= 86400:  # NaN included
        raise ContractError(f"interval_s must be positive and at most 86400 s, got {interval_s}")
    failure = set(failure_days)
    rng = make_rng(seed)
    per_day = round(86400 / interval_s)
    # row i is slot k[i] of its local day, timedelta(seconds=k * interval_s)
    # after local midnight, rounded to the microsecond as timedelta rounds it
    day = np.repeat(np.arange(days), per_day)
    k = np.tile(np.arange(per_day), days)
    within_day = np.array([dt.timedelta(seconds=j * interval_s) // dt.timedelta(microseconds=1)
                           for j in range(per_day)])
    midnights = ((start_date - dt.date(1970, 1, 1)).days + np.arange(days)) * ingest.DAY_US
    stamps = ingest.from_wall_us(midnights[day] + within_day[k], schedule.tz)
    off = schedule.off_at(ingest.to_wall_us(stamps, schedule.tz))
    failing = np.array([start_date + dt.timedelta(days=i) in failure for i in range(days)])[day]
    state = np.where(failing, MachineState.ABNORMAL, np.where(off, MachineState.OFF, MachineState.ON))
    # A row's terms that depend only on its slot, each from the scalar
    # expression: an array np.sin or ** may take another route and differ in
    # the last bit.
    fracs = [j / per_day for j in range(per_day)]
    ramped = np.array([CHILLER_SETPOINT_F + (CHILLER_FAILURE_PEAK_F - CHILLER_SETPOINT_F)
                       * np.sin(np.pi * frac) ** 2 for frac in fracs])
    ambient = np.array([AMBIENT_F + 10.0 * np.sin(2 * np.pi * frac) for frac in fracs])
    # One standard normal per draw, in the order a row takes them: supply 1,
    # supply 2, air pressure 1 and 2, outside temperature, humidity, dewpoint.
    # rng.normal(0.0, s) is 0.0 + s * z, and adding 0.0 to s * z before a
    # nonzero level changes no bit of the sum.
    z = rng.standard_normal((len(k), 7)).T
    supply1 = (np.where(failing, ramped[k], np.where(off, AMBIENT_F, CHILLER_SETPOINT_F))
               + np.where(failing, 0.2, np.where(off, 1.0, CHILLER_ON_SIGMA_F)) * z[0])
    supply1 = np.where(failing, np.minimum(supply1, CHILLER_FAILURE_PEAK_F), supply1)
    values = np.stack([90.0 + 1.5 * z[2], 88.0 + 1.5 * z[3], supply1, supply1 + 0.3 * z[1],
                       ambient[k] + 1.0 * z[4], 55.0 + 5.0 * z[5], 45.0 + 2.0 * z[6]], axis=1)
    return ProcessTable(stamps, values, state)


_CHILLER_1 = ingest.PROCESS_MEASUREMENT_COLUMNS.index("Chiller 1 Supply Tmp")


def chiller_series(rows: ProcessTable) -> TimeSeries:
    """Chiller 1 supply temperature as a uniformly sampled series."""
    if len(rows) < 2:
        raise ContractError("need at least 2 process rows")
    start_s, second_s = rows.timestamps_s[:2].tolist()
    return TimeSeries(start_s=start_s, interval_s=second_s - start_s,
                      values=rows.values[:, _CHILLER_1].copy())


#: generate_spiked_series' AR(1) signal: its level, coefficient and noise
#: scale; its points are one second apart from t = 0.
SPIKED_LEVEL = 10.0
SPIKED_AR_COEF = 0.2
SPIKED_NOISE_SIGMA = 0.05


@dataclass(frozen=True)
class SpikedSeries:
    series: TimeSeries
    spike_indices: np.ndarray  # injection log: positions of true anomalies


def check_spiked_args(n: int, n_spikes: int, spike_rel: float) -> None:
    """generate_spiked_series' rule for its series shape, without generating it."""
    if n < 10 or n_spikes < 0 or n_spikes > n // 4:
        raise ContractError("need n >= 10 and 0 <= n_spikes <= n/4")
    if not np.isfinite(spike_rel):
        raise ContractError(f"spike_rel must be finite, got {spike_rel}")


def generate_spiked_series(
    n: int,
    n_spikes: int,
    spike_rel: float = 0.3,
    seed: int = 0,
) -> SpikedSeries:
    """Learnable AR(1) signal around a positive level with multiplicative
    spikes injected at random positions; the injection log is the ground truth
    for detection scoring."""
    check_spiked_args(n, n_spikes, spike_rel)
    rng = make_rng(seed)
    values = np.empty(n)
    prev = 0.0
    noise = rng.normal(0.0, SPIKED_NOISE_SIGMA, n)
    for i in range(n):
        prev = SPIKED_AR_COEF * prev + noise[i]
        values[i] = SPIKED_LEVEL + prev
    # spikes only in the back half so a chronological split leaves them in test
    candidates = np.arange(n // 2 + 1, n)
    spikes = np.sort(rng.choice(candidates, size=n_spikes, replace=False))
    with np.errstate(over="ignore"):  # the error below names the cause
        values[spikes] *= 1.0 + spike_rel
    if not np.all(np.isfinite(values[spikes])):
        raise ContractError(f"spike_rel = {spike_rel} makes a spiked value overflow")
    return SpikedSeries(
        series=TimeSeries(start_s=0.0, interval_s=1.0, values=values),
        spike_indices=spikes,
    )
