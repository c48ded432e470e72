"""The bench grid spread over cores: `run_benchmark` fits its (family,
variant) units in the calling process and in forked workers, one process per
BLAS thread pool that fits in the affinity mask. Most tests pin BLAS to one
thread, so each core of the mask gets a process. The grid and the `--out`
bytes must not depend on
the number of cores, a unit's exception must reach the caller as a serial
loop would raise it, and no worker may outlive the call.

Each test wraps `forecast.fit` (the workers inherit the wrapper by fork) so
that a chosen unit runs in a worker, not in a caller that took every unit
before the worker started."""

import multiprocessing
import os
import time

import pytest

from vibrosense import anomaly, cli, forecast
from vibrosense.anomaly import AnomalyDataset, TruthRule, run_benchmark
from vibrosense.core import SplitSpec
from vibrosense.forecast import ForecastModelConfig
from vibrosense.synth import generate_spiked_series


def _cores(monkeypatch, n, blas_threads="1"):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    if blas_threads is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)


def _until(done, timeout=30.0):
    stop = time.monotonic() + timeout
    while not done():
        if time.monotonic() > stop:
            raise TimeoutError("the other process never got there")
        time.sleep(0.005)


class _Fits:
    """`forecast.fit` wrapped to log each call's pid to a file and run
    `before(in_caller, variant)` first."""

    def __init__(self, monkeypatch, log, before):
        self.caller, self.log = os.getpid(), log
        real = forecast.fit

        def fit(variant, series):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            before(os.getpid() == self.caller, variant)
            return real(variant, series)

        monkeypatch.setattr(forecast, "fit", fit)

    def pids(self):
        return set(self.log.read_text().split()) if self.log.exists() else set()

    def worker_started(self):
        return bool(self.pids() - {str(self.caller)})

    def assert_no_worker_left(self):
        for pid in self.pids() - {str(self.caller)}:
            with pytest.raises(ProcessLookupError):  # reaped, not even a zombie
                os.kill(int(pid), 0)
        assert multiprocessing.active_children() == []


def _datasets():
    # the 40-point series is shorter than the autoencoder's window: an error cell
    spiked = [generate_spiked_series(n, 4, seed=i) for i, n in enumerate((150, 40, 150))]
    return [AnomalyDataset(f"d{i}", sp.series, TruthRule.INJECTED_SPIKES,
                           spike_indices=sp.spike_indices) for i, sp in enumerate(spiked)]


GRID = {
    "seasonal_naive": [ForecastModelConfig("seasonal_naive", {"m": m}) for m in (1, 10)],
    "ar": [ForecastModelConfig("ar", {"p": p}) for p in (5, 10)],
    "mlp": [ForecastModelConfig("mlp", {"hidden_layers": 1, "neurons": 6, "epochs": 2}, seed=4)],
    "autoencoder": [ForecastModelConfig("autoencoder", {"window": 32, "epochs": 1}, seed=5)],
}


def _two_cores_in_use(monkeypatch, tmp_path):
    """Two cores, with the caller's first unit held until a worker has
    taken one."""
    _cores(monkeypatch, 2)
    fits = _Fits(monkeypatch, tmp_path / "pids",
                 lambda in_caller, variant: in_caller and _until(fits.worker_started))
    return fits


def test_one_core_and_two_give_equal_grids(monkeypatch, tmp_path):
    _cores(monkeypatch, 1)
    alone = run_benchmark(_datasets(), GRID, SplitSpec(0.66))
    fits = _two_cores_in_use(monkeypatch, tmp_path)
    spread = run_benchmark(_datasets(), GRID, SplitSpec(0.66))
    assert len(fits.pids()) == 2
    assert any(c["error"] for c in alone["grid"])
    assert spread == alone
    fits.assert_no_worker_left()


def test_bench_out_bytes_do_not_depend_on_the_core_count(monkeypatch, tmp_path):
    cfg = tmp_path / "small.ini"
    cfg.write_text("[datasets]\nn_points = 40\n")
    argv = ["--config", str(cfg), "bench", "--models", "seasonal_naive,ar,mlp,autoencoder",
            "--datasets", "synth-a,synth-b", "--seed", "3", "--out"]
    _cores(monkeypatch, 1)
    assert cli.main(argv + [str(tmp_path / "one.json")]) == 0
    fits = _two_cores_in_use(monkeypatch, tmp_path)
    assert cli.main(argv + [str(tmp_path / "two.json")]) == 0
    assert len(fits.pids()) == 2
    one = (tmp_path / "one.json").read_bytes()
    assert b"series too short" in one
    assert (tmp_path / "two.json").read_bytes() == one
    fits.assert_no_worker_left()


def test_a_workers_exception_reaches_the_caller(monkeypatch, tmp_path):
    failed = tmp_path / "failed"

    def before(in_caller, variant):
        if in_caller:
            _until(failed.exists)
        else:
            failed.touch()
            raise LookupError(f"no {variant.model_kind} today")

    _cores(monkeypatch, 2)
    fits = _Fits(monkeypatch, tmp_path / "pids", before)
    with pytest.raises(LookupError, match=r"^no (seasonal_naive|ar|mlp|autoencoder) today$") as info:
        run_benchmark(_datasets(), GRID, SplitSpec(0.66))
    assert "raised in a worker process" in str(info.value.__cause__)
    fits.assert_no_worker_left()


class _TwoArgError(Exception):
    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


def test_an_exception_that_does_not_unpickle_keeps_its_type_name_and_message(monkeypatch,
                                                                             tmp_path):
    failed = tmp_path / "failed"

    def before(in_caller, variant):
        if in_caller:
            _until(failed.exists)
        else:
            failed.touch()
            raise _TwoArgError(variant.model_kind, "broken")

    _cores(monkeypatch, 2)
    fits = _Fits(monkeypatch, tmp_path / "pids", before)
    with pytest.raises(RuntimeError, match=r"^_TwoArgError: \w+: broken$"):
        run_benchmark(_datasets(), GRID, SplitSpec(0.66))
    fits.assert_no_worker_left()


@pytest.mark.parametrize("n_cores", [1, 2])
def test_the_lowest_failing_unit_wins(monkeypatch, tmp_path, n_cores):
    fits = None

    def before(in_caller, variant):
        if n_cores == 2:
            # both processes are inside a unit before either fails
            _until(lambda: len(fits.pids()) == 2)
        raise ValueError(f"{variant.model_kind} {variant.hyperparameters} failed")

    _cores(monkeypatch, n_cores)
    fits = _Fits(monkeypatch, tmp_path / "pids", before)
    with pytest.raises(ValueError, match=r"^seasonal_naive \{'m': 1\} failed$"):
        run_benchmark(_datasets(), GRID, SplitSpec(0.66))
    assert len(fits.pids()) == n_cores
    fits.assert_no_worker_left()


def test_a_worker_that_dies_is_an_error_naming_its_unit(monkeypatch, tmp_path):
    def before(in_caller, variant):
        if in_caller:
            _until(fits.worker_started)
        else:
            os._exit(3)

    _cores(monkeypatch, 2)
    fits = _Fits(monkeypatch, tmp_path / "pids", before)
    with pytest.raises(RuntimeError, match=r"exit code 3\) while fitting model family "
                                           r"'seasonal_naive' variant [01]$"):
        run_benchmark(_datasets(), GRID, SplitSpec(0.66))
    fits.assert_no_worker_left()


@pytest.mark.parametrize("n_cores, blas_threads, n_units", [(2, None, 5), (1, "1", 5), (2, "1", 1)])
def test_one_process_is_a_plain_loop(monkeypatch, n_cores, blas_threads, n_units):
    def no_context(*args, **kwargs):
        raise AssertionError("a one-process run asked for a multiprocessing context")

    _cores(monkeypatch, n_cores, blas_threads)
    monkeypatch.setattr(multiprocessing, "get_context", no_context)
    caller = os.getpid()
    assert anomaly._spread(lambda i: (i * i, os.getpid()), n_units, str) == [
        (i * i, caller) for i in range(n_units)]


def test_every_unit_runs_once_with_more_workers_than_cores(monkeypatch, tmp_path):
    # a lost update on the shared counter would run a unit twice or never
    log = tmp_path / "units"

    def work(i):
        with open(log, "a") as fh:
            fh.write(f"{i}\n")
        return i * i

    _cores(monkeypatch, 6)
    t0 = time.monotonic()
    assert anomaly._spread(work, 400, str) == [i * i for i in range(400)]
    assert time.monotonic() - t0 < 60
    assert sorted(int(i) for i in log.read_text().split()) == list(range(400))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("env, threads", [
    ({}, 4),
    ({"OPENBLAS_NUM_THREADS": "1"}, 1),
    ({"OMP_NUM_THREADS": "2"}, 2),
    ({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
    ({"OPENBLAS_NUM_THREADS": "3", "GOTO_NUM_THREADS": "1"}, 3),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, 2),
    ({"OPENBLAS_NUM_THREADS": "8"}, 4),
    ({"OPENBLAS_NUM_THREADS": "many"}, 4),
])
def test_blas_threads_are_read_as_openblas_reads_them(monkeypatch, env, threads):
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert anomaly._blas_threads(4) == threads


@pytest.mark.parametrize("n_cores, blas_threads, processes", [(2, None, 1), (4, "2", 2), (3, "1", 3)])
def test_one_process_per_blas_pool_that_fits_in_the_mask(monkeypatch, tmp_path, n_cores,
                                                         blas_threads, processes):
    log = tmp_path / "pids"

    def work(i):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        # held until every expected process has started a unit; long enough
        # that a process too many would take one too
        _until(lambda: len(set(log.read_text().split())) >= processes)
        time.sleep(0.02)
        return i

    _cores(monkeypatch, n_cores, blas_threads)
    assert anomaly._spread(work, 12, str) == list(range(12))
    assert len(set(log.read_text().split())) == processes
    assert multiprocessing.active_children() == []
