"""Independent work spread over cores by `core._spread`: the calling process
and `os.fork` workers, which report over pipes and are reaped with `wait4`
(nothing loads `multiprocessing`), one process per BLAS thread pool that
fits in the affinity mask. `run_benchmark` spreads its (family, variant)
units, `cross_rpm_matrix` its two trainings (the single-speed classifiers
and the augmented one), and `nn.sgd_epochs` always trains in the calling
process. Most tests pin BLAS to one thread, so each core of the mask gets a
process.
The bench grid and its `--out` bytes, and the cross-speed grid, its models'
weights and loss curves, must not depend on the number of cores, a unit's
exception must reach the caller as a serial loop would raise it, and no
worker may outlive the call, not even as a zombie.

Each test wraps `forecast.fit`, `nn.base._train` or `core._take_units` (the
workers inherit the wrapper by fork) so that a chosen unit runs in a worker,
not in a caller that took every unit before the worker started."""

import mmap
import os
import time

import numpy as np
import pytest

from vibrosense import classify, cli, core, forecast
from vibrosense.anomaly import AnomalyDataset, TruthRule, run_benchmark
from vibrosense.classify import TrainConfig, cross_rpm_matrix
from vibrosense.core import ContractError, SplitSpec, make_rng
from vibrosense.forecast import ForecastModelConfig
from vibrosense.nn import Mlp, base, sgd_epochs
from vibrosense.synth import generate_spiked_series


def _cores(monkeypatch, n, blas_threads="1"):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    if blas_threads is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)


def _assert_no_child():
    with pytest.raises(ChildProcessError):  # every worker reaped, none running
        os.waitpid(-1, os.WNOHANG)


def _until(done, timeout=30.0):
    stop = time.monotonic() + timeout
    while not done():
        if time.monotonic() > stop:
            raise TimeoutError("the other process never got there")
        time.sleep(0.005)


class _Fits:
    """`forecast.fit` (or another `target` module's function) wrapped to log
    each call's pid to a file and run `before(in_caller, first_argument)`
    first."""

    def __init__(self, monkeypatch, log, before, target=(forecast, "fit")):
        self.caller, self.log = os.getpid(), log
        real = getattr(*target)

        def fit(first, *args):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            before(os.getpid() == self.caller, first)
            return real(first, *args)

        monkeypatch.setattr(*target, fit)

    def pids(self):
        return set(self.log.read_text().split()) if self.log.exists() else set()

    def worker_started(self):
        return bool(self.pids() - {str(self.caller)})

    def assert_no_worker_left(self):
        for pid in self.pids() - {str(self.caller)}:
            with pytest.raises(ProcessLookupError):  # reaped, not even a zombie
                os.kill(int(pid), 0)
        _assert_no_child()


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


def _two_cores_in_use(monkeypatch, tmp_path, target=(forecast, "fit")):
    """Two cores, with the caller's first unit held until a worker has
    taken one."""
    _cores(monkeypatch, 2)
    fits = _Fits(monkeypatch, tmp_path / "pids",
                 lambda in_caller, variant: in_caller and _until(fits.worker_started), target)
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
    def no_fork():
        raise AssertionError("a one-process run forked")

    def not_forked(*args):
        raise AssertionError("a one-process run entered core._forked")

    _cores(monkeypatch, n_cores, blas_threads)
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(core, "_forked", not_forked)
    caller = os.getpid()
    assert core._spread(lambda i: (i * i, os.getpid()), n_units, str) == [
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
    assert core._spread(work, 400, str) == [i * i for i in range(400)]
    assert time.monotonic() - t0 < 60
    assert sorted(int(i) for i in log.read_text().split()) == list(range(400))
    _assert_no_child()


def test_an_interrupt_in_the_caller_ends_the_worker_inside_its_unit(monkeypatch, tmp_path):
    log, ended = tmp_path / "pids", tmp_path / "ended"
    caller = os.getpid()

    def work(i):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        if os.getpid() == caller:
            _until(lambda: len(log.read_text().split()) == 2)  # the worker is inside a unit
            raise KeyboardInterrupt
        try:
            _until(lambda: False)  # held until terminated
        finally:
            ended.touch()  # a terminated worker never gets here
        return i

    _cores(monkeypatch, 2)
    with pytest.raises(KeyboardInterrupt):
        core._spread(work, 2, str)
    (worker,) = {int(pid) for pid in log.read_text().split()} - {caller}
    with pytest.raises(ProcessLookupError):  # reaped, not even a zombie
        os.kill(worker, 0)
    _assert_no_child()
    assert not ended.exists()


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
    assert core._blas_threads(4) == threads


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
    assert core._spread(work, 12, str) == list(range(12))
    assert len(set(log.read_text().split())) == processes
    _assert_no_child()


# --- cross_rpm_matrix: its two trainings side by side -------------------------

TRAIN = (base, "_train")


def _per_rpm(scale=1.0):
    gen = np.random.default_rng(2)
    per_rpm = {}
    for i, rpm in enumerate((100, 200, 300)):
        labels = np.arange(60) % 3
        per_rpm[rpm] = (scale * (gen.normal(size=(60, 4)) * 0.6
                                 + labels[:, None] * (1.0 + 0.4 * i)), labels)
    return per_rpm


def _grid(per_rpm):
    return cross_rpm_matrix(per_rpm, hidden_sizes=(8, 8), augment_n_per_rpm=30,
                            cfg=TrainConfig(epochs=4, batch_size=16, learning_rate=0.05, seed=3))


def _grid_and_models(monkeypatch):
    """The cross-speed grid with its augmented row, and the models it
    evaluated."""
    models, real = [], classify.evaluate

    def evaluate(model, *args):
        if not any(m is model for m in models):
            models.append(model)
        return real(model, *args)

    with monkeypatch.context() as patch:
        patch.setattr(classify, "evaluate", evaluate)
        grid = _grid(_per_rpm())
    return grid, models


def _weights(net):
    return [p.tobytes() for p in net.parameters()]


def test_cross_rpm_grid_and_models_do_not_depend_on_the_core_count(monkeypatch, tmp_path):
    # two units: the three single-speed classifiers and the augmented one
    _cores(monkeypatch, 1)
    alone, alone_models = _grid_and_models(monkeypatch)
    units = _two_cores_in_use(monkeypatch, tmp_path, TRAIN)
    spread, spread_models = _grid_and_models(monkeypatch)
    assert len(units.pids()) == 2
    assert spread == alone
    assert len(spread_models) == 4
    for model, ref in zip(spread_models, alone_models):
        assert _weights(model.net) == _weights(ref.net)
        assert model.training_loss == ref.training_loss and len(ref.training_loss) == 4
    units.assert_no_worker_left()


def _worker_takes(monkeypatch, unit):
    """Two cores, with the units handed out so that the worker takes `unit`
    of the grid's two and the caller the other. A take that passes on the
    number k sets byte k - 1 of memory that both processes share, so the
    highest byte set tells the next unstarted unit."""
    _cores(monkeypatch, 2)
    caller, real_take, real_next = os.getpid(), core._take_units, core._next_unit
    passed = mmap.mmap(-1, mmap.PAGESIZE)

    def next_unit(pipe, n_units, stop=False):
        i = real_next(pipe, n_units, stop)
        passed[(n_units if stop else min(i + 1, n_units)) - 1] = 1
        return i

    def next_unstarted():
        return passed.rfind(b"\x01") + 1

    def take(work, pipe, n_units, deliver):
        first = (os.getpid() == caller) == (unit == 1)
        if not first:  # until the other process has taken unit 0
            _until(lambda: next_unstarted() >= 1)
            return real_take(work, pipe, n_units, deliver)

        def held(i, outcome):  # unit 0 done: held until the other has taken unit 1
            _until(lambda: next_unstarted() >= 2)
            deliver(i, outcome)

        return real_take(work, pipe, n_units, held)

    monkeypatch.setattr(core, "_next_unit", next_unit)
    monkeypatch.setattr(core, "_take_units", take)


def test_a_classifier_diverging_in_the_worker_raises_as_on_one_core(monkeypatch):
    # every classifier diverges: the single-speed ones' error, raised in the
    # worker, is the one a single process raises
    _cores(monkeypatch, 1)
    with pytest.raises(ContractError, match=r"^non-finite training loss at epoch \d+$") as alone:
        _grid(_per_rpm(scale=1e100))
    _worker_takes(monkeypatch, 0)
    with pytest.raises(ContractError) as spread:
        _grid(_per_rpm(scale=1e100))
    assert str(spread.value) == str(alone.value)
    assert "raised in a worker process" in str(spread.value.__cause__)
    _assert_no_child()


def test_a_classifier_that_overflows_when_evaluated_is_an_error_not_chance_accuracy(
        monkeypatch):
    # training stays finite, but the trained nets' outputs overflow on the
    # test splits
    _cores(monkeypatch, 1)
    with pytest.raises(ContractError, match="output overflowed on these features"):
        cross_rpm_matrix(_per_rpm(scale=1e6), hidden_sizes=(8, 8), augment_n_per_rpm=30,
                         cfg=TrainConfig(epochs=4, batch_size=16, learning_rate=1.0, seed=3))


def test_a_worker_that_dies_training_the_augmented_classifier_is_an_error_naming_it(
        monkeypatch, tmp_path):
    def before(in_caller, members):
        if not in_caller:
            os._exit(3)

    _worker_takes(monkeypatch, 1)
    units = _Fits(monkeypatch, tmp_path / "pids", before, TRAIN)
    with pytest.raises(RuntimeError, match=r"exit code 3\) while fitting the augmented "
                                           r"classifier$"):
        _grid(_per_rpm())
    assert len(units.pids()) == 2
    units.assert_no_worker_left()


def test_sgd_epochs_trains_every_stack_in_the_calling_process(monkeypatch, tmp_path):
    # two stacks (one per input width), two cores and one BLAS thread
    _cores(monkeypatch, 2)
    calls = _Fits(monkeypatch, tmp_path / "pids", lambda in_caller, members: None, TRAIN)
    gen = np.random.default_rng(7)
    nets, xs, ys, rngs = [], [], [], []
    for seed, width in enumerate((6, 6, 4)):
        rngs.append(make_rng(seed))
        nets.append(Mlp([width, 8, 1], "mse", rngs[-1]))
        xs.append(gen.standard_normal((23, width)))
        ys.append(np.sin(xs[-1].sum(axis=1)))
    curves = sgd_epochs(nets, xs, ys, 2, 5, 0.02, rngs)
    assert [len(c) for c in curves] == [2, 2, 2]
    assert calls.log.read_text().split() == [str(os.getpid())] * 2
    _assert_no_child()
