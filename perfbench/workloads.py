"""The benchmark's workloads.

Each workload has a ``setup`` that builds its inputs from the seed (and may be
repeated), a ``run_pass`` that does one timed pass and reports what it did,
and a ``verify`` that runs after the timed passes. Workloads call vibrosense
only through module attributes (``forecast.fit``, ``cli.main``), so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from statistics import mean
from typing import Dict, List, Optional

import numpy as np

from vibrosense import autoenc, classify, cli, core, forecast, ingest, synth
from vibrosense.core import ContractError, DefectLabel, OperatingPoint, TimeSeries

import spans

FAMILIES = spans.FAMILIES
ALL_MODELS = ",".join(FAMILIES)
_EPOCH = re.compile(r"non-finite training loss at epoch (\d+)")
CROSS_RPMS = (100, 200, 300, 400)


def error_record(where: str, kind: str, message: str) -> dict:
    """A failed operation, with the epoch when it is a training divergence."""
    found = _EPOCH.search(message)
    return {"where": where, "kind": kind, "message": message,
            "epoch": int(found.group(1)) if found else None}


def error_share(attempted: int, failed: int) -> float:
    if attempted < 1 or not 0 <= failed <= attempted:
        raise ValueError(f"bad operation counts: {failed} failed of {attempted}")
    return failed / attempted


def digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def file_digest(paths) -> str:
    return digest(*(Path(p).read_bytes() for p in paths))


@dataclass
class Setup:
    """What a workload's set-up built; ``fingerprint`` hashes it, so repeated
    set-ups can be checked for identical output."""

    fingerprint: str
    data: dict
    attempted: int = 0
    errors: List[dict] = field(default_factory=list)


@dataclass
class PassResult:
    """One pass: work done (in the workload's unit), operations, checksum,
    quality figures, and any output check that failed."""

    work: float
    attempted: int
    errors: List[dict]
    checksum: str
    quality: Dict[str, float]
    problems: List[str] = field(default_factory=list)


class Workload:
    name = ""
    work_unit = ""
    dominant_claim = ""
    SIZES: dict = {}

    def __init__(self, sizes: Optional[dict] = None):
        self.sizes = dict(self.SIZES)
        self.sizes.update(sizes or {})

    def setup(self, seed: int, work: Path) -> Setup:
        raise NotImplementedError

    def run_pass(self, seed: int, work: Path, state: Setup) -> PassResult:
        raise NotImplementedError

    def verify(self, seed: int, state: Setup, first: PassResult) -> List[str]:
        return []

    def dominant_share(self, trace: List[spans.Span], pass_s: float) -> float:
        """Share of a traced pass spent in the layer the workload is chosen for."""
        raise NotImplementedError

    def dominant_holds(self, share: float) -> bool:
        return share > 0.5


def _fit_families(train: TimeSeries, seed: int):
    """One fitted model per family (the first ``cli.default_variants`` entry);
    a fit that fails is an error record instead of a model."""
    models, errors = {}, []
    for family in FAMILIES:
        try:
            models[family] = forecast.fit(cli.default_variants(family, seed)[0], train)
        except ContractError as exc:
            errors.append(error_record(f"fit/{family}", type(exc).__name__, str(exc)))
    return models, errors


def _remove(*paths: Path) -> None:
    """Delete last pass's output before this pass writes it again. On ext4 a
    file truncated and rewritten starts disk writeback when it is closed
    (``auto_da_alloc``), which would put the disk's speed into the pass."""
    for path in paths:
        path.unlink(missing_ok=True)


def _quiet_cli(argv: List[str]) -> int:
    """Run the command line with its tables kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class DetectGrid(Workload):
    """``vibrosense bench`` over synth-a and synth-b with all nine families, as
    acceptance criterion 4 runs it, at a longer series. Fitting dominates."""

    name = "detect-grid"
    work_unit = "points"
    dominant_claim = "forecast fitting is most of the pass"
    SIZES = {"n_points": 2000}

    def setup(self, seed, work):
        config = work / "bench.ini"
        config.write_text(f"[datasets]\nn_points = {self.sizes['n_points']}\n")
        return Setup(fingerprint=file_digest([config]), data={"config": config})

    def run_pass(self, seed, work, state):
        out = work / "bench.json"
        _remove(out)
        rc = _quiet_cli(["--config", str(state.data["config"]), "bench",
                         "--models", ALL_MODELS, "--datasets", "synth-a,synth-b",
                         "--seed", str(seed), "--out", str(out)])
        if rc != 0:
            raise RuntimeError(f"vibrosense bench exited {rc}")
        raw = out.read_bytes()
        cells = json.loads(raw)["grid"]
        errors = [error_record(f"{c['dataset']}/{c['model']}", "ContractError", c["error"])
                  for c in cells if c["error"] is not None]
        scored = [c for c in cells if c["error"] is None]
        problems = []
        if len(cells) != 24:
            problems.append(f"expected 24 cells, got {len(cells)}")
        if not all(np.isfinite(c["rmse"]) and 0.0 <= c["f1"] <= 1.0 for c in scored):
            problems.append("a scored cell has a non-finite RMSE or an F1 outside [0, 1]")
        return PassResult(
            work=float(sum(c["n_test"] for c in scored)),
            attempted=len(cells),
            errors=errors,
            checksum=digest(raw),
            quality={"detect_f1": mean(c["f1"] for c in scored) if scored else 0.0},
            problems=problems,
        )

    def dominant_share(self, trace, pass_s):
        return spans.outer_time(trace, lambda s: s.name == "forecast.fit") / pass_s


def _training_examples(fn):
    """Tag: training rows x epochs of one training call."""
    signature = inspect.signature(fn)

    def tag(args, kwargs, out):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return len(bound.arguments["features"]) * bound.arguments["cfg"].epochs

    return tag


class DefectTrain(Workload):
    """The classifier half: transfer, cross-speed grid with augmentation,
    binary training and the dual-loss autoencoder, each at acceptance-test or
    command-line settings. Small-batch dense SGD dominates."""

    name = "defect-train"
    work_unit = "examples"
    dominant_claim = "no time is spent in forecast"
    # a quarter of the acceptance-test data, so a run holds several passes
    SIZES = {"source_duration_s": 2.6, "target_samples": 500, "cross_rpm_duration_s": 0.25,
             "train_duration_s": 0.5, "autoenc_days": 1}

    def setup(self, seed, work):
        return Setup(fingerprint=digest(), data={})

    def _tasks(self, seed, work, reports):
        """The pass's four tasks; each returns its accuracies by name."""
        s = self.sizes

        def transfer():
            cfg = classify.TrainConfig(epochs=10, batch_size=64, learning_rate=0.05, seed=seed)
            r = cli.run_transfer_experiment(
                rpm=100, source_duration_s=s["source_duration_s"],
                target_samples=s["target_samples"], noise=0.3, extra_noise=0.5, cfg=cfg,
                target_epoch_scale=0.3)
            return {"dnn_r": r["dnn_r_accuracy"], "dnn_tl": r["dnn_tl_accuracy"]}

        def cross_rpm():
            per_rpm = cli._synth_per_rpm(list(CROSS_RPMS), duration_s=s["cross_rpm_duration_s"],
                                         noise=0.3, seed=seed, amp_rpm_exponent=1.0)
            grid = classify.cross_rpm_matrix(
                per_rpm, cfg=classify.TrainConfig(epochs=15, seed=seed),
                augment_n_per_rpm=200)["grid"]
            return {f"{row}/{col}": acc for row, cells in grid.items()
                    for col, acc in cells.items()}

        def command(argv, key):
            out = work / f"{argv[0]}.json"
            _remove(out)
            rc = _quiet_cli(argv + ["--seed", str(seed), "--out", str(out)])
            if rc != 0:
                raise RuntimeError(f"vibrosense {argv[0]} exited {rc}")
            raw = out.read_bytes()
            reports.append(raw)
            return {"accuracy": json.loads(raw)[key]}

        return {
            "transfer": transfer,
            "cross_rpm": cross_rpm,
            "train_binary": lambda: command(
                ["train", "--synth-rpms", "200,300", "--binary",
                 "--duration", str(s["train_duration_s"])], "accuracy"),
            "autoenc": lambda: command(["autoenc", "--days", str(s["autoenc_days"])],
                                       "train_accuracy"),
        }

    def run_pass(self, seed, work, state):
        # always on: ten spans a pass, at the training entry points only
        counter = spans.Tracer(targets=(
            ("classify", "train_classifier", _training_examples(classify.train_classifier)),
            ("autoenc", "train_autoenc_classifier",
             _training_examples(autoenc.train_autoenc_classifier))))
        accuracies, errors, reports = {}, [], []
        attempted = 0
        counter.install()
        try:
            for task, fn in self._tasks(seed, work, reports).items():
                before = len(counter.spans)
                try:
                    accuracies.update({f"{task}/{k}": v for k, v in fn().items()})
                except (ContractError, RuntimeError) as exc:
                    errors.append(error_record(task, type(exc).__name__, str(exc)))
                    if all(c.ok for c in counter.spans[before:]):
                        attempted += 1  # the task failed outside a training call
                attempted += len(counter.spans) - before
        finally:
            counter.uninstall()
        quality = {}
        if "transfer/dnn_tl" in accuracies:
            quality["transfer_gap"] = accuracies["transfer/dnn_tl"] - accuracies["transfer/dnn_r"]
        if "cross_rpm/augmented/average" in accuracies:
            quality["augment_gap"] = accuracies["cross_rpm/augmented/average"] - min(
                accuracies[f"cross_rpm/{rpm}/average"] for rpm in CROSS_RPMS)
        return PassResult(
            work=float(sum(c.tag for c in counter.spans if c.ok)),
            attempted=attempted,
            errors=errors,
            checksum=digest(json.dumps(accuracies, sort_keys=True).encode(), *reports),
            quality=quality,
            problems=[f"{k} = {v} is not an accuracy" for k, v in accuracies.items()
                      if not 0.0 <= v <= 1.0],
        )

    def dominant_share(self, trace, pass_s):
        return spans.outer_time(trace, lambda s: s.layer == "forecast") / pass_s

    def dominant_holds(self, share):
        return share == 0.0


def _row_key(row) -> tuple:
    return (row.timestamp_s, row.measurements().tobytes())


def _dst_gap_lines(rows) -> List[int]:
    """File lines of a process CSV that a write -> parse -> write round trip
    is known to change.

    ``synth.generate_process`` emits rows for the local times that do not
    exist at the 2022-03-13 spring-forward change; their timestamps repeat
    those of the next hour, and the parser returns rows sorted by timestamp,
    so the rewrite interleaves the two hours. These are the lines where the
    rows as written and the same rows sorted by timestamp differ, within that
    hour. Line 1 is the header.
    """
    ordered = sorted(rows, key=lambda r: r.timestamp_s)
    return [i + 2 for i, (a, b) in enumerate(zip(rows, ordered))
            if _row_key(a) != _row_key(b)
            and ingest.format_timestamp(a.timestamp_s).startswith("2022-03-13 03:")]


class IngestRoundtrip(Workload):
    """The format layers: write, parse and rewrite tri-axial, pharma and
    process files at realistic sizes, label the process rows, and round-trip
    fitted forecasters and a classifier through ``modelio``."""

    name = "ingest-roundtrip"
    work_unit = "rows"
    dominant_claim = "ingest and modelio are most of the pass"
    # small enough for several passes a run; 72 process days still cross the
    # 2022-03-13 daylight-saving change
    SIZES = {"triaxial_s": 15.0, "pharma_records": 10, "process_days": 72,
             "model_points": 400}

    def setup(self, seed, work):
        s = self.sizes
        triaxial = synth.generate_vibration(synth.SynthConfig(
            rpm=300, sample_rate_hz=3200.0, duration_s=s["triaxial_s"],
            imbalance_level=DefectLabel.NEAR_FAILURE, seed=seed))
        n = ingest.PHARMA_POINTS_PER_AXIS
        base = ingest.parse_timestamp("2022-01-03 08:00:00")
        pharma = []
        for i in range(s["pharma_records"]):
            rec = synth.generate_vibration(synth.SynthConfig(
                rpm=300, sample_rate_hz=3200.0, duration_s=n / 3200.0,
                imbalance_level=DefectLabel(i % 3), seed=seed + 1 + i))
            pharma.append(ingest.PharmaRecord(start_s=base + 600.0 * i, x=rec.x[:n],
                                              y=rec.y[:n], z=rec.z[:n], dt_s=1.0 / 3200.0))
        process = [row for row, _ in synth.generate_process(days=s["process_days"], seed=seed)]
        spiked = synth.generate_spiked_series(n=s["model_points"], n_spikes=8, seed=seed)
        train, _ = core.split_series(spiked.series, core.SplitSpec(0.66))
        models, errors = _fit_families(train, seed)
        feats, labels = cli._synth_per_rpm([300], duration_s=0.25, noise=0.3, seed=seed)[300]
        models["classifier"] = classify.train_classifier(
            feats, labels, cfg=classify.TrainConfig(epochs=5, seed=seed))
        return Setup(fingerprint=digest(triaxial.x.tobytes(), process[-1].measurements().tobytes(),
                                         pharma[-1].z.tobytes()),
                     data={"triaxial": triaxial, "pharma": pharma, "process": process,
                           # the parser promises the written rows back, sorted by timestamp
                           "process_sorted": [_row_key(r) for r in sorted(
                               process, key=lambda r: r.timestamp_s)],
                           "process_dst_lines": _dst_gap_lines(process),
                           "models": models, "context": train.values[-32:],
                           "probe": feats[:5]},
                     attempted=len(FAMILIES) + 1, errors=errors)

    def run_pass(self, seed, work, state):
        d = state.data
        rows = 0
        problems, errors, written = [], [], []

        def roundtrip(what, write, parse, obj, count, known_changes=()):
            """write -> parse -> write; any change in the rewritten bytes other
            than ``known_changes`` (file line numbers) fails the run."""
            nonlocal rows
            first, second = work / f"{what}.1", work / f"{what}.2"
            _remove(first, second)
            try:
                write(obj, first)
                parsed = parse(first)
                write(parsed, second)
            except ContractError as exc:
                errors.append(error_record(what, type(exc).__name__, str(exc)))
                problems.append(f"{what}: round trip raised {exc}")
                return None
            raw = first.read_bytes()
            written.append(raw)
            rows += 3 * count(obj)
            again = second.read_bytes()
            if raw == again:
                return parsed
            lines, relines = raw.splitlines(), again.splitlines()
            changed = [i + 1 for i, (a, b) in enumerate(zip(lines, relines)) if a != b]
            if len(lines) != len(relines):
                changed.append(min(len(lines), len(relines)) + 1)
            errors.append(error_record(what, "RoundTripMismatch", (
                f"write -> parse -> write changed {len(changed)} of {len(lines)} lines, "
                f"first at line {changed[0]}")))
            if changed != list(known_changes):
                problems.append(f"{what}: write -> parse -> write changed lines {changed[:5]}"
                                f"{'...' if len(changed) > 5 else ''} (known: "
                                f"{len(known_changes)} daylight-saving lines)")
            return parsed

        triaxial = roundtrip(
            "triaxial", ingest.write_triaxial_csv,
            lambda p: ingest.parse_triaxial_csv(p, sample_rate_hz=3200.0,
                                                operating_point=OperatingPoint(rpm=300)),
            [d["triaxial"]], lambda recs: sum(len(r) for r in recs))
        if triaxial is not None and not (len(triaxial) == 1 and all(
                np.array_equal(getattr(triaxial[0], axis), getattr(d["triaxial"], axis))
                for axis in "xyz")):
            problems.append("triaxial: parsed values differ from the written ones")
        pharma = roundtrip("pharma", ingest.write_pharma_txt, ingest.parse_pharma_txt,
                           d["pharma"], lambda recs: spans.PHARMA_ROWS_PER_RECORD * len(recs))
        if pharma is not None and not (len(pharma) == len(d["pharma"]) and all(
                all(np.array_equal(getattr(a, axis), getattr(b, axis)) for axis in "xyz")
                and a.start_s == b.start_s and a.dt_s == b.dt_s
                for a, b in zip(pharma, d["pharma"]))):
            problems.append("pharma: parsed values differ from the written ones")
        process = roundtrip("process", ingest.write_process_csv, ingest.parse_process_csv,
                            d["process"], len, known_changes=d["process_dst_lines"])
        if process is not None:
            if [_row_key(r) for r in process] != d["process_sorted"]:
                problems.append("process: parsed rows differ from the written rows, sorted")
            labeled = ingest.label_process_rows(process)
            if len(labeled) != len(d["process"]):
                problems.append("process: labeling dropped rows")

        for name, model in d["models"].items():
            if name == "classifier":
                save, load = classify.save_classifier, classify.load_classifier
            else:
                save, load = forecast.save_forecaster, forecast.load_forecaster
            loaded = roundtrip(f"model-{name}", save, load, model, lambda m: 0)
            if loaded is None:
                continue
            if name == "classifier":
                same = np.array_equal(classify.predict_proba(model, d["probe"]),
                                      classify.predict_proba(loaded, d["probe"]))
            else:
                same = model.predict_one_step(d["context"]) == loaded.predict_one_step(d["context"])
            if not same:
                problems.append(f"model-{name}: reloaded model predicts differently")
        return PassResult(
            work=float(rows),
            attempted=3 + len(d["models"]),
            errors=errors,
            checksum=digest(*written),
            quality={},
            problems=problems,
        )

    def dominant_share(self, trace, pass_s):
        return spans.outer_time(trace, lambda s: s.layer in ("ingest", "modelio")) / pass_s


WORKLOADS = {w.name: w for w in (DetectGrid, DefectTrain, IngestRoundtrip)}
