"""Run one workload: repeated set-up, a closed loop of passes for the
requested seconds, output checks, and the metrics and result file."""

from __future__ import annotations

import gc
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

import numpy as np

import hostspeed
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPS = 5
IMPORT_TRIES = 3
MIN_PASSES = 2

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
#: Name of the throughput recorded in the result file, by the workload's unit of work.
THROUGHPUT_NAME = {"points": "points_per_s", "examples": "examples_per_s", "rows": "rows_per_s"}


def _per_layer_unit(name: str) -> str:
    if name.startswith("nn.steps."):
        return "count"
    if name == "modelio.bytes":
        return "bytes"
    if name == "nn.useful_step_ratio":
        return "ratio"
    if "_per_s" in name:
        return "1/s"
    if "_us" in name:
        return "us"
    return "s"


PER_LAYER_UNITS = {name: _per_layer_unit(name) for name in spans.per_layer_names()}


def blas_threads_in_use() -> Optional[int]:
    """Ask the loaded OpenBLAS how many threads it uses; None when unknown."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit() -> Optional[str]:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_record(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS"),
                 "threads_in_use": blas_threads_in_use()},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "seed": seed,
    }


def import_seconds() -> float:
    """Time to import vibrosense in a fresh interpreter, the fastest of
    ``IMPORT_TRIES``: on the host this was built on, an import took either
    about 0.12 s or about 0.18 s, seemingly at random, and the median of five
    flipped between the two from run to run."""
    code = ("import time; t = time.perf_counter(); import vibrosense; "
            "print(repr(time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    tries = []
    for _ in range(IMPORT_TRIES):
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        tries.append(float(done.stdout.strip()))
    return min(tries)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: Optional[dict] = None) -> dict:
    """Everything one benchmark run measures, as the result-file document."""
    wl = workloads.WORKLOADS[name](sizes)
    work = OUT / f"work-{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(wl, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(wl: workloads.Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    setups: List[dict] = []  # one entry per set-up repetition

    def set_up() -> workloads.Setup:
        # a repetition is a fresh-interpreter import plus the workload's set-up
        import_s = import_seconds()
        gc.collect()
        with hostspeed.Probe() as building:
            built = wl.setup(seed, work)
        setups.append({"import_s": import_s, "setup": building.record(),
                       "fingerprint": built.fingerprint})
        return built

    # Repetitions go before, evenly through and after the passes, so their
    # median sees the same spells of a busy host as the passes do.
    state = set_up()
    tracer = spans.Tracer()
    results: List[workloads.PassResult] = []
    untraced: List[dict] = []  # probe records of untraced passes, with their work
    traced_s: List[float] = []
    layer_runs: List[Dict[str, float]] = []
    dominant: List[float] = []
    last_spans: List[spans.Span] = []
    started, paused = time.perf_counter(), 0.0
    while True:
        traced = trace and len(results) % 2 == 1
        gc.collect()
        if traced:
            tracer.reset()
            tracer.install()
            t0 = time.perf_counter()
            try:
                result = wl.run_pass(seed, work, state)
            finally:
                pass_s = time.perf_counter() - t0
                tracer.uninstall()
            traced_s.append(pass_s)
            layer_runs.append(spans.layer_metrics(tracer.spans, pass_s))
            dominant.append(wl.dominant_share(tracer.spans, pass_s))
            last_spans = list(tracer.spans)
        else:
            with hostspeed.Probe() as probe:
                result = wl.run_pass(seed, work, state)
            untraced.append(dict(probe.record(), work=result.work))
        results.append(result)
        elapsed = time.perf_counter() - started - paused
        typical = median([u["wall_s"] for u in untraced] + traced_s)
        done = len(results) >= MIN_PASSES and elapsed + typical > seconds
        due = elapsed >= seconds * len(setups) / (SETUP_REPS - 1)
        if len(setups) < SETUP_REPS - 1 and (due or done):
            t0 = time.perf_counter()
            state = set_up()
            paused += time.perf_counter() - t0
        if done:
            break
    while len(setups) < SETUP_REPS:
        state = set_up()

    problems = [f"pass {i}: {p}" for i, r in enumerate(results) for p in r.problems]
    if len(set(r.checksum for r in results)) != 1:
        problems.append("passes produced different checksums")
    if any((r.attempted, r.errors) != (results[0].attempted, results[0].errors) for r in results):
        problems.append("passes attempted or failed different operations")
    if len({rep["fingerprint"] for rep in setups}) != 1:
        problems.append("repeated set-ups produced different outputs")
    problems += wl.verify(seed, state, results[0])

    # Passes repeat identical work (checked above), so the operations of a run
    # are those of set-up and one pass, whatever the number of passes.
    attempted = state.attempted + results[0].attempted
    errors = list(state.errors) + results[0].errors
    own_s = [u["own_s"] for u in untraced]
    # Set-ups are too short for their own probe slices to say much (the import,
    # in a child process, has none): they are rescaled by the run's speed.
    run_speed = hostspeed.speed_of(untraced + [rep["setup"] for rep in setups])
    end_to_end = {
        "setup_s": median((rep["import_s"] + rep["setup"]["own_s"]) / run_speed
                          for rep in setups),
        # the fastest rescaled pass: what rescaling leaves of the host's swings
        # (disk time, cache contention) only ever slows a pass down
        "run_s": min(u["normalized_s"] for u in untraced),
        "peak_rss_mb": _peak_rss_mb(),
    }
    doc = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": wl.sizes,
        "machine": machine_record(seed),
        "settings": {"setup_reps": SETUP_REPS, "import_tries": IMPORT_TRIES,
                     "min_passes": MIN_PASSES,
                     "loop": "closed, one pass at a time",
                     "probe": {"interval_s": hostspeed.INTERVAL_S,
                               "slice_steps": hostspeed.SLICE_STEPS,
                               "nominal_slice_s": hostspeed.NOMINAL_SLICE_S}},
        "samples": {"passes": len(results), "untraced_passes": len(untraced),
                    "traced_passes": len(traced_s), "setup_reps": SETUP_REPS},
        "host_speed": run_speed,
        "pass_s": {"untraced": untraced, "traced": traced_s,
                   "untraced_own_median": median(own_s)},
        "setup": setups,
        "end_to_end": end_to_end,
        "named": {
            THROUGHPUT_NAME[wl.work_unit]: median(u["work"] / u["own_s"] for u in untraced),
            "error_share": workloads.error_share(attempted, len(errors)),
            **results[0].quality,
        },
        "operations": {"attempted": attempted, "failed": len(errors), "errors": errors},
        "checksum_sha256": results[0].checksum,
        "checks": {"correct": not problems, "problems": problems},
    }
    if trace:
        layers = spans.median_metrics(layer_runs)
        layers["trace.overhead_s"] = min(traced_s) - min(own_s)
        share = median(dominant)
        doc["per_layer"] = layers
        doc["dominant_layer"] = {"claim": wl.dominant_claim, "share_of_pass": share,
                                 "holds": wl.dominant_holds(share)}
        doc["span_summary"] = _span_summary(last_spans)
        doc["_spans"] = last_spans
    return doc


def _span_summary(trace: List[spans.Span]) -> Dict[str, dict]:
    own = spans.self_times(trace)
    out: Dict[str, dict] = {}
    for s, t in zip(trace, own):
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "failed": 0})
        row["calls"] += 1
        row["total_s"] += s.duration
        row["self_s"] += t
        row["failed"] += not s.ok
    return dict(sorted(out.items(), key=lambda kv: -kv[1]["self_s"]))


def write_result(doc: dict) -> Path:
    """Write the result file (and, for a traced run, the last traced pass's
    spans) under perfbench/out/results/."""
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{doc['workload']}-seed{doc['seed']}-trace{int(doc['trace'])}"
    trace = doc.pop("_spans", None)
    if trace is not None:
        t0 = trace[0].start if trace else 0.0
        rows = [[s.name, s.parent, s.start - t0, s.end - t0, s.ok] for s in trace]
        with gzip.open(results / f"{stem}-spans.json.gz", "wt") as fh:
            json.dump({"columns": ["name", "parent", "start_s", "end_s", "ok"], "spans": rows}, fh)
    path = results / f"{stem}.json"
    path.write_text(json.dumps(doc, indent=1, default=str) + "\n")
    return path


def final_line(doc: dict) -> dict:
    """The one-line summary: end-to-end metrics untraced, per-layer traced."""
    if doc["trace"]:
        values, units = doc["per_layer"], PER_LAYER_UNITS
    else:
        values, units = doc["end_to_end"], END_TO_END_UNITS
    metrics = {k: {"value": float(v), "unit": units[k]} for k, v in values.items()}
    return {"correct": doc["checks"]["correct"],
            "attempted": doc["operations"]["attempted"],
            "failed": doc["operations"]["failed"],
            "metrics": metrics}
