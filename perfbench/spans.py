"""In-memory spans around calls into vibrosense, and the per-layer metrics
derived from them.

A span is recorded by a wrapper installed at every name a caller looks up:
module attributes that hold the function (``classify.sgd_epochs`` as well as
``nn.sgd_epochs``) and class attributes for methods, so subclasses are covered.
Spans stay in memory while a pass runs; nothing is written until the end.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from statistics import median
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: The package's modules, which are the layers.
LAYERS = ("core", "ingest", "synth", "features", "forecast", "nn", "anomaly",
          "classify", "augment", "autoenc", "modelio", "report", "cli")
FAMILIES = ("seasonal_naive", "ar", "arima", "random_forest", "mlp", "rnn", "lstm",
            "autoencoder", "gaussian_rnn")
NETS = ("mlp", "rnn", "lstm", "gaussian_rnn", "conv_ae", "classifier", "dual_loss")
#: Format -> (parser, writer) in vibrosense.ingest.
FORMATS = {
    "triaxial": ("parse_triaxial_csv", "write_triaxial_csv"),
    "process": ("parse_process_csv", "write_process_csv"),
    "pharma": ("parse_pharma_txt", "write_pharma_txt"),
}
PHARMA_ROWS_PER_RECORD = 3 * 3200  # one axis line counts as 3 200 rows

SGD_LOOPS = ("nn.sgd_epochs", "classify._train_frozen", "autoenc.train_autoenc_classifier")
SCORING = ("anomaly.ground_truth_labels", "anomaly._score", "core.precision_recall_f1")


class Span:
    __slots__ = ("name", "parent", "start", "end", "ok", "tag")

    def __init__(self, name, parent, start, end=0.0, ok=True, tag=None):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.ok = ok
        self.tag = tag

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


# --- tags: what a span did, read from the call's arguments and result ------

def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _net_kind(net) -> str:
    kind = type(net).__name__
    if kind == "Mlp":
        return "classifier" if net.loss == "ce" else "mlp"
    if kind == "RecurrentNet":
        if net.cell == "lstm":
            return "lstm"
        return "gaussian_rnn" if net.loss == "gaussian_nll" else "rnn"
    if kind == "ConvAutoencoder":
        return "conv_ae"
    return "dual_loss"


def _tag_net(args, kwargs, out):
    return _net_kind(args[0])


def _tag_fit(args, kwargs, out):
    return _arg(args, kwargs, 0, "config").model_kind


def _tag_rolling(args, kwargs, out):
    model = _arg(args, kwargs, 0, "model")
    return (model.config.model_kind, len(out), len(getattr(model, "trees", ())))


def _tag_len_out(args, kwargs, out):
    return len(out)


def _tag_spiked(args, kwargs, out):
    return len(out.series)


def _tag_triaxial_rows(args, kwargs, out):
    return sum(len(r) for r in out)


def _tag_triaxial_written(args, kwargs, out):
    return sum(len(r) for r in _arg(args, kwargs, 0, "records"))


def _tag_pharma_rows(args, kwargs, out):
    return PHARMA_ROWS_PER_RECORD * len(out)


def _tag_pharma_written(args, kwargs, out):
    return PHARMA_ROWS_PER_RECORD * len(_arg(args, kwargs, 0, "records"))


def _tag_rows_arg(args, kwargs, out):
    return len(_arg(args, kwargs, 0, "rows"))


def _tag_file_bytes(args, kwargs, out):
    return os.path.getsize(_arg(args, kwargs, 2, "path"))


#: (module, attribute path, tag) for every public entry point that is timed.
#: Per-row helpers such as ``ingest.parse_timestamp`` and ``TreeNodes.predict``
#: (one call per tree per forecast point) are left out on purpose: their
#: callers are timed, and a span per row would dwarf the row's work.
TARGETS: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("core", "rmse", None),
    ("core", "precision_recall_f1", None),
    ("core", "split_series", None),
    ("core", "split_arrays", None),
    ("core", "confusion_matrix", None),
    ("ingest", "parse_triaxial_csv", _tag_triaxial_rows),
    ("ingest", "write_triaxial_csv", _tag_triaxial_written),
    ("ingest", "parse_process_csv", _tag_len_out),
    ("ingest", "write_process_csv", _tag_rows_arg),
    ("ingest", "parse_pharma_txt", _tag_pharma_rows),
    ("ingest", "write_pharma_txt", _tag_pharma_written),
    ("ingest", "label_process_rows", _tag_rows_arg),
    ("ingest", "align_and_impute", None),
    ("synth", "generate_vibration", _tag_len_out),
    ("synth", "decimate_to_mems", _tag_len_out),
    ("synth", "generate_process", _tag_len_out),
    ("synth", "chiller_series", _tag_len_out),
    ("synth", "generate_spiked_series", _tag_spiked),
    ("features", "extract_time_domain", None),
    ("features", "extract_triaxial_features", None),
    ("features", "select_axes", None),
    ("features", "axis_feature_names", None),
    ("features", "fit_encoder", None),
    ("features", "FeatureEncoder.transform", None),
    ("features", "FeatureEncoder.inverse_transform", None),
    ("forecast", "fit", _tag_fit),
    ("forecast", "rolling_forecast", _tag_rolling),
    ("forecast", "save_forecaster", None),
    ("forecast", "load_forecaster", None),
    ("forecast", "fit_regression_tree", None),
    ("nn", "sgd_epochs", None),
    ("nn", "Mlp.loss_and_grad", _tag_net),
    ("nn", "Mlp.predict", _tag_net),
    ("nn", "RecurrentNet.loss_and_grad", _tag_net),
    ("nn", "RecurrentNet.predict", _tag_net),
    ("nn", "RecurrentNet.predict_distribution", _tag_net),
    ("nn", "ConvAutoencoder.loss_and_grad", _tag_net),
    ("nn", "ConvAutoencoder.reconstruct", _tag_net),
    ("anomaly", "run_benchmark", None),
    ("anomaly", "detect_series", None),
    ("anomaly", "ground_truth_labels", None),
    ("anomaly", "_score", None),
    ("classify", "train_classifier", None),
    ("classify", "_train_frozen", None),
    ("classify", "train_transfer", None),
    ("classify", "evaluate", None),
    ("classify", "predict_proba", None),
    ("classify", "cross_rpm_matrix", None),
    ("classify", "make_bundle", None),
    ("classify", "save_classifier", None),
    ("classify", "load_classifier", None),
    ("augment", "aggregate_rpms", None),
    ("augment", "interpolate_within_rpm", None),
    ("augment", "augmented_training_set", None),
    ("autoenc", "train_autoenc_classifier", None),
    ("autoenc", "AutoencClassifier.loss_and_grad", _tag_net),
    ("autoenc", "AutoencClassifier.predict_proba", _tag_net),
    ("autoenc", "AutoencClassifier.component_losses", None),
    ("modelio", "save_model", _tag_file_bytes),
    ("modelio", "load_model", None),
    ("report", "canonical_json", None),
    ("report", "config_fingerprint", None),
    ("report", "data_fingerprint", None),
    ("report", "write_json_report", None),
    ("report", "load_json_report", None),
    ("cli", "main", None),
    ("cli", "run_transfer_experiment", None),
    ("cli", "default_variants", None),
    ("cli", "_synth_per_rpm", None),
)

STEP_SPANS = frozenset(f"{m}.{c}.loss_and_grad" for m, c in (
    ("nn", "Mlp"), ("nn", "RecurrentNet"), ("nn", "ConvAutoencoder"),
    ("autoenc", "AutoencClassifier")))
FORWARD_SPANS = frozenset((
    "nn.Mlp.predict", "nn.RecurrentNet.predict", "nn.RecurrentNet.predict_distribution",
    "nn.ConvAutoencoder.reconstruct", "autoenc.AutoencClassifier.predict_proba"))


class Tracer:
    """Records spans while installed; restores every patched name on uninstall."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    def wrap(self, fn, name: str, tag: Optional[Callable] = None):
        record, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, clock())
            stack.append(len(record))
            record.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.ok = False
                raise
            finally:
                span.end = clock()
                stack.pop()
            if tag is not None:
                span.tag = tag(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target at each name it is reachable by."""
        holders = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "vibrosense" or n.startswith("vibrosense."))]
        for layer, path, tag in self.targets:
            module = sys.modules[f"vibrosense.{layer}"]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self.wrap(original, f"{layer}.{path}", tag))
                continue
            original = getattr(module, path)
            wrapped = self.wrap(original, f"{layer}.{path}", tag)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, attr, wrapped)

    def _patch(self, owner, attr, wrapped) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()


# --- arithmetic over a finished span list ----------------------------------

def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of its interval its children cover.

    Children are clipped to the parent's interval and overlapping children are
    merged, so the result never double-counts and never goes below zero.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(max(s.duration - covered, 0.0))
    return out


def outer_time(spans: Sequence[Span], selected: Callable[[Span], bool]) -> float:
    """Inclusive time of the selected spans that have no selected ancestor."""
    inside = [False] * len(spans)
    total = 0.0
    for i, s in enumerate(spans):
        under = s.parent >= 0 and inside[s.parent]
        if selected(s):
            if not under:
                total += s.duration
            inside[i] = True
        else:
            inside[i] = under
    return total


def useful_steps(spans: Sequence[Span]) -> Tuple[int, int]:
    """(steps inside an SGD loop that finished, steps inside any SGD loop)."""
    loop = [-1] * len(spans)
    useful = total = 0
    for i, s in enumerate(spans):
        loop[i] = i if s.name in SGD_LOOPS else (loop[s.parent] if s.parent >= 0 else -1)
        if s.name in STEP_SPANS and loop[i] >= 0:
            total += 1
            useful += spans[loop[i]].ok
    return useful, total


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(spans: Sequence[Span], pass_s: float) -> Dict[str, float]:
    """Every per-layer metric of one traced pass; layers not used read 0."""
    own = self_times(spans)
    by_name: Dict[str, List[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def total(name, tag=None):
        return sum(spans[i].duration for i in by_name.get(name, ())
                   if tag is None or spans[i].tag == tag)

    def tag_sum(name):
        return sum(spans[i].tag for i in by_name.get(name, ()))

    m: Dict[str, float] = {}
    for fam in FAMILIES:
        m[f"forecast.fit_s.{fam}"] = total("forecast.fit", fam)
        calls = [spans[i] for i in by_name.get("forecast.rolling_forecast", ())
                 if spans[i].tag[0] == fam]
        points = sum(s.tag[1] for s in calls)
        m[f"forecast.predict_us_per_pt.{fam}"] = _rate(1e6 * sum(s.duration for s in calls), points)
    m["forecast.tree_fit_s"] = total("forecast.fit_regression_tree")
    # A forest predicts a point by walking each tree with one row, so its
    # rolling-forecast time per point and tree bounds one tree's one-row walk
    # from above (it also holds the context handling and the mean).
    forest = [spans[i] for i in by_name.get("forecast.rolling_forecast", ())
              if spans[i].tag[0] == "random_forest"]
    m["forecast.tree_predict_us_per_row"] = _rate(
        1e6 * sum(s.duration for s in forest), sum(s.tag[1] * s.tag[2] for s in forest))

    steps: Dict[str, List[float]] = defaultdict(list)
    forwards: Dict[str, List[float]] = defaultdict(list)
    for s in spans:
        if s.name in STEP_SPANS:
            steps[s.tag].append(s.duration)
        elif s.name in FORWARD_SPANS:
            forwards[s.tag].append(s.duration)
    for net in NETS:
        m[f"nn.step_us.{net}"] = _rate(1e6 * sum(steps[net]), len(steps[net]))
        m[f"nn.steps.{net}"] = float(len(steps[net]))
        m[f"nn.forward_us.{net}"] = _rate(1e6 * sum(forwards[net]), len(forwards[net]))
    m["nn.sgd_loop_s"] = sum(own[i] for name in SGD_LOOPS for i in by_name.get(name, ()))
    useful, attempted = useful_steps(spans)
    m["nn.useful_step_ratio"] = _rate(useful, attempted)

    m["anomaly.flag_s"] = sum(own[i] for i in by_name.get("anomaly.detect_series", ()))
    m["anomaly.score_s"] = outer_time(spans, lambda s: s.name in SCORING)

    for fmt, (parser, writer) in FORMATS.items():
        m[f"ingest.parse_rows_per_s.{fmt}"] = _rate(tag_sum(f"ingest.{parser}"),
                                                    total(f"ingest.{parser}"))
        m[f"ingest.write_rows_per_s.{fmt}"] = _rate(tag_sum(f"ingest.{writer}"),
                                                    total(f"ingest.{writer}"))
    m["ingest.label_rows_per_s"] = _rate(tag_sum("ingest.label_process_rows"),
                                         total("ingest.label_process_rows"))
    m["ingest.align_s"] = total("ingest.align_and_impute")

    m["modelio.save_s"] = total("modelio.save_model")
    m["modelio.load_s"] = total("modelio.load_model")
    m["modelio.bytes"] = float(tag_sum("modelio.save_model"))

    synth_busy = outer_time(spans, lambda s: s.layer == "synth")
    synth_samples = sum(s.tag for s in spans if s.layer == "synth")
    m["synth.busy_s"] = synth_busy
    m["synth.samples_per_s"] = _rate(synth_samples, synth_busy)
    m["features.busy_s"] = outer_time(spans, lambda s: s.layer == "features")
    m["augment.busy_s"] = outer_time(spans, lambda s: s.layer == "augment")
    m["classify.train_s"] = outer_time(spans, lambda s: s.name == "classify.train_classifier")
    m["classify.eval_s"] = total("classify.evaluate")
    m["autoenc.train_s"] = total("autoenc.train_autoenc_classifier")
    m["report.write_s"] = total("report.write_json_report")
    m["report.fingerprint_s"] = total("report.data_fingerprint") + total("report.config_fingerprint")

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, own):
        layer_self[s.layer] += t
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["cli.unattributed_s"] = pass_s - sum(layer_self.values())
    return m


def per_layer_names() -> List[str]:
    """The per-layer metric names, in the order layer_metrics emits them."""
    return list(layer_metrics([], 0.0)) + ["trace.overhead_s"]


def median_metrics(per_pass: Sequence[Dict[str, float]]) -> Dict[str, float]:
    return {k: median(p[k] for p in per_pass) for k in per_pass[0]}
