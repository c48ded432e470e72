"""Tests for the benchmark's own logic: span arithmetic, operation counting,
and a tiny-size run of every workload.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "detect-grid": {"n_points": 120},
    "defect-train": {"source_duration_s": 0.3, "target_samples": 60,
                     "cross_rpm_duration_s": 0.1, "train_duration_s": 0.1, "autoenc_days": 1},
    "ingest-roundtrip": {"triaxial_s": 1.0, "pharma_records": 2, "process_days": 2,
                         "model_points": 120},
}


def _tree():
    # root [0, 10] with children a [1, 4], b [3, 6] (overlapping a) and
    # c [9, 12] (running past the root's end); a has a child g [2, 3]
    return [
        spans.Span("cli.main", -1, 0.0, 10.0),
        spans.Span("nn.sgd_epochs", 0, 1.0, 4.0, ok=False),
        spans.Span("nn.Mlp.loss_and_grad", 1, 2.0, 3.0, tag="mlp"),
        spans.Span("nn.sgd_epochs", 0, 3.0, 6.0),
        spans.Span("nn.Mlp.loss_and_grad", 3, 4.0, 5.0, tag="mlp"),
        spans.Span("nn.Mlp.loss_and_grad", 3, 5.0, 5.5, tag="mlp"),
        spans.Span("forecast.fit", 0, 9.0, 12.0, tag="ar"),
    ]


def test_self_time_subtracts_the_union_of_clipped_children():
    own = spans.self_times(_tree())
    # root: 10 minus [1, 6] and [9, 10]; the overlap of a and b counts once
    assert own == pytest.approx([4.0, 2.0, 1.0, 1.5, 1.0, 0.5, 3.0])


def test_outer_time_counts_nested_selected_spans_once():
    tree = _tree()
    assert spans.outer_time(tree, lambda s: s.layer == "nn") == pytest.approx(6.0)
    assert spans.outer_time(tree, lambda s: s.name == "nn.Mlp.loss_and_grad") == pytest.approx(2.5)


def test_useful_steps_drop_the_steps_of_a_failed_fit():
    assert spans.useful_steps(_tree()) == (2, 3)
    metrics = spans.layer_metrics(_tree(), 10.0)
    assert metrics["nn.useful_step_ratio"] == pytest.approx(2 / 3)
    assert metrics["nn.steps.mlp"] == 3
    assert metrics["nn.sgd_loop_s"] == pytest.approx(2.0 + 1.5)
    # every layer's self time is subtracted, cli's too: the spans cover 13 s
    # (the fit runs past the root), so a 14-s pass leaves 1 s unattributed
    assert spans.layer_metrics(_tree(), 14.0)["cli.unattributed_s"] == pytest.approx(1.0)


def test_tracer_wraps_every_name_and_restores_it():
    from vibrosense import classify, nn
    from vibrosense.nn import base

    original = base.sgd_epochs
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert classify.sgd_epochs is nn.sgd_epochs is base.sgd_epochs
        assert base.sgd_epochs is not original
    finally:
        tracer.uninstall()
    assert classify.sgd_epochs is nn.sgd_epochs is base.sgd_epochs is original


def test_dst_gap_lines_are_the_rows_the_parser_reorders():
    import datetime

    from vibrosense import ingest, synth

    rows = [row for row, _ in synth.generate_process(
        days=2, seed=3, start_date=datetime.date(2022, 3, 12))]
    lines = workloads._dst_gap_lines(rows)
    # the twelve 5-minute rows of the missing 02:00 hour interleave with the
    # twelve of 03:00 (both written as 03:MM); the first and the last stay in place
    assert len(lines) == 22 and lines == list(range(lines[0], lines[0] + 22))
    assert workloads._dst_gap_lines(rows[:12 * 24]) == []
    assert ingest.format_timestamp(rows[lines[0] - 2].timestamp_s) == "2022-03-13 03:05:00"


def test_error_record_reads_the_divergence_epoch():
    rec = workloads.error_record("synth-b/gaussian_rnn", "ContractError",
                                 "non-finite training loss at epoch 3")
    assert rec["epoch"] == 3
    assert workloads.error_record("x", "ContractError", "empty test split")["epoch"] is None


def test_error_share_counts_failed_over_attempted():
    assert workloads.error_share(24, 1) == pytest.approx(1 / 24)
    assert workloads.error_share(10, 0) == 0.0
    for attempted, failed in ((0, 0), (3, 4), (3, -1)):
        with pytest.raises(ValueError):
            workloads.error_share(attempted, failed)


class _Failing(workloads.Workload):
    name = "failing"
    work_unit = "points"
    dominant_claim = "none"

    def setup(self, seed, work):
        return workloads.Setup(fingerprint="f", data={}, attempted=2,
                               errors=[workloads.error_record("fit/x", "ContractError", "boom")])

    def run_pass(self, seed, work, state):
        err = workloads.error_record("cell", "ContractError", "non-finite training loss at epoch 0")
        return workloads.PassResult(work=5.0, attempted=4, errors=[err], checksum="c",
                                    quality={})


def test_harness_counts_set_up_and_pass_failures(monkeypatch, tmp_path):
    monkeypatch.setitem(workloads.WORKLOADS, "failing", _Failing)
    monkeypatch.setattr(harness, "OUT", tmp_path)
    doc = harness.run_workload("failing", seed=0, seconds=0.0, trace=False)
    line = harness.final_line(doc)
    # 2 set-up fits plus the 4 operations of one pass, however many passes
    # ran (they repeat the same work); one failure each
    assert doc["samples"]["passes"] == 2
    assert (line["attempted"], line["failed"]) == (6, 2)
    assert doc["named"]["error_share"] == pytest.approx(2 / 6)
    assert [e["epoch"] for e in doc["operations"]["errors"]] == [None, 0]


def test_probe_takes_its_slices_out_of_the_interval():
    with hostspeed.Probe() as probe:
        hostspeed.reference_slice(2000)  # longer than one interval
    assert probe.slices >= hostspeed.MIN_SLICES
    assert 0.0 < probe.own_s < probe.wall_s  # a timer slice ran inside
    assert probe.normalized_s == pytest.approx(probe.own_s / probe.speed)
    with hostspeed.Probe() as short:
        pass  # no timer tick: the slices are taken after the interval
    assert short.slices == hostspeed.MIN_SLICES and short.own_s == short.wall_s
    records = [probe.record(), short.record()]
    assert hostspeed.speed_of(records) == pytest.approx(
        (probe.probe_s + short.probe_s) / (probe.slices + short.slices)
        / hostspeed.NOMINAL_SLICE_S)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(name, monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "OUT", tmp_path)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        doc = harness.run_workload(name, seed=11, seconds=0.0, trace=trace, sizes=TINY[name])
        line = harness.final_line(doc)
        assert line["correct"], doc["checks"]["problems"]
        assert line["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == want
        assert all(isinstance(v["value"], float) for v in line["metrics"].values())
    named = set(doc["named"])
    assert "error_share" in named
    expected = {"detect-grid": {"points_per_s", "detect_f1"},
                "defect-train": {"examples_per_s", "transfer_gap", "augment_gap"},
                "ingest-roundtrip": {"rows_per_s"}}[name]
    assert expected <= named
    assert set(doc["machine"]) >= {"nproc", "blas", "numpy", "python", "git_commit", "seed"}
    assert doc["dominant_layer"]["holds"] in (True, False)
