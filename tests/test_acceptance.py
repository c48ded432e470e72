"""End-to-end acceptance checks.

Each test asserts a quantitative bar plus a wall-clock budget and prints one
summary line with the measured numbers. The real-dataset check runs only when
a released process CSV is available (``VIBROSENSE_PROCESS_CSV`` or
``data/process.csv``).
"""

import datetime as dt
import json
import os
import time
from pathlib import Path
from zoneinfo import ZoneInfo

import numpy as np
import pytest

from vibrosense import anomaly, cli, forecast, ingest, synth
from vibrosense.autoenc import AutoencClassifier, train_autoenc_classifier
from vibrosense.classify import (
    TrainConfig,
    binary_relax,
    cross_rpm_matrix,
    evaluate,
    train_classifier,
)
from vibrosense.cli import _synth_per_rpm, run_transfer_experiment
from vibrosense.core import (
    MachineState,
    SplitSpec,
    make_rng,
    precision_recall_f1,
    split_arrays,
    split_series,
)
from vibrosense.features import fit_encoder
from vibrosense.forecast.classical import autoregression_fit
from vibrosense.nn import ConvAutoencoder, Mlp, RecurrentNet, gradient_check


class Budget:
    """Context manager asserting a wall-clock runtime budget."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.elapsed = 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self._t0
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"runtime {self.elapsed:.1f}s exceeds {self.seconds}s budget"
            )
        return False


def _random_ar_series(p, n, rng):
    """Exact (noise-free) AR(p) recursion whose roots sit near the unit
    circle, so the signal persists over the whole window."""
    roots = []
    while len(roots) < p:
        mod = rng.uniform(0.95, 0.999)
        if p - len(roots) >= 2 and rng.uniform() < 0.7:
            ang = rng.uniform(0.1, np.pi - 0.1)
            roots += [mod * np.exp(1j * ang), mod * np.exp(-1j * ang)]
        else:
            roots.append(mod * rng.choice([-1.0, 1.0]))
    coefs = -np.real(np.poly(roots))[1:]
    x = np.empty(n)
    x[:p] = rng.normal(size=p)
    for t in range(p, n):
        x[t] = coefs @ x[t - p : t][::-1]
    return x


def test_criterion_01_ar_coefficients_match_independent_oracle():
    """20 random noise-free AR(p<=3) series, 500 points: fitted coefficients
    agree with a least-squares oracle on the explicit lag design to 1e-6."""
    rng = make_rng(0)
    worst = 0.0
    with Budget(5) as b:
        for _ in range(20):
            p = int(rng.integers(1, 4))
            x = _random_ar_series(p, 500, rng)
            fitted, _ = autoregression_fit(x, p, fit_intercept=False)
            design = np.column_stack(
                [x[p - 1 - j : len(x) - 1 - j] for j in range(p)]
            )
            oracle, *_ = np.linalg.lstsq(design, x[p:], rcond=None)
            worst = max(worst, float(np.max(np.abs(fitted - oracle))))
    assert worst < 1e-6
    print(f"\n[criterion 1] max |fitted - oracle| = {worst:.2e} ({b.elapsed:.1f}s) PASS")


def test_criterion_02_gradient_checks_all_network_types():
    """Central finite-difference checks on toy instances of every network:
    dense families < 1e-4, recurrent families < 1e-3."""
    results = {}
    with Budget(30) as b:
        rng = make_rng(0)
        net = Mlp([3, 4, 1], loss="mse", rng=rng)
        results["mlp"] = (gradient_check(net, rng.normal(size=(6, 3)), rng.normal(size=6)), 1e-4)

        rng = make_rng(1)
        net = RecurrentNet("rnn", [4, 3], [], loss="mse", rng=rng, activation="relu")
        results["rnn"] = (gradient_check(net, rng.normal(size=(5, 6)), rng.normal(size=5)), 1e-3)

        rng = make_rng(2)
        net = RecurrentNet("lstm", [3], [4], loss="mse", rng=rng)
        results["lstm"] = (gradient_check(net, rng.normal(size=(4, 4)), rng.normal(size=4)), 1e-3)

        rng = make_rng(3)
        net = RecurrentNet("rnn", [4], [], loss="gaussian_nll", rng=rng, activation="tanh")
        results["gaussian_rnn"] = (
            gradient_check(net, rng.normal(size=(5, 4)), rng.normal(size=5)), 1e-3)

        rng = make_rng(4)
        net = ConvAutoencoder(window=8, filters=2, kernel=3, stride=2, n_layers=2,
                              dropout=0.0, rng=rng)
        results["conv_autoencoder"] = (gradient_check(net, rng.normal(size=(3, 8)), None), 1e-4)

        model = AutoencClassifier(input_width=4, alpha=0.5, encoder_widths=(5, 3),
                                  head_widths=(4, 3), rng=make_rng(5))
        rng = make_rng(6)
        model.set_flat_params(
            model.get_flat_params() + 0.01 * rng.normal(size=model.get_flat_params().size)
        )
        results["dual_loss_classifier"] = (
            gradient_check(model, rng.normal(size=(4, 4)), np.array([0, 1, 2, 1])), 1e-4)
    for name, (err, tol) in results.items():
        assert err < tol, f"{name}: max rel error {err:.2e} >= {tol}"
    summary = ", ".join(f"{k}={v[0]:.1e}" for k, v in results.items())
    print(f"\n[criterion 2] {summary} ({b.elapsed:.1f}s) PASS")


def test_criterion_03_spike_detection_precision_recall():
    """AR(10) + lambda=0.1 rule on series with 10 injected 30% spikes:
    median precision >= 0.9 and median recall = 1.0 over 5 seeds."""
    precisions, recalls = [], []
    with Budget(10) as b:
        for seed in range(5):
            spiked = synth.generate_spiked_series(n=400, n_spikes=10, spike_rel=0.3,
                                                  seed=seed)
            train, test = split_series(spiked.series, SplitSpec(0.5))
            truth = np.zeros(len(spiked.series), dtype=bool)
            truth[list(spiked.spike_indices)] = True
            model = forecast.fit(forecast.ForecastModelConfig("ar", {"p": 10}, seed), train)
            result = anomaly.detect_series(model, test, anomaly.AnomalyRuleConfig(lam=0.1))
            score = precision_recall_f1(result.flags, truth[len(train):])
            precisions.append(score.precision)
            recalls.append(score.recall)
    med_p = float(np.median(precisions))
    med_r = float(np.median(recalls))
    assert med_p >= 0.9
    assert med_r == 1.0
    print(f"\n[criterion 3] median precision={med_p:.3f} recall={med_r:.3f} "
          f"({b.elapsed:.1f}s) PASS")


ALL_MODELS = ("seasonal_naive,ar,arima,random_forest,mlp,rnn,lstm,"
              "autoencoder,gaussian_rnn")


def test_criterion_04_benchmark_grid_complete_and_reproducible(tmp_path):
    """bench over 2 synthetic datasets x all 9 model families: every cell
    scored (no errors), byte-identical artifact on rerun with the same seed."""
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    with Budget(300) as b:
        for out in (out1, out2):
            rc = cli.main(["bench", "--models", ALL_MODELS,
                           "--datasets", "synth-a,synth-b",
                           "--seed", "11", "--out", str(out)])
            assert rc == 0
    doc = json.loads(out1.read_text())
    families = {cell["model"] for cell in doc["grid"]}
    datasets = {cell["dataset"] for cell in doc["grid"]}
    assert len(families) == 9 and len(datasets) == 2
    for cell in doc["grid"]:
        assert cell["error"] is None, f"{cell['model']} on {cell['dataset']}: {cell['error']}"
        assert np.isfinite(cell["rmse"]) and cell["f1"] is not None
    assert out1.read_bytes() == out2.read_bytes()
    print(f"\n[criterion 4] {len(doc['grid'])} cells, 9 families x 2 datasets, "
          f"byte-identical rerun ({b.elapsed:.1f}s) PASS")


def test_criterion_05_transfer_beats_target_only_training():
    """100K-sample 3.2 kHz source vs 2,000-sample decimated noisy target:
    median fine-tuned accuracy exceeds median target-only accuracy by >= 5
    points over 5 seeds (both target models share the same epoch budget)."""
    accs_r, accs_tl = [], []
    with Budget(600) as b:
        for seed in range(5):
            cfg = TrainConfig(epochs=10, batch_size=64, learning_rate=0.05, seed=seed)
            r = run_transfer_experiment(
                rpm=100, source_duration_s=10.4, target_samples=2000,
                noise=0.3, extra_noise=0.5, cfg=cfg, target_epoch_scale=0.3,
            )
            assert r["n_source"] >= 99_000
            assert 1_900 <= r["n_target"] <= 2_000
            accs_r.append(r["dnn_r_accuracy"])
            accs_tl.append(r["dnn_tl_accuracy"])
    med_r = float(np.median(accs_r))
    med_tl = float(np.median(accs_tl))
    assert med_tl - med_r >= 0.05
    print(f"\n[criterion 5] median target-only={med_r:.3f} fine-tuned={med_tl:.3f} "
          f"gap={med_tl - med_r:+.3f} ({b.elapsed:.1f}s) PASS")


def test_criterion_06_augmentation_improves_cross_rpm_average():
    """4 synthetic speeds with speed-dependent amplitude: the pooled +
    interpolated model's cross-speed average beats the worst single-speed
    model's average by >= 5 points, median over 5 seeds."""
    rpms = [100, 200, 300, 400]
    gaps = []
    with Budget(600) as b:
        for seed in range(5):
            per_rpm = _synth_per_rpm(rpms, duration_s=1.0, noise=0.3, seed=seed,
                                     amp_rpm_exponent=1.0)
            result = cross_rpm_matrix(per_rpm, cfg=TrainConfig(epochs=15, seed=seed),
                                      augment_n_per_rpm=200)
            grid = result["grid"]
            singles = [grid[str(r)]["average"] for r in rpms]
            gaps.append(grid["augmented"]["average"] - min(singles))
    med_gap = float(np.median(gaps))
    assert med_gap >= 0.05
    print(f"\n[criterion 6] median augmented-vs-worst gap={med_gap:+.3f} "
          f"({b.elapsed:.1f}s) PASS")


def test_criterion_07_binary_relaxation_per_rpm():
    """Same-speed accuracy on separable synthetic data: binary >= 0.95 at
    every speed, and 3-class accuracy never exceeds binary on the same
    data and seed."""
    rpms = [100, 200, 300, 400]
    rows = []
    with Budget(300) as b:
        for rpm in rpms:
            feats, labels = _synth_per_rpm([rpm], duration_s=1.0, noise=0.2, seed=0)[rpm]
            (ftr, ltr), (fte, lte) = split_arrays(feats, labels, 0)
            enc = fit_encoder(ftr, tuple(f"f{i}" for i in range(ftr.shape[1])))
            cfg = TrainConfig(epochs=25, seed=0)
            three = train_classifier(enc.transform(ftr), ltr, cfg=cfg)
            acc3, _ = evaluate(three, enc.transform(fte), lte)
            binary = train_classifier(enc.transform(ftr), binary_relax(ltr), cfg=cfg,
                                      class_names=("normal", "not_normal"))
            acc2, _ = evaluate(binary, enc.transform(fte), binary_relax(lte))
            rows.append((rpm, acc2, acc3))
    for rpm, acc2, acc3 in rows:
        assert acc2 >= 0.95, f"rpm {rpm}: binary accuracy {acc2:.3f} < 0.95"
        assert acc3 <= acc2, f"rpm {rpm}: 3-class {acc3:.3f} > binary {acc2:.3f}"
    summary = ", ".join(f"rpm{r}: bin={a2:.3f}/3c={a3:.3f}" for r, a2, a3 in rows)
    print(f"\n[criterion 7] {summary} ({b.elapsed:.1f}s) PASS")


def test_criterion_08_dual_loss_identities():
    """alpha=1 zeroes classifier-head gradients and alpha=0 zeroes decoder
    gradients bit-exactly; alpha=0 accuracy matches a plain classifier
    within 2 points on the same data."""
    rng = make_rng(7)
    centers = np.zeros((3, 4))
    centers[1, 0] = 3.0
    centers[2, 1] = 3.0
    feats = np.concatenate([c + 0.2 * rng.normal(size=(50, 4)) for c in centers])
    labels = np.repeat(np.arange(3), 50)

    x = rng.normal(size=(6, 4))
    y = np.array([0, 1, 2, 0, 1, 2])
    recon_only = AutoencClassifier(input_width=4, alpha=1.0, encoder_widths=(5, 3),
                                   head_widths=(4, 3), rng=make_rng(0))
    _, grads = recon_only.loss_and_grad(x, y)
    n_head = 2 * len(recon_only.head_w)
    assert all(np.all(g == 0.0) for g in grads[-n_head:])

    class_only = AutoencClassifier(input_width=4, alpha=0.0, encoder_widths=(5, 3),
                                   head_widths=(4, 3), rng=make_rng(0))
    _, grads = class_only.loss_and_grad(x, y)
    n_enc = 2 * len(class_only.enc_w)
    n_dec = 2 * len(class_only.dec_w)
    assert all(np.all(g == 0.0) for g in grads[n_enc : n_enc + n_dec])

    cfg = TrainConfig(epochs=30, batch_size=16, seed=7)
    ae = train_autoenc_classifier(feats, labels, alpha=0.0, cfg=cfg)
    acc_ae = float(np.mean(np.argmax(ae.predict_proba(feats), axis=1) == labels))
    plain = train_classifier(feats, labels, hidden_sizes=(16,), cfg=cfg)
    acc_plain, _ = evaluate(plain, feats, labels)
    assert abs(acc_ae - acc_plain) <= 0.02
    print(f"\n[criterion 8] gradient identities bit-exact; alpha=0 acc={acc_ae:.3f} "
          f"vs plain={acc_plain:.3f} PASS")


def test_criterion_09_format_fidelity(tmp_path):
    """Pharma 5-line and tri-axial CSV round-trips are bit-identical; the
    process parser accepts the exact published header and rejects a file
    missing 'Chiller 1 Supply Tmp' with a named-column error."""
    from vibrosense.core import DefectLabel, OperatingPoint, VibrationRecord
    from vibrosense.ingest import (
        PHARMA_POINTS_PER_AXIS,
        PROCESS_HEADER,
        PharmaRecord,
        parse_pharma_txt,
        parse_process_csv,
        parse_triaxial_csv,
        write_pharma_txt,
        write_triaxial_csv,
    )
    from vibrosense.core import ContractError

    rng = make_rng(0)
    op = OperatingPoint(rpm=300)

    rec = VibrationRecord(0.0, 3200.0, rng.normal(size=64), rng.normal(size=64),
                          rng.normal(size=64), op, DefectLabel.NORMAL)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_triaxial_csv([rec], p1)
    write_triaxial_csv(parse_triaxial_csv(p1, 3200.0, op), p2)
    assert p1.read_bytes() == p2.read_bytes()

    n = PHARMA_POINTS_PER_AXIS
    pharma = PharmaRecord(0.0, rng.normal(size=n), rng.normal(size=n),
                          rng.normal(size=n), 1 / 3200.0)
    q1, q2 = tmp_path / "a.txt", tmp_path / "b.txt"
    write_pharma_txt([pharma], q1)
    write_pharma_txt(parse_pharma_txt(q1), q2)
    assert q1.read_bytes() == q2.read_bytes()

    good = tmp_path / "proc.csv"
    good.write_text(
        "Timestamp, Air Pressure 1, Air Pressure 2, Chiller 1 Supply Tmp, "
        "Chiller 2 Supply Tmp, Outside Air Temp, Outside Humidity, Outside Dewpoint\n"
        "2022-01-04 10:00:00,90,88,53,53.5,68,55,45\n"
    )
    assert len(parse_process_csv(good)) == 1
    bad = tmp_path / "bad.csv"
    header = [c for c in PROCESS_HEADER if c != "Chiller 1 Supply Tmp"]
    bad.write_text(",".join(header) + "\n")
    with pytest.raises(ContractError, match="Chiller 1 Supply Tmp"):
        parse_process_csv(bad)
    print("\n[criterion 9] tri-axial + pharma round-trips bit-identical; "
          "header accept/reject verified PASS")


def _real_process_path():
    env = os.environ.get("VIBROSENSE_PROCESS_CSV")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[1] / "data" / "process.csv"


def test_criterion_10_real_process_dataset():
    """When the released process dataset is available: 49,706 rows and both
    abnormal calendar dates receive at least one abnormal label."""
    path = _real_process_path()
    if not path.exists():
        pytest.skip(f"real process dataset not present at {path}")
    rows = ingest.parse_process_csv(path)
    assert len(rows) == 49_706
    labeled = ingest.label_process_rows(rows)
    zone = ZoneInfo(ingest.WeeklySchedule().tz)
    for date in sorted(ingest.DEFAULT_ABNORMAL_DATES):
        n = sum(
            1 for row, state in labeled
            if state == MachineState.ABNORMAL
            and dt.datetime.fromtimestamp(row.timestamp_s, zone).date() == date
        )
        assert n > 0, f"no abnormal rows on {date}"
    print(f"\n[criterion 10] {len(rows)} rows; both abnormal dates labeled PASS")
