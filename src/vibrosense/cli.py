"""Command-line front door: reproducible runs over ingestion, synthesis,
benchmarking, classification, transfer, and reporting."""

from __future__ import annotations

import argparse
import configparser
import difflib
import sys
from dataclasses import replace
from typing import Dict, List, Optional

import numpy as np

from . import anomaly, augment, autoenc, classify, features, forecast, ingest, report, synth
from .core import (
    ContractError,
    DefectLabel,
    OperatingPoint,
    SplitSpec,
    make_rng,
    split_arrays,
)

USER_ERROR = 1
INTERNAL_ERROR = 2

#: Config file keys, by section: the parser (str is a comma list), the default
#: and the flag that also sets the key, if any.
CONFIG_SCHEMA = {
    "detection": {"lambda": (float, anomaly.DEFAULT_LAMBDA, "--lambda"),
                  "two_sided": (bool, True, None)},
    "training": {
        "epochs": (int, 20, "--epochs"),
        "batch_size": (int, 64, None),
        "learning_rate": (float, 0.05, None),
        "seed": (int, 0, "--seed"),
    },
    "datasets": {
        "names": (str, "synth-a,synth-b", "--datasets"),
        "n_points": (int, 400, None),
        "n_spikes": (int, 8, None),
        "spike_rel": (float, 0.3, None),
    },
    "models": {"names": (str, "seasonal_naive,ar", "--models")},
    "split": {"train_fraction": (float, 0.66, "--split")},
}

#: The library rule that checks a section's settings, by section.
SECTION_RULES = {
    "detection": lambda s: anomaly.AnomalyRuleConfig(lam=s["lambda"], two_sided=s["two_sided"]),
    "training": lambda s: (classify.TrainConfig(**s), make_rng(s["seed"])),
    "datasets": lambda s: (synth.check_spiked_args(s["n_points"], s["n_spikes"], s["spike_rel"]),
                           [_check_dataset(token) for token in _comma_list(s["names"])]),
    "models": lambda s: [default_variants(kind, 0) for kind in _comma_list(s["names"])],
    "split": lambda s: SplitSpec(s["train_fraction"]),
}


def _did_you_mean(word: str, choices) -> str:
    hint = difflib.get_close_matches(word, choices, n=1)
    return f" (did you mean '{hint[0]}'?)" if hint else ""


def load_config(path: Optional[str], sources: Optional[dict] = None) -> Dict[str, dict]:
    """Config file -> fully defaulted {section: {key: value}}; unknown keys
    error with a spelling suggestion rather than being silently ignored.
    `sources[section][key]`, if given, receives each file key's line."""
    resolved = {
        section: {key: default for key, (_, default, _) in keys.items()}
        for section, keys in CONFIG_SCHEMA.items()
    }
    if path is None:
        return resolved
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
        sections = {section: parser.items(section) for section in parser.sections()}
    except configparser.Error as exc:
        # no section header, a malformed line, a bad '%' interpolation, ...
        where = f" [{exc.section}] {exc.option}" if isinstance(exc, configparser.InterpolationError) else ""
        detail = " ".join(str(exc).split())
        raise ContractError(f"config file {path}:{where} {detail}") from None
    if not read:
        raise ContractError(f"config file not found: {path}")
    for section, items in sections.items():
        if section not in CONFIG_SCHEMA:
            raise ContractError(
                f"unknown config section '{section}'{_did_you_mean(section, CONFIG_SCHEMA)}"
            )
        for key, raw in items:
            schema = CONFIG_SCHEMA[section]
            if key not in schema:
                raise ContractError(
                    f"unknown config key '{key}' in [{section}]{_did_you_mean(key, schema)}"
                )
            kind, where = schema[key][0], f"config file {path}: [{section}] {key}"
            try:
                if kind is bool:
                    resolved[section][key] = parser.BOOLEAN_STATES[raw.strip().lower()]
                else:
                    resolved[section][key] = kind(raw)
            except (KeyError, ValueError):
                raise ContractError(f"{where} = {raw!r} is not a valid {kind.__name__}") from None
            if kind is str:
                _comma_list(raw, where)
            if sources is not None:
                sources[section][key] = f"{where} = {raw!r}"
    return resolved


def resolve_config(args) -> Dict[str, dict]:
    """The settings a command runs with and its report records: the defaults,
    then the config file, then every CONFIG_SCHEMA flag given on the command
    line. Every section then passes its SECTION_RULES rule, whatever the
    command, and an error names the file key or flag that gave the value."""
    sources = {section: {} for section in CONFIG_SCHEMA}
    cfg = load_config(args.config, sources)
    for section, keys in CONFIG_SCHEMA.items():
        for key, (kind, _, flag) in keys.items():
            value = getattr(args, flag[2:], None) if flag else None
            if value is not None:  # argparse parsed it; a str is a comma list
                if kind is str:
                    _comma_list(value, flag)
                cfg[section][key] = value
                sources[section][key] = f"{flag} {value}"
    for section, rule in SECTION_RULES.items():
        try:
            rule(cfg[section])
        except ContractError:  # name the first given setting whose addition the rule rejects
            values = load_config(None)[section]
            for key, where in sources[section].items():
                values[key] = cfg[section][key]
                try:
                    rule(values)
                except ContractError as exc:
                    raise ContractError(f"{where}: {exc}") from None
    return cfg


def _comma_list(text: str, name: str = "", kind=str) -> list:
    """A comma-separated list, each token stripped and parsed by `kind`; an
    empty, unparsable or repeated token is an error naming the list."""
    values = []
    for token in map(str.strip, text.split(",")):
        try:
            value = kind(token) if token else None
        except ValueError:
            raise ContractError(f"{name}: '{token}' is not a valid {kind.__name__}") from None
        if value is None or value in values:
            raise ContractError(f"{name}: {'repeated' if token else 'empty'} token '{token}'")
        values.append(value)
    return values


def _provenance(config: dict, fingerprints: dict) -> dict:
    return {
        "artifact_version": report.ARTIFACT_VERSION,
        "resolved_config": config,
        "seed": config["training"]["seed"],
        "dataset_fingerprints": fingerprints,
    }


def _resolve_datasets(tokens: List[str], cfg: dict) -> List[anomaly.AnomalyDataset]:
    """A token is a process .csv file or a synth-* series seeded by its sorted position."""
    datasets = []
    for i, token in enumerate(sorted(tokens)):
        if token.endswith(".csv"):
            series = synth.chiller_series(ingest.parse_process_csv(token))
            datasets.append(
                anomaly.AnomalyDataset(
                    name=token,
                    series=series,
                    truth_rule=anomaly.TruthRule.DATE_RANGES,
                    abnormal_dates=frozenset(ingest.DEFAULT_ABNORMAL_DATES),
                )
            )
        else:  # a synth-* name, as resolve_config checked
            spiked = synth.generate_spiked_series(
                n=cfg["datasets"]["n_points"],
                n_spikes=cfg["datasets"]["n_spikes"],
                spike_rel=cfg["datasets"]["spike_rel"],
                seed=cfg["training"]["seed"] + i,
            )
            datasets.append(
                anomaly.AnomalyDataset(
                    name=token,
                    series=spiked.series,
                    truth_rule=anomaly.TruthRule.INJECTED_SPIKES,
                    spike_indices=spiked.spike_indices,
                )
            )
    return datasets


def _check_dataset(token: str) -> None:
    if not (token.endswith(".csv") or token.startswith("synth-")):
        raise ContractError(f"dataset '{token}' is neither a .csv path nor a synth-* name"
                            f"{_did_you_mean(token, ['synth-a', 'synth-b'])}")


def _labeled_xz(records):
    """The records' x/z sample rows, stacked, and each row's record label.
    Records may stream in: none is kept past its rows."""
    rows, labels = [], []
    for rec in records:
        rows.append(features.select_axes(rec))
        labels.append(np.full(len(rec), int(rec.label), dtype=np.int64))
    return np.concatenate(rows), np.concatenate(labels)


def _labeled_bursts(rpm, duration_s, noise, first, step, amp_rpm_exponent):
    """One 3.2 kHz burst per defect label at `rpm`, label l seeded first + step * l."""
    return (synth.generate_vibration(synth.SynthConfig(
        rpm=rpm, sample_rate_hz=3200.0, duration_s=duration_s, imbalance_level=label,
        noise_sigma=noise, seed=first + step * int(label), amp_rpm_exponent=amp_rpm_exponent,
    )) for label in DefectLabel)


def _synth_per_rpm(rpms, duration_s, noise, seed, amp_rpm_exponent=0.0):
    return {rpm: _labeled_xz(_labeled_bursts(rpm, duration_s, noise, seed + rpm, 1000,
                                             amp_rpm_exponent))
            for rpm in rpms}


#: ingest flags that only a tri-axial file takes, by argparse dest.
TRIAXIAL_FLAGS = {"sample_rate": "--sample-rate", "rpm": "--rpm", "burst_len": "--burst-len"}


def cmd_ingest(args, cfg) -> dict:
    given = [flag for dest, flag in TRIAXIAL_FLAGS.items() if getattr(args, dest) is not None]
    if args.format != "triaxial" and given:
        raise ContractError(f"only --format triaxial takes {', '.join(given)}; "
                            f"got --format {args.format}")
    if args.format == "triaxial":
        records = ingest.parse_triaxial_csv(
            args.input,
            sample_rate_hz=3200.0 if args.sample_rate is None else args.sample_rate,
            operating_point=OperatingPoint(rpm=300 if args.rpm is None else args.rpm),
            burst_len=args.burst_len,
        )
        summary = {"format": "triaxial", "records": len(records),
                   "samples": int(sum(len(r) for r in records))}
    elif args.format == "process":
        rows = ingest.parse_process_csv(args.input)
        summary = {"format": "process", "rows": len(rows)}
    else:
        records = ingest.parse_pharma_txt(args.input)
        summary = {"format": "pharma", "records": len(records)}
    summary["input"] = args.input
    print(report.canonical_json(summary))
    return summary


def cmd_synth(args, cfg) -> None:
    seed = cfg["training"]["seed"]
    if args.emit == "process":
        rows = synth.generate_process(days=args.days, seed=seed)
        ingest.write_process_csv(rows, args.out)
        print(f"wrote {len(rows)} process rows to {args.out}")
        return
    config = synth.SynthConfig(
        rpm=args.rpm,
        sample_rate_hz=args.rate,
        duration_s=args.duration,
        imbalance_level=DefectLabel[args.level.upper()],
        noise_sigma=args.noise,
        seed=seed,
    )
    record = synth.generate_vibration(config)
    if args.emit == "triaxial":
        ingest.write_triaxial_csv([record], args.out)
        print(f"wrote {len(record)} tri-axial samples to {args.out}")
    else:
        n = ingest.PHARMA_POINTS_PER_AXIS
        if len(record) < n:
            raise ContractError(
                f"pharma format needs >= {n} samples; increase --duration"
            )
        rec = ingest.PharmaRecord(
            start_s=record.start_s,
            x=record.x[:n], y=record.y[:n], z=record.z[:n],
            dt_s=1.0 / record.sample_rate_hz,
        )
        ingest.write_pharma_txt([rec], args.out)
        print(f"wrote 1 pharma record to {args.out}")


def cmd_bench(args, cfg) -> dict:
    seed = cfg["training"]["seed"]
    datasets = _resolve_datasets(_comma_list(cfg["datasets"]["names"]), cfg)
    grid = {kind: default_variants(kind, seed) for kind in _comma_list(cfg["models"]["names"])}
    bench = anomaly.run_benchmark(
        datasets,
        grid,
        SplitSpec(cfg["split"]["train_fraction"]),
        anomaly.AnomalyRuleConfig(lam=cfg["detection"]["lambda"],
                                  two_sided=cfg["detection"]["two_sided"]),
    )
    bench["provenance"] = _provenance(
        cfg, {d.name: report.data_fingerprint(d.series.values) for d in datasets}
    )
    print(anomaly.benchmark_tables(bench))
    return bench


# Desk-scale grid per model family, one hyperparameter override per variant;
# the paper-tuned settings stay the single-variant default for the heavier
# models.
DEFAULT_VARIANTS: Dict[str, List[dict]] = {
    "seasonal_naive": [{"m": 1}, {"m": 10}],
    "ar": [{"p": 5}, {"p": 10}],
    "arima": [{"p": 10, "d": 0}, {"p": 10, "d": 1}],
    "random_forest": [{"n_trees": 50, "max_depth": 6}],
    "mlp": [{}],
    "rnn": [{"neurons": 32}],
    "lstm": [{"blocks": 2, "neurons": 16}],
    "autoencoder": [{"window": 32}],
    "gaussian_rnn": [{}],
}


def default_variants(kind: str, seed: int) -> List[forecast.ForecastModelConfig]:
    # an unknown kind gets one variant, which ForecastModelConfig rejects
    return [forecast.ForecastModelConfig(kind, dict(params), seed)
            for params in DEFAULT_VARIANTS.get(kind, [{}])]


def cmd_train(args, cfg) -> dict:
    if args.augment < 0:
        raise ContractError(f"--augment must be >= 0, got {args.augment}")
    tcfg = classify.TrainConfig(**cfg["training"])
    rpms = _comma_list(args.synth_rpms, "--synth-rpms", int)
    per_rpm = _synth_per_rpm(rpms, args.duration, args.noise, tcfg.seed)
    feats = np.concatenate([per_rpm[r][0] for r in rpms])
    labels = np.concatenate([per_rpm[r][1] for r in rpms])
    if args.binary:
        labels = classify.binary_relax(labels)
        class_names = ("normal", "not_normal")
    else:
        class_names = classify.DEFAULT_CLASS_NAMES
    (ftr, ltr), (fte, lte) = split_arrays(feats, labels, tcfg.seed)
    if args.augment:  # interpolants join the training split only
        f_new, l_new = augment.interpolate_within_rpm(ftr, ltr, args.augment, seed=tcfg.seed)
        ftr = np.concatenate([ftr, f_new])
        ltr = np.concatenate([ltr, l_new])
    enc = features.fit_encoder(ftr, tuple(f"f{i}" for i in range(ftr.shape[1])))
    model = classify.train_classifier(enc.transform(ftr), ltr, cfg=tcfg, class_names=class_names)
    acc, cm = classify.evaluate(model, enc.transform(fte), lte)
    print(report.canonical_json({"accuracy": acc}))
    model.provenance = _provenance(cfg, {"train": report.data_fingerprint(ftr)})
    if args.save_model:
        classify.save_classifier(model, args.save_model)
    return {
        "accuracy": acc,
        "confusion": cm.counts.tolist(),
        "class_names": list(class_names),
        "provenance": model.provenance,
    }


#: The fewest target samples transfer takes: two per defect class.
MIN_TARGET_SAMPLES = 2 * len(DefectLabel)


def cmd_transfer(args, cfg) -> dict:
    if args.target_samples < MIN_TARGET_SAMPLES:
        raise ContractError(
            f"--target-samples must be >= {MIN_TARGET_SAMPLES}, got {args.target_samples}")
    result = run_transfer_experiment(
        rpm=args.rpm,
        source_duration_s=args.source_duration,
        target_samples=args.target_samples,
        noise=args.noise,
        extra_noise=args.extra_noise,
        cfg=classify.TrainConfig(**cfg["training"]),
    )
    result["provenance"] = _provenance(cfg, {})
    print(report.canonical_json({k: result[k] for k in ("dnn_r_accuracy", "dnn_tl_accuracy")}))
    return result


def run_transfer_experiment(
    rpm: int,
    source_duration_s: float,
    target_samples: int,
    noise: float,
    extra_noise: float,
    cfg: classify.TrainConfig,
    target_epoch_scale: float = 1.0,
) -> dict:
    """Paired source-sensor vs target-sensor experiment: a plain model on the
    scarce decimated target data against fine-tuning the source model."""
    mems_rate = 10.0
    target_duration = max(target_samples // 3, 2) / mems_rate
    fs, ls = _labeled_xz(_labeled_bursts(rpm, source_duration_s, noise, cfg.seed, 7, 0.0))
    # map keeps no 3.2 kHz burst past its decimation, as a loop variable would
    ft, lt = _labeled_xz(map(
        lambda rec: synth.decimate_to_mems(rec, target_rate_hz=mems_rate,
                                           extra_noise_sigma=extra_noise,
                                           seed=cfg.seed + int(rec.label)),
        _labeled_bursts(rpm, target_duration, noise, cfg.seed + 3, 7, 0.0)))
    enc = features.fit_encoder(fs, features.axis_feature_names())
    source_model = classify.train_classifier(enc.transform(fs), ls, cfg=cfg)
    bundle = classify.make_bundle(source_model, enc)
    (ftr, ltr), (fte, lte) = split_arrays(ft, lt, cfg.seed)
    target_cfg = replace(cfg, epochs=max(1, int(cfg.epochs * target_epoch_scale)))
    dnn_r = classify.train_classifier(enc.transform(ftr), ltr, cfg=target_cfg)
    dnn_tl = classify.train_transfer(bundle, ftr, ltr, cfg=target_cfg)
    acc_r, _ = classify.evaluate(dnn_r, enc.transform(fte), lte)
    acc_tl, _ = classify.evaluate(dnn_tl, enc.transform(fte), lte)
    return {
        "rpm": rpm,
        "n_source": int(len(ls)),
        "n_target": int(len(lt)),
        "dnn_r_accuracy": acc_r,
        "dnn_tl_accuracy": acc_tl,
        "source_id": f"synthetic-piezo-rpm{rpm}",
    }


def cmd_cross_rpm(args, cfg) -> dict:
    if args.augment < 0:
        raise ContractError(f"--augment must be >= 0, got {args.augment}")
    tcfg = classify.TrainConfig(**cfg["training"])
    rpms = _comma_list(args.synth_rpms, "--synth-rpms", int)
    per_rpm = _synth_per_rpm(rpms, args.duration, args.noise, tcfg.seed,
                             amp_rpm_exponent=args.amp_rpm_exponent)
    result = classify.cross_rpm_matrix(
        per_rpm, cfg=tcfg, augment_n_per_rpm=args.augment
    )
    result["provenance"] = _provenance(cfg, {})
    rows = [[rpm] + [result["grid"][rpm][str(r)] for r in rpms] + [result["grid"][rpm]["average"]]
            for rpm in list(map(str, rpms)) + ["augmented"]]
    print(report.format_table(["train\\test"] + [str(r) for r in rpms] + ["average"], rows))
    return result


def cmd_tune(args, cfg) -> dict:
    tcfg = classify.TrainConfig(**cfg["training"])
    per_rpm = _synth_per_rpm([args.rpm], args.duration, args.noise, tcfg.seed)
    feats, labels = per_rpm[args.rpm]
    steps = [
        ("feature_normalization", {"normalize": True}),
        ("hidden_layers", {"hidden_sizes": (50, 80, 100)}),
        ("epochs", {"epochs": max(tcfg.epochs, 30)}),
        ("batch_size", {"batch_size": 100}),
    ]
    results = classify.tuning_sweep(feats, labels, steps, base_cfg=tcfg, mode=args.mode)
    print(report.format_table(["step", "accuracy"], [[r["step"], r["accuracy"]] for r in results]))
    return {"sweep": results, "mode": args.mode, "provenance": _provenance(cfg, {})}


def cmd_autoenc(args, cfg) -> dict:
    if args.vibration_stride < 1:
        raise ContractError(f"--vibration-stride must be >= 1, got {args.vibration_stride}")
    tcfg = classify.TrainConfig(**cfg["training"])
    labeled = synth.generate_process(days=args.days, seed=tcfg.seed)
    vib = synth.vibration_for_states(labeled[:: args.vibration_stride], tcfg.seed)
    aligned = ingest.align_and_impute(vib, labeled)
    enc = features.fit_encoder(aligned.features, aligned.feature_names)
    model = autoenc.train_autoenc_classifier(
        enc.transform(aligned.features), aligned.labels, alpha=args.alpha, cfg=tcfg
    )
    preds = np.argmax(model.predict_proba(enc.transform(aligned.features)), axis=1)
    acc = float(np.mean(preds == aligned.labels))
    print(report.canonical_json({"train_accuracy": acc}))
    return {"train_accuracy": acc, "alpha": args.alpha,
            "recon_loss_curve": model.recon_loss_curve,
            "class_loss_curve": model.class_loss_curve,
            "provenance": _provenance(cfg, {})}


def cmd_report(args, cfg) -> None:
    if args.compare:
        a = report.load_json_report(args.compare[0])
        b = report.load_json_report(args.compare[1])
        for line in report.compare_reports(a, b):
            print(line)
        return
    doc = report.load_json_report(args.show)
    if "best_rmse" in doc:
        try:
            tables = anomaly.benchmark_tables(doc)
        except ContractError as exc:
            raise ContractError(f"bench report {args.show}: {exc}") from None
        print(tables)
    else:
        print(report.canonical_json(doc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vibrosense")
    parser.add_argument("--config", help="key-value config file")
    sub = parser.add_subparsers(dest="command", required=True)
    training = argparse.ArgumentParser(add_help=False)
    training.add_argument("--epochs", type=int)
    training.add_argument("--seed", type=int)
    training.add_argument("--out")

    p = sub.add_parser("ingest", help="parse a dataset file")
    p.add_argument("--format", choices=["triaxial", "process", "pharma"], required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--sample-rate", type=float, help="tri-axial only (default 3200)")
    p.add_argument("--rpm", type=int, help="tri-axial only (default 300)")
    p.add_argument("--burst-len", type=int, help="tri-axial only (default: one record)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate synthetic data in a wire format")
    p.add_argument("--emit", choices=["triaxial", "process", "pharma"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rpm", type=int, default=300)
    p.add_argument("--rate", type=float, default=3200.0)
    p.add_argument("--duration", type=float, default=1.0)
    p.add_argument("--level", choices=["normal", "near_failure", "failure"], default="normal")
    p.add_argument("--noise", type=float, default=0.3)
    p.add_argument("--days", type=int, default=7)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench", help="dataset x model benchmark sweep")
    p.add_argument("--datasets")
    p.add_argument("--models")
    p.add_argument("--lambda", type=float)
    p.add_argument("--split", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("train", parents=[training], help="train a defect classifier on synthetic data")
    p.add_argument("--synth-rpms", default="300")
    p.add_argument("--duration", type=float, default=2.0)
    p.add_argument("--noise", type=float, default=0.3)
    p.add_argument("--binary", action="store_true")
    p.add_argument("--augment", type=int, default=0)
    p.add_argument("--save-model")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("transfer", parents=[training], help="source-to-target transfer experiment")
    p.add_argument("--rpm", type=int, default=100)
    p.add_argument("--source-duration", type=float, default=5.0)
    p.add_argument("--target-samples", type=int, default=600)
    p.add_argument("--noise", type=float, default=0.3)
    p.add_argument("--extra-noise", type=float, default=0.1)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("cross-rpm", parents=[training], help="cross-speed accuracy grid")
    p.add_argument("--synth-rpms", default="100,200,300,400")
    p.add_argument("--duration", type=float, default=1.0)
    p.add_argument("--noise", type=float, default=0.3)
    p.add_argument("--amp-rpm-exponent", type=float, default=1.0)
    p.add_argument("--augment", type=int, default=200)
    p.set_defaults(func=cmd_cross_rpm)

    p = sub.add_parser("tune", parents=[training], help="cumulative tuning-ledger sweep")
    p.add_argument("--rpm", type=int, default=300)
    p.add_argument("--duration", type=float, default=1.0)
    p.add_argument("--noise", type=float, default=0.3)
    p.add_argument("--mode", choices=["cumulative", "independent"], default="cumulative")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("autoenc", parents=[training], help="dual-loss autoencoder state classifier")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--days", type=int, default=3)
    p.add_argument("--vibration-stride", type=int, default=1)
    p.set_defaults(func=cmd_autoenc)

    p = sub.add_parser("report", help="show or compare report files")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"))
    mode.add_argument("--show")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USER_ERROR if exc.code not in (0, None) else 0
    try:
        # a command returns the report that --out receives, or None
        doc = args.func(args, resolve_config(args))
        if doc is not None and args.out:
            report.write_json_report(doc, args.out)
        return 0
    except (ContractError, OSError) as exc:  # bad input, or a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return USER_ERROR
    except Exception as exc:  # invariant violation
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
