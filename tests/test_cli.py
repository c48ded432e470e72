import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import vibrosense
from vibrosense import classify, cli, ingest, synth
from vibrosense.core import ContractError, DefectLabel


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


class TestLoadConfig:
    def test_defaults_without_file(self):
        cfg = cli.load_config(None)
        assert cfg["detection"]["lambda"] == 0.1
        assert cfg["detection"]["two_sided"] is True
        assert cfg["training"]["epochs"] == 20
        assert cfg["split"]["train_fraction"] == 0.66

    def test_file_values_override_defaults(self, tmp_path):
        path = write_config(tmp_path, "[detection]\nlambda = 0.25\ntwo_sided = no\n")
        cfg = cli.load_config(path)
        assert cfg["detection"]["lambda"] == 0.25
        assert cfg["detection"]["two_sided"] is False
        # untouched sections keep defaults
        assert cfg["training"]["batch_size"] == 64

    def test_typed_parsing(self, tmp_path):
        path = write_config(tmp_path, "[training]\nepochs = 7\nlearning_rate = 0.01\n")
        cfg = cli.load_config(path)
        assert cfg["training"]["epochs"] == 7
        assert cfg["training"]["learning_rate"] == 0.01

    def test_unknown_key_suggests_spelling(self, tmp_path):
        path = write_config(tmp_path, "[detection]\nlamda = 0.2\n")
        with pytest.raises(ContractError, match="did you mean 'lambda'"):
            cli.load_config(path)

    def test_unknown_section_suggests_spelling(self, tmp_path):
        path = write_config(tmp_path, "[trainning]\nepochs = 3\n")
        with pytest.raises(ContractError, match="did you mean 'training'"):
            cli.load_config(path)

    def test_missing_file(self):
        with pytest.raises(ContractError, match="no/such/file.cfg"):
            cli.load_config("no/such/file.cfg")

    def test_bad_interpolation_names_key(self, tmp_path):
        path = write_config(tmp_path, "[detection]\nlambda = 10%\n")
        with pytest.raises(ContractError, match=r"\[detection\] lambda"):
            cli.load_config(path)

    @pytest.mark.parametrize("word,value", [
        ("1", True), ("YES", True), ("True", True), ("on", True),
        ("0", False), ("No", False), ("false", False), ("OFF", False),
    ])
    def test_boolean_words(self, tmp_path, word, value):
        path = write_config(tmp_path, f"[detection]\ntwo_sided = {word}\n")
        assert cli.load_config(path)["detection"]["two_sided"] is value

    @pytest.mark.parametrize("text,detail", [
        ("[training]\nepochs = abc\n", "[training] epochs = 'abc' is not a valid int"),
        ("[detection]\ntwo_sided = maybe\n", "[detection] two_sided = 'maybe' is not a valid bool"),
        ("[detection]\ntwo_sided = ture\n", "[detection] two_sided = 'ture' is not a valid bool"),
        ("epochs = 3\n", "no section headers"),
    ])
    def test_config_errors_exit_1_with_location(self, tmp_path, capsys, text, detail):
        path = write_config(tmp_path, text)
        code = cli.main(["--config", path, "bench", "--models", "ar", "--datasets", "synth-a"])
        assert code == cli.USER_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {path}:") and detail in err


    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.1"])
    def test_bad_learning_rate_in_config_file_is_user_error(self, tmp_path, capsys, value):
        # rejected where it is read, not reported later as a diverged training
        path = write_config(tmp_path, f"[training]\nlearning_rate = {value}\nepochs = 1\n")
        code = cli.main(["--config", path, "train", "--duration", "0.3"])
        assert code == cli.USER_ERROR
        err = capsys.readouterr().err
        assert f"train config learning_rate must be positive and finite, got {float(value)}" in err
        assert "non-finite training loss" not in err


#: A bad value for every CONFIG_SCHEMA key, as (section, key, file text, the
#: library's reason).
BAD_SETTINGS = [
    ("detection", "lambda", "0", "lambda must be finite and positive"),
    ("detection", "two_sided", "maybe", "is not a valid bool"),
    ("training", "epochs", "-1", "train config epochs must be >= 0, got -1"),
    ("training", "batch_size", "0", "train config batch_size must be >= 1, got 0"),
    ("training", "learning_rate", "nan",
     "train config learning_rate must be positive and finite, got nan"),
    ("training", "seed", "-1", "seed must be a non-negative integer, got -1"),
    ("datasets", "names", "synth-a,nope", "dataset 'nope' is neither a .csv path nor a synth-*"),
    ("datasets", "n_points", "5", "need n >= 10 and 0 <= n_spikes <= n/4"),
    ("datasets", "n_spikes", "-1", "need n >= 10 and 0 <= n_spikes <= n/4"),
    ("datasets", "spike_rel", "nan", "spike_rel must be finite, got nan"),
    ("models", "names", "ar,prophet", "unknown model kind 'prophet'"),
    ("split", "train_fraction", "2", "train_fraction must lie in (0, 1)"),
]

REASON = {(section, key): reason for section, key, _, reason in BAD_SETTINGS}

#: The same through each flag that sets a key, as (argv, source, reason).
BAD_FLAGS = [
    (["bench", "--lambda", "0"], "--lambda 0.0", REASON["detection", "lambda"]),
    (["train", "--epochs", "-1"], "--epochs -1", REASON["training", "epochs"]),
    (["tune", "--seed", "-1"], "--seed -1", REASON["training", "seed"]),
    (["bench", "--datasets", "synth-a,nope"], "--datasets synth-a,nope",
     REASON["datasets", "names"]),
    (["bench", "--models", "ar,prophet"], "--models ar,prophet", REASON["models", "names"]),
    (["bench", "--split", "2"], "--split 2.0", REASON["split", "train_fraction"]),
]

#: Commands that use few or none of the settings: the file is checked whole anyway.
COMMANDS = [
    ["bench"],
    ["train", "--duration", "0.2"],
    ["ingest", "--format", "process", "--input", "absent.csv"],
    ["synth", "--emit", "process", "--days", "1"],
]


class TestSettingsCheckedOnce:
    """resolve_config passes every section through the library rule that owns
    it, whatever the command, and names the file key or flag behind a bad value."""

    def _run(self, tmp_path, capsys, argv):
        out = tmp_path / "out.json"
        code = cli.main(argv + ["--out", str(out)])
        assert not out.exists()
        return code, capsys.readouterr().err

    def test_tables_cover_every_key_and_flag(self):
        assert [(s, k) for s, k, _, _ in BAD_SETTINGS] == [
            (s, k) for s, keys in cli.CONFIG_SCHEMA.items() for k in keys]
        assert sorted(argv[1] for argv, _, _ in BAD_FLAGS) == sorted(
            flag for keys in cli.CONFIG_SCHEMA.values() for _, _, flag in keys.values() if flag)

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda argv: argv[0])
    @pytest.mark.parametrize("section, key, raw, reason", BAD_SETTINGS,
                             ids=[f"{s}.{k}" for s, k, _, _ in BAD_SETTINGS])
    def test_bad_file_value_names_file_key_and_reason(self, tmp_path, capsys, command,
                                                      section, key, raw, reason):
        path = write_config(tmp_path, f"[{section}]\n{key} = {raw}\n")
        code, err = self._run(tmp_path, capsys, ["--config", path] + command)
        assert code == cli.USER_ERROR
        assert f"error: config file {path}: [{section}] {key} = {raw!r}" in err
        assert reason in err

    @pytest.mark.parametrize("argv, source, reason", BAD_FLAGS, ids=lambda v: str(v))
    def test_bad_flag_value_names_flag_and_reason(self, tmp_path, capsys, argv, source, reason):
        code, err = self._run(tmp_path, capsys, argv)
        assert code == cli.USER_ERROR
        assert f"error: {source}: {reason}" in err

    def test_bad_batch_size_stops_bench_that_does_not_train(self, tmp_path, capsys):
        path = write_config(tmp_path, "[training]\nbatch_size = 0\n")
        code, err = self._run(tmp_path, capsys,
                              ["--config", path, "bench", "--models", "ar", "--datasets", "synth-a"])
        assert code == cli.USER_ERROR
        assert f"config file {path}: [training] batch_size = '0': train config batch_size" in err

    def test_zero_lambda_stops_train(self, tmp_path, capsys):
        path = write_config(tmp_path, "[detection]\nlambda = 0\n")
        code, err = self._run(tmp_path, capsys, ["--config", path, "train", "--duration", "0.2"])
        assert code == cli.USER_ERROR
        assert f"config file {path}: [detection] lambda = '0': lambda must be finite" in err

    def test_split_flag_and_file_key_say_which_gave_the_value(self, tmp_path, capsys):
        path = write_config(tmp_path, "[split]\ntrain_fraction = 2\n")
        bench = ["bench", "--models", "ar", "--datasets", "synth-a"]
        _, from_flag = self._run(tmp_path, capsys, bench + ["--split", "2"])
        _, from_file = self._run(tmp_path, capsys, ["--config", path] + bench)
        assert from_flag != from_file
        assert "--split 2.0: train_fraction must lie in (0, 1)" in from_flag
        assert f"[split] train_fraction = '2': train_fraction must lie in (0, 1)" in from_file

    def test_non_finite_spike_size_is_named_not_the_series(self, tmp_path, capsys):
        path = write_config(tmp_path, "[datasets]\nspike_rel = nan\n")
        _, err = self._run(tmp_path, capsys, ["--config", path, "bench", "--models", "ar"])
        assert "[datasets] spike_rel = 'nan': spike_rel must be finite" in err
        assert "values must all be finite" not in err

    def test_spikes_that_overflow_are_named_not_the_series(self, tmp_path, capsys):
        # finite, so resolve_config passes it; the spiked values are not
        path = write_config(tmp_path, "[datasets]\nspike_rel = 1e308\nn_points = 100\n"
                                      "n_spikes = 2\n")
        code, err = self._run(tmp_path, capsys, ["--config", path, "bench", "--models",
                                                 "seasonal_naive", "--datasets", "synth-a"])
        assert code == 1
        assert "spike_rel = 1e+308 makes a spiked value overflow" in err
        assert "values must all be finite" not in err

    def test_unknown_model_in_file_names_file_and_key(self, tmp_path, capsys):
        path = write_config(tmp_path, "[models]\nnames = prophet\n")
        _, err = self._run(tmp_path, capsys, ["--config", path, "bench", "--datasets", "synth-a"])
        assert f"config file {path}: [models] names = 'prophet': unknown model kind" in err

    @pytest.mark.parametrize("text, blamed", [
        # together too many spikes for the points; the key given last tips it over
        ("n_points = 36\nn_spikes = 10\n", "n_spikes = '10'"),
        ("n_spikes = 10\nn_points = 36\n", "n_points = '36'"),
    ])
    def test_keys_bad_only_together_blame_the_one_given_last(self, tmp_path, capsys, text,
                                                             blamed):
        path = write_config(tmp_path, "[datasets]\n" + text)
        code, err = self._run(tmp_path, capsys, ["--config", path, "bench", "--models", "ar"])
        assert code == cli.USER_ERROR
        assert f"error: config file {path}: [datasets] {blamed}: need n >= 10" in err

    def test_keys_are_checked_together_not_alone(self, tmp_path, capsys):
        # 20 points take no more than the default 8 spikes alone, but 2 fit
        path = write_config(tmp_path, "[datasets]\nn_points = 20\nn_spikes = 2\n")
        out = tmp_path / "r.json"
        assert cli.main(["--config", path, "bench", "--models", "seasonal_naive",
                         "--datasets", "synth-a", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["provenance"]["resolved_config"]["datasets"][
            "n_points"] == 20

    def test_flag_over_a_bad_file_value_is_fine(self, tmp_path, capsys):
        path = write_config(tmp_path, "[training]\nseed = -1\n")
        out = tmp_path / "r.json"
        assert cli.main(["--config", path, "bench", "--models", "seasonal_naive",
                         "--datasets", "synth-a", "--seed", "2", "--out", str(out)]) == 0

    def test_bad_flag_over_a_good_file_value_names_the_flag(self, tmp_path, capsys):
        path = write_config(tmp_path, "[training]\nseed = 2\nepochs = 3\n")
        code, err = self._run(tmp_path, capsys, ["--config", path, "train", "--seed", "-1"])
        assert code == cli.USER_ERROR
        assert "error: --seed -1: seed must be a non-negative integer" in err

    def test_python_dash_m_runs_the_cli(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(vibrosense.__file__)))
        ok = subprocess.run([sys.executable, "-m", "vibrosense", "--help"], env=env,
                            capture_output=True, text=True)
        assert ok.returncode == 0 and "usage: vibrosense" in ok.stdout
        path = write_config(tmp_path, "[training]\nbatch_size = 0\n")
        bad = subprocess.run([sys.executable, "-m", "vibrosense", "--config", path, "bench",
                              "--models", "ar", "--datasets", "synth-a"], env=env,
                             capture_output=True, text=True)
        assert bad.returncode == cli.USER_ERROR
        assert path in bad.stderr and "batch_size" in bad.stderr


class TestExitCodes:
    def test_missing_input_file_is_user_error(self, capsys):
        code = cli.main(["ingest", "--format", "process", "--input", "absent.csv"])
        assert code == cli.USER_ERROR
        assert "absent.csv" in capsys.readouterr().err

    def test_unknown_model_is_user_error(self, capsys):
        code = cli.main(["bench", "--models", "prophet", "--datasets", "synth-a"])
        assert code == cli.USER_ERROR
        assert "prophet" in capsys.readouterr().err

    def test_bad_flag_is_user_error(self, capsys):
        assert cli.main(["bench", "--no-such-flag"]) == cli.USER_ERROR

    def test_help_is_success(self, capsys):
        assert cli.main(["--help"]) == 0

    @pytest.mark.parametrize("fmt", ["triaxial", "process"])
    def test_undecodable_byte_is_user_error_with_offset(self, tmp_path, capsys, fmt):
        path = tmp_path / "data.csv"
        assert cli.main(["synth", "--emit", fmt, "--out", str(path), "--duration", "0.1",
                         "--days", "1"]) == 0
        good = path.read_bytes()
        offset = len(good) // 2
        path.write_bytes(good[:offset] + b"\xff" + good[offset + 1 :])
        capsys.readouterr()
        code = cli.main(["ingest", "--format", fmt, "--input", str(path)])
        err = capsys.readouterr().err
        assert code == cli.USER_ERROR
        assert str(path) in err and f"byte offset {offset}" in err

    def test_zero_sample_rate_is_user_error(self, tmp_path, capsys):
        path = tmp_path / "v.csv"
        assert cli.main(["synth", "--emit", "triaxial", "--out", str(path),
                         "--duration", "0.1"]) == 0
        code = cli.main(["ingest", "--format", "triaxial", "--input", str(path),
                         "--sample-rate", "0"])
        assert code == cli.USER_ERROR
        assert "sample rate must be positive" in capsys.readouterr().err

    # wall times, and UTC times of texts that name their offset, a day inside
    # datetime's range at either end; then two in range on their own clock
    # but not as a UTC second: the first rounds up to the range's end as a
    # float, the second is 03:55 UTC on 9999-12-31. bench labels the rows it reads
    @pytest.mark.parametrize("command", [["ingest", "--format", "process", "--input"],
                                         ["bench", "--models", "ar", "--datasets"]])
    @pytest.mark.parametrize("stamp", ["9999-12-31 23:30:00", "0001-01-01 00:00:00",
                                       "9999-12-30T20:00:00-05:00", "0001-01-02T01:00:00+05:00",
                                       "9999-12-30T23:59:59.999999+00:00", "9999-12-30 22:55:00"])
    def test_process_time_outside_the_conversion_range_is_user_error(self, tmp_path, capsys,
                                                                     command, stamp):
        path = tmp_path / "p.csv"
        path.write_text(",".join(ingest.PROCESS_HEADER) + f"\n{stamp},1,2,3,4,5,6,7\n")
        assert cli.main(command + [str(path), "--out", str(tmp_path / "out.json")]) == 1
        assert f"timestamp '{stamp}' is out of range (line 2)" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["process", "pharma"])
    @pytest.mark.parametrize("flag, value", [("--sample-rate", "3200"), ("--rpm", "300"),
                                             ("--burst-len", "4")])
    def test_triaxial_only_flag_with_other_format_is_user_error(self, tmp_path, capsys,
                                                                fmt, flag, value):
        path = tmp_path / fmt
        assert cli.main(["synth", "--emit", fmt, "--out", str(path), "--days", "1"]) == 0
        assert cli.main(["ingest", "--format", fmt, "--input", str(path)]) == 0
        out = tmp_path / "out.json"
        code = cli.main(["ingest", "--format", fmt, "--input", str(path), flag, value,
                         "--out", str(out)])
        assert code == cli.USER_ERROR
        assert f"only --format triaxial takes {flag}; got --format {fmt}" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_triaxial_flag_defaults_unchanged(self, tmp_path, capsys):
        path = tmp_path / "v.csv"
        assert cli.main(["synth", "--emit", "triaxial", "--out", str(path),
                         "--duration", "0.1"]) == 0
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        assert cli.main(["ingest", "--format", "triaxial", "--input", str(path),
                         "--out", str(outs[0])]) == 0
        assert cli.main(["ingest", "--format", "triaxial", "--input", str(path),
                         "--sample-rate", "3200", "--rpm", "300", "--out", str(outs[1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("value", ["5", "0", "-1"])
    def test_target_samples_below_floor_is_user_error(self, tmp_path, capsys, value):
        out = tmp_path / "out.json"
        code = cli.main(["transfer", "--source-duration", "0.2", "--epochs", "1",
                         "--target-samples", value, "--out", str(out)])
        assert code == cli.USER_ERROR
        assert f"--target-samples must be >= 6, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_directory_as_input_is_user_error(self, tmp_path, capsys):
        code = cli.main(["ingest", "--format", "process", "--input", str(tmp_path)])
        assert code == cli.USER_ERROR
        assert str(tmp_path) in capsys.readouterr().err

    @pytest.mark.parametrize("argv, detail", [
        (["synth", "--emit", "triaxial", "--rate", "nan"], "sample_rate_hz"),
        (["synth", "--emit", "triaxial", "--duration", "inf"], "duration_s"),
        (["synth", "--emit", "triaxial", "--noise", "nan"], "noise_sigma"),
        (["train", "--synth-rpms", "300,abc"], "'abc'"),
        (["cross-rpm", "--synth-rpms", "100,2x0"], "'2x0'"),
        (["cross-rpm", "--amp-rpm-exponent", "nan"], "amp_rpm_exponent"),
        (["bench", "--datasets", "synth-a", "--models", "ar", "--lambda", "nan"], "lambda"),
        (["bench", "--datasets", "synth-a", "--models", "ar", "--lambda", "inf"], "lambda"),
    ])
    def test_non_finite_or_non_numeric_flag_is_user_error(self, tmp_path, capsys, argv, detail):
        out = tmp_path / "out.csv"
        code = cli.main(argv + ["--out", str(out)])
        assert code == cli.USER_ERROR
        assert detail in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("argv, detail", [
        (["ingest", "--format", "triaxial", "--input", "{v}", "--burst-len", "0"], "burst_len"),
        (["ingest", "--format", "triaxial", "--input", "{v}", "--burst-len", "-1"], "burst_len"),
        (["ingest", "--format", "triaxial", "--input", "{v}", "--sample-rate", "inf"],
         "sample rate"),
        (["autoenc", "--days", "1", "--vibration-stride", "0"], "--vibration-stride"),
        (["transfer", "--extra-noise", "nan"], "extra_noise_sigma"),
        (["transfer", "--extra-noise", "-1"], "extra_noise_sigma"),
        (["cross-rpm", "--synth-rpms", "100,200", "--duration", "0.1", "--augment", "-1"],
         "--augment must be >= 0, got -1"),
        (["train", "--duration", "0.1", "--augment", "-3"], "--augment must be >= 0, got -3"),
    ])
    def test_bad_count_or_noise_level_is_user_error(self, tmp_path, capsys, argv, detail):
        data = tmp_path / "v.csv"
        assert cli.main(["synth", "--emit", "triaxial", "--out", str(data),
                         "--duration", "0.1"]) == 0
        out = tmp_path / "out.json"
        code = cli.main([a.format(v=data) for a in argv] + ["--out", str(out)])
        assert code == cli.USER_ERROR
        assert detail in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["bench", "--models", "ar", "--datasets", "synth-a", "--seed", "-1"],
        ["train", "--duration", "0.2", "--seed", "-1"],
        ["synth", "--emit", "process", "--days", "1", "--seed", "-1"],
    ])
    def test_negative_seed_flag_is_user_error(self, tmp_path, capsys, argv):
        code = cli.main(argv + ["--out", str(tmp_path / "out")])
        assert code == cli.USER_ERROR
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["bench", "--models", "ar", "--datasets", "synth-a"],
        ["train", "--duration", "0.2"],
    ])
    def test_negative_seed_in_config_is_user_error(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path, "[training]\nseed = -1\n")
        assert cli.main(["--config", cfg] + argv) == cli.USER_ERROR
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err


class TestCommaLists:
    @pytest.mark.parametrize("argv, detail", [
        (["bench", "--models", "ar", "--datasets", "synth-a,synth-a"],
         "--datasets: repeated token 'synth-a'"),
        (["bench", "--models", "ar, ar", "--datasets", "synth-a"], "--models: repeated token 'ar'"),
        (["bench", "--models", "ar,,mlp", "--datasets", "synth-a"], "--models: empty token"),
        (["bench", "--models", "ar", "--datasets", "synth-a,"], "--datasets: empty token"),
        (["train", "--synth-rpms", "300,300"], "--synth-rpms: repeated token '300'"),
        (["train", "--synth-rpms", "300,0300"], "--synth-rpms: repeated token '0300'"),
        (["cross-rpm", "--synth-rpms", "100,100,200"], "--synth-rpms: repeated token '100'"),
    ])
    def test_empty_or_repeated_token_is_user_error(self, tmp_path, capsys, argv, detail):
        out = tmp_path / "out.json"
        assert cli.main(argv + ["--out", str(out)]) == cli.USER_ERROR
        assert detail in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, detail", [
        ("[models]\nnames = ar,ar\n", "[models] names: repeated token 'ar'"),
        ("[datasets]\nnames = synth-a,,synth-b\n", "[datasets] names: empty token"),
    ])
    def test_config_list_error_names_file_and_key(self, tmp_path, capsys, text, detail):
        path = write_config(tmp_path, text)
        assert cli.main(["--config", path, "bench"]) == cli.USER_ERROR
        err = capsys.readouterr().err
        assert f"config file {path}" in err and detail in err

    def test_tokens_are_stripped(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BENCH_CFG)
        out = tmp_path / "r.json"
        assert cli.main(["--config", cfg, "bench", "--models", " seasonal_naive , ar",
                         "--datasets", "synth-b, synth-a", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert sorted(doc["datasets"]) == ["synth-a", "synth-b"]
        assert {c["model"] for c in doc["grid"]} == {"seasonal_naive", "ar"}

    @pytest.mark.parametrize("token, hint", [
        ("synth_a", " (did you mean 'synth-a'?)"), ("synthb", " (did you mean 'synth-b'?)"),
        ("nope", ""), ("x.cvs", ""),
    ])
    def test_unknown_dataset_is_user_error(self, capsys, token, hint):
        code = cli.main(["bench", "--models", "ar", "--datasets", f"synth-a,{token}"])
        assert code == cli.USER_ERROR
        err = capsys.readouterr().err
        assert f"dataset '{token}' is neither a .csv path nor a synth-* name{hint}\n" in err


BENCH_CFG = """\
[datasets]
names = synth-a
n_points = 120
n_spikes = 3

[models]
names = seasonal_naive
"""


class TestBench:
    def test_same_seed_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BENCH_CFG)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert cli.main(["--config", cfg, "bench", "--seed", "7", "--out", str(out1)]) == 0
        assert cli.main(["--config", cfg, "bench", "--seed", "7", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_lambda_precedence_flag_beats_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BENCH_CFG + "\n[detection]\nlambda = 0.1\n")
        out = tmp_path / "r.json"
        assert cli.main(["--config", cfg, "bench", "--lambda", "0.2",
                         "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["rule"]["lambda"] == 0.2

    def test_lambda_from_file_when_no_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BENCH_CFG + "\n[detection]\nlambda = 0.15\n")
        out = tmp_path / "r.json"
        assert cli.main(["--config", cfg, "bench", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["rule"]["lambda"] == 0.15

    def test_provenance_embedded(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BENCH_CFG)
        out = tmp_path / "r.json"
        assert cli.main(["--config", cfg, "bench", "--seed", "3", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        prov = doc["provenance"]
        assert prov["seed"] == 3
        assert prov["resolved_config"]["datasets"]["n_points"] == 120
        assert "synth-a" in prov["dataset_fingerprints"]

    def test_resolved_config_records_the_flags(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert cli.main(["bench", "--models", "ar", "--datasets", "synth-a", "--seed", "11",
                         "--lambda", "0.3", "--split", "0.5", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        resolved = doc["provenance"]["resolved_config"]
        assert resolved["training"]["seed"] == doc["provenance"]["seed"] == 11
        assert resolved["detection"]["lambda"] == doc["rule"]["lambda"] == 0.3
        assert resolved["split"]["train_fraction"] == 0.5
        assert resolved["models"]["names"] == "ar"
        assert resolved["datasets"]["names"] == "synth-a"

    def test_resolved_config_takes_file_values_without_flags(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BENCH_CFG + "[training]\nseed = 4\nepochs = 3\n"
                           "[split]\ntrain_fraction = 0.6\n")
        out = tmp_path / "r.json"
        assert cli.main(["--config", cfg, "bench", "--out", str(out)]) == 0
        prov = json.loads(out.read_text())["provenance"]
        assert prov["seed"] == 4
        assert prov["resolved_config"]["training"] == {
            "epochs": 3, "batch_size": 64, "learning_rate": 0.05, "seed": 4}
        assert prov["resolved_config"]["split"]["train_fraction"] == 0.6
        assert prov["resolved_config"]["models"]["names"] == "seasonal_naive"

    def test_process_csv_beside_a_synth_series(self, tmp_path, capsys):
        # a process file is a dataset scored by date ranges; its series and
        # the synth one differ in length, so the mlp trains as two groups
        data = tmp_path / "plant.csv"
        assert cli.main(["synth", "--emit", "process", "--days", "2", "--out", str(data)]) == 0
        cfg = write_config(tmp_path, "[datasets]\nn_points = 120\n")
        argv = ["--config", cfg, "bench", "--datasets", f"{data},synth-a",
                "--models", "seasonal_naive,ar,mlp", "--seed", "5", "--out"]
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert cli.main(argv + [str(out1)]) == 0
        assert cli.main(argv + [str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        assert doc["datasets"][str(data)]["truth_rule"] == "date_ranges"
        assert doc["datasets"]["synth-a"]["truth_rule"] == "injected_spikes"
        assert doc["datasets"][str(data)]["n_points"] != doc["datasets"]["synth-a"]["n_points"]
        assert all(c["error"] is None for c in doc["grid"])

    def test_week_of_process_rows(self, tmp_path, capsys, monkeypatch):
        # more than one 1024-row block, parsed to the chiller series
        monkeypatch.chdir(tmp_path)
        assert cli.main(["synth", "--emit", "process", "--days", "7", "--out", "week.csv"]) == 0
        assert cli.main(["bench", "--models", "seasonal_naive,ar", "--datasets", "week.csv",
                         "--out", "r.json"]) == 0
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["datasets"]["week.csv"]["n_points"] == 2016
        assert doc["datasets"]["week.csv"]["truth_rule"] == "date_ranges"
        assert len(doc["grid"]) == 4
        assert all(c["error"] is None and c["n_test"] > 0 and math.isfinite(c["rmse"])
                   for c in doc["grid"])

    def test_split_and_rule_sections(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[detection]\ntwo_sided = false\n")
        out = tmp_path / "r.json"
        assert cli.main(["--config", cfg, "bench", "--models", "seasonal_naive", "--datasets",
                         "synth-a", "--split", "0.5", "--lambda", "0.2", "--seed", "3",
                         "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["split"] == {"train_fraction": 0.5, "mode": "CHRONOLOGICAL", "seed": 3}
        assert doc["rule"] == {"lambda": 0.2, "two_sided": False, "epsilon_rms_fraction": 1e-06}

    def test_tables_printed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BENCH_CFG)
        assert cli.main(["--config", cfg, "bench"]) == 0
        text = capsys.readouterr().out
        assert "seasonal_naive" in text


class TestSynthIngestRoundTrips:
    def test_triaxial(self, tmp_path, capsys):
        out = tmp_path / "v.csv"
        assert cli.main(["synth", "--emit", "triaxial", "--out", str(out),
                         "--duration", "0.1"]) == 0
        assert cli.main(["ingest", "--format", "triaxial", "--input", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["records"] >= 1 and summary["samples"] == 320

    def test_process(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert cli.main(["synth", "--emit", "process", "--out", str(out),
                         "--days", "2"]) == 0
        assert cli.main(["ingest", "--format", "process", "--input", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["rows"] == 2 * 288  # 5-minute cadence

    def test_pharma(self, tmp_path, capsys):
        out = tmp_path / "v.txt"
        assert cli.main(["synth", "--emit", "pharma", "--out", str(out),
                         "--duration", "1.5"]) == 0
        assert cli.main(["ingest", "--format", "pharma", "--input", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["records"] == 1

    @pytest.mark.parametrize("emit", ["triaxial", "process", "pharma"])
    def test_synth_seed_from_config_file(self, tmp_path, capsys, emit):
        cfg = write_config(tmp_path, "[training]\nseed = 5\n")
        paths = [tmp_path / name for name in ("file", "flag", "default")]
        argv = ["synth", "--emit", emit, "--days", "1", "--out"]
        assert cli.main(["--config", cfg] + argv + [str(paths[0])]) == 0
        assert cli.main(argv + [str(paths[1]), "--seed", "5"]) == 0
        assert cli.main(argv + [str(paths[2])]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes() != paths[2].read_bytes()

    def test_pharma_too_short(self, capsys, tmp_path):
        code = cli.main(["synth", "--emit", "pharma", "--out",
                         str(tmp_path / "v.txt"), "--duration", "0.1"])
        assert code == cli.USER_ERROR


class TestTrainingCommands:
    def test_train_writes_report_and_model(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        model_path = tmp_path / "clf.json"
        assert cli.main(["train", "--duration", "0.5", "--epochs", "3",
                         "--seed", "1", "--out", str(out),
                         "--save-model", str(model_path)]) == 0
        doc = json.loads(out.read_text())
        assert 0.0 <= doc["accuracy"] <= 1.0
        assert doc["class_names"] == ["normal", "near_failure", "failure"]
        # the saved classifier embeds the provenance the report records
        assert classify.load_classifier(model_path).provenance == doc["provenance"]
        assert doc["provenance"]["dataset_fingerprints"]["train"]

    def test_train_binary(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert cli.main(["train", "--duration", "0.5", "--epochs", "3",
                         "--binary", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["class_names"] == ["normal", "not_normal"]

    def test_train_augment_adds_training_rows_only(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        totals = []
        for extra in ([], ["--augment", "300"]):
            assert cli.main(["train", "--duration", "0.5", "--epochs", "1",
                             "--out", str(out)] + extra) == 0
            totals.append(sum(map(sum, json.loads(out.read_text())["confusion"])))
        assert totals[0] == totals[1]

    def test_train_records_flags_over_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[training]\nepochs = 4\nseed = 3\nlearning_rate = 0.04\n")
        out = tmp_path / "t.json"
        assert cli.main(["--config", cfg, "train", "--duration", "0.3", "--seed", "5",
                         "--out", str(out)]) == 0
        assert json.loads(out.read_text())["provenance"]["resolved_config"]["training"] == {
            "epochs": 4, "batch_size": 64, "learning_rate": 0.04, "seed": 5}

    def test_transfer_smoke(self, tmp_path, capsys):
        out = tmp_path / "tr.json"
        assert cli.main(["transfer", "--source-duration", "0.5",
                         "--target-samples", "60", "--epochs", "3",
                         "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert {"dnn_r_accuracy", "dnn_tl_accuracy"} <= set(doc)

    def test_cross_rpm_smoke(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert cli.main(["cross-rpm", "--synth-rpms", "200,300",
                         "--duration", "0.3", "--epochs", "3", "--augment", "20",
                         "--out", str(out)]) == 0
        grid = json.loads(out.read_text())["grid"]
        assert set(grid) == {"200", "300", "augmented"}

    def test_tune_smoke(self, tmp_path, capsys):
        out = tmp_path / "tune.json"
        assert cli.main(["tune", "--duration", "0.3", "--epochs", "2",
                         "--out", str(out)]) == 0
        sweep = json.loads(out.read_text())["sweep"]
        assert sweep[0]["step"] == "baseline" and len(sweep) == 5

    def test_autoenc_smoke(self, tmp_path, capsys):
        out = tmp_path / "ae.json"
        assert cli.main(["autoenc", "--days", "1", "--vibration-stride", "12",
                         "--epochs", "3", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["recon_loss_curve"]) == 3


def _xz_rows(records):
    """Each record's (x, z) sample rows, stacked, and each row's label."""
    records = list(records)
    return (np.concatenate([np.column_stack([r.x, r.z]) for r in records]),
            np.concatenate([np.full(len(r.x), int(r.label)) for r in records]))


def _burst(rpm, duration_s, label, noise, seed, amp_rpm_exponent=0.0):
    return synth.generate_vibration(synth.SynthConfig(
        rpm=rpm, sample_rate_hz=3200.0, duration_s=duration_s, imbalance_level=label,
        noise_sigma=noise, seed=seed, amp_rpm_exponent=amp_rpm_exponent))


class TestSyntheticRecipes:
    """Each labeled-burst recipe's seeds, spelled out: a report changes with
    any of them."""

    def test_per_speed_sets_seed_each_label_at_seed_plus_rpm_plus_1000_per_label(self):
        got = cli._synth_per_rpm([100, 300], duration_s=0.05, noise=0.3, seed=9,
                                 amp_rpm_exponent=1.0)
        assert list(got) == [100, 300]
        for rpm in (100, 300):
            want = _xz_rows(_burst(rpm, 0.05, label, 0.3, 9 + rpm + 1000 * label, 1.0)
                            for label in DefectLabel)
            assert np.array_equal(got[rpm][0], want[0])
            assert np.array_equal(got[rpm][1], want[1])

    def test_transfer_source_and_target_sets(self, monkeypatch):
        sets, real = [], cli._labeled_xz

        def kept(records):
            sets.append(real(records))
            return sets[-1]

        monkeypatch.setattr(cli, "_labeled_xz", kept)
        cfg = classify.TrainConfig(epochs=1, seed=5)
        result = cli.run_transfer_experiment(rpm=200, source_duration_s=0.1, target_samples=30,
                                             noise=0.3, extra_noise=0.2, cfg=cfg)
        source = _xz_rows(_burst(200, 0.1, label, 0.3, 5 + 7 * label) for label in DefectLabel)
        # 30 target samples: 10 per label at 10 Hz, decimated from 1 s at 3.2 kHz
        target = _xz_rows(
            synth.decimate_to_mems(_burst(200, 1.0, label, 0.3, 5 + 3 + 7 * label),
                                   target_rate_hz=10.0, extra_noise_sigma=0.2, seed=5 + label)
            for label in DefectLabel)
        assert len(sets) == 2
        for (feats, labels), (want_feats, want_labels) in zip(sets, [source, target]):
            assert np.array_equal(feats, want_feats) and np.array_equal(labels, want_labels)
        assert (result["n_source"], result["n_target"]) == (3 * 320, 30)


class TestReportCommand:
    def test_show(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text('{"a": 1}')
        assert cli.main(["report", "--show", str(path)]) == 0
        assert '"a":1' in capsys.readouterr().out

    def test_compare(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text('{"rmse": 1.0}')
        b.write_text('{"rmse": 1.5}')
        assert cli.main(["report", "--compare", str(a), str(b)]) == 0
        assert "rmse" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "content,detail",
        [(b"1", "top-level value is int"), (b"\xff", "corrupt JSON"), (b'{"a": ', "corrupt JSON")],
    )
    def test_malformed_file_is_user_error(self, tmp_path, capsys, content, detail):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        assert cli.main(["report", "--show", str(path)]) == cli.USER_ERROR
        err = capsys.readouterr().err
        assert str(path) in err and detail in err

    @pytest.mark.parametrize("content, detail", [
        # these raised a bare StopIteration and a KeyError, and exited 2
        ('{"best_rmse": {}}', "'best_rmse' holds no entry"),
        ('{"best_rmse": {"a": 1}}', "'best_rmse.a' holds no entry"),
        ('{"best_rmse": {"a": {"b": {}}}, "best_f1": {}}', "no key 'error' under 'best_rmse.a.b'"),
        ('{"best_rmse": {"a": {"b": {"error": null, "rmse": 1.5}}}}', "no key 'best_f1'"),
    ])
    def test_bench_report_lacking_a_key_is_user_error(self, tmp_path, capsys, content, detail):
        path = tmp_path / "bench.json"
        path.write_text(content)
        assert cli.main(["report", "--show", str(path)]) == cli.USER_ERROR
        assert capsys.readouterr().err == f"error: bench report {path}: {detail}\n"

    @pytest.mark.parametrize("argv, detail", [
        (["report"], "one of the arguments --compare --show is required"),
        (["report", "--show", "a.json", "--compare", "a.json", "b.json"], "not allowed with"),
    ])
    def test_no_mode_or_both_modes_is_user_error(self, capsys, argv, detail):
        assert cli.main(argv) == cli.USER_ERROR
        assert detail in capsys.readouterr().err

    def test_compare_with_malformed_file_is_user_error(self, tmp_path, capsys):
        good, bad = tmp_path / "a.json", tmp_path / "b.json"
        good.write_text('{"rmse": 1.0}')
        bad.write_text("[1.5]")
        assert cli.main(["report", "--compare", str(good), str(bad)]) == cli.USER_ERROR
        assert str(bad) in capsys.readouterr().err
