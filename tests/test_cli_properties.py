"""Property test of the command line: every numeric flag of every subcommand,
set to zero, a negative, NaN or infinity, either runs (exit 0) or is refused
as a user error (exit 1), never an internal error (exit 2)."""

import argparse

import pytest

from vibrosense import cli

# a small run of each subcommand that has a numeric flag; the swept flag is
# appended, so it wins over these
BASE = {
    "ingest": ["--format", "triaxial", "--input", "{triaxial}"],
    "synth": ["--emit", "triaxial", "--out", "{out}", "--duration", "0.1"],
    "bench": ["--models", "ar", "--datasets", "synth-a"],
    "train": ["--duration", "0.2", "--epochs", "1"],
    "transfer": ["--source-duration", "0.2", "--target-samples", "30", "--epochs", "1"],
    "cross-rpm": ["--synth-rpms", "100,200", "--duration", "0.1", "--epochs", "1",
                  "--augment", "10"],
    "tune": ["--duration", "0.1", "--epochs", "1"],
    "autoenc": ["--days", "1", "--vibration-stride", "12", "--epochs", "1"],
}
VALUES = ["0", "-1", "nan", "inf"]


def _numeric_flags():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [
        (command, action.option_strings[0])
        for command, subparser in sub.choices.items()
        for action in subparser._actions
        if action.type in (int, float)
    ]


@pytest.fixture(scope="module")
def triaxial(tmp_path_factory):
    path = tmp_path_factory.mktemp("sweep") / "v.csv"
    assert cli.main(["synth", "--emit", "triaxial", "--out", str(path), "--duration", "0.1"]) == 0
    return str(path)


@pytest.mark.parametrize("value", VALUES)
@pytest.mark.parametrize("command,flag", _numeric_flags())
def test_numeric_flag_exits_0_or_1(tmp_path, capsys, triaxial, command, flag, value):
    argv = [command] + [a.format(triaxial=triaxial, out=tmp_path / "out") for a in BASE[command]]
    code = cli.main(argv + [flag, value])
    err = capsys.readouterr().err
    assert code in (0, cli.USER_ERROR), err
    assert "internal error" not in err
