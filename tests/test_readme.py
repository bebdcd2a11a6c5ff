"""README's examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from motzkinrank import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


# `reproduce all` is covered by tests/test_cli.py.
COMMANDS = [
    line
    for block in _blocks("sh")
    for line in block.splitlines()
    if line.startswith("motzkinrank ") and line != "motzkinrank reproduce all"
]


def test_quickstart_runs():
    (code,) = _blocks("python")
    exec(compile(code, "README.md", "exec"), {})


def test_readme_lists_cli_examples():
    assert len(COMMANDS) >= 10


@pytest.mark.parametrize("line", COMMANDS, ids=lambda line: line.split()[1])
def test_cli_example_exits_cleanly(line, capsys):
    assert cli.main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().out
