"""The examples in README.md run as written."""

import re
import shlex
from pathlib import Path

import pytest

from rigged.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text()


def fenced_block(heading: str, language: str) -> str:
    """The first ``language`` code block after the line ``heading``."""
    match = re.search(rf"^{re.escape(heading)}\n.*?^```{language}\n(.*?)^```", README, re.M | re.S)
    assert match, f"no {language} block under {heading!r}"
    return match.group(1)


COMMANDS = [
    shlex.split(line, comments=True)
    for line in fenced_block("## Command line", "sh").splitlines()
    if line.startswith("rigged ")
]


def test_command_examples_found():
    assert len(COMMANDS) >= 5 and all(argv[0] == "rigged" for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=[f"{i}-{argv[1]}" for i, argv in enumerate(COMMANDS, 1)])
def test_command_example_runs(capsys, argv):
    code = main(argv[1:])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert "FAIL" not in out


def test_quickstart_runs():
    exec(compile(fenced_block("## Library quickstart", "python"), "README quickstart", "exec"), {})
