"""README's "Command line" block, run line by line through `cli.main`.

Every `hicourant ...` line must exit 1 where its comment says `fails`
and 0 otherwise.  Where the next line is `#   -> X`, stdout must be X.
"""

import re
import shlex
from pathlib import Path

import pytest

from test_golden import run_main

README = Path(__file__).resolve().parent.parent / "README.md"


def usage_lines():
    """(argv, expected exit, expected stdout or None) for each command of the block."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", text, re.S).group(1).splitlines()
    runs = []
    for line, following in zip(block, block[1:] + [""]):
        if not line.startswith("hicourant "):
            continue
        command, _, comment = line.partition("#")
        expected = following.split("#   -> ", 1)[1] if following.startswith("#   -> ") else None
        runs.append((shlex.split(command)[1:], 1 if "fails" in comment else 0, expected))
    return runs


USAGE = usage_lines()


def test_the_usage_block_has_commands_and_outputs():
    assert len(USAGE) >= 10
    assert sum(expected is not None for _, _, expected in USAGE) >= 4


@pytest.mark.parametrize("argv,code,expected", USAGE, ids=[" ".join(argv[:2]) for argv, _, _ in USAGE])
def test_readme_usage_line(argv, code, expected):
    result = run_main(argv)
    assert result["exit"] == code, result["stderr"]
    if expected is not None:
        assert result["stdout"] == expected + "\n"
