"""README's "Command line" block, run line by line through `cli.main`,
its "Library quick start" block, run as one program, and its report
"Schema" block, read as JSON.

Every `hicourant ...` line must exit 1 where its comment says `fails`
and 0 otherwise.  Where the next line is `#   -> X`, stdout must be X.
Each `print(...)  # X` line of the quick start must print X.  The schema
must list a real report's keys in the report's order at every level.
"""

import inspect
import json
import re
import shlex
from pathlib import Path

import pytest

from hicourant.cli import SuiteReport
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


def usage_ids():
    """Each command's first two words, lengthened a word at a time until no earlier id is the same."""
    ids = []
    for argv, _, _ in USAGE:
        k = 2
        while " ".join(argv[:k]) in ids:
            k += 1
        ids.append(" ".join(argv[:k]))
    return ids


def test_the_usage_block_has_commands_and_outputs():
    assert len(USAGE) >= 10
    assert sum(expected is not None for _, _, expected in USAGE) >= 4


@pytest.mark.parametrize("argv,code,expected", USAGE, ids=usage_ids())
def test_readme_usage_line(argv, code, expected):
    result = run_main(argv)
    assert result["exit"] == code, result["stderr"]
    if expected is not None:
        assert result["stdout"] == expected + "\n"


def test_library_quick_start_prints_what_its_comments_say(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S).group(1)
    expected = [line.partition("# ")[2] for line in block.splitlines() if line.startswith("print(")]
    assert len(expected) >= 3
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected


def test_the_schema_block_lists_a_real_reports_keys_in_order():
    text = README.read_text(encoding="utf-8")
    schema = json.loads(re.search(r"Schema:\n\n```json\n(.*?)```", text, re.S).group(1))
    # a non-closed omega, so that the report holds failures
    argv = ["check", "plectic", "-m", "3", "-n", "1", "--omega", "x1*dx2^dx3", "--samples", "1", "--json"]
    result = run_main(argv)
    assert result["exit"] == 1, result["stderr"]
    report = json.loads(result["stdout"])
    assert list(schema) == list(report) == list(inspect.signature(SuiteReport).parameters) + ["passed"]
    assert list(schema["params"]) == list(report["params"])
    (check_schema,) = schema["checks"]
    (failure_schema,) = check_schema["failures"]
    failures = [failure for check in report["checks"] for failure in check["failures"]]
    assert failures
    assert all(list(check) == list(check_schema) for check in report["checks"])
    assert all(list(failure) == list(failure_schema) for failure in failures)
