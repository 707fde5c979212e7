"""Golden CLI reports: exit code, stdout and stderr must stay byte-identical.

Each case of CASES runs `hicourant check ...` in-process through
`cli.main`, once with `--json` and once without; each case of COMMANDS
runs its `bracket` or `solve-hamiltonian` argv once.  Both compare
against the files under `tests/golden/`.  Those files record the reports of the code at the time
they were written; a refactor must leave every byte unchanged.  Regenerate
them only for a change that sets out to alter a report:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from hicourant import cli

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    # reference invocations
    "dorfman-axioms-m3n2": ["dorfman-axioms", "-m3", "-n2"],
    "courant-axioms-m3n2": ["courant-axioms", "-m3", "-n2"],
    "nambu-m3n2-normal": ["nambu", "-m3", "-n2", "--pi", "@1^@2^@3"],
    "admissible-m4n1": ["admissible", "-m4", "-n1", "--omega", "dx1^dx2+dx3^dx4"],
    "deformation-m4n1-open": ["deformation", "-m4", "-n1", "--theta", "x4*dx1^dx2^dx3"],
    "plectic-m3n1-open": ["plectic", "-m3", "-n1", "--omega", "x1*dx2^dx3"],
    # test_cli.SUITE_MATRIX at seed 13
    "matrix-courant-axioms": ["courant-axioms", "-m", "2", "-n", "1", "--samples", "6", "--seed", "13"],
    "matrix-dorfman-axioms": ["dorfman-axioms", "-m", "2", "-n", "1", "--samples", "6", "--seed", "13"],
    "matrix-deformation": [
        "deformation", "-m", "3", "-n", "1", "--theta", "dx1^dx2^dx3", "--samples", "4", "--seed", "13",
    ],
    "matrix-gauge": ["gauge", "-m", "3", "-n", "1", "--phi", "x3*dx1^dx2", "--samples", "4", "--seed", "13"],
    "matrix-nambu": ["nambu", "-m", "3", "-n", "2", "--pi", "@1^@2^@3", "--samples", "4", "--seed", "13"],
    "matrix-plectic": [
        "plectic", "-m", "3", "-n", "2", "--omega", "dx1^dx2^dx3", "--samples", "4", "--seed", "13",
    ],
    "matrix-admissible": [
        "admissible", "-m", "3", "-n", "2", "--omega", "dx1^dx2^dx3", "--samples", "4", "--seed", "13",
    ],
    # closed phi, so the report carries gauge_automorphism
    "gauge-m3n1-closed": ["gauge", "-m3", "-n1", "--phi", "dx1^dx2", "--samples", "4", "--seed", "13"],
    # failing and twisted structures
    "nambu-m4n2-fails": [
        "nambu", "-m4", "-n2", "--pi", "@1^@2^@3 + x2*@2^@3^@4", "--samples", "4", "--seed", "11",
    ],
    "plectic-m3n1-theta-matched": [
        "plectic", "-m3", "-n1", "--omega", "x1*dx2^dx3", "--theta=-dx1^dx2^dx3", "--samples", "4",
    ],
    "plectic-m3n1-theta-unmatched": [
        "plectic", "-m3", "-n1", "--omega", "x1*dx2^dx3", "--theta", "dx1^dx2^dx3", "--samples", "4",
        "--points", "3", "--seed", "5",
    ],
    # input errors (exit 2, message on stderr)
    "error-deformation-no-theta": ["deformation", "-m3", "-n1"],
    "error-gauge-no-phi": ["gauge", "-m3", "-n1"],
    "error-nambu-no-pi": ["nambu", "-m3", "-n2"],
    "error-plectic-no-omega": ["plectic", "-m3", "-n1"],
    "error-admissible-no-omega": ["admissible", "-m3", "-n1"],
    "error-admissible-not-closed": ["admissible", "-m3", "-n1", "--omega", "x1*dx2^dx3", "--samples", "4"],
    "error-grading": ["gauge", "-m3", "-n1", "--phi", "dx1 + dx1^dx2"],
}

# other commands, with their whole argv
COMMANDS = {
    # README examples
    "bracket-dorfman": ["bracket", "dorfman", "-m", "2", "-n", "1", "(@1 ; x2*dx1)", "(@2 ; 0)"],
    "bracket-courant": ["bracket", "courant", "-m", "2", "-n", "1", "(x2*@1 ; x1*dx2)", "(@2 ; x2*dx1)"],
    "bracket-deformed": [
        "bracket", "deformed", "-m", "3", "-n", "1", "--theta", "dx1^dx2^dx3", "(@1 ; 0)", "(@2 ; 0)",
    ],
    "solve-constant-omega": [
        "solve-hamiltonian", "-m", "3", "-n", "2", "--omega", "dx1^dx2^dx3", "--xi", "x3*dx2",
    ],
    "solve-not-hamiltonian": ["solve-hamiltonian", "-m3", "-n1", "--omega", "dx1^dx2", "--xi", "x1*x3"],
    "solve-with-x-accepted": [
        "solve-hamiltonian", "-m3", "-n2", "--omega", "x1*dx1^dx2^dx3", "--xi=-1/2*x1*x1*dx3",
        "--with-x", "@2",
    ],
    "solve-with-x-rejected": [
        "solve-hamiltonian", "-m3", "-n2", "--omega", "x1*dx1^dx2^dx3", "--xi=-1/2*x1*x1*dx3",
        "--with-x", "@1",
    ],
    # input errors
    "error-bracket-deformed-no-theta": ["bracket", "deformed", "-m3", "-n1", "(@1 ; 0)", "(@2 ; 0)"],
    "error-bracket-section-parse": ["bracket", "dorfman", "-m2", "-n1", "(@1 ; x2*dx1", "(@2 ; 0)"],
    "error-solve-nonconstant-no-with-x": [
        "solve-hamiltonian", "-m3", "-n2", "--omega", "x1*dx1^dx2^dx3", "--xi", "x3*dx2",
    ],
}


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _runs():
    for name, args in CASES.items():
        yield f"{name}.text", ["check", *args]
        yield f"{name}.json", ["check", *args, "--json"]
    yield from COMMANDS.items()


@pytest.mark.parametrize("name,argv", list(_runs()), ids=[name for name, _ in _runs()])
def test_golden_report(name, argv):
    expected = json.loads((GOLDEN_DIR / f"{name}.golden.json").read_text())
    assert run_main(argv) == expected


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in _runs():
        text = json.dumps(run_main(argv), indent=1) + "\n"
        (GOLDEN_DIR / f"{name}.golden.json").write_text(text)
