"""End-to-end command line: exit codes, outputs, JSON determinism, replay."""

import argparse
import dataclasses
import json
import subprocess
import sys

import pytest

from hicourant import cli, plectic
from hicourant.dsl import parse_multivec, parse_scalar
from hicourant.exterior import Context, Form, ext_d, lie_multivec, wedge
from hicourant.nambu import NambuCandidate, pi_sharp
from hicourant.scalar import MAX_EXPONENT


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "hicourant.cli", *args], capture_output=True, text=True
    )


def test_bracket_dorfman_example():
    result = run_cli("bracket", "dorfman", "-m", "2", "-n", "1", "(@1 ; x2*dx1)", "(@2 ; 0)")
    assert result.returncode == 0
    assert result.stdout.strip() == "(0 ; -dx1)"


def test_bracket_courant_self_is_zero():
    result = run_cli("bracket", "courant", "-m", "2", "-n", "1", "(@1 ; x2*dx1)", "(@1 ; x2*dx1)")
    assert result.returncode == 0
    assert result.stdout.strip() == "(0 ; 0)"


def test_bracket_deformed_requires_theta():
    result = run_cli("bracket", "deformed", "-m", "3", "-n", "1", "(@1 ; 0)", "(@2 ; 0)")
    assert result.returncode == 2
    assert "--theta" in result.stderr


def test_bracket_deformed_example():
    result = run_cli(
        "bracket", "deformed", "-m", "3", "-n", "1",
        "--theta", "dx1^dx2^dx3", "(@1 ; 0)", "(@2 ; 0)",
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "(0 ; dx3)"


def test_parse_error_exit_code_and_position():
    result = run_cli("bracket", "dorfman", "-m", "2", "-n", "1", "(@1 ; x2*dx1", "(@2 ; 0)")
    assert result.returncode == 2
    assert "position" in result.stderr


def test_check_dorfman_passes():
    result = run_cli("check", "dorfman-axioms", "-m", "2", "-n", "1", "--samples", "10", "--seed", "7")
    assert result.returncode == 0
    assert "result: PASSED" in result.stdout


def test_check_nambu_normal_form():
    result = run_cli(
        "check", "nambu", "-m", "3", "-n", "2", "--pi", "@1^@2^@3", "--degree", "2", "--samples", "6"
    )
    assert result.returncode == 0


def test_check_plectic_nonclosed_fails_with_witness():
    result = run_cli(
        "check", "plectic", "-m", "3", "-n", "1", "--omega", "x1*dx2^dx3", "--samples", "6"
    )
    assert result.returncode == 1
    assert "FAIL" in result.stdout
    assert "residual" in result.stdout


def test_check_admissible_refuses_nonclosed():
    result = run_cli(
        "check", "admissible", "-m", "3", "-n", "1", "--omega", "x1*dx2^dx3", "--samples", "4"
    )
    assert result.returncode == 2
    assert "closed" in result.stderr


def test_check_missing_structure_input():
    result = run_cli("check", "nambu", "-m", "3", "-n", "2", "--samples", "4")
    assert result.returncode == 2
    assert "--pi" in result.stderr


def test_solve_hamiltonian_example():
    result = run_cli(
        "solve-hamiltonian", "-m", "3", "-n", "2", "--omega", "dx1^dx2^dx3", "--xi", "x3*dx2"
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "-@1"


def test_solve_hamiltonian_zero_differential():
    result = run_cli("solve-hamiltonian", "-m", "3", "-n", "1", "--omega", "dx1^dx2", "--xi", "5")
    assert result.returncode == 0
    assert result.stdout.strip() == "0"


def test_solve_hamiltonian_inconsistent():
    result = run_cli(
        "solve-hamiltonian", "-m", "3", "-n", "1", "--omega", "dx1^dx2", "--xi", "x1*x3"
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "not-hamiltonian"


def test_solve_hamiltonian_nonconstant_needs_candidate():
    result = run_cli(
        "solve-hamiltonian", "-m", "3", "-n", "2", "--omega", "x1*dx1^dx2^dx3", "--xi", "x3*dx2"
    )
    assert result.returncode == 2
    assert "--with-x" in result.stderr


def test_solve_hamiltonian_verify_candidate():
    result = run_cli(
        "solve-hamiltonian", "-m", "3", "-n", "2",
        "--omega", "x1*dx1^dx2^dx3", "--xi=-1/2*x1*x1*dx3", "--with-x", "@2",
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "@2"
    rejected = run_cli(
        "solve-hamiltonian", "-m", "3", "-n", "2",
        "--omega", "x1*dx1^dx2^dx3", "--xi=-1/2*x1*x1*dx3", "--with-x", "@1",
    )
    assert rejected.returncode == 1
    assert rejected.stdout.strip() == "candidate-rejected"


SUITE_MATRIX = [
    ("courant-axioms", "-m", "2", "-n", "1", "--samples", "6"),
    ("dorfman-axioms", "-m", "2", "-n", "1", "--samples", "6"),
    ("deformation", "-m", "3", "-n", "1", "--theta", "dx1^dx2^dx3", "--samples", "4"),
    ("gauge", "-m", "3", "-n", "1", "--phi", "x3*dx1^dx2", "--samples", "4"),
    ("nambu", "-m", "3", "-n", "2", "--pi", "@1^@2^@3", "--samples", "4"),
    ("plectic", "-m", "3", "-n", "2", "--omega", "dx1^dx2^dx3", "--samples", "4"),
    ("admissible", "-m", "3", "-n", "2", "--omega", "dx1^dx2^dx3", "--samples", "4"),
]


def test_json_reports_are_byte_identical_across_runs():
    for row in SUITE_MATRIX:
        args = ["check", row[0], *row[1:], "--seed", "13", "--json"]
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout, row[0]
        report = json.loads(first.stdout)
        assert report["suite"] == row[0]
        assert report["seed"] == 13
        assert report["passed"] is True
        assert {"suite", "m", "n", "seed", "params", "quantifier_scope", "checks", "passed"} <= set(
            report
        )
        for check in report["checks"]:
            assert {"name", "identity", "cases", "failures", "passed"} <= set(check)


def test_json_failure_witness_replays():
    result = run_cli(
        "check", "nambu", "-m", "4", "-n", "2",
        "--pi", "@1^@2^@3 + x2*@2^@3^@4", "--samples", "4", "--seed", "11", "--json",
    )
    assert result.returncode == 1
    report = json.loads(result.stdout)
    fundamental = next(c for c in report["checks"] if c["name"] == "fundamental_identity")
    witness = fundamental["failures"][0]

    ctx = Context(4, 2)
    candidate = NambuCandidate(ctx, parse_multivec("@1^@2^@3 + x2*@2^@3^@4", ctx, 3))
    omega = None
    for text in witness["inputs"]:
        df = ext_d(Form(4, 0, {(): parse_scalar(text, ctx)}))
        omega = df if omega is None else wedge(omega, df)
    residual = lie_multivec(pi_sharp(candidate, omega), candidate.pi)
    assert str(residual) == witness["residual"]
    assert not residual.is_zero


def test_samples_below_one_rejected_for_every_target():
    for target, *flags in [
        ("gauge", "--phi", "x3*dx1^dx2"),
        ("admissible", "--omega", "dx1^dx2^dx3"),
    ]:
        for samples in ("0", "-5"):
            result = run_cli("check", target, "-m", "3", "-n", "1", *flags, f"--samples={samples}")
            assert result.returncode == 2, (target, samples)
            assert result.stdout == ""
            assert "samples must be at least 1" in result.stderr


def test_nambu_degree_bound_reaches_the_algebroid_guard():
    result = run_cli(
        "check", "nambu", "-m", "5", "-n", "2", "--pi", "@1^@2^@3 + @3^@4^@5",
        "--degree", "1", "--samples", "2", "--json",
    )
    assert result.returncode == 1, result.stderr
    checks = {check["name"]: check for check in json.loads(result.stdout)["checks"]}
    assert checks["fundamental_identity"]["passed"]
    assert not checks["graph_closure_dorfman"]["passed"]
    assert not checks["closure_iff_fundamental"]["passed"]
    assert "form_bracket_leibniz" in checks


def test_deep_or_long_dsl_input_never_raises_a_traceback():
    inputs = [
        "+".join(["x1*@1"] * 1200),
        "(" * 3000 + "@1" + ")" * 3000,
        "-" * 3000 + "@1",
    ]
    for text in inputs:
        result = run_cli("bracket", "dorfman", "-m", "2", "-n", "1", f"({text} ; 0)", "(@2 ; 0)")
        assert "Traceback" not in result.stderr
        assert result.returncode in (0, 2)
        if result.returncode == 2:
            assert result.stderr.startswith("error: at position ")


def test_non_ascii_digits_are_positioned_lex_errors(capsys):
    # str.isdigit accepts these, and int() rejects '²' or reads '١' as 1
    for section in ("(@1 ; x²*dx1)", "(@1 ; ١*dx1)", "(@1 ; dx١)"):
        assert cli.main(["bracket", "dorfman", "-m2", "-n1", section, "(@2 ; 0)"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: at position 6: ")


USER_INPUT_ERRORS = {
    "m-zero-check": (
        ["check", "dorfman-axioms", "-m0", "-n1"], "chart dimension m must be positive"
    ),
    "m-negative-bracket": (
        ["bracket", "dorfman", "-m-1", "-n1", "(@1 ; 0)", "(@1 ; 0)"],
        "chart dimension m must be positive",
    ),
    "n-above-m-bracket": (
        ["bracket", "dorfman", "-m3", "-n4", "(@1 ; 0)", "(@1 ; 0)"],
        "bracket order n=4 must satisfy 1 <= n <= m=3",
    ),
    "n-zero-check": (
        ["check", "nambu", "-m3", "-n0", "--pi", "0"], "bracket order n=0 must satisfy 1 <= n <= m=3"
    ),
    "n-zero-solve": (
        ["solve-hamiltonian", "-m2", "-n0", "--omega", "0", "--xi", "0"],
        "bracket order n=0 must satisfy 1 <= n <= m=2",
    ),
    "points-zero": (
        ["check", "plectic", "-m3", "-n1", "--omega", "x1*dx2^dx3", "--points", "0"],
        "at least one evaluation point is required",
    ),
    "points-negative-constant-omega": (
        ["check", "plectic", "-m3", "-n1", "--omega", "dx1^dx2", "--points", "-3"],
        "at least one evaluation point is required",
    ),
    "degree-zero": (
        ["check", "nambu", "-m3", "-n2", "--pi", "@1^@2^@3", "--degree", "0"],
        "max_degree must be at least 1",
    ),
    # 33,000 factors of x1: the 32,767th "*" crosses the bound
    "exponent-bound-parse": (
        ["bracket", "dorfman", "-m2", "-n1", "(@1 ; 0)", "(0 ; " + "*".join(["x1"] * 33000) + "*dx2)"],
        f"at position {5 + 3 * MAX_EXPONENT - 1}: exponent of a variable exceeds the bound {MAX_EXPONENT}",
    ),
    # operands at the bound parse; the Lie derivative x1^3 * d/dx1 (x1^32766) crosses it
    "exponent-bound-bracket": (
        [
            "bracket", "dorfman", "-m2", "-n1", "(x1*x1*x1*@1 ; 0)",
            "(0 ; " + "*".join(["x1"] * (MAX_EXPONENT - 1)) + "*dx2)",
        ],
        f"exponent of a variable exceeds the bound {MAX_EXPONENT}",
    ),
    "degree-negative": (
        ["check", "nambu", "-m3", "-n2", "--pi", "@1^@2^@3", "--degree", "-1", "--samples", "1"],
        "max_degree must be at least 1",
    ),
    # i_X omega of x1^2 * d/dx2 and an omega at x1^32766 crosses the bound: bad input, not a
    # rejected candidate
    "exponent-bound-with-x": (
        [
            "solve-hamiltonian", "-m2", "-n1", "--xi", "0", "--with-x", "x1*x1*@2",
            "--omega", "*".join(["x1"] * (MAX_EXPONENT - 1)) + "*dx1^dx2",
        ],
        f"exponent of a variable exceeds the bound {MAX_EXPONENT}",
    ),
    # a structure flag the bracket does not read, whatever it holds
    "bracket-courant-theta": (
        ["bracket", "courant", "-m3", "-n1", "--theta", "garbage((", "(@1 ; 0)", "(@2 ; 0)"],
        "--theta is not read by kind=courant",
    ),
    "bracket-dorfman-theta": (
        ["bracket", "dorfman", "-m3", "-n1", "--theta", "dx1^dx2^dx3", "(@1 ; 0)", "(@2 ; 0)"],
        "--theta is not read by kind=dorfman",
    ),
    "bracket-dorfman-theta-empty": (
        ["bracket", "dorfman", "-m3", "-n1", "--theta=", "(@1 ; 0)", "(@2 ; 0)"],
        "--theta is not read by kind=dorfman",
    ),
    # an empty optional structure flag is given, so it is parsed
    "plectic-theta-empty": (
        ["check", "plectic", "-m3", "-n1", "--omega", "dx1^dx2", "--theta="],
        "at position 0: expected a value, found 'end of input'",
    ),
}


@pytest.mark.parametrize("argv,message", USER_INPUT_ERRORS.values(), ids=USER_INPUT_ERRORS)
def test_user_input_errors_exit_2_with_their_message(argv, message, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_value_error_inside_a_suite_is_not_reported_as_bad_input(monkeypatch, capsys):
    def broken_suite(ctx, args):
        raise ValueError("internal fault")

    monkeypatch.setitem(cli.CHECK_TARGETS, "dorfman-axioms", cli.CheckTarget(broken_suite))
    with pytest.raises(ValueError, match="internal fault"):
        cli.main(["check", "dorfman-axioms", "-m2", "-n1"])
    assert capsys.readouterr().err == ""


UNREAD_STRUCTURE_FLAGS = {
    "dorfman-axioms-omega": (["dorfman-axioms", "-m2", "-n1", "--omega", "garbage(("], "omega"),
    "courant-axioms-theta": (["courant-axioms", "-m2", "-n1", "--theta", "dx1^dx2^dx3"], "theta"),
    "deformation-phi": (
        ["deformation", "-m3", "-n1", "--theta", "dx1^dx2^dx3", "--phi", "dx1^dx2"], "phi"
    ),
    "gauge-pi": (["gauge", "-m3", "-n1", "--phi", "dx1^dx2", "--pi", "@1^@2"], "pi"),
    "nambu-omega": (["nambu", "-m3", "-n2", "--pi", "@1^@2^@3", "--omega", "dx1^dx2^dx3"], "omega"),
    "admissible-theta": (
        ["admissible", "-m3", "-n1", "--omega", "dx1^dx2", "--theta", "dx1^dx2^dx3"], "theta"
    ),
    "plectic-phi-empty": (["plectic", "-m3", "-n1", "--omega", "dx1^dx2", "--phi="], "phi"),
}


@pytest.mark.parametrize("argv,flag", UNREAD_STRUCTURE_FLAGS.values(), ids=UNREAD_STRUCTURE_FLAGS)
def test_structure_flag_the_target_does_not_read_exits_2(argv, flag, monkeypatch, capsys):
    def no_suite(ctx, args, **tensors):
        raise AssertionError("a suite ran")

    target = argv[0]
    monkeypatch.setitem(
        cli.CHECK_TARGETS, target, dataclasses.replace(cli.CHECK_TARGETS[target], suite=no_suite)
    )
    assert cli.main(["check", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --{flag} is not read by target={target}\n"


def test_bad_plectic_theta_exits_2_before_any_suite_function_runs(monkeypatch, capsys):
    def no_call(*args, **kwargs):
        raise AssertionError("a suite function ran")

    for name in ("nondegeneracy_check", "graph_closure_omega", "deformed_graph_check"):
        monkeypatch.setattr(plectic, name, no_call)
    argv = ["check", "plectic", "-m4", "-n1", "--omega", "dx1^dx2+dx3^dx4", "--theta", "dx1^(("]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: at position ")


# options of the subcommands that do not hold a structure tensor
NON_STRUCTURE_OPTIONS = {
    "help", "dim", "order", "kind", "e1", "e2", "target", "seed", "samples", "degree", "points",
    "json", "xi", "with_x",
}


def test_every_structure_option_is_in_the_structure_table():
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command, subparser in commands.choices.items():
        for action in subparser._actions:
            assert action.dest in NON_STRUCTURE_OPTIONS or action.dest in cli.STRUCTURES, (
                command, action.dest
            )
    for target, spec in cli.CHECK_TARGETS.items():
        assert set(spec.flags) <= set(cli.STRUCTURES), target
