"""End-to-end command line: exit codes, outputs, JSON determinism, replay."""

import argparse
import dataclasses
import io
import json
import os
import subprocess
import sys

import pytest

from hicourant import cli, courant, nambu, plectic
from hicourant.dsl import parse, parse_form, parse_multivec, parse_scalar, parse_section
from hicourant.exterior import Context, Form, MultiVec, ext_d, lie_multivec, wedge
from hicourant.nambu import NambuCandidate, pi_sharp
from hicourant.scalar import MAX_EXPONENT, ChartMismatchError, InputError


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
        "check", "nambu", "-m", "3", "-n", "2", "--pi", "@1^@2^@3", "--samples", "6"
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


# flags each check target accepts at m = 3, n = 1
VALID_TARGET_FLAGS = {
    "courant-axioms": [],
    "dorfman-axioms": [],
    "deformation": ["--theta", "dx1^dx2^dx3"],
    "gauge": ["--phi", "x3*dx1^dx2"],
    "nambu": ["--pi", "@1^@2"],
    "plectic": ["--omega", "dx1^dx2", "--theta", "x1*dx1^dx2^dx3"],
    "admissible": ["--omega", "dx1^dx2"],
}


def test_samples_below_one_rejected_for_every_target(capsys):
    assert set(VALID_TARGET_FLAGS) == set(cli.CHECK_TARGETS)
    for target, flags in VALID_TARGET_FLAGS.items():
        # the flags are valid, so the refusal below is the suite's own samples check
        assert cli.main(["check", target, "-m3", "-n1", *flags, "--samples=1"]) in (0, 1), target
        assert capsys.readouterr().err == ""
        for samples in ("0", "-5"):
            result = run_cli("check", target, "-m", "3", "-n", "1", *flags, f"--samples={samples}")
            assert result.returncode == 2, (target, samples)
            assert result.stdout == ""
            assert "samples must be at least 1" in result.stderr


@pytest.mark.parametrize("option", ["--degree=1", "--points=3"])
def test_removed_size_options_are_usage_errors(option, capsys):
    assert cli.main(["check", "nambu", "-m3", "-n2", "--pi", "@1^@2^@3", option]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unrecognized arguments: {option}\n"


def test_help_still_exits_0(capsys):
    for argv in (["--help"], ["check", "--help"]):
        with pytest.raises(SystemExit) as help_exit:
            cli.main(argv)
        assert help_exit.value.code == 0
        assert capsys.readouterr().out.startswith("usage: hicourant")


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


# Python's limit on the digits of an int read from a string (3.11 and later); 0 where it has none
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
OVER_INT_LIMIT = INT_DIGITS + 1
# a literal of 2L/3 digits, under the limit L, whose square is over it
WIDE = "1" + "0" * (2 * INT_DIGITS // 3 - 1)

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
    "samples-zero": (
        ["check", "gauge", "-m3", "-n1", "--phi", "x3*dx1^dx2", "--samples=0"],
        "samples must be at least 1",
    ),
    # argparse's own refusals
    "unknown-option": (
        ["check", "dorfman-axioms", "-m2", "-n1", "--quick"], "unrecognized arguments: --quick"
    ),
    "m-not-an-int": (
        ["check", "dorfman-axioms", "-m", "x", "-n1"], "argument --dim/-m: invalid int value: 'x'"
    ),
    "missing-target": (["check", "-m3", "-n1"], "the following arguments are required: target"),
    "unknown-command": (
        ["frobnicate"],
        "argument command: invalid choice: 'frobnicate' "
        "(choose from 'bracket', 'check', 'solve-hamiltonian')",
    ),
    "admissible-not-closed": (
        ["check", "admissible", "-m3", "-n1", "--omega", "x1*dx2^dx3", "--samples", "4"],
        "omega is not closed; the admissible bracket needs d omega = 0",
    ),
    # a unique prefix of an option is not read as the option
    "option-prefix": (
        ["check", "dorfman-axioms", "-m2", "-n1", "--sample=3"], "unrecognized arguments: --sample=3"
    ),
    "structure-flag-prefix": (
        ["check", "deformation", "-m3", "-n1", "--the", "x1*dx1^dx2^dx3"],
        "unrecognized arguments: --the x1*dx1^dx2^dx3",
    ),
    # a number one digit over Python's int-string limit is refused at its token
    "numerator-over-int-limit": (
        ["bracket", "dorfman", "-m2", "-n1", "(@1 ; 0)", f"(0 ; {'7' * OVER_INT_LIMIT}*dx1)"],
        f"at position 5: {OVER_INT_LIMIT} digits exceed Python's int-string limit",
    ),
    "denominator-over-int-limit": (
        ["bracket", "dorfman", "-m2", "-n1", "(@1 ; 0)", f"(0 ; 1/{'7' * OVER_INT_LIMIT}*dx1)"],
        f"at position 5: {OVER_INT_LIMIT} digits exceed Python's int-string limit",
    ),
    "index-over-int-limit": (
        ["bracket", "dorfman", "-m2", "-n1", "(@1 ; 0)", f"(0 ; x{'1' * OVER_INT_LIMIT}*dx1)"],
        f"at position 5: {OVER_INT_LIMIT} digits exceed Python's int-string limit",
    ),
    "bracket-coefficient-over-int-limit": (
        ["bracket", "dorfman", "-m2", "-n1", "(@1 ; 0)", f"(0 ; {WIDE}*{WIDE}*x1*dx1)"],
        "a coefficient has more digits than Python's int-string limit",
    ),
    "witness-coefficient-over-int-limit": (
        ["check", "deformation", "-m4", "-n1", "--theta", f"{WIDE}*{WIDE}*x4*dx1^dx2^dx3", "--samples", "1"],
        "a coefficient has more digits than Python's int-string limit",
    ),
}


def user_input_cases():
    """USER_INPUT_ERRORS as parameters; the int-limit cases skip where Python has no such limit."""
    skip = pytest.mark.skipif(not INT_DIGITS, reason="no int-string limit")
    return [
        pytest.param(*case, id=name, marks=skip if name.endswith("-over-int-limit") else ())
        for name, case in USER_INPUT_ERRORS.items()
    ]


@pytest.mark.parametrize("argv,message", user_input_cases())
def test_user_input_errors_exit_2_with_their_message(argv, message, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_value_error_inside_a_suite_is_not_reported_as_bad_input(monkeypatch, capsys):
    for error in (ValueError, ChartMismatchError):
        def broken_suite(ctx, args):
            raise error("internal fault")

        monkeypatch.setitem(cli.CHECK_TARGETS, "dorfman-axioms", cli.CheckTarget(broken_suite))
        with pytest.raises(error, match="internal fault"):
            cli.main(["check", "dorfman-axioms", "-m2", "-n1"])
        assert capsys.readouterr().err == ""


def test_the_argument_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_a_refusal_mid_parse_leaves_the_parser_as_built(capsys):
    valid = ["bracket", "dorfman", "-m2", "-n1", "(@1 ; x2*dx1)", "(@2 ; 0)"]
    cli._build_parser.cache_clear()
    alone = cli.main(valid), capsys.readouterr()
    refusals = (
        ["bracket", "dorfman", "-m", "x", "-n1", "(@1 ; 0)", "(@2 ; 0)"],
        ["check", "dorfman-axioms", "-m2", "-n1", "--samples"],
        ["check", "-m3", "-n1"],
        ["bracket", "dorfman", "-m2", "-n1", "--thet", "dx1", "(@1 ; 0)"],
    )
    for refused in refusals:
        assert cli.main(refused) == 2
        capsys.readouterr()
        assert (cli.main(valid), capsys.readouterr()) == alone
    assert alone[0] == 0 and alone[1].out == "(0 ; -dx1)\n"


def test_a_check_target_added_after_the_parser_is_built_is_reached(monkeypatch, capsys):
    cli._build_parser()
    calls = []

    def probe(ctx, args):
        calls.append((ctx.m, ctx.n, args.samples))
        return []

    monkeypatch.setitem(cli.CHECK_TARGETS, "probe", cli.CheckTarget(probe))
    assert cli.main(["check", "probe", "-m2", "-n1", "--samples", "3"]) == 0
    assert calls == [(2, 1, 3)]
    assert "suite: probe (m=2, n=1)" in capsys.readouterr().out


C21, C31, C32 = Context(2, 1), Context(3, 1), Context(3, 2)

# each library refusal, made on the input of the USER_INPUT_ERRORS case it backs
LIBRARY_REFUSALS = {
    "m-zero-check": lambda: Context(0, 1),
    "n-above-m-bracket": lambda: Context(3, 4),
    "samples-zero": lambda: courant.cases(0, 0, lambda rng: ()),
    "admissible-not-closed": lambda: plectic.check_admissible_lie_algebroid(
        plectic.PlecticCandidate(C31, parse_form("x1*dx2^dx3", C31, 2)), 0, 4
    ),
    "exponent-bound-bracket": lambda: courant.dorfman_bracket(
        *(parse_section(text, C21) for text in USER_INPUT_ERRORS["exponent-bound-bracket"][0][-2:])
    ),
    "plectic-theta-empty": lambda: parse("", C31, ("form", 3)),
}


@pytest.mark.parametrize("case", LIBRARY_REFUSALS)
def test_library_refusal_is_an_input_error_with_the_cli_message(case):
    with pytest.raises(InputError) as refusal:
        LIBRARY_REFUSALS[case]()
    assert str(refusal.value) == USER_INPUT_ERRORS[case][1]


def _degree_refusals():
    """Each library degree check, fed a tensor of the wrong degree, with its message."""
    omega = plectic.PlecticCandidate(C31, Form.basis(3, (1, 2)))
    pi = NambuCandidate(C32, MultiVec.basis(3, (1, 2, 3)))
    e = courant.Section.zero(C31)
    forms = {k: Form.zero(3, k) for k in range(4)}
    return {
        "PlecticCandidate": (
            lambda: plectic.PlecticCandidate(C31, forms[1]), "structure form must have degree n+1=2, got 1"
        ),
        "NambuCandidate": (
            lambda: NambuCandidate(C32, MultiVec.basis(3, (1, 2))), "tensor must have degree n+1=3, got 2"
        ),
        "Section-vec": (
            lambda: courant.Section(C31, MultiVec.zero(3, 2), forms[1]), "vector part must have degree 1"
        ),
        "Section-form": (
            lambda: courant.Section(C31, MultiVec.zero(3, 1), forms[2]), "form part must have degree n=1, got 2"
        ),
        "solve_admissible": (
            lambda: plectic.solve_admissible(omega, forms[2]), "form must have degree n=1, got 2"
        ),
        "solve_hamiltonian": (
            lambda: plectic.solve_hamiltonian(omega, forms[1]), "form must have degree n-1=0, got 1"
        ),
        "check_plectic": (
            lambda: plectic.check_plectic(omega, theta=forms[2]),
            "deformation form must have degree n+2=3, got 2",
        ),
        "pi_sharp": (lambda: pi_sharp(pi, forms[1]), "form must have degree n=2, got 1"),
        "nambu_form_bracket": (
            lambda: nambu.nambu_form_bracket(pi, forms[1], forms[2]), "form must have degree n=2, got 1"
        ),
        "marrero_bracket": (
            lambda: nambu.marrero_bracket(pi, forms[2], forms[1]), "both forms must have degree n=2, got 1"
        ),
        "leibniz_nm1_bracket": (
            lambda: nambu.leibniz_nm1_bracket(pi, forms[2], forms[1]), "both forms must have degree n-1=1, got 2"
        ),
        "deformed_dorfman": (
            lambda: courant.deformed_dorfman(e, e, forms[2]), "deformation form must have degree n+2=3, got 2"
        ),
        "gauge": (lambda: courant.gauge(forms[1], e), "gauge form must have degree n+1=2, got 1"),
        "check_deformation": (
            lambda: courant.check_deformation(C31, forms[2]), "deformation form must have degree n+2=3, got 2"
        ),
        "check_gauge_isomorphism": (
            lambda: courant.check_gauge_isomorphism(C31, forms[1]), "gauge form must have degree n+1=2, got 1"
        ),
    }


@pytest.mark.parametrize("case", sorted(_degree_refusals()))
def test_library_degree_refusal_is_an_input_error(case):
    refuse, message = _degree_refusals()[case]
    with pytest.raises(ValueError) as refusal:
        refuse()
    assert isinstance(refusal.value, InputError)
    assert str(refusal.value) == message


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

    for name in ("check_plectic", "nondegeneracy_check"):
        monkeypatch.setattr(plectic, name, no_call)
    argv = ["check", "plectic", "-m4", "-n1", "--omega", "dx1^dx2+dx3^dx4", "--theta", "dx1^(("]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: at position ")


# options of the subcommands that do not hold a structure tensor
NON_STRUCTURE_OPTIONS = {
    "help", "dim", "order", "kind", "e1", "e2", "target", "seed", "samples", "json", "xi", "with_x",
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
    for kind, (flags, _bracket) in cli.BRACKETS.items():
        assert set(flags) <= set(cli.STRUCTURES), kind


# one command of each kind, run with its stdout the write end of a pipe whose read end is closed
CLOSED_STDOUT_COMMANDS = {
    "check": ["check", "dorfman-axioms", "-m2", "-n1", "--samples", "2", "--json"],
    "bracket": ["bracket", "dorfman", "-m2", "-n1", "(@1 ; x2*dx1)", "(@2 ; 0)"],
    "help": ["--help"],
}


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", CLOSED_STDOUT_COMMANDS.values(), ids=CLOSED_STDOUT_COMMANDS)
def test_a_closed_stdout_exits_141_with_nothing_on_stderr(argv, buffered):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "hicourant.cli", *argv], stdout=write_end, stderr=subprocess.PIPE, env=env
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (141, b"")


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises, as a pipe's does after its read end closes."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("argv", CLOSED_STDOUT_COMMANDS.values(), ids=CLOSED_STDOUT_COMMANDS)
def test_a_broken_pipe_returns_141_and_points_stdout_at_devnull(argv, monkeypatch, tmp_path):
    with open(tmp_path / "stdout", "w") as target:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(target.fileno()))
        assert cli.main(argv) == 141
        assert os.path.samestat(os.fstat(target.fileno()), os.stat(os.devnull))
