"""The option-table command line against the earlier argparse one.

``cli.parse_args`` must give the namespace that ``ref_parser`` (the
earlier argparse parser, kept in ``canonical_ref``) gives, attribute for
attribute, on every command line the determinism sweep and the benchmark
run and on the option forms argparse accepted. A command line that
argparse rejected must be rejected too: ``main`` then exits 2 with one
``error:`` line on stderr and prints nothing on stdout. The intended
differences:

- argparse took a unique prefix of an option name (``--sam`` for
  ``--samples``); ``parse_args`` takes whole names only;
- argparse read ``--lambda-tilde``, ``--mu`` and ``--p`` with
  ``Fraction``; ``parse_args`` reads them with the expression grammar, as
  a manifest entry is read, so an exponent form (``1e-3``) is refused and
  a constant expression (``2^-3``) is taken.
"""

import os
import sys
from fractions import Fraction

import pytest

from contactgeo import cli

from canonical_ref import ref_parser
from test_acceptance import _sweep_commands

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench")


def _bench_commands(tmp_path):
    sys.path.insert(0, BENCH)
    try:
        import workloads
    finally:
        sys.path.remove(BENCH)
    return [cmd.argv + ["--seed", str(workloads.command_seed(w, 1, 0))]
            for w in workloads.WORKLOADS
            for cmd in workloads.plan(w, 1, str(tmp_path))]


def _same(argv):
    assert vars(cli.parse_args(argv)) == vars(ref_parser().parse_args(argv)), argv


def test_sweep_command_lines():
    for argv in _sweep_commands():
        _same(argv)


def test_benchmark_command_lines(tmp_path):
    commands = _bench_commands(tmp_path)
    assert {argv[0] for argv in commands} == {"check", "tables", "soliton"}
    for argv in commands:
        _same(argv)


@pytest.mark.parametrize("argv", [
    ["check", "example1", "--seed=5"],
    ["check", "--seed", "5", "--json", "--checks", "nullity", "example1"],
    ["tables", "--what", "riem", "example2"],
    ["tables", "--what=h", "example3", "--tol=1e-6"],
    ["soliton", "--verify", "example3", "--lambda-tilde", "-4", "--mu", "4", "--p", "0"],
    ["soliton", "example3", "--verify", "--lambda-tilde=-7/2", "--mu=0.25"],
    ["soliton", "example2", "--solve", "--samples", "7", "--samples", "9"],
    ["check", "flat", "--seed", "1", "--seed", "2"],
    ["check", "flat", "--checks", "kenmotsu", "--checks", "nullity"],
    ["tables", "flat", "--what", "conn", "--what", "star", "--json", "--json"],
    ["check", "-"],
], ids=["eq-form", "options-first", "what-first", "eq-what", "negative-values",
        "eq-negative-fraction", "repeated-samples", "repeated-seed",
        "repeated-checks", "repeated-what", "dash-manifest"])
def test_option_forms(argv):
    _same(argv)


def _main(capsys, argv):
    code = cli.main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.mark.parametrize("argv", [
    [],
    ["verify", "example1"],
    ["--json", "check", "example1"],
    ["check"],
    ["tables", "--what", "conn"],
    ["check", "example1", "example2"],
    ["check", "example1", "--bogus"],
    ["check", "example1", "-x"],
    ["tables", "example1", "--what", "conn", "--checks", "nullity"],
    ["check", "example1", "--what", "conn"],
    ["soliton", "example1", "--solve", "--what", "conn"],
    ["check", "example1", "--seed"],
    ["soliton", "example1", "--verify", "--mu"],
    ["check", "example1", "--seed", "x"],
    ["check", "example1", "--seed", "1.5"],
    ["check", "example1", "--samples", "ten"],
    ["check", "example1", "--tol", "small"],
    ["soliton", "example1", "--verify", "--mu", "x"],
    ["soliton", "example1", "--verify", "--lambda-tilde", "1/0"],
    ["soliton", "example1", "--verify", "--p=1.2.3"],
    ["tables", "example1"],
    ["tables", "example1", "--what", "torsion"],
    ["tables", "example1", "--what=Riem"],
    ["soliton", "example1"],
    ["soliton", "example1", "--solve", "--verify"],
    ["check", "example1", "--json=yes"],
], ids=lambda argv: " ".join(argv) or "empty")
def test_rejected_by_both(capsys, argv):
    with pytest.raises(SystemExit) as ex:
        ref_parser().parse_args(argv)
    assert ex.value.code == 2
    capsys.readouterr()
    code, out, err = _main(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv, dest, value, name", [
    (["check", "example1", "--sam", "400"], "samples", 400, "--sam"),
    (["soliton", "example1", "--verify", "--lambda", "1", "--mu", "1"],
     "lambda_tilde", 1, "--lambda"),
])
def test_abbreviations_are_the_intended_difference(capsys, argv, dest, value, name):
    # argparse took a unique prefix of an option name; the table does not
    assert getattr(ref_parser().parse_args(argv), dest) == value
    assert _main(capsys, argv) == (2, "", f"error: unknown option {name!r} for {argv[0]}\n")


def test_constants_are_read_by_the_grammar(capsys):
    # the other intended difference: an exponent form is refused, a
    # constant expression taken
    argv = ["soliton", "example3", "--verify", "--mu", "1e-3"]
    assert ref_parser().parse_args(argv).mu == Fraction(1, 1000)
    assert _main(capsys, argv) == (2, "", "error: --mu: invalid value '1e-3'\n")
    argv = ["soliton", "example3", "--solve", "--p", "2^-3"]
    with pytest.raises(SystemExit):
        ref_parser().parse_args(argv)
    capsys.readouterr()
    assert cli.parse_args(argv).p == Fraction(1, 8)


@pytest.mark.parametrize("argv, message", [
    ([], "no command given; choose from check, tables, soliton"),
    (["verify", "x"], "unknown command 'verify'; choose from check, tables, soliton"),
    (["check"], "check needs a manifest path or bundled fixture name"),
    (["check", "x", "--seed"], "--seed needs a value"),
    (["check", "x", "--seed", "x"], "--seed: invalid value 'x'"),
    (["soliton", "x", "--solve", "--p=1/0"], "--p: invalid value '1/0'"),
    (["tables", "x", "--what", "bad"],
     "--what must be one of brackets, conn, riem, ricci, star, h, not 'bad'"),
    (["tables", "x"], "tables needs --what, one of brackets, conn, riem, ricci, star, h"),
    (["soliton", "x"], "soliton needs exactly one of --solve and --verify"),
    (["check", "x", "--json=1"], "--json takes no value"),
    (["tables", "x", "--checks", "nullity"], "unknown option '--checks' for tables"),
    (["check", "x", "y"], "unexpected argument 'y'"),
    (["soliton", "x", "--solve", "--p=exp(1)"], "--p: invalid value 'exp(1)'"),
])
def test_usage_error_messages(capsys, argv, message):
    assert _main(capsys, argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["check", "example1", "-h"], ["soliton", "--help"],
])
def test_help(capsys, argv):
    assert _main(capsys, argv) == (0, cli.USAGE + "\n", "")


@pytest.mark.parametrize("argv", [["--version"], ["tables", "--version"]])
def test_version(capsys, argv):
    assert _main(capsys, argv) == (0, "contactgeo 0.1.0\n", "")
