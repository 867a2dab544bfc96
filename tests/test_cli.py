"""Command-line interface: exit codes, rendering, determinism."""

import ast
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, seed, settings, strategies as st

from contactgeo import cli
from contactgeo.cli import main
from contactgeo.scalar import parse


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# --- check -------------------------------------------------------------------


def test_check_pass(capsys):
    code, out, _ = run(capsys, "check", "example2")
    assert code == 0
    assert "summary: PASS" in out
    assert "kenmotsu: PASS" in out
    assert "almost_contact: PASS" in out
    assert "a = -4, b = 0" in out


def test_check_fail(capsys):
    code, out, _ = run(capsys, "check", "example3")
    assert code == 1
    assert "kenmotsu: FAIL" in out
    assert "almost_kenmotsu: PASS" in out
    assert "kappa = -2, mu = -2" in out
    assert "summary: FAIL (kenmotsu, eta_einstein)" in out


def test_check_subset(capsys):
    code, out, _ = run(capsys, "check", "example3",
                       "--checks", "almost_contact,almost_kenmotsu,nullity")
    assert code == 0
    assert "kenmotsu" not in out.replace("almost_kenmotsu", "")


def test_check_unknown_name(capsys):
    code, _, err = run(capsys, "check", "example2", "--checks", "bogus")
    assert code == 2
    assert "unknown check" in err


@pytest.mark.parametrize("checks", (",", "", " , ,"), ids=("comma", "empty", "blanks"))
def test_check_empty_selection_is_rejected(capsys, checks):
    # once ran no check and reported "summary: PASS" with exit 0
    code, out, err = run(capsys, "check", "flat", "--checks", checks)
    assert code == 2
    assert out == ""
    assert err == ("error: --checks selects no check; choose from almost_contact, "
                   "kenmotsu, almost_kenmotsu, nullity, eta_einstein\n")


@pytest.mark.parametrize("checks, name", (
    ("eta_einstein,eta_einstein", "eta_einstein"),
    ("nullity, almost_contact,nullity", "nullity"),
), ids=("twice", "spaced"))
def test_check_repeated_name_is_rejected(capsys, checks, name):
    # once ran the family twice and printed it twice
    code, out, err = run(capsys, "check", "flat", "--checks", checks)
    assert code == 2
    assert out == ""
    assert err == f"error: check {name!r} is selected more than once\n"


def test_check_witness_shown(capsys):
    code, out, _ = run(capsys, "check", "example1", "--checks", "almost_contact")
    assert code == 1
    assert "[BAD] metric_compatibility" in out
    assert "witness" in out


def test_check_json_payload(capsys):
    code, out, _ = run(capsys, "check", "example3", "--json",
                       "--seed", "999", "--samples", "20", "--tol", "1e-6")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["failing"] == ["kenmotsu", "eta_einstein"]
    assert payload["settings"] == {"seed": 999, "samples": 20, "tol": 1e-6}
    assert payload["manifest"]["name"] == "example3"
    assert payload["checks"]["nullity"]["data"]["kappa"] == "-2"
    assert payload["checks"]["nullity"]["data"]["spectrum"] == ["-1", "0", "1"]


# --- tables ------------------------------------------------------------------


def test_example3_is_star_ricci_flat_not_ricci_flat(capsys):
    # the paper's "Ricci flat" (kappa = -2 almost Kenmotsu case) is S* = 0:
    # example3 is locally H^2(-4) x R, whose Ricci tensor is diag(-4, 0, -4)
    code, out, _ = run(capsys, "tables", "example3", "--what", "ricci", "--json")
    assert code == 0
    assert json.loads(out)["entries"] == {
        "S(e_1,e_1)": "-4", "S(e_3,e_3)": "-4",
        "Q e_1": "-4 e_1", "Q e_3": "-4 e_3", "r": "-8",
    }
    code, out, _ = run(capsys, "tables", "example3", "--what", "star", "--json")
    assert code == 0
    assert json.loads(out)["entries"] == {"r*": "0"}


def test_tables_conn_full_grid(capsys):
    code, out, _ = run(capsys, "tables", "example2", "--what", "conn")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 26  # header + the full 5x5 grid
    assert "nabla_e1 e_1 = -e_5" in out
    assert "nabla_e1 e_5 = e_1" in out
    assert "nabla_e5 e_5 = 0" in out


def test_tables_riem(capsys):
    code, out, _ = run(capsys, "tables", "example3", "--what", "riem")
    assert code == 0
    assert "R(e_1,e_3)e_1 = 4 e_3" in out
    assert "R(e_1,e_3)e_3 = -4 e_1" in out


def test_tables_riem_flat_empty(capsys):
    code, out, _ = run(capsys, "tables", "flat", "--what", "riem")
    assert code == 0
    assert "(empty)" in out


def test_tables_ricci(capsys):
    code, out, _ = run(capsys, "tables", "example3", "--what", "ricci")
    assert code == 0
    assert "S(e_1,e_1) = -4" in out
    assert "r = -8" in out
    assert "Q e_1 = -4 e_1" in out


def test_tables_star(capsys):
    code, out, _ = run(capsys, "tables", "example2", "--what", "star")
    assert code == 0
    assert "S*(e_1,e_1) = -1" in out
    assert "r* = -4" in out


def test_tables_h(capsys):
    code, out, _ = run(capsys, "tables", "example3", "--what", "h")
    assert code == 0
    assert "h e_1 = -e_2" in out
    assert "h' e_1 = e_1" in out
    assert "h' spectrum: {-1, 0, 1}" in out


def test_tables_brackets_json(capsys):
    code, out, _ = run(capsys, "tables", "example3", "--what", "brackets",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"]["[e_1,e_3]"] == "2 e_1"


def test_tables_negative_coefficient_joins_with_minus(capsys, tmp_path):
    # a coefficient that is not a sum is printed bare, so its sign joins
    # the terms; only a sum is parenthesised
    data = {
        "coordinates": ["x", "y", "z"],
        "frame": [["1", "0", "0"], ["0", "exp(x)", "0"], ["0", "x", "1"]],
        "metric_frame": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "phi_frame": [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "0"]],
        "xi": 2,
    }
    p = tmp_path / "twist.json"
    p.write_text(json.dumps(data))
    code, out, _ = run(capsys, "tables", str(p), "--what", "conn")
    assert code == 0
    assert "nabla_e2 e_1 = -e_2 - 1/2*exp(-x) e_3\n" in out
    assert "nabla_e1 e_2 = -1/2*exp(-x) e_3\n" in out
    assert cli.frame_comb([parse("x - y"), parse("-x - y")]) == "(x - y) e_1 + (-x - y) e_2"


# --- soliton -----------------------------------------------------------------


def test_soliton_solve(capsys):
    code, out, _ = run(capsys, "soliton", "example2", "--solve")
    assert code == 0
    assert "lambda~ = 0, mu = 0 (exact)" in out
    assert "lambda = p/2 + 1/5" in out
    assert "residual max = 0" in out


def test_soliton_verify_uses_manifest_constants(capsys):
    code, out, _ = run(capsys, "soliton", "example3", "--verify")
    assert code == 1
    assert "lambda~ = -4, mu = 4" in out
    assert "residual(e_1,e_1) = -8" in out
    assert "[not a soliton]" in out


def test_soliton_classify_at_pressure(capsys):
    code, out, _ = run(capsys, "soliton", "example3", "--verify", "--p", "0")
    assert code == 1
    assert "classification at p = 0: shrinking (lambda = -11/3 at p = 0)" in out


def test_soliton_flags_override_manifest(capsys):
    code, out, _ = run(capsys, "soliton", "example3", "--verify",
                       "--lambda-tilde", "-2", "--mu", "2")
    assert code == 1
    assert "lambda~ = -2, mu = 2" in out
    assert "residual max = 4" in out


def test_a_constant_option_is_read_by_the_grammar(capsys):
    # Fraction read the exponent form and built a 10^400000 for the solve
    # to reject as a value with no finite float
    code, out, err = run(capsys, "soliton", "example3", "--verify",
                         "--lambda-tilde", "1e400000", "--mu", "4")
    assert (code, out, err) == (2, "", "error: --lambda-tilde: invalid value '1e400000'\n")


def test_soliton_verify_exact_constants_ignore_tol(capsys):
    # a constant residual of exact constants is zero or not; --tol
    # applies to residuals that vary over the sample points
    code, out, _ = run(capsys, "soliton", "example2", "--verify",
                       "--lambda-tilde", "0.0000000001", "--mu", "0",
                       "--tol", "1e-6")
    assert code == 1
    assert "residual max = 2e-10  [not a soliton]" in out


def test_soliton_no_potential(capsys):
    code, _, err = run(capsys, "soliton", "eta_einstein", "--solve")
    assert code == 2
    assert "declares no potential" in err


def test_soliton_verify_needs_constants(capsys):
    code, _, err = run(capsys, "soliton", "example2", "--verify")
    assert code == 2
    assert "verify mode needs" in err


def test_unknown_manifest(capsys):
    code, _, err = run(capsys, "check", "nosuch")
    assert code == 2
    assert "bundled:" in err


@pytest.mark.parametrize("samples", ("0", "-3"))
@pytest.mark.parametrize("argv", (
    ("check", "example1", "--checks", "almost_contact"),
    ("check", "flat", "--checks", "nullity"),
    ("soliton", "example2", "--solve"),
))
def test_samples_override_must_be_positive(capsys, argv, samples):
    # rejected up front with the manifest's own message, before any check runs
    code, out, err = run(capsys, *argv, "--samples", samples)
    assert code == 2
    assert out == ""
    assert err == "error: samples must be a positive integer (samples)\n"


@pytest.mark.parametrize("argv, flag, value, message", (
    # --tol 5 once made the identity frame of flat "degenerate"
    (("check", "flat", "--checks", "almost_contact"), "--tol", "5",
     "tol must be in (0, 1) (tol)"),
    # --tol -1 and --tol nan once failed the nullity fit on example3
    (("check", "example3", "--checks", "nullity"), "--tol", "-1",
     "tol must be in (0, 1) (tol)"),
    (("check", "example3", "--checks", "nullity"), "--tol", "nan",
     "tol must be in (0, 1) (tol)"),
    (("check", "flat", "--checks", "almost_contact"), "--seed", "-5",
     "seed must be a nonnegative integer (seed)"),
), ids=("tol-5", "tol-minus-1", "tol-nan", "seed-minus-5"))
def test_tol_and_seed_overrides_are_validated(capsys, argv, flag, value, message):
    # the same range checks and messages as the manifest fields
    code, out, err = run(capsys, *argv, flag, value)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


# --- values with no finite float ---------------------------------------------


def _flat_variant(tmp_path, edit):
    """flat's manifest, edited by ``edit``, written to a file."""
    data = json.loads((Path(cli.__file__).parent / "fixtures" / "flat.json").read_text())
    edit(data)
    p = tmp_path / "variant.json"
    p.write_text(json.dumps(data))
    return str(p)


def _set_g11(text):
    return lambda data: data["metric_frame"][0].__setitem__(0, text)


@pytest.mark.parametrize("edit, argv, reason, at", [
    # a residual holds x^1100, past the float range where |x| > 1.906
    (_set_g11("1 + x^1100"), ("--checks", "almost_contact"), "integer division result too large",
     lambda w: abs(Fraction(w["x"])) > Fraction(19, 10)),
    # det(metric_frame) overflows where 800 x > 709.78
    (_set_g11("1 + exp(800*x)"), (), "math range error",
     lambda w: Fraction(w["x"]) > Fraction(887, 1000)),
    # a constant past the float range, at every point
    (_set_g11("2^1100"), (), "int too large", lambda w: w == {}),
], ids=("power", "exp", "constant"))
def test_a_value_with_no_finite_float_is_an_error_with_a_witness(
        capsys, tmp_path, edit, argv, reason, at):
    # each once ended in an OverflowError traceback
    code, out, err = run(capsys, "check", _flat_variant(tmp_path, edit), *argv)
    assert code == 2
    assert out == ""
    m = re.fullmatch(r"error: no finite value at the point \((.*)\) \[witness: (.*)\]\n", err)
    assert m and reason in m.group(1)
    witness = ast.literal_eval(m.group(2))
    assert set(witness) <= {"x", "y", "z"} and at(witness)


def test_a_domain_constraint_that_overflows_rejects_the_candidate(capsys, tmp_path):
    # exp(800*x) overflows on part of the box: those candidates are rejected
    # as a pole is, and flat checks as it does without the constraint
    edit = lambda data: data["domain"].append({"nonzero": "exp(800*x)"})
    code, out, err = run(capsys, "check", _flat_variant(tmp_path, edit))
    assert (code, out, err) == run(capsys, "check", "flat")


@pytest.mark.parametrize("text, message", [
    ("(" * 300 + "1" + ")" * 300, "expression nested more than 100 deep (column 102)"),
    ("-" * 2000 + "1", "expression nested more than 100 deep (column 102)"),
    ("1/0", "division by zero (column 2)"),
    ("0^-1", "0 raised to a negative power (column 2)"),
    ("2^20000*y", "constant of more than 1000 digits (column 2)"),
    ("1" * 5001, "constant of more than 1000 digits (column 1)"),
    ("2^2^2^2^2^2*y", "constant of more than 1000 digits (column 4)"),
], ids=("parentheses", "signs", "divisor", "power", "big_power", "long_literal", "tower"))
def test_an_entry_the_parser_rejects_is_named_by_its_path(capsys, tmp_path, text, message):
    # the deep ones once ended in a RecursionError traceback, a zero
    # divisor was reported with no location, the big constants ended in a
    # ValueError traceback, and the tower, 2^(2^65536), did not finish
    code, out, err = run(capsys, "check", _flat_variant(tmp_path, _set_g11(text)))
    assert (code, out) == (2, "")
    assert err == f"error: {message} (metric_frame[0][0]: {text!r})\n"


@pytest.mark.parametrize("number, text", [
    (1e16, "10000000000000000"),
    (1e-05, "1/100000"),
], ids=("1e16", "1e-05"))
def test_a_float_entry_in_exponent_form_is_read_as_written(capsys, tmp_path, number, text):
    # repr writes both with an exponent, which once failed to parse with
    # "unexpected 'e' after expression"
    def outputs(entry, name):
        (tmp_path / name).mkdir()
        path = _flat_variant(tmp_path / name, _set_g11(entry))
        return [run(capsys, "tables", path, "--what", what)
                for what in ("conn", "riem", "ricci", "star", "brackets", "h")] \
            + [run(capsys, "check", path)]

    got = outputs(number, "float")
    assert got == outputs(text, "text")
    code, out, err = got[-1]
    assert (code, err) == (1, "")
    # g(phi e_1, phi e_1) - g(e_1, e_1) + eta(e_1)^2 = 1 - g_11: phi takes
    # e_1 to -e_2, and g_22 = 1
    assert f"witness compat(e_1, e_1) = {1 - parse(text)}\n" in out


@pytest.mark.parametrize("number", [float("nan"), float("inf")], ids=("nan", "inf"))
def test_a_non_finite_float_entry_is_named_by_its_path(capsys, tmp_path, number):
    # NaN once read as an undeclared coordinate 'nan'
    code, out, err = run(capsys, "tables", _flat_variant(tmp_path, _set_g11(number)),
                         "--what", "brackets")
    assert (code, out) == (2, "")
    assert err == "error: expected a finite number (metric_frame[0][0])\n"


def _leaf_paths(data, path=()):
    """The paths of the numbers and strings in JSON data."""
    if not isinstance(data, (dict, list)):
        return [path]
    items = data.items() if isinstance(data, dict) else enumerate(data)
    return [p for key, value in items for p in _leaf_paths(value, path + (key,))]


# flat with every optional number set. Its frame is constant, so ``tables``
# draws sample points only when the drawn leaf is a frame entry, and then
# 50 of them: a drawn ``samples`` count is never drawn
_BASE = {**json.loads((Path(cli.__file__).parent / "fixtures" / "flat.json").read_text()),
         "seed": 1729, "samples": 50, "tol": 1e-9, "constants": {"mu": 4}}
_LEAF = "<leaf>"
# JSON texts of bounded size: short grammar-like strings, ints of up to
# 5,000 digits, floats with NaN and the infinities, and shallow lists
_json_ints = st.builds(lambda sign, head, tail: sign + head + tail,
                       st.sampled_from(("", "-")), st.sampled_from("123456789"),
                       st.text("0123456789", max_size=4999))
_json_values = st.recursive(
    st.one_of(st.text("0123456789xyzw+-*/^(). e", max_size=12).map(json.dumps),
              _json_ints, st.floats().map(json.dumps),
              st.sampled_from(("0", "true", "null", "{}", '{"nonzero": "x"}'))),
    lambda inner: st.lists(inner, max_size=3).map(lambda xs: "[" + ", ".join(xs) + "]"),
    max_leaves=6)


@seed(1729)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=st.sampled_from(_leaf_paths(_BASE)), value=_json_values)
@example(path=("seed",), value="7" * 5000)
@example(path=("domain", 0, "min"), value="[" * 100000 + "]" * 100000)
@example(path=("tol",), value="1" + "0" * 400)
def test_a_malformed_manifest_is_one_error_line(capsys, tmp_path, path, value):
    # the examples once ended in a ValueError, a RecursionError and an
    # OverflowError traceback
    data = json.loads(json.dumps(_BASE))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = _LEAF
    p = tmp_path / "leaf.json"
    p.write_text(json.dumps(data).replace(json.dumps(_LEAF), value))
    code, out, err = run(capsys, "tables", str(p), "--what", "brackets")
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err


def test_gradient_potential_manifest(capsys, tmp_path):
    data = {
        "coordinates": ["x", "y", "z"],
        "frame": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "metric_frame": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "phi_frame": [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "0"]],
        "xi": 2,
        "potential": {"function": "x^2 + y^2 + z^2"},
    }
    p = tmp_path / "grad.json"
    p.write_text(json.dumps(data))
    code, out, _ = run(capsys, "soliton", str(p), "--verify",
                       "--lambda-tilde", "-2", "--mu", "0")
    # Hess f = 2g on a flat chart, so lambda~ = -2, mu = 0 solves exactly
    assert code == 0
    assert "(gradient form)" in out
    assert "lambda~ = -2, mu = 0 (exact)" in out


# --- determinism -------------------------------------------------------------

COMMANDS = [
    ["check", "example3", "--json"],
    ["check", "example1", "--json", "--checks", "almost_contact,nullity"],
    ["tables", "example2", "--what", "conn", "--json"],
    ["tables", "example3", "--what", "h", "--json"],
    ["soliton", "example2", "--solve", "--json"],
    ["soliton", "example3", "--verify", "--p", "0", "--json"],
]


def test_repeated_runs_identical(capsys):
    def sweep():
        chunks = []
        for argv in COMMANDS:
            main(list(argv))
            chunks.append(capsys.readouterr().out)
        return "".join(chunks)

    assert sweep() == sweep()


def test_subprocess_determinism():
    cmd = [sys.executable, "-m", "contactgeo.cli",
           "check", "example3", "--json", "--checks", "nullity,eta_einstein"]
    a = subprocess.run(cmd, capture_output=True, text=True)
    b = subprocess.run(cmd, capture_output=True, text=True)
    assert a.returncode == b.returncode == 1
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["checks"]["nullity"]["passed"] is True


# --- the entry point -----------------------------------------------------------


def _entry_point(*argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-m", "contactgeo.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_entry_point_usage_error():
    done = _entry_point("check", "example2", "--bogus")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: unknown option '--bogus' for check\n"


def test_entry_point_version():
    done = _entry_point("--version")
    assert (done.returncode, done.stdout, done.stderr) == (0, "contactgeo 0.1.0\n", "")


def test_entry_point_help_names_every_option():
    done = _entry_point("--help")
    assert done.returncode == 0 and done.stderr == ""
    names = {name for options, flags in cli.COMMANDS.values() for name in [*options, *flags]}
    for name in sorted(names) + ["-h", "--help", "--version"]:
        assert re.search(rf"(?<![\w-]){name}(?![\w-])", done.stdout), name
