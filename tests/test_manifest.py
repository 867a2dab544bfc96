"""Manifest parsing, validation errors, and fixture resolution."""

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from contactgeo import manifest
from contactgeo.errors import ParseError
from contactgeo.manifest import FIXTURES, Manifest, fixture_names, load, loads, resolve
from contactgeo.scalar import DEFAULT_SAMPLES, DEFAULT_SEED, DEFAULT_TOL, parse

GOLDEN = Path(__file__).parent / "golden"


def base_data(**over):
    data = {
        "coordinates": ["x", "y", "z"],
        "frame": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "metric_frame": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "phi_frame": [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "0"]],
        "xi": 2,
    }
    data.update(over)
    return data


def parse_data(**over):
    return Manifest(base_data(**over))


def expect_error(match, **over):
    with pytest.raises(ParseError, match=match):
        parse_data(**over)


# --- happy paths -------------------------------------------------------------


def test_bundled_fixtures_all_parse():
    names = fixture_names()
    assert names == ["eta_einstein", "example1", "example2", "example3", "flat"]
    for name in names:
        m = resolve(name)
        M = m.manifold()
        assert M.dim == len(m.coordinates)


def test_defaults():
    # one set of sampling defaults, shared by the manifest, ManifoldSpec,
    # Sampler and is_zero
    assert (DEFAULT_SEED, DEFAULT_SAMPLES, DEFAULT_TOL) == (1729, 50, 1e-9)
    m = parse_data()
    assert m.name == "manifold"
    assert m.seed == DEFAULT_SEED
    assert m.samples == DEFAULT_SAMPLES
    assert m.tol == DEFAULT_TOL
    assert m.box == {}
    assert m.nonvanish == []
    assert m.constants == {}
    assert m.potential_vector is None
    assert m.potential_function is None
    assert m.potential_field() is None
    assert m.sha256 is None


def test_domain_and_constants():
    m = parse_data(
        domain=[{"coord": "x", "min": -2, "max": 2},
                {"coord": "z", "min": "1/2", "max": 1.5},
                {"coord": "y", "min": 1e-13, "max": 123456789.123},
                {"nonzero": "y"}],
        constants={"lambda_tilde": "-4", "mu": 4},
    )
    assert m.box["x"] == (Fraction(-2), Fraction(2))
    assert m.box["z"] == (Fraction(1, 2), Fraction(3, 2))
    # a JSON float is read as written, not rounded to a nearby fraction
    assert m.box["y"] == (Fraction(1, 10 ** 13), Fraction(123456789123, 1000))
    assert len(m.nonvanish) == 1
    assert m.constants == {"lambda_tilde": Fraction(-4), "mu": Fraction(4)}
    # a bound or constant is read by the expression grammar, so it may be
    # a constant expression
    m = parse_data(domain=[{"coord": "x", "min": "2^-3", "max": 1}],
                   constants={"mu": "1/2 + 1/4"})
    assert m.box["x"] == (Fraction(1, 8), Fraction(1))
    assert m.constants == {"mu": Fraction(3, 4)}


def test_vector_potential():
    m = parse_data(potential={"vector": ["y", "0", "1"]})
    V = m.potential_field()
    assert V is not None
    assert m.potential_function is None


def test_function_potential():
    m = parse_data(potential={"function": "x^2 + z"})
    assert m.potential_vector is None
    assert m.potential_field() is None
    assert m.potential_function is not None


def test_xi_component_list():
    m = parse_data(xi=["0", "0", "1"])
    M = m.manifold()
    assert [str(c) for c in M.xi_frame] == ["0", "0", "1"]


def test_manifold_overrides():
    m = parse_data(seed=5, samples=7, tol=0.5)
    M = m.manifold()
    assert (M.seed, M.samples, M.tol) == (5, 7, 0.5)
    M2 = m.manifold(seed=9, samples=11, tol=0.25)
    assert (M2.seed, M2.samples, M2.tol) == (9, 11, 0.25)


def test_sha256_tracks_source_bytes():
    text = json.dumps(base_data())
    a = loads(text)
    b = loads(text)
    assert a.sha256 == b.sha256
    c = loads(json.dumps(base_data(seed=7)))
    assert c.sha256 != a.sha256


def _manifest_files():
    """The bundled fixtures, then the manifests among the golden files (the
    others are CLI outputs)."""
    golden = [p for p in sorted(GOLDEN.glob("*.json"))
              if "coordinates" in json.loads(p.read_text())]
    return sorted(Path(FIXTURES).glob("*.json")) + golden


def test_manifest_files_are_found():
    assert [p.stem for p in _manifest_files()] == fixture_names() + [
        "kenmotsu_exp_3", "kenmotsu_exp_7", "kenmotsu_poly_3", "kenmotsu_poly_9"]


@pytest.mark.parametrize("path", _manifest_files(), ids=lambda p: p.stem)
def test_sha256_is_the_hashlib_digest(path):
    assert load(path).sha256 == hashlib.sha256(path.read_bytes()).hexdigest()


def test_load_from_file(tmp_path):
    p = tmp_path / "m.json"
    p.write_text(json.dumps(base_data(name="disk")))
    m = load(p)
    assert m.name == "disk"
    assert m.path == str(p)
    assert resolve(str(p)).name == "disk"
    # a directory is no manifest
    with pytest.raises(ParseError, match="^cannot read manifest: ") as err:
        resolve(str(tmp_path))
    assert err.value.where == str(tmp_path)


def test_name_defaults_to_file_stem(tmp_path):
    p = tmp_path / "rotor.json"
    p.write_text(json.dumps(base_data()))
    assert load(p).name == "rotor"


# --- validation errors -------------------------------------------------------


def test_missing_required_field():
    data = base_data()
    del data["phi_frame"]
    with pytest.raises(ParseError, match="missing required field 'phi_frame'"):
        Manifest(data)


def test_unknown_field_rejected():
    expect_error("unknown fields", extra=1)


def test_top_level_must_be_object():
    with pytest.raises(ParseError, match="JSON object"):
        Manifest([1, 2])


def test_bad_coordinates():
    expect_error("identifiers", coordinates=["x", "2y", "z"])
    expect_error("distinct", coordinates=["x", "x", "z"])


def test_bad_matrix_shapes():
    expect_error("expected 3 rows", frame=[["1", "0", "0"]])
    expect_error("expected 3 entries",
                 metric_frame=[["1", "0"], ["0", "1", "0"], ["0", "0", "1"]])


def test_bad_expression_reports_path():
    with pytest.raises(ParseError, match=r"frame\[0\]\[1\]"):
        parse_data(frame=[["1", "x +", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    expect_error(r"^division by zero \(column 2\) \(metric_frame\[1\]\[1\]: 'x/\(y-y\)'\)$",
                 metric_frame=[["1", "0", "0"], ["0", "x/(y-y)", "0"], ["0", "0", "1"]])


def test_boolean_entries_rejected_with_path():
    # JSON true would otherwise parse as a symbol named True
    with pytest.raises(ParseError,
                       match=r"^expected an expression string \(phi_frame\[0\]\[1\]\)$"):
        parse_data(phi_frame=[["0", True, "0"], ["-1", "0", "0"], ["0", "0", "0"]])
    expect_error(r"expected an expression string \(xi\[1\]\)", xi=["0", False, "1"])
    expect_error(r"expected an expression string \(potential\.function\)",
                 potential={"function": True})


def test_undeclared_symbols_rejected_with_path():
    with pytest.raises(ParseError,
                       match=r"^'w' is not a declared coordinate \(frame\[2\]\[0\]: 'w'\)$"):
        parse_data(frame=[["1", "0", "0"], ["0", "1", "0"], ["w", "0", "1"]])
    expect_error(r"'w' is not .*\(domain\[0\]\.nonzero: 'x\*w'\)",
                 domain=[{"nonzero": "x*w"}])
    expect_error(r"'t' is not .*\(potential\.vector\[1\]: 'exp\(2\*t\)'\)",
                 potential={"vector": ["0", "exp(2*t)", "1"]})
    expect_error(r"'True' is not .*\(xi\[0\]: 'True'\)", xi=["True", "0", "1"])
    # a name is undeclared even where it cancels
    expect_error(r"'w' is not .*metric_frame\[0\]\[0\]",
                 metric_frame=[["1 + w - w", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])


def test_numbers_and_exp_need_no_declaration():
    # a float entry is read as written: repr(1e16) is '1e+16' and repr(1e-05)
    # is '1e-05', exponents the grammar has not, which once failed to parse
    m = parse_data(potential={"function": "exp(2*x) + 1.5*y - 3"},
                   metric_frame=[[1, 0, 0], [0, 2.5, 1e16], [-0.0, 1e-05, "1"]])
    assert str(m.metric_frame[1][1]) == "5/2"
    assert m.metric_frame[1][2] is parse("10000000000000000")
    assert m.metric_frame[2][1] is parse("1/100000")
    assert m.metric_frame[2][0] is parse("0")
    assert m.potential_function is not None


def test_non_finite_float_entries_rejected_with_path():
    for bad in (float("nan"), float("inf"), float("-inf")):
        expect_error(r"^expected a finite number \(metric_frame\[1\]\[1\]\)$",
                     metric_frame=[["1", "0", "0"], ["0", bad, "0"], ["0", "0", "1"]])
        expect_error(r"^expected a finite number \(potential\.function\)$",
                     potential={"function": bad})


def test_int_entries_keep_the_digit_bound():
    # an int entry is parsed from its digits, so the parser's bound holds
    expect_error(r"^constant of more than 1000 digits \(column 1\) \(frame\[0\]\[0\]: '1",
                 frame=[[10 ** 1000, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert parse_data(frame=[[10 ** 999, 0, 0], [0, 1, 0], [0, 0, 1]]).frame[0][0] \
        is parse("1" + "0" * 999)


def test_bad_xi():
    expect_error("out of range", xi=3)
    expect_error("out of range", xi=-1)
    expect_error("frame index or component list", xi="e3")
    expect_error("frame index or component list", xi=True)
    expect_error("3 components", xi=["0", "1"])


def test_bad_domain():
    expect_error("domain must be a list", domain={"coord": "x"})
    expect_error("coord/min/max", domain=[{"coord": "x", "min": 0}])
    expect_error("unknown coordinate", domain=[{"coord": "w", "min": 0, "max": 1}])
    expect_error("empty interval", domain=[{"coord": "x", "min": 1, "max": 1}])
    expect_error("only that key", domain=[{"nonzero": "y", "coord": "x"}])
    expect_error("not a rational number",
                 domain=[{"coord": "x", "min": "lo", "max": 1}])
    # the grammar has no exponent form, and a coordinate is not a number
    expect_error(r"^unexpected 'e400000' after expression \(column 2\) "
                 r"\(domain\[0\]\.max: '1e400000'\)$",
                 domain=[{"coord": "x", "min": 0, "max": "1e400000"}])
    expect_error(r"^not a rational number: 'x' \(domain\[0\]\.min\)$",
                 domain=[{"coord": "x", "min": "x", "max": 1}])
    expect_error(r"^expected a number \(domain\[0\]\.min\)$",
                 domain=[{"coord": "x", "min": [0], "max": 1}])
    for bad in (float("inf"), float("-inf"), float("nan")):
        expect_error(r"^expected a finite number \(domain\[0\]\.min\)$",
                     domain=[{"coord": "x", "min": bad, "max": 1}])


def test_bad_potential():
    expect_error("vector.*or.*function", potential={})
    expect_error("vector.*or.*function",
                 potential={"vector": ["0"] * 3, "function": "x"})
    expect_error("3 components", potential={"vector": ["0", "0"]})


def test_bad_constants():
    expect_error("lambda_tilde and/or mu", constants={"kappa": 1})
    expect_error("expected a number", constants={"mu": True})
    expect_error("not a rational number", constants={"mu": "two"})
    expect_error(r"^constant of more than 1000 digits \(column 1\) \(constants\.mu: '1",
                 constants={"mu": 10 ** 1000})
    for bad in (float("inf"), float("nan")):
        expect_error(r"^expected a finite number \(constants\.mu\)$", constants={"mu": bad})


def test_bad_sampling_settings():
    expect_error("seed", seed=-1)
    expect_error("seed", seed=True)
    expect_error("samples", samples=0)
    expect_error("tol", tol=0)
    expect_error("tol", tol=2.0)
    expect_error("tol", tol=True)
    expect_error("tol", tol=10 ** 400)  # once an OverflowError in float()


def test_json_error_carries_position():
    with pytest.raises(ParseError) as err:
        loads('{\n  "coordinates": [,]\n}', path="m.json")
    assert "m.json:2" in str(err.value)
    with pytest.raises(ParseError, match=r"^manifest is not UTF-8: .* \(m\.json\)$"):
        loads(b'{"name": "\xff"}', path="m.json")
    # these two once escaped as a ValueError and a RecursionError; an
    # interpreter with no digit limit for int() reads the seed
    if hasattr(sys, "get_int_max_str_digits"):
        with pytest.raises(ParseError,
                           match=r"^invalid JSON: an integer of too many digits \(m\.json\)$"):
            loads('{"seed": ' + "7" * 5000 + "}", path="m.json")
    with pytest.raises(ParseError, match=r"^invalid JSON: nested too deep \(m\.json\)$"):
        loads("[" * 100000 + "]" * 100000, path="m.json")


def test_resolve_unknown_lists_fixtures():
    with pytest.raises(ParseError, match="bundled: .*example2"):
        resolve("nosuch")


def test_resolve_accepts_json_suffix():
    assert resolve("example2.json").name == manifest.resolve("example2").name
