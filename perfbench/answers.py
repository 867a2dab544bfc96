"""Known answers for every command the benchmark runs, and the gate.

Nothing here comes from a run of the program.

* Generated manifests: the answers follow from Kenmotsu's warped-product
  model (see ``gen.py``): every structure family passes, the nullity fit
  gives kappa = -1 with mu unconstrained, the eta-Einstein fit gives
  a = -2n, b = 0, the soliton solve gives lambda~ = 1 - c and mu = c - 1
  with residual 0, and the tables are those of constant curvature -1:
  R(X,Y)Z = g(X,Z)Y - g(Y,Z)X, nabla_X xi = X - eta(X) xi,
  S = -2n g, S* = -g + eta (x) eta, h = h' = 0.
* Bundled fixtures: the values documented in README ("Bundled fixtures",
  "Known audit findings") and the hand-written pins in
  ``tests/test_structure.py`` and ``tests/test_cli.py``. A family whose
  verdict is documented nowhere is ``None``: it is not compared, and
  the exit code is then compared only where a documented verdict
  decides it.

``compare(expected, record)`` returns the list of mismatches between one
command's known answer and what the command printed; an empty list is a
right answer.
"""

from __future__ import annotations

import json
from fractions import Fraction

NUM_TOL = 1e-9

CHECK_FAMILIES = ("almost_contact", "kenmotsu", "almost_kenmotsu",
                  "nullity", "eta_einstein")

# family -> {"passed": bool or None, optional "failing": exact list of
# failing results, "failing_include": results that must fail,
# "passing_include": results that must pass, "witness": (result, value),
# "data": {key: expected}}.  "source" says where each fixture's values
# are written down.
FIXTURES = {
    "example1": {
        "source": "README 'Known audit findings'; tests/test_structure.py "
                  "test_almost_contact_indefinite_metric, "
                  "test_kenmotsu_indefinite_metric, "
                  "test_nullity_indefinite_metric",
        "families": {
            "almost_contact": {
                "passed": False,
                "failing": ["metric_compatibility", "phi_antisymmetry"],
                "witness": ("metric_compatibility", -2.0),
            },
            "kenmotsu": {
                "passed": False,
                "failing": ["covariant_phi", "star_ricci_from_ricci"],
            },
            "almost_kenmotsu": {"passed": None},
            "nullity": {
                "passed": False,
                "failing": ["star_ricci_form"],
                "data": {"kappa": "-1", "mu_unconstrained": True},
            },
            # README: the toolkit derives S = -4 g as tensors
            "eta_einstein": {"passed": True, "data": {"a": "-4", "b": "0"}},
        },
    },
    "example2": {
        "source": "README 'Bundled fixtures' (Kenmotsu warped product); "
                  "tests/test_structure.py test_almost_contact_passes, "
                  "test_kenmotsu_fixture, test_almost_kenmotsu_holds_on_kenmotsu, "
                  "test_nullity_on_kenmotsu_mu_unconstrained, "
                  "test_eta_einstein_kenmotsu",
        "families": {
            "almost_contact": {"passed": True},
            "kenmotsu": {"passed": True},
            "almost_kenmotsu": {"passed": True},
            "nullity": {"passed": True,
                        "data": {"kappa": "-1", "mu_unconstrained": True}},
            "eta_einstein": {"passed": True,
                             "data": {"a": "-4", "b": "0", "einstein": True}},
        },
    },
    "example3": {
        "source": "README 'Bundled fixtures' (kappa = -2, mu = -2); "
                  "tests/test_structure.py test_almost_contact_passes, "
                  "test_kenmotsu_rejects_nullity_fixture, "
                  "test_almost_kenmotsu_fixture, test_nullity_fit_exact, "
                  "test_eta_einstein_not_fit_by_nullity_fixture",
        "families": {
            "almost_contact": {"passed": True},
            "kenmotsu": {"passed": False, "all_fail": True},
            "almost_kenmotsu": {"passed": True},
            "nullity": {"passed": True,
                        "data": {"kappa": "-2", "mu": "-2",
                                 "mu_unconstrained": False,
                                 "spectrum": ["-1", "0", "1"]}},
            "eta_einstein": {"passed": False, "data": {"a": "-2", "b": "-2"}},
        },
    },
    "flat": {
        "source": "README 'Bundled fixtures' (Euclidean chart, so S = 0); "
                  "tests/test_structure.py test_almost_contact_passes, "
                  "test_kenmotsu_rejects_flat, test_almost_kenmotsu_rejects_flat, "
                  "test_nullity_flat_cross_checks_fail",
        "families": {
            "almost_contact": {"passed": True},
            "kenmotsu": {"passed": False},
            "almost_kenmotsu": {
                "passed": False,
                "failing_include": ["fundamental_form_scaling",
                                    "covariant_reeb_shape"],
            },
            "nullity": {
                "passed": False,
                "passing_include": ["nullity_fit"],
                "failing_include": ["covariant_eta_shape", "h_prime_square",
                                    "ricci_operator_form",
                                    "scalar_curvature_value",
                                    "spectrum_consistency", "star_ricci_form"],
                "data": {"kappa": "0"},
            },
            # a flat chart has S = 0 = 0 g + 0 eta (x) eta
            "eta_einstein": {"passed": True, "data": {"a": "0", "b": "0"}},
        },
    },
    "eta_einstein": {
        "source": "README 'Bundled fixtures' (S = -(1/2) g + eta (x) eta); "
                  "tests/test_structure.py test_almost_contact_passes, "
                  "test_kenmotsu_rejects_heisenberg, "
                  "test_heisenberg_eta_not_closed, test_eta_einstein_heisenberg",
        "families": {
            "almost_contact": {"passed": True},
            "kenmotsu": {"passed": False},
            "almost_kenmotsu": {"passed": False,
                                "failing_include": ["eta_closed"]},
            "nullity": {"passed": None},
            "eta_einstein": {"passed": True,
                             "data": {"a": "-1/2", "b": "1",
                                      "einstein": False}},
        },
    },
}


class Expected:
    """The known answer for one command.

    kind is "check", "tables" or "soliton"; ``exit_code`` is None when no
    documented verdict decides it (it must then still be 0 or 1 and agree
    with the reported verdicts).
    """

    def __init__(self, kind, exit_code, **answer):
        self.kind = kind
        self.exit_code = exit_code
        self.answer = answer


def _exit_for(families):
    verdicts = [f["passed"] for f in families.values()]
    if any(v is False for v in verdicts):
        return 1
    if all(v is True for v in verdicts):
        return 0
    return None


def fixture_check(name, selected=CHECK_FAMILIES):
    fams = {f: FIXTURES[name]["families"][f] for f in selected}
    return Expected("check", _exit_for(fams), families=fams)


def model_check(model, selected=CHECK_FAMILIES):
    fams = {}
    for f in selected:
        fams[f] = {"passed": True}
    if "nullity" in fams:
        fams["nullity"]["data"] = {"kappa": "-1", "mu_unconstrained": True}
    if "eta_einstein" in fams:
        fams["eta_einstein"]["data"] = {"a": str(-2 * model.n), "b": "0",
                                        "einstein": True}
    return Expected("check", 0, families=fams)


def model_soliton(model):
    return Expected("soliton", 0, lambda_tilde=str(1 - model.c),
                    mu=str(model.c - 1), mu_unconstrained=False)


def _e(k):
    return f"e_{k + 1}"


def model_tables(model, what):
    """The entries ``tables --what <what> --json`` prints for a model."""
    dim, n2, s = model.dim, 2 * model.n, model.xi_slot
    out = {}
    if what == "brackets":
        # [e_i, xi] = e_i
        for i in range(dim):
            if i < s:
                out[f"[{_e(i)},{_e(s)}]"] = _e(i)
            elif i > s:
                out[f"[{_e(s)},{_e(i)}]"] = f"-{_e(i)}"
    elif what == "conn":
        # nabla_X Y = -g(X,Y) xi on horizontal X, Y; nabla_X xi = X;
        # nabla_xi = 0
        for i in range(dim):
            for j in range(dim):
                if i == s:
                    val = "0"
                elif j == s:
                    val = _e(i)
                else:
                    val = f"-{_e(s)}" if i == j else "0"
                out[f"nabla_e{i + 1} {_e(j)}"] = val
    elif what == "riem":
        # R(e_i, e_j) e_i = e_j, R(e_i, e_j) e_j = -e_i
        for i in range(dim):
            for j in range(i + 1, dim):
                out[f"R({_e(i)},{_e(j)}){_e(i)}"] = _e(j)
                out[f"R({_e(i)},{_e(j)}){_e(j)}"] = f"-{_e(i)}"
    elif what == "ricci":
        for i in range(dim):
            out[f"S({_e(i)},{_e(i)})"] = str(-n2)
            out[f"Q {_e(i)}"] = f"{-n2} {_e(i)}"
        out["r"] = str(-n2 * dim)
    elif what == "star":
        for i in range(dim):
            if i != s:
                out[f"S*({_e(i)},{_e(i)})"] = "-1"
        out["r*"] = str(-n2)
    elif what == "h":
        out["spectrum"] = ["0"] * dim
        out["spectrum_spread"] = 0.0
    else:
        raise ValueError(f"unknown table {what!r}")
    return Expected("tables", 0, entries=out)


# --- the gate ---------------------------------------------------------------


def _num(x):
    return float(Fraction(str(x)))


def _same(want, got):
    if isinstance(want, bool) or want is None or isinstance(want, list):
        return want == got
    if got is None or isinstance(got, bool):
        return False
    try:
        return abs(_num(want) - _num(got)) <= NUM_TOL * max(1.0, abs(_num(want)))
    except (ValueError, ZeroDivisionError, TypeError):
        return False


def _compare_family(name, want, got):
    bad = []
    results = {r["name"]: r for r in got["checks"]}
    failing = sorted(n for n, r in results.items() if r["verdict"] == "non_zero")
    if bool(got["passed"]) != (not failing):
        bad.append(f"{name}: passed flag disagrees with its results")
    if want["passed"] is not None and got["passed"] != want["passed"]:
        bad.append(f"{name}: passed {got['passed']}, expected {want['passed']}")
    if "failing" in want and failing != sorted(want["failing"]):
        bad.append(f"{name}: failing {failing}, expected {sorted(want['failing'])}")
    if want.get("all_fail") and len(failing) != len(results):
        bad.append(f"{name}: expected every result to fail, got {failing}")
    for r in want.get("failing_include", ()):
        if r not in failing:
            bad.append(f"{name}: {r} should fail")
    for r in want.get("passing_include", ()):
        if r not in results or r in failing:
            bad.append(f"{name}: {r} should pass")
    if "witness" in want:
        rname, value = want["witness"]
        w = results.get(rname, {}).get("witness")
        if w is None or not _same(value, w["value"]):
            bad.append(f"{name}: witness of {rname} is {w}, expected value {value}")
    for key, value in want.get("data", {}).items():
        if not _same(value, got["data"].get(key)):
            bad.append(f"{name}: {key} = {got['data'].get(key)!r}, expected {value!r}")
    return bad


def _compare_check(exp, payload):
    fams = exp.answer["families"]
    bad = []
    if sorted(payload["checks"]) != sorted(fams):
        return [f"families {sorted(payload['checks'])}, expected {sorted(fams)}"]
    for name, want in fams.items():
        bad += _compare_family(name, want, payload["checks"][name])
    failing = [n for n in fams if not payload["checks"][n]["passed"]]
    if sorted(payload["failing"]) != sorted(failing):
        bad.append(f"failing {payload['failing']} disagrees with the family verdicts")
    return bad


def _compare_tables(exp, payload):
    want, got = exp.answer["entries"], payload["entries"]
    bad = []
    for key in sorted(set(want) | set(got)):
        w, g = want.get(key), got.get(key)
        if key == "spectrum_spread":
            if g is None or abs(g) > NUM_TOL:
                bad.append(f"spectrum_spread = {g!r}, expected 0")
        elif w != g:
            bad.append(f"{key} = {g!r}, expected {w!r}")
    return bad


def _compare_soliton(exp, payload):
    sol = payload["soliton"]
    bad = []
    for key in ("lambda_tilde", "mu", "mu_unconstrained"):
        if not _same(exp.answer[key], sol[key]):
            bad.append(f"{key} = {sol[key]!r}, expected {exp.answer[key]!r}")
    if not sol["residual_max"] <= NUM_TOL:
        bad.append(f"residual_max = {sol['residual_max']!r}, expected 0")
    return bad


_COMPARE = {"check": _compare_check, "tables": _compare_tables,
            "soliton": _compare_soliton}


def compare(exp, code, stdout):
    """Mismatches between a known answer and one command's exit code and
    JSON stdout."""
    if code not in (0, 1):
        return [f"exit code {code}"]
    if exp.exit_code is not None and code != exp.exit_code:
        return [f"exit code {code}, expected {exp.exit_code}"]
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as ex:
        return [f"stdout is not JSON: {ex}"]
    try:
        bad = _COMPARE[exp.kind](exp, payload)
    except (KeyError, TypeError) as ex:
        return [f"report lacks an expected field: {ex!r}"]
    if exp.kind == "check" and code != (0 if payload.get("passed") else 1):
        bad.append(f"exit code {code} disagrees with passed={payload.get('passed')}")
    return bad
