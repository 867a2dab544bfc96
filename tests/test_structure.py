"""Structure-detection checks against the bundled fixtures.

The expected pass/fail sets below were verified independently by direct
computation of each tensor identity on the fixture frames.
"""

import copy
import json
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from contactgeo.cli import CHECK_NAMES
from contactgeo.curvature import CurvatureTable, StructureTensors, koszul
from contactgeo.errors import DegenerateSystem
from contactgeo.scalar import PROVED_ZERO, Rat, parse
from contactgeo.structure import (
    check_almost_contact, check_almost_kenmotsu, check_kenmotsu, solve_eta_einstein, solve_nullity,
)

from manifolds import twisted, warped


SEEDS = (1729, 7, 101)


def failing(report):
    return sorted(r.name for r in report.results if not r.passed)


# --- almost contact axioms ---------------------------------------------------


def test_almost_contact_passes(ex2, ex3, flat, heis):
    for b in (ex2, ex3, flat, heis):
        rep = check_almost_contact(b.M)
        assert rep.passed, failing(rep)


def test_almost_contact_indefinite_metric(ex1):
    # phi maps the +/- parts of the metric into each other, so the
    # compatibility axiom fails; the witness records the -2 defect. The
    # worst residual is that of the worst frame component, whatever the seed.
    for seed in SEEDS:
        rep = check_almost_contact(ex1.manifest.manifold(seed=seed))
        assert failing(rep) == ["metric_compatibility", "phi_antisymmetry"]
        bad = rep.result("metric_compatibility")
        assert bad.witness is not None
        label, _, value = bad.witness
        assert value == pytest.approx(-2.0)
        assert bad.max_abs == 2.0, seed


# --- Kenmotsu identities -----------------------------------------------------


def test_kenmotsu_fixture(ex2):
    rep = check_kenmotsu(ex2.M, ex2.conn, ex2.table)
    assert rep.passed, failing(rep)
    names = [r.name for r in rep.results]
    assert names == [
        "covariant_phi", "covariant_reeb", "covariant_eta", "curvature_reeb",
        "ricci_reeb", "reeb_metric_flow", "ricci_operator_reeb_derivative",
        "ricci_operator_reeb_flow", "star_ricci_from_ricci",
    ]


def test_kenmotsu_rejects_nullity_fixture(ex3):
    rep = check_kenmotsu(ex3.M, ex3.conn, ex3.table)
    assert not rep.passed
    assert all(not r.passed for r in rep.results)


def test_kenmotsu_indefinite_metric(ex1):
    # everything built from nabla xi still holds; only the identities
    # routed through phi-compatibility of the metric break. The frame, the
    # connection and the curvature do not depend on the seed.
    for seed in SEEDS:
        M = ex1.manifest.manifold(seed=seed)
        rep = check_kenmotsu(M, ex1.conn, ex1.table)
        assert failing(rep) == ["covariant_phi", "star_ricci_from_ricci"]
        assert rep.result("covariant_phi").max_abs == 2.0, seed


def test_kenmotsu_rejects_flat(flat):
    rep = check_kenmotsu(flat.M, flat.conn, flat.table)
    assert not rep.passed


def test_kenmotsu_rejects_heisenberg(heis):
    rep = check_kenmotsu(heis.M, heis.conn, heis.table)
    assert not rep.passed


# --- almost Kenmotsu ---------------------------------------------------------


def test_almost_kenmotsu_fixture(ex3):
    rep = check_almost_kenmotsu(ex3.M, ex3.conn, ex3.table, ex3.tensors)
    assert rep.passed, failing(rep)


def test_almost_kenmotsu_holds_on_kenmotsu(ex2):
    # Kenmotsu is the h = 0 special case
    rep = check_almost_kenmotsu(ex2.M, ex2.conn, ex2.table, ex2.tensors)
    assert rep.passed, failing(rep)


def test_almost_kenmotsu_rejects_flat(flat):
    rep = check_almost_kenmotsu(flat.M, flat.conn, flat.table, flat.tensors)
    bad = failing(rep)
    assert "fundamental_form_scaling" in bad
    assert "covariant_reeb_shape" in bad


def test_heisenberg_eta_not_closed(heis):
    rep = check_almost_kenmotsu(heis.M, heis.conn, heis.table, heis.tensors)
    assert not rep.result("eta_closed").passed


# --- nullity fit -------------------------------------------------------------


def test_nullity_fit_exact(ex3):
    rep = solve_nullity(ex3.M, ex3.conn, ex3.table, ex3.tensors)
    assert rep.passed, failing(rep)
    assert rep.data["kappa"] == "-2"
    assert rep.data["mu"] == "-2"
    assert rep.data["exact"]
    assert not rep.data["mu_unconstrained"]
    assert rep.data["spectrum"] == ["-1", "0", "1"]
    assert rep.data["spectrum_spread"] == 0.0
    # an exact fit and an exact spectrum are settled exactly
    assert rep.result("nullity_fit").kind == "proved_zero"
    assert rep.result("spectrum_consistency").kind == "proved_zero"


def test_spectrum_consistency_of_a_sampled_spectrum(ex3):
    # h'(e_3) = x e_1 keeps the spectrum {-1, 0, 1} at every point, and
    # the fit never reads h'(xi), so kappa stays exactly -2; the numpy
    # fallback returns the eigenvalues as ints, but they were sampled
    tensors = copy.copy(ex3.tensors)
    hp = ex3.tensors.h_prime
    tensors.h_prime = [hp[0], hp[1], [parse("x"), hp[2][1], hp[2][2]]]
    assert not tensors.spectrum()[2]
    rep = solve_nullity(ex3.M, ex3.conn, ex3.table, tensors)
    assert rep.data["kappa"] == "-2" and rep.data["exact"]
    assert rep.data["spectrum"] == ["-1", "0", "1"]
    assert rep.result("spectrum_consistency").kind == "numerically_zero"


def test_nullity_on_kenmotsu_mu_unconstrained(ex2):
    # h' = 0 makes the mu column vanish identically; kappa = -1
    rep = solve_nullity(ex2.M, ex2.conn, ex2.table, ex2.tensors)
    assert rep.passed, failing(rep)
    assert rep.data["kappa"] == "-1"
    assert rep.data["mu"] is None
    assert rep.data["mu_unconstrained"]


def test_nullity_indefinite_metric(ex1):
    rep = solve_nullity(ex1.M, ex1.conn, ex1.table, ex1.tensors)
    assert rep.data["kappa"] == "-1"
    assert rep.data["mu_unconstrained"]
    assert failing(rep) == ["star_ricci_form"]


def test_nullity_flat_cross_checks_fail(flat):
    # R = 0 fits kappa = 0 with zero residual, but a flat chart is not
    # an almost Kenmotsu nullity manifold; the theory checks catch it
    rep = solve_nullity(flat.M, flat.conn, flat.table, flat.tensors)
    assert rep.result("nullity_fit").passed
    assert rep.data["kappa"] == "0"
    bad = failing(rep)
    for name in ("covariant_eta_shape", "h_prime_square", "ricci_operator_form",
                 "scalar_curvature_value", "spectrum_consistency",
                 "star_ricci_form"):
        assert name in bad


def test_nullity_fit_without_eta_has_no_columns(flat):
    # the kappa column vanishes only where eta does, and then so does the
    # mu column: the fit itself reports that nothing constrains it
    M = copy.copy(flat.M)
    M.eta_frame = [Rat(0)] * M.dim
    with pytest.raises(DegenerateSystem, match="^all coefficient columns vanish$"):
        solve_nullity(M, flat.conn, flat.table, flat.tensors)


def test_nullity_fit_without_eta_on_curved_frame_has_no_columns(ex3):
    # with eta = 0 but R(e_i, e_j)xi not zero, the tuples keep their right
    # side, and the fit still finds no column to solve for
    M = copy.copy(ex3.M)
    M.eta_frame = [Rat(0)] * M.dim
    with pytest.raises(DegenerateSystem, match="^all coefficient columns vanish$"):
        solve_nullity(M, ex3.conn, ex3.table, ex3.tensors)

# --- eta-Einstein fit --------------------------------------------------------


def test_eta_einstein_kenmotsu(ex2):
    rep = solve_eta_einstein(ex2.M, ex2.table)
    assert rep.passed
    assert rep.data["a"] == "-4"
    assert rep.data["b"] == "0"
    assert rep.data["exact"]
    assert rep.data["einstein"]
    cons = rep.data["kenmotsu_consistency"]
    assert cons["matches"]
    assert cons["a_expected"] == "-4"
    assert cons["b_expected"] == "0"
    assert cons["sum_rule"] == "-4"


def test_eta_einstein_not_fit_by_nullity_fixture(ex3):
    rep = solve_eta_einstein(ex3.M, ex3.table)
    assert not rep.passed
    assert rep.data["a"] == "-2"
    assert rep.data["b"] == "-2"
    assert rep.data["residual_max"] == pytest.approx(2.0)
    fit = rep.result("eta_einstein_fit")
    assert fit.kind == "non_zero"
    assert fit.witness[0] == "(S - a g - b eta(x)eta)(e_1, e_1)"
    assert fit.witness[2] == -2


def test_eta_einstein_heisenberg(heis):
    rep = solve_eta_einstein(heis.M, heis.table)
    assert rep.passed
    assert rep.data["a"] == "-1/2"
    assert rep.data["b"] == "1"
    assert rep.data["exact"]
    assert not rep.data["einstein"]
    assert not rep.data["kenmotsu_consistency"]["matches"]


def test_eta_einstein_recovers_manufactured_coefficients(flat):
    M = flat.M
    n = M.dim
    eta = M.eta_frame
    ricci = [[Rat(3) * M.metric[i][j] + Rat(5) * eta[i] * eta[j]
              for j in range(n)] for i in range(n)]
    stub = SimpleNamespace(ricci=ricci, scalar_curvature=Rat(14))
    rep = solve_eta_einstein(M, stub)
    assert rep.passed
    assert rep.data["a"] == "3"
    assert rep.data["b"] == "5"
    assert rep.data["exact"]
    assert rep.data["residual_max"] == 0.0
    # an exact b of 10^-10 is not 0, though it is below the tolerance
    tiny = Rat(Fraction(1, 10 ** 10))
    stub.ricci = [[Rat(3) * M.metric[i][j] + tiny * eta[i] * eta[j]
                   for j in range(n)] for i in range(n)]
    rep = solve_eta_einstein(M, stub)
    assert rep.passed and rep.data["exact"]
    assert rep.data["b"] == "1/10000000000"
    assert not rep.data["einstein"]


def test_eta_einstein_kenmotsu_consistency_matches_nonzero_b(flat):
    # S = -g - eta(x)eta with r = -4 on a dim-3 frame: a = 1 + r/2 = -1 and
    # b = -(3 + r/2) = -1, so both expected constants hold and b is not 0
    M = flat.M
    n = M.dim
    eta = M.eta_frame
    ricci = [[-M.metric[i][j] - eta[i] * eta[j] for j in range(n)] for i in range(n)]
    stub = SimpleNamespace(ricci=ricci, scalar_curvature=Rat(-4))
    rep = solve_eta_einstein(M, stub)
    assert rep.passed
    assert (rep.data["a"], rep.data["b"]) == ("-1", "-1")
    cons = rep.data["kenmotsu_consistency"]
    assert (cons["a_expected"], cons["b_expected"]) == ("-1", "-1")
    assert cons["matches"]
    # a - a_expected = 10^-12 exactly: no match, though below the tolerance
    off = Rat(Fraction(1, 10 ** 12))
    stub.ricci = [[(off - 1) * M.metric[i][j] - eta[i] * eta[j] for j in range(n)]
                  for i in range(n)]
    rep = solve_eta_einstein(M, stub)
    assert rep.passed and rep.data["a"] == "-999999999999/1000000000000"
    assert not rep.data["kenmotsu_consistency"]["matches"]


# --- report plumbing ---------------------------------------------------------


def test_report_round_trip(ex3):
    rep = solve_nullity(ex3.M, ex3.conn, ex3.table, ex3.tensors)
    d = rep.to_dict()
    assert json.loads(json.dumps(d)) == d
    assert d["passed"] == rep.passed
    assert [c["name"] for c in d["checks"]] == [r.name for r in rep.results]


def test_result_witness_round_trip(ex1):
    rep = check_almost_contact(ex1.M)
    d = rep.to_dict()
    assert json.loads(json.dumps(d)) == d
    w = {c["name"]: c for c in d["checks"]}["metric_compatibility"]["witness"]
    assert w["component"] == rep.result("metric_compatibility").witness[0]
    assert w["value"] == pytest.approx(-2.0)


# --- every reported check can fail ---------------------------------------------


def test_every_check_is_decided_otherwise_somewhere(ex1, ex2, ex3, flat, heis):
    # a check that reads proved_zero on every manifold holds by construction
    # and reports nothing: each must read otherwise on a fixture or on the
    # hand-built twisted frame, whose metric, phi and Reeb field vary
    M = twisted()
    conn = koszul(M)
    table = CurvatureTable(M, conn)
    bundles = [(b.M, b.conn, b.table, b.tensors) for b in (ex1, ex2, ex3, flat, heis)]
    bundles.append((M, conn, table, StructureTensors(M)))
    always_proved = {}
    for M, conn, table, tensors in bundles:
        reports = (check_almost_contact(M), check_kenmotsu(M, conn, table),
                   check_almost_kenmotsu(M, conn, table, tensors),
                   solve_nullity(M, conn, table, tensors), solve_eta_einstein(M, table))
        assert tuple(rep.name for rep in reports) == CHECK_NAMES
        for rep in reports:
            for r in rep.results:
                key = (rep.name, r.name)
                always_proved[key] = always_proved.get(key, True) and r.kind == PROVED_ZERO
    assert [key for key, proved in always_proved.items() if proved] == []
    assert len(always_proved) == 31


# --- pinned reports on the hand-built frames ---------------------------------

CHECKS_GOLDEN = Path(__file__).parent / "golden" / "checks_hand_built.json"


@pytest.fixture(scope="module")
def hand_built_reports():
    """Every family's report on ``twisted`` and ``warped``, whose residuals
    are neither zero nor constant; ``warped``'s kenmotsu family is left
    out, it takes seconds (its Ricci operator has rational entries)."""
    out = {}
    for build in (twisted, warped):
        M = build()
        conn = koszul(M)
        table = CurvatureTable(M, conn)
        tensors = StructureTensors(M)
        out[f"{M.name}/almost_contact"] = check_almost_contact(M)
        if M.name != "warped":
            out[f"{M.name}/kenmotsu"] = check_kenmotsu(M, conn, table)
        out[f"{M.name}/almost_kenmotsu"] = check_almost_kenmotsu(M, conn, table, tensors)
        out[f"{M.name}/nullity"] = solve_nullity(M, conn, table, tensors)
        out[f"{M.name}/eta_einstein"] = solve_eta_einstein(M, table)
    return out


def test_hand_built_reports_match_golden(hand_built_reports):
    # verdicts, witnesses (component, point, value) and max |residual| of
    # every check, compared exactly: the values are evaluated in floats
    # through exp, and repeat from run to run
    golden = json.loads(CHECKS_GOLDEN.read_text())
    got = {key: json.loads(json.dumps(rep.to_dict())) for key, rep in hand_built_reports.items()}
    assert sorted(got) == sorted(golden)
    for key in golden:
        assert got[key] == golden[key], key
