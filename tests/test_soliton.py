"""Soliton solving, verification, and classification."""

from fractions import Fraction

import pytest

from contactgeo import soliton
from contactgeo.errors import MissingPotential
from contactgeo.lstsq import FitResult
from contactgeo.scalar import Rat, parse
from contactgeo.soliton import (
    SolitonProblem, classify, lambda_string, solve_soliton, verify_soliton,
)

from canonical_ref import simplify


def vector_problem(bundle):
    return SolitonProblem(bundle.M, bundle.table,
                          V=bundle.manifest.potential_field())


def zero(M, e):
    return M.is_zero_field(e).is_zero


# --- solving -----------------------------------------------------------------


def test_solve_kenmotsu_fixture(ex2):
    rep = solve_soliton(vector_problem(ex2))
    assert rep.form == "vector"
    assert rep.lambda_tilde == 0
    assert rep.mu == 0
    assert rep.exact
    assert rep.passed
    assert rep.residual_max == 0.0
    assert rep.lambda_string() == "p/2 + 1/5"


def test_solve_with_reeb_potential(ex2):
    # L_xi g = 2(g - eta(x)eta) cancels 2 S* exactly
    rep = solve_soliton(SolitonProblem(ex2.M, ex2.table, V=ex2.M.xi))
    assert rep.exact
    assert rep.lambda_tilde == 0
    assert rep.mu == 0


def test_solve_indefinite_fixture(ex1):
    rep = solve_soliton(vector_problem(ex1))
    assert rep.exact
    assert rep.lambda_tilde == -2
    assert rep.mu == 2
    assert rep.lambda_string() == "p/2 - 9/5"


def test_solve_nullity_fixture_best_fit(ex3):
    # L_V g = diag(0, 8, 0) cannot be matched by a g / eta(x)eta combination
    rep = solve_soliton(vector_problem(ex3))
    assert rep.lambda_tilde == -2
    assert rep.mu == 2
    assert not rep.passed
    assert rep.residual_max == pytest.approx(4.0)


# --- verification ------------------------------------------------------------


def test_verify_at_wrong_constants(ex1):
    rep = verify_soliton(vector_problem(ex1), -1, 1)
    assert not rep.passed
    assert rep.residual_max == pytest.approx(2.0)
    vals = sorted({simplify(e).value for e in rep.residual.values()
                   if isinstance(simplify(e), Rat)})
    assert vals == [Fraction(-2), Fraction(0), Fraction(2)]


def test_verify_nullity_fixture(ex3):
    rep = verify_soliton(vector_problem(ex3), -4, 4)
    assert not rep.passed
    assert rep.residual_max == pytest.approx(8.0)
    res = rep.residual
    assert simplify(res[0, 0]).value == Fraction(-8)
    for (i, j), e in res.items():
        if (i, j) != (0, 0):
            assert zero(ex3.M, e), (i, j)


def test_residual_affine_in_constants(ex2):
    P = vector_problem(ex2)
    M = ex2.M
    r1 = verify_soliton(P, 3, -2).residual
    r2 = verify_soliton(P, 1, 5).residual
    eta = M.eta_frame
    assert list(r1) == list(r2) == [(i, j) for i in range(M.dim) for j in range(i, M.dim)]
    for i, j in r1:
        want = Rat(4) * M.metric[i][j] - Rat(14) * eta[i] * eta[j]
        assert zero(M, r1[i, j] - r2[i, j] - want)


def test_verify_accepts_string_constants(ex2):
    rep = verify_soliton(vector_problem(ex2), "0", "0")
    assert rep.passed


def test_exact_constants_near_a_soliton_are_not_one(ex2):
    # lambda~ = mu = 0 solves example2; 10^-10 off, the residual is an
    # exact non-zero constant, whatever the tolerance
    rep = verify_soliton(vector_problem(ex2), "0.0000000001", 0)
    assert rep.verdict.kind == "non_zero" and not rep.passed
    assert rep.residual_max == pytest.approx(2e-10)


def test_float_fit_near_a_soliton_passes(ex2, monkeypatch):
    # a float fit is known only to the tolerance: constants 3e-11 off
    # leave constant residuals below it, which pass as numerically zero
    monkeypatch.setattr(soliton, "fit_sampled",
                        lambda M, entries, skip_singular: FitResult([3e-11, -3e-11], False))
    rep = solve_soliton(vector_problem(ex2))
    assert rep.verdict.kind == "numerically_zero" and rep.passed
    assert 0 < rep.residual_max < ex2.M.tol


# --- gradient form -----------------------------------------------------------


def test_gradient_residual(ex2):
    f = parse("x^2 + y^2 + z^2 + u^2 + v^2/2")
    P = SolitonProblem(ex2.M, ex2.table, f=f)
    assert P.form == "gradient"
    res = verify_soliton(P, 0, 0).residual
    assert zero(ex2.M, res[0, 0] - parse("v^2 - 1"))


def test_gradient_base_is_half_vector_base(ex3):
    # L_{grad f} g = 2 Hess f makes the two forms agree up to the factor 2
    M = ex3.M
    f = parse("x^2 - 3*y*z + 2*z")
    Pg = SolitonProblem(M, ex3.table, f=f)
    Pv = SolitonProblem(M, ex3.table, V=M.gradient_field(f))
    assert len(Pg.labelled) == len(Pv.labelled) == M.dim * (M.dim + 1) // 2
    for (_, (*_, bg)), (_, (*_, bv)) in zip(Pg.labelled, Pv.labelled):
        assert zero(M, bv - Rat(2) * bg)


def test_gradient_solve_runs(ex2):
    f = parse("v^2")
    rep = solve_soliton(SolitonProblem(ex2.M, ex2.table, f=f))
    assert rep.form == "gradient"
    check = verify_soliton(SolitonProblem(ex2.M, ex2.table, f=f),
                           rep.lambda_tilde, rep.mu)
    assert check.residual_max == pytest.approx(rep.residual_max)


# --- rendering and classification --------------------------------------------


def test_lambda_string_rendering():
    assert lambda_string(0, 2) == "p/2 + 1/5"
    assert lambda_string(-2, 2) == "p/2 - 9/5"
    assert lambda_string(Fraction(-1, 5), 2) == "p/2"
    assert lambda_string(-4, 1) == "p/2 - 11/3"
    assert lambda_string(2, 1) == "p/2 + 7/3"


def test_classify_threshold_statement():
    assert classify(0, 2) == ("shrinking for p < -2/5, steady at p = -2/5, "
                              "expanding for p > -2/5")


def test_classify_at_pressure():
    assert classify(0, 2, p=2) == "expanding (lambda = 6/5 at p = 2)"
    assert classify(0, 2, p=Fraction(-2, 5)) == "steady (lambda = 0 at p = -2/5)"
    assert classify(-1, 2, p=0) == "shrinking (lambda = -4/5 at p = 0)"
    assert classify(-4, 1, p=0) == "shrinking (lambda = -11/3 at p = 0)"


def test_report_to_dict(ex2):
    rep = solve_soliton(vector_problem(ex2))
    d = rep.to_dict()
    assert d["form"] == "vector"
    assert d["lambda_tilde"] == "0"
    assert d["mu"] == "0"
    assert d["lambda"] == "p/2 + 1/5"
    assert d["exact"] is True
    assert d["residual_max"] == 0.0
    assert d["residual"]["e_1,e_1"] == "0"
    assert len(d["residual"]) == 15
    assert d["classification"].startswith("shrinking for p < -2/5")


# --- error paths -------------------------------------------------------------


def test_problem_requires_exactly_one_potential(ex2):
    with pytest.raises(MissingPotential):
        SolitonProblem(ex2.M, ex2.table)
    with pytest.raises(ValueError):
        SolitonProblem(ex2.M, ex2.table, V=ex2.M.xi, f=parse("v"))

