"""The sampled least-squares fit behind the nullity, eta-Einstein and
soliton solves, and how a fit is settled.

``fit_sampled`` leaves out all-zero tuples and enters a constant tuple
once, weighted by the sample count. The tests compare it with
``reference_fit``, which builds the full system: every entry evaluated
at every point, one row per tuple and point. A point where an entry has
no finite value fails the fit with ``NonFiniteValue`` naming the point.
``settle_fit`` substitutes the fitted constants into each tuple's
residual and runs them through ``combine``, so rows that depend on the
point are settled like every other identity.
"""

import copy
from fractions import Fraction
from types import SimpleNamespace

import pytest

from contactgeo import soliton, structure
from contactgeo.errors import DegenerateSystem, NonFiniteValue
from contactgeo.lstsq import solve_least_squares
from contactgeo.scalar import (
    NON_ZERO, NUMERICALLY_ZERO, PROVED_ZERO, Rat, ZERO, evaluate, parse,
)
from contactgeo.soliton import SolitonProblem, solve_soliton
from contactgeo.structure import fit_sampled, is_exact, settle_fit, snap, solve_eta_einstein


def reference_fit(M, entries):
    """Every tuple evaluated at every point, one row each."""
    rows, rhs = [], []
    for env in M.sampler.points():
        for entry in entries:
            *row, b = [evaluate(e, env) for e in entry]
            rows.append(tuple(row))
            rhs.append(b)
    return solve_least_squares(rows, rhs)


def fields(fit):
    return fit, [j for j, v in enumerate(fit) if v is None], is_exact(fit)


def spy(monkeypatch, module):
    """Record every call of ``fit_sampled`` made from ``module``."""
    calls = []

    def recording(M, entries):
        fit = fit_sampled(M, entries)
        calls.append((M, entries, fit))
        return fit

    monkeypatch.setattr(module, "fit_sampled", recording)
    return calls


def assert_matches_reference(calls):
    assert len(calls) == 1
    M, entries, fit = calls[0]
    assert fields(fit) == fields(reference_fit(M, entries))
    return entries, fit


def kinds(entries):
    """Count the tuples of zero constants, other constants and fields."""
    zero = sum(all(isinstance(e, Rat) and e.value == 0 for e in t) for t in entries)
    const = sum(all(isinstance(e, Rat) for e in t) for t in entries) - zero
    return zero, const, len(entries) - zero - const


def with_points(M, points):
    """A copy of ``M`` whose sampler yields exactly ``points``."""
    M = copy.copy(M)
    M.sampler = SimpleNamespace(count=len(points), points=lambda: points)
    return M


def without_points(M):
    """A copy of ``M`` whose sampler has its count but fails on a draw."""
    def points():
        raise AssertionError("a sample point was drawn")

    M = copy.copy(M)
    M.sampler = SimpleNamespace(count=M.sampler.count, points=points)
    return M


# --- constant and point-dependent entries together ---------------------------


def test_eta_einstein_mixed_entries(flat, monkeypatch):
    # S_11 = x and S_13 = y vary; S_22 = 2 and S_33 = 3 are constant; the
    # other entries are zero. The x rows pull a away from 2, so the fit
    # depends on how much the constant rows weigh.
    ricci = [[parse("x"), ZERO, parse("y")],
             [ZERO, Rat(2), ZERO],
             [parse("y"), ZERO, Rat(3)]]
    stub = SimpleNamespace(ricci=ricci, scalar_curvature=parse("x + 5"))
    calls = spy(monkeypatch, structure)
    rep = solve_eta_einstein(flat.M, stub)
    entries, fit = assert_matches_reference(calls)
    # two varying and two constant tuples; the tuples of e_1, e_2 and
    # e_2, e_3, whose columns are all zero, are not built
    assert kinds(entries) == (0, 2, 2)
    assert is_exact(fit)
    settled = rep.result("eta_einstein_fit")
    assert settled.kind == NON_ZERO
    assert settled.witness[0].startswith("(S - a g - b eta(x)eta)(e_")
    assert rep.data["residual_max"] == settled.max_abs > 0
    # max_abs is the worst |residual| over the components and points; the
    # witness stays the first point where a component breaks the tolerance
    assert round(settled.max_abs, 3) == 3.000
    assert round(abs(float(settled.witness[2])), 3) == 1.108
    a, b = fit
    assert rep.data["a"] == str(a) and rep.data["b"] == str(b)
    assert a + b == 3
    xs = [env["x"] for env in flat.M.sampler.points()]
    assert a == (sum(xs) + 2 * len(xs)) / (2 * len(xs))


def test_gradient_soliton_mixed_entries(flat, monkeypatch):
    # Hess f = [[2, 2y, 0], [2y, 2x, 0], [0, 0, 0]] on the flat frame,
    # where S* vanishes: constant, zero and point-dependent entries.
    P = SolitonProblem(flat.M, flat.table, f=parse("x^2 + x*y^2"))
    calls = spy(monkeypatch, soliton)
    rep = solve_soliton(P)
    entries, fit = assert_matches_reference(calls)
    assert all(kinds(entries))
    assert is_exact(fit)
    assert rep.verdict.kind == NON_ZERO and not rep.passed
    assert rep.verdict.witness[0].startswith("residual(e_")
    assert rep.residual_max == rep.verdict.max_abs > 0
    assert (rep.lambda_tilde, rep.mu) == tuple(fit)
    assert fit[0] + fit[1] == 0


@pytest.mark.parametrize("reverse", [False, True])
def test_constant_tuples_draw_no_point(flat, reverse):
    # zero, exact and inconsistent constant tuples: no tuple depends on the
    # point, so the rows weigh the sampler's count and no point is drawn;
    # the order the tuples come in does not change the fit
    entries = [(Rat(1), Rat(2), Rat(3)), (ZERO, ZERO, ZERO),
               (Rat(2), ZERO, Rat(Fraction(1, 3))), (Rat(-1), Rat(1), Rat(4))]
    if reverse:
        entries.reverse()
    fit = fit_sampled(without_points(flat.M), entries)
    assert fields(fit) == fields(reference_fit(flat.M, entries))
    assert is_exact(fit)


# --- rows that depend on the point -------------------------------------------


def settled(M, labelled):
    fit = fit_sampled(M, [entry for _, entry in labelled])
    return fit, settle_fit(M, "fit", labelled, fit)[0]


def test_polynomial_rows_settle_exactly(flat):
    # a x + b x^2 = 3x + 2x^2 at every point: an exact fit, proved zero
    labelled = [("3x + 2x^2 - a x - b x^2",
                 (parse("x"), parse("x^2"), parse("3*x + 2*x^2")))]
    fit, result = settled(flat.M, labelled)
    assert is_exact(fit)
    assert fit == [3, 2]
    assert result.kind == PROVED_ZERO
    assert result.witness is None and result.max_abs == 0.0


def test_exp_rows_take_the_float_fit(flat):
    # a e^x + b x e^x = 2 e^x - x e^x: the rows are floats, and the fit
    # still holds once its constants are snapped
    labelled = [("2e^x - x e^x - a e^x - b x e^x",
                 (parse("exp(x)"), parse("x*exp(x)"),
                  parse("2*exp(x) - x*exp(x)")))]
    fit, result = settled(flat.M, labelled)
    assert not is_exact(fit)
    assert fit == pytest.approx([2, -1])
    assert result.kind != NON_ZERO


def test_float_constants_meet_constant_tuples_within_tolerance(flat):
    # 2 + 3e-11 snaps to a fraction 3e-11 off, so the residual of the
    # constant tuple is a non-zero constant far below the tolerance: it
    # passes for the float, known only that well, and fails for the
    # fraction itself, which is exact
    labelled = [("2 - a", (Rat(1), Rat(2)))]
    near = 2 + 3e-11
    assert snap(near) != Rat(2)
    loose, _ = settle_fit(flat.M, "fit", labelled, [near])
    assert loose.kind == NUMERICALLY_ZERO and loose.passed
    assert 0 < loose.max_abs < flat.M.tol
    strict, _ = settle_fit(flat.M, "fit", labelled, [snap(near).value])
    assert strict.kind == NON_ZERO
    assert strict.witness[0] == "2 - a"
    far, _ = settle_fit(flat.M, "fit", labelled, [2.5])
    assert far.kind == NON_ZERO


def test_snap():
    assert snap(None) is ZERO
    assert snap(Fraction(-2, 3)) == Rat(Fraction(-2, 3))
    assert snap(3) == Rat(3)
    assert snap(0.1) == Rat(Fraction(1, 10))
    assert snap(2.0000000000001) == Rat(2)


# --- singular sample points --------------------------------------------------


def _points(xs):
    return [{"x": Fraction(x), "y": Fraction(1, 3), "z": Fraction(-1, 2)}
            for x in xs]


def _at(x):
    return {"x": x, "y": "1/3", "z": "-1/2"}


def test_soliton_fit_fails_at_a_pole(flat, monkeypatch):
    # Hess(1/x + y^2) = diag(2/x^3, 2, 0) has a pole at x = 0: the fit
    # fails there, naming the point, as the full system does
    M = with_points(flat.M, _points(["1/2", "0", "-1", "3/2", "2"]))
    P = SolitonProblem(M, flat.table, f=parse("1/x + y^2"))
    with pytest.raises(NonFiniteValue, match="vanishes") as info:
        solve_soliton(P)
    assert info.value.witness == _at("0")
    entries = [entry for _, entry in P.labelled]
    with pytest.raises(NonFiniteValue) as ref:
        reference_fit(M, entries)
    assert ref.value.witness == _at("0")
    # off the pole, the constant rows weigh the 4 points
    used = [Fraction(1, 2), Fraction(-1), Fraction(3, 2), Fraction(2)]
    P = SolitonProblem(with_points(flat.M, _points(used)), flat.table, f=parse("1/x + y^2"))
    calls = spy(monkeypatch, soliton)
    rep = solve_soliton(P)
    entries, fit = assert_matches_reference(calls)
    assert all(kinds(entries)[1:])
    assert rep.lambda_tilde == fit[0]
    assert fit[0] == -(sum(2 / x ** 3 for x in used) + 2 * 4) / (2 * 4)


def test_every_point_singular_fails_at_the_first(flat):
    M = with_points(flat.M, _points(["0", "0"]))
    P = SolitonProblem(M, flat.table, f=parse("1/x + y^2"))
    with pytest.raises(NonFiniteValue) as info:
        solve_soliton(P)
    assert info.value.witness == _at("0")


def test_eta_einstein_fit_raises_at_a_pole(flat):
    M = with_points(flat.M, _points(["1", "0"]))
    stub = SimpleNamespace(ricci=[[parse("1/x"), ZERO, ZERO],
                                  [ZERO, Rat(1), ZERO],
                                  [ZERO, ZERO, Rat(1)]],
                           scalar_curvature=Rat(0))
    with pytest.raises(NonFiniteValue, match="vanishes") as info:
        solve_eta_einstein(M, stub)
    assert info.value.witness == _at("0")


# --- degenerate systems keep their messages ----------------------------------


@pytest.mark.parametrize("entries, message", [
    ([], "no equations to fit"),
    ([(ZERO, ZERO, ZERO)] * 3, "all coefficient columns vanish"),
    ([(ZERO, ZERO, Rat(1)), (ZERO, ZERO, parse("x"))], "all coefficient columns vanish"),
])
def test_degenerate_messages_match_reference(flat, entries, message):
    for fit in (fit_sampled, reference_fit):
        with pytest.raises(DegenerateSystem, match=f"^{message}$"):
            fit(flat.M, entries)


def _stub_manifold(flat, metric, eta):
    return SimpleNamespace(dim=2, n=1, tol=flat.M.tol, sampler=flat.M.sampler,
                           metric=metric, eta_frame=eta)


@pytest.mark.parametrize("metric, eta, message", [
    ([[ZERO, ZERO], [ZERO, ZERO]], [Rat(1), ZERO],
     "metric column vanished; manifest is degenerate"),
    ([[Rat(1), ZERO], [ZERO, Rat(1)]], [ZERO, ZERO],
     "eta(x)eta column vanished; eta is degenerate"),
])
def test_eta_einstein_messages(flat, metric, eta, message):
    M = _stub_manifold(flat, metric, eta)
    table = SimpleNamespace(ricci=[[parse("x"), ZERO], [ZERO, Rat(1)]],
                            scalar_curvature=Rat(0))
    with pytest.raises(DegenerateSystem) as err:
        solve_eta_einstein(M, table)
    assert str(err.value) == message


def test_soliton_message(flat):
    P = SimpleNamespace(
        M=SimpleNamespace(dim=2, sampler=flat.M.sampler),
        labelled=[("residual(e_1,e_1)", (ZERO, Rat(-1), parse("x"))),
                  ("residual(e_1,e_2)", (ZERO, ZERO, ZERO)),
                  ("residual(e_2,e_2)", (ZERO, ZERO, Rat(1)))])
    with pytest.raises(DegenerateSystem) as err:
        solve_soliton(P)
    assert str(err.value) == "soliton fit degenerate: metric column vanished"
