"""The sampled least-squares fit behind the nullity, eta-Einstein and
soliton solves.

``fit_sampled`` leaves out all-zero tuples and enters a constant tuple
once, weighted by the number of sample points used. Every test here
compares it with ``reference_fit``, which builds the full system: every
entry evaluated at every point, one row per tuple and point.
"""

import copy
from fractions import Fraction
from types import SimpleNamespace

import pytest

from contactgeo import soliton, structure
from contactgeo.errors import DegenerateSystem, DivisionByZero
from contactgeo.lstsq import solve_least_squares
from contactgeo.scalar import Rat, ZERO, evaluate, parse
from contactgeo.soliton import SolitonProblem, solve_soliton
from contactgeo.structure import fit_sampled, solve_eta_einstein


def reference_fit(M, entries, skip_singular=False, negate_rhs=False):
    """Every tuple evaluated at every point, one row each."""
    rows, rhs = [], []
    for env in M.sampler.points():
        try:
            batch = [[evaluate(e, env) for e in entry] for entry in entries]
        except (DivisionByZero, ZeroDivisionError, OverflowError):
            if not skip_singular:
                raise
            continue
        for *row, b in batch:
            rows.append(tuple(row))
            rhs.append(-b if negate_rhs else b)
    return solve_least_squares(rows, rhs)


def fields(fit):
    return fit.values, fit.dropped, fit.residual_max, fit.exact


def spy(monkeypatch, module):
    """Record every call of ``fit_sampled`` made from ``module``."""
    calls = []

    def recording(M, entries, **kwargs):
        fit = fit_sampled(M, entries, **kwargs)
        calls.append((M, entries, kwargs, fit))
        return fit

    monkeypatch.setattr(module, "fit_sampled", recording)
    return calls


def assert_matches_reference(calls):
    assert len(calls) == 1
    M, entries, kwargs, fit = calls[0]
    assert fields(fit) == fields(reference_fit(M, entries, **kwargs))
    return entries, fit


def kinds(entries):
    """Count the tuples of zero constants, other constants and fields."""
    zero = sum(all(isinstance(e, Rat) and e.value == 0 for e in t) for t in entries)
    const = sum(all(isinstance(e, Rat) for e in t) for t in entries) - zero
    return zero, const, len(entries) - zero - const


def with_points(M, points):
    """A copy of ``M`` whose sampler yields exactly ``points``."""
    M = copy.copy(M)
    M.sampler = SimpleNamespace(points=lambda: points)
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
    assert all(kinds(entries))
    assert fit.exact and fit.residual_max > 0
    a, b = fit.values
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
    assert fit.exact and fit.residual_max > 0
    assert (rep.lambda_tilde, rep.mu) == tuple(fit.values)
    assert fit.values[0] + fit.values[1] == 0


# --- singular sample points --------------------------------------------------


def _points(xs):
    return [{"x": Fraction(x), "y": Fraction(1, 3), "z": Fraction(-1, 2)}
            for x in xs]


def test_soliton_skips_singular_points(flat, monkeypatch):
    # Hess(1/x + y^2) = diag(2/x^3, 2, 0) has a pole at x = 0, where the
    # point is skipped; the constant rows weigh the 4 points used, not 5.
    M = with_points(flat.M, _points(["1/2", "0", "-1", "3/2", "2"]))
    P = SolitonProblem(M, flat.table, f=parse("1/x + y^2"))
    calls = spy(monkeypatch, soliton)
    rep = solve_soliton(P)
    entries, fit = assert_matches_reference(calls)
    assert all(kinds(entries)[1:])
    assert rep.lambda_tilde == fit.values[0]
    used = [Fraction(1, 2), Fraction(-1), Fraction(3, 2), Fraction(2)]
    assert fit.values[0] == -(sum(2 / x ** 3 for x in used) + 2 * 4) / (2 * 4)


def test_every_point_singular_leaves_no_equations(flat):
    M = with_points(flat.M, _points(["0", "0"]))
    P = SolitonProblem(M, flat.table, f=parse("1/x + y^2"))
    with pytest.raises(DegenerateSystem, match="^no equations to fit$"):
        solve_soliton(P)


def test_eta_einstein_fit_raises_at_a_pole(flat):
    M = with_points(flat.M, _points(["1", "0"]))
    stub = SimpleNamespace(ricci=[[parse("1/x"), ZERO, ZERO],
                                  [ZERO, Rat(1), ZERO],
                                  [ZERO, ZERO, Rat(1)]],
                           scalar_curvature=Rat(0))
    with pytest.raises(DivisionByZero):
        solve_eta_einstein(M, stub)


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
        base_tensor=lambda: [[parse("x"), ZERO], [ZERO, Rat(1)]],
        coefficient_tensors=lambda: ([[ZERO, ZERO], [ZERO, ZERO]],
                                     [[Rat(1), ZERO], [ZERO, ZERO]]))
    with pytest.raises(DegenerateSystem) as err:
        solve_soliton(P)
    assert str(err.value) == "soliton fit degenerate: metric column vanished"
