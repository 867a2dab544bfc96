"""S* off the Kenmotsu class, where it need not be symmetric.

``L_V g``, ``Hess f``, g and ``eta(x)eta`` are symmetric, so every
equation that holds them against S* holds on ``S*_ji`` as much as on
``S*_ij``. ``CurvatureTable.star_pairs`` lists the pairs i <= j, each
followed by (j, i) where the two entries differ; the star table, the
soliton tuples, ``star_ricci_from_ricci`` and ``star_ricci_form`` read
those pairs. On ``twisted`` S* is genuinely asymmetric; on ``flat`` a
stub S* that is ``-2(g - eta(x)eta)`` except ``x`` at (e_2, e_1) makes
the lower entry the only one that fails.
"""

from types import SimpleNamespace

import pytest

from contactgeo import structure
from contactgeo.cli import collect_table
from contactgeo.curvature import CurvatureTable, StructureTensors, koszul
from contactgeo.geometry import VectorField
from contactgeo.scalar import NON_ZERO, ZERO, Rat, parse
from contactgeo.soliton import SolitonProblem, verify_soliton

from manifolds import twisted

LOWER = [(1, 0), (2, 0), (2, 1)]


@pytest.fixture(scope="module")
def tw():
    M = twisted()
    conn = koszul(M)
    return SimpleNamespace(M=M, conn=conn, table=CurvatureTable(M, conn))


def _stub(bundle):
    """A fresh table on ``bundle``'s manifold whose S* is
    ``-2(g - eta(x)eta) = diag(-2, -2, 0)`` except ``S*(e_2, e_1) = x``."""
    table = CurvatureTable(bundle.M, bundle.conn)
    star = [[Rat(-2) if i == j < 2 else ZERO for j in range(3)] for i in range(3)]
    star[1][0] = parse("x")
    table.__dict__["star_ricci"] = star
    return table


def _recorded_labels(monkeypatch, name):
    """Record the component labels that ``structure.combine`` gets for the
    check ``name``."""
    labels = []
    combine = structure.combine

    def recording(M, check, parts, *args):
        if check == name:
            labels.extend(label for label, _ in parts)
        return combine(M, check, parts, *args)

    monkeypatch.setattr(structure, "combine", recording)
    return labels


def test_twisted_star_ricci_is_not_symmetric(tw):
    M, star = tw.M, tw.table.star_ricci
    differences = [M.is_zero_field(star[i][j] - star[j][i]) for i, j in LOWER]
    assert all(d.kind == NON_ZERO for d in differences)
    assert round(float(differences[0].witness[1]), 3) == 0.333
    assert tw.table.star_pairs == [(0, 0), (0, 1), (1, 0), (0, 2), (2, 0), (1, 1),
                                   (1, 2), (2, 1), (2, 2)]


def test_symmetric_star_ricci_gives_the_upper_pairs(ex2):
    n = ex2.M.dim
    assert ex2.table.star_pairs == [(i, j) for i in range(n) for j in range(i, n)]


def test_star_table_prints_the_lower_entries(tw):
    # S*(e_1, e_3) is zero, so only its mirror is printed
    _, entries = collect_table(tw, "star")
    star = tw.table.star_ricci
    assert star[0][2] is ZERO and star[2][0] is not ZERO
    assert "S*(e_1,e_3)" not in entries and "S*(e_3,e_1)" in entries
    assert [key for key in entries if key != "r*"] == [
        f"S*(e_{i + 1},e_{j + 1})" for i, j in tw.table.star_pairs if star[i][j] is not ZERO]


def test_star_ricci_from_ricci_reads_the_lower_entries(tw, monkeypatch):
    c3 = _recorded_labels(monkeypatch, "star_ricci_from_ricci")
    structure.check_kenmotsu(tw.M, tw.conn, tw.table)
    assert [f"(S* - S - (2n-1)g - eta(x)eta)(e_{i + 1}, e_{j + 1})"
            for i, j in tw.table.star_pairs] == c3


def test_star_ricci_form_fails_on_the_lower_entry(flat, monkeypatch):
    # kappa = 0 fits R(X, Y)xi = 0 on the flat frame; the stub S* then
    # satisfies S* + (k+2)(g - eta(x)eta) = 0 on and above the diagonal only
    labels = _recorded_labels(monkeypatch, "star_ricci_form")
    table = _stub(flat)
    report = structure.solve_nullity(flat.M, flat.conn, table, StructureTensors(flat.M))
    form = report.result("star_ricci_form")
    assert "(S* + (k+2)(g - eta(x)eta))(e_2, e_1)" in labels
    assert form.kind == NON_ZERO
    assert form.witness[0] == "(S* + (k+2)(g - eta(x)eta))(e_2, e_1)"


def test_soliton_verify_fails_on_the_lower_entry(flat):
    # V = 0, lambda~ = 2, mu = -2: 2 S* + 4 g - 4 eta(x)eta vanishes on and
    # above the diagonal and is 2x at (e_2, e_1)
    M = flat.M
    table = _stub(flat)
    problem = SolitonProblem(M, table, V=VectorField(M.coords, [ZERO] * 3))
    report = verify_soliton(problem, 2, -2)
    assert list(report.residual) == table.star_pairs
    assert report.residual[(1, 0)] == parse("2*x")
    assert all(report.residual[p] is ZERO for p in table.star_pairs if p != (1, 0))
    assert report.verdict.kind == NON_ZERO
    assert report.verdict.witness[0] == "residual(e_2,e_1)"


def test_twisted_soliton_has_a_tuple_per_star_pair(tw):
    M = tw.M
    problem = SolitonProblem(M, tw.table, V=VectorField(M.coords, [parse("y"), ZERO, parse("x")]))
    assert [label for label, _ in problem.labelled] == [
        f"residual(e_{i + 1},e_{j + 1})" for i, j in tw.table.star_pairs]
    report = verify_soliton(problem, 1, 0)
    assert list(report.residual) == tw.table.star_pairs
    assert not report.passed
