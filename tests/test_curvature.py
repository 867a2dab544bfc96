"""Connection, curvature, and derived tensors on the bundled fixtures."""

from fractions import Fraction

from contactgeo.curvature import ExteriorData, hessian, lie_derivative_metric
from contactgeo.scalar import ONE, Rat, ZERO, parse

from canonical_ref import simplify


def S(t):
    return parse(t)


def is_const(e, q):
    e = simplify(e)
    return isinstance(e, Rat) and e.value == Fraction(q)


def comps_are(comps, expect):
    """expect maps frame index -> rational; all others must be zero."""
    for k, c in enumerate(comps):
        if not is_const(c, expect.get(k, 0)):
            return False
    return True


def test_connection_table_scaled_harmonic(ex2):
    conn = ex2.conn
    # nabla_{e_i} e_i = -e_5 and nabla_{e_i} e_5 = e_i for i <= 4, else zero
    for i in range(5):
        for j in range(5):
            if i < 4 and j == i:
                want = {4: -1}
            elif i < 4 and j == 4:
                want = {i: 1}
            else:
                want = {}
            assert comps_are(conn.gamma[i][j], want), (i, j)


def test_connection_table_solvable_group(ex3):
    conn = ex3.conn
    for i in range(3):
        for j in range(3):
            if (i, j) == (0, 0):
                want = {2: -2}
            elif (i, j) == (0, 2):
                want = {0: 2}
            else:
                want = {}
            assert comps_are(conn.gamma[i][j], want), (i, j)


def test_torsion_free_on_fixtures(ex2, ex3):
    for b in (ex2, ex3):
        conn = b.conn
        n = b.M.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    t = conn.gamma[i][j][k] - conn.gamma[j][i][k] - b.M.brackets[i][j][k]
                    assert is_const(t, 0)


def test_metric_compatibility_on_fixture(ex2):
    M, conn = ex2.M, ex2.conn
    n = M.dim
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                lhs = M.frame[k].apply(M.metric[i][j])
                rhs = (M.metric_apply(conn.gamma[k][i], [ONE if m == j else ZERO for m in range(n)])
                       + M.metric_apply([ONE if m == i else ZERO for m in range(n)], conn.gamma[k][j]))
                assert M.is_zero_field(lhs - rhs).is_zero


def test_curvature_constant_negative_one(ex2):
    # R(X,Y)Z = -(g(Y,Z)X - g(X,Z)Y) on the scaled harmonic fixture
    R = ex2.table.R
    for i in range(5):
        for j in range(i + 1, 5):
            for k in range(5):
                want = {}
                if k == j:
                    want = {i: -1}
                elif k == i:
                    want = {j: 1}
                assert comps_are(R[i][j][k], want), (i, j, k)


def test_curvature_solvable_group(ex3):
    R = ex3.table.R
    assert comps_are(R[0][2][0], {2: 4})
    assert comps_are(R[0][2][2], {0: -4})
    for (i, j, k) in [(0, 1, 0), (0, 1, 1), (0, 1, 2), (1, 2, 0), (1, 2, 1),
                      (1, 2, 2), (0, 2, 1)]:
        assert comps_are(R[i][j][k], {})


def test_ricci_tensors(ex2, ex3):
    for i in range(5):
        for j in range(5):
            assert is_const(ex2.table.ricci[i][j], -4 if i == j else 0)
    assert is_const(ex2.table.scalar_curvature, -20)
    diag3 = [-4, 0, -4]
    for i in range(3):
        for j in range(3):
            assert is_const(ex3.table.ricci[i][j], diag3[i] if i == j else 0)
    assert is_const(ex3.table.scalar_curvature, -8)


def test_star_ricci(ex2, ex3):
    # S* = -g + eta(x)eta on the Kenmotsu fixture; identically zero on ex3
    for i in range(5):
        for j in range(5):
            want = -1 if (i == j and i < 4) else 0
            assert is_const(ex2.table.star_ricci[i][j], want)
    assert is_const(ex2.table.star_scalar, -4)
    for i in range(3):
        for j in range(3):
            assert is_const(ex3.table.star_ricci[i][j], 0)


def test_riemann_lowered_antisymmetry(ex3):
    M, t = ex3.M, ex3.table
    n = 3
    basis = [[ONE if k == m else ZERO for m in range(n)] for k in range(n)]

    def low(a, i, j, b):  # g(R(e_a, e_i) e_j, e_b)
        return M.metric_apply(t.R[a][i][j], basis[b])

    for a in range(n):
        for i in range(n):
            for j in range(n):
                for b in range(n):
                    assert is_const(low(a, i, j, b) + low(a, i, b, j), 0)


def test_structure_tensor_rows(ex3):
    hp = ex3.tensors.h_prime
    assert comps_are(hp[0], {0: 1})
    assert comps_are(hp[1], {1: -1})
    assert comps_are(hp[2], {})
    values, spread, exact = ex3.tensors.spectrum()
    assert values == [-1, 0, 1]
    assert all(type(v) is int for v in values)
    assert spread == 0
    assert exact


def test_reeb_flow_of_metric(ex2):
    M = ex2.M
    lg = lie_derivative_metric(M, M.xi_frame)
    for i in range(5):
        for j in range(5):
            want = 2 if (i == j and i < 4) else 0
            assert is_const(lg[i][j], want)


def test_hessian_values(ex2):
    M = ex2.M
    f = S("x^2 + y^2 + z^2 + u^2 + v^2/2")
    H = hessian(M, ex2.conn, f)
    assert M.is_zero_field(H[0][0] - S("v^2")).is_zero
    assert M.is_zero_field(H[4][4] - S("2*v^2")).is_zero
    assert M.is_zero_field(H[0][4] + S("2*x*v")).is_zero
    for i in range(5):
        for j in range(5):
            assert M.is_zero_field(H[i][j] - H[j][i]).is_zero


def test_exterior_data(ex2, ex3):
    for b in (ex2, ex3):
        ext = ExteriorData(b.M)
        n = b.M.dim
        for i in range(n):
            for j in range(i + 1, n):
                assert is_const(ext.d_eta[(i, j)], 0)
        for key in ext.d_Phi:
            resid = ext.d_Phi[key] - Rat(2) * ext.eta_wedge_Phi[key]
            assert b.M.is_zero_field(resid).is_zero
