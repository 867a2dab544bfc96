"""The sparse frame contractions behind the structure residuals.

``ManifoldSpec.metric_apply`` contracts the metric with the second
operand first and scales by each component of the first once;
``ConnectionTable.nabla_comps`` contracts ``c^l gamma[i][l][k]`` first and
scales by ``x^i`` once; ``ConnectionTable.nabla_form``, the covariant
derivative of a 1-form behind Hess f and nabla eta, forms each
``e_i(w_j) - sum_k gamma[i][j][k] w_k`` at once;
``ConnectionTable.nabla_operator`` forms each component of
``A (nabla_X e_j)`` at once, and ``StructureTensors.h_prime_squared``
each component of ``h'^2``. All merge each output component in one
``add_all``. The references below add every term pairwise (all but that
of ``nabla_form`` are the earlier loops, kept verbatim); canonical forms
are unique, so the results must be ``==``-equal node for node. The
1-forms of ``nabla_form`` are tried on the fixtures and on the three
hand-built frames.
"""

import copy
import random

import pytest

from contactgeo.scalar import ONE, Rat, ZERO, parse
from contactgeo.curvature import frame_basis, koszul
from contactgeo.geometry import _mat_vec

from fields import random_polynomial, random_vector_fields
from manifolds import twisted, warped
from test_sparse_frames import _skew


def reference_metric_apply(M, c, d):
    """Every product ``c^i d^j g_ij`` formed and added pairwise."""
    out = ZERO
    for i in range(M.dim):
        if isinstance(c[i], Rat) and c[i].value == 0:
            continue
        for j in range(M.dim):
            out = out + c[i] * d[j] * M.metric[i][j]
    return out


def _is0(e):
    return isinstance(e, Rat) and e.value == 0


def reference_nabla_comps(conn, x_frame, c_frame):
    """Derivative terms, then ``x^i c^l gamma[i][l][k]``, added pairwise."""
    M = conn.M
    n = M.dim
    out = [ZERO] * n
    for k in range(n):
        ck = c_frame[k]
        # derivative part
        if _is0(ck):
            continue
        for i in range(n):
            if not _is0(x_frame[i]):
                out[k] = out[k] + x_frame[i] * M.frame[i].apply(ck)
    for i in range(n):
        xi_c = x_frame[i]
        if _is0(xi_c):
            continue
        for l in range(n):
            cl = c_frame[l]
            if _is0(cl):
                continue
            row = conn.gamma[i][l]
            for k in range(n):
                if not _is0(row[k]):
                    out[k] = out[k] + xi_c * cl * row[k]
    return out


def reference_nabla_form(conn, w):
    """``e_i(w_j)``, then each ``-gamma[i][j][k] w_k``, added pairwise."""
    M = conn.M
    n = M.dim
    out = [[M.frame[i].apply(w[j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if not _is0(conn.gamma[i][j][k]) and not _is0(w[k]):
                    out[i][j] = out[i][j] - conn.gamma[i][j][k] * w[k]
    return out


def reference_nabla_operator(conn, A, x_frame):
    """``nabla_X (A e_j) - A (nabla_X e_j)``, the second part added pairwise."""
    M = conn.M
    n = M.dim
    out = []
    for j in range(n):
        first = conn.nabla_comps(x_frame, A[j])
        nx_ej = conn.nabla_comps(x_frame, [ONE if k == j else ZERO for k in range(n)])
        second = [ZERO] * n
        for m in range(n):
            if nx_ej[m] is ZERO:
                continue
            for k in range(n):
                if A[m][k] is not ZERO:
                    second[k] = second[k] + nx_ej[m] * A[m][k]
        out.append([a - b for a, b in zip(first, second)])
    return out


def reference_h_prime_squared(tensors):
    """``h'^2`` with every product added pairwise."""
    n = tensors.M.dim
    hp = tensors.h_prime
    out = [[ZERO] * n for _ in range(n)]
    for j in range(n):
        for m in range(n):
            if hp[j][m] is ZERO:
                continue
            for k in range(n):
                if hp[m][k] is not ZERO:
                    out[j][k] = out[j][k] + hp[j][m] * hp[m][k]
    return out


def random_pairs(M, count, seed_offset):
    """The pairs of polynomial fields the structure checks once drew."""
    fields = random_vector_fields(M, 2 * count, M.seed + 7 + seed_offset)
    return [(fields[2 * i], fields[2 * i + 1]) for i in range(count)]


FIXTURES = ("ex1", "ex2", "ex3", "flat", "heis")


def assert_metric_equal(M, c, d):
    got = M.metric_apply(c, d)
    assert got == reference_metric_apply(M, c, d), (M.name, str(got))


def assert_nabla_equal(conn, x_frame, c_frame):
    got = conn.nabla_comps(x_frame, c_frame)
    want = reference_nabla_comps(conn, x_frame, c_frame)
    assert got == want, (conn.M.name, [str(e) for e in got])


@pytest.mark.parametrize("fixture", FIXTURES)
def test_frame_operands_match_reference(request, fixture):
    b = request.getfixturevalue(fixture)
    M, conn = b.M, b.conn
    n = M.dim
    basis = frame_basis(n)
    xi = M.xi_frame
    for i in range(n):
        assert_metric_equal(M, basis[i], xi)
        for j in range(n):
            assert_metric_equal(M, basis[i], basis[j])
            assert_metric_equal(M, M.phi[i], basis[j])
            assert_metric_equal(M, conn.gamma[i][j], xi)
            assert_nabla_equal(conn, basis[i], basis[j])
            assert_nabla_equal(conn, basis[i], M.phi[j])
            for k in range(n):
                assert_nabla_equal(conn, basis[i], conn.gamma[j][k])
        assert_nabla_equal(conn, basis[i], xi)
        assert_nabla_equal(conn, M.brackets[i][(i + 1) % n], basis[i])


@pytest.mark.parametrize("seed", (1729, 7, 101))
@pytest.mark.parametrize("fixture", FIXTURES)
def test_random_fields_match_reference(request, fixture, seed):
    b = request.getfixturevalue(fixture)
    conn = b.conn  # the frame and Christoffel symbols do not depend on the seed
    M = b.manifest.manifold(seed=seed)
    # offsets 0 and 1 draw the fields of the almost contact and Kenmotsu checks
    for X, Y in random_pairs(M, 3, 0) + random_pairs(M, 3, 1):
        cx, cy = M.to_frame(X), M.to_frame(Y)
        phix = _mat_vec(M.phi, cx)
        assert_metric_equal(M, cx, cy)
        assert_metric_equal(M, phix, cy)
        assert_metric_equal(M, cx, M.xi_frame)
        assert_nabla_equal(conn, cx, cy)
        # the operand of nabla_phi: nabla_X (phi Y)
        assert_nabla_equal(conn, cx, _mat_vec(M.phi, cy))
        assert_nabla_equal(conn, cx, M.xi_frame)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_nabla_operator_matches_reference(request, fixture):
    b = request.getfixturevalue(fixture)
    M, conn = b.M, b.conn
    basis = frame_basis(M.dim)
    xs = basis + [M.xi_frame] + [M.to_frame(X) for X, _ in random_pairs(M, 2, 0)]
    # the Ricci operator and h' are the tensors the structure checks differentiate
    for A in (b.table.ricci_operator, b.tensors.h_prime, M.phi):
        for x in xs:
            got = conn.nabla_operator(A, x)
            want = reference_nabla_operator(conn, A, x)
            assert got == want, (M.name, [[str(e) for e in row] for row in got])


@pytest.mark.parametrize("name", FIXTURES + ("skew", "warped", "twisted"))
def test_nabla_form_matches_reference(request, name):
    if name in FIXTURES:
        b = request.getfixturevalue(name)
        M, conn = b.M, b.conn
    else:
        M = {"skew": _skew, "warped": warped, "twisted": twisted}[name]()
        conn = koszul(M)
    rng = random.Random(M.seed + 11)
    drawn = [[random_polynomial(rng, M.coords, 2) for _ in range(M.dim)] for _ in range(3)]
    f = random_polynomial(rng, M.coords, 2) * parse("exp(x)")
    # eta, the dual frame, random 1-forms, one of them with every other
    # component zero, and df: the forms behind nabla eta and Hess f
    forms = ([M.eta_frame] + frame_basis(M.dim) + drawn
             + [[w if k % 2 else ZERO for k, w in enumerate(drawn[0])]]
             + [[e.apply(f) for e in M.frame]])
    for w in forms:
        got = conn.nabla_form(w)
        assert got == reference_nabla_form(conn, w), (M.name, [[str(e) for e in row] for row in got])


def _assert_h_prime_squared_equal(tensors):
    got = tensors.h_prime_squared()
    want = reference_h_prime_squared(tensors)
    assert got == want, (tensors.M.name, [[str(e) for e in row] for row in got])


@pytest.mark.parametrize("fixture", FIXTURES)
def test_h_prime_squared_matches_reference(request, fixture):
    _assert_h_prime_squared_equal(request.getfixturevalue(fixture).tensors)


def test_h_prime_squared_non_constant_matches_reference(ex3):
    # the fixtures' h' is zero or constant; this one has repeated and
    # cancelling products of non-constant entries
    tensors = copy.copy(ex3.tensors)
    tensors.h_prime = [[parse(t) for t in row] for row in (
        ("x", "1 + y", "0"),
        ("-y", "x*exp(z)", "2"),
        ("y", "-1", "x - y"),
    )]
    _assert_h_prime_squared_equal(tensors)
