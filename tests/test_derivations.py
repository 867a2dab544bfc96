"""Derivations, brackets and the connection against the earlier pairwise code.

``VectorField.apply`` returns ``ZERO`` on a constant and otherwise sums
``c * diff(f, x)`` over the non-zero components in one ``add_all``;
``lie_bracket`` merges each component in one ``add_all``; ``koszul``
scatters the non-zero lowered structure constants ``g([e_i, e_j], e_k)``
and metric derivatives into its slots. The references below are the earlier
pairwise versions, kept verbatim except that they call each other;
canonical forms are unique, so the results must be ``==``-equal node for
node.
"""

import random
from pathlib import Path

import pytest

from contactgeo import manifest, scalar
from contactgeo.curvature import HALF, koszul
from contactgeo.geometry import VectorField, lie_bracket
from contactgeo.scalar import ONE, Rat, ZERO

from canonical_ref import ref_from_frame
from fields import random_polynomial, random_vector_fields
from manifolds import warped

DIM7 = Path(__file__).parent / "golden" / "kenmotsu_exp_7.json"


def reference_apply(X, f):
    """Derivation: ``X(f) = sum_i X^i df/dx_i``."""
    out = ZERO
    for name, c in zip(X.coords, X.comps):
        out = out + c * scalar.diff(f, name)
    return out


def reference_lie_bracket(X, Y):
    """``[X, Y]^k = sum_i (X^i dY^k/dx_i - Y^i dX^k/dx_i)``."""
    X._check(Y)
    comps = []
    for k in range(len(X.coords)):
        out = ZERO
        for i, name in enumerate(X.coords):
            out = out + X.comps[i] * scalar.diff(Y.comps[k], name)
            out = out - Y.comps[i] * scalar.diff(X.comps[k], name)
        comps.append(out)
    return VectorField(X.coords, comps)


def _is0(e):
    return isinstance(e, Rat) and e.value == 0


def reference_frame_brackets(M):
    n = M.dim
    brackets = [[None] * n for _ in range(n)]
    for i in range(n):
        brackets[i][i] = [ZERO] * n
        for j in range(i + 1, n):
            brackets[i][j] = M.to_frame(reference_lie_bracket(M.frame[i], M.frame[j]))
            brackets[j][i] = [-c for c in brackets[i][j]]
    return brackets


def reference_koszul(M):
    """``(gamma, brackets)`` with three ``g_frame`` loops per ``(i, j, k)``."""
    n = M.dim
    brackets = reference_frame_brackets(M)

    def g_frame(c, d):
        out = ZERO
        for a in range(n):
            if _is0(c[a]):
                continue
            for b in range(n):
                if not _is0(d[b]) and not _is0(M.metric[a][b]):
                    out = out + c[a] * d[b] * M.metric[a][b]
        return out

    basis = [[ONE if k == m else ZERO for m in range(n)] for k in range(n)]
    gamma = []
    for i in range(n):
        row_i = []
        for j in range(n):
            rhs = []
            for k in range(n):
                term = reference_apply(M.frame[i], M.metric[j][k])
                term = term + reference_apply(M.frame[j], M.metric[k][i])
                term = term - reference_apply(M.frame[k], M.metric[i][j])
                term = term - g_frame(basis[i], brackets[j][k])
                term = term - g_frame(basis[j], brackets[i][k])
                term = term + g_frame(basis[k], brackets[i][j])
                rhs.append(HALF * term)
            entry = [
                scalar.add_all([M.metric_inverse[m][k] * rhs[k] for k in range(n)])
                for m in range(n)
            ]
            row_i.append(entry)
        gamma.append(row_i)
    return gamma, brackets


MANIFOLDS = ("ex1", "ex2", "ex3", "flat", "heis", "dim7", "warped")


@pytest.fixture(scope="module")
def manifolds(request):
    out = {name: request.getfixturevalue(name).M for name in MANIFOLDS[:5]}
    out["dim7"] = manifest.load(DIM7).manifold()
    out["warped"] = warped()
    return out


def _fields(M):
    """Frame vectors, phi images and random polynomial fields."""
    fields = list(M.frame) + [ref_from_frame(M, row) for row in M.phi]
    fields += random_vector_fields(M, 3, seed=11, degree=2)
    return fields


def _functions(M, conn):
    rng = random.Random(M.name)
    fs = [e for row in M.metric for e in row] + list(M.eta_frame)
    fs += [c for v in M.frame for c in v.comps]
    fs += [e for row in M.metric_inverse for e in row] + [M.frame_det]
    fs += [random_polynomial(rng, M.coords, degree=2) for _ in range(4)]
    fs += [e for row in conn.gamma for comps in row for e in comps]
    fs += [Rat(0), Rat(3), Rat(-1) / Rat(2)]
    return fs


@pytest.mark.parametrize("name", MANIFOLDS)
def test_koszul_matches_reference(manifolds, name):
    M = manifolds[name]
    conn = koszul(M)
    gamma, brackets = reference_koszul(M)
    assert M.brackets == brackets, name
    assert conn.gamma == gamma, name


@pytest.mark.parametrize("name", MANIFOLDS)
def test_apply_matches_reference(manifolds, name):
    M = manifolds[name]
    conn = koszul(M)
    for X in _fields(M):
        for f in _functions(M, conn):
            got = X.apply(f)
            assert got == reference_apply(X, f), (name, str(X), str(f), str(got))


@pytest.mark.parametrize("name", MANIFOLDS)
def test_lie_bracket_matches_reference(manifolds, name):
    M = manifolds[name]
    fields = _fields(M)
    for X in fields:
        for Y in fields:
            assert lie_bracket(X, Y) == reference_lie_bracket(X, Y), (name, str(X), str(Y))
