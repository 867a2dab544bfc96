"""The connection engine on non-constant fields: torsion-free and metric.

The structure checks evaluate their tensorial identities on the frame
only. Frame operands have constant components, so they cannot show a
wrong derivative term in ``ConnectionTable.nabla_comps``; this gate does.
On seeded polynomial fields X, Y, Z it checks, component by component,
that the Levi-Civita connection is

* torsion-free: ``nabla_X Y - nabla_Y X = [X, Y]``;
* metric-compatible: ``X g(Y, Z) = g(nabla_X Y, Z) + g(Y, nabla_X Z)``.
"""

from pathlib import Path

import pytest

from contactgeo import manifest
from contactgeo.curvature import koszul
from contactgeo.geometry import lie_bracket
from contactgeo.scalar import Rat

from fields import random_vector_fields

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = ("ex1", "ex2", "ex3", "flat", "heis")
GOLDEN_DIM3 = ("kenmotsu_exp_3.json", "kenmotsu_poly_3.json")
SEEDS = (1729, 7, 101)


@pytest.fixture(scope="module")
def golden_dim3():
    out = {}
    for name in GOLDEN_DIM3:
        M = manifest.load(GOLDEN / name).manifold()
        out[name] = (M, koszul(M))
    return out


def _manifold(request, name):
    if name in FIXTURES:
        b = request.getfixturevalue(name)
        return b.M, b.conn
    return request.getfixturevalue("golden_dim3")[name]


def _fields(M, seed, count):
    fields = random_vector_fields(M, count, seed)
    for X in fields:
        assert not all(isinstance(c, Rat) for c in X.comps), "constant test field"
    return fields


def _assert_vanishes(M, label, e):
    v = M.is_zero_field(e)
    assert v.is_zero, (M.name, label, v)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", FIXTURES + GOLDEN_DIM3)
def test_connection_is_torsion_free(request, name, seed):
    M, conn = _manifold(request, name)
    X, Y = _fields(M, seed, 2)
    cx, cy = M.to_frame(X), M.to_frame(Y)
    a = conn.nabla_comps(cx, cy)
    b = conn.nabla_comps(cy, cx)
    br = M.to_frame(lie_bracket(X, Y))
    for k in range(M.dim):
        _assert_vanishes(M, f"(nabla_X Y - nabla_Y X - [X, Y])[{k + 1}]",
                         a[k] - b[k] - br[k])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", FIXTURES + GOLDEN_DIM3)
def test_connection_is_metric_compatible(request, name, seed):
    M, conn = _manifold(request, name)
    X, Y, Z = _fields(M, seed, 3)
    cx, cy, cz = M.to_frame(X), M.to_frame(Y), M.to_frame(Z)
    lhs = X.apply(M.metric_apply(cy, cz))
    rhs = (M.metric_apply(conn.nabla_comps(cx, cy), cz)
           + M.metric_apply(cy, conn.nabla_comps(cx, cz)))
    _assert_vanishes(M, "X g(Y, Z) - g(nabla_X Y, Z) - g(Y, nabla_X Z)", lhs - rhs)
