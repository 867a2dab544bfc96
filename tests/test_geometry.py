"""Frame manifolds: vector fields, brackets, metric plumbing."""

import random
from fractions import Fraction

import pytest

from contactgeo import scalar
from contactgeo.errors import (
    ExpressionError, InsufficientSamples, SingularFrame, ValidationError,
)
from contactgeo.geometry import ManifoldSpec, VectorField, lie_bracket, sym_inverse
from contactgeo.scalar import ONE, Rat, Sampler, ZERO, parse

from canonical_ref import ref_from_frame, ref_gradient, simplify
from fields import random_vector_fields


def S(t):
    return parse(t)


def _simple(dim=3):
    eye = [[ONE if i == j else ZERO for j in range(dim)] for i in range(dim)]
    phi = [[ZERO] * dim for _ in range(dim)]
    phi[0][1] = ONE
    phi[1][0] = Rat(-1)
    return ManifoldSpec("m", ["x", "y", "z"], eye, eye, phi, 2,
                        box={"x": (-1, 1), "y": (-1, 1), "z": (-1, 1)},
                        samples=15)


def test_vector_field_applies_derivations():
    V = VectorField(("x", "y"), [S("y"), S("x")])
    out = simplify(V.apply(S("x*y")))
    # y d/dx + x d/dy applied to xy gives y^2 + x^2
    assert simplify(out - S("x^2 + y^2")) == Rat(0)
    with pytest.raises(ValidationError, match="2 components on a 3-dimensional chart"):
        VectorField(("x", "y", "z"), [S("y"), S("x")])


def test_lie_bracket_known_value():
    coords = ("x", "y", "z")
    e1 = VectorField(coords, [ONE, ZERO, ZERO])
    e3 = VectorField(coords, [S("2*x"), Rat(-1), ONE])
    br = lie_bracket(e1, e3)
    assert [simplify(c) for c in br.comps] == [Rat(2), Rat(0), Rat(0)]
    with pytest.raises(ValidationError, match="different charts"):
        lie_bracket(e1, VectorField(("x", "y", "w"), [ONE, ZERO, ZERO]))


def test_lie_bracket_antisymmetry_randomized():
    rng = random.Random(11)
    M = _simple()
    fields = random_vector_fields(M, 8, seed=5)
    for _ in range(10):
        X, Y = rng.sample(fields, 2)
        a = lie_bracket(X, Y)
        b = lie_bracket(Y, X)
        for p, q in zip(a.comps, b.comps):
            assert simplify(p + q) == Rat(0)


def test_sym_inverse_exact():
    m = [[S("2"), S("1")], [S("1"), S("1")]]
    inv, det = sym_inverse(m)
    assert simplify(det) == Rat(1)
    assert [[simplify(x) for x in row] for row in inv] == [
        [Rat(1), Rat(-1)], [Rat(-1), Rat(2)]]


def test_dimension_must_be_odd():
    eye2 = [[ONE, ZERO], [ZERO, ONE]]
    with pytest.raises(ValidationError):
        ManifoldSpec("m", ["x", "y"], eye2, eye2, eye2, 0)


def test_metric_symmetry_enforced():
    eye = [[ONE if i == j else ZERO for j in range(3)] for i in range(3)]
    bad = [row[:] for row in eye]
    bad[0][1] = ONE
    with pytest.raises(ValidationError):
        ManifoldSpec("m", ["x", "y", "z"], eye, bad, eye, 0)


def test_metric_and_phi_entries_must_be_scalar_fields():
    eye = [[ONE if i == j else ZERO for j in range(3)] for i in range(3)]
    ints = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    with pytest.raises(ExpressionError):
        ManifoldSpec("m", ["x", "y", "z"], eye, ints, eye, 2)
    with pytest.raises(ExpressionError):
        ManifoldSpec("m", ["x", "y", "z"], eye, eye, ints, 2)


def test_frame_and_phi_shapes_checked():
    eye = [[ONE if i == j else ZERO for j in range(3)] for i in range(3)]
    with pytest.raises(ValidationError, match="expected 3 frame vectors, got 2"):
        ManifoldSpec("m", ["x", "y", "z"], eye[:2], eye, eye, 2)
    with pytest.raises(ValidationError, match="phi_frame must be 3x3"):
        ManifoldSpec("m", ["x", "y", "z"], eye, eye, [row[:2] for row in eye], 2)


def test_xi_index_range_checked():
    eye = [[ONE if i == j else ZERO for j in range(3)] for i in range(3)]
    with pytest.raises(ValidationError):
        ManifoldSpec("m", ["x", "y", "z"], eye, eye, eye, 3)


def test_frame_round_trip(ex3):
    M = ex3.M
    V = VectorField(M.coords, [S("x"), S("y*y"), S("1")])
    back = ref_from_frame(M, M.to_frame(V))
    for p, q in zip(back.comps, V.comps):
        assert simplify(p - q) == Rat(0)


def test_gradient_duality_randomized(ex3):
    M = ex3.M
    rng = random.Random(3)
    fields = random_vector_fields(M, 6, seed=23)
    for f_text in ["x*y", "z^2 - x", "x + 2*y + 3*z"]:
        f = S(f_text)
        grad = ref_gradient(M, f)
        for X in fields:
            lhs = M.metric_apply(grad, M.to_frame(X))
            assert M.is_zero_field(lhs - X.apply(f)).is_zero
    assert rng  # keep the rng name; parallel structure with other suites


def test_gradient_on_scaled_frame(ex2):
    # harmonic coordinates scaled by v: grad f picks up a v^2 factor
    M = ex2.M
    f = S("x")
    got = ref_from_frame(M, ref_gradient(M, f))
    assert M.is_zero_field(got.comps[0] - S("v^2")).is_zero
    for k in range(1, 5):
        assert M.is_zero_field(got.comps[k]).is_zero


def test_singular_frame_rejected():
    # a dependent frame row can never be inverted
    rows = [[ONE, ZERO, ZERO], [ONE, ZERO, ZERO], [ZERO, ZERO, ONE]]
    eye = [[ONE if i == j else ZERO for j in range(3)] for i in range(3)]
    with pytest.raises(ValidationError):
        ManifoldSpec("m", ["x", "y", "z"], rows, eye, eye, 2,
                     box={"x": (-1, 1)}, samples=25)


# --- nondegeneracy on the sampling domain ----------------------------------------

BOX = {"x": (-1, 1), "y": (-1, 1), "z": (-1, 1)}


def _spec(frame, metric, tol=1e-9, box=BOX, nonvanish=()):
    eye = [[ONE if i == j else ZERO for j in range(3)] for i in range(3)]
    return ManifoldSpec("m", ["x", "y", "z"], frame or eye, metric or eye, eye, 2,
                        box=box, nonvanish=nonvanish, samples=15, tol=tol)


def _first_failing_point(det, tol):
    """The witness of the point loop: the first sample point where |det| < tol."""
    for env in Sampler(["x", "y", "z"], BOX, count=15).points():
        if abs(float(scalar.evaluate(det, env))) < tol:
            return {k: str(v) for k, v in env.items()}
    return None


def test_small_constant_metric_determinant_is_singular_at_the_first_point():
    # det = 1/1000 is a constant below the tolerance: judged once, and
    # reported at the first sample point, as the point loop reports it
    metric = [[Rat(Fraction(1, 1000)), ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]
    with pytest.raises(SingularFrame, match=r"det\(metric_frame\)") as info:
        _spec(None, metric, tol=1e-2)
    first = Sampler(["x", "y", "z"], BOX, count=15).points()[0]
    assert info.value.witness == {k: str(v) for k, v in first.items()}
    assert info.value.witness == _first_failing_point(Rat(Fraction(1, 1000)), 1e-2)
    # above the tolerance the same metric is accepted
    assert _spec(None, metric).metric_det == Rat(Fraction(1, 1000))


def test_frame_determinant_small_inside_the_box_is_singular_where_the_loop_finds_it():
    # det(frame) = x is not constant, so every point is evaluated
    frame = [[S("x"), ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]
    with pytest.raises(SingularFrame, match=r"det\(frame\)") as info:
        _spec(frame, None, tol=0.25)
    assert info.value.witness == _first_failing_point(S("x"), 0.25)
    assert abs(Fraction(info.value.witness["x"])) < Fraction(1, 4)


def test_unmeetable_domain_fails_its_acceptance_pass_at_construction():
    # both determinants are the constant 1, so no point is built, but the
    # candidates are checked against the constraint at construction, and
    # none keeps |x| >= 1e-3 on this box
    box = {"x": (Fraction(-1, 10000), Fraction(1, 10000))}
    with pytest.raises(InsufficientSamples):
        _spec(None, None, box=box, nonvanish=(S("x"),))
