"""Enclosures of scalar fields on the domain box, and what they spare.

``geometry.bounds`` encloses a field, and the value ``evaluate`` gives
it (a float once an exp enters), on the closed coordinate box.
``ManifoldSpec`` accepts a determinant whose enclosure stays 2 * tol away
from 0 without evaluating it at any point, and otherwise runs the point
loop, whose witness and errors these tests compare with a plain loop
over the same points. The sample points are drawn at construction only
when a nonvanishing constraint's enclosure comes within 2 * margin of 0.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from contactgeo import manifest, scalar
from contactgeo.errors import NonFiniteValue, SingularFrame
from contactgeo.geometry import ManifoldSpec, bounds
from contactgeo.scalar import (
    ONE, Rat, Sampler, Sym, ZERO, evaluate, exp_of, parse, pow_int,
)

NAMES = ("x", "y", "z")
BOX = {"x": (-1, 1), "y": (-1, 1), "z": (-1, 1)}


def _box(box):
    return {k: (Fraction(lo), Fraction(hi)) for k, (lo, hi) in box.items()}


# --- bounds --------------------------------------------------------------------


def test_bounds_of_simple_fields_are_exact():
    box = _box({"x": (-1, 2), "y": (1, 2)})
    assert bounds(parse("x^2 - 1"), box) == (-1, 3)
    assert bounds(parse("x*y + 3"), box) == (1, 7)
    assert bounds(parse("1/y"), box) == (Fraction(1, 2), 1)
    assert bounds(parse("y^(-2)"), box) == (Fraction(1, 4), 1)
    assert bounds(Rat(Fraction(-2, 3)), box) == (Fraction(-2, 3), Fraction(-2, 3))


def test_exp_bounds_are_rounded_outward():
    lo, hi = bounds(parse("exp(x)"), _box({"x": (0, 1)}))
    assert lo < 1 < hi and hi > Fraction(2.718281828459045)
    assert hi - lo < Fraction(2)


@pytest.mark.parametrize("text, box", [
    ("1/x", {"x": (-1, 1)}),           # a negative power of a base that can be 0
    ("x^(-2) + 1", {"x": (0, 1)}),
    ("exp(1000*x)", {"x": (0, 1)}),    # an exp that overflows
    ("y + 1", {"x": (0, 1)}),          # a coordinate the box does not bound
])
def test_bounds_undecided(text, box):
    assert bounds(parse(text), _box(box)) is None


def _trees():
    leaves = st.one_of(
        st.fractions(min_value=-3, max_value=3, max_denominator=8).map(Rat),
        st.sampled_from(("x", "y")).map(Sym),
    )

    def power(pair):
        base, n = pair
        return pow_int(base, abs(n) if base is ZERO else n)

    def grow(children):
        return st.one_of(
            st.tuples(children, children).map(lambda p: p[0] + p[1]),
            st.tuples(children, children).map(lambda p: p[0] * p[1]),
            st.tuples(children, st.integers(min_value=-3, max_value=3)).map(power),
            children.map(exp_of),
        )

    return st.recursive(leaves, grow, max_leaves=6)


@pytest.mark.parametrize("text", ["1 + exp(-2)", "y + exp(-2)", "4/3 + exp(-1/4)"])
def test_bounds_enclose_the_float_that_evaluate_rounds_to(text):
    # the exact upper end of 1 + exp(-2) is 1 plus exp(-2) rounded up, but
    # evaluate adds in floats, and 1.0 + exp(-2) rounds up past it
    e = parse(text)
    lo, hi = bounds(e, _box({"x": (0, 0), "y": (1, 1)}))
    value = evaluate(e, {"x": Fraction(0), "y": Fraction(1)})
    assert isinstance(value, float)
    assert lo <= value <= hi


def _intervals():
    end = st.fractions(min_value=-2, max_value=2, max_denominator=16)
    return st.tuples(end, end).map(sorted).map(tuple)


@given(_trees(), _intervals(), _intervals(), st.integers(min_value=0, max_value=1 << 20))
@settings(max_examples=200, deadline=None)
def test_bounds_enclose_every_sample_point(e, bx, by, seed):
    box = {"x": bx, "y": by}
    span = bounds(e, box)
    if span is None:
        return
    lo, hi = span
    assert lo <= hi
    # a field the box encloses has no pole and no overflow there, so every
    # point gives it a finite value
    for env in Sampler(("x", "y"), box, seed=seed, count=8).points():
        value = evaluate(e, env)
        assert lo <= value <= hi, (scalar.to_str(e), env, value)


# --- determinants --------------------------------------------------------------


def _spec(det_entry, tol=1e-9, box=BOX, nonvanish=()):
    """A dim-3 manifold whose frame determinant is ``det_entry``."""
    frame = [[det_entry, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]
    eye = [[ONE if i == j else ZERO for j in range(3)] for i in range(3)]
    return ManifoldSpec("m", NAMES, frame, eye, eye, 2, box=box,
                        nonvanish=nonvanish, samples=15, tol=tol)


def _loop_outcome(det, tol, box=BOX):
    """What the point loop does with ``det``: the first point where it
    breaks the tolerance, ``NonFiniteValue`` with the first point where it
    has no finite value, or None."""
    for env in Sampler(NAMES, box, count=15).points():
        point = {k: str(v) for k, v in env.items()}
        try:
            value = evaluate(det, env)
        except NonFiniteValue:
            return NonFiniteValue, point
        if abs(float(value)) < tol:
            return point
    return None


def test_a_determinant_off_zero_on_the_box_draws_no_point():
    M = _spec(parse("exp(x) + x^2"))
    assert bounds(M.frame_det, M.sampler.box)[0] > 2 * M.tol
    assert M.sampler._points is None
    # the points are drawn on first use, identical to an eager draw
    assert M.sampler.points() == Sampler(NAMES, BOX, count=15).points()


@pytest.mark.parametrize("text", ["exp(-40*x)", "1/1000000000000*exp(x)"])
def test_a_determinant_below_the_tolerance_is_singular_at_the_loops_witness(text):
    det = parse(text)
    witness = _loop_outcome(det, 1e-9)
    assert isinstance(witness, dict)
    with pytest.raises(SingularFrame, match=r"det\(frame\)") as info:
        _spec(det)
    assert info.value.witness == witness


def test_a_determinant_straddling_the_gap_is_judged_at_the_points():
    # exp(-41/2 x) dips to 1.25e-9 on the box, inside 2 * tol of 0 but
    # never below tol: the loop runs and accepts it
    det = parse("exp(-41/2*x)")
    assert 1e-9 < bounds(det, _box(BOX))[0] < 2e-9
    assert _loop_outcome(det, 1e-9) is None
    M = _spec(det)
    assert M.sampler._points is not None


def test_a_determinant_whose_exp_overflows_raises_as_the_loop_does():
    # exp(1000 x) >= 1 on the box, and overflows past x = 0.71
    box = dict(BOX, x=(0, 1))
    det = parse("exp(1000*x)")
    assert bounds(det, _box(box)) is None
    outcome, point = _loop_outcome(det, 1e-9, box)
    assert outcome is NonFiniteValue
    with pytest.raises(NonFiniteValue, match=r"math range error") as info:
        _spec(det, box=box)
    assert info.value.witness == point


def test_a_determinant_that_overflows_only_off_the_points_is_accepted():
    # the enclosure overflows at the top corner of the box, which no
    # sample point reaches, so the loop accepts it as before
    box = dict(BOX, x=(0, Fraction(1002, 1000)))
    det = parse("exp(709*x)")
    assert bounds(det, _box(box)) is None
    assert _loop_outcome(det, 1e-9, box) is None
    _spec(det, box=box)


# --- when the points are drawn -------------------------------------------------


def test_a_constraint_off_zero_on_the_box_defers_the_draw():
    M = _spec(ONE, nonvanish=(parse("y + 3"),))
    assert M.sampler._points is None


def test_a_constraint_that_can_reject_draws_at_construction():
    # the candidates are checked against the constraint at construction,
    # and the points are built only on first use
    M = _spec(ONE, nonvanish=(parse("y"),))
    assert len(M.sampler._accepted) == 15
    assert M.sampler._points is None


@pytest.mark.parametrize("name, checked", [
    ("example1", False), ("example2", False), ("example3", True),
    ("flat", False), ("eta_einstein", False),
])
def test_fixtures_draw_only_where_a_constraint_straddles_zero(name, checked):
    # example3 declares y non-zero on [-2, 2], so only its candidates are
    # checked at construction; no fixture builds a point there
    M = manifest.resolve(name).manifold()
    assert (M.sampler._accepted is not None) == checked
    assert M.sampler._points is None


def _record_coordinates(monkeypatch):
    """The (axis, k) of every sample coordinate built from here on."""
    built = []
    coordinate = scalar._coordinate

    def recording(axis, k):
        built.append((axis, k))
        return coordinate(axis, k)

    monkeypatch.setattr(scalar, "_coordinate", recording)
    return built


def test_example3_builds_no_point_at_construction(monkeypatch):
    built = _record_coordinates(monkeypatch)
    sampler = manifest.resolve("example3").manifold().sampler
    assert sampler._points is None
    assert len(sampler._accepted) == sampler.count
    # each candidate checked is built in y, the one coordinate its constraint reads
    y = sampler._axes()["y"]
    assert built == [(y, k) for k in range(1, sampler._accepted[-1] + 1)]


def test_checking_candidates_builds_only_the_coordinates_a_constraint_reads(monkeypatch):
    built = _record_coordinates(monkeypatch)
    sampler = Sampler(NAMES, BOX, nonvanish=(parse("z"),), count=20, margin=0.5)
    z = sampler._axes()["z"]
    accepted = sampler.accepted()
    # about half the candidates have |z| < 1/2 and are rejected
    assert len(built) == accepted[-1] > len(accepted) == 20
    assert {axis for axis, _ in built} == {z}
    del built[:]
    points = sampler.points()
    assert len(built) == 3 * 20
    assert all(list(env) == list(NAMES) and abs(env["z"]) >= Fraction(1, 2) for env in points)
