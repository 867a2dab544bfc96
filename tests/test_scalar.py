"""Expression algebra: parsing, simplification, differentiation, sampling."""

import math
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from contactgeo import scalar
from contactgeo.errors import (
    DivisionByZero, ExpressionError, InsufficientSamples, NonFiniteValue, ParseError,
)
from contactgeo.geometry import VectorField
from contactgeo.scalar import (
    Add, Exp, Mul, Pow, Rat, Sampler, Sym, ZERO, add, add_all, diff,
    evaluate, is_zero, mul, parse, sort_key, to_str,
)

from canonical_ref import simplify


def test_parse_round_trip():
    for text in ["x", "2*x + 1", "exp(-v)", "x*y - 3/2", "(x + y)^2",
                 "4*(y + z)", "v*v/2", "1/(1 + x^2)", "x + 1 ", " 2*x\t"]:
        e = parse(text)
        again = parse(to_str(e))
        assert to_str(simplify(e - again)) == "0"


def test_parse_rejects_garbage():
    for bad in ["", "2 +", "x y", "exp()", "1//2", "x^y", "@", "((x)", "sin(x)",
                "exp(x", 2, None]:
        with pytest.raises(ParseError):
            parse(bad)


def test_parse_reports_a_zero_divisor_at_its_operator():
    # the parser names the column; div and pow_int, for other callers, raise
    for text, column in [("1/0", 2), ("x/(y - y)", 2), ("0^-1", 2), ("2 + (x - x)^-2", 12)]:
        with pytest.raises(ParseError, match=rf"\(column {column}\)$"):
            parse(text)
    with pytest.raises(DivisionByZero):
        scalar.div(Rat(1), ZERO)
    with pytest.raises(DivisionByZero):
        scalar.pow_int(ZERO, -1)


def test_parse_bounds_the_nesting():
    # parentheses, exp( calls, prefix signs and exponents count together
    deep = scalar.MAX_NESTING
    assert parse("+x") is parse("x")
    for text in ["(" * deep + "x" + ")" * deep, "-" * deep + "x",
                 "-(" * (deep // 2) + "x" + ")" * (deep // 2)]:
        assert parse(text) in (parse("x"), parse("-x"))
    for text in ["(" * 300 + "x" + ")" * 300, "-" * 2000 + "x",
                 "exp(" * (deep + 1) + "x" + ")" * (deep + 1), "2^" * (deep + 1) + "1",
                 "(" * deep + "-x" + ")" * deep]:
        with pytest.raises(ParseError, match=rf"nested more than {deep} deep \(column \d+\)$"):
            parse(text)


def test_parse_bounds_the_constants():
    # every number an operator builds counts, and a power is refused before
    # it is computed; 2^3321 has 1000 digits and 2^3322 has 1001
    big = scalar.MAX_DIGITS
    accepted = ["9" * big, "0." + "9" * (big - 1), "2^3321", "10^999*x", "2^-3321",
                "(x^(10^999))^9", "exp(10^999*x)", "(2*x + y)^5000", "1^(10^999)"]
    for text in accepted:
        parse(text)
    assert parse("(2*x + y)^5000").exponent == 5000
    refused = [("9" * (big + 1), 1), ("0." + "9" * big, 1), ("2^3322", 2), ("2^-3322", 2),
               ("10^999*10^999*y", 7), ("10^999 + 9*10^999", 8), ("2^20000*y", 2),
               ("2^2^2^2^2^2*y", 4), ("(3/2)^6000", 6), ("(x^(10^999))^(10^999)", 13),
               ("exp(10^999*x)*exp(9*10^999*x)", 14)]
    for text, column in refused:
        with pytest.raises(ParseError,
                           match=rf"^constant of more than {big} digits \(column {column}\)$"):
            parse(text)


def test_simplify_is_idempotent(ex1, ex2, ex3, flat, heis):
    e = parse("(x + y)^2 - x^2 - 2*x*y - y^2")
    s = simplify(e)
    assert s == simplify(s)
    assert isinstance(s, Rat) and s.value == 0
    # every derived table entry is already canonical, so simplify is a no-op
    for b in (ex1, ex2, ex3, flat, heis):
        entries = [c for row in b.conn.gamma for comps in row for c in comps]
        entries += [c for plane in b.table.R for row in plane for comps in row
                    for c in comps]
        entries += [c for row in b.table.ricci for c in row]
        entries += [c for row in b.table.star_ricci for c in row]
        entries += [c for row in b.tensors.h + b.tensors.h_prime for c in row]
        for c in entries:
            assert simplify(c) == c, (b.manifest.name, to_str(c))


def test_simplify_folds_exp_products():
    e = simplify(parse("exp(x) * exp(-x)"))
    assert isinstance(e, Rat) and e.value == 1


def test_evaluate_exact_rationals():
    e = parse("x^2/3 - y/2")
    v = evaluate(e, {"x": Fraction(1, 2), "y": Fraction(1, 3)})
    assert v == Fraction(1, 12) - Fraction(1, 6)
    assert isinstance(v, Fraction)


def test_negative_powers_stay_exact():
    # an int to a negative power is a float; constants and values stay exact
    assert scalar.pow_int(Rat(2), -1) is Rat(Fraction(1, 2))
    assert scalar.pow_int(Rat(-2), -3) is Rat(Fraction(-1, 8))
    assert parse("2^(-2)") is Rat(Fraction(1, 4))
    v = evaluate(parse("x^(-2)"), {"x": 2})
    assert v == Fraction(1, 4) and isinstance(v, Fraction)
    v = evaluate(parse("x^(-1) + y^(-1)"), {"x": 2, "y": -2})
    assert v == 0 and not isinstance(v, float)


def test_evaluate_exp_goes_float():
    v = evaluate(parse("exp(2*x)"), {"x": Fraction(1, 2)})
    assert v == pytest.approx(math.e)


def test_evaluate_division_by_zero():
    with pytest.raises(NonFiniteValue, match=r"x vanishes") as info:
        evaluate(parse("1/x"), {"x": Fraction(0)})
    assert info.value.witness == {"x": "0"}


@pytest.mark.parametrize("text, reason", [
    ("exp(800*x)", "math range error"),     # the float exp overflows
    ("1 + x^1100", "too large"),            # exact, but past the float range
    ("x^500*exp(354*y) - y^500*exp(354*x)", "nan"),  # inf - inf, no exception
])
def test_evaluate_raises_where_the_value_is_no_finite_float(text, reason):
    env = {"x": 2, "y": Fraction(2)}
    with pytest.raises(NonFiniteValue, match=reason) as info:
        evaluate(parse(text), env)
    assert info.value.witness == {"x": "2", "y": "2"}


def test_diff_known_values():
    assert to_str(diff(parse("x^3"), "x")) == "3*x^2"
    assert to_str(simplify(diff(parse("exp(-v)"), "v") + parse("exp(-v)"))) == "0"
    assert to_str(diff(parse("x*y"), "y")) == "x"
    assert to_str(diff(parse("y"), "x")) == "0"


def test_diff_quotient():
    e = parse("1/(1 + x)")
    d = simplify(diff(e, "x") + parse("1/(1 + x)^2"))
    s = Sampler(("x",), {"x": (0, 1)}, count=20)
    assert is_zero(d, s).is_zero


def test_is_zero_verdicts():
    s = Sampler(("x",), {"x": (-1, 1)}, count=20)
    assert is_zero(parse("x - x"), s).kind == "proved_zero"
    v = is_zero(parse("x^2 + 1"), s)
    assert v.kind == "non_zero"
    env, value = v.witness
    assert value >= 1


def test_is_zero_fails_where_every_point_is_nan():
    # inf - inf at every point of this box: once read as numerically_zero
    # with max_abs 0.0, now an error at the first point
    e = parse("x^500*exp(354*y) - y^500*exp(354*x)")
    box = {"x": (Fraction(19, 10), 2), "y": (Fraction(19, 10), 2)}
    with pytest.raises(NonFiniteValue, match="nan") as info:
        is_zero(e, Sampler(("x", "y"), box))
    first = Sampler(("x", "y"), box).points()[0]
    assert info.value.witness == {k: str(v) for k, v in first.items()}
    # on a box where every value is finite the field is judged
    box = {"x": (1, Fraction(5, 4)), "y": (1, Fraction(5, 4))}
    assert is_zero(e, Sampler(("x", "y"), box)).kind == "non_zero"


def test_is_zero_of_a_constant_past_the_float_range_fails_everywhere():
    with pytest.raises(NonFiniteValue, match=r"\[witness: \{\}\]$") as info:
        is_zero(parse("2^1100"))
    assert info.value.witness == {}
    assert is_zero(parse("2^1000")).kind == "non_zero"


def test_is_zero_requires_sampler_for_open_terms():
    with pytest.raises(ExpressionError):
        is_zero(parse("x + 1"))


def test_sampler_determinism_and_margin():
    box = {"x": (-2, 2), "v": (Fraction(1, 2), 2)}
    s1 = Sampler(("x", "v"), box, nonvanish=(parse("v"),), seed=7, count=30)
    s2 = Sampler(("x", "v"), box, nonvanish=(parse("v"),), seed=7, count=30)
    assert s1.points() == s2.points()
    s3 = Sampler(("x", "v"), box, seed=8, count=30)
    assert s1.points() != s3.points()
    for env in s1.points():
        assert Fraction(-2) <= env["x"] <= Fraction(2)
        assert Fraction(1, 2) <= env["v"] <= Fraction(2)
        assert abs(env["v"]) > Fraction(1, 1000)


def test_sampler_rejects_candidates_where_a_constraint_overflows():
    # exp(800 x) overflows past x = 0.8873 and is within the margin of 0
    # below x = -0.0087; x^500 exp(354 y) is inf on [19/10, 2]^2 without
    # raising
    s = Sampler(("x",), {"x": (-2, 2)}, nonvanish=(parse("exp(800*x)"),), count=20)
    assert all(Fraction(-87, 10000) < env["x"] < Fraction(8873, 10000) for env in s.points())
    box = {"x": (Fraction(19, 10), 2), "y": (Fraction(19, 10), 2)}
    s = Sampler(("x", "y"), box, nonvanish=(parse("x^500*exp(354*y)"),), count=5)
    with pytest.raises(InsufficientSamples, match="only 0 of 5"):
        s.points()


def test_sampler_points_are_exact_rationals():
    s = Sampler(("x",), {}, count=5)
    for env in s.points():
        assert isinstance(env["x"], Fraction)


# random polynomials over a fixed small alphabet
def polys():
    coeff = st.integers(min_value=-3, max_value=3)
    return st.lists(st.tuples(coeff, st.integers(0, 3), st.integers(0, 2)),
                    min_size=1, max_size=4).map(
        lambda terms: simplify(sum(
            (Rat(c) * scalar.pow_int(parse("x"), i) * scalar.pow_int(parse("y"), j)
             for c, i, j in terms), ZERO)))


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_diff_product_rule(p, q):
    lhs = diff(simplify(p * q), "x")
    rhs = diff(p, "x") * q + p * diff(q, "x")
    assert isinstance(simplify(lhs - rhs), Rat)
    assert simplify(lhs - rhs).value == 0


@given(polys(), st.integers(min_value=-5, max_value=5),
       st.integers(min_value=-5, max_value=5))
@settings(max_examples=60, deadline=None)
def test_simplify_preserves_value(p, a, b):
    env = {"x": Fraction(a, 7), "y": Fraction(b, 5)}
    assert evaluate(p, env) == evaluate(simplify(p * Rat(1)), env)


# sums mixing polynomial, exp and opaque negative-power factors
def mixed_terms():
    return st.builds(
        lambda c, i, k, m: Rat(c) * parse(f"x^{i} * exp({k}*y) / (1 + x^2)^{m}"),
        st.integers(min_value=-3, max_value=3), st.integers(0, 2),
        st.integers(-1, 1), st.integers(0, 1))


def mixed():
    return st.lists(mixed_terms(), min_size=0, max_size=4).map(
        lambda ts: reduce(add, ts, ZERO))


def _terms(e):
    return list(e.terms) if isinstance(e, Add) else [e]


@given(st.lists(st.one_of(polys(), mixed()), max_size=6), st.data())
@settings(max_examples=80, deadline=None)
def test_add_all_is_any_left_fold_of_add(xs, data):
    order = data.draw(st.permutations(xs))
    assert add_all(xs) == reduce(add, order, ZERO)
    assert to_str(add_all(xs)) == to_str(add_all(order))


@given(st.one_of(polys(), mixed()), st.one_of(polys(), mixed()))
@settings(max_examples=80, deadline=None)
def test_mul_is_add_all_of_term_products(s, t):
    products = [mul(a, b) for a in _terms(s) for b in _terms(t)]
    assert mul(s, t) == add_all(products)


def parent_sort_key(e):
    """The earlier key: every ``Rat`` keyed by its ``Fraction``, uncached."""
    if isinstance(e, Rat):
        return (0, e.value)
    if isinstance(e, Sym):
        return (1, e.name)
    if isinstance(e, Exp):
        return (2, parent_sort_key(e.arg))
    if isinstance(e, Pow):
        return (3, parent_sort_key(e.base), e.exponent)
    if isinstance(e, Mul):
        return (4, tuple(parent_sort_key(f) for f in e.factors))
    return (5, tuple(parent_sort_key(t) for t in e.terms))


# integer and non-integer coefficients, in terms, exp arguments and bases
def rationals():
    return st.fractions(min_value=-3, max_value=3, max_denominator=4)


def rational_nodes():
    term = st.builds(
        lambda c, i, k, d, m: parse(
            f"({c}) * x^{i} * exp(({k})*y) / (1 + ({d})*x^2)^{m}"),
        rationals(), st.integers(0, 2), rationals(), rationals(), st.integers(0, 1))
    return st.one_of(
        rationals().map(Rat),
        term,
        st.lists(term, min_size=2, max_size=3).map(add_all),
    )


@given(st.lists(rational_nodes(), max_size=8))
@settings(max_examples=100, deadline=None)
def test_sort_key_orders_like_fraction_key(nodes):
    assert sorted(nodes, key=sort_key) == sorted(nodes, key=parent_sort_key)
    for a in nodes:
        for b in nodes:
            new_a, new_b = sort_key(a), sort_key(b)
            old_a, old_b = parent_sort_key(a), parent_sort_key(b)
            assert (new_a < new_b) == (old_a < old_b)
            assert (new_a == new_b) == (old_a == old_b)


# --- the interned zero --------------------------------------------------------


@given(st.one_of(polys(), mixed()), st.fractions(max_denominator=9),
       st.integers(min_value=1, max_value=50))
@settings(max_examples=80, deadline=None)
def test_every_zero_constant_is_the_interned_zero(p, q, d):
    # zero tests are identity checks, so no second zero-valued Rat may exist
    assert Rat(Fraction(0, d)) is ZERO
    assert Rat("0") is ZERO and Rat(f"0/{d}") is ZERO and Rat(0) is ZERO
    assert Rat(0) is ZERO and Rat(Fraction(0, d)) is ZERO
    assert Rat(q) - Rat(q) is ZERO
    assert add_all([p, -p]) is ZERO
    assert add_all([p, Rat(q), -p, Rat(-q)]) is ZERO
    assert p - p is ZERO
    assert mul(p, ZERO) is ZERO and p * 0 is ZERO and Rat(q) * 0 is ZERO
    assert diff(Rat(q), "x") is ZERO and diff(p, "z") is ZERO
    assert VectorField(("x", "y"), [p, Rat(d)]).apply(Rat(q)) is ZERO
    assert VectorField(("x", "y"), [ZERO, ZERO]).apply(p) is ZERO


def test_derived_tables_hold_no_other_zero(ex1, ex2, ex3, flat, heis):
    def zero_copies(e):
        if isinstance(e, Rat):
            return [e] if e.value == 0 and e is not ZERO else []
        kids = getattr(e, "terms", None) or getattr(e, "factors", None) or ()
        kids = list(kids) + [getattr(e, a) for a in ("arg", "base") if hasattr(e, a)]
        return [z for k in kids for z in zero_copies(k)]

    for b in (ex1, ex2, ex3, flat, heis):
        t = b.table
        entries = [e for row in b.conn.gamma for comps in row for e in comps]
        entries += [e for row in t.R for col in row for comps in col for e in comps]
        entries += [e for row in t.ricci + t.star_ricci for e in row]
        entries += [e for row in b.tensors.h + b.tensors.h_prime for e in row]
        assert [z for e in entries for z in zero_copies(e)] == [], b.manifest.name


# --- the interned constants ---------------------------------------------------


def _parent_render(v):
    """A constant as the Fraction-valued kernel rendered it."""
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _parent_render_term(c, body):
    if c == 1:
        return body
    if c == -1:
        return f"-{body}"
    return f"{_parent_render(c)}*{body}"


@given(st.fractions(max_denominator=12), st.fractions(max_denominator=12),
       st.integers(min_value=-30, max_value=30))
@settings(max_examples=100, deadline=None)
def test_one_rat_per_value_and_ints_when_integral(p, q, k):
    # a value has one Rat, whatever it is built from, and its value is an
    # int exactly when it is integral
    assert Rat(Fraction(4, 2)) is Rat(2) and type(Rat(Fraction(4, 2)).value) is int
    for v in (p, q, p + q, p * q, Fraction(k)):
        r = Rat(v)
        assert r is Rat(v) is Rat(str(v))
        assert r.value == v and hash(r) == hash(Rat(v))
        assert type(r.value) is (int if v.denominator == 1 else Fraction)
    assert Rat(k) is Rat(Fraction(k)) and type(Rat(k).value) is int
    assert -Rat(p) is Rat(-p) and -(-Rat(p)) is Rat(p)
    # sums and products of constants, and constant coefficients, render as
    # the Fraction-valued kernel rendered them
    x = parse("x")
    assert to_str(Rat(p) + Rat(q)) == _parent_render(p + q)
    assert to_str(Rat(p) * Rat(q)) == _parent_render(p * q)
    assert to_str(Rat(p) - Rat(q)) == _parent_render(p - q)
    if p:
        assert to_str(Rat(p) * x) == _parent_render_term(p, "x")
        assert to_str(x / Rat(p)) == _parent_render_term(1 / p, "x")
        assert to_str(Rat(p) * x + Rat(q) * x) == (
            "0" if p + q == 0 else _parent_render_term(p + q, "x"))


def test_clear_caches_keeps_the_interned_constants():
    half = Rat(Fraction(1, 2))
    scalar.clear_caches()
    assert Rat(0) is ZERO and Rat(1) is scalar.ONE and Rat(-1) is scalar.MINUS_ONE
    assert Rat(Fraction(2, 4)) is half
    assert ZERO.value == 0 and type(scalar.ONE.value) is int


# --- one node protocol --------------------------------------------------------


def test_one_sym_per_name():
    # symbols are interned like constants: a parse and an operator product
    # share one Sym per name, and equality of symbols is identity
    x, y = Sym("x"), Sym("y")
    assert x is Sym("x") and x is not y and x != y and x != Rat(1)
    a, b = parse("x*y"), y * x
    assert a == b and a.factors[0] is b.factors[0] is x
    assert a.factors[1] is b.factors[1] is y
    assert parse("x^2").base is x and diff(parse("x*y"), "y") is x
    scalar.clear_caches()
    assert Sym("x") is x and hash(Sym("x")) == hash(x)


def test_every_node_class_is_immutable():
    x = Sym("x")
    nodes = (Rat(3), x, scalar.exp_of(x), x ** 2, 2 * x, x + 1)
    assert [type(e) for e in nodes] == [Rat, Sym, Exp, Pow, Mul, Add]
    for e in nodes:
        with pytest.raises(AttributeError, match="immutable"):
            e.value = 0
        with pytest.raises(AttributeError, match="immutable"):
            e._hash = 0
    assert nodes[0].value == 3


def test_compound_nodes_from_parse_and_operators_are_one_node():
    x, y = Sym("x"), Sym("y")
    pairs = [
        (parse("exp(x - y)"), scalar.exp_of(x - y)),
        (parse("(x + y)^(-3)"), (x + y) ** -3),
        (parse("2*x*y"), 2 * x * y),
        (parse("x*y + exp(x) - 1/2"), y * x + scalar.exp_of(x) - Rat(Fraction(1, 2))),
    ]
    for (a, b), kind in zip(pairs, (Exp, Pow, Mul, Add)):
        assert type(a) is type(b) is kind and a is b
        assert a == b and not a != b and hash(a) == hash(b)
        slots = {a: "parsed"}
        assert slots[b] == "parsed" and len({a, b}) == 1
    with pytest.raises(ExpressionError, match="only integer powers are supported"):
        x ** Fraction(1, 2)


def test_compound_nodes_outlive_clear_caches():
    # every node is interned in a table that clear_caches leaves alone, so a
    # node built before the call is the one built after it
    x, y = Sym("x"), Sym("y")

    def build():
        return (scalar.exp_of(x - y), (x + y) ** -3, 2 * x * y, x * y + scalar.exp_of(x))

    before = build()
    scalar.clear_caches()
    after = build()
    assert [type(e) for e in before] == [Exp, Pow, Mul, Add]
    assert all(a is b for a, b in zip(before, after))
    # the constructors return the interned node, from a list or a tuple
    assert Mul([x, y]) is Mul((x, y)) is x * y
    assert Exp(x - y) is before[0] and Pow(x + y, -3) is before[1]
    assert Mul([Rat(2), x, y]) is before[2] and Add(list(before[3].terms)) is before[3]


def test_power_of_a_power_multiplies_the_exponents():
    x = Sym("x")
    assert (x ** 2) ** 3 is x ** 6 and type(x ** 6) is Pow
    assert (x ** 2) ** -1 is x ** -2
    # a negative power of a sum stays opaque, and inverting it expands the sum
    inv = (x + 1) ** -2
    assert type(inv) is Pow and inv.base is x + 1
    assert inv ** -1 is parse("x^2 + 2*x + 1")


# --- one operator protocol ----------------------------------------------------


def test_reflected_operators_match_their_rat_forms():
    # an int or Fraction on either side becomes a Rat, and a reflected
    # operator keeps the operand order: 1 - x is Rat(1) - x, not x - 1
    x = Sym("x") + Sym("y") ** 2
    third = Fraction(1, 3)
    pairs = [
        (1 - x, Rat(1) - x),
        (2 / x, Rat(2) / x),
        (1 + x, Rat(1) + x),
        (3 * x, Rat(3) * x),
        (third * x, Rat(third) * x),
        (x - third, x - Rat(third)),
        (x / 2, x * Rat(Fraction(1, 2))),
    ]
    for got, want in pairs:
        assert got is want, (got, want)
    assert str(1 - x) == "1 - x - y^2" and str(2 / x) == "2*(x + y^2)^(-1)"
    assert 1 - Rat(3) is Rat(-2) and Fraction(1, 2) / Rat(2) is Rat(Fraction(1, 4))


def test_operators_reject_other_operands():
    x = Sym("x")
    for op in (lambda: x + 1.5, lambda: 1.5 + x, lambda: x - 1.5, lambda: 1.5 - x,
               lambda: x * "a", lambda: "a" * x, lambda: x / 1.5, lambda: 1.5 / x):
        with pytest.raises(TypeError):
            op()
