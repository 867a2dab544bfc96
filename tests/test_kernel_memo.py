"""The memoized product kernel against the earlier un-memoized one.

``scalar.mul`` multiplies coefficient-free monomials once per command
and keeps them in ``scalar._mul_cache``; ``canonical_ref.ref_mul`` is the
product as it was before, rebuilding every pair of terms. Canonical trees
are equal by value, so the two must agree node for node, on a cold memo
and on a warm one.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from contactgeo import cli, scalar
from contactgeo.scalar import Add, Rat, Sym, ZERO, add_all, diff, mul, parse, to_str

from canonical_ref import ref_mul, ref_pow_int

X, Y = Sym("x"), Sym("y")
# opaque sums: a merged exponent in 1..6 multiplies them out again
BASES = (parse("1 + x"), parse("x - y"), parse("1 + exp(y)"))
EXPONENTS = (-7, -2, -1, 0, 7, 8)


def coefficients():
    return st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@st.composite
def terms(draw):
    """A canonical term: a rational coefficient (negative and non-integer
    ones included) times powers of x and y, an exp factor and powers of
    opaque sums, built with the reference product."""
    out = Rat(draw(coefficients()))
    out = ref_mul(out, ref_pow_int(X, draw(st.integers(0, 2))))
    out = ref_mul(out, ref_pow_int(Y, draw(st.integers(-1, 1))))
    k = draw(st.integers(-1, 1))
    if k:
        out = ref_mul(out, scalar.exp_of(Rat(k) * X))
    for base in draw(st.lists(st.sampled_from(BASES), max_size=2, unique=True)):
        out = ref_mul(out, ref_pow_int(base, draw(st.sampled_from(EXPONENTS))))
    return out


def trees():
    sums = st.lists(terms(), min_size=1, max_size=3).map(add_all)
    return st.one_of(sums, coefficients().map(Rat))


@given(trees(), trees())
@settings(max_examples=150, deadline=None)
def test_mul_matches_the_unmemoized_product(a, b):
    want = ref_mul(a, b)
    scalar.clear_caches()
    cold = mul(a, b)
    warm = mul(a, b)
    assert cold == want and warm == want
    assert to_str(cold) == to_str(want)
    assert mul(b, a) == ref_mul(b, a)
    assert -a == ref_mul(Rat(-1), a)


def test_memo_hits_scale_products_that_are_sums():
    # (1 + x)^7 * (1 + x)^-1 = (1 + x)^6 comes back multiplied out; a warm
    # memo must scale every term of it, not just attach a leading factor
    p, q = ref_pow_int(BASES[0], 7), ref_pow_int(BASES[0], -1)
    scalar.clear_caches()
    assert mul(p, q) == ref_pow_int(BASES[0], 6)
    for c in (Fraction(-3, 2), Fraction(2), Fraction(-1)):
        for cp, cq in ((c, 1), (1, c), (c, c)):
            got = mul(ref_mul(Rat(cp), p), ref_mul(Rat(cq), q))
            assert isinstance(got, Add)
            assert got == ref_mul(Rat(cp * cq), ref_pow_int(BASES[0], 6))


def test_constant_products_fold():
    assert mul(Rat(Fraction(-2, 3)), Rat(Fraction(3, 4))) == Rat(Fraction(-1, 2))
    assert mul(Rat(5), Rat(0)) is ZERO
    e = parse("x*y + 2*z - 3")
    # a coefficient is part of the sort key, so scaling re-sorts the terms
    for c in (Fraction(3), Fraction(-1, 2), Fraction(1)):
        assert mul(Rat(c), e) == ref_mul(Rat(c), e)
        assert mul(e, Rat(c)) == ref_mul(e, Rat(c))


def test_workspace_starts_with_empty_caches(monkeypatch):
    # a product and a derivative no fixture needs leave entries behind
    mul(parse("qq + 1"), parse("rr - 2"))
    diff(parse("qq^3*rr"), "qq")
    stale_mul = set(scalar._mul_cache)
    stale_diff = set(scalar._diff_cache)
    assert stale_mul and stale_diff
    seen = []
    resolve = cli.manifest_mod.resolve

    def spy(name):
        seen.append((len(scalar._mul_cache), len(scalar._diff_cache)))
        return resolve(name)

    monkeypatch.setattr(cli.manifest_mod, "resolve", spy)
    cli.Workspace(cli.parse_args(["check", "example1"]))
    # empty when the manifest is read, and the old entries stay gone
    assert seen == [(0, 0)]
    assert not stale_mul & set(scalar._mul_cache)
    assert not stale_diff & set(scalar._diff_cache)


def test_caches_do_not_grow_across_commands(capsys):
    argv = ["check", "example1", "--checks", "almost_contact,kenmotsu"]
    sizes = []
    for _ in range(2):
        assert cli.main(argv) in (0, 1)
        sizes.append((len(scalar._mul_cache), len(scalar._diff_cache)))
    cli.main(["check", "example2", "--checks", "kenmotsu"])
    cli.main(argv)
    sizes.append((len(scalar._mul_cache), len(scalar._diff_cache)))
    capsys.readouterr()
    assert sizes[0] == sizes[1] == sizes[2]
    assert sizes[0][0] > 0 and sizes[0][1] > 0
