"""``Sampler._generate`` against the earlier per-coordinate construction.

``reference_generate`` is the earlier ``Sampler._generate``, kept verbatim
apart from its name and its rejection rule: each coordinate was ``lo +
(hi - lo) * Fraction(m, 2^24)``, four ``Fraction`` operations. The
current one builds each coordinate as one ``Fraction(a + b m, den)``.
The rule is the current one: a candidate is rejected where a constraint
has a pole, overflows or has no finite value, as where it is within the
margin of 0. The point lists must be equal, with the same key order, and
a shortfall must raise the same message.
"""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from contactgeo.errors import DivisionByZero, InsufficientSamples
from contactgeo.scalar import _DENOM, _PRIMES, Sampler, _eval, parse


def reference_generate(self):
    strides = []
    phases = []
    state = (self.seed * 6364136223846793005 + 1442695040888963407) % (1 << 63)
    for d in range(len(self.names)):
        strides.append(math.sqrt(_PRIMES[d % len(_PRIMES)]) % 1.0)
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 63)
        phases.append((state >> 11) / float(1 << 52))
    pts = []
    attempts = 0
    k = 0
    limit = max(200, 80 * self.count)
    while len(pts) < self.count and attempts < limit:
        attempts += 1
        env = {}
        for d, name in enumerate(self.names):
            u = (phases[d] + (k + 1) * strides[d]) % 1.0
            lo, hi = self.box[name]
            frac = Fraction(round(u * _DENOM), _DENOM)
            env[name] = lo + (hi - lo) * frac
        k += 1
        ok = True
        for g in self.nonvanish:
            try:
                val = abs(float(_eval(g, env, {})))
            except (DivisionByZero, OverflowError):
                ok = False
                break
            if not self.margin <= val < math.inf:
                ok = False
                break
        if ok:
            pts.append(env)
    if len(pts) < self.count:
        raise InsufficientSamples(
            f"only {len(pts)} of {self.count} sample points satisfy the domain constraints"
        )
    return pts


NAMES = ("x", "y", "v")
# nonvanishing constraints and the coordinates each one reads; exp(400*y)
# overflows where y > 1.78, inside boxes of [-5, 5]
CONSTRAINTS = {"x": {"x"}, "y - x": {"x", "y"}, "1/v": {"v"},
               "x*v - 1/3": {"x", "v"}, "exp(y) - 1": {"y"},
               "exp(400*y) - 1": {"y"}}


def bounds():
    """Integer, fractional, negative and float-string box bounds."""
    return st.one_of(
        st.integers(min_value=-5, max_value=5),
        st.fractions(min_value=-5, max_value=5, max_denominator=12),
        st.decimals(min_value=-5, max_value=5, places=3).map(str),
        st.floats(min_value=-5, max_value=5, width=32),
    )


@st.composite
def samplers(draw):
    names = draw(st.lists(st.sampled_from(NAMES), min_size=0, max_size=3, unique=True))
    box = {n: (draw(bounds()), draw(bounds()))
           for n in names if draw(st.booleans())}
    usable = sorted(c for c, reads in CONSTRAINTS.items() if reads <= set(names))
    chosen = draw(st.lists(st.sampled_from(usable), unique=True)) if usable else []
    nonvanish = [parse(c) for c in chosen]
    return Sampler(names, box, nonvanish=nonvanish,
                   seed=draw(st.integers(min_value=0, max_value=1 << 40)),
                   count=draw(st.integers(min_value=0, max_value=12)))


def outcome(generate, sampler):
    try:
        pts = generate(sampler)
    except InsufficientSamples as ex:
        return ("InsufficientSamples", str(ex))
    return [[(k, type(v), v) for k, v in env.items()] for env in pts]


@given(samplers())
@settings(max_examples=200, deadline=None)
def test_generate_matches_reference(sampler):
    assert outcome(Sampler._generate, sampler) == outcome(reference_generate, sampler)


def test_reference_covers_a_shortfall():
    s = Sampler(("x",), {"x": (0, 0)}, nonvanish=(parse("x"),), count=3)
    expected = ("InsufficientSamples",
                "only 0 of 3 sample points satisfy the domain constraints")
    assert outcome(reference_generate, s) == expected
    assert outcome(Sampler._generate, s) == expected


def test_a_constraint_that_divides_by_zero_rejects_the_candidate():
    # x = 0 at every candidate, so 1/x raises and each one is rejected
    s = Sampler(("x", "y"), {"x": (0, 0)}, nonvanish=(parse("1/x"),), count=2)
    expected = ("InsufficientSamples",
                "only 0 of 2 sample points satisfy the domain constraints")
    assert outcome(reference_generate, s) == expected
    assert outcome(Sampler._generate, s) == expected
