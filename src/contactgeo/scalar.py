"""Exact scalar fields over a coordinate chart.

The expression grammar is deliberately small: rational constants,
coordinate symbols, ``+ - * /``, integer powers, and ``exp``.  Every
arithmetic operation returns a tree in a canonical sum-of-products form:

* sums are flattened, like monomials merged, terms sorted;
* products are flattened, rational coefficients folded together, factors
  sorted, repeated bases merged, and exp factors multiplied out into a
  single node (``exp(a)*exp(b) -> exp(a+b)``, ``exp(a)^n -> exp(n*a)``);
* small positive integer powers of sums are expanded, so polynomial
  cancellations collapse to the literal zero constant.

Sums of any length go through ``add_all``, which merges all their terms
in one pass.  Because canonical forms are closed under the arithmetic,
callers never need to re-canonicalize a result.  Every node is
hash-consed: the module table ``_NODES`` holds one node per class and
fields, so two equal trees are one object, equality and hashing are
object identity, the zero constant is the module singleton ``ZERO`` and a
zero test is the identity check ``e is ZERO``.  Integral constants are
ints, and only the others are Fractions.  The base class ``ScalarField``
owns immutability and the operators, the latter made by one factory,
``_operator``; each node class's ``__new__`` only hands its fields to
``_intern``.  Differentiation is exact, and evaluation is exact over the
rationals whenever the expression contains no exp node.

Products of coefficient-free monomials and derivatives are memoized in
two module dicts; ``clear_caches`` empties both, and the CLI does so at
the start of every command.  The node table is never emptied.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import (DivisionByZero, ExpressionError, InsufficientSamples, NonFiniteValue,
                     ParseError)

_EXPAND_LIMIT = 6  # largest positive power of a sum that gets multiplied out


def _as_fraction(x):
    """The exact value of an int, Fraction or literal string: an int when
    it is integral, else a Fraction."""
    if isinstance(x, str):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise ExpressionError(f"cannot interpret {x!r} as an exact rational")


class ScalarField:
    """Base node; all instances are immutable, canonical and interned, so
    equality and hashing are object identity. A subclass's ``__new__``
    hands its fields to ``_intern``; ``+ - * /`` and their reflections come
    from the one factory ``_operator``."""

    __slots__ = ("_key",)

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def __neg__(self):
        return neg(self)

    def __pow__(self, n):
        return pow_int(self, n)

    def __repr__(self):
        return f"<{type(self).__name__} {to_str(self)}>"

    def __str__(self):
        return to_str(self)


_NODES = {}  # (class, *fields) -> its one node; never emptied


def _intern(cls, *fields):
    """The one node of ``cls`` with these fields (in ``__slots__`` order),
    made on first request."""
    key = (cls, *fields)
    node = _NODES.get(key)
    if node is None:
        node = _NODES[key] = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            object.__setattr__(node, name, value)
    return node


class Rat(ScalarField):
    """Rational constant: a zero value is always the singleton ``ZERO``.
    ``value`` is an int when integral, else a Fraction."""

    __slots__ = ("value",)

    def __new__(cls, value):
        return _intern(cls, value if type(value) is int else _as_fraction(value))


class Sym(ScalarField):
    """Coordinate symbol."""

    __slots__ = ("name",)

    def __new__(cls, name):
        return _intern(cls, name)


class Exp(ScalarField):
    __slots__ = ("arg",)

    def __new__(cls, arg):
        return _intern(cls, arg)


class Pow(ScalarField):
    """Integer power with base restricted to a symbol or an opaque sum."""

    __slots__ = ("base", "exponent")

    def __new__(cls, base, exponent):
        return _intern(cls, base, exponent)


class Mul(ScalarField):
    __slots__ = ("factors",)

    def __new__(cls, factors):
        return _intern(cls, tuple(factors))


class Add(ScalarField):
    __slots__ = ("terms",)

    def __new__(cls, terms):
        return _intern(cls, tuple(terms))


ZERO = Rat(0)
_Q1 = 1  # the coefficient of a coefficient-free term
ONE = Rat(_Q1)
MINUS_ONE = Rat(-1)


def sort_key(e):
    """Total order on canonical nodes (used to sort terms and factors)."""
    try:
        return e._key
    except AttributeError:
        pass
    if isinstance(e, Rat):
        k = (0, e.value)
    elif isinstance(e, Sym):
        k = (1, e.name)
    elif isinstance(e, Exp):
        k = (2, sort_key(e.arg))
    elif isinstance(e, Pow):
        k = (3, sort_key(e.base), e.exponent)
    elif isinstance(e, Mul):
        k = (4, tuple(sort_key(f) for f in e.factors))
    else:
        k = (5, tuple(sort_key(t) for t in e.terms))
    object.__setattr__(e, "_key", k)
    return k


# --- term/monomial bookkeeping -------------------------------------------
#
# A term is a rational coefficient times a coefficient-free monomial.  A
# monomial splits into a factor map, which sends a base node (Sym, or
# opaque Add) to its integer exponent, and the argument of its exp factor
# (None if it has none).


def _split_mono(e):
    """Decompose a coefficient-free monomial into (factors, exp_arg)."""
    if isinstance(e, Sym):
        return {e: 1}, None
    if isinstance(e, Exp):
        return {}, e.arg
    if isinstance(e, Pow):
        return {e.base: e.exponent}, None
    if isinstance(e, Mul):
        factors = {}
        exp_arg = None
        for f in e.factors:
            if isinstance(f, Sym):
                factors[f] = 1
            elif isinstance(f, Pow):
                factors[f.base] = f.exponent
            elif isinstance(f, Exp):
                exp_arg = f.arg
            else:  # pragma: no cover - a monomial holds no Rat, Add or Mul
                raise ExpressionError("non-canonical product factor")
        return factors, exp_arg
    return {}, None  # the monomial ONE


def _build_mono(factors, exp_arg):
    """Rebuild a canonical monomial from its factor map and exp argument.

    May return a full Add when an expandable sum power shows up after
    exponent merging.
    """
    # pull out sums raised to small positive powers and multiply them out
    for base, n in factors.items():
        if isinstance(base, Add) and 1 <= n <= _EXPAND_LIMIT:
            rest = dict(factors)
            del rest[base]
            return mul(_build_mono(rest, exp_arg), pow_int(base, n))
    parts = [base if n == 1 else Pow(base, n) for base, n in factors.items()]
    if exp_arg is not None and exp_arg is not ZERO:
        parts.append(Exp(exp_arg))
    if not parts:
        return ONE
    if len(parts) == 1:
        return parts[0]
    parts.sort(key=sort_key)
    return Mul(parts)


def _terms_of(e):
    if isinstance(e, Add):
        return list(e.terms)
    return [e]


def _strip_coeff(term):
    """Split a non-Add canonical node into (coeff, monomial-node)."""
    if isinstance(term, Rat):
        return term.value, ONE
    if isinstance(term, Mul) and isinstance(term.factors[0], Rat):
        rest = term.factors[1:]
        mono = rest[0] if len(rest) == 1 else Mul(rest)
        return term.factors[0].value, mono
    return _Q1, term


def _attach_coeff(coeff, mono):
    if mono is ONE:
        return Rat(coeff)
    if coeff is _Q1 or coeff == 1:
        return mono
    if isinstance(mono, Mul):
        return Mul((Rat(coeff),) + mono.factors)
    return Mul((Rat(coeff), mono))


def add_all(nodes):
    """Canonical sum of a sequence of canonical nodes, merged in one pass.

    Like monomials are merged across every operand at once and the
    surviving terms sorted once.  A sum with a single non-zero operand is
    that operand itself.
    """
    if len(nodes) < 2:  # nothing to merge: skip the zero filter
        return nodes[0] if nodes else ZERO
    nonzero = [e for e in nodes if e is not ZERO]
    if not nonzero:
        return ZERO
    if len(nonzero) == 1:
        return nonzero[0]
    acc = {}
    for node in nonzero:
        for term in node.terms if isinstance(node, Add) else (node,):
            coeff, mono = _strip_coeff(term)
            if mono in acc:
                acc[mono] += coeff
            else:
                acc[mono] = coeff
    return _collect(acc)


def _collect(acc):
    """Canonical sum of a map from monomial to coefficient."""
    terms = [_attach_coeff(coeff, mono) for mono, coeff in acc.items() if coeff]
    if not terms:
        return ZERO
    if len(terms) == 1:
        return terms[0]
    terms.sort(key=sort_key)
    return Add(terms)


def add(a, b):
    """Canonical sum of two canonical nodes."""
    if a is ZERO:
        return b
    if b is ZERO:
        return a
    return add_all((a, b))


def neg(a):
    return Rat(-a.value) if isinstance(a, Rat) else mul(MINUS_ONE, a)


def sub(a, b):
    return add(a, neg(b))


# Products are built on coefficient-free monomials: the product of two
# terms is the product of their monomials scaled by the product of their
# coefficients.  A check multiplies the same monomial pairs over and over,
# so each monomial product is computed once and kept in ``_mul_cache``.


def _mono_product(m1, m2):
    """Terms of the product of two coefficient-free monomials, as a tuple of
    (coeff, monomial) pairs: one pair with coefficient 1, unless a merged
    power of an opaque sum lands in the expandable range and the product is
    multiplied out."""
    f1, x1 = _split_mono(m1)
    f2, x2 = _split_mono(m2)
    factors = dict(f1)
    for base, n in f2.items():
        m = factors.get(base, 0) + n
        if m == 0:
            factors.pop(base, None)
        else:
            factors[base] = m
    if x1 is None:
        exp_arg = x2
    elif x2 is None:
        exp_arg = x1
    else:
        exp_arg = add(x1, x2)
    node = _build_mono(factors, exp_arg)
    return tuple(_strip_coeff(t) for t in _terms_of(node))


_mul_cache = {}


def _mul_terms(c1, m1, c2, m2):
    """Terms of the product of the terms ``c1*m1`` and ``c2*m2`` (split by
    ``_strip_coeff``), as (coeff, monomial) pairs."""
    key = (m1, m2)
    prod = _mul_cache.get(key)
    if prod is None:
        prod = _mul_cache[key] = _mono_product(m1, m2)
    coeff = c2 if c1 is _Q1 else c1 if c2 is _Q1 else c1 * c2
    if coeff is _Q1:
        return prod
    return [(coeff if c is _Q1 else coeff * c, mono) for c, mono in prod]


def _scale(c, e):
    """Canonical ``c*e`` for a rational ``c`` other than 0 and 1 and a
    non-constant node: only the coefficients change, but the terms must be
    re-sorted because a coefficient is part of a term's sort key."""
    if not isinstance(e, Add):
        c0, mono = _strip_coeff(e)
        return _attach_coeff(c * c0, mono)
    terms = []
    for t in e.terms:
        c0, mono = _strip_coeff(t)
        terms.append(_attach_coeff(c * c0, mono))
    terms.sort(key=sort_key)
    return Add(terms)


def mul(a, b):
    """Canonical product; distributes over sums."""
    if a is ZERO or b is ZERO:
        return ZERO
    if isinstance(a, Rat):
        if a is ONE:
            return b
        if isinstance(b, Rat):
            return a if b is ONE else Rat(a.value * b.value)
        return _scale(a.value, b)
    if isinstance(b, Rat):
        return a if b is ONE else _scale(b.value, a)
    acc = {}
    right = [_strip_coeff(t) for t in _terms_of(b)]
    for t1 in _terms_of(a):
        c1, m1 = _strip_coeff(t1)
        for c2, m2 in right:
            for coeff, mono in _mul_terms(c1, m1, c2, m2):
                if mono in acc:
                    acc[mono] += coeff
                else:
                    acc[mono] = coeff
    return _collect(acc)


def pow_int(a, n):
    """Canonical integer power ``a**n`` (with ``a**0 == 1``)."""
    if not isinstance(n, int):
        raise ExpressionError("only integer powers are supported")
    if n == 0:
        return ONE
    if n == 1:
        return a
    if isinstance(a, Rat):
        if a is ZERO and n < 0:
            raise DivisionByZero("0 raised to a negative power")
        return Rat(a.value**n if n > 0 else Fraction(1, a.value**-n))
    if isinstance(a, Sym):
        return Pow(a, n)
    if isinstance(a, Exp):
        return Exp(mul(Rat(n), a.arg))
    if isinstance(a, Pow):
        return pow_int(a.base, a.exponent * n)
    if isinstance(a, Mul):
        out = ONE
        for f in a.factors:
            out = mul(out, pow_int(f, n))
        return out
    # Add
    if 2 <= n <= _EXPAND_LIMIT:
        out = a
        for _ in range(n - 1):
            out = mul(out, a)
        return out
    return Pow(a, n)


def div(a, b):
    if b is ZERO:
        raise DivisionByZero("division by the zero constant")
    return mul(a, pow_int(b, -1))


def exp_of(a):
    if a is ZERO:
        return ONE
    return Exp(a)


def _operator(name, swap):
    """The method ``op(self, other)``, or ``op(other, self)`` when swapped, with ``op``
    the module function ``name`` looked up per call (so a replaced ``mul`` is what
    ``a * b`` reaches); an int or Fraction becomes a ``Rat``, other non-nodes ``NotImplemented``."""
    namespace = globals()

    def method(self, other):
        if not isinstance(other, ScalarField):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Rat(other)
        return namespace[name](other, self) if swap else namespace[name](self, other)

    return method


for _dunder, _name in (("add", "add"), ("sub", "sub"), ("mul", "mul"), ("truediv", "div")):
    setattr(ScalarField, f"__{_dunder}__", _operator(_name, False))
    setattr(ScalarField, f"__r{_dunder}__", _operator(_name, True))
del _dunder, _name


# --- differentiation -------------------------------------------------------

_diff_cache = {}


def clear_caches():
    """Empty the product memo and the derivative cache. Every node is
    interned; the node table is never emptied, so a node built before the
    call is the one built after it."""
    _mul_cache.clear()
    _diff_cache.clear()


def diff(e, name):
    """Exact partial derivative with respect to the named coordinate."""
    key = (e, name)
    hit = _diff_cache.get(key)
    if hit is not None:
        return hit
    if isinstance(e, Rat):
        out = ZERO
    elif isinstance(e, Sym):
        out = ONE if e.name == name else ZERO
    elif isinstance(e, Exp):
        d = diff(e.arg, name)
        out = ZERO if d is ZERO else mul(e, d)
    elif isinstance(e, Pow):
        d = diff(e.base, name)
        out = ZERO if d is ZERO else mul(mul(Rat(e.exponent), pow_int(e.base, e.exponent - 1)), d)
    elif isinstance(e, Mul):
        parts = []
        fs = e.factors
        for i, f in enumerate(fs):
            df = diff(f, name)
            if df is ZERO:
                continue
            rest = df
            for j, g in enumerate(fs):
                if j != i:
                    rest = mul(rest, g)
            parts.append(rest)
        out = add_all(parts)
    elif isinstance(e, Add):
        out = add_all([diff(t, name) for t in e.terms])
    else:
        raise ExpressionError(f"not a scalar expression: {e!r}")
    _diff_cache[key] = out
    return out


# --- evaluation ------------------------------------------------------------


def _eval(e, env, memo):
    found = memo.get(e)
    if found is not None:
        return found
    if isinstance(e, Rat):
        v = e.value
    elif isinstance(e, Sym):
        try:
            v = env[e.name]
        except KeyError:
            raise ExpressionError(f"no value supplied for coordinate {e.name!r}")
    elif isinstance(e, Exp):
        v = math.exp(float(_eval(e.arg, env, memo)))
    elif isinstance(e, Pow):
        b = _eval(e.base, env, memo)
        if b == 0 and e.exponent < 0:
            raise DivisionByZero(f"{to_str(e.base)} vanishes at the evaluation point")
        n = e.exponent
        # an int to a negative power would be a float
        v = b**n if n > 0 or isinstance(b, float) else Fraction(1, b**-n)
    elif isinstance(e, Mul):
        v = 1
        for f in e.factors:
            v = v * _eval(f, env, memo)
    elif isinstance(e, Add):
        v = 0
        for t in e.terms:
            v = v + _eval(t, env, memo)
    else:
        raise ExpressionError(f"not a scalar expression: {e!r}")
    memo[e] = v
    return v


def evaluate(e, env):
    """Evaluate at a point.

    ``env`` maps coordinate names to numbers.  The result is an exact
    rational, int or Fraction, when neither the expression nor the
    supplied values involve floats or exp; otherwise a float.  A pole, an
    overflow or a value whose float is not finite raises NonFiniteValue,
    whose witness is the point.
    """
    clean = {}
    for k, v in env.items():
        clean[k] = v if isinstance(v, (Fraction, float)) else _as_fraction(v)
    try:
        v = _eval(e, clean, {})
        if math.isfinite(float(v)):
            return v
        reason = f"the value is {float(v)}"
    except (DivisionByZero, OverflowError) as err:
        reason = str(err)
    raise NonFiniteValue(f"no finite value at the point ({reason})",
                         witness={k: str(x) for k, x in env.items()})


# --- zero testing -----------------------------------------------------------


# the sampling defaults: the seed and number of the sample points, and the
# absolute tolerance of a zero test
DEFAULT_SEED = 1729
DEFAULT_SAMPLES = 50
DEFAULT_TOL = 1e-9

PROVED_ZERO = "proved_zero"
NUMERICALLY_ZERO = "numerically_zero"
NON_ZERO = "non_zero"


class Verdict:
    """Outcome of a zero test: one of the three kinds above."""

    __slots__ = ("kind", "max_abs", "witness")

    def __init__(self, kind, max_abs=0.0, witness=None):
        self.kind = kind
        self.max_abs = max_abs
        self.witness = witness  # (env, value) for non_zero

    @property
    def is_zero(self):
        return self.kind != NON_ZERO

    def __repr__(self):
        if self.witness is not None:
            return f"Verdict({self.kind}, value={self.witness[1]!r})"
        return f"Verdict({self.kind}, max_abs={self.max_abs!r})"


_PROVED = Verdict(PROVED_ZERO)


def is_zero(e, sampler=None, tol=DEFAULT_TOL):
    """Decide whether a field vanishes identically on the sampling domain.

    ``e`` must be canonical, as every node built by this module is: terms
    that cancel have already collapsed to the zero constant, which is
    proved zero, and any other constant is non-zero.  Other expressions
    are evaluated at every sample point and judged against the absolute
    tolerance; a failure's witness is the first point that breaks it, and
    ``max_abs`` is the largest |value| over all the points.  A value with no
    finite float raises ``evaluate``'s NonFiniteValue, a constant's at ``{}``.
    """
    if e is ZERO:
        return _PROVED
    if isinstance(e, Rat):
        return Verdict(NON_ZERO, abs(float(evaluate(e, {}))), ({}, e.value))
    if sampler is None:
        raise ExpressionError("a sampler is required for non-constant zero tests")
    max_abs = 0.0
    witness = None
    for env in sampler.points():
        v = evaluate(e, env)
        a = abs(float(v))
        if a >= tol and witness is None:
            witness = (dict(env), v)
        if a > max_abs:
            max_abs = a
    return Verdict(NUMERICALLY_ZERO if witness is None else NON_ZERO, max_abs, witness)


# --- sampling ----------------------------------------------------------------

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_DENOM = 1 << 24


def _coordinate(axis, k):
    # coordinate d of candidate k is lo + (hi - lo) m / _DENOM for an integer
    # m, and axis is (phase, stride, a, b, den) so that it is Fraction(a + b m, den)
    phase, stride, a, b, den = axis
    return Fraction(a + b * round((phase + k * stride) % 1.0 * _DENOM), den)


class _Candidate(dict):
    """The coordinates of candidate k, each built when a constraint first reads it."""

    def __init__(self, axes, k):
        self.axes, self.k = axes, k

    def __missing__(self, name):
        self[name] = value = _coordinate(self.axes[name], self.k)
        return value


class Sampler:
    """Deterministic quasi-random points in a coordinate box.

    Uses an additive (Kronecker) recurrence with per-coordinate irrational
    strides; the seed only shifts the starting phase, so a fixed seed gives
    a fixed point list.  Points are dyadic rationals, which keeps exact
    evaluation available downstream.  A candidate is rejected where a
    nonvanishing constraint is within the margin of 0, a pole or overflows.

    Two steps, each run once: ``accepted()`` checks the candidates against
    the constraints, building only the coordinates they read, and keeps the
    indices of those it accepts, or raises InsufficientSamples; ``points()``
    then builds the accepted points in full.
    """

    def __init__(self, names, box, nonvanish=(), seed=DEFAULT_SEED, count=DEFAULT_SAMPLES,
                 margin=1e-3):
        self.names = tuple(names)
        self.box = {n: (Fraction(str(lo)) if not isinstance(lo, (int, Fraction)) else Fraction(lo),
                        Fraction(str(hi)) if not isinstance(hi, (int, Fraction)) else Fraction(hi))
                    for n, (lo, hi) in box.items()}
        for n in self.names:
            if n not in self.box:
                self.box[n] = (Fraction(-2), Fraction(2))
        self.nonvanish = tuple(nonvanish)
        self.seed = seed
        self.count = count
        self.margin = margin
        self._accepted = None
        self._points = None

    def accepted(self):
        if self._accepted is None:
            self._accepted = self._accept()
        return self._accepted

    def points(self):
        if self._points is None:
            self._points = self._generate()
        return self._points

    def _axes(self):
        axes = {}
        state = (self.seed * 6364136223846793005 + 1442695040888963407) % (1 << 63)
        for d, name in enumerate(self.names):
            state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 63)
            lo, hi = self.box[name]
            unit = math.lcm(lo.denominator, hi.denominator)
            axes[name] = ((state >> 11) / float(1 << 52),
                          math.sqrt(_PRIMES[d % len(_PRIMES)]) % 1.0,
                          int(lo * unit) * _DENOM, int((hi - lo) * unit), unit * _DENOM)
        return axes

    def _accept(self):
        axes = self._axes()
        ks = []
        k = 0
        limit = max(200, 80 * self.count)
        while len(ks) < self.count and k < limit:
            k += 1
            # _eval: evaluate's copy of env would drop coordinates not built yet
            env = _Candidate(axes, k)
            try:
                ok = all(self.margin <= abs(float(_eval(g, env, {}))) < math.inf
                         for g in self.nonvanish)
            except (DivisionByZero, OverflowError):
                ok = False  # a pole or an overflow rejects it as a small value does
            if ok:
                ks.append(k)
        if len(ks) < self.count:
            raise InsufficientSamples(
                f"only {len(ks)} of {self.count} sample points satisfy the domain constraints"
            )
        return ks

    def _generate(self):
        axes = self._axes()
        return [{name: _coordinate(axis, k) for name, axis in axes.items()}
                for k in self.accepted()]


# --- parsing ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[()+\-*/^]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", f"column {col + 1}")
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            op = m.group("op")
            tokens.append(("op", "^" if op == "**" else op, m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# parentheses, exp( calls, prefix signs and exponents nested deeper than
# this are a ParseError, well before Python's recursion limit
MAX_NESTING = 100
# a literal, and every coefficient and exponent anywhere in an operator's
# result (in an exp argument too), has at most this many digits in its
# numerator and denominator; Python prints no int of more than 4,300
MAX_DIGITS = 1000
_DIGIT_LIMIT = 10 ** MAX_DIGITS


def _height(e):
    """The largest |numerator|, denominator or |exponent| anywhere in ``e``."""
    if isinstance(e, Rat):
        return max(abs(e.value.numerator), e.value.denominator)
    if isinstance(e, Sym):
        return 1
    if isinstance(e, Pow):
        return max(abs(e.exponent), _height(e.base))
    return max(map(_height, (e.arg,) if isinstance(e, Exp) else
                   e.terms if isinstance(e, Add) else e.factors))


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def _peek(self):
        return self.tokens[self.i]

    def _next(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def _fail(self, message, tok=None):
        tok = tok or self._peek()
        raise ParseError(message, f"column {tok[2] + 1}")

    def _bounded(self, e, tok):
        if _height(e) >= _DIGIT_LIMIT:
            self._fail(f"constant of more than {MAX_DIGITS} digits", tok)
        return e

    def parse(self):
        e = self._expr()
        kind, val, _ = self._peek()
        if kind != "end":
            self._fail(f"unexpected {val!r} after expression")
        return e

    def _expr(self):
        e = self._term()
        while True:
            kind, val, _ = self._peek()
            if kind == "op" and val in "+-":
                tok = self._next()
                rhs = self._term()
                e = self._bounded(add(e, rhs) if val == "+" else sub(e, rhs), tok)
            else:
                return e

    def _term(self):
        e = self._unary()
        while True:
            kind, val, _ = self._peek()
            if kind == "op" and val in "*/":
                tok = self._next()
                rhs = self._unary()
                if val == "/" and rhs is ZERO:
                    self._fail("division by zero", tok)
                e = self._bounded(mul(e, rhs) if val == "*" else div(e, rhs), tok)
            else:
                return e

    def _unary(self):
        # every nesting passes through here: a sign, an exponent, or a
        # parenthesis or exp( call by way of _expr
        if self.depth > MAX_NESTING:
            self._fail(f"expression nested more than {MAX_NESTING} deep")
        self.depth += 1
        kind, val, _ = self._peek()
        if kind == "op" and val in "+-":
            self._next()
            e = neg(self._unary()) if val == "-" else self._unary()
        else:
            e = self._power()
        self.depth -= 1
        return e

    def _power(self):
        base = self._primary()
        kind, val, _ = self._peek()
        if kind == "op" and val == "^":
            tok = self._next()
            exponent = self._unary()
            if not isinstance(exponent, Rat) or not isinstance(exponent.value, int):
                self._fail("exponent must be an integer constant", tok)
            if base is ZERO and exponent.value < 0:
                self._fail("0 raised to a negative power", tok)
            # checked before pow_int raises base's coefficient c to the n: a
            # part of c^n is at least 2^(|n| (bits of c - 1)), and 2^4 > 10
            bits = _height(Rat(_strip_coeff(base)[0])).bit_length()
            if abs(exponent.value) * (bits - 1) >= 4 * MAX_DIGITS:
                self._fail(f"constant of more than {MAX_DIGITS} digits", tok)
            return self._bounded(pow_int(base, exponent.value), tok)
        return base

    def _primary(self):
        kind, val, tok_pos = self._next()
        if kind == "num":
            if len(val) - ("." in val) > MAX_DIGITS:
                self._fail(f"constant of more than {MAX_DIGITS} digits", (kind, val, tok_pos))
            return Rat(Fraction(val) if "." in val else int(val))
        if kind == "ident":
            nk, nv, _ = self._peek()
            if nk == "op" and nv == "(":
                if val != "exp":
                    raise ParseError(
                        f"unknown function {val!r} (only exp is available)",
                        f"column {tok_pos + 1}",
                    )
                self._next()
                arg = self._expr()
                ck, cv, _ = self._peek()
                if not (ck == "op" and cv == ")"):
                    self._fail("expected ')'")
                self._next()
                return exp_of(arg)
            return Sym(val)
        if kind == "op" and val == "(":
            e = self._expr()
            ck, cv, _ = self._peek()
            if not (ck == "op" and cv == ")"):
                self._fail("expected ')'")
            self._next()
            return e
        raise ParseError("expected a number, coordinate, or '('", f"column {tok_pos + 1}")


def parse(text, names=None):
    """Parse expression text into a canonical ScalarField. With ``names``,
    every name in it must be one of them, or ``exp`` called as a function."""
    if not isinstance(text, str):
        raise ParseError(f"expression must be a string, got {type(text).__name__}")
    if not text.strip():
        raise ParseError("empty expression")
    parser = _Parser(text)
    e = parser.parse()
    if names is not None:
        tokens = parser.tokens
        for (kind, name, _), (_, following, _) in zip(tokens, tokens[1:]):
            if kind == "ident" and following != "(" and name not in names:
                raise ParseError(f"{name!r} is not a declared coordinate")
    return e


# --- rendering ---------------------------------------------------------------


def join_signed(parts):
    """Join rendered terms into a sum, a leading ``-`` folded into ``" - "``."""
    return parts[0] + "".join(f" - {t[1:]}" if t.startswith("-") else f" + {t}"
                              for t in parts[1:])


def _render_factor(f):
    """A factor of a canonical ``Mul``: a ``Rat``, ``Sym``, ``Exp`` or ``Pow``."""
    if isinstance(f, (Rat, Sym, Exp)):
        return _render(f)
    base = _render(f.base)
    if isinstance(f.base, Add):
        base = f"({base})"
    if f.exponent < 0:
        return f"{base}^(-{-f.exponent})"
    return f"{base}^{f.exponent}"


def _render(e):
    if isinstance(e, Rat):
        return str(e.value)
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Exp):
        return f"exp({_render(e.arg)})"
    if isinstance(e, Pow):
        return _render_factor(e)
    if isinstance(e, Mul):
        coeff = 1
        rest = list(e.factors)
        if isinstance(rest[0], Rat):
            coeff = rest[0].value
            rest = rest[1:]
        body = "*".join(_render_factor(f) for f in rest)
        if coeff == 1:
            return body
        if coeff == -1:
            return f"-{body}"
        return f"{coeff}*{body}"
    if isinstance(e, Add):
        return join_signed([_render(t) for t in e.terms])
    raise ExpressionError(f"not a scalar expression: {e!r}")


def to_str(e):
    """Render a canonical field as grammar-compatible text."""
    return _render(e)
