"""Reference implementations for the tests.

``simplify`` rebuilds an arbitrary expression tree through the canonical
constructors of ``contactgeo.scalar`` (``mul``, ``add``, ``pow_int``,
``exp_of``), one pairwise step at a time. Canonical inputs come back
unchanged, so the map is idempotent; tests use it to check that what
the engine builds is already canonical and to compare values.

``ref_mul`` is the earlier un-memoized product: every pair of terms is
split into coefficient, factor map and exp argument, merged and rebuilt
(``_split_term``, ``_build_term``, ``_mul_terms``, ``mul`` and
``pow_int`` below, kept as they were, so re-expanded sum powers go
through the reference too). Tests compare the memoized ``scalar.mul``
with it.

``ref_spectrum`` is the earlier ``StructureTensors.spectrum``: numpy
eigenvalues of h' at the first ten sample points, kept as it was. It is
now the fallback for spectra that are not integer and exact, and tests
compare ``spectrum()`` with it there.
"""

from fractions import Fraction

from contactgeo.errors import DivisionByZero, ExpressionError
from contactgeo.scalar import (
    _EXPAND_LIMIT, ONE, ZERO, Add, Exp, Mul, Pow, Rat, Sym, add, add_all,
    evaluate, exp_of, mul, pow_int, sort_key,
)


def simplify(e):
    """Rebuild an arbitrary tree through the canonical constructors.

    Canonical inputs come back unchanged, so the map is idempotent.
    """
    if isinstance(e, (Rat, Sym)):
        return e
    if isinstance(e, Exp):
        return exp_of(simplify(e.arg))
    if isinstance(e, Pow):
        return pow_int(simplify(e.base), e.exponent)
    if isinstance(e, Mul):
        out = ONE
        for f in e.factors:
            out = mul(out, simplify(f))
        return out
    if isinstance(e, Add):
        out = ZERO
        for t in e.terms:
            out = add(out, simplify(t))
        return out
    raise ExpressionError(f"not a scalar expression: {e!r}")


# --- the earlier product ------------------------------------------------------


def _split_term(e):
    """Decompose a canonical non-Add node into (coeff, factors, exp_arg)."""
    if isinstance(e, Rat):
        return e.value, {}, None
    if isinstance(e, Sym):
        return Fraction(1), {e: 1}, None
    if isinstance(e, Exp):
        return Fraction(1), {}, e.arg
    if isinstance(e, Pow):
        return Fraction(1), {e.base: e.exponent}, None
    if isinstance(e, Mul):
        coeff = Fraction(1)
        factors = {}
        exp_arg = None
        for f in e.factors:
            if isinstance(f, Rat):
                coeff *= f.value
            elif isinstance(f, Sym):
                factors[f] = factors.get(f, 0) + 1
            elif isinstance(f, Pow):
                factors[f.base] = factors.get(f.base, 0) + f.exponent
            elif isinstance(f, Exp):
                exp_arg = f.arg if exp_arg is None else add(exp_arg, f.arg)
            else:  # pragma: no cover - canonical Mul never nests Add/Mul
                raise ExpressionError("non-canonical product factor")
        return coeff, factors, exp_arg
    raise ExpressionError("sum cannot be a single term")  # pragma: no cover


def _build_term(coeff, factors, exp_arg):
    """Rebuild a canonical node from a decomposed term.

    May return a full Add when an expandable sum power shows up after
    exponent merging.
    """
    if not coeff:
        return ZERO
    # pull out sums raised to small positive powers and multiply them out
    expand = None
    for base, n in factors.items():
        if isinstance(base, Add) and 1 <= n <= _EXPAND_LIMIT:
            expand = (base, n)
            break
    if expand is not None:
        base, n = expand
        rest = dict(factors)
        del rest[base]
        node = _build_term(coeff, rest, exp_arg)
        return ref_mul(node, ref_pow_int(base, n))
    parts = []
    for base, n in factors.items():
        if n == 0:
            continue
        parts.append(base if n == 1 else Pow(base, n))
    if exp_arg is not None and exp_arg is not ZERO:
        parts.append(Exp(exp_arg))
    parts.sort(key=sort_key)
    if not parts:
        return Rat(coeff)
    if coeff != 1:
        parts.insert(0, Rat(coeff))
    if len(parts) == 1:
        return parts[0]
    return Mul(parts)


def _mul_terms(t1, t2):
    c1, f1, x1 = _split_term(t1)
    c2, f2, x2 = _split_term(t2)
    coeff = c1 * c2
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
    return _build_term(coeff, factors, exp_arg)


def ref_mul(a, b):
    """Canonical product; distributes over sums."""
    if a is ZERO or b is ZERO:
        return ZERO
    if isinstance(a, Rat) and a.value == 1:
        return b
    if isinstance(b, Rat) and b.value == 1:
        return a
    return add_all([_mul_terms(t1, t2) for t1 in _terms_of(a) for t2 in _terms_of(b)])


def ref_pow_int(a, n):
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
        return Rat(a.value**n)
    if isinstance(a, Sym):
        return Pow(a, n)
    if isinstance(a, Exp):
        return Exp(ref_mul(Rat(n), a.arg))
    if isinstance(a, Pow):
        return ref_pow_int(a.base, a.exponent * n)
    if isinstance(a, Mul):
        out = ONE
        for f in a.factors:
            out = ref_mul(out, ref_pow_int(f, n))
        return out
    # Add
    if 2 <= n <= _EXPAND_LIMIT:
        out = a
        for _ in range(n - 1):
            out = ref_mul(out, a)
        return out
    return Pow(a, n)


def _terms_of(e):
    if isinstance(e, Add):
        return list(e.terms)
    if e is ZERO:
        return []
    return [e]


def ref_spectrum(tensors, snap_tol=1e-9):
    """Eigenvalues of h' sampled over the domain.

    Returns ``(values, max_spread)``: values from the first sample
    point (snapped to integers when that close), spread the largest
    eigenvalue movement across sample points.
    """
    import numpy as np

    M = tensors.M
    n = M.dim
    pts = M.sampler.points()
    all_eigs = []
    for env in pts[: min(len(pts), 10)]:
        mat = np.empty((n, n))
        for j in range(n):
            for k in range(n):
                # operator matrix: column j holds the image of e_j
                mat[k, j] = float(evaluate(tensors.h_prime[j][k], env))
        eigs = np.sort(np.linalg.eigvals(mat).real)
        all_eigs.append(eigs)
    first = all_eigs[0]
    spread = 0.0
    for eigs in all_eigs[1:]:
        spread = max(spread, float(np.max(np.abs(eigs - first))))
    values = []
    for x in first:
        r = round(x)
        values.append(int(r) if abs(x - r) < snap_tol else float(x))
    return values, spread
