"""Reference canonicalizer for the tests.

``simplify`` rebuilds an arbitrary expression tree through the canonical
constructors of ``contactgeo.scalar`` (``mul``, ``add``, ``pow_int``,
``exp_of``), one pairwise step at a time. Canonical inputs come back
unchanged, so the map is idempotent; tests use it to check that what
the engine builds is already canonical and to compare values.
"""

from contactgeo.errors import ExpressionError
from contactgeo.scalar import (
    ONE, ZERO, Add, Exp, Mul, Pow, Rat, Sym, add, exp_of, mul, pow_int,
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
