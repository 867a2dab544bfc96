"""Solve and verify the *-conformal eta-Ricci soliton equation.

Vector form:    L_V g + 2 S* + 2 lambda~ g + 2 mu eta(x)eta = 0
Gradient form:  Hess f + S* + lambda~ g + mu eta(x)eta = 0

The conformal pressure p stays symbolic throughout: the combined
constant lambda~ = lambda - p/2 - 1/(2n+1) is what the equations
determine, and lambda is rendered back as "p/2 + c". A numeric p is
accepted only at classification time.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .curvature import hessian, lie_derivative_metric
from .errors import DegenerateSystem, MissingPotential
from .scalar import MINUS_ONE, PROVED_ZERO, Rat, to_str
from .structure import _prod, fit_sampled, settle_fit


def _coerce(q):
    """Constants arrive as int, Fraction, float or numeric string."""
    if isinstance(q, Rat):
        return q.value
    if isinstance(q, (int, Fraction)):
        return Fraction(q)
    if isinstance(q, str):
        return Fraction(q)
    f = Fraction(q).limit_denominator(10 ** 12)
    return f if abs(float(f) - float(q)) < 1e-15 else float(q)


TWO = Rat(2)


class SolitonProblem:
    """A manifold, its curvature, and exactly one potential.

    The potential is either a vector field V (vector form) or a scalar
    f (gradient form; the gradient is always derived from f, never
    user-supplied). The tensors of the equation are built on first read
    and kept, so a solve and its residual share them.
    """

    def __init__(self, M, table, V=None, f=None):
        if V is None and f is None:
            raise MissingPotential("soliton problem needs a potential V or f")
        if V is not None and f is not None:
            raise ValueError("supply exactly one of V and f")
        self.M = M
        self.table = table
        self.V = V
        self.f = f

    @property
    def form(self):
        return "vector" if self.V is not None else "gradient"

    @cached_property
    def labelled(self):
        """One (label, (a_lt, a_mu, b)) tuple per frame pair i <= j, where
        the equation reads lambda~ a_lt + mu a_mu = b.

        b is the constant-free part, L_V g + 2 S* (vector form) or
        Hess f + S* (gradient form); a_lt = -s g and a_mu = -s eta(x)eta,
        with s = 2 and 1 respectively.
        """
        M, n = self.M, self.M.dim
        star = self.table.star_ricci
        if self.V is not None:
            lie = lie_derivative_metric(M, self.V)
            minus_s = Rat(-2)

            def base(i, j):
                return lie[i][j] + _prod(TWO, star[i][j])
        else:
            hess = hessian(M, self.table.conn, self.f)
            minus_s = MINUS_ONE

            def base(i, j):
                return hess[i][j] + star[i][j]
        eta = M.eta_frame
        return [(f"residual(e_{i + 1},e_{j + 1})",
                 (_prod(minus_s, M.metric[i][j]), _prod(minus_s, eta[i], eta[j]),
                  base(i, j)))
                for i in range(n) for j in range(i, n)]


class SolitonReport:
    """Solved or verified constants, the residual of every frame pair
    i <= j, and the verdict of ``settle_fit`` over them."""

    def __init__(self, form, n, lambda_tilde, mu, residual, verdict,
                 mu_unconstrained=False):
        self.form = form
        self.n = n
        self.lambda_tilde = lambda_tilde
        self.mu = mu
        self.residual = residual  # {(i, j): residual component}, i <= j
        self.verdict = verdict
        self.mu_unconstrained = mu_unconstrained

    @property
    def passed(self):
        return self.verdict.passed

    @property
    def exact(self):
        return self.verdict.kind == PROVED_ZERO

    @property
    def residual_max(self):
        return self.verdict.max_abs

    def lambda_string(self):
        return lambda_string(self.lambda_tilde, self.n)

    def to_dict(self):
        return {
            "form": self.form,
            "lambda_tilde": str(self.lambda_tilde),
            "mu": None if self.mu is None else str(self.mu),
            "mu_unconstrained": self.mu_unconstrained,
            "lambda": self.lambda_string(),
            "residual_max": float(self.residual_max),
            "exact": self.exact,
            "residual": {f"e_{i + 1},e_{j + 1}": to_str(e)
                         for (i, j), e in self.residual.items()},
            "classification": classify(self.lambda_tilde, self.n),
        }


def _render_shift(c):
    """Render p/2 + c with exact signs, collapsing c = 0."""
    if isinstance(c, Fraction):
        if c == 0:
            return "p/2"
        sign = "+" if c > 0 else "-"
        mag = abs(c)
        body = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        return f"p/2 {sign} {body}"
    if c == 0.0:
        return "p/2"
    return f"p/2 {'+' if c > 0 else '-'} {abs(c)!r}"


def lambda_string(lambda_tilde, n):
    """lambda = p/2 + 1/(2n+1) + lambda~, rendered symbolically."""
    lt = _coerce(lambda_tilde)
    shift = Fraction(1, 2 * n + 1)
    if isinstance(lt, Fraction):
        return _render_shift(lt + shift)
    return _render_shift(float(lt) + float(shift))


def classify(lambda_tilde, n, p=None):
    """Shrinking / steady / expanding, by the sign of lambda.

    lambda = p/2 + 1/(2n+1) + lambda~ depends on the symbolic pressure,
    so without a numeric p the answer is the threshold statement; with
    one it is a concrete verdict.
    """
    lt = _coerce(lambda_tilde)
    shift = Fraction(1, 2 * n + 1)
    if p is None:
        if isinstance(lt, Fraction):
            p_star = -2 * lt - 2 * shift
        else:
            p_star = float(-2 * lt - 2 * float(shift))
        s = str(p_star)
        return (f"shrinking for p < {s}, steady at p = {s}, "
                f"expanding for p > {s}")
    pv = _coerce(p)
    if isinstance(lt, Fraction) and isinstance(pv, Fraction):
        lam = pv / 2 + shift + lt
    else:
        lam = float(pv) / 2 + float(shift) + float(lt)
    if lam < 0:
        kind = "shrinking"
    elif lam > 0:
        kind = "expanding"
    else:
        kind = "steady"
    return f"{kind} (lambda = {lam} at p = {pv})"


def _report(P, lt, mu, mu_unconstrained=False):
    """Settle the equation at (lt, mu); float constants, from a float fit
    or a float that no small fraction matches, are held to the tolerance
    even where the residual is constant."""
    M = P.M
    verdict, parts = settle_fit(M, "soliton_residual", P.labelled, (lt, mu))
    pairs = [(i, j) for i in range(M.dim) for j in range(i, M.dim)]
    residual = dict(zip(pairs, (e for _, e in parts)))
    return SolitonReport(P.form, M.n, lt, mu, residual, verdict,
                         mu_unconstrained)


def solve_soliton(P):
    """Least-squares (lambda~, mu) over all components and sample points."""
    fit = fit_sampled(P.M, [entry for _, entry in P.labelled], skip_singular=True)
    lt, mu = fit.values
    if lt is None:
        raise DegenerateSystem("soliton fit degenerate: metric column vanished")
    return _report(P, lt, mu, mu_unconstrained=mu is None)


def verify_soliton(P, lambda_tilde, mu):
    """Residual report at user-supplied constants."""
    return _report(P, _coerce(lambda_tilde), _coerce(mu))
