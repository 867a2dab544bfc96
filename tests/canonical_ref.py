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

The dense frame contractions (``ref_apply``, ``ref_lie_bracket``,
``ref_mat_vec``, ``ref_sym_inverse``, ``ref_from_frame``,
``ref_frame_brackets``, ``ref_koszul``, ``ref_nabla_comps`` and
``RefCurvatureTable``) are the earlier versions of ``VectorField.apply``,
``lie_bracket``, ``_mat_vec``, ``sym_inverse``, the since deleted
``ManifoldSpec.from_frame``, ``ManifoldSpec.brackets`` (once
``frame_brackets``), ``koszul``, ``ConnectionTable.nabla_comps`` and the
``R`` and ``ricci_operator`` of ``CurvatureTable``, kept verbatim except
that they call each other, that ``ref_nabla_comps`` reads the
Christoffel symbols from ``conn.gamma`` and that ``RefCurvatureTable.R``
reads the structure constants from ``M.brackets``. They multiply, negate
and sum every entry, zeros included; tests compare the sparse loops,
which visit only non-zero entries, with them. ``ref_koszul`` and
``RefCurvatureTable.R`` are the dense references for the scatter loops
of ``koszul`` and ``CurvatureTable.R``, which visit only the non-zero
structure constants, metric derivatives and Christoffel symbols.
``RefCurvatureTable.ricci`` and ``star_ricci`` are dense loops of the
trace definitions, ``S_ij = sum_a (R(e_a, e_i) e_j)^a`` and
``S*_ij = 1/2 sum_a (phi R(e_i, phi e_j) e_a)^a``, grouped unlike the
engine's sparse traces. ``ref_ricci_lowered`` and
``ref_star_ricci_lowered`` are the earlier contractions with
``g^{ab} g(., e_b)``, which the engine used before the traces; they
agree with the traces in value on every metric but not in tree on a
metric that is not constant, so tests compare them by a zero test of
each difference. ``ref_gradient`` is the since deleted
``ManifoldSpec.gradient``. ``ref_d_Phi`` is the earlier ``d Phi`` of
``ExteriorData``, each ``Phi`` of a bracket a dense double sum.

``ref_structure_tensors`` and ``ref_lie_derivative_metric`` are the
earlier ``StructureTensors`` constructor and ``lie_derivative_metric``,
kept as they were except that ``ref_from_frame`` stands in for
``ManifoldSpec.from_frame``: they take coordinate brackets with xi and V
and convert them to the frame, and h' is built from its own brackets,
``h'(e_j) = (1/2)([xi, phi^2 e_j] - phi [xi, phi e_j])``, not from h. The
engine reads the bracket table (``ManifoldSpec.ad``) instead; the two
constructions need not give the same tree, so tests compare them by a
zero test of each difference.

``ref_check_almost_contact``, ``ref_check_kenmotsu``,
``ref_check_almost_kenmotsu``, ``ref_solve_nullity`` and
``ref_solve_eta_einstein`` are the earlier dense residual loops of the
structure families, kept verbatim: every frame component of every
identity is built, zeros included, labelled and passed to ``combine``,
and every fit tuple to ``fit_sampled``. Tests record what reaches
``combine`` and ``fit_sampled`` from them and from the sparse slot
assembly of ``contactgeo.structure``, and require the same labels and
trees, in the same order, once the ``ZERO`` ones are dropped.

``ref_solve_least_squares`` is the earlier ``lstsq.solve_least_squares``,
kept verbatim but for its return value, now the list of values as the
solver's is: it converts every exact entry with ``Fraction(...)``, sums
the normal equations from ``Fraction(0)`` and solves them by its own
Gauss-Jordan over Fractions, ``ref_solve_rational``. Tests compare the
solver that sums ints as ints and eliminates with ``geometry.row_reduce``
with it, values and types.

``ref_parser`` is the earlier argparse command line, ``build_parser`` of
``contactgeo.cli`` kept verbatim. Tests compare the namespaces that
``cli.parse_args`` returns with its own, and that both reject the same
malformed command lines.
"""

import argparse
from fractions import Fraction
from functools import cached_property

from contactgeo import __version__, scalar
from contactgeo.cli import CHECK_NAMES, TABLE_NAMES
from contactgeo.curvature import (
    HALF, ConnectionTable, ExteriorData, frame_basis, lie_derivative_metric,
)
from contactgeo.errors import DegenerateSystem, DivisionByZero, ExpressionError, SingularFrame
from contactgeo.geometry import VectorField, _mat_vec, lie_bracket
from contactgeo.scalar import (
    _EXPAND_LIMIT, MINUS_ONE, ONE, ZERO, Add, Exp, Mul, Pow, Rat, Sym, add, add_all,
    evaluate, exp_of, mul, pow_int, sort_key,
)
from contactgeo.structure import (
    CheckReport, _numeric_result, _prod, combine, fit_sampled, is_exact, settle_fit, snap,
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
        return Rat(Fraction(a.value) ** n)
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


# --- the earlier dense frame contractions ---------------------------------------


def ref_apply(X, f):
    """Derivation: ``X(f) = sum_i X^i df/dx_i``; zero on constants."""
    if isinstance(f, Rat):
        return ZERO
    return add_all([c * scalar.diff(f, name)
                    for name, c in zip(X.coords, X.comps) if c is not ZERO])


def ref_lie_bracket(X, Y):
    """``[X, Y]^k = sum_i (X^i dY^k/dx_i - Y^i dX^k/dx_i)``."""
    X._check(Y)
    comps = [add_all([ref_apply(X, yk), -ref_apply(Y, xk)]) for xk, yk in zip(X.comps, Y.comps)]
    return VectorField(X.coords, comps)


def ref_sym_inverse(mat):
    """Invert a square matrix of scalar fields by Gauss-Jordan.

    Returns ``(inverse, determinant)``.  Pivots are entries that are not
    the zero constant; a column with no such entry raises.
    """
    n = len(mat)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(mat)]
    det = ONE
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if aug[r][col] is not ZERO:
                pivot_row = r
                break
        if pivot_row is None:
            raise SingularFrame("matrix of scalar fields has a structurally zero column")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
            det = -det
        pivot = aug[col][col]
        det = det * pivot
        inv_pivot = ONE / pivot
        aug[col] = [x * inv_pivot for x in aug[col]]
        for r in range(n):
            if r == col:
                continue
            factor = aug[r][col]
            if factor is ZERO:
                continue
            aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    inv = [row[n:] for row in aug]
    return inv, det


def ref_mat_vec(mat, vec):
    """Row-vector times matrix: ``out[k] = sum_j vec[j] mat[j][k]``."""
    n = len(mat)
    return [add_all([vec[j] * mat[j][k] for j in range(n)]) for k in range(n)]


def ref_to_frame(M, X):
    """Frame components of a coordinate vector field."""
    return ref_mat_vec(M.frame_inverse, list(X.comps))


def ref_from_frame(M, c):
    """Coordinate vector field with the given frame components."""
    comps = [ZERO] * M.dim
    for k in range(M.dim):
        ck = c[k] if isinstance(c[k], scalar.ScalarField) else Rat(c[k])
        for j in range(M.dim):
            comps[j] = comps[j] + ck * M.frame[k].comps[j]
    return VectorField(M.coords, comps)


def ref_frame_brackets(M):
    """Frame components of ``[e_i, e_j]`` for every frame pair."""
    n = M.dim
    brackets = [[None] * n for _ in range(n)]
    for i in range(n):
        brackets[i][i] = [ZERO] * n
        for j in range(i + 1, n):
            brackets[i][j] = ref_to_frame(M, ref_lie_bracket(M.frame[i], M.frame[j]))
            brackets[j][i] = [-c for c in brackets[i][j]]
    return brackets


def ref_koszul(M):
    """Levi-Civita connection of the declared frame metric."""
    n = M.dim
    G = M.metric
    brackets = ref_frame_brackets(M)
    low = [[[add_all([c * G[m][k] for m, c in enumerate(brackets[i][j])
                      if c is not ZERO and G[m][k] is not ZERO])
             for k in range(n)] for j in range(n)] for i in range(n)]
    gamma = []
    for i in range(n):
        row_i = []
        for j in range(n):
            rhs = [HALF * add_all([ref_apply(M.frame[i], G[j][k]),
                                   ref_apply(M.frame[j], G[k][i]),
                                   -ref_apply(M.frame[k], G[i][j]),
                                   -low[j][k][i], -low[i][k][j], low[i][j][k]])
                   for k in range(n)]
            # solve sum_m gamma^m G_mk = rhs_k  =>  gamma = Ginv . rhs
            entry = [
                add_all([M.metric_inverse[m][k] * rhs[k] for k in range(n)])
                for m in range(n)
            ]
            row_i.append(entry)
        gamma.append(row_i)
    return ConnectionTable(M, gamma)


def ref_nabla_comps(conn, x_frame, c_frame):
    """Frame components of ``nabla_X Y`` from frame components."""
    M = conn.M
    n = M.dim
    xs = [(i, x) for i, x in enumerate(x_frame) if x is not ZERO]
    c = [None if ck is ZERO else ck for ck in c_frame]
    terms = [[] for _ in range(n)]
    for k, ck in enumerate(c):
        if ck is not None:
            for i, x in xs:
                terms[k].append(x * ref_apply(M.frame[i], ck))
    for i, x in xs:
        for k in range(n):
            w = add_all([c[l] * conn.gamma[i][l][k] for l in range(n)
                         if c[l] is not None and conn.gamma[i][l][k] is not ZERO])
            if w is not ZERO:
                terms[k].append(x * w)
    return [add_all(t) for t in terms]


class RefCurvatureTable:
    """Riemann, Ricci, Ricci operator and star-Ricci on the frame."""

    def __init__(self, M, conn):
        self.M = M
        self.conn = conn

    @cached_property
    def R(self):
        """``R[i][j][k]``: frame components of ``R(e_i, e_j) e_k``."""
        conn = self.conn
        n = self.M.dim
        basis = frame_basis(n)
        R = [[None] * n for _ in range(n)]
        for i in range(n):
            R[i][i] = [[ZERO] * n for _ in range(n)]
            for j in range(i + 1, n):
                R[i][j] = []
                for k in range(n):
                    a = ref_nabla_comps(conn, basis[i], conn.gamma[j][k])
                    b = ref_nabla_comps(conn, basis[j], conn.gamma[i][k])
                    c = ref_nabla_comps(conn, self.M.brackets[i][j], basis[k])
                    R[i][j].append([add_all([p, -q, -s]) for p, q, s in zip(a, b, c)])
                R[j][i] = [[-c for c in comps] for comps in R[i][j]]
        return R

    @cached_property
    def ricci(self):
        """``S_ij = tr(Z -> R(Z, e_i) e_j) = sum_a (R(e_a, e_i) e_j)^a``."""
        R = self.R
        n = self.M.dim
        return [[add_all([R[a][i][j][a] for a in range(n)]) for j in range(n)]
                for i in range(n)]

    @cached_property
    def ricci_operator(self):
        """Rows: ``Q e_i = sum_k Q[i][k] e_k`` with ``g(Q e_i, .) = S(e_i, .)``."""
        S = self.ricci
        n = self.M.dim
        Ginv = self.M.metric_inverse
        return [[add_all([Ginv[k][j] * S[j][i] for j in range(n)]) for k in range(n)]
                for i in range(n)]

    @cached_property
    def star_ricci(self):
        """``S*_ij = 1/2 tr(Z -> phi R(e_i, phi e_j) Z)
        = 1/2 sum_a (phi R(e_i, phi e_j) e_a)^a``."""
        R = self.R
        n = self.M.dim
        P = self.M.phi
        Sstar = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                terms = []
                for a in range(n):
                    # R(e_i, phi e_j) e_a, by linearity in the middle slot
                    comps = [add_all([P[j][l] * R[i][l][a][m] for l in range(n)])
                             for m in range(n)]
                    # the e_a component of phi of it
                    terms.append(add_all([comps[m] * P[m][a] for m in range(n)]))
                Sstar[i][j] = HALF * add_all(terms)
        return Sstar


def ref_ricci_lowered(M, R):
    """The earlier Ricci contraction ``S_ij = sum g^{ab} g(R(e_a, e_i) e_j, e_b)``,
    which equals the trace only because ``g^{ab} g_mb`` sums to ``delta_am``."""
    n = M.dim
    G = M.metric
    Ginv = M.metric_inverse
    pairs = [(a, b) for a in range(n) for b in range(n) if Ginv[a][b] is not ZERO]
    S = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            terms = []
            for a, b in pairs:
                # g(R(e_a, e_i) e_j, e_b)
                low = add_all([c * G[m][b] for m, c in enumerate(R[a][i][j])
                               if c is not ZERO])
                terms.append(Ginv[a][b] * low)
            S[i][j] = add_all(terms)
    return S


def ref_star_ricci_lowered(M, R):
    """The earlier star-Ricci contraction
    ``S*_ij = 1/2 sum g^{ab} g(phi(R(e_i, phi e_j) e_a), e_b)``."""
    n = M.dim
    G = M.metric
    Ginv = M.metric_inverse
    P = M.phi
    # non-zero frame components of phi(e_j)
    phis = [[(m, c) for m, c in enumerate(row) if c is not ZERO] for row in P]
    Sstar = [[None] * n for _ in range(n)]
    for i in range(n):
        for j, phj in enumerate(phis):
            terms = []
            for a in range(n):
                # R(e_i, phi e_j) e_a, by linearity in the middle slot
                comps = [add_all([c * R[i][m][a][k] for m, c in phj
                                  if R[i][m][a][k] is not ZERO])
                         for k in range(n)]
                # apply phi
                phi_comps = [add_all([comps[m] * P[m][k] for m in range(n)
                                      if comps[m] is not ZERO and P[m][k] is not ZERO])
                             for k in range(n)]
                # contract with sum_b g^{ab} g(., e_b)
                for b in range(n):
                    if Ginv[a][b] is not ZERO:
                        inner = add_all([phi_comps[m] * G[m][b] for m in range(n)
                                         if phi_comps[m] is not ZERO])
                        terms.append(Ginv[a][b] * inner)
            Sstar[i][j] = HALF * add_all(terms)
    return Sstar


def ref_gradient(M, f):
    """Frame components of ``grad f``: ``g(grad f, X) = X(f)``."""
    return ref_mat_vec(M.metric_inverse, [ref_apply(e, f) for e in M.frame])


# --- the earlier coordinate-bracket h, h' and L_V g -------------------------------


def ref_structure_tensors(M):
    """``(h, h')`` as rows of frame images: ``h = (1/2) L_xi phi`` and
    ``h'(e_j) = h(phi e_j)``, each from coordinate brackets with xi."""
    n = M.dim
    xi = M.xi
    phi_fields = [ref_from_frame(M, M.phi[j]) for j in range(n)]

    def half_lie_phi(Y, phiY):
        # (L_xi phi)(Y) = [xi, phi Y] - phi([xi, Y])
        a = M.to_frame(lie_bracket(xi, phiY))
        b = _mat_vec(M.phi, M.to_frame(lie_bracket(xi, Y)))
        diff = [p if q is ZERO else add_all([p, -q]) for p, q in zip(a, b)]
        return [d if d is ZERO else HALF * d for d in diff]

    h = [half_lie_phi(M.frame[j], phi_fields[j]) for j in range(n)]
    # h'(e_j) = h(phi e_j), computed directly from the bracket definition
    phi2 = [ref_from_frame(M, _mat_vec(M.phi, M.phi[j])) for j in range(n)]
    h_prime = [half_lie_phi(phi_fields[j], phi2[j]) for j in range(n)]
    return h, h_prime


def ref_lie_derivative_metric(M, V):
    """``(L_V g)(e_i, e_j) = V(g_ij) - g([V,e_i], e_j) - g(e_i, [V,e_j])``
    for a coordinate vector field V."""
    n = M.dim
    br = [M.to_frame(lie_bracket(V, M.frame[i])) for i in range(n)]
    basis = frame_basis(n)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            lowered = (M.metric_apply(br[i], basis[j]), M.metric_apply(basis[i], br[j]))
            out[i][j] = out[j][i] = add_all([V.apply(M.metric[i][j])]
                                            + [-e for e in lowered if e is not ZERO])
    return out


def ref_d_Phi(M):
    """``d Phi(e_i, e_j, e_k)``, i < j < k, as ``ExteriorData`` built it with
    its dense ``phi_form(c, d) = sum_{a,b} c_a d_b Phi_ab`` for each
    ``Phi([e_i, e_j], e_k)``; ``Phi_ab = g(e_a, phi e_b)``."""
    n = M.dim
    basis = frame_basis(n)
    Phi = [[M.metric_apply(basis[a], M.phi[b]) for b in range(n)] for a in range(n)]
    brackets = ref_frame_brackets(M)

    def phi_form(c, d):
        return add_all([c[a] * d[b] * Phi[a][b] for a in range(n) for b in range(n)])

    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                out[(i, j, k)] = add_all([
                    ref_apply(M.frame[i], Phi[j][k]), -ref_apply(M.frame[j], Phi[i][k]),
                    ref_apply(M.frame[k], Phi[i][j]), -phi_form(brackets[i][j], basis[k]),
                    phi_form(brackets[i][k], basis[j]), -phi_form(brackets[j][k], basis[i])])
    return out


# --- the argparse command line ---------------------------------------------------


def _fraction_arg(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def ref_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("manifest", help="manifest path or bundled fixture name")
    common.add_argument("--json", action="store_true", dest="as_json",
                        help="emit a JSON report instead of text")
    common.add_argument("--seed", type=int, default=None,
                        help="override the sampling seed")
    common.add_argument("--samples", type=int, default=None,
                        help="override the sample-point count")
    common.add_argument("--tol", type=float, default=None,
                        help="override the zero-test tolerance")

    p = argparse.ArgumentParser(
        prog="contactgeo",
        description="verify almost contact metric structures and "
                    "*-conformal eta-Ricci solitons",
    )
    p.add_argument("--version", action="version", version=f"contactgeo {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check", parents=[common],
                        help="run the structure checks")
    pc.add_argument("--checks", default=",".join(CHECK_NAMES),
                    help="comma-separated subset of: " + ", ".join(CHECK_NAMES))

    pt = sub.add_parser("tables", parents=[common],
                        help="print connection/curvature/ricci tables")
    pt.add_argument("--what", choices=TABLE_NAMES, required=True)

    ps = sub.add_parser("soliton", parents=[common],
                        help="solve or verify the soliton equation")
    mode = ps.add_mutually_exclusive_group(required=True)
    mode.add_argument("--solve", action="store_true")
    mode.add_argument("--verify", action="store_true")
    ps.add_argument("--lambda-tilde", type=_fraction_arg, default=None,
                    dest="lambda_tilde")
    ps.add_argument("--mu", type=_fraction_arg, default=None)
    ps.add_argument("--p", type=_fraction_arg, default=None,
                    help="numeric pressure for a concrete classification")
    return p


def ref_check_almost_contact(M):
    """The defining axioms and their standard consequences."""
    n = M.dim
    basis = frame_basis(n)
    eta = M.eta_frame
    xi = M.xi_frame
    G = M.metric
    phi2 = [_mat_vec(M.phi, M.phi[j]) for j in range(n)]

    parts_sq = []
    for j in range(n):
        for k in range(n):
            delta = ONE if j == k else ZERO
            e = add_all([phi2[j][k], delta, _prod(MINUS_ONE, eta[j], xi[k])])
            parts_sq.append((f"(phi^2 + Id - eta(x)xi)(e_{j + 1})[{k + 1}]", e))

    parts_comp = []
    for i in range(n):
        for j in range(i, n):
            e = add_all([M.metric_apply(M.phi[i], M.phi[j]), _prod(MINUS_ONE, G[i][j]),
                         _prod(eta[i], eta[j])])
            parts_comp.append((f"compat(e_{i + 1}, e_{j + 1})", e))

    phi_xi = _mat_vec(M.phi, xi)
    parts_anti = []
    for i in range(n):
        for j in range(i, n):
            e = M.metric_apply(M.phi[i], basis[j]) + M.metric_apply(basis[i], M.phi[j])
            parts_anti.append((f"antisym(e_{i + 1}, e_{j + 1})", e))

    results = [
        combine(M, "phi_square", parts_sq),
        combine(M, "reeb_normalization",
                [("eta(xi) - 1", M.metric_apply(xi, xi) - ONE)]),
        combine(M, "metric_compatibility", parts_comp),
        combine(M, "phi_reeb",
                [(f"(phi xi)[{k + 1}]", phi_xi[k]) for k in range(n)]),
        combine(M, "eta_phi",
                [(f"eta(phi e_{j + 1})", M.metric_apply(M.phi[j], xi))
                 for j in range(n)]),
        combine(M, "phi_antisymmetry", parts_anti),
    ]
    return CheckReport("almost_contact", results)


def ref_check_kenmotsu(M, conn, table):
    """The covariant characterization plus its derived identities."""
    n = M.dim
    two_n = Rat(2 * M.n)
    basis = frame_basis(n)
    eta = M.eta_frame
    xi = M.xi_frame
    G = M.metric

    parts_b8 = []
    for i in range(n):
        nabla_phi = conn.nabla_operator(M.phi, basis[i])
        for j in range(n):
            lhs = nabla_phi[j]
            coeff = M.metric_apply(M.phi[i], basis[j])
            for k in range(n):
                e = add_all([lhs[k], _prod(MINUS_ONE, coeff, xi[k]),
                             _prod(eta[j], M.phi[i][k])])
                parts_b8.append((f"(nabla_e{i + 1} phi)e_{j + 1}[{k + 1}]", e))

    parts_b9 = []
    for i in range(n):
        nx = conn.nabla_comps(basis[i], xi)
        for k in range(n):
            e = add_all([nx[k], MINUS_ONE if i == k else ZERO, _prod(eta[i], xi[k])])
            parts_b9.append((f"(nabla_e{i + 1} xi - e_{i + 1} + eta xi)[{k + 1}]", e))

    parts_b10 = []
    for i in range(n):
        for j in range(n):
            e = add_all([M.frame[i].apply(eta[j]),
                         _prod(MINUS_ONE, M.metric_apply(conn.gamma[i][j], xi)),
                         _prod(MINUS_ONE, G[i][j]), _prod(eta[i], eta[j])])
            parts_b10.append((f"(nabla eta - g + eta(x)eta)(e_{i + 1}, e_{j + 1})", e))

    parts_b11 = []
    for i in range(n):
        for j in range(i + 1, n):
            rv = _mat_vec(table.R[i][j], xi)
            for k in range(n):
                e = add_all([rv[k], _prod(MINUS_ONE, eta[i]) if j == k else ZERO,
                             eta[j] if i == k else ZERO])
                parts_b11.append((f"R(e_{i + 1}, e_{j + 1})xi[{k + 1}]", e))

    parts_b12 = []
    for i in range(n):
        s = add_all([_prod(table.ricci[i][j], xi[j]) for j in range(n)]
                    + [_prod(two_n, eta[i])])
        parts_b12.append((f"S(e_{i + 1}, xi) + 2n eta(e_{i + 1})", s))

    lg = lie_derivative_metric(M, xi)
    parts_b13 = []
    for i in range(n):
        for j in range(i, n):
            e = add_all([lg[i][j], _prod(Rat(-2), G[i][j]), _prod(Rat(2), eta[i], eta[j])])
            parts_b13.append((f"(L_xi g - 2g + 2eta(x)eta)(e_{i + 1}, e_{j + 1})", e))

    Q = table.ricci_operator
    parts_c1 = []
    for i in range(n):
        dQ = conn.nabla_operator(Q, basis[i])
        # (nabla_X Q)(xi) by linearity over the frame images
        img = _mat_vec(dQ, xi)
        for k in range(n):
            e = add_all([img[k], Q[i][k], two_n if i == k else ZERO])
            parts_c1.append((f"((nabla_e{i + 1} Q)xi + Q e_{i + 1} + 2n e_{i + 1})[{k + 1}]", e))

    dQxi = conn.nabla_operator(Q, xi)
    parts_c2 = []
    for i in range(n):
        for k in range(n):
            e = add_all([dQxi[i][k], _prod(Rat(2), Q[i][k]),
                         Rat(4 * M.n) if i == k else ZERO])
            parts_c2.append((f"((nabla_xi Q)e_{i + 1} + 2Q e_{i + 1} + 4n e_{i + 1})[{k + 1}]", e))

    coef = Rat(1 - 2 * M.n)
    parts_c3 = []
    for i, j in table.star_pairs:
        e = add_all([table.star_ricci[i][j], _prod(MINUS_ONE, table.ricci[i][j]),
                     _prod(coef, G[i][j]), _prod(MINUS_ONE, eta[i], eta[j])])
        parts_c3.append((f"(S* - S - (2n-1)g - eta(x)eta)(e_{i + 1}, e_{j + 1})", e))

    results = [
        combine(M, "covariant_phi", parts_b8),
        combine(M, "covariant_reeb", parts_b9),
        combine(M, "covariant_eta", parts_b10),
        combine(M, "curvature_reeb", parts_b11),
        combine(M, "ricci_reeb", parts_b12),
        combine(M, "reeb_metric_flow", parts_b13),
        combine(M, "ricci_operator_reeb_derivative", parts_c1),
        combine(M, "ricci_operator_reeb_flow", parts_c2),
        combine(M, "star_ricci_from_ricci", parts_c3),
    ]
    return CheckReport("kenmotsu", results)


def ref_check_almost_kenmotsu(M, conn, table, tensors):
    """d eta = 0, d Phi = 2 eta ^ Phi, and the h-tensor identities."""
    n = M.dim
    basis = frame_basis(n)
    eta = M.eta_frame
    xi = M.xi_frame
    ext = ExteriorData(M)

    parts_eta = [(f"d eta(e_{i + 1}, e_{j + 1})", ext.d_eta[(i, j)])
                 for i in range(n) for j in range(i + 1, n)]
    parts_phi = [(f"(dPhi - 2 eta^Phi)(e_{i + 1}, e_{j + 1}, e_{k + 1})",
                  add_all([ext.d_Phi[(i, j, k)],
                           _prod(Rat(-2), ext.eta_wedge_Phi[(i, j, k)])]))
                 for (i, j, k) in sorted(ext.d_Phi)]

    h, hp = tensors.h, tensors.h_prime
    h_xi = _mat_vec(h, xi)
    hp_xi = _mat_vec(hp, xi)
    parts_b16 = [(f"(h xi)[{k + 1}]", h_xi[k]) for k in range(n)]
    parts_b16 += [(f"(h' xi)[{k + 1}]", hp_xi[k]) for k in range(n)]

    parts_b17 = []
    for j in range(n):
        hphi = _mat_vec(M.phi, [h[j][k] for k in range(n)])  # phi(h e_j)
        phih_j = _mat_vec(h, M.phi[j])  # h(phi e_j)
        for k in range(n):
            parts_b17.append((f"(h phi + phi h)(e_{j + 1})[{k + 1}]",
                              phih_j[k] + hphi[k]))

    tr_h = add_all([h[j][j] for j in range(n)])
    tr_hp = add_all([hp[j][j] for j in range(n)])

    parts_b18 = []
    for i in range(n):
        nx = conn.nabla_comps(basis[i], xi)
        for k in range(n):
            e = add_all([nx[k], MINUS_ONE if i == k else ZERO, _prod(eta[i], xi[k]),
                         _prod(MINUS_ONE, hp[i][k])])
            parts_b18.append((f"(nabla_e{i + 1} xi - e_{i + 1} + eta xi - h')[{k + 1}]", e))

    # curvature against the Reeb field must close over h':
    # R(X,Y)xi = eta(X)(Y + h'Y) - eta(Y)(X + h'X) + (nabla_X h')Y - (nabla_Y h')X
    parts_b19 = []
    dhp = [conn.nabla_operator(hp, basis[i]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rv = _mat_vec(table.R[i][j], xi)
            for k in range(n):
                shape_j = add_all([ONE if j == k else ZERO, hp[j][k]])
                shape_i = add_all([ONE if i == k else ZERO, hp[i][k]])
                e = add_all([rv[k], _prod(MINUS_ONE, eta[i], shape_j), _prod(eta[j], shape_i),
                             _prod(MINUS_ONE, dhp[i][j][k]), dhp[j][i][k]])
                parts_b19.append((f"R(e_{i + 1}, e_{j + 1})xi shape[{k + 1}]", e))

    results = [
        combine(M, "eta_closed", parts_eta),
        combine(M, "fundamental_form_scaling", parts_phi),
        combine(M, "h_reeb_annihilation", parts_b16),
        combine(M, "h_phi_anticommute", parts_b17),
        combine(M, "h_traceless", [("tr h", tr_h), ("tr h'", tr_hp)]),
        combine(M, "covariant_reeb_shape", parts_b18),
        combine(M, "curvature_reeb_shape", parts_b19),
    ]
    return CheckReport("almost_kenmotsu", results)



def ref_solve_nullity(M, conn, table, tensors):
    """Fit R(X,Y)xi against the nullity ansatz and cross-check theory."""
    n = M.dim
    two_n = 2 * M.n
    basis = frame_basis(n)
    eta = M.eta_frame
    xi = M.xi_frame
    G = M.metric
    hp = tensors.h_prime

    labelled = []
    for i in range(n):
        for j in range(i + 1, n):
            rv = _mat_vec(table.R[i][j], xi)
            for k in range(n):
                a_k = add_all([eta[j] if i == k else ZERO,
                               _prod(MINUS_ONE, eta[i]) if j == k else ZERO])
                a_m = add_all([_prod(eta[j], hp[i][k]), _prod(MINUS_ONE, eta[i], hp[j][k])])
                labelled.append((f"R(e_{i + 1}, e_{j + 1})xi nullity form[{k + 1}]",
                                 (a_k, a_m, rv[k])))
    fit = fit_sampled(M, [entry for _, entry in labelled])
    # kappa is never None: its column vanishes only where eta does, which
    # also zeroes the mu column, and the fit then raises
    kappa, mu = fit
    mu_unconstrained = mu is None
    kap, mu_eff = snap(kappa), snap(mu)

    fit_result, _ = settle_fit(M, "nullity_fit", labelled, fit)
    checks = [fit_result]
    hp2 = tensors.h_prime_squared()
    kap1 = kap + ONE
    parts = []
    for i in range(n):
        for k in range(n):
            delta = ONE if i == k else ZERO
            e = add_all([hp2[i][k],
                         _prod(kap1, add_all([delta, _prod(MINUS_ONE, eta[i], xi[k])]))])
            parts.append((f"(h'^2 + (k+1)(Id - eta(x)xi))(e_{i + 1})[{k + 1}]", e))
    checks.append(combine(M, "h_prime_square", parts))

    parts = []
    for i in range(n):
        for j in range(n):
            rv = _mat_vec([table.R[a][i][j] for a in range(n)], xi)
            hpi = [hp[i][k] for k in range(n)]
            ghij = M.metric_apply(hpi, basis[j])
            for k in range(n):
                along_kap = add_all([_prod(G[i][j], xi[k]),
                                     _prod(MINUS_ONE, eta[j]) if i == k else ZERO])
                along_mu = add_all([_prod(ghij, xi[k]), _prod(MINUS_ONE, eta[j], hpi[k])])
                e = add_all([rv[k], _prod(MINUS_ONE, kap, along_kap),
                             _prod(MINUS_ONE, mu_eff, along_mu)])
                parts.append((f"R(xi, e_{i + 1})e_{j + 1} shape[{k + 1}]", e))
    checks.append(combine(M, "reeb_curvature_operator", parts))

    parts = []
    for i in range(n):
        for k in range(n):
            e = add_all([table.ricci_operator[i][k], Rat(two_n) if i == k else ZERO,
                         _prod(Rat(-two_n), kap1, eta[i], xi[k]),
                         _prod(Rat(two_n), hp[i][k])])
            parts.append((f"(Q + 2n Id - 2n(k+1)eta(x)xi + 2n h')(e_{i + 1})[{k + 1}]", e))
    checks.append(combine(M, "ricci_operator_form", parts))

    checks.append(combine(M, "scalar_curvature_value",
                          [("r - 2n(k - 2n)",
                            add_all([table.scalar_curvature,
                                     Rat(-two_n * (kap.value - two_n))]))]))

    parts = []
    for i in range(n):
        for j in range(n):
            e = add_all([M.frame[i].apply(eta[j]),
                         _prod(MINUS_ONE, M.metric_apply(conn.gamma[i][j], xi)),
                         _prod(MINUS_ONE, G[i][j]), _prod(eta[i], eta[j]),
                         _prod(MINUS_ONE, M.metric_apply(hp[i], basis[j]))])
            parts.append((f"(nabla eta - g + eta(x)eta - g(h'.,.))(e_{i + 1}, e_{j + 1})", e))
    checks.append(combine(M, "covariant_eta_shape", parts))

    # the numpy fallback of spectrum() also gives ints, snapped at one
    # point, so only an exact spectrum settles the value exactly
    spectrum, spread, exact = tensors.spectrum()
    if exact and isinstance(kappa, (int, Fraction)):
        value = max(x * x for x in spectrum) + kappa + 1
    else:
        alpha = max(abs(float(x)) for x in spectrum)
        value = alpha * alpha + float(kappa) + 1.0
    checks.append(_numeric_result("spectrum_consistency", value, M.tol,
                                  note=f"spectrum {spectrum}, spread {spread:.3g}"))

    parts = []
    for i, j in table.star_pairs:
        e = add_all([table.star_ricci[i][j],
                     _prod(kap + Rat(2), add_all([G[i][j], _prod(MINUS_ONE, eta[i], eta[j])]))])
        parts.append((f"(S* + (k+2)(g - eta(x)eta))(e_{i + 1}, e_{j + 1})", e))
    checks.append(combine(M, "star_ricci_form", parts))

    data = {
        "kappa": str(kappa),
        "mu": None if mu_unconstrained else str(mu),
        "mu_unconstrained": mu_unconstrained,
        "residual_max": fit_result.max_abs,
        "exact": is_exact(fit),
        "spectrum": [str(x) for x in spectrum],
        "spectrum_spread": float(spread),
    }
    return CheckReport("nullity", checks, data)


def ref_solve_eta_einstein(M, table):
    """Least-squares fit S = a g + b eta(x)eta."""
    n = M.dim
    eta = M.eta_frame
    G = M.metric
    labelled = [(f"(S - a g - b eta(x)eta)(e_{i + 1}, e_{j + 1})",
                 (G[i][j], _prod(eta[i], eta[j]), table.ricci[i][j]))
                for i in range(n) for j in range(i, n)]
    fit = fit_sampled(M, [entry for _, entry in labelled])
    a, b = fit
    if a is None:
        raise DegenerateSystem("metric column vanished; manifest is degenerate")
    if b is None:
        raise DegenerateSystem("eta(x)eta column vanished; eta is degenerate")
    result, _ = settle_fit(M, "eta_einstein_fit", labelled, fit)
    einstein = result.passed and abs(float(b)) < M.tol

    # Kenmotsu consistency: with S = a g + b eta(x)eta one must have
    # a + b = -2n, a = 1 + r/2n, b = -(2n+1+r/2n). Only meaningful when
    # the scalar curvature is constant; reported as data, not a verdict.
    r_const = table.scalar_curvature
    consistency = None
    if isinstance(r_const, Rat):
        r = r_const.value
        a_exp = 1 + Fraction(r, 2 * M.n)
        b_exp = -(2 * M.n + 1 + Fraction(r, 2 * M.n))
        consistency = {
            "a_expected": str(a_exp),
            "b_expected": str(b_exp),
            "sum_rule": str(Fraction(-2 * M.n)),
            "matches": bool(result.passed
                            and abs(float(a) - float(a_exp)) < M.tol
                            and abs(float(b) - float(b_exp)) < M.tol),
        }
    data = {
        "a": str(a),
        "b": str(b),
        "residual_max": result.max_abs,
        "exact": is_exact(fit),
        "einstein": einstein,
        "kenmotsu_consistency": consistency,
    }
    return CheckReport("eta_einstein", [result], data)


# --- the earlier least squares ---------------------------------------------------


def ref_solve_rational(gram, rhs):
    # Gaussian elimination on the k x k normal system, exact.
    k = len(rhs)
    aug = [list(gram[i]) + [rhs[i]] for i in range(k)]
    for col in range(k):
        piv = None
        for r in range(col, k):
            if aug[r][col] != 0:
                piv = r
                break
        if piv is None:
            raise DegenerateSystem("normal equations are singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][k] for i in range(k)]


def ref_solve_least_squares(rows, rhs, weights=None):
    """Fit x minimizing ||A x - b||.

    rows: list of coefficient tuples (one per equation), rhs: list of
    numbers. Entries may be Fraction/int (exact) or float. weights, when
    given, holds one positive integer per row: the system is solved as if
    row i appeared weights[i] times. Returns one value per column;
    dropped columns get None.
    """
    if weights is None:
        weights = [1] * len(rows)
    if not rows:
        raise DegenerateSystem("no equations to fit")
    ncols = len(rows[0])
    exact = all(
        isinstance(x, (Fraction, int)) for row in rows for x in row
    ) and all(isinstance(x, (Fraction, int)) for x in rhs)

    keep = [j for j in range(ncols) if any(row[j] != 0 for row in rows)]
    if not keep:
        raise DegenerateSystem("all coefficient columns vanish")

    if exact:
        k = len(keep)
        gram = [[Fraction(0)] * k for _ in range(k)]
        rvec = [Fraction(0)] * k
        for row, b, w in zip(rows, rhs, weights):
            for a, ja in enumerate(keep):
                ra = Fraction(row[ja])
                if ra == 0:
                    continue
                rvec[a] += w * ra * Fraction(b)
                for bcol in range(a, k):
                    gram[a][bcol] += w * ra * Fraction(row[keep[bcol]])
        for a in range(k):
            for bcol in range(a):
                gram[a][bcol] = gram[bcol][a]
        sol = ref_solve_rational(gram, rvec)
        values = [None] * ncols
        for a, j in enumerate(keep):
            values[j] = sol[a]
        return values

    import numpy as np

    A = np.array([[float(row[j]) for j in keep] for row in rows], dtype=float)
    b = np.array([float(x) for x in rhs], dtype=float)
    A = np.repeat(A, weights, axis=0)
    b = np.repeat(b, weights)
    sol, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    if rank < len(keep):
        raise DegenerateSystem("normal equations are singular")
    values = [None] * ncols
    for a, j in enumerate(keep):
        values[j] = float(sol[a])
    return values
