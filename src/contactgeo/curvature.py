"""Connection and curvature machinery on a declared frame.

Conventions (fixed, and pinned by golden tests):

* Koszul:  ``2 g(nabla_X Y, Z) = X g(Y,Z) + Y g(Z,X) - Z g(X,Y)
  - g(X,[Y,Z]) - g(Y,[X,Z]) + g(Z,[X,Y])``
* Curvature: ``R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
  - nabla_[X,Y] Z``
* Ricci: ``S(X,Y) = sum g^{ij} g(R(e_i, X) Y, e_j)``; scalar curvature
  ``r = sum g^{ij} S_ij``.
* Star-Ricci: ``S*(X,Y) = (1/2) sum g^{ij} g(phi(R(X, phi Y) e_i), e_j)``
  with ``r* = sum g^{ij} S*_ij``.
* Exterior derivative (1-form): ``dw(X,Y) = X(w(Y)) - Y(w(X)) - w([X,Y])``;
  (2-form): ``dW(X,Y,Z) = X(W(Y,Z)) - Y(W(X,Z)) + Z(W(X,Y))
  - W([X,Y],Z) + W([X,Z],Y) - W([Y,Z],X)``;
  wedge: ``(eta ^ Phi)(X,Y,Z) = eta(X)Phi(Y,Z) + eta(Y)Phi(Z,X)
  + eta(Z)Phi(X,Y)``.

All tensors produced here are frame-indexed arrays of scalar fields.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import isqrt

from .geometry import _mat_vec, lie_bracket
from .scalar import Rat, ZERO, ONE, add_all, evaluate

HALF = Rat(Fraction(1, 2))
# a sampled h' eigenvalue this close to an integer is reported as that integer
SNAP_TOL = 1e-9


def frame_basis(n):
    """Frame components of e_1, ..., e_n: the rows of the identity."""
    return [[ONE if k == m else ZERO for m in range(n)] for k in range(n)]


class ConnectionTable:
    """Levi-Civita Christoffel data on the frame.

    ``gamma[i][j][k]`` is the ``e_k`` component of ``nabla_{e_i} e_j``.
    """

    def __init__(self, M, gamma, brackets):
        self.M = M
        self.gamma = gamma
        self.brackets = brackets  # frame components of [e_i, e_j]
        # _nabla_nz[i][j]: the non-zero (k, gamma[i][j][k]) of nabla_{e_i} e_j
        self._nabla_nz = [[[(k, g) for k, g in enumerate(row) if g is not ZERO] for row in rows]
                          for rows in gamma]

    def nabla_comps(self, x_frame, c_frame):
        """Frame components of ``nabla_X Y`` from frame components.

        ``nabla_X (c^k e_k) = X(c^k) e_k + c^k x^i nabla_{e_i} e_k``;
        the X-derivation of a component is taken through the frame:
        ``X(f) = sum_i x^i e_i(f)``.  The Christoffel part contracts
        ``c^l gamma[i][l][k]`` first and multiplies by ``x^i`` once; each
        output component is merged in one ``add_all``.  Only non-zero
        components, derivatives and Christoffel symbols are visited, and
        a component with no term is ``ZERO`` without a sum.
        """
        terms = [[] for _ in range(self.M.dim)]
        self.nabla_terms(x_frame, c_frame, terms)
        return [add_all(t) if t else ZERO for t in terms]

    def nabla_terms(self, x_frame, c_frame, terms):
        """Append the non-zero terms of ``nabla_X Y`` to ``terms[k]``, one
        list per frame component, without summing them."""
        frame = self.M.frame
        xs = [(i, x) for i, x in enumerate(x_frame) if x is not ZERO]
        cs = [(l, cl) for l, cl in enumerate(c_frame) if cl is not ZERO]
        for l, cl in cs:
            for i, x in xs:
                d = frame[i].apply(cl)
                if d is not ZERO:
                    terms[l].append(x * d)
        for i, x in xs:
            ws = {}
            for l, cl in cs:
                for k, g in self._nabla_nz[i][l]:
                    ws.setdefault(k, []).append(cl * g)
            for k, t in ws.items():
                w = add_all(t)
                if w is not ZERO:
                    terms[k].append(x * w)

    def nabla_operator(self, A, x_frame):
        """Covariant derivative of a (1,1) tensor given as a frame matrix.

        ``(nabla_X A)(e_j) = nabla_X (A e_j) - A (nabla_X e_j)``; rows of
        the result are images of the frame vectors. The terms of both parts
        of each component are merged in one ``add_all``.
        """
        M = self.M
        n = M.dim
        out = []
        for j in range(n):
            terms = [[] for _ in range(n)]
            self.nabla_terms(x_frame, A[j], terms)
            nx_ej = self.nabla_comps(x_frame, [ONE if k == j else ZERO for k in range(n)])
            for m, c in enumerate(nx_ej):
                if c is not ZERO:
                    c = -c
                    for k, amk in enumerate(A[m]):
                        if amk is not ZERO:
                            terms[k].append(c * amk)
            out.append([add_all(t) for t in terms])
        return out


def frame_brackets(M):
    """Frame components of ``[e_i, e_j]`` for every frame pair."""
    n = M.dim
    brackets = [[None] * n for _ in range(n)]
    for i in range(n):
        brackets[i][i] = [ZERO] * n
        for j in range(i + 1, n):
            brackets[i][j] = M.to_frame(lie_bracket(M.frame[i], M.frame[j]))
            brackets[j][i] = [c if c is ZERO else -c for c in brackets[i][j]]
    return brackets


def koszul(M):
    """Levi-Civita connection of the declared (symmetric) frame metric.

    ``2 g(nabla_{e_i} e_j, e_k)`` is scattered into slots (i, j, k) from the
    non-zero data only: ``L = g([e_a, e_b], e_c)``, a < b, to (a, b, c),
    (c, b, a), (b, c, a) and ``-L`` to (c, a, b), (a, c, b), (b, a, c); and
    ``D = e_a(g_bc)``, of a metric entry that is not constant, to (a, b, c),
    (c, a, b) and ``-D`` to (b, c, a). Each slot is summed and halved, and
    raised with g^{-1} only for the (i, j) that have one.
    """
    n = M.dim
    G = M.metric
    Ginv = M.metric_inverse
    brackets = frame_brackets(M)
    slots = {}
    for a in range(n):
        for b in range(a + 1, n):
            for c, low in enumerate(_mat_vec(G, brackets[a][b])):
                if low is not ZERO:
                    neg = -low
                    for key, e in (((a, b, c), low), ((c, b, a), low), ((b, c, a), low),
                                   ((c, a, b), neg), ((a, c, b), neg), ((b, a, c), neg)):
                        slots.setdefault(key, []).append(e)
    for b in range(n):
        for c in range(b, n):
            if not isinstance(G[b][c], Rat):
                for a, e_a in enumerate(M.frame):
                    d = e_a.apply(G[b][c])
                    if d is not ZERO:
                        for p, q in {(b, c), (c, b)}:
                            for key, e in (((a, p, q), d), ((q, a, p), d), ((p, q, a), -d)):
                                slots.setdefault(key, []).append(e)
    rhs = {}
    for (i, j, k), parts in slots.items():
        s = add_all(parts)
        if s is not ZERO:
            rhs.setdefault((i, j), []).append((k, HALF * s))
    # solve sum_m gamma^m G_mk = rhs_k  =>  gamma = Ginv . rhs
    gamma = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for (i, j), nz in rhs.items():
        gamma[i][j] = [add_all([Ginv[m][k] * r for k, r in nz if Ginv[m][k] is not ZERO])
                       for m in range(n)]
    return ConnectionTable(M, gamma, brackets)


class CurvatureTable:
    """Riemann, Ricci, and star-Ricci data on the frame.

    Each quantity is built on first read and kept, so a caller pays only
    for what it reads: R alone for the Riemann table, R and S for Ricci,
    R and S* for star-Ricci.
    """

    def __init__(self, M, conn):
        self.M = M
        self.conn = conn

    @cached_property
    def R(self):
        """``R[i][j][k]``: frame components of ``R(e_i, e_j) e_k``, for i < j
        scattered per component from the non-zero Christoffel symbols:
        ``e_i(Gamma^m_jk)`` where not constant, ``Gamma^l_jk Gamma^m_il``,
        both with i, j swapped and negated, and ``[e_j, e_i]^p Gamma^m_pk``;
        R[j][i] is -R[i][j]."""
        conn = self.conn
        n = self.M.dim
        frame = self.M.frame
        nz = conn._nabla_nz
        R = [[None] * n for _ in range(n)]
        for i in range(n):
            R[i][i] = [[ZERO] * n for _ in range(n)]
            for j in range(i + 1, n):
                ji = [(p, x) for p, x in enumerate(conn.brackets[j][i]) if x is not ZERO]
                R[i][j] = []
                for k in range(n):
                    terms = {}
                    for s, t, x in ((i, j, ONE), (j, i, -ONE)):
                        for l, c in nz[t][k]:
                            if not isinstance(c, Rat):
                                d = frame[s].apply(c)
                                if d is not ZERO:
                                    terms.setdefault(l, []).append(x * d)
                            for m, g in nz[s][l]:
                                terms.setdefault(m, []).append(x * (c * g))
                    for p, x in ji:
                        for m, g in nz[p][k]:
                            terms.setdefault(m, []).append(x * g)
                    R[i][j].append([add_all(terms[m]) if m in terms else ZERO
                                    for m in range(n)])
                R[j][i] = [[c if c is ZERO else -c for c in comps] for comps in R[i][j]]
        return R

    @cached_property
    def ricci(self):
        """``S_ij = sum g^{ab} g(R(e_a, e_i) e_j, e_b)``, lowering only the
        ``(a, b)`` entries with ``g^{ab}`` non-zero."""
        R = self.R
        n = self.M.dim
        G = self.M.metric
        Ginv = self.M.metric_inverse
        pairs = [(a, b) for a in range(n) for b in range(n) if Ginv[a][b] is not ZERO]
        S = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                terms = []
                for a, b in pairs:
                    # g(R(e_a, e_i) e_j, e_b)
                    low = add_all([c * G[m][b] for m, c in enumerate(R[a][i][j])
                                   if c is not ZERO and G[m][b] is not ZERO])
                    if low is not ZERO:
                        terms.append(Ginv[a][b] * low)
                S[i][j] = add_all(terms)
        return S

    @cached_property
    def ricci_operator(self):
        """Rows: ``Q e_i = sum_k Q[i][k] e_k`` with ``g(Q e_i, .) = S(e_i, .)``."""
        S = self.ricci
        n = self.M.dim
        Ginv = self.M.metric_inverse
        return [[add_all([Ginv[k][j] * S[j][i] for j in range(n)
                          if Ginv[k][j] is not ZERO and S[j][i] is not ZERO])
                 for k in range(n)]
                for i in range(n)]

    @cached_property
    def scalar_curvature(self):
        return _trace(self.M.metric_inverse, self.ricci)

    @cached_property
    def star_ricci(self):
        """``S*_ij = 1/2 sum g^{ab} g(phi(R(e_i, phi e_j) e_a), e_b)``, over
        the non-zero entries of R, phi, g and g^{-1} only, and only the a
        with some ``R(e_i, e_m) e_a`` non-zero, m in phi(e_j)."""
        M = self.M
        n = M.dim
        G = M.metric
        # the non-zero (k, R^k) of R(e_i, e_m) e_a, phi(e_j) and row a of g^{-1}
        R = [[[[(k, c) for k, c in enumerate(comps) if c is not ZERO] for comps in Rim]
              for Rim in Ri] for Ri in self.R]
        phis = [[(m, c) for m, c in enumerate(row) if c is not ZERO] for row in M.phi]
        ginv = [[(b, g) for b, g in enumerate(row) if g is not ZERO] for row in M.metric_inverse]
        Sstar = [[None] * n for _ in range(n)]
        for i in range(n):
            for j, phj in enumerate(phis):
                # R(e_i, phi e_j) e_a, by linearity in the middle slot
                by_a = {}
                for m, c in phj:
                    for a, row in enumerate(R[i][m]):
                        if row:
                            by_a.setdefault(a, []).append((c, row))
                terms = []
                for a, pairs in by_a.items():
                    # apply phi, and contract with sum_b g^{ab} g(., e_b)
                    phi_comps = _lincomb([(c, phis[m]) for m, c in _lincomb(pairs)])
                    for b, g in ginv[a]:
                        inner = add_all([c * G[m][b] for m, c in phi_comps if G[m][b] is not ZERO])
                        if inner is not ZERO:
                            terms.append(g * inner)
                s = add_all(terms)
                Sstar[i][j] = s if s is ZERO else HALF * s
        return Sstar

    @cached_property
    def star_scalar(self):
        return _trace(self.M.metric_inverse, self.star_ricci)

    def riemann_apply(self, x_frame, y_frame, z_frame):
        """``R(X, Y) Z`` by multilinearity over the non-zero frame components."""
        x, y, z = ([(i, c) for i, c in enumerate(f) if c is not ZERO]
                   for f in (x_frame, y_frame, z_frame))
        terms = [[] for _ in range(self.M.dim)]
        for i, u in x:
            for j, v in y:
                coeff = u * v
                for k, w in z:
                    c = coeff * w
                    for m, r in enumerate(self.R[i][j][k]):
                        if r is not ZERO:
                            terms[m].append(c * r)
        return [add_all(t) for t in terms]


def _lincomb(pairs):
    """The non-zero components of ``sum_r coeff_r row_r`` as (k, value)
    pairs, from (coeff_r, row_r) pairs of a non-zero coefficient and the
    non-zero (k, entry) pairs of a row; each product is ``coeff * entry``,
    and each component is merged in one ``add_all``."""
    terms = {}
    for coeff, row in pairs:
        for k, e in row:
            terms.setdefault(k, []).append(coeff * e)
    out = []
    for k in sorted(terms):
        v = add_all(terms[k])
        if v is not ZERO:
            out.append((k, v))
    return out


def _trace(Ginv, T):
    """``sum g^{ij} T_ij``."""
    n = len(T)
    return add_all([Ginv[i][j] * T[i][j] for i in range(n) for j in range(n)
                    if Ginv[i][j] is not ZERO and T[i][j] is not ZERO])


def lie_derivative_metric(M, V):
    """``(L_V g)(e_i, e_j) = V(g_ij) - g([V,e_i], e_j) - g(e_i, [V,e_j])``."""
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


def hessian(M, conn, f):
    """``Hess f(e_i, e_j) = e_i(e_j(f)) - (nabla_{e_i} e_j)(f)``."""
    n = M.dim
    ef = [M.frame[j].apply(f) for j in range(n)]
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[i][j] = add_all([M.frame[i].apply(ef[j])]
                                + [-(gk * ef[k]) for k, gk in enumerate(conn.gamma[i][j])
                                   if gk is not ZERO and ef[k] is not ZERO])
    return out


class StructureTensors:
    """The tensors ``h = (1/2) L_xi phi`` and ``h' = h o phi``.

    Rows are frame images, like the phi convention.
    """

    def __init__(self, M):
        self.M = M
        n = M.dim
        xi = M.xi
        phi_fields = [M.from_frame(M.phi[j]) for j in range(n)]

        def half_lie_phi(Y, phiY):
            # (L_xi phi)(Y) = [xi, phi Y] - phi([xi, Y])
            a = M.to_frame(lie_bracket(xi, phiY))
            b = M.phi_frame_apply(M.to_frame(lie_bracket(xi, Y)))
            diff = [p if q is ZERO else add_all([p, -q]) for p, q in zip(a, b)]
            return [d if d is ZERO else HALF * d for d in diff]

        self.h = [half_lie_phi(M.frame[j], phi_fields[j]) for j in range(n)]
        # h'(e_j) = h(phi e_j), computed directly from the bracket definition
        phi2 = [M.from_frame(M.phi_frame_apply(M.phi[j])) for j in range(n)]
        self.h_prime = [half_lie_phi(phi_fields[j], phi2[j]) for j in range(n)]

    def h_prime_squared(self):
        """``h'^2`` as a frame matrix; each component merged in one ``add_all``."""
        n = self.M.dim
        nz = [[(k, e) for k, e in enumerate(row) if e is not ZERO] for row in self.h_prime]
        out = [[ZERO] * n for _ in range(n)]
        for j, row in enumerate(nz):
            for k, v in _lincomb([(a, nz[m]) for m, a in row]):
                out[j][k] = v
        return out

    def spectrum(self):
        """Eigenvalues of h', exactly when they are integers, else sampled.

        Returns ``(values, max_spread, exact)``. When every entry of h' is
        a rational constant and ``integer_spectrum`` finds its eigenvalues,
        the values are those integers, the spread is exactly 0.0 and
        ``exact`` is True. Otherwise the values come from numpy at the
        first sample point (snapped to integers when that close), the
        spread is the largest eigenvalue movement across sample points, and
        ``exact`` is False; numpy is imported only on that path.
        """
        if all(isinstance(e, Rat) for row in self.h_prime for e in row):
            # rows are images, so this is the transpose of the operator
            # matrix: same eigenvalues, same nullities
            values = integer_spectrum([[e.value for e in row] for row in self.h_prime])
            if values is not None:
                return values, 0.0, True

        import numpy as np

        M = self.M
        n = M.dim
        pts = M.sampler.points()
        all_eigs = []
        for env in pts[: min(len(pts), 10)]:
            mat = np.empty((n, n))
            for j in range(n):
                for k in range(n):
                    # operator matrix: column j holds the image of e_j
                    mat[k, j] = float(evaluate(self.h_prime[j][k], env))
            eigs = np.sort(np.linalg.eigvals(mat).real)
            all_eigs.append(eigs)
        first = all_eigs[0]
        spread = 0.0
        for eigs in all_eigs[1:]:
            spread = max(spread, float(np.max(np.abs(eigs - first))))
        values = []
        for x in first:
            r = round(x)
            values.append(int(r) if abs(x - r) < SNAP_TOL else float(x))
        return values, spread, False


def integer_spectrum(mat):
    """Eigenvalues of a square ``Fraction`` matrix, ascending with
    multiplicity, if it is diagonalizable with integer eigenvalues; else
    None.

    Such a matrix has ``tr A^2 = sum lambda^2``, a non-negative integer,
    so every eigenvalue lies in ``|lambda| <= isqrt(tr A^2)``; and it is
    such a matrix exactly when the nullities of ``A - lambda I`` over
    those integers add up to n. Defective, complex and non-integer
    spectra give None.
    """
    n = len(mat)
    tr_sq = sum(mat[j][k] * mat[k][j] for j in range(n) for k in range(n))
    if tr_sq < 0 or tr_sq.denominator != 1:
        return None
    bound = isqrt(int(tr_sq))
    values = []
    for lam in range(-bound, bound + 1):
        shifted = [[a - lam if j == k else a for k, a in enumerate(row)]
                   for j, row in enumerate(mat)]
        values += [lam] * (n - _rank(shifted))
        if len(values) == n:
            return values
    return None


def _rank(rows):
    """Rank of a square ``Fraction`` matrix by exact elimination; consumes
    ``rows``."""
    rank = 0
    for col in range(len(rows)):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                f = rows[r][col] / p[col]
                rows[r] = [a - f * b for a, b in zip(rows[r], p)]
        rank += 1
    return rank


# --- exterior calculus -------------------------------------------------------


class ExteriorData:
    """``d eta``, the fundamental 2-form ``Phi``, ``d Phi``, ``eta ^ Phi``."""

    def __init__(self, M, conn):
        self.M = M
        n = M.dim
        basis = frame_basis(n)
        brackets = conn.brackets

        eta = M.eta_frame
        # d eta (e_i, e_j)
        self.d_eta = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                minus = [M.frame[j].apply(eta[i])] + [
                    c * eta[k] for k, c in enumerate(brackets[i][j])
                    if c is not ZERO and eta[k] is not ZERO]
                self.d_eta[i][j] = add_all([M.frame[i].apply(eta[j])]
                                           + [-e for e in minus if e is not ZERO])

        # Phi(X, Y) = g(X, phi Y)
        self.Phi = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                self.Phi[i][j] = M.metric_apply(basis[i], M.phi[j])

        def phi_form(c, d):
            return add_all([c[a] * d[b] * self.Phi[a][b]
                            for a in range(n) if c[a] is not ZERO
                            for b in range(n)
                            if d[b] is not ZERO and self.Phi[a][b] is not ZERO])

        # d Phi (e_i, e_j, e_k) and (eta ^ Phi)(e_i, e_j, e_k)
        self.d_Phi = {}
        self.eta_wedge_Phi = {}
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    minus = (M.frame[j].apply(self.Phi[i][k]),
                             phi_form(brackets[i][j], basis[k]),
                             phi_form(brackets[j][k], basis[i]))
                    self.d_Phi[(i, j, k)] = add_all([
                        M.frame[i].apply(self.Phi[j][k]),
                        M.frame[k].apply(self.Phi[i][j]),
                        phi_form(brackets[i][k], basis[j])]
                        + [-e for e in minus if e is not ZERO])
                    wedge = ((eta[i], self.Phi[j][k]), (eta[j], self.Phi[k][i]),
                             (eta[k], self.Phi[i][j]))
                    self.eta_wedge_Phi[(i, j, k)] = add_all([
                        a * b for a, b in wedge if a is not ZERO and b is not ZERO])
