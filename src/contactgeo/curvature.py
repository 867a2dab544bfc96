"""Connection and curvature machinery on a declared frame.

Conventions (fixed, and pinned by golden tests):

* Koszul:  ``2 g(nabla_X Y, Z) = X g(Y,Z) + Y g(Z,X) - Z g(X,Y)
  - g(X,[Y,Z]) - g(Y,[X,Z]) + g(Z,[X,Y])``
* Curvature: ``R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
  - nabla_[X,Y] Z``
* Ricci, a trace: ``S(X,Y) = tr(Z -> R(Z, X) Y)``, on the frame
  ``S_ij = sum_a (R(e_a, e_i) e_j)^a``; scalar curvature
  ``r = sum g^{ij} S_ij``.
* Star-Ricci, a trace: ``S*(X,Y) = (1/2) tr(Z -> phi R(X, phi Y) Z)``, on
  the frame ``S*_ij = (1/2) sum_{l,a,m} phi_jl (R(e_i, e_l) e_a)^m phi_ma``;
  ``r* = sum g^{ij} S*_ij``. Neither trace reads the metric.
* Exterior derivative (1-form): ``dw(X,Y) = X(w(Y)) - Y(w(X)) - w([X,Y])``;
  (2-form): ``dW(X,Y,Z) = X(W(Y,Z)) - Y(W(X,Z)) + Z(W(X,Y))
  - W([X,Y],Z) + W([X,Z],Y) - W([Y,Z],X)``;
  wedge: ``(eta ^ Phi)(X,Y,Z) = eta(X)Phi(Y,Z) + eta(Y)Phi(Z,X)
  + eta(Z)Phi(X,Y)``.
* Lie derivatives, from the bracket table ``M.brackets``:
  ``(L_V g)(X,Y) = V(g(X,Y)) - g([V,X],Y) - g(X,[V,Y])``;
  ``h = (1/2) L_xi phi`` and ``h' = h o phi``.

All tensors produced here are frame-indexed arrays of scalar fields.
Koszul and R are scattered from the non-zero data only (structure
constants, metric derivatives, Christoffel symbols) into slots that are
each summed once; the traces visit only the non-zero entries of R and
phi.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import isqrt

from .geometry import _mat_vec, frame_basis, row_reduce
from .scalar import Rat, ZERO, add_all, evaluate

HALF = Rat(Fraction(1, 2))


class ConnectionTable:
    """Levi-Civita Christoffel data on the frame.

    ``gamma[i][j][k]`` is the ``e_k`` component of ``nabla_{e_i} e_j``.
    """

    def __init__(self, M, gamma):
        self.M = M
        self.gamma = gamma
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

    def nabla_form(self, w):
        """``(nabla_{e_i} w)(e_j) = e_i(w_j) - sum_k Gamma_ij^k w_k`` at [i][j],
        for the 1-form w of frame components ``w_j = w(e_j)``, over the
        non-zero symbols and components only."""
        minus_w = [-x for x in w]
        return [[add_all([e_i.apply(w_j)] + [g * minus_w[k] for k, g in nz if w[k] is not ZERO])
                 for w_j, nz in zip(w, rows)] for e_i, rows in zip(self.M.frame, self._nabla_nz)]

    def nabla_operator(self, A, x_frame, rows=None):
        """Covariant derivative of a (1,1) tensor given as a frame matrix.

        ``(nabla_X A)(e_j) = nabla_X (A e_j) - A (nabla_X e_j)``; rows of
        the result are images of the frame vectors, those of the indices
        ``rows`` in that order when it is given. The terms of both parts
        of each component are merged in one ``add_all``.
        """
        n = self.M.dim
        basis = frame_basis(n)
        out = []
        for j in range(n) if rows is None else rows:
            terms = [[] for _ in range(n)]
            self.nabla_terms(x_frame, A[j], terms)
            nx_ej = self.nabla_comps(x_frame, basis[j])
            for m, c in enumerate(nx_ej):
                if c is not ZERO:
                    c = -c
                    for k, amk in enumerate(A[m]):
                        if amk is not ZERO:
                            terms[k].append(c * amk)
            out.append([add_all(t) for t in terms])
        return out


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
    brackets = M.brackets
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
    return ConnectionTable(M, gamma)


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
        """``R[i][j][k]``: frame components of ``R(e_i, e_j) e_k``, scattered
        into slots (i, j, k, m), i < j, from the non-zero data only: each
        ``Gamma^l_tk Gamma^m_sl`` and, of a symbol that is not constant,
        each ``e_s(Gamma^l_tk)`` (to m = l), with s != t, to the slot of
        (s, t) when s < t and negated to that of (t, s) when s > t; and
        ``[e_j, e_i]^p Gamma^m_pk`` of each non-zero structure constant.
        Each slot is summed once; a non-zero sum is written to R[i][j] and
        negated to R[j][i], and every other entry is ``ZERO``."""
        M = self.M
        n = M.dim
        nz = self.conn._nabla_nz
        # by_l[l]: every non-zero (s, m, Gamma^m_sl) of some nabla_{e_s} e_l
        by_l = [[(s, m, g) for s in range(n) for m, g in nz[s][l]] for l in range(n)]
        slots = {}

        def put(s, t, k, m, e):
            # a term of R(e_s, e_t) e_k, filed under the pair with s < t
            if s < t:
                slots.setdefault((s, t, k, m), []).append(e)
            else:
                slots.setdefault((t, s, k, m), []).append(-e)

        for t in range(n):
            for k in range(n):
                for l, c in nz[t][k]:
                    for s, m, g in by_l[l]:
                        if s != t:
                            put(s, t, k, m, c * g)
                    if not isinstance(c, Rat):
                        for s, e_s in enumerate(M.frame):
                            if s != t:
                                d = e_s.apply(c)
                                if d is not ZERO:
                                    put(s, t, k, l, d)
        for i in range(n):
            for j in range(i + 1, n):
                for p, x in enumerate(M.brackets[j][i]):
                    if x is not ZERO:
                        for k in range(n):
                            for m, g in nz[p][k]:
                                put(i, j, k, m, x * g)
        R = [[[[ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for (i, j, k, m), parts in slots.items():
            s = add_all(parts)
            if s is not ZERO:
                R[i][j][k][m] = s
                R[j][i][k][m] = -s
        return R

    @cached_property
    def ricci(self):
        """``S_ij = sum_a (R(e_a, e_i) e_j)^a``, the trace of
        ``Z -> R(Z, e_i) e_j``, over the non-zero entries of R only."""
        R = self.R
        n = self.M.dim
        return [[add_all([R[a][i][j][a] for a in range(n) if R[a][i][j][a] is not ZERO])
                 for j in range(n)] for i in range(n)]

    @cached_property
    def ricci_operator(self):
        """Rows: ``Q e_i = sum_k Q[i][k] e_k`` with ``g(Q e_i, .) = S(e_i, .)``."""
        S = self.ricci
        return [_mat_vec(self.M.metric_inverse, [row[i] for row in S]) for i in range(self.M.dim)]

    @cached_property
    def scalar_curvature(self):
        return _trace(self.M.metric_inverse, self.ricci)

    @cached_property
    def star_ricci(self):
        """``S*_ij = 1/2 sum_l phi_jl t_il``, the trace of
        ``Z -> phi R(e_i, phi e_j) Z`` by linearity in the middle slot, where
        ``t_il = sum_{a,m} (R(e_i, e_l) e_a)^m phi_ma`` runs over the
        non-zero ``phi_ma`` only, and skips the ``ZERO`` entries of R there;
        t is built only for the l of some non-zero ``phi_jl``."""
        n = self.M.dim
        R = self.R
        phis = [[(l, c) for l, c in enumerate(row) if c is not ZERO] for row in self.M.phi]
        cols = {l for row in phis for l, _ in row}
        phi_nz = [(m, a, c) for m, row in enumerate(phis) for a, c in row]
        # t[i][l] = tr(Z -> phi R(e_i, e_l) Z)
        t = [{l: add_all([R[i][l][a][m] * c for m, a, c in phi_nz
                          if R[i][l][a][m] is not ZERO])
              for l in cols} for i in range(n)]
        Sstar = [[None] * n for _ in range(n)]
        for i in range(n):
            for j, phj in enumerate(phis):
                s = add_all([c * t[i][l] for l, c in phj if t[i][l] is not ZERO])
                Sstar[i][j] = s if s is ZERO else HALF * s
        return Sstar

    @cached_property
    def star_scalar(self):
        return _trace(self.M.metric_inverse, self.star_ricci)

    @cached_property
    def star_pairs(self):
        """The frame pairs a symmetric equation in S* holds on: every
        ``(i, j)`` with i <= j, each followed by ``(j, i)`` where
        ``S*_ji`` is not ``S*_ij`` (S* need not be symmetric off the
        Kenmotsu class)."""
        star = self.star_ricci
        n = self.M.dim
        pairs = []
        for i in range(n):
            for j in range(i, n):
                pairs.append((i, j))
                if star[j][i] is not star[i][j]:
                    pairs.append((j, i))
        return pairs


def _trace(Ginv, T):
    """``sum g^{ij} T_ij``."""
    n = len(T)
    return add_all([Ginv[i][j] * T[i][j] for i in range(n) for j in range(n)
                    if Ginv[i][j] is not ZERO and T[i][j] is not ZERO])


def lie_derivative_metric(M, v):
    """``(L_V g)(e_i, e_j) = V(g_ij) - low[i][j] - low[j][i]`` for V with frame
    components v, where ``low[i][j] = g([V,e_i], e_j)`` lowers ``M.ad(v)``;
    ``V(g_ij) = sum_a v^a e_a(g_ij)`` is taken of non-constant entries only."""
    n = M.dim
    low = [_mat_vec(M.metric, row) for row in M.ad(v)]
    vs = [(a, va) for a, va in enumerate(v) if va is not ZERO]
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            terms = [-e for e in (low[i][j], low[j][i]) if e is not ZERO]
            if not isinstance(M.metric[i][j], Rat):
                for a, va in vs:
                    d = M.frame[a].apply(M.metric[i][j])
                    if d is not ZERO:
                        terms.append(va * d)
            out[i][j] = out[j][i] = add_all(terms)
    return out


def hessian(M, conn, f):
    """``Hess f(e_i, e_j) = e_i(e_j(f)) - (nabla_{e_i} e_j)(f)``: the
    covariant derivative of the 1-form df."""
    return conn.nabla_form([e.apply(f) for e in M.frame])


class StructureTensors:
    """The tensors ``h = (1/2) L_xi phi`` and ``h' = h o phi``.

    Rows are frame images, like the phi convention.
    """

    def __init__(self, M):
        self.M = M
        ad = M.ad(M.xi_frame)  # rows [xi, e_k]

        def half(parts):
            s = add_all(parts)
            return s if s is ZERO else HALF * s

        # 2 h e_j = (L_xi phi) e_j = [xi, phi_jk e_k] - phi [xi, e_j]
        #         = xi(phi_jk) e_k + phi_jk [xi, e_k] - phi [xi, e_j]
        self.h = [[half((ZERO if isinstance(p, Rat) else M.xi.apply(p), a, -b))
                   for p, a, b in zip(row, _mat_vec(ad, row), _mat_vec(M.phi, ad[j]))]
                  for j, row in enumerate(M.phi)]
        # h is a tensor, so h' e_j = h(phi e_j) = phi_jk h e_k
        self.h_prime = [_mat_vec(self.h, row) for row in M.phi]

    def h_prime_squared(self):
        """``h'^2`` as a frame matrix: ``h'^2 e_j = h'(h' e_j)``."""
        return [_mat_vec(self.h_prime, row) for row in self.h_prime]

    def spectrum(self):
        """Eigenvalues of h', exactly when they are integers, else sampled.

        Returns ``(values, max_spread, exact)``. When every entry of h' is
        a rational constant and ``integer_spectrum`` finds its eigenvalues,
        the values are those integers, the spread is exactly 0.0 and
        ``exact`` is True. Otherwise the values come from numpy at the
        first sample point (snapped to integers within ``M.tol``), the
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
            values.append(int(r) if abs(x - r) < M.tol else float(x))
        return values, spread, False


def integer_spectrum(mat):
    """Eigenvalues of a square matrix of ints and Fractions, ascending with
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
        shifted = [[Rat(a - lam if j == k else a) for k, a in enumerate(row)]
                   for j, row in enumerate(mat)]
        values += [lam] * (n - len(row_reduce(shifted, n)[0]))
        if len(values) == n:
            return values
    return None


# --- exterior calculus -------------------------------------------------------


class ExteriorData:
    """``d eta``, the fundamental 2-form ``Phi``, ``d Phi``, ``eta ^ Phi``."""

    def __init__(self, M):
        self.M = M
        frame, brackets, eta = M.frame, M.brackets, M.eta_frame
        pairs = list(combinations(range(M.dim), 2))
        # d eta (e_i, e_j), for i < j
        self.d_eta = {(i, j): add_all([frame[i].apply(eta[j]), -frame[j].apply(eta[i])]
                                      + [-(c * eta[k]) for k, c in enumerate(brackets[i][j])
                                         if c is not ZERO and eta[k] is not ZERO])
                      for i, j in pairs}
        # Phi(e_i, e_j) = g(e_i, phi e_j), column j one contraction of the metric
        self.Phi = Phi = [list(row) for row in zip(*(_mat_vec(M.metric, p) for p in M.phi))]
        # Phi([e_i, e_j], e_k) = bracket_Phi[(i, j)][k], for i < j
        bracket_Phi = {(i, j): _mat_vec(Phi, brackets[i][j]) for i, j in pairs}
        # d Phi (e_i, e_j, e_k) and (eta ^ Phi)(e_i, e_j, e_k), for i < j < k
        self.d_Phi, self.eta_wedge_Phi = {}, {}
        for i, j, k in combinations(range(M.dim), 3):
            self.d_Phi[(i, j, k)] = add_all([
                frame[i].apply(Phi[j][k]), frame[k].apply(Phi[i][j]), bracket_Phi[(i, k)][j],
                -frame[j].apply(Phi[i][k]), -bracket_Phi[(i, j)][k], -bracket_Phi[(j, k)][i]])
            wedge = ((eta[i], Phi[j][k]), (eta[j], Phi[k][i]), (eta[k], Phi[i][j]))
            self.eta_wedge_Phi[(i, j, k)] = add_all([
                a * b for a, b in wedge if a is not ZERO and b is not ZERO])
