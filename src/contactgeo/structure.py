"""Structure classification: almost contact axioms, Kenmotsu and
almost-Kenmotsu conditions, nullity and eta-Einstein fitting.

Every check reduces tensor identities to componentwise scalar residuals
and runs them through the zero tester, so a failing identity always
carries a witness (component label, sample point, value). The nullity
and eta-Einstein fits, and the soliton constants, fitted or given, are
settled the same way: the constants are substituted into the residual of
every tuple (``settle_fit``).
Checks run on the frame index tuples only: the identities are tensorial,
so on a correct connection their frame components decide the verdict.
That the connection engine is tensorial (torsion-free and
metric-compatible on non-constant fields) is a property of the engine,
gated in the tests.
"""

from __future__ import annotations

from fractions import Fraction

from . import scalar
from .curvature import ExteriorData, frame_basis, lie_derivative_metric
from .errors import DegenerateSystem, DivisionByZero
from .geometry import _mat_vec
from .lstsq import solve_least_squares
from .scalar import (
    MINUS_ONE, NON_ZERO, NUMERICALLY_ZERO, ONE, PROVED_ZERO, Rat, ZERO, add_all, evaluate,
)

_KIND_RANK = {PROVED_ZERO: 0, NUMERICALLY_ZERO: 1, NON_ZERO: 2}


class CheckResult:
    """One named identity with its worst residual over all components."""

    def __init__(self, name, kind, max_abs, witness=None, note=""):
        self.name = name
        self.kind = kind
        self.max_abs = max_abs
        self.witness = witness  # (component label, point dict, value) or None
        self.note = note

    @property
    def passed(self):
        return self.kind != NON_ZERO

    def to_dict(self):
        w = None
        if self.witness is not None:
            label, point, value = self.witness
            w = {"component": label,
                 "point": {k: str(v) for k, v in point.items()},
                 "value": float(value)}
        d = {"name": self.name, "verdict": self.kind, "max_abs": self.max_abs,
             "witness": w}
        if self.note:
            d["note"] = self.note
        return d


class CheckReport:
    """A family of named checks plus optional fitted data."""

    def __init__(self, name, results, data=None):
        self.name = name
        self.results = list(results)
        self.data = dict(data or {})

    @property
    def passed(self):
        return all(r.passed for r in self.results)

    def result(self, name):
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def to_dict(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": [r.to_dict() for r in self.results],
            "data": self.data,
        }


def _prod(*factors):
    """The product of the factors; ``ZERO``, with nothing multiplied, when
    one of them is ``ZERO``. The residuals are sums of such products, and
    most frame components are zero."""
    for f in factors:
        if f is ZERO:
            return ZERO
    out = factors[0]
    for f in factors[1:]:
        out = out * f
    return out


def combine(M, name, parts, exact=True):
    """Aggregate labeled residual expressions into one CheckResult.

    parts: iterable of (component label, ScalarField). The worst verdict
    wins; the witness points at the first offending component (and at the
    first sample point where it breaks the tolerance), and max_abs is the
    largest |value| over the components and the sample points.
    ``exact=False`` says the parts were built from float constants, known
    no better than the tolerance: a residual that fails below it (only a
    constant one can) is then numerically zero.
    """
    kind = PROVED_ZERO
    max_abs = 0.0
    witness = None
    for label, expr in parts:
        v = scalar.is_zero(expr, M.sampler, tol=M.tol)
        if not exact and v.kind == NON_ZERO and v.max_abs < M.tol:
            v = scalar.Verdict(NUMERICALLY_ZERO, v.max_abs)
        if v.max_abs > max_abs:
            max_abs = v.max_abs
        if _KIND_RANK[v.kind] > _KIND_RANK[kind]:
            kind = v.kind
            if v.kind == NON_ZERO and witness is None:
                env, value = v.witness
                witness = (label, env, value)
    return CheckResult(name, kind, max_abs, witness)


def _numeric_result(name, value, tol, note=""):
    """Settle one number: an exact value (int or Fraction) is zero or
    not, a float is judged against the tolerance."""
    if isinstance(value, (int, Fraction)):
        ok = value == 0
        kind = PROVED_ZERO if ok else NON_ZERO
    else:
        ok = abs(value) < tol
        kind = NUMERICALLY_ZERO if ok else NON_ZERO
    return CheckResult(name, kind, abs(float(value)),
                       None if ok else (name, {}, float(value)), note)


def snap(x):
    """A fitted constant as a Rat: exact values as they are, floats as
    the nearest fraction with denominator at most 10^12, and a dropped
    column (None) as 0."""
    if x is None:
        return ZERO
    if isinstance(x, (int, Fraction)):
        return Rat(x)
    return Rat(Fraction(x).limit_denominator(10 ** 12))


def settle_fit(M, name, labelled, values):
    """Settle constants, fitted or given, the way every identity is settled.

    ``labelled`` holds (component label, (a_1, ..., a_k, b)) pairs and
    ``values`` the constants x_i, as they came (a ``None`` counts as 0).
    The residual b - x_1 a_1 - ... - x_k a_k of every tuple goes through
    ``combine``, so constants that hold exactly are proved zero and
    failing ones carry a component witness. A float constant is known
    only to the tolerance, so then a constant residual within it is
    numerically zero. A tuple of zero constants has residual 0 and is not
    tested. Returns the CheckResult and the (label, residual) pairs of
    every tuple.
    """
    constants = [snap(x) for x in values]
    residuals, tested = [], []
    for label, entry in labelled:
        if all(e is ZERO for e in entry):
            residuals.append((label, ZERO))
            continue
        part = (label, add_all([entry[-1]] + [_prod(MINUS_ONE, x, a)
                                              for x, a in zip(constants, entry)]))
        residuals.append(part)
        tested.append(part)
    exact = not any(isinstance(x, float) for x in values)
    return combine(M, name, tested, exact), residuals


def check_almost_contact(M):
    """The defining axioms and their standard consequences."""
    n = M.dim
    basis = frame_basis(n)
    eta = M.eta_frame
    xi = M.xi_frame
    G = M.metric
    phi2 = [M.phi_frame_apply(M.phi[j]) for j in range(n)]

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

    phi_xi = M.phi_frame_apply(xi)
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


def check_kenmotsu(M, conn, table):
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


def check_almost_kenmotsu(M, conn, table, tensors):
    """d eta = 0, d Phi = 2 eta ^ Phi, and the h-tensor identities."""
    n = M.dim
    basis = frame_basis(n)
    eta = M.eta_frame
    xi = M.xi_frame
    ext = ExteriorData(M)

    parts_eta = [(f"d eta(e_{i + 1}, e_{j + 1})", ext.d_eta[i][j])
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
        hphi = M.phi_frame_apply([h[j][k] for k in range(n)])  # phi(h e_j)
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


def fit_sampled(M, entries, skip_singular=False):
    """Least-squares fit of a_1 x_1 + ... + a_k x_k = b over the sample points.

    ``entries`` holds tuples (a_1, ..., a_k, b) of canonical fields. The
    result is that of the full system, one row per tuple and point, built
    without repeated work: a tuple of zero constants adds nothing to the
    normal equations and has residual 0, so it is left out; a tuple of
    other constants gives the same row at every point, so it enters once,
    weighted by the number of points used; only the remaining tuples are
    evaluated point by point. When no tuple depends on the point, no point
    is drawn: every point would be used, so the weight is the sampler's
    count. With ``skip_singular`` a point where some entry cannot be
    evaluated is skipped instead of raising.
    """
    constant, varying = [], []
    for entry in entries:
        if not all(isinstance(e, Rat) for e in entry):
            varying.append(entry)
        elif any(e.value != 0 for e in entry):
            constant.append(tuple(e.value for e in entry))
    rows, rhs = [], []
    points = M.sampler.points() if varying else ()
    used = 0 if varying else M.sampler.count
    for env in points:
        try:
            values = [[evaluate(e, env) for e in entry] for entry in varying]
        except (DivisionByZero, ZeroDivisionError, OverflowError):
            if not skip_singular:
                raise
            continue
        used += 1
        for *row, b in values:
            rows.append(tuple(row))
            rhs.append(b)
    if used and entries and not (varying or constant):
        # every tuple is the zero constant, so every column of the full
        # system vanishes
        raise DegenerateSystem("all coefficient columns vanish")
    weights = [1] * len(rows)
    if used:
        for *row, b in constant:
            rows.append(tuple(row))
            rhs.append(b)
            weights.append(used)
    return solve_least_squares(rows, rhs, weights)


def solve_nullity(M, conn, table, tensors):
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
    kappa, mu = fit.values
    mu_unconstrained = mu is None
    kap, mu_eff = snap(kappa), snap(mu)

    fit_result, _ = settle_fit(M, "nullity_fit", labelled, fit.values)
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
        "exact": fit.exact,
        "spectrum": [str(x) for x in spectrum],
        "spectrum_spread": float(spread),
    }
    return CheckReport("nullity", checks, data)


def solve_eta_einstein(M, table):
    """Least-squares fit S = a g + b eta(x)eta."""
    n = M.dim
    eta = M.eta_frame
    G = M.metric
    labelled = [(f"(S - a g - b eta(x)eta)(e_{i + 1}, e_{j + 1})",
                 (G[i][j], _prod(eta[i], eta[j]), table.ricci[i][j]))
                for i in range(n) for j in range(i, n)]
    fit = fit_sampled(M, [entry for _, entry in labelled])
    a, b = fit.values
    if a is None:
        raise DegenerateSystem("metric column vanished; manifest is degenerate")
    if b is None:
        raise DegenerateSystem("eta(x)eta column vanished; eta is degenerate")
    result, _ = settle_fit(M, "eta_einstein_fit", labelled, fit.values)
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
        "exact": fit.exact,
        "einstein": einstein,
        "kenmotsu_consistency": consistency,
    }
    return CheckReport("eta_einstein", [result], data)
