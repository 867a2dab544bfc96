"""Structure classification: almost contact axioms, Kenmotsu and
almost-Kenmotsu conditions, nullity and eta-Einstein fitting.

Every check reduces tensor identities to componentwise scalar residuals
and runs them through the zero tester, so a failing identity always
carries a witness (component label, sample point, value). The nullity
and eta-Einstein fits, and the soliton constants, fitted or given, are
settled the same way: the constants are substituted into the residual of
every tuple (``settle_fit``).
Each residual is assembled sparsely: the terms are filed into the slot
of their frame component from the non-zero operand entries only, and a
slot that no term reaches, or whose terms cancel, is never tested.
Checks run on the frame index tuples only: the identities are tensorial,
so on a correct connection their frame components decide the verdict.
That the connection engine is tensorial (torsion-free and
metric-compatible on non-constant fields) is a property of the engine,
gated in the tests.
"""

from __future__ import annotations

from fractions import Fraction

from . import scalar
from .curvature import ExteriorData, lie_derivative_metric
from .errors import DegenerateSystem
from .geometry import _mat_vec, frame_basis
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


def _nz(vec):
    """The (index, entry) pairs of a vector's non-zero entries."""
    return [(k, e) for k, e in enumerate(vec) if e is not ZERO]


def _put(slots, key, term):
    """File a term of the frame component ``key`` into its slot."""
    if term is not ZERO:
        slots.setdefault(key, []).append(term)


def _file(slots, prefix, vec, scale=ONE, start=0):
    """File ``scale`` times each non-zero entry k >= ``start`` of ``vec``
    into the slot ``prefix + (k,)``; returns ``slots``."""
    if scale is not ZERO:
        for k in range(start, len(vec)):
            e = vec[k]
            if e is not ZERO:
                slots.setdefault(prefix + (k,), []).append(e if scale is ONE else scale * e)
    return slots


def _file_reeb_curvature(slots, R, xi):
    """File the terms ``xi^a R[i][j][a][k]`` of ``R(e_i, e_j)xi``, i < j,
    into the slots (i, j, k)."""
    xi_nz = _nz(xi)
    for i in range(len(R)):
        for j in range(i + 1, len(R)):
            for a, x in xi_nz:
                _file(slots, (i, j), R[i][j][a], x)


def _file_eta_wedge(slots, eta, rows):
    """File ``eta(e_j) A e_i - eta(e_i) A e_j``, i < j, into the slots
    (i, j, k), for the operator A with images ``rows``."""
    for m, em in _nz(eta):
        for p, row in enumerate(rows):
            if p != m:
                _file(slots, (p, m) if p < m else (m, p), row, em if p < m else -em)


def _labelled(template, slots, keys=None):
    """(label, residual) of every slot whose terms do not sum to ``ZERO``,
    in the order of ``keys`` (by default the sorted keys, the order of the
    nested index loops). A component that no term reaches, or whose terms
    cancel, would be proved zero with |residual| 0 and no witness, so
    leaving it out of ``combine`` keeps every verdict. The label is
    ``template`` formatted with the 1-based indices of the key."""
    parts = []
    for key in sorted(slots) if keys is None else keys:
        s = add_all(slots.get(key, ()))
        if s is not ZERO:
            parts.append((template.format(*(i + 1 for i in key)), s))
    return parts


def _fit_entries(template, columns):
    """The (label, (a_1, ..., a_k, b)) tuples of a fit, one slot dict per
    column, in component order; a tuple whose columns are all ``ZERO``
    adds nothing to the fit and has residual 0, so it is left out."""
    labelled = []
    for key in sorted(set().union(*columns)):
        entry = tuple(add_all(c.get(key, ())) for c in columns)
        if any(e is not ZERO for e in entry):
            labelled.append((template.format(*(i + 1 for i in key)), entry))
    return labelled


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
    return combine(M, name, tested, is_exact(values)), residuals


def is_exact(values):
    """Whether fitted or given constants are exact: no float among them."""
    return not any(isinstance(x, float) for x in values)


def _covariant_eta(M, conn):
    """Slots (i, j) of ``(nabla eta - g + eta(x)eta)(e_i, e_j)``, nabla eta
    from ``ConnectionTable.nabla_form``."""
    eta = M.eta_frame
    slots = {}
    for i, row in enumerate(conn.nabla_form(eta)):
        _file(slots, (i,), row)
        _file(slots, (i,), M.metric[i], MINUS_ONE)
    for i, ei in _nz(eta):
        _file(slots, (i,), eta, ei)
    return slots


def check_almost_contact(M):
    """The defining axioms and their standard consequences."""
    eta, xi, G, phi = M.eta_frame, M.xi_frame, M.metric, M.phi
    low = [_mat_vec(G, row) for row in phi]  # low[i][b] = g(phi e_i, e_b)
    phi_cols = [_nz(col) for col in zip(*phi)]
    sq, comp, anti = {}, {}, {}
    for j in range(M.dim):
        _put(sq, (j, j), ONE)
        _file(sq, (j,), _mat_vec(M.phi, phi[j]))
        _file(comp, (j,), G[j], MINUS_ONE, j)
        _file(anti, (j,), low[j], ONE, j)  # g(phi e_j, e_k), k >= j
        _file(anti, (j,), [row[j] for row in low], ONE, j)  # g(e_j, phi e_k)
        for b, lb in _nz(low[j]):
            for i, p in phi_cols[b]:  # g(phi e_j, phi e_i)
                if i >= j:
                    _put(comp, (j, i), lb * p)
    for j, ej in _nz(eta):
        _file(sq, (j,), xi, -ej)
        _file(comp, (j,), eta, ej, j)
    results = [
        combine(M, "phi_square", _labelled("(phi^2 + Id - eta(x)xi)(e_{})[{}]", sq)),
        combine(M, "reeb_normalization",
                _labelled("eta(xi) - 1", {(): [M.metric_apply(xi, xi), MINUS_ONE]})),
        combine(M, "metric_compatibility", _labelled("compat(e_{}, e_{})", comp)),
        combine(M, "phi_reeb", _labelled("(phi xi)[{}]", _file({}, (), _mat_vec(M.phi, xi)))),
        combine(M, "eta_phi", _labelled("eta(phi e_{})", _file(
            {}, (), [M.metric_apply(row, xi) for row in phi]))),
        combine(M, "phi_antisymmetry", _labelled("antisym(e_{}, e_{})", anti)),
    ]
    return CheckReport("almost_contact", results)


def check_kenmotsu(M, conn, table):
    """The covariant characterization plus its derived identities."""
    n = M.dim
    two, two_n = Rat(2), Rat(2 * M.n)
    basis = frame_basis(n)
    eta, xi, G, phi = M.eta_frame, M.xi_frame, M.metric, M.phi
    S, Q = table.ricci, table.ricci_operator
    b8, b9, b11, b12, b13, c1, c2, c3 = {}, {}, {}, {}, {}, {}, {}, {}
    lg = lie_derivative_metric(M, xi)
    dQxi = conn.nabla_operator(Q, xi)
    xi_nz = _nz(xi)
    xi_rows = [a for a, _ in xi_nz]
    for i in range(n):
        for j, row in enumerate(conn.nabla_operator(phi, basis[i])):
            _file(b8, (i, j), row)
        for j, lj in _nz(_mat_vec(G, phi[i])):  # -g(phi e_i, e_j) xi
            _file(b8, (i, j), xi, -lj)
        _file(b9, (i,), conn.nabla_comps(basis[i], xi))
        _put(b9, (i, i), MINUS_ONE)
        _put(b12, (i,), add_all([_prod(S[i][j], x) for j, x in xi_nz]))
        _file(b13, (i,), lg[i], ONE, i)
        _file(b13, (i,), G[i], Rat(-2), i)
        dQ = conn.nabla_operator(Q, basis[i], rows=xi_rows)
        for (_, x), row in zip(xi_nz, dQ):  # (nabla_X Q)(xi) by linearity over the frame images
            _file(c1, (i,), row, x)
        _file(c1, (i,), Q[i])
        _put(c1, (i, i), two_n)
        _file(c2, (i,), dQxi[i])
        _file(c2, (i,), Q[i], two)
        _put(c2, (i, i), Rat(4 * M.n))
        _file(c3, (i,), table.star_ricci[i])
        _file(c3, (i,), S[i], MINUS_ONE)
        _file(c3, (i,), G[i], Rat(1 - 2 * M.n))
    for j, ej in _nz(eta):
        for i in range(n):
            _file(b8, (i, j), phi[i], ej)
        _file(b9, (j,), xi, ej)
        _put(b12, (j,), two_n * ej)
        _file(b13, (j,), eta, two * ej, j)
        _file(c3, (j,), eta, -ej)
    _file_reeb_curvature(b11, table.R, xi)
    _file_eta_wedge(b11, eta, basis)
    results = [
        combine(M, "covariant_phi", _labelled("(nabla_e{} phi)e_{}[{}]", b8)),
        combine(M, "covariant_reeb", _labelled("(nabla_e{0} xi - e_{0} + eta xi)[{1}]", b9)),
        combine(M, "covariant_eta", _labelled("(nabla eta - g + eta(x)eta)(e_{}, e_{})",
                                              _covariant_eta(M, conn))),
        combine(M, "curvature_reeb", _labelled("R(e_{}, e_{})xi[{}]", b11)),
        combine(M, "ricci_reeb", _labelled("S(e_{0}, xi) + 2n eta(e_{0})", b12)),
        combine(M, "reeb_metric_flow",
                _labelled("(L_xi g - 2g + 2eta(x)eta)(e_{}, e_{})", b13)),
        combine(M, "ricci_operator_reeb_derivative",
                _labelled("((nabla_e{0} Q)xi + Q e_{0} + 2n e_{0})[{1}]", c1)),
        combine(M, "ricci_operator_reeb_flow",
                _labelled("((nabla_xi Q)e_{0} + 2Q e_{0} + 4n e_{0})[{1}]", c2)),
        combine(M, "star_ricci_from_ricci", _labelled(
            "(S* - S - (2n-1)g - eta(x)eta)(e_{}, e_{})", c3, table.star_pairs)),
    ]
    return CheckReport("kenmotsu", results)


def check_almost_kenmotsu(M, conn, table, tensors):
    """d eta = 0, d Phi = 2 eta ^ Phi, and the h-tensor identities."""
    n = M.dim
    basis = frame_basis(n)
    eta, xi, phi = M.eta_frame, M.xi_frame, M.phi
    ext = ExteriorData(M)
    h, hp = tensors.h, tensors.h_prime
    d_eta = {key: [e] for key, e in ext.d_eta.items()}
    d_phi = {key: [e, _prod(Rat(-2), ext.eta_wedge_Phi[key])] for key, e in ext.d_Phi.items()}
    anti, b18, b19 = {}, {}, {}
    # curvature against the Reeb field must close over h':
    # R(X,Y)xi = eta(X)(Y + h'Y) - eta(Y)(X + h'X) + (nabla_X h')Y - (nabla_Y h')X
    # only the rows j != i of nabla_{e_i} h' are read: row j sits at j - 1 when j > i
    dhp = [conn.nabla_operator(hp, basis[i], rows=[j for j in range(n) if j != i])
           for i in range(n)]
    for j in range(n):
        for a, e in _nz(h[j]):  # phi(h e_j)
            _file(anti, (j,), phi[a], e)
        for a, p in _nz(phi[j]):  # h(phi e_j)
            _file(anti, (j,), h[a], p)
        _file(b18, (j,), conn.nabla_comps(basis[j], xi))
        _put(b18, (j, j), MINUS_ONE)
        _file(b18, (j,), hp[j], MINUS_ONE)
        for i in range(j):
            _file(b19, (i, j), dhp[i][j - 1], MINUS_ONE)
            _file(b19, (i, j), dhp[j][i])
    for i, ei in _nz(eta):
        _file(b18, (i,), xi, ei)
    _file_reeb_curvature(b19, table.R, xi)
    _file_eta_wedge(b19, eta, basis)
    _file_eta_wedge(b19, eta, hp)
    results = [
        combine(M, "eta_closed", _labelled("d eta(e_{}, e_{})", d_eta)),
        combine(M, "fundamental_form_scaling",
                _labelled("(dPhi - 2 eta^Phi)(e_{}, e_{}, e_{})", d_phi)),
        combine(M, "h_reeb_annihilation",
                _labelled("(h xi)[{}]", _file({}, (), _mat_vec(h, xi)))
                + _labelled("(h' xi)[{}]", _file({}, (), _mat_vec(hp, xi)))),
        combine(M, "h_phi_anticommute", _labelled("(h phi + phi h)(e_{})[{}]", anti)),
        combine(M, "h_traceless",
                _labelled("tr h", {(): [h[j][j] for j in range(n)]})
                + _labelled("tr h'", {(): [hp[j][j] for j in range(n)]})),
        combine(M, "covariant_reeb_shape",
                _labelled("(nabla_e{0} xi - e_{0} + eta xi - h')[{1}]", b18)),
        combine(M, "curvature_reeb_shape", _labelled("R(e_{}, e_{})xi shape[{}]", b19)),
    ]
    return CheckReport("almost_kenmotsu", results)


def fit_sampled(M, entries):
    """Least-squares fit of a_1 x_1 + ... + a_k x_k = b over the sample points.

    ``entries`` holds tuples (a_1, ..., a_k, b) of canonical fields. The
    result is that of the full system, one row per tuple and point, built
    without repeated work: a tuple of zero constants adds nothing to the
    normal equations and has residual 0, so it is left out; a tuple of
    other constants gives the same row at every point, so it enters once,
    weighted by the sample count; only the remaining tuples are evaluated
    point by point, and a point where one has no finite value fails the
    fit (``evaluate``). When no tuple depends on the point, no point is
    drawn.
    """
    constant, varying = [], []
    for entry in entries:
        if not all(isinstance(e, Rat) for e in entry):
            varying.append(entry)
        elif any(e.value != 0 for e in entry):
            constant.append(tuple(e.value for e in entry))
    if entries and not (varying or constant):
        # every tuple is the zero constant, so every column of the full
        # system vanishes
        raise DegenerateSystem("all coefficient columns vanish")
    rows, rhs = [], []
    for env in M.sampler.points() if varying else ():
        for entry in varying:
            *row, b = [evaluate(e, env) for e in entry]
            rows.append(tuple(row))
            rhs.append(b)
    weights = [1] * len(rows)
    for *row, b in constant:
        rows.append(tuple(row))
        rhs.append(b)
        weights.append(M.sampler.count)
    return solve_least_squares(rows, rhs, weights)


def solve_nullity(M, conn, table, tensors):
    """Fit R(X,Y)xi against the nullity ansatz and cross-check theory."""
    n = M.dim
    two_n = 2 * M.n
    basis = frame_basis(n)
    eta, xi, G, hp = M.eta_frame, M.xi_frame, M.metric, tensors.h_prime
    xi_nz = _nz(xi)

    # R(e_i, e_j)xi = kappa a_k + mu a_m, a_k = eta_j e_i - eta_i e_j and
    # a_m = eta_j h'e_i - eta_i h'e_j, one slot dict per column
    a_k, a_m, rv = {}, {}, {}
    _file_eta_wedge(a_k, eta, basis)
    _file_eta_wedge(a_m, eta, hp)
    _file_reeb_curvature(rv, table.R, xi)
    labelled = _fit_entries("R(e_{}, e_{})xi nullity form[{}]", (a_k, a_m, rv))
    if not labelled:  # every column of every tuple is ZERO
        raise DegenerateSystem("all coefficient columns vanish")
    fit = fit_sampled(M, [entry for _, entry in labelled])
    # kappa is never None: its column vanishes only where eta does, which
    # also zeroes the mu column, and the fit then raises
    kappa, mu = fit
    mu_unconstrained = mu is None
    kap, mu_eff = snap(kappa), snap(mu)
    kap1, kap2 = kap + ONE, kap + Rat(2)

    fit_result, _ = settle_fit(M, "nullity_fit", labelled, fit)
    checks = [fit_result]
    square, shape, form, eta_shape, star = {}, {}, {}, _covariant_eta(M, conn), {}
    hp2 = tensors.h_prime_squared()
    for i in range(n):
        _file(square, (i,), hp2[i])
        _put(square, (i, i), kap1)
        hp_low = _mat_vec(G, hp[i])  # g(h'e_i, e_j)
        for j in range(n):
            for a, x in xi_nz:  # R(xi, e_i)e_j
                _file(shape, (i, j), table.R[a][i][j], x)
            # -kappa g(e_i, e_j) xi - mu g(h'e_i, e_j) xi
            _file(shape, (i, j), xi, _prod(MINUS_ONE, kap, G[i][j]))
            _file(shape, (i, j), xi, _prod(MINUS_ONE, mu_eff, hp_low[j]))
        _file(form, (i,), table.ricci_operator[i])
        _put(form, (i, i), Rat(two_n))
        _file(form, (i,), hp[i], Rat(two_n))
        _file(eta_shape, (i,), hp_low, MINUS_ONE)
        _file(star, (i,), table.star_ricci[i])
        _file(star, (i,), G[i], kap2)
    for j, ej in _nz(eta):
        _file(square, (j,), xi, _prod(MINUS_ONE, kap1, ej))
        _file(form, (j,), xi, _prod(Rat(-two_n), kap1, ej))
        _file(star, (j,), eta, _prod(MINUS_ONE, kap2, ej))
        for i in range(n):  # +kappa eta_j e_i + mu eta_j h'e_i
            _file(shape, (i, j), basis[i], _prod(kap, ej))
            _file(shape, (i, j), hp[i], _prod(mu_eff, ej))
    checks.append(combine(M, "h_prime_square", _labelled(
        "(h'^2 + (k+1)(Id - eta(x)xi))(e_{})[{}]", square)))
    checks.append(combine(M, "reeb_curvature_operator",
                          _labelled("R(xi, e_{})e_{} shape[{}]", shape)))
    checks.append(combine(M, "ricci_operator_form", _labelled(
        "(Q + 2n Id - 2n(k+1)eta(x)xi + 2n h')(e_{})[{}]", form)))
    checks.append(combine(M, "scalar_curvature_value", _labelled("r - 2n(k - 2n)", {(): [
        table.scalar_curvature, Rat(-two_n * (kap.value - two_n))]})))
    checks.append(combine(M, "covariant_eta_shape", _labelled(
        "(nabla eta - g + eta(x)eta - g(h'.,.))(e_{}, e_{})", eta_shape)))

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
    checks.append(combine(M, "star_ricci_form", _labelled(
        "(S* + (k+2)(g - eta(x)eta))(e_{}, e_{})", star, table.star_pairs)))

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


def solve_eta_einstein(M, table):
    """Least-squares fit S = a g + b eta(x)eta."""
    eta = M.eta_frame
    g_col, eta_col, s_col = {}, {}, {}
    for i in range(M.dim):
        _file(g_col, (i,), M.metric[i], ONE, i)
        _file(s_col, (i,), table.ricci[i], ONE, i)
    for i, ei in _nz(eta):
        _file(eta_col, (i,), eta, ei, i)
    labelled = _fit_entries("(S - a g - b eta(x)eta)(e_{}, e_{})", (g_col, eta_col, s_col))
    fit = fit_sampled(M, [entry for _, entry in labelled])
    a, b = fit
    if a is None:
        raise DegenerateSystem("metric column vanished; manifest is degenerate")
    if b is None:
        raise DegenerateSystem("eta(x)eta column vanished; eta is degenerate")
    result, _ = settle_fit(M, "eta_einstein_fit", labelled, fit)
    # each flag decides its numbers the way a check decides a number
    einstein = result.passed and _numeric_result("b", b, M.tol).passed

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
            "matches": result.passed and all(_numeric_result("matches", x - x_exp, M.tol).passed
                                             for x, x_exp in ((a, a_exp), (b, b_exp))),
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
