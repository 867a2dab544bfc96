"""Frames, metrics, and almost contact data over a coordinate chart.

A manifold is declared by a global frame: each frame vector is given by
its coordinate components, the metric and the structure endomorphism phi
are given by their matrices on that frame, and the Reeb field xi is one
frame vector (or any frame combination).  The dual 1-form eta is always
derived as ``eta = g(., xi)``; it is never an independent input.

Conventions used throughout:

* ``frame`` rows are vectors: ``E[k][j]`` is the j-th coordinate
  component of ``e_k``;
* ``phi`` rows are images: ``phi(e_j) = sum_k P[j][k] e_k``;
* a vector's frame components ``c`` satisfy ``X = sum_k c[k] e_k``;
* ``brackets[i][j]`` holds the frame components of ``[e_i, e_j]``; every
  Lie derivative on the frame is taken from them (``ManifoldSpec.ad``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from . import scalar
from .errors import DivisionByZero, ExpressionError, SingularFrame, ValidationError
from .scalar import (
    DEFAULT_SAMPLES, DEFAULT_SEED, DEFAULT_TOL, Add, Exp, Mul, Pow, Rat, Sampler, Sym,
    ZERO, ONE, add_all, is_zero, evaluate,
)


class VectorField:
    """Coordinate-component vector field on a chart."""

    __slots__ = ("coords", "comps")

    def __init__(self, coords, comps):
        self.coords = tuple(coords)
        comps = tuple(comps)
        if len(comps) != len(self.coords):
            raise ValidationError(
                f"vector field has {len(comps)} components on a "
                f"{len(self.coords)}-dimensional chart"
            )
        self.comps = comps

    def apply(self, f):
        """Derivation: ``X(f) = sum_i X^i df/dx_i`` over the non-zero
        components and partial derivatives; zero on constants."""
        if isinstance(f, Rat):
            return ZERO
        terms = []
        for name, c in zip(self.coords, self.comps):
            if c is not ZERO:
                d = scalar.diff(f, name)
                if d is not ZERO:
                    terms.append(c * d)
        return add_all(terms)

    def _check(self, other):
        if not isinstance(other, VectorField) or other.coords != self.coords:
            raise ValidationError("vector fields live on different charts")

    def __eq__(self, other):
        return (
            isinstance(other, VectorField)
            and other.coords == self.coords
            and other.comps == self.comps
        )

    def __repr__(self):
        body = ", ".join(scalar.to_str(c) for c in self.comps)
        return f"VectorField({body})"


def lie_bracket(X, Y):
    """``[X, Y]^k = sum_i (X^i dY^k/dx_i - Y^i dX^k/dx_i)``."""
    X._check(Y)
    comps = []
    for xk, yk in zip(X.comps, Y.comps):
        a = ZERO if isinstance(yk, Rat) else X.apply(yk)
        b = ZERO if isinstance(xk, Rat) else Y.apply(xk)
        comps.append(a if b is ZERO else add_all([a, -b]))
    return VectorField(X.coords, comps)


def row_reduce(rows, ncols):
    """Gauss-Jordan on the first ``ncols`` columns of a matrix of scalar
    fields, in place: the reduced row echelon form.

    Returns ``(pivots, det)``: the pivot columns in order, and the product
    of the pivots, negated once per row swap (the determinant when every
    one of n square columns has a pivot). Pivots are entries that are not
    the zero constant; a column with no such entry below the pivots found
    so far is skipped. Zero entries are neither scaled nor eliminated with.
    """
    pivots = []
    det = ONE
    for col in range(ncols):
        top = len(pivots)
        pivot_row = next((r for r in range(top, len(rows)) if rows[r][col] is not ZERO), None)
        if pivot_row is None:
            continue
        if pivot_row != top:
            rows[top], rows[pivot_row] = rows[pivot_row], rows[top]
            det = -det
        pivot = rows[top][col]
        det = det * pivot
        inv_pivot = ONE / pivot
        rows[top] = [x if x is ZERO else x * inv_pivot for x in rows[top]]
        for r, row in enumerate(rows):
            factor = row[col]
            if r != top and factor is not ZERO:
                rows[r] = [a if b is ZERO else a - factor * b for a, b in zip(row, rows[top])]
        pivots.append(col)
    return pivots, det


def frame_basis(n):
    """Frame components of e_1, ..., e_n: the rows of the identity."""
    return [[ONE if k == m else ZERO for m in range(n)] for k in range(n)]


def sym_inverse(mat):
    """Invert a square matrix of scalar fields by ``row_reduce`` on
    ``[A | I]``.

    Returns ``(inverse, determinant)``; a column with no pivot raises.
    """
    n = len(mat)
    aug = [list(row) + e for row, e in zip(mat, frame_basis(n))]
    pivots, det = row_reduce(aug, n)
    if len(pivots) < n:
        raise SingularFrame("matrix of scalar fields has a structurally zero column")
    return [row[n:] for row in aug], det


def _scalar_matrix(mat):
    """Copy a matrix whose entries must all be scalar fields."""
    for row in mat:
        for x in row:
            if not isinstance(x, scalar.ScalarField):
                raise ExpressionError(f"not a scalar expression: {x!r}")
    return [list(row) for row in mat]


def _mat_vec(mat, vec):
    """Row-vector times matrix: ``out[k] = sum_j vec[j] mat[j][k]``, visiting
    only the pairs where neither factor is zero; all ``ZERO`` for a zero
    vector."""
    rows = [(vj, mat[j]) for j, vj in enumerate(vec) if vj is not ZERO]
    if not rows:
        return [ZERO] * len(mat)
    return [add_all([vj * row[k] for vj, row in rows if row[k] is not ZERO])
            for k in range(len(mat))]


def _exp_bound(x, toward):
    """``exp(x)`` as an exact Fraction, rounded one float step toward
    ``toward`` (+-inf) on the argument and again on the value."""
    y = math.exp(math.nextafter(float(x), toward))
    return Fraction(max(0.0, math.nextafter(y, toward)))


def _float_step(lo, hi):
    """``(lo, hi)`` widened by a float step each way, to hold its values' floats."""
    return (Fraction(math.nextafter(float(lo), -math.inf)),
            Fraction(math.nextafter(float(hi), math.inf)))


def _bounds(e, box, memo):
    """``(lo, hi, inexact)``, inexact when ``evaluate`` gives e as a float."""
    found = memo.get(e)
    if found is not None:
        return found
    if isinstance(e, Rat):
        out = (e.value, e.value, False)
    elif isinstance(e, Sym):
        out = (*sorted(box[e.name]), False)
    elif isinstance(e, Exp):
        lo, hi, _ = _bounds(e.arg, box, memo)
        out = (_exp_bound(lo, -math.inf), _exp_bound(hi, math.inf), True)
    elif isinstance(e, Pow):
        lo, hi, inexact = _bounds(e.base, box, memo)
        n = e.exponent
        if n < 0:
            if lo <= 0 <= hi:
                raise DivisionByZero("the base interval contains 0")
            lo, hi, n = 1 / Fraction(hi), 1 / Fraction(lo), -n
        a, b = lo**n, hi**n
        if n % 2 or lo >= 0:
            out = (a, b)
        elif hi <= 0:
            out = (b, a)
        else:
            out = (Fraction(0), max(a, b))
        out = (*(_float_step(*out) if inexact else out), inexact)
    elif isinstance(e, (Mul, Add)):
        # folded as evaluate does: once a float enters, each step is rounded
        is_mul = isinstance(e, Mul)
        lo = hi = Fraction(int(is_mul))
        inexact = False
        for t in e.factors if is_mul else e.terms:
            tlo, thi, t_inexact = _bounds(t, box, memo)
            inexact = inexact or t_inexact
            if inexact:
                (lo, hi), (tlo, thi) = _float_step(lo, hi), _float_step(tlo, thi)
            if is_mul:
                ends = (lo * tlo, lo * thi, hi * tlo, hi * thi)
                lo, hi = min(ends), max(ends)
            else:
                lo, hi = lo + tlo, hi + thi
            if inexact:
                lo, hi = _float_step(lo, hi)
        out = (lo, hi, inexact)
    else:
        raise ExpressionError(f"not a scalar expression: {e!r}")
    memo[e] = out
    return out


def bounds(e, box):
    """An interval ``(lo, hi)`` of Fractions that encloses the field ``e``
    and its ``evaluate`` value on the closed box ``box`` (coordinate ->
    (lo, hi)), or None when it cannot be decided: a coordinate the box does
    not bound, a negative power of a base whose interval contains 0, or an
    exp that overflows. Exact, but rounded outward where a float enters."""
    try:
        return _bounds(e, box, {})[:2]
    except (KeyError, DivisionByZero, OverflowError):
        return None


def _off_zero(e, box, gap):
    """Whether the enclosure of ``e`` on the box stays ``gap`` away from 0."""
    span = bounds(e, box)
    return span is not None and (span[0] >= gap or span[1] <= -gap)


class ManifoldSpec:
    """Validated manifold data plus cached derived quantities."""

    def __init__(self, name, coords, frame, metric, phi, xi, box=None,
                 nonvanish=(), seed=DEFAULT_SEED, samples=DEFAULT_SAMPLES, tol=DEFAULT_TOL):
        self.name = name
        self.coords = tuple(coords)
        self.dim = len(self.coords)
        if self.dim % 2 == 0 or self.dim < 3:
            raise ValidationError(
                f"almost contact structures need odd dimension >= 3, got {self.dim}"
            )
        self.n = (self.dim - 1) // 2
        if len(frame) != self.dim:
            raise ValidationError(f"expected {self.dim} frame vectors, got {len(frame)}")
        self.frame = [v if isinstance(v, VectorField) else VectorField(self.coords, v)
                      for v in frame]
        self.metric = _scalar_matrix(metric)
        self._require_square(self.metric, "metric_frame")
        for i in range(self.dim):
            for j in range(i):
                if self.metric[i][j] is not self.metric[j][i]:
                    raise ValidationError(
                        f"metric_frame is not symmetric at ({i}, {j})"
                    )
        self.phi = _scalar_matrix(phi)
        self._require_square(self.phi, "phi_frame")

        if isinstance(xi, int):
            if not 0 <= xi < self.dim:
                raise ValidationError(f"xi frame index {xi} out of range")
            self.xi_frame = frame_basis(self.dim)[xi]
            self.xi = self.frame[xi]
        else:
            xi = xi if isinstance(xi, VectorField) else VectorField(self.coords, xi)
            self.xi = xi
            self.xi_frame = None  # resolved after the frame inverse exists

        self.tol = tol
        self.sampler = Sampler(self.coords, box or {}, nonvanish=nonvanish,
                               seed=seed, count=samples)
        self.seed = seed
        self.samples = samples

        self.frame_inverse, self.frame_det = sym_inverse([list(v.comps) for v in self.frame])
        self.metric_inverse, self.metric_det = sym_inverse(self.metric)

        if self.xi_frame is None:
            self.xi_frame = self.to_frame(self.xi)
        # eta on the frame: eta_j = g(e_j, xi)
        self.eta_frame = _mat_vec(self.metric, self.xi_frame)
        self._validate_nondegeneracy()

    def _require_square(self, mat, label):
        if len(mat) != self.dim or any(len(row) != self.dim for row in mat):
            raise ValidationError(f"{label} must be {self.dim}x{self.dim}")

    def _validate_nondegeneracy(self):
        """Each determinant must stay off zero at every sample point.

        One whose enclosure on the domain box stays 2 * tol away from 0
        passes unevaluated; any other is evaluated at the points (a
        constant once, at the first point, the witness the full loop would
        report). The candidates are checked against the nonvanishing
        constraints here only if one comes within 2 * margin of 0 on the
        box: only then can candidates be rejected and the sampler fall
        short, which must show at construction. That check builds only the
        coordinates the constraints read; the points themselves are built
        on first use.
        """
        sampler = self.sampler
        if not all(_off_zero(g, sampler.box, 2 * sampler.margin)
                   for g in sampler.nonvanish):
            sampler.accepted()
        for label, det in (("frame", self.frame_det), ("metric_frame", self.metric_det)):
            if _off_zero(det, sampler.box, 2 * self.tol):
                continue
            points = sampler.points()
            if isinstance(det, Rat):
                points = points[:1]
            for env in points:
                val = evaluate(det, env)
                if abs(float(val)) < self.tol:
                    point = {k: str(v) for k, v in env.items()}
                    raise SingularFrame(
                        f"det({label}) vanishes on the sampling domain", witness=point
                    )

    # --- frame algebra -----------------------------------------------------

    def to_frame(self, X):
        """Frame components of a coordinate vector field."""
        return _mat_vec(self.frame_inverse, list(X.comps))

    @cached_property
    def brackets(self):
        """The structure constants: frame components of every ``[e_i, e_j]``."""
        n = self.dim
        brackets = [[None] * n for _ in range(n)]
        for i in range(n):
            brackets[i][i] = [ZERO] * n
            for j in range(i + 1, n):
                brackets[i][j] = self.to_frame(lie_bracket(self.frame[i], self.frame[j]))
                brackets[j][i] = [c if c is ZERO else -c for c in brackets[i][j]]
        return brackets

    def ad(self, v):
        """Rows ``[V, e_k] = sum_a v^a [e_a, e_k] - e_k(v^a) e_a`` in frame
        components, for V with frame components v; only non-zero v^a and
        structure constants are visited, and only non-constant v^a derived."""
        n = self.dim
        vs = [(a, va) for a, va in enumerate(v) if va is not ZERO]
        rows = []
        for k, e_k in enumerate(self.frame):
            terms = [[] for _ in range(n)]
            for a, va in vs:
                for m, c in enumerate(self.brackets[a][k]):
                    if c is not ZERO:
                        terms[m].append(va * c)
                if not isinstance(va, Rat):
                    d = e_k.apply(va)
                    if d is not ZERO:
                        terms[a].append(-d)
            rows.append([add_all(t) for t in terms])
        return rows

    def metric_apply(self, c, d):
        """``g(X, Y)`` from frame components: ``c . (g d)``, g symmetric."""
        return add_all([ci * gd for ci, gd in zip(c, _mat_vec(self.metric, d))
                        if ci is not ZERO and gd is not ZERO])

    def is_zero_field(self, e):
        return is_zero(e, self.sampler, self.tol)

