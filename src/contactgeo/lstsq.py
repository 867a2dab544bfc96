"""Small least-squares solver used by the fitting operations.

Solves min ||A x - b|| for a handful of unknowns (here always 1 or 2).
When every entry is an exact rational the normal equations are solved
in Fraction arithmetic, so exact fits come out exact. Otherwise numpy
does the floating-point solve; it is imported on that path only, so an
exact fit never loads it.

Columns whose entries are all zero make the corresponding unknown
unidentifiable; they are dropped and their value comes back as None, so
callers can mark the parameter as unconstrained instead of inventing a
zero.

A row may carry an integer weight w: it then counts as w copies of
itself, exactly so in the rational path and by repetition in the float
path.

Only the fitted values come back: callers settle a fit by substituting
them into its symbolic residuals (``structure.settle_fit``).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DegenerateSystem


class FitResult:
    def __init__(self, values, exact):
        self.values = values          # per requested column: number or None when dropped
        self.exact = exact            # True when solved in rational arithmetic

    def __repr__(self):
        return f"FitResult(values={self.values}, exact={self.exact})"


def _solve_rational(gram, rhs):
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


def solve_least_squares(rows, rhs, weights=None):
    """Fit x minimizing ||A x - b||.

    rows: list of coefficient tuples (one per equation), rhs: list of
    numbers. Entries may be Fraction/int (exact) or float. weights, when
    given, holds one positive integer per row: the system is solved as if
    row i appeared weights[i] times. Returns a FitResult whose `values`
    has one entry per column; dropped columns get None.
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
        sol = _solve_rational(gram, rvec)
        values = [None] * ncols
        for a, j in enumerate(keep):
            values[j] = sol[a]
        return FitResult(values, True)

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
    return FitResult(values, False)
