"""Small least-squares solver used by the fitting operations.

Solves min ||A x - b|| for a handful of unknowns (here always 1 or 2).
When every entry is an exact rational (int or Fraction) the normal
equations are summed in the entries' own arithmetic, ints as ints, and
only the k x k elimination divides: ``geometry.row_reduce`` on the sums
as ``Rat`` constants. So exact fits come out exact and every fitted
value is a Fraction. Otherwise numpy does the floating-point solve; it
is imported on that path only, so an exact fit never loads it.

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
from .geometry import row_reduce
from .scalar import Rat


def solve_least_squares(rows, rhs, weights=None):
    """Fit x minimizing ||A x - b||.

    rows: list of coefficient tuples (one per equation), rhs: list of
    numbers. Entries may be Fraction/int (exact) or float. weights, when
    given, holds one positive integer per row: the system is solved as if
    row i appeared weights[i] times. Returns the fitted values, one per
    column: Fractions when every entry is exact, else floats; dropped
    columns get None.
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
        # ints stay ints here; only the elimination divides
        k = len(keep)
        gram = [[0] * k for _ in range(k)]
        rvec = [0] * k
        for row, b, w in zip(rows, rhs, weights):
            for a, ja in enumerate(keep):
                ra = row[ja]
                if ra == 0:
                    continue
                rvec[a] += w * ra * b
                for bcol in range(a, k):
                    gram[a][bcol] += w * ra * row[keep[bcol]]
        for a in range(k):
            for bcol in range(a):
                gram[a][bcol] = gram[bcol][a]
        aug = [[Rat(x) for x in gram[a]] + [Rat(rvec[a])] for a in range(k)]
        if len(row_reduce(aug, k)[0]) < k:
            raise DegenerateSystem("normal equations are singular")
        values = [None] * ncols
        for a, j in enumerate(keep):
            values[j] = Fraction(aug[a][k].value)
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
