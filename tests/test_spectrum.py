"""The h' spectrum: exact integers where they exist, numpy otherwise.

``integer_spectrum`` returns the eigenvalues of a constant rational
matrix when it is diagonalizable with integer eigenvalues, and None
otherwise; ``StructureTensors.spectrum`` then falls back to the sampled
numpy loop, which must give what ``canonical_ref.ref_spectrum`` (the
earlier loop, kept as it was) gives.
"""

import copy
from fractions import Fraction

from contactgeo import curvature
from contactgeo.curvature import integer_spectrum
from contactgeo.scalar import ONE, ZERO, parse
from contactgeo.structure import solve_nullity

from canonical_ref import ref_spectrum


def _q(rows):
    return [[Fraction(a) for a in row] for row in rows]


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][m] * b[m][j] for m in range(n)) for j in range(n)] for i in range(n)]


def _inverse(a):
    """Gauss-Jordan inverse of an invertible Fraction matrix."""
    n = len(a)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _similar(diag, p):
    """``P diag P^-1`` for a rational P."""
    n = len(diag)
    d = [[Fraction(diag[i]) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    p = _q(p)
    return _matmul(_matmul(p, d), _inverse(p))


def test_zero_matrix():
    for n in (1, 3, 9):
        assert integer_spectrum(_q([[0] * n for _ in range(n)])) == [0] * n


def test_similar_to_diag_minus_one_zero_one():
    mat = _similar([1, -1, 0], [[1, 2, 0], [0, 1, 3], [1, 0, Fraction(1, 2)]])
    assert any(mat[i][j] for i in range(3) for j in range(3) if i != j)
    assert integer_spectrum(mat) == [-1, 0, 1]


def test_kappa_mu_prime_shape_repeated_roots():
    # the (kappa, mu)' shape at kappa = -2: h' has spectrum {0, +-1},
    # each non-zero value on an n-dimensional eigenspace
    p = [[1, 0, 2, 0, 1],
         [0, 1, 0, -1, 0],
         [1, 1, 1, 0, 0],
         [0, 2, 0, 1, Fraction(1, 3)],
         [1, 0, 0, 0, 1]]
    mat = _similar([0, 1, 1, -1, -1], p)
    assert integer_spectrum(mat) == [-1, -1, 0, 1, 1]


def test_asymmetric_spectrum_of_an_int_matrix():
    # entries as ints, as a constant h' hands them over; elimination must
    # stay exact, and the spectrum is not symmetric about 0
    mat = [[5, 9, -5], [-3, -5, 3], [1, 3, -1]]
    assert integer_spectrum(mat) == [-2, 0, 1]
    assert integer_spectrum(_q(mat)) == [-2, 0, 1]


def test_jordan_block_falls_back():
    assert integer_spectrum(_q([[0, 1], [0, 0]])) is None


def test_rotation_falls_back():
    assert integer_spectrum(_q([[0, -1], [1, 0]])) is None


def test_non_integer_eigenvalue_falls_back():
    assert integer_spectrum(_q([[Fraction(1, 2), 0], [0, 0]])) is None


def _with_h_prime(bundle, h_prime):
    tensors = copy.copy(bundle.tensors)  # the session fixture stays as it was
    tensors.h_prime = h_prime
    return tensors


def test_fallback_non_constant_matches_reference(ex3):
    x = parse("x")
    tensors = _with_h_prime(ex3, [[x, ONE, ZERO],
                                  [ZERO, -ONE, ZERO],
                                  [ZERO, parse("2*x"), ZERO]])
    *got, exact = tensors.spectrum()
    assert tuple(got) == ref_spectrum(tensors)
    assert not exact
    assert got[1] > 0.0


def test_fallback_constant_non_integer_matches_reference(ex3):
    # eigenvalues 0 and (1 +- sqrt 5)/2; tr h'^2 = 3 is an integer, so the
    # nullity test runs before it falls back
    tensors = _with_h_prime(ex3, [[ONE, ONE, ZERO],
                                  [ONE, ZERO, ZERO],
                                  [ZERO, ZERO, ZERO]])
    assert integer_spectrum([[e.value for e in row] for row in tensors.h_prime]) is None
    *got, exact = tensors.spectrum()
    assert tuple(got) == ref_spectrum(tensors)
    assert not exact
    assert any(isinstance(v, float) for v in got[0])
    assert got[1] == 0.0



def test_nullity_seeks_a_constant_spectrum_once(ex3, monkeypatch):
    # spectrum() says whether it is exact, so the nullity fit does not
    # seek the integer spectrum of a constant h' a second time
    tensors = _with_h_prime(ex3, [[ONE, ONE, ZERO],
                                  [ONE, ZERO, ZERO],
                                  [ZERO, ZERO, ZERO]])
    calls = []

    def counting(mat):
        calls.append(mat)
        return integer_spectrum(mat)

    monkeypatch.setattr(curvature, "integer_spectrum", counting)
    rep = solve_nullity(ex3.M, ex3.conn, ex3.table, tensors)
    assert len(calls) == 1
    assert rep.data["spectrum"] == [str(v) for v in ref_spectrum(tensors)[0]]
    assert rep.result("spectrum_consistency").kind != "proved_zero"
