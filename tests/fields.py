"""Seeded polynomial test fields on a manifold's chart.

The draw order is fixed: for each field, each component draws its
constant, then one coefficient per coordinate, then (at degree 2) one
quadratic term. A given seed therefore always gives the same fields.
"""

import random

from contactgeo import scalar
from contactgeo.geometry import VectorField
from contactgeo.scalar import Rat, add_all


def random_polynomial(rng, coords, degree=1):
    """Small integer-coefficient polynomial in the chart coordinates."""
    terms = [Rat(rng.randint(-2, 2))]
    for name in coords:
        c = rng.randint(-2, 2)
        if c:
            terms.append(Rat(c) * scalar.Sym(name))
    if degree >= 2:
        a = rng.choice(coords)
        b = rng.choice(coords)
        c = rng.randint(-1, 1)
        if c:
            terms.append(Rat(c) * scalar.Sym(a) * scalar.Sym(b))
    return add_all(terms)


def random_vector_fields(M, count, seed, degree=1):
    """Deterministic list of polynomial-coefficient vector fields."""
    rng = random.Random(seed)
    fields = []
    for _ in range(count):
        comps = [random_polynomial(rng, M.coords, degree) for _ in range(M.dim)]
        fields.append(VectorField(M.coords, comps))
    return fields
