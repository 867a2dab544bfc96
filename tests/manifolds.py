"""Hand-built test manifolds shared by several test modules."""

from contactgeo.geometry import ManifoldSpec, VectorField
from contactgeo.scalar import parse


def warped():
    """A frame with brackets under a non-constant, non-diagonal metric, so the
    derivative terms of Koszul's formula do not vanish."""
    P = parse
    return ManifoldSpec(
        name="warped",
        coords=("x", "y", "z"),
        frame=[[P("1"), P("0"), P("0")], [P("0"), P("1"), P("0")],
               [P("y"), P("x*z"), P("1")]],
        metric=[[P("2 + y^2"), P("x"), P("0")], [P("x"), P("2"), P("z")],
                [P("0"), P("z"), P("3")]],
        phi=[[P("0"), P("1"), P("0")], [P("-1"), P("0"), P("0")],
             [P("0"), P("0"), P("0")]],
        xi=2,
        box={"x": (-1, 1), "y": (-1, 1), "z": (-1, 1)},
        samples=5,
    )


def twisted():
    """A Reeb field given by coordinate components whose frame components are
    not constant, and a phi with non-constant entries, under a non-constant
    metric, so the terms ``xi(phi_jk)`` of h and ``e_k(v^a)`` of
    ``[V, e_k]`` do not vanish."""
    P = parse
    return ManifoldSpec(
        name="twisted",
        coords=("x", "y", "z"),
        frame=[[P("1"), P("0"), P("0")], [P("0"), P("exp(x)"), P("0")],
               [P("0"), P("x"), P("1")]],
        metric=[[P("2"), P("x"), P("0")], [P("x"), P("2"), P("0")],
                [P("0"), P("0"), P("1")]],
        phi=[[P("0"), P("x"), P("0")], [P("-1"), P("0"), P("y")],
             [P("z"), P("0"), P("0")]],
        xi=VectorField(("x", "y", "z"), [P("1"), P("y"), P("1")]),
        box={"x": (-1, 1), "y": (-1, 1), "z": (-1, 1)},
        samples=5,
    )
