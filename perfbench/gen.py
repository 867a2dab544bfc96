"""Seeded generator of Kenmotsu manifests for the benchmark.

The model is Kenmotsu's warped product R x_{ce^t} R^{2n} (Kenmotsu,
Tohoku Math. J. 24, 1972), written on an orthonormal frame in one of two
warp forms:

* ``poly``: e_i = t d/dx_i, xi = -t d/dt, on a t-range inside t > 0;
* ``exp``:  e_i = exp(-t) d/dx_i, xi = d/dt.

Both give [xi, e_i] = -e_i, hence h = 0, S = -2n g, R(X,Y)xi =
eta(X)Y - eta(Y)X and L_xi g = 2(g - eta (x) eta). The potential is
V = c xi, for which the soliton solve has lambda~ = 1 - c, mu = c - 1.

A ``random.Random`` drawn from the workload seed fixes everything else:
the order of the frame slots, the orientation of each phi pair, the
constant c and the t-range. ``Model`` keeps those draws, so the known
answers in ``answers.py`` are computed from the same description the
manifest was written from.

Run ``python3 perfbench/gen.py --dim 5 --form exp --seed 3`` to print one
manifest.
"""

from __future__ import annotations

import argparse
import json
import random
from fractions import Fraction

FORMS = ("poly", "exp")
C_VALUES = tuple(Fraction(v) for v in ("-2", "-1", "-1/2", "1/2", "3/2", "2", "3"))
# (lowest t, width) of the t-range, per warp form; poly needs t > 0
T_STARTS = {"poly": ("1/2", "3/4", "1"), "exp": ("-1", "-1/2", "0")}
T_WIDTHS = ("1", "3/2", "2")


class Model:
    """One drawn Kenmotsu manifold: the draws and the manifest they give."""

    def __init__(self, dim, form, slots, signs, c, t_range, name):
        self.dim = dim
        self.n = (dim - 1) // 2
        self.form = form
        self.slots = slots        # slots[s] = model vector in frame slot s
        self.signs = signs        # phi E_{2k} = signs[k] E_{2k+1}
        self.c = c
        self.t_range = t_range
        self.name = name

    @property
    def xi_slot(self):
        return self.slots.index(2 * self.n)

    def slot_of(self, model_index):
        return self.slots.index(model_index)

    def coordinates(self):
        return [f"x{i + 1}" for i in range(2 * self.n)] + ["t"]

    def _model_vector(self, m):
        comps = ["0"] * self.dim
        if m < 2 * self.n:
            comps[m] = "t" if self.form == "poly" else "exp(-t)"
        else:
            comps[-1] = "-t" if self.form == "poly" else "1"
        return comps

    def phi_images(self):
        """phi(e_s) in frame components, per slot s."""
        rows = [[0] * self.dim for _ in range(self.dim)]
        for k, sign in enumerate(self.signs):
            a, b = self.slot_of(2 * k), self.slot_of(2 * k + 1)
            rows[a][b] = sign
            rows[b][a] = -sign
        return rows

    def manifest(self):
        dim = self.dim
        lo, hi = self.t_range
        c = self.c
        if self.form == "poly":
            pot_t = f"{-c.numerator}*t/{c.denominator}"
            domain_t = [{"coord": "t", "min": str(lo), "max": str(hi)},
                        {"nonzero": "t"}]
        else:
            pot_t = f"{c.numerator}/{c.denominator}"
            domain_t = [{"coord": "t", "min": str(lo), "max": str(hi)}]
        domain = [{"coord": x, "min": -2, "max": 2}
                  for x in self.coordinates()[:-1]] + domain_t
        return {
            "name": self.name,
            "coordinates": self.coordinates(),
            "frame": [self._model_vector(m) for m in self.slots],
            "metric_frame": [["1" if i == j else "0" for j in range(dim)]
                             for i in range(dim)],
            "phi_frame": [[str(v) for v in row] for row in self.phi_images()],
            "xi": self.xi_slot,
            "domain": domain,
            "potential": {"vector": ["0"] * (dim - 1) + [pot_t]},
        }


def draw(rng, dim, form=None):
    """Draw one Kenmotsu model of odd dimension ``dim`` >= 3 from ``rng``.

    ``form`` is ``"poly"`` or ``"exp"``; None draws it from ``rng``.
    """
    if dim < 3 or dim % 2 == 0:
        raise ValueError(f"dimension must be odd and >= 3, got {dim}")
    if form is None:
        form = rng.choice(FORMS)
    if form not in FORMS:
        raise ValueError(f"unknown warp form {form!r}")
    n = (dim - 1) // 2
    slots = list(range(dim))
    rng.shuffle(slots)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    c = rng.choice(C_VALUES)
    lo = Fraction(rng.choice(T_STARTS[form]))
    t_range = (lo, lo + Fraction(rng.choice(T_WIDTHS)))
    return Model(dim, form, slots, signs, c, t_range, f"kenmotsu_{form}_{dim}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--form", choices=FORMS, default=None)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    try:
        model = draw(random.Random(args.seed), args.dim, args.form)
    except ValueError as ex:
        p.error(str(ex))
    print(json.dumps(model.manifest(), indent=2))


if __name__ == "__main__":
    main()
