"""Sparse frame contractions against the earlier dense loops.

The frame loops from the manifest to the curvature visit only entries
that are not ``ZERO``. Canonical sums drop zeros and do not depend on
the order of their operands, so every table must be ``==``-equal, node
for node, to the dense references in ``canonical_ref``. The manifolds
are the five fixtures, the golden manifests, one frame under a constant
metric that is not diagonal, with a phi that has several entries per
row, so the skips on g, g^{-1} and phi run where those are not the
identity or a signed permutation, one frame under a metric that is
neither constant nor diagonal, so the metric derivatives that ``koszul``
scatters are not all zero, and one with a Reeb field whose frame
components are not constant and a phi whose entries are not, so the
derivative terms of ``ManifoldSpec.ad`` and of h do not vanish. A
hypothesis property draws further frames at random (monomial and exp
entries, a constant metric off the diagonal, a sparse phi) and compares
R, S, Q and S* on each. On the fixed manifolds, d Phi must equal the
dense double sums it was once built from, and h, h' and L_V g from
the bracket table must agree, by a zero test of each difference, with
the earlier coordinate-bracket versions, and on the three hand-built
frames S and S*, as traces, with the earlier contractions through
``g^{ab} g(., e_b)``. Every residual and fit tuple that the check
families build from their slots must equal, label and tree, in order,
one that the earlier dense loops build, less the ``ZERO`` ones.

The guards at the end count the derivations of a constant while
``koszul``, R, h, h' and L_V g (for xi and each golden potential) are
built, on each golden manifest and on two hand-built frames, make S and
S* from a built R with the metric and its inverse unreadable, and count
products with a ``ZERO`` operand on each
golden manifest, while the connection and R, S, S* are built, and while
h, h' and both forms of the soliton solve are, and on the manifests the
full ``check`` runs on (the fixtures and the dim-3 golden ones), from the
manifest to the verdict of each check family: there must be none, so a
dense loop cannot come back unnoticed.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from contactgeo import manifest, scalar, structure
from contactgeo.cli import CHECK_NAMES, Workspace, parse_args, run_checks
from contactgeo.curvature import (
    CurvatureTable, ExteriorData, StructureTensors, frame_basis, koszul, lie_derivative_metric,
)
from contactgeo.geometry import ManifoldSpec, VectorField, _mat_vec, lie_bracket
from contactgeo.scalar import ZERO, Rat, Sym, add_all, parse, to_str
from contactgeo.soliton import SolitonProblem, solve_soliton

import canonical_ref
from canonical_ref import (
    RefCurvatureTable, ref_apply, ref_d_Phi, ref_from_frame, ref_frame_brackets, ref_koszul,
    ref_lie_bracket, ref_lie_derivative_metric, ref_mat_vec, ref_ricci_lowered,
    ref_star_ricci_lowered, ref_structure_tensors, ref_sym_inverse, ref_to_frame,
)
from fields import random_vector_fields
from manifolds import twisted, warped

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_NAMES = ("kenmotsu_exp_3", "kenmotsu_poly_3", "kenmotsu_exp_7", "kenmotsu_poly_9")
FIXTURES = ("ex1", "ex2", "ex3", "flat", "heis")
HAND_BUILT = ("skew", "warped", "twisted")
MANIFOLDS = FIXTURES + GOLDEN_NAMES + HAND_BUILT


def _rows(text):
    return [[parse(e) for e in row.split()] for row in text.split(";")]


def _skew():
    """A 5-dim frame with brackets under a constant, non-diagonal metric,
    and a phi with two or three entries per row."""
    return ManifoldSpec(
        name="skew",
        coords=("x", "y", "z", "u", "v"),
        frame=_rows("1 0 0 0 0; 0 exp(x) 0 0 0; y 0 1 0 0; 0 0 z 1 0; 0 x 0 0 exp(-x)"),
        metric=_rows("2 1 0 0 0; 1 2 0 0 0; 0 0 3 0 1; 0 0 0 1 0; 0 0 1 0 2"),
        phi=_rows("0 1 2 0 0; -1 0 0 1 0; 0 -1 0 0 3; 1 0 -2 0 1; 0 1 0 -1 0"),
        xi=4,
        box={c: (-1, 1) for c in ("x", "y", "z", "u", "v")},
        samples=5,
    )


def _load(name):
    if name == "skew":
        return _skew()
    if name == "warped":
        return warped()
    if name == "twisted":
        return twisted()
    return manifest.load(GOLDEN / f"{name}.json").manifold()


@pytest.fixture(scope="module")
def manifolds(request):
    out = {name: request.getfixturevalue(name).M for name in FIXTURES}
    for name in GOLDEN_NAMES + HAND_BUILT:
        out[name] = _load(name)
    return out


@pytest.mark.parametrize("name", MANIFOLDS)
def test_inverses_match_dense(manifolds, name):
    M = manifolds[name]
    frame = [list(v.comps) for v in M.frame]
    assert ref_sym_inverse(frame) == (M.frame_inverse, M.frame_det)
    assert ref_sym_inverse(M.metric) == (M.metric_inverse, M.metric_det)


@pytest.mark.parametrize("name", MANIFOLDS)
def test_vectors_match_dense(manifolds, name):
    M = manifolds[name]
    n = M.dim
    phi_fields = [ref_from_frame(M, row) for row in M.phi]
    assert M.eta_frame == [add_all([M.xi_frame[k] * M.metric[j][k] for k in range(n)])
                           for j in range(n)]
    fields = list(M.frame) + phi_fields
    for X in fields:
        assert M.to_frame(X) == ref_to_frame(M, X)
        for Y in fields:
            assert lie_bracket(X, Y) == ref_lie_bracket(X, Y)
        for f in X.comps + tuple(M.eta_frame):
            assert X.apply(f) == ref_apply(X, f)
    for row in M.phi + frame_basis(n):
        assert _mat_vec(M.phi, row) == ref_mat_vec(M.phi, row)


@pytest.mark.parametrize("name", MANIFOLDS)
def test_connection_and_curvature_match_dense(manifolds, name):
    M = manifolds[name]
    conn = koszul(M)
    ref = ref_koszul(M)
    assert M.brackets == ref_frame_brackets(M)
    assert conn.gamma == ref.gamma
    table, dense = CurvatureTable(M, conn), RefCurvatureTable(M, conn)
    for quantity in ("R", "ricci", "ricci_operator", "star_ricci"):
        assert getattr(table, quantity) == getattr(dense, quantity), quantity


@pytest.mark.parametrize("name", MANIFOLDS)
def test_d_Phi_matches_dense(manifolds, name):
    # Phi([e_i, e_j], e_k) read through the sparse _mat_vec builds the same
    # trees as the dense double sums
    M = manifolds[name]
    assert ExteriorData(M).d_Phi == ref_d_Phi(M)



# family: (the function of ``structure``, ``ref_`` + it in canonical_ref,
# and its arguments from M, conn, table, tensors)
FAMILIES = {
    "almost_contact": ("check_almost_contact", lambda M, c, t, s: (M,)),
    "kenmotsu": ("check_kenmotsu", lambda M, c, t, s: (M, c, t)),
    "almost_kenmotsu": ("check_almost_kenmotsu", lambda M, c, t, s: (M, c, t, s)),
    "nullity": ("solve_nullity", lambda M, c, t, s: (M, c, t, s)),
    "eta_einstein": ("solve_eta_einstein", lambda M, c, t, s: (M, t)),
}


def _recorded(monkeypatch, run):
    """What ``run`` passes to ``combine`` and ``fit_sampled``, less the
    ``ZERO`` residuals and all-``ZERO`` tuples, and its report."""
    combine, fit_sampled = structure.combine, structure.fit_sampled
    calls = []

    def record_combine(M, name, parts, exact=True):
        parts = list(parts)
        calls.append((name, [(label, e) for label, e in parts if e is not ZERO]))
        return combine(M, name, parts, exact)

    def record_fit(M, entries):
        calls.append(("fit", [t for t in entries if any(e is not ZERO for e in t)]))
        return fit_sampled(M, entries)

    with monkeypatch.context() as m:
        for module in (structure, canonical_ref):
            m.setattr(module, "combine", record_combine)
            m.setattr(module, "fit_sampled", record_fit)
        report = run()
    return calls, report.to_dict()


# all but warped's kenmotsu family, which takes seconds (the nabla Q of its
# rational Ricci operator)
@pytest.mark.parametrize("name,family", [(name, family) for name in MANIFOLDS
                                         for family in CHECK_NAMES
                                         if (name, family) != ("warped", "kenmotsu")])
def test_check_residuals_match_dense(monkeypatch, manifolds, name, family):
    M = manifolds[name]
    conn = koszul(M)
    table = CurvatureTable(M, conn)
    func, args = FAMILIES[family]
    args = args(M, conn, table, StructureTensors(M))
    sparse = _recorded(monkeypatch, lambda: getattr(structure, func)(*args))
    dense = _recorded(monkeypatch, lambda: getattr(canonical_ref, "ref_" + func)(*args))
    assert sparse[0]
    assert sparse == dense


COORDS = ("x", "y", "z", "u", "v")


@st.composite
def sparse_frames(draw):
    """A random frame of dimension 3 or 5: lower triangular, with three
    entries or fewer that are not constant, ``exp(+-x_a)`` on the diagonal
    (1 elsewhere on it) and a monomial or an exp below it, so its brackets
    are random and its determinant never vanishes; a constant, strictly
    diagonally dominant metric with one to three entries off the diagonal;
    and a sparse phi of constants and monomials."""
    n = draw(st.sampled_from((3, 5)))
    coords = COORDS[:n]
    var = st.sampled_from(coords)
    exps = st.builds("exp({}{})".format, st.sampled_from(("", "-")), var)
    monomials = st.builds("{}*{}^{}".format, st.sampled_from((1, -1, 2)), var,
                          st.integers(1, 2))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    frame = [["1" if j == k else "0" for j in range(n)] for k in range(n)]
    for k, j in draw(st.lists(pairs.filter(lambda p: p[0] >= p[1]), max_size=3, unique=True)):
        frame[k][j] = draw(exps if j == k else monomials | exps)
    metric = [[draw(st.sampled_from((5, 6, -5))) if j == k else 0 for j in range(n)]
              for k in range(n)]
    for i, j in draw(st.lists(pairs.filter(lambda p: p[0] < p[1]), min_size=1, max_size=3)):
        metric[i][j] = metric[j][i] = draw(st.sampled_from((1, -1)))
    phi_entries = st.one_of(st.just("0"), st.just("0"), st.sampled_from(("1", "-1", "2")),
                            monomials)
    phi = [[draw(phi_entries) for _ in range(n)] for _ in range(n)]
    return ManifoldSpec(
        name="random", coords=coords,
        frame=[[parse(e) for e in row] for row in frame],
        metric=[[Rat(e) for e in row] for row in metric],
        phi=[[parse(e) for e in row] for row in phi],
        xi=draw(st.integers(0, n - 1)),
        box={c: (-1, 1) for c in coords}, samples=5,
    )


@given(sparse_frames())
@settings(max_examples=30, deadline=None)
def test_random_sparse_frames_match_dense(M):
    table = CurvatureTable(M, koszul(M))
    dense = RefCurvatureTable(M, table.conn)
    for quantity in ("R", "ricci", "ricci_operator", "star_ricci"):
        assert getattr(table, quantity) == getattr(dense, quantity), quantity


@pytest.mark.parametrize("name", HAND_BUILT)
def test_traces_agree_with_the_lowered_contractions(manifolds, name):
    # S and S* as traces against the earlier g^{ab} g(., e_b) contractions:
    # the same functions on every metric, though not the same trees where
    # the metric is not constant
    M = manifolds[name]
    table = CurvatureTable(M, koszul(M))
    rows = list(zip(table.ricci, ref_ricci_lowered(M, table.R)))
    rows += zip(table.star_ricci, ref_star_ricci_lowered(M, table.R))
    for got, want in rows:
        for a, b in zip(got, want):
            assert M.is_zero_field(a - b).is_zero, (name, str(a), str(b))


def test_warped_ricci_trace_is_shorter_than_the_lowered_contraction(manifolds):
    # the canonical form does not cancel g^{ab} g_mb on a metric that is not
    # constant, so the lowered S(e_1, e_1) is 7.5x longer (36,498 characters
    # against 4,825)
    M = manifolds["warped"]
    table = CurvatureTable(M, koszul(M))
    trace = to_str(table.ricci[0][0])
    assert 5 * len(trace) <= len(to_str(ref_ricci_lowered(M, table.R)[0][0]))


@pytest.mark.parametrize("name", MANIFOLDS)
def test_h_and_metric_flow_match_coordinate_brackets(manifolds, name):
    # h, h' and L_V g from the bracket table against the coordinate brackets,
    # for V = xi and a non-constant polynomial field
    M = manifolds[name]
    tensors = StructureTensors(M)
    h, h_prime = ref_structure_tensors(M)
    rows = list(zip(tensors.h + tensors.h_prime, h + h_prime))
    for V in [M.xi] + random_vector_fields(M, 1, seed=3, degree=2):
        rows += zip(lie_derivative_metric(M, M.to_frame(V)), ref_lie_derivative_metric(M, V))
    for got, want in rows:
        for a, b in zip(got, want):
            assert M.is_zero_field(a - b).is_zero, (name, str(a), str(b))


def test_skew_manifold_exercises_the_skips(manifolds):
    # the metric, its inverse and phi have zero and non-zero entries off the
    # diagonal, and the curvature is not flat
    M = manifolds["skew"]
    for A in (M.metric, M.metric_inverse, M.phi):
        off = [A[i][j] for i in range(M.dim) for j in range(M.dim) if i != j]
        assert any(e is ZERO for e in off) and any(e is not ZERO for e in off)
    assert all(sum(e is not ZERO for e in row) >= 2 for row in M.phi)
    table = CurvatureTable(M, koszul(M))
    assert any(e is not ZERO for row in table.star_ricci for e in row)


def test_warped_manifold_exercises_the_metric_derivatives(manifolds):
    # an off-diagonal metric entry is not constant, so koszul has derivative
    # terms to scatter, and the curvature is not flat
    M = manifolds["warped"]
    assert not isinstance(M.metric[0][1], Rat)
    assert any(e_a.apply(M.metric[0][1]) is not ZERO for e_a in M.frame)
    table = CurvatureTable(M, koszul(M))
    assert any(c is not ZERO for Ri in table.R for Rij in Ri for comps in Rij for c in comps)


def test_twisted_manifold_exercises_the_reeb_derivatives(manifolds):
    # xi has frame components that are not constant and phi has entries that
    # are not, so h has xi(phi_jk) terms and [xi, e_k] has e_k(xi^a) terms
    M = manifolds["twisted"]
    assert any(M.xi.apply(p) is not ZERO for row in M.phi for p in row)
    assert any(e_k.apply(c) is not ZERO for e_k in M.frame for c in M.xi_frame)
    assert any(e is not ZERO for row in StructureTensors(M).h_prime for e in row)


# --- the zero-work guards -----------------------------------------------------


@pytest.mark.parametrize("name", GOLDEN_NAMES + ("skew", "twisted"))
def test_no_derivation_of_a_constant_in_koszul_or_r(monkeypatch, name):
    # nor in h and h', nor in L_V g for xi and each golden potential
    M = _load(name)
    fields = [M.xi_frame]
    if name in GOLDEN_NAMES:
        fields.append(M.to_frame(manifest.load(GOLDEN / f"{name}.json").potential_field()))
    counts = {"calls": 0, "constant": 0}
    apply = VectorField.apply

    def counting_apply(self, f):
        counts["calls"] += 1
        if isinstance(f, Rat):
            counts["constant"] += 1
        return apply(self, f)

    monkeypatch.setattr(VectorField, "apply", counting_apply)
    CurvatureTable(M, koszul(M)).R
    StructureTensors(M)
    for v in fields:
        lie_derivative_metric(M, v)
    assert counts["calls"] > 0
    assert counts["constant"] == 0


class _Unread:
    """Stands in for a matrix that must not be read."""

    def __getitem__(self, index):
        raise AssertionError("metric entry read")

    def __iter__(self):
        raise AssertionError("metric entry read")


@pytest.mark.parametrize("name", GOLDEN_NAMES + HAND_BUILT)
def test_no_metric_read_in_ricci_or_star_ricci(monkeypatch, name):
    # once R is built, S and S* are traces: no entry of g or g^{-1} is read
    M = _load(name)
    table = CurvatureTable(M, koszul(M))
    table.R
    monkeypatch.setattr(M, "metric", _Unread())
    monkeypatch.setattr(M, "metric_inverse", _Unread())
    assert len(table.ricci) == len(table.star_ricci) == M.dim


def _count_zero_products(monkeypatch):
    """Empty the scalar caches and count every ``scalar.mul`` call from here
    on, and those with a ``ZERO`` operand."""
    counts = {"calls": 0, "zero": 0}
    mul = scalar.mul

    def counting_mul(a, b):
        counts["calls"] += 1
        if a is ZERO or b is ZERO:
            counts["zero"] += 1
        return mul(a, b)

    scalar.clear_caches()
    monkeypatch.setattr(scalar, "mul", counting_mul)
    return counts


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_no_product_with_a_zero_operand(monkeypatch, name):
    M = _load(name)
    counts = _count_zero_products(monkeypatch)
    table = CurvatureTable(M, koszul(M))
    for quantity in ("R", "ricci", "ricci_operator", "scalar_curvature",
                     "star_ricci", "star_scalar"):
        getattr(table, quantity)
    assert counts["calls"] > 0
    assert counts["zero"] == 0


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_no_product_with_a_zero_operand_in_h_or_the_soliton(monkeypatch, name):
    # the h of StructureTensors, and SolitonProblem's tensors, fit entries
    # and residual, in the vector form (the manifest's potential) and the
    # gradient form (f = t^2 in the last coordinate, through the Hessian)
    mf = manifest.load(GOLDEN / f"{name}.json")
    M = mf.manifold()
    table = CurvatureTable(M, koszul(M))
    table.star_ricci
    f = Sym(M.coords[-1]) ** 2
    counts = _count_zero_products(monkeypatch)
    StructureTensors(M)
    for problem in (SolitonProblem(M, table, V=mf.potential_field()),
                    SolitonProblem(M, table, f=f)):
        solve_soliton(problem)
    assert counts["calls"] > 0
    assert counts["zero"] == 0


CHECKED = ("example1", "example2", "example3", "flat", "eta_einstein",
           "kenmotsu_exp_3", "kenmotsu_poly_3")


@pytest.mark.parametrize("family", CHECK_NAMES)
@pytest.mark.parametrize("name", CHECKED)
def test_no_product_with_a_zero_operand_in_the_checks(monkeypatch, name, family):
    path = str(GOLDEN / f"{name}.json") if name in GOLDEN_NAMES else name
    counts = _count_zero_products(monkeypatch)
    run_checks(Workspace(parse_args(["check", path])), [family])
    assert counts["calls"] > 0
    assert counts["zero"] == 0
