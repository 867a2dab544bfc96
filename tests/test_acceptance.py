"""Acceptance gate: one printed pass/fail line per criterion.

Every criterion must pass. Criteria 03b and 05b pin what the toolkit
derives for the indefinite-metric example (S = -4 g, S* = 0, and the
exact soliton constants (-2, 2)), cross-check them against the
finite-difference oracle, and refute the values that example was once
documented with (Ricci diagonal -4, r* = -4, constants (-1, 1)), which
belong to the positive-definite metric on the same frame.
"""

import json
import random
from contextlib import contextmanager
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from contactgeo.cli import main as cli_main
from contactgeo.curvature import CurvatureTable, hessian, koszul, lie_derivative_metric
from contactgeo.geometry import ManifoldSpec, VectorField, lie_bracket
from contactgeo.scalar import (
    ONE, Rat, Sampler, ZERO, diff, evaluate, is_zero, parse,
)
from contactgeo.soliton import (
    SolitonProblem, solve_soliton, verify_soliton,
)
from contactgeo.structure import (
    check_almost_contact, check_kenmotsu, solve_eta_einstein, solve_nullity,
)

from canonical_ref import simplify
from fd_oracle import Chart

TOL = 1e-9


@contextmanager
def announce(capsys, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"acceptance {label}: FAIL")
        raise
    with capsys.disabled():
        print(f"acceptance {label}: PASS")


def rat_is(e, q):
    e = simplify(e)
    return isinstance(e, Rat) and e.value == Fraction(q)


def comps_are(comps, expect):
    return all(rat_is(c, expect.get(k, 0)) for k, c in enumerate(comps))


def fixture_data(name):
    path = resources.files("contactgeo") / "fixtures" / f"{name}.json"
    return json.loads(path.read_text())


def float_env(env):
    return {k: float(v) for k, v in env.items()}


# --- 1: golden connection tables (exact) --------------------------------------


def test_acceptance_01_connection_tables(capsys, ex2, ex3):
    with announce(capsys, "01 golden connection tables"):
        for i in range(5):
            for j in range(5):
                if i < 4 and j == i:
                    want = {4: -1}
                elif i < 4 and j == 4:
                    want = {i: 1}
                else:
                    want = {}
                assert comps_are(ex2.conn.gamma[i][j], want), (i, j)
        for i in range(3):
            for j in range(3):
                want = {2: -2} if (i, j) == (0, 0) else \
                       {0: 2} if (i, j) == (0, 2) else {}
                assert comps_are(ex3.conn.gamma[i][j], want), (i, j)


# --- 2: golden curvature tables ------------------------------------------------


def test_acceptance_02_curvature_tables(capsys, ex2, ex3):
    with announce(capsys, "02 golden curvature tables"):
        R = ex2.table.R
        listed = 0
        for i in range(5):
            for j in range(i + 1, 5):
                assert comps_are(R[i][j][j], {i: -1}), (i, j)
                assert comps_are(R[i][j][i], {j: 1}), (i, j)
                listed += 2
                for k in range(5):
                    if k not in (i, j):
                        for c in R[i][j][k]:
                            assert ex2.M.is_zero_field(c).is_zero
        assert listed == 20
        R3 = ex3.table.R
        assert comps_are(R3[0][2][0], {2: 4})
        assert comps_are(R3[0][2][2], {0: -4})
        for (i, j) in ((0, 1), (1, 2)):
            for k in range(3):
                for c in R3[i][j][k]:
                    assert ex3.M.is_zero_field(c).is_zero
        for c in R3[0][2][1]:
            assert ex3.M.is_zero_field(c).is_zero


# --- 3: Ricci and star-Ricci ---------------------------------------------------


def test_acceptance_03a_ricci_star_ricci(capsys, ex2):
    with announce(capsys, "03a Ricci and star-Ricci (warped product)"):
        rep = solve_eta_einstein(ex2.M, ex2.table)
        assert rep.data["a"] == "-4"
        assert rep.data["b"] == "0"
        assert rep.data["residual_max"] < TOL
        M, t = ex2.M, ex2.table
        eta = M.eta_frame
        for i in range(5):
            for j in range(5):
                want = simplify(-M.metric[i][j] + eta[i] * eta[j])
                assert rat_is(t.star_ricci[i][j] - want, 0)
        # trace definition against the Ricci-shift formula, 2n - 1 = 3
        pts = M.sampler.points()
        assert len(pts) >= 50
        for i in range(5):
            for j in range(5):
                alt = t.ricci[i][j] + Rat(3) * M.metric[i][j] + eta[i] * eta[j]
                d = simplify(t.star_ricci[i][j] - alt)
                for env in pts:
                    assert abs(float(evaluate(d, env))) <= TOL


def test_acceptance_03b_ricci_star_ricci_indefinite(capsys, ex1):
    with announce(capsys, "03b Ricci and star-Ricci (indefinite metric)"):
        M, t = ex1.M, ex1.table
        # [e_i, e_5] = e_i with a constant frame metric of any signature
        # gives R(X,Y)Z = g(X,Z)Y - g(Y,Z)X, so S = -4 g and r = -20; phi
        # swaps the metric's +/- parts, so S* = 0 identically.
        r = simplify(t.scalar_curvature)
        assert rat_is(r, -20), f"r = {r}"
        for i in range(5):
            for j in range(5):
                d = simplify(t.ricci[i][j] + Rat(4) * M.metric[i][j])
                assert rat_is(d, 0), f"S(e_{i + 1},e_{j + 1}) + 4 g = {d}"
                val = simplify(t.star_ricci[i][j])
                assert rat_is(val, 0), f"S*(e_{i + 1},e_{j + 1}) = {val}"
        assert rat_is(t.star_scalar, 0), f"r* = {simplify(t.star_scalar)}"
        # the documented Ricci diagonal -4 and r* = -4 belong to g = delta
        for i in (2, 3):
            assert not rat_is(t.ricci[i][i], -4), i
        assert not rat_is(t.star_scalar, -4)

        chart = Chart(fixture_data("example1"))
        pts = M.sampler.points()[:2]
        assert len(pts) == 2
        for env in pts:
            pt = float_env(env)
            for i in range(5):
                for j in range(5):
                    for engine, oracle in (
                            (t.ricci[i][j], chart.ricci_frame(pt, i, j)),
                            (t.star_ricci[i][j], chart.star_ricci_frame(pt, i, j))):
                        got = float(evaluate(engine, env))
                        assert abs(got - oracle) < 1e-5, (i, j, got, oracle)


# --- 4: structure checks ---------------------------------------------------------


def test_acceptance_04_structure_checks(capsys, ex2, ex3):
    with announce(capsys, "04 structure checks"):
        rep = check_almost_contact(ex2.M)
        assert rep.passed
        rep = check_kenmotsu(ex2.M, ex2.conn, ex2.table)
        assert rep.passed
        for r in rep.results:
            assert r.max_abs < TOL, r.name

        assert check_almost_contact(ex3.M).passed
        assert not check_kenmotsu(ex3.M, ex3.conn, ex3.table).passed
        nrep = solve_nullity(ex3.M, ex3.conn, ex3.table, ex3.tensors)
        assert nrep.data["kappa"] == "-2"
        assert nrep.data["mu"] == "-2"
        assert nrep.data["residual_max"] < TOL
        values, _, _ = ex3.tensors.spectrum()
        assert set(values) == {1, -1, 0}
        for name in ("h_prime_square", "reeb_curvature_operator",
                     "ricci_operator_form", "scalar_curvature_value",
                     "covariant_eta_shape"):
            r = nrep.result(name)
            assert r.passed and r.max_abs < TOL, name
        # r = 2n(kappa - 2n) with n = 1, kappa = -2
        assert rat_is(ex3.table.scalar_curvature, -8)
        assert nrep.result("star_ricci_form").passed
        for i in range(3):
            for j in range(3):
                assert rat_is(ex3.table.star_ricci[i][j], 0)


# --- 5: soliton solves -----------------------------------------------------------


def test_acceptance_05a_soliton_solve(capsys, ex2):
    with announce(capsys, "05a soliton solve (warped product)"):
        P = SolitonProblem(ex2.M, ex2.table, V=ex2.manifest.potential_field())
        rep = solve_soliton(P)
        assert rep.lambda_tilde == 0
        assert rep.mu == 0
        assert rep.residual_max < TOL
        assert rep.lambda_string() == "p/2 + 1/5"


def test_acceptance_05b_soliton_solve_indefinite(capsys, ex1):
    with announce(capsys, "05b soliton solve (indefinite metric)"):
        M = ex1.M
        P = SolitonProblem(M, ex1.table, V=ex1.manifest.potential_field())
        # L_V g = 4 (g - eta (x) eta) and S* = 0, so (lambda~, mu) = (-2, 2)
        rep = solve_soliton(P)
        got = (rep.lambda_tilde, rep.mu, rep.lambda_string())
        assert rep.exact, f"solved {got}"
        assert (rep.lambda_tilde, rep.mu) == (-2, 2), f"solved {got}"
        assert rep.residual_max == 0
        assert rep.lambda_string() == "p/2 - 9/5"
        # the documented constants (-1, 1) leave 2 (g - eta (x) eta)
        wrong = verify_soliton(P, -1, 1)
        assert not wrong.passed
        assert wrong.residual_max == 2
        for r in (rep, wrong):
            assert r.lambda_tilde + r.mu == 0

        data = fixture_data("example1")
        chart = Chart(data)
        vsrc = data["potential"]["vector"]
        pts = M.sampler.points()[:2]
        assert len(pts) == 2
        for env in pts:
            pt = float_env(env)
            G = chart.G(pt)
            eta = chart.eta(pt)
            for i in range(5):
                for j in range(5):
                    base = (chart.lie_metric_frame(vsrc, pt, i, j)
                            + 2 * chart.star_ricci_frame(pt, i, j))
                    at_solved = base + 2 * (-2) * G[i, j] + 2 * 2 * eta[i] * eta[j]
                    assert abs(at_solved) < 1e-5, (i, j, at_solved)
                    if i == j:
                        at_documented = base + 2 * (-1) * G[i, i] + 2 * eta[i] ** 2
                        want = (2.0, 2.0, -2.0, -2.0, 0.0)[i]
                        assert abs(at_documented - want) < 1e-5, (i, at_documented)


# --- 6: audit findings against the finite-difference oracle ----------------------


def test_acceptance_06a_compatibility_witness(capsys, ex1):
    with announce(capsys, "06a compatibility defect has an oracle-confirmed witness"):
        rep = check_almost_contact(ex1.M)
        bad = rep.result("metric_compatibility")
        assert bad.kind == "non_zero"
        assert bad.witness is not None
        _, point, value = bad.witness
        chart = Chart(fixture_data("example1"))
        pt = float_env(point)
        defects = [chart.compat_defect(pt, i, j)
                   for i in range(5) for j in range(i, 5)]
        assert any(abs(float(value) - d) < 1e-9 for d in defects)
        assert abs(chart.compat_defect(pt, 0, 0) - (-2.0)) < 1e-9
        assert abs(float(value)) > 1e-3


def test_acceptance_06b_gradient_form_audit(capsys, ex2):
    with announce(capsys, "06b gradient form fails off |v| = 1, "
                          "gradient identity holds"):
        M = ex2.M
        f = parse("x^2 + y^2 + z^2 + u^2 + v^2/2")
        P = SolitonProblem(M, ex2.table, f=f)
        res = verify_soliton(P, 0, 0).residual
        assert M.is_zero_field(res[0, 0] - parse("v^2 - 1")).is_zero
        verdict = M.is_zero_field(res[0, 0])
        assert verdict.kind == "non_zero"

        # grad_g f = v^2 . V componentwise
        grad = M.gradient_field(f)
        V = ex2.manifest.potential_field()
        vsq = parse("v^2")
        for a in range(5):
            assert M.is_zero_field(grad.comps[a] - vsq * V.comps[a]).is_zero

        chart = Chart(fixture_data("example2"))
        fsrc = "x^2 + y^2 + z^2 + u^2 + v^2/2"
        pts = [float_env(env) for env in M.sampler.points()
               if abs(abs(float(env["v"])) - 1.0) > 0.05][:3]
        assert pts
        for pt in pts:
            oracle = (chart.hessian_frame(fsrc, pt, 0, 0)
                      + chart.star_ricci_frame(pt, 0, 0))
            engine = float(evaluate(res[0, 0], pt))
            assert abs(engine - oracle) < 1e-5
            assert abs(oracle - (pt["v"] ** 2 - 1)) < 1e-5
            assert abs(oracle) > 1e-3  # nonzero off |v| = 1


def test_acceptance_06c_verify_residual_audit(capsys, ex3):
    with announce(capsys, "06c verify residual matches the oracle"):
        M = ex3.M
        P = SolitonProblem(M, ex3.table, V=ex3.manifest.potential_field())
        rep = verify_soliton(P, -4, 4)
        assert rat_is(rep.residual[0, 0], -8)
        assert rat_is(rep.residual[1, 1], 0)
        assert rat_is(rep.residual[2, 2], 0)

        chart = Chart(fixture_data("example3"))
        vsrc = fixture_data("example3")["potential"]["vector"]
        for env in M.sampler.points()[:2]:
            pt = float_env(env)
            G = chart.G(pt)
            eta = chart.eta(pt)
            for i, want in ((0, -8.0), (1, 0.0), (2, 0.0)):
                oracle = (chart.lie_metric_frame(vsrc, pt, i, i)
                          + 2 * chart.star_ricci_frame(pt, i, i)
                          + 2 * (-4) * G[i, i] + 2 * 4 * eta[i] * eta[i])
                assert abs(oracle - want) < 1e-5, (i, oracle)


# --- 7: property suites (seeded, 100 cases each) ---------------------------------


def _pool_poly(rng, deg=1):
    terms = [str(rng.randint(-2, 2))]
    for name in ("x", "y", "z"):
        c = rng.randint(-2, 2)
        if c:
            terms.append(f"{c}*{name}")
    if deg >= 2 and rng.random() < 0.5:
        a, b = rng.choice([("x", "y"), ("y", "z"), ("x", "z"), ("z", "z")])
        terms.append(f"{rng.randint(-2, 2)}*{a}*{b}")
    return parse(" + ".join(terms))


def _pool_manifold(rng):
    I3 = [[ONE if i == j else ZERO for j in range(3)] for i in range(3)]
    phi = [[ZERO, ONE, ZERO], [Rat(-1), ZERO, ZERO], [ZERO, ZERO, ZERO]]
    if rng.random() < 0.5:
        frame = [[ONE, ZERO, _pool_poly(rng)], [ZERO, ONE, ZERO],
                 [ZERO, ZERO, ONE]]
        metric = I3
    else:
        def warp():
            return parse(f"{rng.randint(1, 3)} + (z + {rng.randint(-1, 1)})^2")
        frame = I3
        metric = [[warp(), ZERO, ZERO], [ZERO, warp(), ZERO],
                  [ZERO, ZERO, ONE]]
    return ManifoldSpec(name="pool", coords=("x", "y", "z"), frame=frame,
                        metric=metric, phi=phi, xi=2,
                        box={c: (-2, 2) for c in ("x", "y", "z")},
                        seed=rng.randrange(1 << 16), samples=6)


@pytest.fixture(scope="module")
def pool():
    rng = random.Random(20260819)
    out = []
    for _ in range(100):
        M = _pool_manifold(rng)
        out.append((M, koszul(M)))
    return out


@pytest.fixture(scope="module")
def pool_tables(pool):
    return [CurvatureTable(M, conn) for M, conn in pool]


BASIS3 = [[ONE if k == m else ZERO for m in range(3)] for k in range(3)]


def test_acceptance_07a_koszul_properties(capsys, pool):
    with announce(capsys, "07a Koszul torsion-free and metric-compatible"):
        for M, conn in pool:
            for i in range(3):
                for j in range(i + 1, 3):
                    for k in range(3):
                        t = (conn.gamma[i][j][k] - conn.gamma[j][i][k]
                             - conn.brackets[i][j][k])
                        assert M.is_zero_field(t).is_zero
            for k in range(3):
                for i in range(3):
                    for j in range(i, 3):
                        lhs = M.frame[k].apply(M.metric[i][j])
                        rhs = (M.metric_apply(conn.gamma[k][i], BASIS3[j])
                               + M.metric_apply(BASIS3[i], conn.gamma[k][j]))
                        assert M.is_zero_field(lhs - rhs).is_zero


def test_acceptance_07b_riemann_properties(capsys, pool, pool_tables):
    with announce(capsys, "07b Riemann antisymmetries and first Bianchi"):
        for (M, _), tab in zip(pool, pool_tables):
            for i in range(3):
                for j in range(3):
                    for k in range(3):
                        cyc = [a + b + c for a, b, c in
                               zip(tab.R[i][j][k], tab.R[j][k][i], tab.R[k][i][j])]
                        for e in cyc:
                            assert M.is_zero_field(e).is_zero
            for a in range(3):
                for i in range(3):
                    for j in range(3):
                        for b in range(j, 3):
                            s = (M.metric_apply(tab.R[a][i][j], BASIS3[b])
                                 + M.metric_apply(tab.R[a][i][b], BASIS3[j]))
                            assert M.is_zero_field(s).is_zero


def test_acceptance_07c_symmetry_properties(capsys, pool, pool_tables):
    with announce(capsys, "07c Ricci and Hessian symmetric"):
        rng = random.Random(7121)
        for (M, conn), tab in zip(pool, pool_tables):
            f = _pool_poly(rng, deg=2)
            H = hessian(M, conn, f)
            for i in range(3):
                for j in range(i + 1, 3):
                    assert M.is_zero_field(H[i][j] - H[j][i]).is_zero
                    assert M.is_zero_field(tab.ricci[i][j] - tab.ricci[j][i]).is_zero


def test_acceptance_07d_gradient_flow_identity(capsys, pool):
    with announce(capsys, "07d metric flow of a gradient equals twice the Hessian"):
        rng = random.Random(90210)
        for M, conn in pool:
            f = _pool_poly(rng, deg=2)
            lg = lie_derivative_metric(M, M.gradient_field(f))
            H = hessian(M, conn, f)
            for i in range(3):
                for j in range(i, 3):
                    assert M.is_zero_field(lg[i][j] - Rat(2) * H[i][j]).is_zero


def test_acceptance_07e_jacobi_identity(capsys):
    with announce(capsys, "07e Jacobi identity for brackets"):
        rng = random.Random(1324)
        coords = ("x", "y", "z")
        samp = Sampler(coords, {c: (Fraction(-2), Fraction(2)) for c in coords},
                       seed=4, count=6)
        for _ in range(100):
            X, Y, Z = (VectorField(coords, [_pool_poly(rng) for _ in range(3)])
                       for _ in range(3))
            a = lie_bracket(lie_bracket(X, Y), Z)
            b = lie_bracket(lie_bracket(Y, Z), X)
            c = lie_bracket(lie_bracket(Z, X), Y)
            for p, q, r in zip(a.comps, b.comps, c.comps):
                assert is_zero(p + q + r, samp).is_zero


def test_acceptance_07f_derivative_matches_finite_differences(capsys):
    with announce(capsys, "07f symbolic partials match finite differences"):
        rng = random.Random(55331)
        coords = ("x", "y", "z")
        for _ in range(100):
            terms = [str(rng.randint(-3, 3))]
            for _ in range(rng.randint(1, 3)):
                a, b, d = (rng.randint(0, 2) for _ in range(3))
                terms.append(f"{rng.randint(-3, 3)}*x^{a}*y^{b}*z^{d}")
            if rng.random() < 0.4:
                lin = " + ".join(f"{rng.randint(-1, 1)}*{n}" for n in coords)
                terms.append(f"{rng.randint(-2, 2)}*exp({lin})")
            e = parse(" + ".join(terms))
            for name in coords:
                de = diff(e, name)
                for _ in range(3):
                    env = {n: rng.uniform(-1, 1) for n in coords}
                    sym = float(evaluate(de, env))
                    h = 1e-6
                    up = dict(env)
                    up[name] = env[name] + h
                    dn = dict(env)
                    dn[name] = env[name] - h
                    fd = (float(evaluate(e, up)) - float(evaluate(e, dn))) / (2 * h)
                    assert abs(sym - fd) <= 1e-6 * max(1.0, abs(sym))


# --- 8: CLI determinism -----------------------------------------------------------


def _sweep_commands():
    """CLI argv of the determinism sweep; each entry names its own seed."""
    out = []
    for name in ("example1", "example2", "example3", "flat", "eta_einstein"):
        out.append((["check", name], 1729))
        for what in ("brackets", "conn", "riem", "ricci", "star", "h"):
            out.append((["tables", name, "--what", what], 1729))
    out += [
        (["soliton", "example1", "--solve"], 1729),
        (["soliton", "example2", "--solve"], 1729),
        (["soliton", "example3", "--solve"], 1729),
        (["soliton", "example3", "--verify", "--p", "0"], 1729),
    ]
    for name in ("example2", "example3", "eta_einstein"):
        out.append((["check", name, "--checks", "nullity,eta_einstein",
                     "--samples", "400"], 1729))
    # a second seed: the structure residuals are frame components and do
    # not depend on it, so these two vary only the sampler's points
    out += [(["check", "example1"], 7), (["check", "example2"], 7)]
    # a dim-7 Kenmotsu manifest (perfbench/gen.py, exp form), read relative
    # to the golden directory so the reported source path is stable
    for what in ("conn", "riem", "star"):
        out.append((["tables", GOLDEN_DIM7, "--what", what], 1729))
    out.append((["soliton", GOLDEN_DIM7, "--solve"], 1729))
    # the two dim-3 Kenmotsu manifests (perfbench/gen.py, both warp forms)
    # of the kind the check_all benchmark runs the full check on
    for path in GOLDEN_DIM3:
        out.append((["check", path], 1729))
    # the remaining table kinds on the dim-7 manifest: each reads only part
    # of the derived data, so these pin the commands that build the least
    for what in ("brackets", "ricci", "h"):
        out.append((["tables", GOLDEN_DIM7, "--what", what], 1729))
    # a dim-9 Kenmotsu manifest in the poly warp form (perfbench/gen.py), the
    # largest kind the derive benchmark runs: every table kind and the solve
    for what in ("brackets", "conn", "riem", "ricci", "star", "h"):
        out.append((["tables", GOLDEN_DIM9, "--what", what], 1729))
    out.append((["soliton", GOLDEN_DIM9, "--solve"], 1729))
    return [argv + ["--json", "--seed", str(seed)] for argv, seed in out]


GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_SWEEP = GOLDEN_DIR / "sweep_seed1729.json"
GOLDEN_SWEEP_TEXT = GOLDEN_DIR / "sweep_text_seed1729.json"
GOLDEN_DIM7 = "kenmotsu_exp_7.json"
GOLDEN_DIM9 = "kenmotsu_poly_9.json"
GOLDEN_DIM3 = ("kenmotsu_exp_3.json", "kenmotsu_poly_3.json")


def test_acceptance_08_cli_determinism(capsys, monkeypatch):
    with announce(capsys, "08 CLI determinism"):
        monkeypatch.chdir(GOLDEN_DIR)
        commands = _sweep_commands()

        def sweep():
            chunks = []
            for argv in commands:
                cli_main(list(argv))
                chunks.append(capsys.readouterr().out)
            return chunks

        first = sweep()
        second = sweep()
        assert first == second
        assert first == json.loads(GOLDEN_SWEEP.read_text())
        for chunk in first:
            json.loads(chunk)


def test_acceptance_08b_cli_text_output(capsys, monkeypatch):
    # the same commands without --json: the text rendering, line for line,
    # and the exit code of each
    with announce(capsys, "08b CLI text output"):
        monkeypatch.chdir(GOLDEN_DIR)
        got = []
        for argv in _sweep_commands():
            argv = [a for a in argv if a != "--json"]
            code = cli_main(list(argv))
            got.append({"argv": argv, "exit_code": code,
                        "stdout": capsys.readouterr().out})
        assert got == json.loads(GOLDEN_SWEEP_TEXT.read_text())


# --- 9: every verdict of check is settled structurally --------------------------


def test_acceptance_09_no_numerically_zero_verdict(capsys, monkeypatch):
    with announce(capsys, "09 check settles every residual and fit structurally"):
        monkeypatch.chdir(GOLDEN_DIR)
        manifests = ("example1", "example2", "example3", "flat", "eta_einstein",
                     GOLDEN_DIM7) + GOLDEN_DIM3
        for name in manifests:
            cli_main(["check", name, "--json"])
            payload = json.loads(capsys.readouterr().out)
            numeric = [(family, r["name"])
                       for family, rep in payload["checks"].items()
                       for r in rep["checks"] if r["verdict"] == "numerically_zero"]
            assert not numeric, (name, numeric)


# --- 10: sample points are drawn only where something is undecided --------------


def test_acceptance_10_points_drawn_only_where_undecided(capsys, monkeypatch):
    # every determinant and fit tuple of the sweep is settled without a
    # point; example3 declares y non-zero on [-2, 2], so its sampler can
    # reject candidates and draws at construction, in every command
    with announce(capsys, "10 only example3's commands draw sample points"):
        monkeypatch.chdir(GOLDEN_DIR)
        commands = _sweep_commands()
        running, drew = [], []
        generate = Sampler._generate

        def recording(sampler):
            drew.append(running[-1])
            return generate(sampler)

        monkeypatch.setattr(Sampler, "_generate", recording)
        for argv in commands:
            running.append(argv)
            cli_main(list(argv))
        capsys.readouterr()
        expected = [argv for argv in commands if argv[1] == "example3"]
        assert len(expected) == 10
        assert drew == expected


# --- 11: the paper's conclusions on the bundled examples --------------------------


def _json_of(capsys, argv):
    cli_main(argv + ["--json"])
    return json.loads(capsys.readouterr().out)


def test_acceptance_11_paper_conclusions(capsys, ex1, ex2, ex3):
    with announce(capsys, "11 paper conclusions on the bundled examples"):
        # example2: a Kenmotsu manifold (n = 2) with a contact potential is
        # Einstein, S = -2n g, and its soliton has lambda~ + mu = 0
        checks = _json_of(capsys, ["check", "example2"])["checks"]
        assert checks["kenmotsu"]["passed"]
        fit = checks["eta_einstein"]["data"]
        assert (fit["a"], fit["b"], fit["einstein"]) == ("-4", "0", True)
        sol = _json_of(capsys, ["soliton", "example2", "--solve"])["soliton"]
        assert (sol["lambda_tilde"], sol["mu"], sol["exact"]) == ("0", "0", True)

        # example3: a (kappa,mu)'-almost Kenmotsu manifold with S* = 0 and
        # kappa = -2, locally H^2(-4) x R; on its orthonormal frame with
        # xi = e_3, K(e_1, xi) = -4 and every other frame plane is flat
        nullity = _json_of(capsys, ["check", "example3"])["checks"]["nullity"]["data"]
        assert (nullity["kappa"], nullity["exact"]) == ("-2", True)
        star = _json_of(capsys, ["tables", "example3", "--what", "star"])["entries"]
        assert star == {"r*": "0"}
        riem = _json_of(capsys, ["tables", "example3", "--what", "riem"])["entries"]
        assert riem == {"R(e_1,e_3)e_1": "4 e_3", "R(e_1,e_3)e_3": "-4 e_1"}

        # every potential is a strict infinitesimal contact transformation:
        # (L_V eta)(e_j) = V(eta(e_j)) - eta([V, e_j]) = 0
        for b in (ex1, ex2, ex3):
            M, V = b.M, b.manifest.potential_field()
            for j in range(M.dim):
                lv_eta = (V.apply(M.eta_frame[j])
                          - M.metric_apply(M.to_frame(lie_bracket(V, M.frame[j])),
                                           M.xi_frame))
                verdict = is_zero(lv_eta, M.sampler, tol=TOL)
                assert verdict.kind == "proved_zero", (b.manifest.name, j)
