"""Command line interface: check, tables, soliton.

Reports are deterministic for a fixed manifest and seed: sampling is
seeded, exact arithmetic is used wherever the inputs are exp-free, and
JSON is emitted with sorted keys.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cached_property

from . import __version__
from . import manifest as manifest_mod
from . import soliton as soliton_mod
from . import structure
from .curvature import (CurvatureTable, ExteriorData, StructureTensors, frame_brackets,
                        koszul)
from .errors import ContactGeoError, MissingPotential
from .scalar import ZERO, clear_caches, to_str

CHECK_NAMES = ("almost_contact", "kenmotsu", "almost_kenmotsu",
               "nullity", "eta_einstein")
TABLE_NAMES = ("brackets", "conn", "riem", "ricci", "star", "h")


def _fraction_arg(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("manifest", help="manifest path or bundled fixture name")
    common.add_argument("--json", action="store_true", dest="as_json",
                        help="emit a JSON report instead of text")
    common.add_argument("--seed", type=int, default=None,
                        help="override the sampling seed")
    common.add_argument("--samples", type=int, default=None,
                        help="override the sample-point count")
    common.add_argument("--tol", type=float, default=None,
                        help="override the zero-test tolerance")

    p = argparse.ArgumentParser(
        prog="contactgeo",
        description="verify almost contact metric structures and "
                    "*-conformal eta-Ricci solitons",
    )
    p.add_argument("--version", action="version", version=f"contactgeo {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check", parents=[common],
                        help="run the structure checks")
    pc.add_argument("--checks", default=",".join(CHECK_NAMES),
                    help="comma-separated subset of: " + ", ".join(CHECK_NAMES))

    pt = sub.add_parser("tables", parents=[common],
                        help="print connection/curvature/ricci tables")
    pt.add_argument("--what", choices=TABLE_NAMES, required=True)

    ps = sub.add_parser("soliton", parents=[common],
                        help="solve or verify the soliton equation")
    mode = ps.add_mutually_exclusive_group(required=True)
    mode.add_argument("--solve", action="store_true")
    mode.add_argument("--verify", action="store_true")
    ps.add_argument("--lambda-tilde", type=_fraction_arg, default=None,
                    dest="lambda_tilde")
    ps.add_argument("--mu", type=_fraction_arg, default=None)
    ps.add_argument("--p", type=_fraction_arg, default=None,
                    help="numeric pressure for a concrete classification")
    return p


class Workspace:
    """Everything the commands need, each part built on first use and kept.

    Building one empties the scalar caches, so every command starts cold
    and the caches do not grow across commands run in one process.
    """

    def __init__(self, args):
        clear_caches()
        self.mf = manifest_mod.resolve(args.manifest)
        self.M = self.mf.manifold(seed=args.seed, samples=args.samples,
                                  tol=args.tol)

    @cached_property
    def conn(self):
        return koszul(self.M)

    @cached_property
    def table(self):
        return CurvatureTable(self.M, self.conn)

    @cached_property
    def tensors(self):
        return StructureTensors(self.M)

    def header(self):
        return {
            "version": __version__,
            "manifest": {
                "name": self.mf.name,
                "source": self.mf.path,
                "sha256": self.mf.sha256,
            },
            "settings": {
                "seed": self.M.seed,
                "samples": self.M.samples,
                "tol": self.M.tol,
            },
        }


# --- rendering helpers -------------------------------------------------------


def frame_comb(comps):
    """Render frame components as a combination like ``2*x e_1 - e_5``."""
    terms = []
    for k, c in enumerate(comps):
        if c is ZERO:
            continue
        s = to_str(c)
        if s == "1":
            term = f"e_{k + 1}"
        elif s == "-1":
            term = f"-e_{k + 1}"
        else:
            if ("+" in s[1:]) or ("-" in s[1:]):
                s = f"({s})"
            term = f"{s} e_{k + 1}"
        terms.append(term)
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def _emit(lines, payload, args, code):
    if args.as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


# --- check -------------------------------------------------------------------


def run_checks(ws, selected):
    M = ws.M
    reports = {}
    for name in selected:
        if name == "almost_contact":
            reports[name] = structure.check_almost_contact(M)
        elif name == "kenmotsu":
            reports[name] = structure.check_kenmotsu(M, ws.conn, ws.table)
        elif name == "almost_kenmotsu":
            ext = ExteriorData(M, ws.conn)
            reports[name] = structure.check_almost_kenmotsu(
                M, ws.conn, ws.table, ws.tensors, ext)
        elif name == "nullity":
            reports[name] = structure.solve_nullity(M, ws.conn, ws.table, ws.tensors)
        elif name == "eta_einstein":
            reports[name] = structure.solve_eta_einstein(M, ws.table)
    return reports


def _check_data_line(name, rep):
    d = rep.data
    if name == "nullity":
        mu = "unconstrained" if d["mu_unconstrained"] else d["mu"]
        return (f"  kappa = {d['kappa']}, mu = {mu}, "
                f"fit residual = {d['residual_max']:.3g}, "
                f"spectrum = {d['spectrum']}")
    if name == "eta_einstein":
        tag = " (Einstein)" if d["einstein"] else ""
        return (f"  a = {d['a']}, b = {d['b']}, "
                f"fit residual = {d['residual_max']:.3g}{tag}")
    return None


def cmd_check(args):
    selected = [s.strip() for s in args.checks.split(",") if s.strip()]
    if not selected:
        raise ContactGeoError(
            f"--checks selects no check; choose from {', '.join(CHECK_NAMES)}")
    for s in selected:
        if s not in CHECK_NAMES:
            raise ContactGeoError(
                f"unknown check {s!r}; choose from {', '.join(CHECK_NAMES)}")
        if selected.count(s) > 1:
            raise ContactGeoError(f"check {s!r} is selected more than once")
    ws = Workspace(args)
    reports = run_checks(ws, selected)
    failing = [n for n in selected if not reports[n].passed]
    lines = [f"{ws.mf.name}: structure checks"]
    for name in selected:
        rep = reports[name]
        lines.append(f"{name}: {'PASS' if rep.passed else 'FAIL'}")
        extra = _check_data_line(name, rep)
        if extra:
            lines.append(extra)
        for r in rep.results:
            mark = "ok " if r.passed else "BAD"
            lines.append(f"  [{mark}] {r.name}  ({r.kind}, max |res| = {r.max_abs:.3g})")
            if r.witness is not None and not r.passed:
                label, point, value = r.witness
                at = ", ".join(f"{k}={v}" for k, v in point.items())
                lines.append(f"        witness {label} = {value}" +
                             (f" at {at}" if at else ""))
    lines.append("summary: " + ("PASS" if not failing else
                                "FAIL (" + ", ".join(failing) + ")"))
    payload = ws.header()
    payload["command"] = "check"
    payload["checks"] = {n: reports[n].to_dict() for n in selected}
    payload["passed"] = not failing
    payload["failing"] = failing
    return _emit(lines, payload, args, 0 if not failing else 1)


# --- tables ------------------------------------------------------------------


def _nonzero(e):
    return e is not ZERO


def collect_table(ws, what):
    """(human lines, json entries) for one table kind."""
    M = ws.M
    n = M.dim
    lines, entries = [], {}
    if what == "brackets":
        brackets = frame_brackets(M)
        for i in range(n):
            for j in range(i + 1, n):
                comps = brackets[i][j]
                if any(_nonzero(c) for c in comps):
                    key = f"[e_{i + 1},e_{j + 1}]"
                    val = frame_comb(comps)
                    lines.append(f"{key} = {val}")
                    entries[key] = val
    elif what == "conn":
        # the full grid, zeros included: the classical display
        for i in range(n):
            for j in range(n):
                key = f"nabla_e{i + 1} e_{j + 1}"
                val = frame_comb(ws.conn.gamma[i][j])
                lines.append(f"{key} = {val}")
                entries[key] = val
    elif what == "riem":
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    comps = ws.table.R[i][j][k]
                    if any(_nonzero(c) for c in comps):
                        key = f"R(e_{i + 1},e_{j + 1})e_{k + 1}"
                        val = frame_comb(comps)
                        lines.append(f"{key} = {val}")
                        entries[key] = val
    elif what == "ricci":
        for i in range(n):
            for j in range(i, n):
                e = ws.table.ricci[i][j]
                if _nonzero(e):
                    key = f"S(e_{i + 1},e_{j + 1})"
                    lines.append(f"{key} = {to_str(e)}")
                    entries[key] = to_str(e)
        for i in range(n):
            comps = ws.table.ricci_operator[i]
            if any(_nonzero(c) for c in comps):
                key = f"Q e_{i + 1}"
                val = frame_comb(comps)
                lines.append(f"{key} = {val}")
                entries[key] = val
        entries["r"] = to_str(ws.table.scalar_curvature)
        lines.append(f"r = {entries['r']}")
    elif what == "star":
        for i in range(n):
            for j in range(i, n):
                e = ws.table.star_ricci[i][j]
                if _nonzero(e):
                    key = f"S*(e_{i + 1},e_{j + 1})"
                    lines.append(f"{key} = {to_str(e)}")
                    entries[key] = to_str(e)
        entries["r*"] = to_str(ws.table.star_scalar)
        lines.append(f"r* = {entries['r*']}")
    elif what == "h":
        ten = ws.tensors
        for label, rows in (("h", ten.h), ("h'", ten.h_prime)):
            for j in range(n):
                if any(_nonzero(c) for c in rows[j]):
                    key = f"{label} e_{j + 1}"
                    val = frame_comb(rows[j])
                    lines.append(f"{key} = {val}")
                    entries[key] = val
        values, spread = ten.spectrum()
        entries["spectrum"] = [str(v) for v in values]
        entries["spectrum_spread"] = float(spread)
        lines.append(f"h' spectrum: {{{', '.join(str(v) for v in values)}}}"
                     f" (spread {spread:.3g})")
    if not lines:
        lines = ["(empty)"]
    return lines, entries


def cmd_tables(args):
    ws = Workspace(args)
    lines, entries = collect_table(ws, args.what)
    payload = ws.header()
    payload["command"] = "tables"
    payload["what"] = args.what
    payload["entries"] = entries
    header = [f"{ws.mf.name}: {args.what} table"]
    return _emit(header + lines, payload, args, 0)


# --- soliton -----------------------------------------------------------------


def cmd_soliton(args):
    ws = Workspace(args)
    mf = ws.mf
    V = mf.potential_field()
    f = mf.potential_function
    if V is None and f is None:
        raise MissingPotential(
            f"manifest {mf.name!r} declares no potential; "
            "add a potential field to use the soliton command")
    problem = soliton_mod.SolitonProblem(ws.M, ws.table, V=V, f=f)

    if args.solve:
        report = soliton_mod.solve_soliton(problem)
        mode = "solve"
    else:
        lt = args.lambda_tilde
        mu = args.mu
        if lt is None:
            lt = mf.constants.get("lambda_tilde")
        if mu is None:
            mu = mf.constants.get("mu")
        if lt is None or mu is None:
            raise ContactGeoError(
                "verify mode needs --lambda-tilde and --mu "
                "(or constants in the manifest)")
        report = soliton_mod.verify_soliton(problem, lt, mu)
        mode = "verify"

    d = report.to_dict()
    lines = [f"{mf.name}: soliton {mode} ({report.form} form)"]
    mu_text = "unconstrained" if report.mu_unconstrained else d["mu"]
    lines.append(f"lambda~ = {d['lambda_tilde']}, mu = {mu_text}"
                 + (" (exact)" if report.exact else ""))
    lines.append(f"lambda = {d['lambda']}")
    lines.append(f"residual max = {report.residual_max:.6g}"
                 + ("" if report.passed else "  [not a soliton]"))
    for i, j, e in report.residual_entries():
        if _nonzero(e):
            lines.append(f"  residual(e_{i + 1},e_{j + 1}) = {to_str(e)}")
    payload = ws.header()
    payload["command"] = "soliton"
    payload["mode"] = mode
    payload["soliton"] = d
    if args.p is not None:
        verdict = soliton_mod.classify(report.lambda_tilde, report.n, args.p)
        payload["soliton"]["classification_at_p"] = verdict
        lines.append(f"classification at p = {args.p}: {verdict}")
    else:
        lines.append(f"classification: {d['classification']}")
    return _emit(lines, payload, args, 0 if report.passed else 1)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return cmd_check(args)
        if args.command == "tables":
            return cmd_tables(args)
        return cmd_soliton(args)
    except ContactGeoError as ex:
        print(f"error: {ex.args[0]}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
