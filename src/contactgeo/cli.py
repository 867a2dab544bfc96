"""Command line interface: check, tables, soliton.

Reports are deterministic for a fixed manifest and seed: sampling is
seeded, exact arithmetic is used wherever the inputs are exp-free, and
JSON is emitted with sorted keys.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from functools import cached_property
from types import SimpleNamespace

from . import __version__
from . import manifest as manifest_mod
from . import soliton as soliton_mod
from . import structure
from .curvature import CurvatureTable, StructureTensors, frame_brackets, koszul
from .errors import ContactGeoError, MissingPotential
from .scalar import ZERO, clear_caches, to_str

CHECK_NAMES = ("almost_contact", "kenmotsu", "almost_kenmotsu",
               "nullity", "eta_einstein")
TABLE_NAMES = ("brackets", "conn", "riem", "ricci", "star", "h")


def _table_name(text):
    if text not in TABLE_NAMES:
        raise ContactGeoError(
            f"--what must be one of {', '.join(TABLE_NAMES)}, not {text!r}")
    return text


# Each subcommand's options that take a value, as (dest, converter), and its
# flags, as dest. Every subcommand also takes one manifest argument.
_COMMON = {"--seed": ("seed", int), "--samples": ("samples", int),
           "--tol": ("tol", float)}
COMMANDS = {
    "check": ({**_COMMON, "--checks": ("checks", str)},
              {"--json": "as_json"}),
    "tables": ({**_COMMON, "--what": ("what", _table_name)},
               {"--json": "as_json"}),
    "soliton": ({**_COMMON, "--lambda-tilde": ("lambda_tilde", Fraction),
                 "--mu": ("mu", Fraction), "--p": ("p", Fraction)},
                {"--json": "as_json", "--solve": "solve", "--verify": "verify"}),
}
_DEFAULTS = {"checks": ",".join(CHECK_NAMES)}

USAGE = """\
usage: contactgeo {check,tables,soliton} MANIFEST [options]

Verify almost contact metric structures and *-conformal eta-Ricci solitons.
MANIFEST is a manifest path or the name of a bundled fixture.

commands:
  check       run the structure checks
  tables      print connection/curvature/ricci tables
  soliton     solve or verify the soliton equation

options of every command:
  --json            emit a JSON report instead of text
  --seed N          override the sampling seed
  --samples N       override the sample-point count
  --tol X           override the zero-test tolerance

check:
  --checks LIST     comma-separated subset of almost_contact, kenmotsu,
                    almost_kenmotsu, nullity, eta_einstein (default: all)

tables:
  --what KIND       required: brackets, conn, riem, ricci, star or h

soliton:
  --solve           fit the soliton constants (this or --verify is required)
  --verify          check the soliton equation at given constants
  --lambda-tilde Q  lambda~ for --verify (default: the manifest's constant)
  --mu Q            mu for --verify (default: the manifest's constant)
  --p Q             numeric pressure for a concrete classification

An option takes its value as the next argument or after '=' (--seed=5); a
repeated option's last value wins; option names are never abbreviated.

  -h, --help        show this help and exit
  --version         show the version and exit"""


def parse_args(argv):
    """The command line as a namespace of the option table's dests.

    ``-h``/``--help`` or ``--version`` anywhere gives a namespace whose
    ``command`` is None and whose ``text`` is to be printed. Every usage
    error raises ``ContactGeoError``.
    """
    argv = list(argv)
    for token in argv:
        if token in ("-h", "--help", "--version"):
            text = f"contactgeo {__version__}" if token == "--version" else USAGE
            return SimpleNamespace(command=None, text=text)
    if not argv or argv[0] not in COMMANDS:
        got = f"unknown command {argv[0]!r}" if argv else "no command given"
        raise ContactGeoError(f"{got}; choose from {', '.join(COMMANDS)}")
    command = argv[0]
    options, flags = COMMANDS[command]
    args = SimpleNamespace(command=command, manifest=None)
    for dest, _ in options.values():
        setattr(args, dest, _DEFAULTS.get(dest))
    for dest in flags.values():
        setattr(args, dest, False)
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "-" or not token.startswith("-"):
            if args.manifest is not None:
                raise ContactGeoError(f"unexpected argument {token!r}")
            args.manifest = token
            continue
        name, eq, value = token.partition("=")
        if name in flags:
            if eq:
                raise ContactGeoError(f"{name} takes no value")
            setattr(args, flags[name], True)
        elif name in options:
            if not eq:
                value = next(tokens, None)
                if value is None:
                    raise ContactGeoError(f"{name} needs a value")
            dest, convert = options[name]
            try:
                setattr(args, dest, convert(value))
            except (ValueError, ZeroDivisionError):
                raise ContactGeoError(f"{name}: invalid value {value!r}") from None
        else:
            raise ContactGeoError(f"unknown option {name!r} for {command}")
    if args.manifest is None:
        raise ContactGeoError(f"{command} needs a manifest path or bundled fixture name")
    if command == "tables" and args.what is None:
        raise ContactGeoError(f"tables needs --what, one of {', '.join(TABLE_NAMES)}")
    if command == "soliton" and args.solve == args.verify:
        raise ContactGeoError("soliton needs exactly one of --solve and --verify")
    return args


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
            reports[name] = structure.check_almost_kenmotsu(
                M, ws.conn, ws.table, ws.tensors)
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
    """(human lines, json entries) for one table kind: a line
    ``key = value`` per entry, and for h a line for the h' spectrum."""
    M = ws.M
    n = M.dim
    entries = {}
    if what == "brackets":
        brackets = frame_brackets(M)
        for i in range(n):
            for j in range(i + 1, n):
                comps = brackets[i][j]
                if any(_nonzero(c) for c in comps):
                    entries[f"[e_{i + 1},e_{j + 1}]"] = frame_comb(comps)
    elif what == "conn":
        # the full grid, zeros included: the classical display
        for i in range(n):
            for j in range(n):
                entries[f"nabla_e{i + 1} e_{j + 1}"] = frame_comb(ws.conn.gamma[i][j])
    elif what == "riem":
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    comps = ws.table.R[i][j][k]
                    if any(_nonzero(c) for c in comps):
                        entries[f"R(e_{i + 1},e_{j + 1})e_{k + 1}"] = frame_comb(comps)
    elif what == "ricci":
        for i in range(n):
            for j in range(i, n):
                e = ws.table.ricci[i][j]
                if _nonzero(e):
                    entries[f"S(e_{i + 1},e_{j + 1})"] = to_str(e)
        for i in range(n):
            comps = ws.table.ricci_operator[i]
            if any(_nonzero(c) for c in comps):
                entries[f"Q e_{i + 1}"] = frame_comb(comps)
        entries["r"] = to_str(ws.table.scalar_curvature)
    elif what == "star":
        for i in range(n):
            for j in range(i, n):
                e = ws.table.star_ricci[i][j]
                if _nonzero(e):
                    entries[f"S*(e_{i + 1},e_{j + 1})"] = to_str(e)
        entries["r*"] = to_str(ws.table.star_scalar)
    elif what == "h":
        ten = ws.tensors
        for label, rows in (("h", ten.h), ("h'", ten.h_prime)):
            for j in range(n):
                if any(_nonzero(c) for c in rows[j]):
                    entries[f"{label} e_{j + 1}"] = frame_comb(rows[j])
    lines = [f"{key} = {val}" for key, val in entries.items()]
    if what == "h":
        values, spread, _ = ws.tensors.spectrum()
        entries["spectrum"] = [str(v) for v in values]
        entries["spectrum_spread"] = float(spread)
        lines.append(f"h' spectrum: {{{', '.join(str(v) for v in values)}}}"
                     f" (spread {spread:.3g})")
    return lines or ["(empty)"], entries


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
    for (i, j), e in report.residual.items():
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
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args.command is None:
            print(args.text)
            return 0
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
