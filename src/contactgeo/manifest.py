"""JSON manifests describing a frame manifold.

A manifest holds expression strings; everything numeric-looking is kept
exact (Fractions) so fixture answers survive round-trips. Field errors
raise ParseError with the offending JSON path in ``where``.
"""

from __future__ import annotations

import json
import math
import os
import sys

# The interpreter's own SHA-256, as random.py takes its SHA-512: hashlib
# would also load _hashlib and with it OpenSSL's libcrypto, the largest
# part of a command's memory, for one digest of a few KB per command.
try:
    if sys.version_info >= (3, 12):
        from _sha2 import sha256
    else:
        from _sha256 import sha256
except ImportError:  # an interpreter built without its own SHA-256
    from hashlib import sha256

from . import scalar
from .errors import ParseError
from .geometry import ManifoldSpec, VectorField

REQUIRED_FIELDS = ("coordinates", "frame", "metric_frame", "phi_frame", "xi")
OPTIONAL_FIELDS = ("name", "domain", "potential", "constants",
                   "seed", "samples", "tol")


def _expect(cond, message, where):
    if not cond:
        raise ParseError(message, where=where)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _check_seed(seed):
    _expect(_is_int(seed) and seed >= 0, "seed must be a nonnegative integer", "seed")
    return seed


def _check_samples(samples):
    _expect(_is_int(samples) and samples > 0, "samples must be a positive integer", "samples")
    return samples


def _check_tol(tol):
    _expect(isinstance(tol, (int, float)) and not isinstance(tol, bool)
            and 0 < tol < 1, "tol must be in (0, 1)", "tol")
    return float(tol)


class Manifest:
    """Parsed manifest plus the source bytes' hash."""

    def __init__(self, data, path=None, raw=None):
        if not isinstance(data, dict):
            raise ParseError("manifest must be a JSON object", where="$")
        unknown = set(data) - set(REQUIRED_FIELDS) - set(OPTIONAL_FIELDS)
        _expect(not unknown, f"unknown fields: {sorted(unknown)}", "$")
        for f in REQUIRED_FIELDS:
            _expect(f in data, f"missing required field {f!r}", "$")

        coords = data["coordinates"]
        _expect(isinstance(coords, list) and coords
                and all(isinstance(c, str) and c.isidentifier() for c in coords),
                "coordinates must be a list of identifiers", "coordinates")
        _expect(len(set(coords)) == len(coords),
                "coordinates must be distinct", "coordinates")
        self.coordinates = tuple(coords)
        dim = len(coords)

        self.path = path
        self.sha256 = sha256(raw).hexdigest() if raw is not None else None
        default_name = os.path.splitext(os.path.basename(path))[0] if path else "manifold"
        name = data.get("name", default_name)
        _expect(isinstance(name, str) and name, "name must be a nonempty string", "name")
        self.name = name

        self._parsed = {}  # each expression text parsed so far -> its field
        self.frame = self._matrix(data["frame"], "frame")
        self.metric_frame = self._matrix(data["metric_frame"], "metric_frame")
        self.phi_frame = self._matrix(data["phi_frame"], "phi_frame")

        xi = data["xi"]
        if isinstance(xi, bool):
            raise ParseError("xi must be a frame index or component list", where="xi")
        if isinstance(xi, int):
            _expect(0 <= xi < dim, f"xi index {xi} out of range for dim {dim}", "xi")
            self.xi = xi
        elif isinstance(xi, list):
            _expect(len(xi) == dim, f"xi needs {dim} components", "xi")
            self.xi = [self._expr(e, f"xi[{k}]") for k, e in enumerate(xi)]
        else:
            raise ParseError("xi must be a frame index or component list", where="xi")

        self.box = {}
        self.nonvanish = []
        domain = data.get("domain", [])
        _expect(isinstance(domain, list), "domain must be a list", "domain")
        for k, entry in enumerate(domain):
            where = f"domain[{k}]"
            _expect(isinstance(entry, dict), "domain entries are objects", where)
            if "nonzero" in entry:
                _expect(set(entry) == {"nonzero"}, "nonzero entries carry only that key", where)
                self.nonvanish.append(self._expr(entry["nonzero"], f"{where}.nonzero"))
            else:
                _expect(set(entry) == {"coord", "min", "max"},
                        "interval entries need coord/min/max", where)
                c = entry["coord"]
                _expect(c in self.coordinates, f"unknown coordinate {c!r}", where)
                lo = self._constant(entry["min"], f"{where}.min")
                hi = self._constant(entry["max"], f"{where}.max")
                _expect(lo < hi, "empty interval", where)
                self.box[c] = (lo, hi)

        self.potential_vector = None
        self.potential_function = None
        pot = data.get("potential")
        if pot is not None:
            _expect(isinstance(pot, dict) and len(pot) == 1
                    and next(iter(pot)) in ("vector", "function"),
                    "potential is {vector: [...]} or {function: expr}", "potential")
            if "vector" in pot:
                comps = pot["vector"]
                _expect(isinstance(comps, list) and len(comps) == dim,
                        f"potential vector needs {dim} components", "potential.vector")
                self.potential_vector = [self._expr(e, f"potential.vector[{k}]")
                                         for k, e in enumerate(comps)]
            else:
                self.potential_function = self._expr(pot["function"], "potential.function")

        self.constants = {}
        cons = data.get("constants")
        if cons is not None:
            _expect(isinstance(cons, dict) and set(cons) <= {"lambda_tilde", "mu"},
                    "constants holds lambda_tilde and/or mu", "constants")
            for key, val in cons.items():
                self.constants[key] = self._constant(val, f"constants.{key}")

        self.seed = _check_seed(data.get("seed", scalar.DEFAULT_SEED))
        self.samples = _check_samples(data.get("samples", scalar.DEFAULT_SAMPLES))
        self.tol = _check_tol(data.get("tol", scalar.DEFAULT_TOL))

    def _expr(self, text, where, names=True):
        """Parse one entry, a repeated text once. Every name in it must be
        a declared coordinate, or ``exp`` called as a function; with
        ``names`` False no name is checked."""
        _expect(isinstance(text, (str, int, float)) and not isinstance(text, bool),
                "expected an expression string", where)
        if isinstance(text, float):
            _expect(math.isfinite(text), "expected a finite number", where)
            # as written: repr's exponent, as in 1e-05, is a power of 10
            text = repr(text).replace("e", "*10^")
        elif not isinstance(text, str):
            text = repr(text)
        e = self._parsed.get(text)
        if e is None:
            try:
                e = scalar.parse(text, self.coordinates if names else None)
            except ParseError as ex:
                raise ParseError(f"{ex.args[0]}", where=f"{where}: {text!r}")
            self._parsed[text] = e
        return e

    def _constant(self, raw, where):
        """A domain bound or constant. Names go unchecked, so ``"two"`` is not
        a rational number; the load then stops, so none stays in the cache."""
        _expect(isinstance(raw, (str, int, float)) and not isinstance(raw, bool),
                "expected a number", where)
        e = self._expr(raw, where, names=False)
        _expect(isinstance(e, scalar.Rat), f"not a rational number: {raw!r}", where)
        return e.value

    def _matrix(self, raw, where):
        """Parse a dim x dim matrix; a text parsed before is read from the
        load's dict, and an entry's path is built only for ``_expr``."""
        dim = len(self.coordinates)
        _expect(isinstance(raw, list) and len(raw) == dim,
                f"expected {dim} rows", where)
        parsed = self._parsed
        out = []
        for i, row in enumerate(raw):
            _expect(isinstance(row, list) and len(row) == dim,
                    f"expected {dim} entries", f"{where}[{i}]")
            out.append([parsed[e] if isinstance(e, str) and e in parsed
                        else self._expr(e, f"{where}[{i}][{j}]")
                        for j, e in enumerate(row)])
        return out

    def manifold(self, seed=None, samples=None, tol=None):
        """Build the validated ManifoldSpec; overrides get the manifest's checks."""
        xi = self.xi
        if isinstance(xi, list):
            xi = VectorField(self.coordinates, xi)
        return ManifoldSpec(
            name=self.name,
            coords=self.coordinates,
            frame=self.frame,
            metric=self.metric_frame,
            phi=self.phi_frame,
            xi=xi,
            box=self.box,
            nonvanish=tuple(self.nonvanish),
            seed=self.seed if seed is None else _check_seed(seed),
            samples=self.samples if samples is None else _check_samples(samples),
            tol=self.tol if tol is None else _check_tol(tol),
        )

    def potential_field(self):
        """The vector potential as a VectorField, or None."""
        if self.potential_vector is None:
            return None
        return VectorField(self.coordinates, self.potential_vector)


def loads(text, path=None):
    raw = text.encode("utf-8") if isinstance(text, str) else text
    try:
        data = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as ex:
        raise ParseError(f"manifest is not UTF-8: {ex}", where=path or "<string>")
    except json.JSONDecodeError as ex:
        raise ParseError(f"invalid JSON: {ex.msg}",
                         where=f"{path or '<string>'}:{ex.lineno}:{ex.colno}")
    except ValueError:  # int() takes at most sys.get_int_max_str_digits() digits
        raise ParseError("invalid JSON: an integer of too many digits", where=path or "<string>")
    except RecursionError:
        raise ParseError("invalid JSON: nested too deep", where=path or "<string>")
    return Manifest(data, path=path, raw=raw)


def load(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as ex:
        raise ParseError(f"cannot read manifest: {ex}", where=str(path))
    return loads(raw, path=str(path))


# the bundled fixtures ship as package data next to this module
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_names():
    return sorted(name[:-5] for name in os.listdir(FIXTURES) if name.endswith(".json"))


def resolve(arg):
    """A filesystem path, or a bundled fixture name like ``example2``."""
    if os.path.exists(arg):
        return load(arg)
    base = arg[:-5] if arg.endswith(".json") else arg
    if base.isidentifier():
        path = os.path.join(FIXTURES, f"{base}.json")
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                return loads(fh.read(), path=f"{base}.json")
    raise ParseError(
        f"no such manifest file or fixture: {arg!r} "
        f"(bundled: {', '.join(fixture_names())})",
        where=arg,
    )
