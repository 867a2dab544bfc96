"""In-memory spans around the public functions of each contactgeo layer.

Nothing under ``src/`` changes: ``install`` replaces each function at the
name its caller binds (``cli`` binds ``koszul``, ``CurvatureTable``,
``StructureTensors`` and ``ExteriorData``; ``structure`` and ``soliton``
bind ``evaluate`` and ``solve_least_squares``; the module functions are
reached through their module), so the spans sit on the layer boundaries.

A span records its id, its parent's id, its name, start and end. The two
hot leaf functions, ``scalar.evaluate`` and ``scalar.is_zero``, are called
up to hundreds of thousands of times per command; their calls are folded into
one record per (parent span, name) that holds the call count and the
summed duration. Work the tracer itself does (counting tree nodes) is
folded the same way under the name ``trace.count``, so it is charged to
no layer.
"""

from __future__ import annotations

import time
from collections import defaultdict

clock = time.perf_counter


def count_nodes(e):
    """Number of nodes in an expression tree (shared subtrees counted
    once per occurrence)."""
    total = 0
    stack = [e]
    while stack:
        node = stack.pop()
        total += 1
        for attr in ("terms", "factors"):
            kids = getattr(node, attr, None)
            if kids is not None:
                stack.extend(kids)
                break
        else:
            for attr in ("arg", "base"):
                kid = getattr(node, attr, None)
                if kid is not None:
                    stack.append(kid)
    return total


class Tracer:
    """Spans of one command, kept in memory until the command ends."""

    def __init__(self):
        self.spans = []              # [id, parent id, name, start, end]
        self.folded = {}             # (parent id, name) -> [calls, seconds]
        self.counts = defaultdict(int)
        self._stack = []             # [id, name, start]
        self._next_id = 0

    def _open(self, name):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, name, clock()]
        self._stack.append(frame)
        return parent, frame

    def _close(self, parent, frame):
        end = clock()
        self._stack.pop()
        self.spans.append([frame[0], parent, frame[1], frame[2], end])

    def _fold(self, name, seconds):
        key = (self._stack[-1][0] if self._stack else None, name)
        rec = self.folded.get(key)
        if rec is None:
            self.folded[key] = [1, seconds]
        else:
            rec[0] += 1
            rec[1] += seconds

    def call(self, name, fn, /, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        parent, frame = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(parent, frame)

    def wrap(self, name, fn, before=None, after=None, fold=False):
        """A stand-in for ``fn`` that runs it inside a span.

        With ``fold``, for a leaf function called very often, the calls
        are folded into one record per parent span instead. ``before(args)``
        and ``after(result)`` update counters; their time is folded under
        ``trace.count``.
        """
        def timed(*args, **kwargs):
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._fold(name, clock() - t)

        def traced(*args, **kwargs):
            if before is not None:
                t = clock()
                before(args)
                self._fold("trace.count", clock() - t)
            if fold:
                out = timed(*args, **kwargs)
            else:
                out = self.call(name, fn, *args, **kwargs)
            if after is not None:
                t = clock()
                after(out)
                self._fold("trace.count", clock() - t)
            return out
        traced.__wrapped__ = fn
        return traced

    def records(self):
        """Every span and folded record, as JSON-ready lists."""
        folded = [[parent, name, calls, seconds]
                  for (parent, name), (calls, seconds) in self.folded.items()]
        return {"spans": self.spans, "folded": folded,
                "counts": dict(self.counts)}


def self_times(records):
    """Self time per span name: duration minus the time of its child
    spans and folded calls. Returns ``(by name, root duration)``."""
    child = defaultdict(float)
    for sid, parent, name, start, end in records["spans"]:
        if parent is not None:
            child[parent] += end - start
    for parent, name, calls, seconds in records["folded"]:
        if parent is not None:
            child[parent] += seconds
    out = defaultdict(float)
    root = 0.0
    for sid, parent, name, start, end in records["spans"]:
        out[name] += (end - start) - child[sid]
        if parent is None:
            root += end - start
    for parent, name, calls, seconds in records["folded"]:
        out[name] += seconds
    return dict(out), root


def install(tracer):
    """Wrap the layer functions of an imported contactgeo at the names
    their callers bind. Returns the tracer."""
    from contactgeo import cli, curvature, geometry, manifest, scalar
    from contactgeo import soliton, structure

    counts = tracer.counts

    def riemann_nodes(table):
        counts["curvature.riemann_nodes"] += sum(
            count_nodes(e) for i, row in enumerate(table.R)
            for j in range(i + 1, len(row)) for comps in row[j] for e in comps)

    cli.koszul = tracer.wrap("curvature.koszul", curvature.koszul)
    cli.CurvatureTable = tracer.wrap("curvature.table", curvature.CurvatureTable,
                                     after=riemann_nodes)
    cli.StructureTensors = tracer.wrap("curvature.tensors",
                                       curvature.StructureTensors)
    cli.ExteriorData = tracer.wrap("curvature.exterior", curvature.ExteriorData)

    manifest.resolve = tracer.wrap("manifest.load", manifest.resolve)
    manifest.ManifoldSpec = tracer.wrap("geometry.manifold",
                                        geometry.ManifoldSpec)

    for fn, name in ((structure.check_almost_contact, "almost_contact"),
                     (structure.check_kenmotsu, "kenmotsu"),
                     (structure.check_almost_kenmotsu, "almost_kenmotsu"),
                     (structure.solve_nullity, "nullity"),
                     (structure.solve_eta_einstein, "eta_einstein")):
        setattr(structure, fn.__name__, tracer.wrap(f"structure.{name}", fn))
    soliton.solve_soliton = tracer.wrap("soliton.solve", soliton.solve_soliton)

    def rows(args):
        counts["lstsq.rows"] += len(args[0])

    solve = tracer.wrap("lstsq.solve", structure.solve_least_squares,
                        before=rows)
    structure.solve_least_squares = solve
    soliton.solve_least_squares = solve

    def zero_input(args):
        counts["scalar.is_zero.nodes"] += count_nodes(args[0])

    def zero_outcome(verdict):
        counts["scalar.is_zero." + verdict.kind] += 1

    scalar.is_zero = tracer.wrap("scalar.is_zero", scalar.is_zero,
                                 before=zero_input, after=zero_outcome,
                                 fold=True)
    geometry.is_zero = scalar.is_zero

    evaluate = tracer.wrap("scalar.evaluate", scalar.evaluate, fold=True)
    for mod in (structure, soliton, curvature, geometry):
        mod.evaluate = evaluate
    return tracer
