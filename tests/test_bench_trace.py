"""The benchmark's tracer still finds every layer it wraps.

``perfbench/spans.install`` looks up by name the functions it wraps
(``structure.check_*`` and ``solve_*``, ``structure.solve_least_squares``,
``soliton.solve_soliton``, ``scalar.is_zero`` and others) and reads
``.kind`` from the verdict ``scalar.is_zero`` returns. A rename or a change
of return type there breaks ``perfbench/run.py --trace 1`` without a
failing test under ``perfbench/``, which is outside ``testpaths``. Each
case runs one command through ``perfbench/child.py`` with tracing on, in
a fresh interpreter, as the benchmark does.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def traced(argv):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "child.py"), "src", "1", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def span_names(trace):
    return ({name for _, _, name, _, _ in trace["spans"]}
            | {name for _, name, _, _ in trace["folded"]})


@pytest.mark.parametrize("argv, code, expected", [
    (["soliton", "example2", "--solve", "--json"], 0,
     {"cli", "manifest.load", "geometry.manifold", "curvature.koszul",
      "curvature.table", "soliton.solve", "lstsq.solve", "scalar.is_zero"}),
    (["check", "example3", "--json"], 1,
     {"cli", "manifest.load", "geometry.manifold", "curvature.koszul",
      "curvature.table", "curvature.tensors", "structure.almost_contact",
      "structure.kenmotsu", "structure.almost_kenmotsu", "structure.nullity",
      "structure.eta_einstein", "lstsq.solve", "scalar.is_zero"}),
])
def test_traced_command_reports_its_layers(argv, code, expected):
    record = traced(argv)
    assert record["raised"] is None
    assert record["code"] == code
    json.loads(record["stdout"])
    trace = record["trace"]
    assert expected <= span_names(trace)
    counts = trace["counts"]
    assert counts["curvature.riemann_nodes"] > 0
    assert counts["lstsq.rows"] > 0
    assert counts["scalar.is_zero.proved_zero"] > 0
    if code:
        assert counts["scalar.is_zero.non_zero"] > 0
