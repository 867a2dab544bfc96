"""List the statements of ``src/contactgeo`` that a run never reaches.

Usage, from the repository root::

    python tests/line_probe.py tier1 [pytest arguments]
    python tests/line_probe.py sweep

``tier1`` runs the test suite in-process (extra arguments go to pytest,
for example ``-k scalar``); ``sweep`` runs the commands of the golden
determinism sweep (``test_acceptance._sweep_commands``), with and without
``--json``, from the golden directory. Either way a ``sys.settrace``
tracer, installed before the package is imported, records every line of
the package that runs. The probe then prints, file by file, how many of
the file's statements never ran and lists each with its source text. A
statement is a line that holds bytecode of the compiled module (a ``def``
line counts as reached when its function is called).

The name does not match ``test_*.py``, so pytest does not collect it.
Tracing makes the suite three to five times slower.
"""

import contextlib
import io
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "contactgeo"


def _code_lines(code):
    return {line for _, _, line in code.co_lines() if line}


def statement_lines(path):
    """The line numbers that hold bytecode of the compiled file."""
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines |= _code_lines(code)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


class LineProbe:
    """Records the package lines that run while it is installed."""

    def __init__(self, files):
        self.statements = {str(p): statement_lines(p) for p in files}
        self.reached = {name: set() for name in self.statements}
        self._done = set()  # code objects whose every line has run

    def _call(self, frame, event, arg):
        code = frame.f_code
        reached = self.reached.get(code.co_filename)
        if reached is None or code in self._done:
            return None
        reached.add(code.co_firstlineno)
        if _code_lines(code) <= reached:
            self._done.add(code)
            return None

        def line(frame, event, arg):
            if event == "line":
                reached.add(frame.f_lineno)
            return line

        return line

    def __enter__(self):
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)
        threading.settrace(None)

    def report(self):
        total = 0
        for name, statements in self.statements.items():
            missed = sorted(statements - self.reached[name])
            total += len(missed)
            if not missed:
                continue
            text = Path(name).read_text().splitlines()
            print(f"{Path(name).relative_to(ROOT)}: {len(missed)} of "
                  f"{len(statements)} statements never ran")
            for n in missed:
                print(f"  {n:5d}  {text[n - 1].strip()}")
        print(f"total: {total} statements never ran")


def run_tier1(args):
    import pytest

    return pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")] + args)


def run_sweep(args):
    sys.path.insert(0, str(ROOT / "tests"))
    from contactgeo.cli import main
    from test_acceptance import GOLDEN_DIR, _sweep_commands

    os.chdir(GOLDEN_DIR)
    for argv in _sweep_commands():
        for variant in (argv, [a for a in argv if a != "--json"]):
            with contextlib.redirect_stdout(io.StringIO()):
                main(list(variant))
    return 0


def main(argv):
    modes = {"tier1": run_tier1, "sweep": run_sweep}
    if not argv or argv[0] not in modes:
        print(__doc__)
        return 2
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    # the subprocess tests import the package too
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    with LineProbe(sorted(PACKAGE.glob("*.py"))) as probe:
        code = modes[argv[0]](argv[1:])
    probe.report()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
