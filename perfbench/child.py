"""Run one contactgeo CLI command in this fresh interpreter.

Usage: python3 perfbench/child.py <src dir> <trace 0|1> <cli argv...>

The command runs cold, as it does for a user: the process-global
``scalar._diff_cache`` is empty and the samplers are not built yet. The
CLI's stdout is captured, and one JSON record goes to stdout in its
place: exit code, captured output, the monotonic time at which
``contactgeo.cli`` finished importing, the time inside ``cli.main``, the
time of a fixed calibration kernel run just before and just after it,
max RSS and, when tracing, the spans.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction


def calibrate():
    """Seconds taken by a fixed pure-Python kernel of the kind of work the
    expression engine does: Fraction arithmetic, tuple-keyed dicts and
    sorts. It does not touch contactgeo, so only the machine moves it."""
    t = time.perf_counter()
    acc = {}
    for i in range(1, 12000):
        k = (i % 37, i % 11)
        acc[k] = acc.get(k, Fraction(0)) + Fraction(i % 13 - 6, i % 17 + 1)
        if i % 2500 == 0:
            sorted(acc.items())
    return time.perf_counter() - t


def main():
    src, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, src)
    import contactgeo.cli as cli
    ready = time.monotonic()
    origin = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    if origin != os.path.abspath(src):
        raise SystemExit(f"contactgeo imported from {origin}, not {src}")

    tracer = None
    if trace:
        import spans
        tracer = spans.install(spans.Tracer())

    out = io.StringIO()
    raised = None
    code = None
    cal_before = calibrate()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call("cli", cli.main, argv)
    except SystemExit as ex:  # argparse usage errors
        code = ex.code
    except Exception as ex:  # reported to the runner as an error
        raised = f"{type(ex).__name__}: {ex}"
    main_s = time.perf_counter() - t0
    cal_after = calibrate()

    record = {
        "code": code,
        "raised": raised,
        "stdout": out.getvalue(),
        "ready": ready,
        "main_s": main_s,
        "cal_s": (cal_before + cal_after) / 2,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        record["trace"] = tracer.records()
    sys.stdout.write(json.dumps(record))


if __name__ == "__main__":
    main()
