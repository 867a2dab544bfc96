"""Measure what starting contactgeo costs: wall time, peak memory, modules.

Usage, from the repository root::

    python -I -S tests/startup_probe.py [--runs N] [--against DIR] [--out PATH]

Every run is a fresh ``python -I -S -B`` interpreter. ``-I -S`` keep the
environment and the ``site`` hooks (``.pth`` files) out, which can cost
more than the program itself; ``-B`` keeps the runs from writing
bytecode, so a checkout without ``__pycache__`` (a fresh ``git archive``
export) compiles ``src/`` in every run, as the benchmark's children do
under ``PYTHONDONTWRITEBYTECODE``. Three cases run:

- ``bare``: the interpreter alone;
- ``import``: ``import contactgeo.cli``;
- ``check``: ``contactgeo check example2 --json`` through ``cli.main``.

For each case the probe reports the median and quartiles, over N runs,
of the wall time from spawn to exit and of the peak RSS (the child's
``ru_maxrss``, read with ``os.wait4``), and lists the modules the case
loads beyond the bare interpreter. With ``--against DIR`` it also runs
the checkout at DIR (its ``src/``), one run of each side per pair, the
side that goes first alternating, and counts the pairs in which this
checkout read lower. The report goes to ``BENCH_startup.json`` at the
repository root, or to ``--out``.

The name does not match ``test_*.py``, so pytest does not collect it.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLAGS = ("-I", "-S", "-B")
METRICS = ("wall_s", "ru_maxrss_mb", "own_peak_rss_mb")

# each case prints, as its last line, its own peak RSS (VmHWM, in kB) and
# the names in sys.modules; -I leaves PYTHONPATH out, so the src directory
# comes as the code's first argument
ON_PATH = "import sys\nsys.path.insert(0, sys.argv.pop(1))\n"
MODULES = """with open('/proc/self/status') as fh:
    hwm = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))
print(hwm, *sorted(sys.modules))
"""
BARE = "import sys\n" + MODULES
CASES = {
    "import": (ON_PATH + "import contactgeo.cli\n" + MODULES, []),
    # the report is written to a buffer, as a redirected stdout takes it
    "check": (ON_PATH + "import io\nfrom contactgeo.cli import main\n"
              "sys.stdout = io.StringIO()\nrc = main(sys.argv[1:])\n"
              "sys.stdout = sys.__stdout__\n" + MODULES + "sys.exit(rc)\n",
              ["check", "example2", "--json"]),
}


def run_once(code, args):
    """Wall seconds, ``ru_maxrss`` and own peak RSS in MB, and the loaded
    modules of one fresh interpreter running ``code``; a non-zero exit is
    an error."""
    argv = [sys.executable, *FLAGS, "-c", code, *args]
    read, write = os.pipe()
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, os.environ,
                             file_actions=[(os.POSIX_SPAWN_DUP2, write, 1),
                                           (os.POSIX_SPAWN_CLOSE, read)])
        os.close(write)
        chunks = []
        while chunk := os.read(read, 65536):
            chunks.append(chunk)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    finally:
        os.close(read)
    lines = b"".join(chunks).decode().splitlines()
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not lines:
        raise SystemExit(f"{' '.join(argv[1:4])} ... {' '.join(args)} exited {code}")
    hwm, *modules = lines[-1].split()
    return wall, usage.ru_maxrss / 1024, int(hwm) / 1024, set(modules)


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def probe(runs, sides):
    """Run the bare interpreter and every case of every side ``runs`` times;
    ``sides`` maps a label to a src directory."""
    def record(rec, code, args):
        for key, value in zip(METRICS + ("modules",), run_once(code, args)):
            if key == "modules":
                rec["modules"] |= value
            else:
                rec[key].append(value)

    def empty():
        return {**{key: [] for key in METRICS}, "modules": set()}

    bare = empty()
    got = {label: {case: empty() for case in CASES} for label in sides}
    labels = list(sides)
    for i in range(runs):
        record(bare, BARE, [])
        for label in labels if i % 2 == 0 else labels[::-1]:
            for case, (code, args) in CASES.items():
                record(got[label][case], code, [str(sides[label])] + args)
    report = {
        "python": sys.version.split()[0],
        "flags": list(FLAGS),
        "runs": runs,
        # a spawned child's ru_maxrss also counts the pages this process
        # held when it spawned the child: no run reads below it
        "probe_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "bare": {key: summary(bare[key]) for key in METRICS},
        "sides": {},
    }
    for label, src in sides.items():
        report["sides"][label] = {"src": str(src), "cases": {
            case: {**{key: summary(rec[key]) for key in METRICS},
                   "modules": sorted(rec["modules"] - bare["modules"])}
            for case, rec in got[label].items()}}
    if len(labels) == 2:
        this, other = (got[label] for label in labels)
        report["pairs"] = {case: {
            key + "_lower_in": sum(a < b for a, b in zip(this[case][key], other[case][key]))
            for key in METRICS} for case in CASES}
    return report


def _row(name, rec):
    w, r, o = (rec[key] for key in METRICS)
    return (f"{name:<16} wall {w['median'] * 1000:6.1f} ms [{w['q1'] * 1000:.1f}-"
            f"{w['q3'] * 1000:.1f}]  ru_maxrss {r['median']:.2f} MB [{r['q1']:.2f}-"
            f"{r['q3']:.2f}]  own {o['median']:.2f} MB [{o['q1']:.2f}-{o['q3']:.2f}]")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=20, help="runs per case and side")
    parser.add_argument("--against", type=Path, help="another checkout to run in pairs")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_startup.json")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs needs at least 2 runs for quartiles")
    sides = {"this": ROOT / "src"}
    if args.against is not None:
        sides["against"] = args.against.resolve() / "src"
    report = probe(args.runs, sides)
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    print(f"python {report['python']} {' '.join(FLAGS)}, {args.runs} runs each; "
          f"the probe itself holds {report['probe_maxrss_mb']:.2f} MB")
    print(_row("bare", report["bare"]))
    for case in CASES:
        for label, side in report["sides"].items():
            rec = side["cases"][case]
            print(_row(f"{case} ({label})", rec) + f"  +{len(rec['modules'])} modules")
        if "pairs" in report:
            pairs = report["pairs"][case]
            print(f"{'':16} this lower in " + ", ".join(
                f"{pairs[key + '_lower_in']}/{args.runs} ({key})" for key in METRICS))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
