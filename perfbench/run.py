"""contactgeo benchmark: time to a verdict, and the verdict being right.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {check_all,derive,fit} --seed N \
        --seconds S --trace {0,1}

Each command of the workload (see ``workloads.py``) runs through
``contactgeo.cli.main`` in a fresh interpreter (``child.py``), one at a
time, and its JSON output is compared with a known answer
(``answers.py``). A pass runs every command once; passes repeat while
another one still fits in ``--seconds`` (there is always at least one).
Without tracing, the time left after the last pass buys one more run of
each command that still fits, the shortest first.

``--trace 0`` reports the end-to-end metrics, tracing off. ``--trace 1``
alternates an untraced pass with a traced one and reports the per-layer
metrics: self time per layer span, counts, and the tracing overhead. The
spans of every traced command are written once, when the run ends, to
``perfbench/out/trace-<workload>-seed<N>.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT = 150

sys.path.insert(0, HERE)
import answers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# a command's self times must add up to its traced time within this
GAP_TOL_S = 1e-3
GAP_TOL_SHARE = 1e-3

# Times inside cli.main are reported in calibrated seconds: scaled by
# CAL_REF_S over the time of a fixed calibration kernel run in the same
# process just before and after the command (``child.py``). On a shared
# machine whose speed drifts by a third over tens of seconds, the drift
# cancels; where the kernel takes CAL_REF_S, about its time on the 2-core
# Xeon VM the benchmark was written on, calibrated seconds are plain
# seconds. Start-up (exec, dynamic loading, unmarshalling) does not drift
# with the kernel, so setup_s stays in measured seconds.
CAL_REF_S = 0.05

LAYER_TIMES = {
    "structure.almost_contact_s": "structure.almost_contact",
    "structure.kenmotsu_s": "structure.kenmotsu",
    "structure.almost_kenmotsu_s": "structure.almost_kenmotsu",
    "structure.nullity_s": "structure.nullity",
    "structure.eta_einstein_s": "structure.eta_einstein",
    "scalar.is_zero_s": "scalar.is_zero",
    "scalar.evaluate_s": "scalar.evaluate",
    "curvature.koszul_s": "curvature.koszul",
    "curvature.table_s": "curvature.table",
    "curvature.tensors_s": "curvature.tensors",
    "curvature.exterior_s": "curvature.exterior",
    "soliton.solve_s": "soliton.solve",
    "lstsq.solve_s": "lstsq.solve",
    "manifest.load_s": "manifest.load",
    "geometry.manifold_s": "geometry.manifold",
    "cli.self_s": "cli",
}
LAYER_COUNTS = (
    "scalar.is_zero.proved_zero", "scalar.is_zero.numerically_zero",
    "scalar.is_zero.non_zero", "scalar.is_zero.nodes",
    "curvature.riemann_nodes", "lstsq.rows",
)
CALL_COUNTS = {"scalar.is_zero.calls": "scalar.is_zero",
               "scalar.evaluate.calls": "scalar.evaluate"}


def run_command(cmd, trace, cmd_seed):
    """Run one command with ``--seed cmd_seed`` in a fresh interpreter;
    return its record."""
    # one hash seed, so that set iteration order, and with it the work
    # done, is the same on every run; contactgeo comes from SRC only
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    argv = cmd.argv + ["--seed", str(cmd_seed)]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, SRC, "1" if trace else "0"] + argv,
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT} s", "mismatches": [],
                "took_s": time.monotonic() - start}
    took = time.monotonic() - start
    try:
        rec = json.loads(proc.stdout)
    except json.JSONDecodeError:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"error": f"child exited {proc.returncode}: {tail[0]}",
                "mismatches": [], "took_s": took}
    rec["took_s"] = took
    rec["argv"] = argv
    scale = CAL_REF_S / rec["cal_s"]
    rec["raw_main_s"] = rec["main_s"]
    rec["main_s"] *= scale
    rec["setup_s"] = rec["ready"] - start
    rec["error"] = None
    if rec["raised"] is not None:
        rec["error"] = rec["raised"]
    elif rec["code"] not in (0, 1):
        rec["error"] = f"exit code {rec['code']}"
    rec["mismatches"] = ([] if rec["error"] else
                         answers.compare(cmd.expected, rec["code"], rec["stdout"]))
    if trace and not rec["error"]:
        selfs, _ = spans.self_times(rec["trace"])
        gap = rec["raw_main_s"] - sum(selfs.values())
        if abs(gap) > GAP_TOL_S + GAP_TOL_SHARE * rec["raw_main_s"]:
            rec["mismatches"].append(
                f"span self times miss the traced time by {gap:.6f} s")
        rec["self"] = {name: t * scale for name, t in selfs.items()}
        rec["gap_s"] = gap * scale
    return rec


def run_pass(cmds, trace, cmd_seed):
    return [run_command(c, trace, cmd_seed) for c in cmds]


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _wall(recs):
    return sum(r.get("main_s", 0.0) for r in recs)


def end_to_end(samples):
    """End-to-end metrics from ``samples[i]``, the untraced records of
    command i."""
    recs = [r for rs in samples for r in rs]
    ok = [r for r in recs if not r["error"]]
    # per-command medians, so that a burst of load on the machine during
    # one pass moves no command's figure
    per_cmd = [_median([r["main_s"] for r in rs if not r["error"]])
               for rs in samples]
    right = sum(1 for r in recs if not r["error"] and not r["mismatches"])
    return {
        "wall_s": (sum(per_cmd), "s"),
        "cmd_p50_s": (_median(per_cmd), "s"),
        "setup_s": (_median([r["setup_s"] for r in ok]), "s"),
        "peak_rss_mb": (max((r["maxrss_kb"] for r in ok), default=0) / 1024, "MB"),
        "right_answer_share": (right / len(recs), "share"),
        "clean_exit_share": (len(ok) / len(recs), "share"),
    }


def per_layer(plain_passes, traced_passes):
    sums = []
    for p in traced_passes:
        selfs, counts, calls, gap = {}, {}, {}, 0.0
        for r in p:
            if r["error"]:
                continue
            for name, t in r["self"].items():
                selfs[name] = selfs.get(name, 0.0) + t
            for name, v in r["trace"]["counts"].items():
                counts[name] = counts.get(name, 0) + v
            for parent, name, n, seconds in r["trace"]["folded"]:
                calls[name] = calls.get(name, 0) + n
            gap += r["gap_s"]
        sums.append((selfs, counts, calls, gap))
    m = {}
    for metric, span in LAYER_TIMES.items():
        m[metric] = (_median([s[0].get(span, 0.0) for s in sums]), "s")
    for metric in LAYER_COUNTS:
        m[metric] = (_median([s[1].get(metric, 0) for s in sums]), "count")
    for metric, span in CALL_COUNTS.items():
        m[metric] = (_median([s[2].get(span, 0) for s in sums]), "count")
    m["trace.overhead_s"] = (_median([_wall(p) for p in traced_passes])
                             - _median([_wall(p) for p in plain_passes]), "s")
    m["trace.self_gap_s"] = (_median([s[3] for s in sums]), "s")
    return m


def write_trace(workload, seed, cmds, traced_passes):
    commands = []
    for k, p in enumerate(traced_passes):
        for i, (cmd, r) in enumerate(zip(cmds, p)):
            entry = {"id": f"pass{k}.cmd{i}", "label": cmd.label,
                     "argv": r.get("argv"), "main_s": r.get("main_s"),
                     "error": r["error"]}
            if "trace" in r:
                entry.update(r["trace"])
            commands.append(entry)
    path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "span_fields": ["id", "parent", "name", "start", "end"],
                   "folded_fields": ["parent", "name", "calls", "seconds"],
                   "commands": commands}, fh)
    return path


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "contactgeo", "cli.py")):
        print(f"benchmark: no contactgeo sources under {SRC}", file=sys.stderr)
        return 1

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"inputs-{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        cmds = workloads.plan(args.workload, args.seed, workdir)
        plain, traced = [], []
        t_start = time.monotonic()
        while True:
            t0 = time.monotonic()
            # traced runs keep one --seed, so that their counts compare
            # exactly between runs that fit different numbers of passes
            s = workloads.command_seed(args.workload, args.seed,
                                       0 if args.trace else len(plain))
            plain.append(run_pass(cmds, False, s))
            if args.trace:
                traced.append(run_pass(cmds, True, s))
            lap = time.monotonic() - t0
            if time.monotonic() - t_start + lap > args.seconds:
                break
        samples = [[p[i] for p in plain] for i in range(len(cmds))]
        if not args.trace:
            # the time left buys one more sample of each command that still
            # fits, the shortest first
            for i in sorted(range(len(cmds)), key=lambda i: samples[i][-1]["took_s"]):
                if time.monotonic() - t_start + samples[i][-1]["took_s"] <= args.seconds:
                    s = workloads.command_seed(args.workload, args.seed,
                                               len(samples[i]))
                    samples[i].append(run_command(cmds[i], False, s))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    recs = [r for rs in samples for r in rs] + [r for p in traced for r in p]
    failed = sum(1 for r in recs if r["error"] or r["mismatches"])
    for i, cmd in enumerate(cmds):
        mine = samples[i] + [p[i] for p in traced]
        ok = [r for r in samples[i] if not r["error"]]
        bad = [m for r in mine for m in ([r["error"]] if r["error"]
                                         else r["mismatches"])]
        status = "ok" if not bad else "WRONG: " + "; ".join(dict.fromkeys(bad))
        print(f"{cmd.label:<36} median {_median([r['main_s'] for r in ok]):7.4f} s "
              f"calibrated, {_median([r['raw_main_s'] for r in ok]):7.4f} s "
              f"measured, over {len(ok)}  {status}")
    if args.trace:
        print(f"spans written to {write_trace(args.workload, args.seed, cmds, traced)}")
        metrics = per_layer(plain, traced)
    else:
        metrics = end_to_end(samples)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(recs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
