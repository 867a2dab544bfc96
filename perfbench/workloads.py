"""The benchmark's workloads: which commands run, on which inputs.

A workload seed fixes the inputs: ``random.Random("<workload>:<seed>")``
draws the generated manifests (see ``gen.py``), and ``command_seed``
gives the ``--seed`` of the k-th run of every command, which moves the
sample points and the random test fields of the structure checks. The
cost of a check moves by about 15% with its random fields, so untraced
runs draw a fresh ``--seed`` per pass and a run's figures average over
the draws.

* ``check_all``: the full ``check`` on the five bundled fixtures and on a
  dimension-3 Kenmotsu manifest in each warp form. Nearly all its time
  is in the random-field residuals of ``check_almost_contact`` and
  ``check_kenmotsu`` and the canonical sums under them.
* ``derive``: every ``tables --what`` kind and ``soliton --solve`` on
  Kenmotsu manifests of dimension 7 and 9, each in both warp forms. No
  structure check runs; the time is in ``koszul``, ``CurvatureTable``,
  ``StructureTensors`` and the soliton solve.
* ``fit``: ``check --checks nullity,eta_einstein --samples 400`` on
  generated manifests of dimension 7 and 9 (warp form drawn from the
  seed) and on example2, example3 and eta_einstein: expression trees are
  evaluated many times but few are built.
"""

from __future__ import annotations

import json
import os
import random

import answers
import gen

WORKLOADS = ("check_all", "derive", "fit")
TABLES = ("brackets", "conn", "riem", "ricci", "star", "h")
FIT_CHECKS = ("nullity", "eta_einstein")
FIT_SAMPLES = 400


class Command:
    def __init__(self, label, argv, expected):
        self.label = label
        self.argv = argv
        self.expected = expected


def _write(model, workdir):
    path = os.path.join(workdir, f"{model.name}.json")
    with open(path, "w") as fh:
        json.dump(model.manifest(), fh, indent=1)
    return path


def command_seed(workload, seed, k):
    """The ``--seed`` given to every command on its k-th run."""
    return random.Random(f"{workload}:{seed}:{k}").randrange(1, 1 << 30)


def plan(workload, seed, workdir):
    """The commands of one workload for one seed, in run order, without
    their ``--seed``.

    Generated manifests are written into ``workdir``.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    common = ["--json"]
    cmds = []
    if workload == "check_all":
        for name in sorted(answers.FIXTURES):
            cmds.append(Command(f"check {name}", ["check", name] + common,
                                answers.fixture_check(name)))
        for form in gen.FORMS:
            model = gen.draw(rng, 3, form)
            cmds.append(Command(f"check {model.name}",
                                ["check", _write(model, workdir)] + common,
                                answers.model_check(model)))
    elif workload == "derive":
        for dim in (7, 9):
            for form in gen.FORMS:
                model = gen.draw(rng, dim, form)
                path = _write(model, workdir)
                for what in TABLES:
                    cmds.append(Command(f"tables {model.name} {what}",
                                        ["tables", path, "--what", what] + common,
                                        answers.model_tables(model, what)))
                cmds.append(Command(f"soliton {model.name}",
                                    ["soliton", path, "--solve"] + common,
                                    answers.model_soliton(model)))
    else:
        fit = ["--checks", ",".join(FIT_CHECKS), "--samples", str(FIT_SAMPLES)]
        for dim in (7, 9):
            model = gen.draw(rng, dim, None)
            cmds.append(Command(f"check {model.name}",
                                ["check", _write(model, workdir)] + fit + common,
                                answers.model_check(model, FIT_CHECKS)))
        for name in ("example2", "example3", "eta_einstein"):
            cmds.append(Command(f"check {name}", ["check", name] + fit + common,
                                answers.fixture_check(name, FIT_CHECKS)))
    return cmds
