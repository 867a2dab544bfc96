"""Self-tests of the benchmark: inputs, the generator, the known-answer
gate and the span accounting.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import contextlib
import io
import json
import os
import random
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import answers  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from contactgeo import manifest  # noqa: E402
from contactgeo.cli import main as cli_main  # noqa: E402


def _inputs(workload, seed, tmp_path):
    workdir = tmp_path / f"{workload}-{seed}"
    workdir.mkdir()
    cmds = workloads.plan(workload, seed, str(workdir))
    files = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
    argv = [[a for a in c.argv if not a.startswith(str(workdir))] for c in cmds]
    seeds = [workloads.command_seed(workload, seed, k) for k in range(3)]
    return argv, files, seeds


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_inputs(workload, tmp_path):
    a = _inputs(workload, 1, tmp_path)
    b = _inputs(workload, 2, tmp_path)
    (tmp_path / "again").mkdir()
    assert _inputs(workload, 1, tmp_path / "again") == a
    assert a[2] != b[2], "the --seed given to the commands did not change"
    assert len(set(a[2])) == 3, "passes of one run share a --seed"
    if a[1]:
        assert a[1] != b[1], "the generated manifests did not change"


@pytest.mark.parametrize("dim", [3, 5, 7, 9, 11])
@pytest.mark.parametrize("form", gen.FORMS)
def test_generated_manifests_load(dim, form):
    for seed in range(4):
        model = gen.draw(random.Random(seed), dim, form)
        M = manifest.loads(json.dumps(model.manifest())).manifold()
        assert M.dim == dim
        assert [e.value for e in M.xi_frame] == [int(k == model.xi_slot) for k in range(dim)]


def test_generator_rejects_even_and_small_dimensions():
    for dim in (1, 2, 4):
        with pytest.raises(ValueError):
            gen.draw(random.Random(0), dim, "poly")


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


def _model_and_path(tmp_path, form="poly"):
    model = gen.draw(random.Random(5), 3, form)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model.manifest()))
    return model, str(path)


def test_gate_accepts_the_right_answers(tmp_path):
    model, path = _model_and_path(tmp_path)
    for what in workloads.TABLES:
        code, out = _run_cli(["tables", path, "--what", what, "--json"])
        assert answers.compare(answers.model_tables(model, what), code, out) == []
    code, out = _run_cli(["soliton", path, "--solve", "--json"])
    assert answers.compare(answers.model_soliton(model), code, out) == []
    code, out = _run_cli(["check", path, "--json", "--checks",
                          "nullity,eta_einstein"])
    exp = answers.model_check(model, ("nullity", "eta_einstein"))
    assert answers.compare(exp, code, out) == []


def test_gate_catches_wrong_expected_values(tmp_path):
    model, path = _model_and_path(tmp_path)
    code, out = _run_cli(["soliton", path, "--solve", "--json"])
    wrong = gen.Model(model.dim, model.form, model.slots, model.signs,
                      model.c + 1, model.t_range, model.name)
    assert answers.compare(answers.model_soliton(wrong), code, out)

    code, out = _run_cli(["tables", path, "--what", "riem", "--json"])
    exp = answers.model_tables(model, "riem")
    key = next(iter(exp.answer["entries"]))
    exp.answer["entries"][key] = "-" + exp.answer["entries"][key]
    assert answers.compare(exp, code, out)

    code, out = _run_cli(["check", path, "--json", "--checks", "eta_einstein"])
    exp = answers.model_check(model, ("eta_einstein",))
    exp.answer["families"]["eta_einstein"]["data"]["a"] = "-3"
    assert answers.compare(exp, code, out)
    assert answers.compare(answers.Expected("check", 1, families={}), code, out)


def test_runner_counts_a_wrong_answer(tmp_path):
    # the full path: a child process, its record, the end-to-end shares
    model, path = _model_and_path(tmp_path, "exp")
    wrong = gen.Model(model.dim, model.form, model.slots, model.signs,
                      model.c + 1, model.t_range, model.name)
    argv = ["soliton", path, "--solve", "--json"]
    cmds = [workloads.Command("right", argv, answers.model_soliton(model)),
            workloads.Command("wrong", argv, answers.model_soliton(wrong))]
    right, wrong = run.run_pass(cmds, False, 1)
    assert right["mismatches"] == []
    assert wrong["mismatches"]
    metrics = run.end_to_end([[right], [wrong]])
    assert metrics["right_answer_share"][0] == 0.5
    assert metrics["clean_exit_share"][0] == 1.0


def test_self_times_add_up_to_the_traced_time():
    tracer = spans.Tracer()
    leaf = tracer.wrap("leaf", lambda: time.sleep(0.002), after=lambda out: None,
                       fold=True)
    inner = tracer.wrap("inner", lambda: [leaf() for _ in range(3)])

    def outer():
        time.sleep(0.002)
        inner()

    t0 = time.perf_counter()
    tracer.call("root", outer)
    total = time.perf_counter() - t0
    records = json.loads(json.dumps(tracer.records()))
    selfs, root = spans.self_times(records)
    assert set(selfs) == {"root", "inner", "leaf", "trace.count"}
    assert abs(sum(selfs.values()) - root) < 1e-9
    assert 0 <= total - root < 1e-3
    assert selfs["leaf"] >= 0.006
    assert selfs["root"] >= 0.002
    assert [f[2] for f in records["folded"] if f[1] == "leaf"] == [3]


def test_count_nodes():
    from contactgeo.scalar import parse
    assert spans.count_nodes(parse("x")) == 1
    # Add(x, Mul(2, y)) and exp(Add(x, 1))
    assert spans.count_nodes(parse("x + 2*y")) == 5
    assert spans.count_nodes(parse("exp(x + 1)")) == 4
