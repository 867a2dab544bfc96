"""A command builds only the derived quantities it reads, each at most once.

``cli.Workspace`` builds the connection, the curvature table and the
structure tensors on first use, and ``CurvatureTable`` builds each of its
quantities on first read. The counters here wrap the names ``cli`` binds
and the table's cached properties.
"""

from collections import Counter
from functools import cached_property

import pytest

from contactgeo import cli, curvature
from contactgeo.curvature import CurvatureTable

TABLE_QUANTITIES = ("R", "ricci", "ricci_operator", "scalar_curvature",
                    "star_ricci", "star_scalar")


class Builds:
    def __init__(self):
        self.counts = Counter()
        self.tables = []

    def counting(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper


@pytest.fixture
def builds(monkeypatch, capsys):
    b = Builds()

    def table(M, conn):
        t = CurvatureTable(M, conn)
        b.tables.append(t)
        return t

    monkeypatch.setattr(cli, "koszul", b.counting("koszul", curvature.koszul))
    monkeypatch.setattr(cli, "CurvatureTable", b.counting("CurvatureTable", table))
    monkeypatch.setattr(cli, "StructureTensors",
                        b.counting("StructureTensors", curvature.StructureTensors))
    for name in TABLE_QUANTITIES:
        prop = cached_property(b.counting(name, CurvatureTable.__dict__[name].func))
        prop.__set_name__(CurvatureTable, name)
        monkeypatch.setattr(CurvatureTable, name, prop)
    yield b
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["tables", "example3", "--what", "brackets"],
    ["tables", "example3", "--what", "h"],
    ["check", "example3", "--checks", "almost_contact"],
])
def test_commands_that_never_build_the_connection(builds, argv):
    cli.main(argv)
    assert builds.counts["koszul"] == 0
    assert builds.counts["CurvatureTable"] == 0


@pytest.mark.parametrize("what, built", [
    ("conn", set()),
    ("riem", {"R"}),
    ("ricci", {"R", "ricci", "ricci_operator", "scalar_curvature"}),
    ("star", {"R", "star_ricci", "star_scalar"}),
])
def test_tables_build_only_what_they_print(builds, what, built):
    assert cli.main(["tables", "example2", "--what", what]) == 0
    assert builds.counts["koszul"] == 1
    assert len(builds.tables) == (1 if built else 0)
    for t in builds.tables:
        assert set(TABLE_QUANTITIES) & set(vars(t)) == built


def test_soliton_solve_builds_r_and_star_ricci_only(builds):
    cli.main(["soliton", "example2", "--solve"])
    (t,) = builds.tables
    assert set(TABLE_QUANTITIES) & set(vars(t)) == {"R", "star_ricci"}


@pytest.mark.parametrize("argv", [
    ["check", "example3"],
    ["check", "eta_einstein"],
    ["soliton", "example3", "--solve"],
    ["soliton", "example3", "--verify"],
] + [["tables", "example3", "--what", w] for w in cli.TABLE_NAMES])
def test_every_quantity_built_at_most_once(builds, argv):
    cli.main(argv)
    assert len(builds.tables) <= 1
    assert all(c == 1 for c in builds.counts.values()), builds.counts
