import pytest

from contactgeo import manifest
from contactgeo.curvature import CurvatureTable, StructureTensors, koszul


class Bundle:
    """One fixture manifold with its derived tables, shared per session."""

    def __init__(self, name):
        self.manifest = manifest.resolve(name)
        self.M = self.manifest.manifold()
        self.conn = koszul(self.M)
        self.table = CurvatureTable(self.M, self.conn)
        self.tensors = StructureTensors(self.M)


@pytest.fixture(scope="session")
def ex1():
    return Bundle("example1")


@pytest.fixture(scope="session")
def ex2():
    return Bundle("example2")


@pytest.fixture(scope="session")
def ex3():
    return Bundle("example3")


@pytest.fixture(scope="session")
def flat():
    return Bundle("flat")


@pytest.fixture(scope="session")
def heis():
    return Bundle("eta_einstein")
