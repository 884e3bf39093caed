import pytest

from fillperm.enumeration import class_representatives, enumerate_filling
from fillperm.filling import GenusContext
from fillperm.zpiece import derive_template


@pytest.fixture(scope="session")
def ctx1():
    return GenusContext(1)


@pytest.fixture(scope="session")
def ctx3():
    return GenusContext(3)


@pytest.fixture(scope="session")
def g1_solutions(ctx1):
    return enumerate_filling(ctx1)


@pytest.fixture(scope="session")
def g3_solutions(ctx3):
    return enumerate_filling(ctx3)


@pytest.fixture(scope="session")
def g3_class_reps(ctx3):
    return class_representatives(ctx3)


@pytest.fixture(scope="session")
def g4_solutions():
    return enumerate_filling(GenusContext(4))


@pytest.fixture(scope="session")
def template():
    return derive_template()
